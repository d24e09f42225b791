"""Criterion, minimal-time solver, transfer-set structure, witnesses, claims."""
import itertools
import math

import numpy as np
import pytest

from caywalk.cayley import CayleyGraph, cayley_graph, enumerate_oriented_class_unions
from caywalk.characters import (
    abelian_character_table,
    character_table_for,
    character_table_numerical,
    export_character_table,
    galois_stabilizers,
    import_character_table,
    rational_intersection,
)
from caywalk.config import DEFAULT_CONFIG
from caywalk.engine import (
    APERIODIC_WALK,
    STATIC_WALK,
    MSTReport,
    check_imported_claim,
    check_pst_at,
    check_pst_pair,
    check_transfer_classes,
    compute_S_e,
    nonexistence_witness,
    nonexistence_witness_classes,
    parse_time,
    partition_into_transfer_classes,
    residual_at,
    solvable_exclusion_report,
    solve_pst_time,
    time_rationality_check,
    verdict_document,
    walk_frequency,
    walk_thetas,
)
from caywalk.errors import InvalidParameterError, InvariantBreachError, SchemaError
from caywalk.groups import (
    GroupTable,
    build_abelian_power,
    build_cyclic,
    build_extraspecial3,
    build_group,
    conjugacy,
    index_of_digits,
    parse_group_spec,
)
from conftest import row_loop_stabilizers, row_loop_witness, winding_search_times

TAU3 = 2 * math.pi / (3 * math.sqrt(3.0))


def cyclic_setup(r, classes):
    g = build_cyclic(r)
    conj = conjugacy(g)
    graph = cayley_graph(g, conj, classes)
    return graph, abelian_character_table(r, 1)


# ---------------------------------------------------------------------------
# time parsing


def test_parse_time_tags_and_floats():
    assert parse_time("pi/2") == pytest.approx(math.pi / 2)
    assert parse_time("pi/4") == pytest.approx(math.pi / 4)
    assert parse_time("2pi/3sqrt3") == pytest.approx(TAU3)
    assert parse_time("solved:0.75") == 0.75
    assert parse_time("0.25") == 0.25
    assert parse_time(1.5) == 1.5
    with pytest.raises(InvalidParameterError):
        parse_time("junk")


# ---------------------------------------------------------------------------
# the criterion


def test_criterion_accepts_cyclic3_time():
    graph, table = cyclic_setup(3, [1])
    res = check_pst_at(graph, table, 1, TAU3)
    assert res.accepted and res.residual < 1e-10


def test_criterion_rejects_wrong_time():
    graph, table = cyclic_setup(3, [1])
    res = check_pst_at(graph, table, 1, TAU3 / 2)
    assert not res.accepted and res.residual > 0.5


def test_criterion_rejects_noncentral_target():
    g = build_extraspecial3(1)
    conj = conjugacy(g)
    graph = cayley_graph(g, conj, [int(conj.class_of[g.index_of("x1")])])
    table = character_table_for(g, conj)
    res = check_pst_at(graph, table, g.index_of("x1"), 1.0)
    assert not res.accepted and res.reason == "target is not central"
    assert res.residual == math.inf


def test_criterion_rejects_nonsingleton_class(s3_table):
    conj = conjugacy(s3_table)
    table = character_table_numerical(s3_table, conj)
    big = next(i for i, c in enumerate(conj.classes) if len(c) == 3)
    res = check_transfer_classes(table, [big], big, 1.0)
    assert not res.accepted and res.reason == "target class is not central"


def test_pair_check_translates_to_identity():
    graph, table = cyclic_setup(8, [1, 2, 5])
    direct = check_pst_at(graph, table, 2, math.pi / 4)
    pair = check_pst_pair(graph, table, 3, 5, math.pi / 4)
    assert direct.accepted and pair.accepted
    assert pair.residual == pytest.approx(direct.residual, abs=1e-15)


def test_residual_at_is_max_abs():
    ratios = np.array([1.0 + 0j, -1.0 + 0j])
    thetas = np.array([0.0j, 1.0j])
    assert residual_at(ratios, thetas, math.pi) == pytest.approx(0.0, abs=1e-12)
    assert residual_at(ratios, thetas, 0.0) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# minimal-time solving


def test_solver_finds_minimal_times_cyclic8():
    graph, table = cyclic_setup(8, [1, 2, 5])
    for z, want in ((2, math.pi / 4), (4, math.pi / 2), (6, 3 * math.pi / 4)):
        out = solve_pst_time(graph, table, z)
        assert out.certificate is not None
        assert out.certificate.tau == pytest.approx(want, abs=1e-10)
        assert out.certificate.residual < 1e-10


def test_solver_cyclic3():
    graph, table = cyclic_setup(3, [1])
    out = solve_pst_time(graph, table, 1)
    assert out.certificate.tau == pytest.approx(TAU3, abs=1e-12)


def test_solver_requires_central_target():
    g = build_extraspecial3(1)
    conj = conjugacy(g)
    graph = cayley_graph(g, conj, [int(conj.class_of[g.index_of("x1")])])
    table = character_table_for(g, conj)
    with pytest.raises(InvalidParameterError):
        solve_pst_time(graph, table, g.index_of("x1"))


def test_solver_identity_needs_period_mode():
    graph, table = cyclic_setup(3, [1])
    with pytest.raises(InvalidParameterError):
        solve_pst_time(graph, table, 0)
    out = solve_pst_time(graph, table, 0, period_mode=True)
    assert out.certificate is not None
    assert out.certificate.tau == pytest.approx(2 * math.pi / math.sqrt(3.0), abs=1e-10)


def test_solver_rejects_static_separating_character():
    """A character that distinguishes z from e but never moves kills every time."""
    g = build_abelian_power(4, 2)
    conj = conjugacy(g)
    classes = [int(conj.class_of[index_of_digits([1, 1], 4)]),
               int(conj.class_of[index_of_digits([1, 3], 4)])]
    graph = cayley_graph(g, conj, classes)
    table = abelian_character_table(4, 2)
    out = solve_pst_time(graph, table, index_of_digits([2, 0], 4))
    assert out.certificate is None
    assert out.near_miss_residual == math.inf


def test_solver_near_miss_on_cyclic5():
    """Cay(Z_5, {1, 2}) has an aperiodic spectrum, so it transfers nowhere, ever."""
    graph, table = cyclic_setup(5, [1, 2])
    out = solve_pst_time(graph, table, 1)
    assert out.certificate is None
    assert out.near_miss_residual == math.inf and out.near_miss_time is None
    assert out.reason == APERIODIC_WALK


def test_solver_periodic_miss_keeps_finite_near_miss():
    """Cay(Z_6, {1}) returns at 2pi/sqrt3 but never reaches 2: the best candidate is reported."""
    graph, table = cyclic_setup(6, [1])
    assert walk_frequency(walk_thetas(table, [1]), table.tolerance)[0] == \
        pytest.approx(math.sqrt(3.0), abs=1e-12)
    out = solve_pst_time(graph, table, 2)
    assert out.certificate is None
    assert out.near_miss_residual == pytest.approx(math.sqrt(3.0), abs=1e-9)
    assert out.near_miss_time == pytest.approx(TAU3, abs=1e-12)
    assert out.reason is not None


def test_walk_frequency_verdicts():
    assert walk_frequency(np.array([0j, 2j, -2j, 4j]), 1e-8) == (2.0, None)
    omega, reason = walk_frequency(np.array([0j, 3j * math.sqrt(2), -math.sqrt(8) * 1j]), 1e-8)
    assert omega == pytest.approx(math.sqrt(2.0)) and reason is None
    # y^2 = 2 and 4 are integers with different squarefree parts
    assert walk_frequency(np.array([math.sqrt(2) * 1j, 2j]), 1e-8) == (None, APERIODIC_WALK)
    assert walk_frequency(np.array([math.e * 1j]), 1e-8) == (None, APERIODIC_WALK)
    assert walk_frequency(np.array([0j, 1e-12j]), 1e-8) == (None, STATIC_WALK)


DIFFERENTIAL_GROUPS = ("z4^2", "z:8", "z:9", "z:12", "z:13", "z3^2")


@pytest.mark.parametrize("spec", DIFFERENTIAL_GROUPS)
def test_one_pass_solver_matches_winding_search(spec):
    """Every oriented set: the same transfer set and times as the earlier solver."""
    group = build_group(parse_group_spec(spec))
    conj = conjugacy(group)
    table = character_table_for(group, conj)
    for conn in enumerate_oriented_class_unions(conj):
        graph = CayleyGraph(group=group, conj=conj, conn=conn)
        report = compute_S_e(graph, table)
        want = winding_search_times(graph, table)
        assert set(report.certificates) == set(want), conn.class_indices
        assert report.S_e == tuple(sorted({group.identity, *want}))
        assert report.size == len(report.S_e)
        if want:
            assert report.generator == min(want, key=lambda z: (want[z][0], z))
        else:
            assert report.generator is None
        for z, cert in report.certificates.items():
            assert cert.tau == pytest.approx(want[z][0], abs=1e-12)


# ---------------------------------------------------------------------------
# transfer sets


def test_transfer_set_cyclic8():
    graph, table = cyclic_setup(8, [1, 2, 5])
    report = compute_S_e(graph, table)
    assert report.S_e == (0, 2, 4, 6)
    assert report.size == 4
    assert report.generator == 2
    assert report.minimal_time == pytest.approx(math.pi / 4, abs=1e-10)
    assert set(report.certificates) == {2, 4, 6}
    assert report.certificates[4].tau == pytest.approx(math.pi / 2, abs=1e-10)


def test_transfer_set_trivial_when_no_transfer():
    g = build_abelian_power(4, 2)
    conj = conjugacy(g)
    classes = [int(conj.class_of[index_of_digits([1, 1], 4)]),
               int(conj.class_of[index_of_digits([1, 3], 4)])]
    graph = cayley_graph(g, conj, classes)
    report = compute_S_e(graph, abelian_character_table(4, 2))
    assert report.size == 1 and report.S_e == (0,)
    assert report.generator is None and report.minimal_time is None
    assert partition_into_transfer_classes(graph, report) is None


def test_transfer_set_trivial_on_centerless_group():
    """A_4 has a periodic oriented walk but no central target at all."""
    perms = [p for p in itertools.permutations(range(4))
             if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    index = {p: i for i, p in enumerate(perms)}
    mul = np.array([[index[tuple(p[q[k]] for k in range(4))] for q in perms] for p in perms])
    inv = np.array([index[tuple(p.index(k) for k in range(4))] for p in perms])
    g = GroupTable(order=12, mul=mul, identity=index[(0, 1, 2, 3)], inv=inv,
                   labels=tuple(map(str, range(12))))
    conj = conjugacy(g)
    three_cycles = next(i for i, c in enumerate(conj.classes) if len(c) == 4)
    graph = cayley_graph(g, conj, [three_cycles])
    report = compute_S_e(graph, character_table_for(g, conj))
    assert report.S_e == (g.identity,) and report.size == 1


def test_partition_into_equal_cosets():
    graph, table = cyclic_setup(8, [1, 2, 5])
    report = compute_S_e(graph, table)
    parts = partition_into_transfer_classes(graph, report)
    assert parts == ((0, 2, 4, 6), (1, 3, 5, 7))


def test_partition_guard_rejects_non_subgroup():
    # translates of a 3-element set cannot tile 8 vertices
    graph, table = cyclic_setup(8, [1, 2, 5])
    fake = MSTReport(S_e=(0, 1, 2), size=3, generator=1, minimal_time=1.0, certificates={})
    with pytest.raises(InvariantBreachError):
        partition_into_transfer_classes(graph, fake)


# ---------------------------------------------------------------------------
# time arithmetic


def test_rationality_pi_multiples():
    r = time_rationality_check(math.pi / 4, 4)
    assert r.ok and r.multiplier == "pi" and (r.p, r.q) == (1, 4)
    r2 = time_rationality_check(math.pi / 2, 2)
    assert r2.ok and (r2.p, r2.q) == (1, 2)


def test_rationality_sqrt3_multiples():
    r = time_rationality_check(TAU3, 3)
    assert r.ok and r.multiplier == "pi/sqrt3" and (r.p, r.q) == (2, 3)


def test_rationality_denominator_cap():
    assert time_rationality_check(TAU3, 3, max_denominator=8).ok
    assert not time_rationality_check(0.3183 * math.pi, 2, max_denominator=8).ok


def test_rationality_rejects_generic_reals():
    assert not time_rationality_check(math.e, 2).ok
    taus = np.random.default_rng(20251010).uniform(0.1, 10.0, 20_000)
    accepted = sum(time_rationality_check(float(t), 2).ok for t in taus)
    assert accepted <= 20  # at most 0.1%


# ---------------------------------------------------------------------------
# nonexistence witnesses and solvability


def witness_setup(r):
    g = build_cyclic(r)
    conj = conjugacy(g)
    table = abelian_character_table(r, 1)
    return g, conj, table, galois_stabilizers(table, conj)


def test_witness_forbids_transfer_on_cyclic6():
    g, conj, table, gal = witness_setup(6)
    w = nonexistence_witness(conj, table, gal, 3)
    assert w is not None
    assert w.char_indices == (1, 3)
    assert w.z == 3 and w.exponent == 6
    # soundness of the witness itself: z sits in no chosen kernel and the
    # stabilizers jointly generate the full unit group
    for i in w.char_indices:
        assert abs(table.values[i, 3] - table.values[i, 0]) > 0.5
    assert set(gal.stabilizers[1]) | set(gal.stabilizers[3]) == {1, 5}


@pytest.mark.parametrize("spec, some_witness", [
    ("z:12", True), ("z4^2", True), ("z6^2", True), ("m2:5", True),
    ("wreath:z:3:2", True), ("wreath:z:4:2", True),
    # exponent 3: the only real character is the trivial one
    ("z3^4", False), ("es3:1", False), ("es3:1:9", False),
])
def test_witness_search_matches_row_loop_reference(spec, some_witness):
    g = build_group(parse_group_spec(spec))
    conj = conjugacy(g)
    table = character_table_for(g, conj)
    gal = galois_stabilizers(table, conj)
    assert gal.stabilizers == row_loop_stabilizers(table, conj.class_power, gal.units)
    found = 0
    for j in range(table.n_classes):
        got = nonexistence_witness_classes(table, gal, j, z_label=j)
        assert got == row_loop_witness(table, gal, j, z_label=j), (spec, j)
        found += got is not None
    assert (found > 0) == some_witness


def test_witness_absent_when_transfer_exists():
    g, conj, table, gal = witness_setup(8)
    assert nonexistence_witness(conj, table, gal, 2) is None


def test_witness_exists_for_order4_target_in_z4_squared():
    g = build_abelian_power(4, 2)
    conj = conjugacy(g)
    table = abelian_character_table(4, 2)
    gal = galois_stabilizers(table, conj)
    z = index_of_digits([1, 0], 4)
    w = nonexistence_witness(conj, table, gal, z)
    assert w is not None and len(w.char_indices) >= 2
    # the greedy search's stopping test and rational_intersection agree
    witnesses = [nonexistence_witness(conj, table, gal, z) for z in conj.center]
    found = [w for w in witnesses if w is not None]
    assert len(found) == 12  # the elements of order 4
    for w in found:
        assert rational_intersection(gal, w.char_indices), w


def test_witness_none_for_identity():
    g, conj, table, gal = witness_setup(6)
    assert nonexistence_witness(conj, table, gal, 0) is None


def test_solvable_exclusion(s5_table):
    rep = solvable_exclusion_report(build_cyclic(6))
    assert rep.solvable and rep.excluded_sizes == (6,)
    assert rep.series[0] == 6 and rep.series[-1] == 1
    rep5 = solvable_exclusion_report(s5_table)
    assert not rep5.solvable and rep5.excluded_sizes == ()


# ---------------------------------------------------------------------------
# imported claims


def imported_extraspecial():
    g = build_extraspecial3(1)
    conj = conjugacy(g)
    table = character_table_numerical(g, conj)
    graph = cayley_graph(g, conj, [int(conj.class_of[g.index_of("x1")]),
                                   int(conj.class_of[g.index_of("y1")]),
                                   int(conj.class_of[g.index_of("z")])])
    out = solve_pst_time(graph, table, g.index_of("z"))
    doc = export_character_table(table, conj)
    claim = {
        "z_class": int(conj.class_of[g.index_of("z")]),
        "time": out.certificate.tau,
        "connection_classes": list(graph.conn.class_indices),
    }
    return import_character_table(doc), claim


def test_imported_claim_accepted():
    imported, claim = imported_extraspecial()
    result = check_imported_claim(imported, claim)
    assert result["accepted"] and result["residual"] < 1e-8


def test_imported_claim_rejects_orientation_abuse():
    imported, claim = imported_extraspecial()
    inv_map = imported.power_maps[imported.table.exponent - 1]
    c = claim["connection_classes"][0]
    with_pair = dict(claim, connection_classes=[c, inv_map[c]])
    with pytest.raises(InvalidParameterError):
        check_imported_claim(imported, with_pair)
    with pytest.raises(InvalidParameterError):
        check_imported_claim(imported, dict(claim, connection_classes=[0]))


def test_imported_claim_schema_errors():
    imported, claim = imported_extraspecial()
    with pytest.raises(SchemaError):
        check_imported_claim(imported, {"z_class": 1})
    with pytest.raises(InvalidParameterError):
        check_imported_claim(imported, dict(claim, z_class=999))


def test_imported_claim_wrong_time_rejected():
    imported, claim = imported_extraspecial()
    result = check_imported_claim(imported, dict(claim, time=claim["time"] / 2))
    assert not result["accepted"] and result["residual"] > 1e-3


# ---------------------------------------------------------------------------
# verdicts


def test_verdict_document_contents():
    graph, table = cyclic_setup(8, [1, 2, 5])
    report = compute_S_e(graph, table)
    doc = verdict_document(graph, report, oracle_fidelity=1.0, connected=True)
    assert doc["S_e"] == [0, 2, 4, 6] and doc["size"] == 4
    assert doc["tau"] == pytest.approx(math.pi / 4)
    assert doc["tau_rational"] == {"ok": True, "multiplier": "pi", "p": 1, "q": 4}
    assert doc["connected"] is True and doc["witnesses"] == []
    assert doc["residual"] < 1e-10


def test_verdict_document_no_transfer():
    g = build_abelian_power(4, 2)
    conj = conjugacy(g)
    classes = [int(conj.class_of[index_of_digits([1, 1], 4)]),
               int(conj.class_of[index_of_digits([1, 3], 4)])]
    graph = cayley_graph(g, conj, classes)
    report = compute_S_e(graph, abelian_character_table(4, 2))
    doc = verdict_document(graph, report, oracle_fidelity=None, connected=True)
    assert doc["size"] == 1 and doc["tau"] is None and doc["tau_rational"] is None
