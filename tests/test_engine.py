"""Criterion, minimal-time solver, transfer-set structure, witnesses, claims."""
import itertools
import json
import math

import numpy as np
import pytest

from caywalk import cayley, characters, engine, groups
from caywalk.cayley import (
    CayleyGraph,
    cayley_graph,
    enumerate_oriented_class_unions,
    is_connected,
)
from caywalk.cli import main
from caywalk.characters import (
    abelian_character_table,
    character_table_for,
    character_table_numerical,
    galois_stabilizers,
    units_mod,
)
from caywalk.config import VALUE_TOL
from caywalk.engine import (
    APERIODIC_WALK,
    STATIC_WALK,
    MSTReport,
    _decode_targets,
    _residuals,
    check_imported_claim,
    check_pst_at,
    check_pst_pair,
    check_transfer_classes,
    compute_S_e,
    nonexistence_witness,
    nonexistence_witness_classes,
    parse_time,
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
from caywalk.interchange import export_character_table, import_character_table
from conftest import (
    blocked_scan_targets,
    dense_abelian_table,
    itertools_oriented_sets,
    partition_into_transfer_classes,
    per_set_compute_S_e,
    per_set_scan_targets,
    per_set_walk_frequency,
    rational_intersection,
    row_loop_stabilizers,
    row_loop_witnesses,
    stabilizer_tuples,
    winding_search_times,
)

TAU3 = 2 * math.pi / (3 * math.sqrt(3.0))


def cyclic_setup(r, classes):
    g = build_cyclic(r)
    graph = cayley_graph(g, classes)
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
    graph = cayley_graph(g, [int(conj.class_of[g.index_of("x1")])])
    table = character_table_for(g)
    res = check_pst_at(graph, table, g.index_of("x1"), 1.0)
    assert not res.accepted and res.reason == "target is not central"
    assert res.residual == math.inf


def test_criterion_rejects_nonsingleton_class(s3_table):
    conj = conjugacy(s3_table)
    table = character_table_numerical(s3_table)
    big = next(i for i, c in enumerate(conj.classes) if len(c) == 3)
    res = check_transfer_classes(table, [big], big, 1.0)
    assert not res.accepted and res.reason == "target class is not central"


def test_pair_check_translates_to_identity():
    graph, table = cyclic_setup(8, [1, 2, 5])
    direct = check_pst_at(graph, table, 2, math.pi / 4)
    pair = check_pst_pair(graph, table, 3, 5, math.pi / 4)
    assert direct.accepted and pair.accepted
    assert pair.residual == pytest.approx(direct.residual, abs=1e-15)


def test_residuals_is_max_abs():
    """On the table of Z_2, with theta = (0, i): at t = pi both ratios match
    their waves; at t = 0 the wave of the character -1 misses by 2."""
    table = abelian_character_table(2, 1)
    thetas = np.array([0.0j, 1.0j])
    z_class = np.array([1])
    assert _residuals(table, thetas, z_class, np.exp(math.pi * thetas))[0] == \
        pytest.approx(0.0, abs=1e-12)
    assert _residuals(table, thetas, z_class, np.exp(0.0 * thetas))[0] == pytest.approx(2.0)


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
    graph = cayley_graph(g, [int(conj.class_of[g.index_of("x1")])])
    table = character_table_for(g)
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
    graph = cayley_graph(g, classes)
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
    assert walk_frequency(walk_thetas(table, [[1]]))[0] == \
        pytest.approx(math.sqrt(3.0), abs=1e-12)
    out = solve_pst_time(graph, table, 2)
    assert out.certificate is None
    assert out.near_miss_residual == pytest.approx(math.sqrt(3.0), abs=1e-9)
    assert out.near_miss_time == pytest.approx(TAU3, abs=1e-12)
    assert out.reason is not None


def test_walk_frequency_verdicts():
    rows = np.zeros((5, 4), dtype=complex)
    rows[0] = [0j, 2j, -2j, 4j]
    rows[1, :3] = [0j, 3j * math.sqrt(2), -math.sqrt(8) * 1j]
    rows[2, :2] = [math.sqrt(2) * 1j, 2j]  # y^2 = 2 and 4: different squarefree parts
    rows[3, :1] = [math.e * 1j]
    rows[4, :2] = [0j, 1e-12j]
    omega = walk_frequency(rows)
    assert omega[0] == 2.0
    assert omega[1] == pytest.approx(math.sqrt(2.0))
    assert np.isnan(omega[2]) and np.isnan(omega[3])  # aperiodic
    assert omega[4] == 0.0  # static


DIFFERENTIAL_GROUPS = ("z4^2", "z:8", "z:9", "z:12", "z:13", "z3^2")


@pytest.mark.parametrize("spec", DIFFERENTIAL_GROUPS)
def test_one_pass_solver_matches_winding_search(spec):
    """Every oriented set: the same transfer set and times as the earlier solver."""
    group = build_group(parse_group_spec(spec))
    conj = conjugacy(group)
    table = character_table_for(group)
    for stack in enumerate_oriented_class_unions(conj):
        for i, report in enumerate(compute_S_e(stack, table)):
            graph = stack.graph(i)
            want = winding_search_times(graph, table)
            assert set(report.certificates) == set(want), graph.class_indices
            assert report.S_e == tuple(sorted({group.identity, *want}))
            assert report.size == len(report.S_e)
            if want:
                assert report.generator == min(want, key=lambda z: (want[z][0], z))
            else:
                assert report.generator is None
            for z, cert in report.certificates.items():
                assert cert.tau == pytest.approx(want[z][0], abs=1e-12)


BATCH_GROUPS = ("z4^2", "z:8", "z:9", "z:12", "z:13", "z3^2", "m2:5", "es3:1")


def assert_reports_equal(got: MSTReport, want: MSTReport, where) -> None:
    assert (got.S_e, got.size, got.generator) == (want.S_e, want.size, want.generator), where
    assert got.minimal_time == want.minimal_time, where  # bit-identical, None alike
    assert set(got.certificates) == set(want.certificates), where
    for z, cert in got.certificates.items():
        assert cert.tau == want.certificates[z].tau, where
        assert abs(cert.residual - want.certificates[z].residual) <= 1e-13, where


def assert_decoded_hits(table, thetas, omega, z_classes, n, where) -> None:
    """The decoded pass finds exactly the scorer's hits, with bit-identical
    taus and residuals, and leaves every other entry nan / inf."""
    taus, residuals = _decode_targets(table, thetas, omega, z_classes, n)
    want_tau, want_res = blocked_scan_targets(table, thetas, omega, z_classes, n)
    hits = want_res < VALUE_TOL
    assert np.array_equal(residuals < VALUE_TOL, hits), where
    np.testing.assert_array_equal(taus[hits], want_tau[hits], err_msg=str(where))
    np.testing.assert_array_equal(residuals[hits], want_res[hits], err_msg=str(where))
    assert np.all(np.isnan(taus[~hits])) and np.all(np.isinf(residuals[~hits])), where


@pytest.mark.parametrize("spec", BATCH_GROUPS)
def test_batched_pass_matches_per_set_reference(spec, monkeypatch):
    """Every oriented set: the blocked pass gives the per-set pass's order,
    periods, per-target scores, decoded hits and reports."""
    group = build_group(parse_group_spec(spec))
    conj = conjugacy(group)
    table = character_table_for(group)
    targets = [z for z in conj.center if z != group.identity]
    monkeypatch.setattr(cayley, "_ENUM_BLOCK_SETS", 64)  # several stacks per class count
    monkeypatch.setattr(engine, "_BLOCK_ENTRIES", 1 << 10)  # several decoding blocks per stack
    stacks = list(enumerate_oriented_class_unions(conj))
    rows = [tuple(r) for stack in stacks for r in stack.classes.tolist()]
    assert rows == list(itertools_oriented_sets(conj))
    for stack in stacks:
        thetas = walk_thetas(table, stack.classes)
        omega = walk_frequency(thetas)
        z_classes = conj.class_of[targets]
        taus, residuals = blocked_scan_targets(table, thetas, omega, z_classes,
                                               conj.center_exponent, block_entries=1 << 10)
        assert_decoded_hits(table, thetas, omega, z_classes, conj.center_exponent, spec)
        reports = compute_S_e(stack, table)
        for i, report in enumerate(reports):
            graph = stack.graph(i)
            where = (spec, graph.class_indices)
            want_omega, reason = per_set_walk_frequency(thetas[i], VALUE_TOL)
            if want_omega is None:
                assert (omega[i] == 0) == (reason == STATIC_WALK), where
                assert omega[i] == 0 or np.isnan(omega[i]), where
            else:
                assert omega[i] == want_omega, where
            want_tau, want_res, _ = per_set_scan_targets(graph, table, targets,
                                                         conj.center_exponent, 1e-8)
            np.testing.assert_array_equal(taus[i], want_tau, err_msg=str(where))
            assert np.array_equal(np.isinf(residuals[i]), np.isinf(want_res)), where
            finite = np.isfinite(want_res)
            assert np.all(np.abs(residuals[i][finite] - want_res[finite]) <= 1e-13), where
            assert_reports_equal(report, per_set_compute_S_e(graph, table), where)
            assert_reports_equal(compute_S_e(graph, table), report, where)


@pytest.mark.parametrize("spec, classes", [
    ("z3^7", [1, 3, 9, 27, 81, 243, 729]), ("z4^5", [1, 4, 16, 64, 256]),
    ("z3^6", [1, 3, 9, 27, 81, 243]), ("m2:7", [2, 10, 17, 18, 26, 32, 34, 42, 50, 58]),
    ("es3:2", [1, 3, 5, 11, 29]), ("wreath:z:3:4", [5, 11]),
])
def test_decoded_pass_matches_scorer_on_the_largest_members(spec, classes):
    """The decoded pass finds the multi-target scorer's hits on the largest
    member of each family, and the solver agrees on every certified target."""
    group = build_group(parse_group_spec(spec))
    conj = conjugacy(group)
    table = character_table_for(group)
    targets = [z for z in conj.center if z != group.identity]
    thetas = walk_thetas(table, np.array([classes]))
    omega = walk_frequency(thetas)
    assert omega[0] > 0, spec
    assert_decoded_hits(table, thetas, omega, conj.class_of[targets],
                        conj.center_exponent, spec)
    graph = cayley_graph(group, classes)
    report = compute_S_e(graph, table)
    assert report.size > 1, spec
    for z, cert in report.certificates.items():
        assert solve_pst_time(graph, table, z).certificate == cert


@pytest.mark.parametrize("block_entries", [1 << 16, 1 << 8])
def test_decoded_pass_keeps_the_first_of_repeated_hits(block_entries, monkeypatch):
    """Half of each set's omega spans two periods, so every hit recurs one
    period later; the decoded pass keeps the earlier one, as the scorer does,
    within a block and across blocks."""
    monkeypatch.setattr(engine, "_BLOCK_ENTRIES", block_entries)
    group = build_abelian_power(4, 2)
    conj = conjugacy(group)
    table = abelian_character_table(4, 2)
    z_classes = conj.class_of[[z for z in conj.center if z != group.identity]]
    found = 0
    for stack in enumerate_oriented_class_unions(conj):
        thetas = walk_thetas(table, stack.classes)
        omega = walk_frequency(thetas) / 2
        assert_decoded_hits(table, thetas, omega, z_classes, 8, stack.classes)
        taus, residuals = _decode_targets(table, thetas, omega, z_classes, 8)
        hits = residuals < VALUE_TOL
        # the true period is 2*pi/(2*omega): every kept hit lies in the first one
        periods = np.broadcast_to(math.pi / omega[:, None], taus.shape)
        assert np.all(taus[hits] < periods[hits])
        found += hits.sum()
    assert found > 0


def test_batched_pass_keeps_the_power_law_check():
    """A doctored Z_3 table: target 2 hits at tau_min, so 2 = 1^2 breaks the power law."""
    group = build_cyclic(3)
    conj = conjugacy(group)
    doctored = dense_abelian_table(3, 1, columns=[0, 1, 1])
    (stack,) = enumerate_oriented_class_unions(conj)
    assert stack.classes.tolist() == [[1]]
    with pytest.raises(InvariantBreachError, match="power law"):
        per_set_compute_S_e(stack.graph(0), doctored)
    with pytest.raises(InvariantBreachError, match="power law"):
        compute_S_e(stack, doctored)
    with pytest.raises(InvariantBreachError, match="power law"):
        compute_S_e(stack.graph(0), doctored)


@pytest.mark.parametrize("r, classes, columns, message", [
    # Class 3 copies class 2, so 3 hits with 2 at pi/2: {0, 2, 3} is not <2>.
    (4, [1], [0, 1, 2, 2], r"transfer set \(0, 2, 3\) is not the cyclic group \(0, 2\)$"),
    # Class 6 copies class 2, so 6 hits at tau_min, not at 3 * tau_min.
    (8, [1, 2, 5], [0, 1, 2, 3, 4, 5, 2, 7], r"no transfer to generator\^3 at 3 \* tau_min$"),
])
def test_doctored_tables_fail_the_structural_checks(r, classes, columns, message):
    group = build_cyclic(r)
    doctored = dense_abelian_table(r, 1, columns=columns)
    with pytest.raises(InvariantBreachError, match=message):
        compute_S_e(cayley_graph(group, classes), doctored)


def reference_sweep(spec: str, max_classes=None, connected_only=False) -> dict:
    """The sweep document built one set at a time from the reference code."""
    group = build_group(parse_group_spec(spec))
    conj = conjugacy(group)
    table = character_table_for(group)
    histogram: dict[int, int] = {}
    certificates = []
    tested = 0
    for classes in itertools_oriented_sets(conj, max_classes):
        graph = cayley_graph(group, classes)
        if connected_only and not is_connected(graph):
            continue
        tested += 1
        report = per_set_compute_S_e(graph, table)
        histogram[report.size] = histogram.get(report.size, 0) + 1
        if report.size > 1:
            certificates.append({"connection_classes": list(classes), "size": report.size,
                                 "tau": report.minimal_time, "generator": report.generator})
    return {"group": group.family_tag, "sets_tested": tested,
            "histogram": {str(k): histogram[k] for k in sorted(histogram)},
            "certificates": certificates}


@pytest.mark.parametrize("spec, argv, kwargs", [
    ("z4^2", ["--max-classes", "2"], {"max_classes": 2}),
    ("z:8", ["--connected-only"], {"connected_only": True}),
    ("m2:5", ["--limit", "32", "--connected-only", "--max-classes", "3"],
     {"connected_only": True, "max_classes": 3}),
])
def test_sweep_cli_matches_per_set_reference(capsys, spec, argv, kwargs):
    assert main(["--format", "json", "sweep", "--group", spec, *argv]) == 0
    assert json.loads(capsys.readouterr().out) == reference_sweep(spec, **kwargs)


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
    graph = cayley_graph(g, classes)
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
    graph = cayley_graph(g, [three_cycles])
    report = compute_S_e(graph, character_table_for(g))
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
    stabs = stabilizer_tuples(gal)
    assert set(stabs[1]) | set(stabs[3]) == {1, 5}


# The largest abelian members: their every class is a central target.
CENTRAL_ONLY = {"z4^5", "z3^6"}


@pytest.mark.parametrize("spec, some_witness", [
    ("z:2", True), ("z:12", True), ("z:64", True), ("z:128", True),
    ("z4^2", True), ("z6^2", True), ("m2:5", True), ("m2:7", True), ("m2:9", True),
    ("wreath:z:3:2", True), ("wreath:z:4:2", True), ("wreath:z:3:4", True), ("z4^5", True),
    # the trivial group has no target; exponent 3: the only real character
    # is the trivial one
    ("z:1", False), ("z3^4", False), ("es3:1", False), ("es3:1:9", False),
    ("es3:2", False), ("es3:3", False), ("z3^6", False),
])
def test_witness_search_matches_row_loop_reference(spec, some_witness):
    """The central targets through nonexistence_witness; every class,
    central or not, in one call of the class-level core, but for
    CENTRAL_ONLY."""
    g = build_group(parse_group_spec(spec))
    conj = conjugacy(g)
    table = character_table_for(g)
    gal = galois_stabilizers(table, conj)
    assert stabilizer_tuples(gal) == row_loop_stabilizers(table, conj.class_power,
                                                          units_mod(gal.exponent))
    central = list(conj.center)
    got = nonexistence_witness(conj, table, gal, central)
    assert got == row_loop_witnesses(table, gal, conj.class_of[central], central), spec
    if spec not in CENTRAL_ONLY:
        classes = np.arange(table.n_classes)
        got = nonexistence_witness_classes(table, gal, classes, classes.tolist())
        assert got == row_loop_witnesses(table, gal, classes, classes.tolist()), spec
    assert any(w is not None for w in got) == some_witness


def test_witness_search_on_a_metacyclic_law_beyond_the_families(monkeypatch):
    """Z_7 x| Z_3 with y x y^-1 = x^2, read through the metacyclic closed
    form: its induced rows' stabilizer {u : u mod 7 in {1, 2, 4}} is none
    of the linear rows', unlike on every es3 and m2 member. The exact rule
    expands to the walk's masks, the exact kernels to the tolerance test,
    and the witnesses to the row loop's, on every class."""
    law = groups._MetacyclicLaw(7, 3, 2, "y")
    monkeypatch.setattr(characters, "family_law", lambda spec: law)
    group = GroupTable(21, spec=groups.GroupSpec("m2", n=5), law=law)
    table, conj = character_table_for(group), group.conj
    assert table.form is not None and table.degrees.tolist() == [1, 1, 1, 3, 3]
    gal = galois_stabilizers(table, conj)
    maps = {g: conj.class_power(g) for g in characters._unit_generators(table.exponent)}
    assert np.array_equal(gal.fixes, characters._galois_walk(table, maps).fixes)
    fixes = gal.fixes
    assert not any(np.array_equal(fixes[3], row) for row in fixes[:3])
    classes = np.arange(table.n_classes)
    reference = ~(np.abs(table.values.T - table.degrees) < VALUE_TOL)
    assert np.array_equal(table.misses(classes, classes), reference)
    got = nonexistence_witness_classes(table, gal, classes, classes.tolist())
    assert got == row_loop_witnesses(table, gal, classes, classes.tolist())
    assert any(w is not None for w in got)


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
    assert nonexistence_witness(conj, table, gal, []) == []


def test_witness_refuses_a_non_central_target():
    g = build_group(parse_group_spec("wreath:z:4:2"))
    conj = conjugacy(g)
    table = character_table_for(g)
    gal = galois_stabilizers(table, conj)
    assert 1 not in conj.center
    with pytest.raises(InvalidParameterError, match="target must be central"):
        nonexistence_witness(conj, table, gal, 1)
    with pytest.raises(InvalidParameterError, match="target must be central"):
        nonexistence_witness(conj, table, gal, [*conj.center, 1])


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
    table = character_table_numerical(g)
    graph = cayley_graph(g, [int(conj.class_of[g.index_of("x1")]),
                                   int(conj.class_of[g.index_of("y1")]),
                                   int(conj.class_of[g.index_of("z")])])
    out = solve_pst_time(graph, table, g.index_of("z"))
    doc = export_character_table(table, conj)
    claim = {
        "z_class": int(conj.class_of[g.index_of("z")]),
        "time": out.certificate.tau,
        "connection_classes": list(graph.class_indices),
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
    graph = cayley_graph(g, classes)
    report = compute_S_e(graph, abelian_character_table(4, 2))
    doc = verdict_document(graph, report, oracle_fidelity=None, connected=True)
    assert doc["size"] == 1 and doc["tau"] is None and doc["tau_rational"] is None
