"""Acceptance gate: the ten headline behaviors, each reporting one PASS/FAIL line.

Every numbered test prints (via the terminal-summary hook in conftest.py) one
line with its verdict and runtime. Structural property checks in criterion 8
run over every transfer certificate the earlier criteria produced, so the
registry below accumulates (tag, graph, report) triples as the file executes.
"""
import contextlib
import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from caywalk.cayley import (
    adjacency_matrix,
    enumerate_oriented_class_unions,
    CayleyGraph,
)
from caywalk.characters import (
    abelian_character_table,
    character_table_for,
    character_table_numerical,
    galois_stabilizers,
)
from caywalk.config import DEFAULT_CONFIG
from caywalk.engine import (
    check_imported_claim,
    check_pst_at,
    compute_S_e,
    nonexistence_witness,
    solvable_exclusion_report,
    spectrum,
    time_rationality_check,
)
from caywalk.families import (
    dual_verify,
    family_extraspecial3,
    family_m2,
    family_z3n,
    family_z4n,
    shipped_certificates,
    wreath_lift,
    z8_certificate,
)
from caywalk.groups import (
    WreathIndexing,
    build_abelian_power,
    build_cyclic,
    build_wreath_sym,
    conjugacy,
    subgroup_closure,
)
from caywalk.interchange import (
    export_character_table,
    import_character_table,
    load_character_table,
)
from caywalk.oracle import build_operator, evolve, evolve_column, fidelity, permutation_check

from conftest import (
    DenseWalk,
    dense_spectrum,
    element_order,
    partition_into_transfer_classes,
    wreath_type,
)
from test_families import random_valid_z3_sets

TAU3 = 2 * math.pi / (3 * math.sqrt(3.0))
RESIDUAL_TOL = 1e-8
FIDELITY_FLOOR = 1 - 1e-7

# One line per criterion, printed by conftest's terminal-summary hook.
CRITERIA_RESULTS: list[tuple[int, str, str, float]] = []

# Certificates produced while the gate runs; criterion 8 audits all of them.
REGISTRY: list[tuple[str, CayleyGraph, object]] = []


def register(tag, graph, report):
    if report.size > 1:
        REGISTRY.append((tag, graph, report))


@contextlib.contextmanager
def criterion(number: int, title: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        CRITERIA_RESULTS.append((number, title, "FAIL", time.perf_counter() - start))
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        CRITERIA_RESULTS.append((number, title, "FAIL", elapsed))
        raise AssertionError(f"criterion {number} exceeded its {budget:.0f}s budget "
                             f"({elapsed:.2f}s)")
    CRITERIA_RESULTS.append((number, title, "PASS", elapsed))


def ensure_registry_seeded():
    """When criterion 8/9 run in isolation, replay the shipped suite first."""
    if REGISTRY:
        return
    for cert in shipped_certificates():
        if not cert.oriented:
            continue
        rep = dual_verify(cert)
        assert rep.ok, rep.messages
        if rep.mst is not None:
            register(cert.name, cert.graph(), rep.mst)


# ---------------------------------------------------------------------------


def test_criterion_1_cyclic3_powers_random_sets():
    title = "Z_3^n random sets transfer to the digit sum at 2pi/(3 sqrt 3)"
    with criterion(1, title, budget=5.0):
        for n in (1, 2, 3):
            for connection in random_valid_z3_sets(n, 5, seed=100 + n):
                cert = family_z3n(n, connection)
                graph = cert.graph()
                table = character_table_for(cert.group)
                if cert.claimed_size == 1:
                    continue  # zero sum: nothing is claimed for this draw
                res = check_pst_at(graph, table, cert.z, TAU3)
                assert res.accepted and res.residual < RESIDUAL_TOL
                op = build_operator(graph.group, graph.elements)
                fid, entry = fidelity(op, TAU3, cert.group.identity, cert.z)
                assert fid > FIDELITY_FLOOR
                assert entry.real > 0
                report = compute_S_e(graph, table)
                assert report.size == 3
                register(cert.name, graph, report)


def test_criterion_2_cyclic4_powers_iff():
    title = "Z_4^n transfers to twice the sum iff the sum has order 4"
    with criterion(2, title, budget=5.0):
        # positive direction: odd digit sums, n = 1 and n = 2
        for n, connection in ((1, [(1,)]), (2, [(1, 0), (0, 1)]), (2, [(1, 2)])):
            cert = family_z4n(n, connection)
            assert cert.claimed_size == 2
            graph = cert.graph()
            table = character_table_for(cert.group)
            res = check_pst_at(graph, table, cert.z, math.pi / 2)
            assert res.accepted and res.residual < RESIDUAL_TOL
            op = build_operator(graph.group, graph.elements)
            fid, entry = fidelity(op, math.pi / 2, cert.group.identity, cert.z)
            assert fid > FIDELITY_FLOOR and entry.real > 0
            report = compute_S_e(graph, table)
            assert report.size == 2
            register(cert.name, graph, report)
        # negative direction (possible only for n = 2: every valid set on Z_4
        # itself has an odd sum): order <= 2 sums move nothing at pi/2
        for connection in ([(1, 1), (1, 3)], [(1, 0), (0, 1), (3, 3)]):
            cert = family_z4n(2, connection)
            assert cert.claimed_size == 1
            graph = cert.graph()
            op = build_operator(graph.group, graph.elements)
            col = np.abs(evolve_column(op, math.pi / 2, cert.group.identity))
            col[cert.group.identity] = 0.0
            assert float(col.max()) < 0.999
            report = compute_S_e(graph, character_table_for(cert.group))
            assert report.size == 1


def test_criterion_3_z4_squared_sweep_and_witnesses():
    title = "Z_4^2 full sweep: no size-4 transfer set; witnesses for order-4 targets"
    with criterion(3, title, budget=60.0):
        group = build_abelian_power(4, 2)
        conj = conjugacy(group)
        table = character_table_for(group)
        histogram: dict[int, int] = {}
        tested = 0
        for stack in enumerate_oriented_class_unions(conj):
            for i, report in enumerate(compute_S_e(stack, table)):
                histogram[report.size] = histogram.get(report.size, 0) + 1
                register("z4sq_sweep", stack.graph(i), report)
                tested += 1
        assert tested == 364
        assert histogram.get(4, 0) == 0
        assert histogram.get(3, 0) == 0 and histogram.get(6, 0) == 0

        galois = galois_stabilizers(table, conj)
        order4 = [z for z in range(group.order) if element_order(group, z) == 4]
        assert len(order4) == 12
        for z in order4:
            witness = nonexistence_witness(conj, table, galois, z)
            assert witness is not None, f"no witness for order-4 target {z}"


def test_criterion_4_cyclic8_solved_example():
    title = "Cay(Z_8,{1,2,5}): transfer set {0,2,4,6}, phase +1, tau = pi/4"
    with criterion(4, title):
        cert = z8_certificate()
        rep = dual_verify(cert)
        assert rep.ok, rep.messages
        assert rep.mst.S_e == (0, 2, 4, 6) and rep.mst.size == 4
        assert rep.phase is not None and abs(rep.phase - 1.0) < 1e-7
        assert abs(rep.mst.minimal_time - math.pi / 4) < 1e-9
        rational = time_rationality_check(rep.mst.minimal_time, rep.mst.size,
                                          max_denominator=16)
        assert rational.ok and rational.multiplier == "pi" and rational.q <= 16
        register(cert.name, cert.graph(), rep.mst)


def test_criterion_5_extraspecial_certificates():
    title = "extraspecial 3-groups: order 27 dual-verified, order 243 by criterion"
    with criterion(5, title, budget=30.0):
        small = family_extraspecial3(1)
        rep27 = dual_verify(small)
        assert rep27.ok, rep27.messages
        assert rep27.mst.size == 3
        assert set(rep27.mst.S_e) == set(small.conj.center)
        assert abs(rep27.mst.minimal_time - TAU3) < 1e-9
        assert rep27.oracle_fidelity is not None  # 27 < oracle cap: both routes ran
        register(small.name, small.graph(), rep27.mst)

        big = family_extraspecial3(2)
        assert big.group.order == 243
        rep243 = dual_verify(big)
        assert rep243.ok, rep243.messages
        assert rep243.mst.size == 3
        assert rep243.oracle_fidelity is None  # above the oracle cap: criterion only
        register(big.name, big.graph(), rep243.mst)


def test_criterion_6_modular32_and_degree2_characters():
    title = "M_2(5): size-4 transfer set; degree-2 characters are +-2i at the target"
    with criterion(6, title):
        cert = family_m2(5)
        rep = dual_verify(cert)
        assert rep.ok, rep.messages
        assert rep.mst.size == 4
        register(cert.name, cert.graph(), rep.mst)

        group, conj = cert.group, cert.conj
        table = character_table_for(group)
        z_class = int(conj.class_of[cert.z])
        center = set(conj.center)
        degree2 = [i for i in range(table.n_chars) if table.degrees[i] == 2]
        assert len(degree2) == 4
        for i in degree2:
            val = complex(table.values[i, z_class])
            assert min(abs(val - 2j), abs(val + 2j)) < 1e-8
            for j, cls in enumerate(conj.classes):
                if cls[0] not in center:
                    assert abs(table.values[i, j]) < 1e-8


def test_criterion_7_wreath_lifts_and_type_invariant():
    title = "wreath lifts keep the base transfer; cycle-type invariant = conjugacy"
    with criterion(7, title, budget=120.0):
        base3 = family_z3n(1, [(1,)])
        base4 = family_z4n(1, [(1,)])
        for base, n, order in ((base3, 2, 18), (base3, 3, 162), (base4, 2, 32)):
            lifted = wreath_lift(base, n)
            assert lifted.group.order == order
            rep = dual_verify(lifted)
            assert rep.ok, rep.messages
            assert abs(rep.mst.minimal_time - base.tau) < 1e-9
            register(lifted.name, lifted.graph(), rep.mst)

        # the partition-valued invariant separates conjugacy classes exactly
        base = build_cyclic(3)
        small = build_wreath_sym(base, 2)
        wi2 = WreathIndexing(base, 2)
        conj2 = conjugacy(small)
        types = [wreath_type(wi2.decode(i), base) for i in range(small.order)]
        for g, h in itertools.product(range(small.order), repeat=2):
            assert (types[g] == types[h]) == (conj2.class_of[g] == conj2.class_of[h])

        big = build_wreath_sym(base, 3)
        wi3 = WreathIndexing(base, 3)
        conj3 = conjugacy(big)
        rng = np.random.default_rng(DEFAULT_CONFIG.seed)
        pairs = rng.integers(0, big.order, size=(10_000, 2))
        for g, h in pairs:
            same_type = (wreath_type(wi3.decode(int(g)), base)
                         == wreath_type(wi3.decode(int(h)), base))
            assert same_type == (conj3.class_of[g] == conj3.class_of[h])


def test_criterion_8_structural_properties_of_all_certificates():
    title = "every certificate: cyclic central S_e, size 2/3/4/6, clean U, cosets"
    with criterion(8, title):
        ensure_registry_seeded()
        assert REGISTRY, "no certificates were produced"
        solvable_cache: dict[str, bool] = {}
        for tag, graph, report in REGISTRY:
            group = graph.group
            members = set(report.S_e)
            # cyclic central subgroup
            assert members <= set(graph.conj.center), tag
            assert report.generator in members, tag
            assert set(subgroup_closure(group, [report.generator])) == members, tag
            for a in members:
                for b in members:
                    assert int(group.multiply(a, b)) in members, tag
            # size restriction, sharpened on solvable groups
            assert report.size in {2, 3, 4, 6}, tag
            solvable = solvable_cache.get(group.family_tag)
            if solvable is None:
                solvable = solvable_exclusion_report(group).solvable
                solvable_cache[group.family_tag] = solvable
            if solvable:
                assert report.size != 6, tag
            # the evolution at the minimal time is a fixed-point-free
            # permutation of matching order commuting with the generator
            if group.order <= DEFAULT_CONFIG.oracle_max_order:
                op = build_operator(graph.group, graph.elements)
                perm = permutation_check(op, evolve_column(op, report.minimal_time, group.identity),
                                         group)
                assert perm.ok and perm.fixed_point_free, tag
                assert perm.commutes_with_generator, tag
                assert perm.order == report.size, tag
            # equal coset partition
            parts = partition_into_transfer_classes(graph, report)
            assert parts is not None, tag
            assert all(len(p) == report.size for p in parts), tag
            assert sum(len(p) for p in parts) == group.order, tag
            # small rational multiple of the size-appropriate base time
            rational = time_rationality_check(report.minimal_time, report.size,
                                              max_denominator=10_000)
            assert rational.ok and rational.q <= 10_000, tag
            expected = "pi/sqrt3" if report.size in (3, 6) else "pi"
            assert rational.multiplier == expected, tag


def test_criterion_9_numerical_core_properties():
    title = "tables orthogonal with sum d^2 = |G|; spectra and U(t) consistent"
    with criterion(9, title):
        ensure_registry_seeded()
        # character tables of every fixture group
        for cert in shipped_certificates():
            conj = cert.conj
            table = character_table_for(cert.group)
            order = cert.group.order
            assert int((table.degrees**2).sum()) == order, cert.name
            gram_rows = (table.values * conj.sizes[None, :]) @ table.values.conj().T
            assert np.max(np.abs(gram_rows - order * np.eye(table.n_chars))) < 1e-8 * order
            gram_cols = table.values.T @ table.values.conj()
            expected = np.diag(order / conj.sizes.astype(float))
            assert np.max(np.abs(gram_cols - expected)) < 1e-8 * order

        # numerical route reproduces the closed form on the cyclic powers
        for r, n in ((3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (8, 1)):
            group = build_abelian_power(r, n) if n > 1 else build_cyclic(r)
            num = character_table_numerical(group)
            closed = abelian_character_table(r, n)
            rows_num = {tuple(np.round(row, 8)) for row in num.values}
            rows_closed = {tuple(np.round(row, 8)) for row in closed.values}
            assert rows_num == rows_closed, f"abelian {r}^{n}"

        # oracle eigenvalues against per-character values, with multiplicity
        for cert in shipped_certificates():
            if not cert.oriented or cert.group.order > DEFAULT_CONFIG.oracle_max_order:
                continue
            graph = cert.graph()
            table = character_table_for(cert.group)
            spec = spectrum(graph, table)
            predicted = []
            for i in range(table.n_chars):
                predicted.extend([spec[i].imag] * int(table.degrees[i]) ** 2)
            op = build_operator(graph.group, graph.elements)
            observed = sorted(-lam for lam in dense_spectrum(DenseWalk(adjacency_matrix(graph)))[0])
            assert np.allclose(sorted(predicted), observed, atol=1e-7), cert.name
            # evolution stays real orthogonal
            for t in (0.37, cert.tau):
                u = evolve(op, t)
                n = cert.group.order
                assert np.max(np.abs(u.imag)) < 1e-9, cert.name
                assert np.max(np.abs(u.real @ u.real.T - np.eye(n))) < 1e-9, cert.name


def test_criterion_10_import_path_synthetic_fixture():
    title = "imported exact-coefficient table validates and certifies its claim"
    with criterion(10, title):
        # synthetic table over the 8th roots of unity with one true claim
        closed = abelian_character_table(8, 1)
        conj = conjugacy(build_cyclic(8))
        doc = export_character_table(closed, conj)
        assert all("cyclotomic" in ch for ch in doc["characters"])
        doc["pst_claims"] = [{"z_class": 2, "time": "pi/4",
                              "connection_classes": [1, 2, 5]}]
        doc = json.loads(json.dumps(doc))  # force a round trip through JSON
        imported = import_character_table(doc)
        assert imported.table.cyclotomic is not None
        assert len(imported.claims) == 1
        result = check_imported_claim(imported, imported.claims[0])
        assert result["accepted"] and result["residual"] < RESIDUAL_TOL

        # tampering must be caught by the same path
        bad = json.loads(json.dumps(doc))
        bad["characters"][1]["cyclotomic"][1] = [9] * 8
        with pytest.raises(Exception):
            import_character_table(bad)


EXTERNAL_TABLE = os.environ.get("CAYWALK_IMPORT_TABLE")


@pytest.mark.skipif(not EXTERNAL_TABLE,
                    reason="optional: set CAYWALK_IMPORT_TABLE to a character "
                           "table JSON with transfer claims")
def test_criterion_10_optional_external_table():
    imported = load_character_table(EXTERNAL_TABLE)
    assert imported.claims, "external table carries no transfer claims"
    for claim in imported.claims:
        result = check_imported_claim(imported, claim)
        assert result["accepted"], result
