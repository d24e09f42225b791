"""Matrix-exponential oracle, checked against an independent Taylor series
and against the eigendecomposition route its Chebyshev expansion replaced."""
import dataclasses
import json
import math
import pathlib
import runpy
import tracemalloc

import numpy as np
import pytest

from caywalk import oracle
from caywalk.cayley import cayley_graph, enumerate_oriented_class_unions
from caywalk.characters import character_table_for
from caywalk.cli import EXIT_OK, main
from caywalk.config import FIDELITY_GAP, SCAN_STEPS
from caywalk.engine import compute_S_e
from caywalk.errors import InvalidParameterError, NumericalFailureError, SizeLimitError
from caywalk.families import shipped_certificates
from caywalk.groups import (
    build_abelian_power,
    build_cyclic,
    build_group,
    conjugacy,
    index_of_digits,
    parse_group_spec,
)
from caywalk.oracle import (
    WalkOperator,
    _basis,
    _bessel,
    _bessel_table,
    _term_counts,
    _terms,
    build_hermitian_operator,
    build_operator,
    evolve,
    evolve_column,
    fidelity,
    fidelity_series_csv,
    permutation_check,
    scan_pst,
)

from conftest import (
    DenseWalk,
    dense_column,
    dense_commutes,
    dense_evolve,
    dense_grid,
    dense_permutation_check,
    dense_scan_pst,
    dense_spectrum,
    distance_to_a_unit_vector,
    expm_taylor,
    walk_operators,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
TAU3 = 2 * math.pi / (3 * math.sqrt(3.0))


def skew_operator(r, classes):
    return walk_operators(cayley_graph(build_cyclic(r), classes))[0]


def test_build_rejects_wrong_symmetry():
    """An oriented set may hold no element with its inverse (so no identity
    and no involution); an undirected one must hold every inverse."""
    z4, z3 = build_cyclic(4), build_cyclic(3)
    for elements in ([1, 3], [0], [2], [1, 2]):
        with pytest.raises(InvalidParameterError, match="an oriented one none"):
            build_operator(z4, elements)
    with pytest.raises(InvalidParameterError, match="must hold every inverse"):
        build_hermitian_operator(z3, [1])
    for elements in ([], [1, 1], [3], [-1]):
        with pytest.raises(InvalidParameterError, match="distinct elements"):
            build_operator(z3, elements)


def test_evolution_is_real_orthogonal():
    op = skew_operator(8, [1, 2, 5])
    u = evolve(op, 0.37)
    assert np.max(np.abs(u.imag)) < 1e-12
    assert np.max(np.abs(u.real @ u.real.T - np.eye(8))) < 1e-12


def test_evolution_matches_taylor_series():
    op, ref = walk_operators(cayley_graph(build_cyclic(3), [1]))
    for t in (0.0, 0.3, 1.7, TAU3):
        direct = expm_taylor(t * ref.matrix)
        assert np.max(np.abs(evolve(op, t) - direct)) < 1e-9


def test_group_law_in_time():
    op = skew_operator(8, [1, 2, 5])
    u = evolve(op, 0.4) @ evolve(op, 0.9)
    assert np.max(np.abs(u - evolve(op, 1.3))) < 1e-11


def test_evolve_column_matches_full_matrix():
    op = skew_operator(8, [1, 2, 5])
    u = evolve(op, 0.61)
    for a in (0, 3, 7):
        assert np.max(np.abs(evolve_column(op, 0.61, a) - u[:, a])) < 1e-12


def test_cyclic3_transfer_value():
    op = skew_operator(3, [1])
    mag, entry = fidelity(op, TAU3, 0, 1)
    assert mag == pytest.approx(1.0, abs=1e-12)
    assert entry.real == pytest.approx(1.0, abs=1e-12)  # positive sign
    assert abs(entry.imag) < 1e-12
    # and the walk returns home with the same sign at 3 tau
    mag0, entry0 = fidelity(op, 3 * TAU3, 0, 0)
    assert mag0 == pytest.approx(1.0, abs=1e-11)
    assert entry0.real == pytest.approx(1.0, abs=1e-11)


def test_hermitian_mode_antipodal_transfer():
    g = build_cyclic(4)
    op, ref = walk_operators(cayley_graph(g, [1, 3], oriented=False))
    mag, entry = fidelity(op, math.pi / 2, 0, 2)
    assert mag == pytest.approx(1.0, abs=1e-12)
    assert entry.real == pytest.approx(-1.0, abs=1e-12)
    direct = expm_taylor(1j * (math.pi / 2) * ref.matrix)
    assert np.max(np.abs(evolve(op, math.pi / 2) - direct)) < 1e-9


def test_permutation_check_accepts_transfer_time():
    op = skew_operator(8, [1, 2, 5])
    g = build_cyclic(8)
    rep = permutation_check(op, evolve_column(op, math.pi / 4, g.identity), g)
    assert rep.ok
    assert rep.fixed_point_free
    assert rep.commutes_with_generator
    assert rep.order == 4
    assert rep.max_deviation < 1e-9
    # vertex 0 lands on 2, and the orbit of 0 is {0,2,4,6}
    assert rep.permutation[0] == 2
    orbit = {0}
    cur = 0
    for _ in range(3):
        cur = rep.permutation[cur]
        orbit.add(cur)
    assert orbit == {0, 2, 4, 6}


def _largest_entry_deviation(col):
    """max(|c_b - 1|, max_{y != b} |c_y|) at the largest entry b."""
    col = col.copy()
    b = int(np.argmax(np.abs(col)))
    deviation = abs(col[b] - 1.0)
    col[b] = 0.0
    return max(deviation, float(np.max(np.abs(col))))


def test_permutation_check_rejects_intermediate_time():
    """max_deviation is the identity column's, exactly; every column of U
    deviates alike, since U commutes with the right translations."""
    op = skew_operator(8, [1, 2, 5])
    g = build_cyclic(8)
    rep = permutation_check(op, evolve_column(op, math.pi / 8, g.identity), g)
    assert not rep.ok and rep.permutation is None
    assert rep.max_deviation == _largest_entry_deviation(evolve_column(op, math.pi / 8, 0)) > 1e-3
    u = evolve(op, math.pi / 8)
    assert max(abs(_largest_entry_deviation(u[:, a]) - rep.max_deviation) for a in range(8)) < 1e-12


def test_permutation_check_identity_at_time_zero():
    op = skew_operator(8, [1, 2, 5])
    g = build_cyclic(8)
    rep = permutation_check(op, evolve_column(op, 0.0, g.identity), g)
    assert rep.ok and rep.order == 1 and not rep.fixed_point_free
    assert rep.permutation == tuple(range(8))


def test_commutation_matches_dense_reference_on_every_shipped_certificate():
    """Every oriented certificate's U(tau) is a permutation; the undirected
    C_4 one transfers with phase -1, so it has none to test."""
    names = []
    for cert in shipped_certificates():
        if not cert.oriented:
            continue
        op, ref = walk_operators(cert.graph())
        rep = permutation_check(op, evolve_column(op, cert.tau, cert.group.identity), cert.group)
        if rep.ok:
            assert rep.commutes_with_generator == dense_commutes(rep.permutation, ref.matrix)
            assert rep.commutes_with_generator, cert.name
            names.append(cert.name)
    assert len(names) == 13, names


def _sweep_certificates(spec):
    """(group, classes, tau_min) of every certifying set in the group's sweep."""
    g = build_group(parse_group_spec(spec))
    table = character_table_for(g)
    return [(g, classes, report.minimal_time)
            for stack in enumerate_oriented_class_unions(g.conj)
            for classes, report in zip(stack.classes.tolist(), compute_S_e(stack, table))
            if report.size > 1]


def test_permutation_check_matches_the_dense_check():
    """On every oriented shipped certificate and every certifying set of the
    z4^2 and m2:5 sweeps, at tau_min, at tau_min / 2 and at 0.37 tau_min,
    the one-column check agrees with the earlier check on every column of
    the dense U.

    Its max_deviation is each dense column's distance to the nearest e_z,
    to 1e-12, whatever the column: every column of U holds the same entries.
    That holds where entries of different value tie for the largest
    magnitude (z:4 with {1} at pi/4 holds +-1/2), as 327 of the 391 sets do
    at tau_min / 2 and 40 at 0.37 tau_min."""
    cases = [(cert.group, cert.connection_classes, cert.tau)
             for cert in shipped_certificates() if cert.oriented]
    cases += _sweep_certificates("z4^2") + _sweep_certificates("m2:5")
    accepted = ties = 0
    for g, classes, tau in cases:
        op, walk = walk_operators(cayley_graph(g, classes))
        for t in (tau, 0.5 * tau, 0.37 * tau):
            rep = permutation_check(op, evolve_column(op, t, g.identity), g)
            ref = dense_permutation_check(walk, t)
            assert (rep.ok, rep.permutation, rep.fixed_point_free, rep.order,
                    rep.commutes_with_generator) == (ref.ok, ref.permutation,
                                                     ref.fixed_point_free, ref.order,
                                                     ref.commutes_with_generator), (g, classes, t)
            u = dense_evolve(walk, t).real
            deviations = [distance_to_a_unit_vector(u[:, h]) for h in range(g.order)]
            assert max(abs(d - rep.max_deviation) for d in deviations) <= 1e-12, (g, classes, t)
            if rep.ok:  # the entry nearest 1 is the largest: the earlier value, bit for bit
                assert rep.max_deviation == _largest_entry_deviation(
                    evolve_column(op, t, g.identity)), (g, classes, t)
            largest = u[:, 0][np.abs(u[:, 0]) > np.max(np.abs(u[:, 0])) - 1e-9]
            ties += np.ptp(largest) > 1e-9
            accepted += rep.ok
    # U(tau_min) is a permutation on every set.
    assert accepted == len(cases) == 391 and ties == 327 + 40


def _moved_arc(op, tail, head, new_head):
    """A copy of the oriented operator with the arc tail -> head moved to
    tail -> new_head. Its +1 row keeps one entry per vertex, so the arc that
    ended at new_head moves to end at head; the -1 row stays that row's
    inverse permutation, so A stays skew."""
    index, half = op.index.copy(), len(op.sign) // 2
    k = next(k for k in range(half) if index[k, head] == tail)
    index[k, [head, new_head]] = index[k, [new_head, head]]
    index[k + half] = np.argsort(index[k])
    return dataclasses.replace(op, index=index)


def _doctored(name):
    """(group, operator, time) for index rows that are no longer a Cayley
    graph's."""
    if name == "random-skew":
        rng = np.random.default_rng(5)
        plus = np.stack([rng.permutation(8) for _ in range(3)])
        return build_cyclic(8), WalkOperator(
            index=np.concatenate([plus, np.argsort(plus, axis=1)]),
            sign=np.repeat([1.0, -1.0], 3), rho=6.0), math.pi / 4
    if name == "one-arc-moved":
        return build_cyclic(8), _moved_arc(skew_operator(8, [1, 2, 5]), 3, 4, 7), math.pi / 4
    # Cay(Z_4^2, {(1,0)}) is four directed 4-cycles, the cosets of
    # {(x, 0)}, and U(pi/2) shifts each by (2,0). An arc moved inside the
    # coset of (0,1) leaves the identity's column exact, so only the
    # translation test sees the change.
    g = build_abelian_power(4, 2)
    op = walk_operators(cayley_graph(g, [int(g.conj.class_of[index_of_digits([1, 0], 4)])]))[0]
    tail, head, new_head = (index_of_digits(d, 4) for d in ([0, 1], [1, 1], [2, 1]))
    return g, _moved_arc(op, tail, head, new_head), math.pi / 2


@pytest.mark.parametrize("name", ["random-skew", "one-arc-moved", "arc-moved-off-the-column"])
def test_permutation_check_refuses_a_matrix_that_does_not_commute(name):
    g, op, t = _doctored(name)
    assert np.array_equal(op.dense, -op.dense.T)
    rep = permutation_check(op, evolve_column(op, t, g.identity), g)
    assert not rep.ok and rep.permutation is None and not rep.commutes_with_generator
    if name == "arc-moved-off-the-column":
        assert rep.max_deviation < 1e-12  # the one column alone would pass
        assert not dense_permutation_check(DenseWalk(op.dense), t).ok


def test_permutation_check_refuses_rows_of_right_multiplications():
    """On a nonabelian class union C, the rows h -> h c^-1 and h -> h c sum
    to the same A as the left multiplications, so U(tau) is the same
    permutation; but no such row commutes with the right translations, so
    the exact test refuses them."""
    certs = [c for c in shipped_certificates() if c.group.family_tag in ("m2:5", "es3:1")]
    assert len(certs) == 2
    for cert in certs:
        op, ref = walk_operators(cert.graph())
        g = cert.group
        assert permutation_check(op, evolve_column(op, cert.tau, g.identity), g).ok
        elements = np.array(cert.graph().elements)
        right = dataclasses.replace(op, index=np.concatenate(
            [g.mul[:, g.inv[elements]].T, g.mul[:, elements].T]).astype(np.intp))
        assert np.array_equal(right.dense, ref.matrix) and not np.array_equal(right.index, op.index)
        rep = permutation_check(right, evolve_column(right, cert.tau, g.identity), g)
        assert not rep.ok and rep.permutation is None, cert.name


def test_scan_finds_cyclic3_time():
    op = skew_operator(3, [1])
    hits = scan_pst(op, 0, t_max=2.0)
    assert hits, "expected at least one hit"
    best = min(hits, key=lambda h: abs(h.time - TAU3))
    assert abs(best.time - TAU3) < 1e-6
    assert best.target == 1
    assert best.fidelity > 1 - 1e-7


def test_scan_is_silent_without_transfer():
    g = build_abelian_power(4, 2)
    conj = conjugacy(g)
    classes = [int(conj.class_of[index_of_digits([1, 1], 4)]),
               int(conj.class_of[index_of_digits([1, 3], 4)])]
    op = build_operator(g, cayley_graph(g, classes).elements)
    assert scan_pst(op, 0, t_max=2 * math.pi) == []


def test_fidelity_series_csv_shape():
    op = skew_operator(3, [1])
    text = fidelity_series_csv(op, 0, 1.0, steps=10)
    lines = text.strip().split("\n")
    assert lines[0] == "t,fidelity,target"
    assert len(lines) == 12
    t0, f0, _ = lines[1].split(",")
    assert float(t0) == 0.0 and float(f0) < 1e-12


# Every scan-workload group with its connection classes, plus the README's
# z:8 walk and an undirected walk; each is scanned from two sources.
GRID_CASES = [
    ("m2:7", [2, 10, 17, 18, 26, 32, 34, 42, 50, 58], True),
    ("wreath:z:3:3", [3, 6], True),
    ("es3:2", [1, 3, 5, 11, 29], True),
    ("z3^6", [1, 3, 9, 27, 81, 243], True),
    ("z:8", [1, 2, 5], True),
    ("z:4", [1, 3], False),
]


@pytest.mark.parametrize("spec, classes, oriented", GRID_CASES)
def test_blocked_grid_matches_pointwise_scan(spec, classes, oriented):
    """The CSV's blocked grid against one dense column per time; its 12
    printed digits keep each fidelity within 5e-13."""
    g = build_group(parse_group_spec(spec))
    op, ref = walk_operators(cayley_graph(g, classes, oriented=oriented))
    grid = np.linspace(0.0, 12.6, SCAN_STEPS + 1)
    for a in (g.identity, g.order - 1):
        rows = [line.split(",") for line in fidelity_series_csv(op, a, 12.6).split()[1:]]
        assert [float(t) for t, _, _ in rows] == [float(f"{t:.12g}") for t in grid.tolist()]
        for t, (_, f_grid, b_grid) in zip(grid.tolist(), rows):
            f_grid, b_grid = float(f_grid), int(b_grid)
            mags = np.abs(dense_column(ref, t, a))
            mags[a] = -1.0
            b = int(np.argmax(mags))
            f = mags[b]
            assert abs(f_grid - f) <= 1e-12, (spec, a, t)
            if b_grid != b:
                # Only a near-tie between best and runner-up may pick another target.
                assert f - np.partition(mags, -2)[-2] <= 1e-9, (spec, a, t)


def test_scan_workload_matches_reference_at_its_seed(capsys):
    """The scan workload's es3:2 CSV and z3^6 JSON commands, run at the
    reference seed, pass the benchmark's own checks, exact CSV targets
    included."""
    bench = ROOT / "bench"
    workloads = runpy.run_path(str(bench / "workloads.py"))
    check = runpy.run_path(str(bench / "check.py"))
    seed = workloads["REFERENCE_SEED"]
    refs = json.loads((bench / "reference" / "scan.json").read_text(encoding="utf-8"))
    cmds = workloads["WORKLOADS"]["scan"]
    picked = [i for i, cmd in enumerate(cmds) if cmd.fmt == "csv" or "z3^6" in cmd.args]
    assert len(picked) == 2
    for i in picked:
        cmd, ref = cmds[i], refs["commands"][i]
        argv = cmd.argv(seed)
        assert argv == ref["argv"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        source = workloads["scan_source"](seed, cmd.scan_order)
        if cmd.fmt == "csv":
            problems = check["check_csv_scan"](out, ref["stdout"], source, ref["source"])
        else:
            problems = check["check_scan"](json.loads(out), ref["stdout"], source)
        assert problems == [], (argv, problems)


# ---------------------------------------------------------------------------
# Chebyshev evolution against the eigendecomposition and the Taylor series

def test_only_the_csv_scan_diagonalizes(monkeypatch, capsys):
    """verify (with its permutation checks), pst mst, a JSON scan and --time
    run with eigh unavailable; the CSV grid is the one caller left."""
    def refuse(_):
        raise RuntimeError("eigh called")
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    walk = ["--group", "z:8", "--classes", "1,2,5"]
    for argv in (["verify"], ["pst", "mst", *walk], ["pst", "oracle", *walk, "--scan"],
                 ["pst", "oracle", *walk, "--time", "pi/4"]):
        assert main(["--format", "json", *argv]) == EXIT_OK, argv
    with pytest.raises(RuntimeError, match="eigh called"):
        main(["--format", "csv", "pst", "oracle", *walk, "--scan"])


@pytest.mark.parametrize("basis_bytes", [1, 2**12, oracle._EVOLVE_BASIS_BYTES])
def test_evolve_in_blocks_of_columns_matches_the_dense_route(monkeypatch, basis_bytes):
    """One, a few or all columns per block; every shipped walk in its mode."""
    monkeypatch.setattr(oracle, "_EVOLVE_BASIS_BYTES", basis_bytes)
    for cert in shipped_certificates():
        op, ref = walk_operators(cert.graph())
        for t in (cert.tau, 0.37):
            u = evolve(op, t)
            assert np.max(np.abs(u - dense_evolve(ref, t))) <= 1e-10, (cert.name, t)
            assert np.isrealobj(u) == cert.oriented, cert.name


def test_evolve_checks_unitarity():
    """An expansion scaled by a rho below the spectral norm is not unitary."""
    op = dataclasses.replace(skew_operator(3, [1]), rho=1.0)
    with pytest.raises(NumericalFailureError, match="not unitary"):
        evolve(op, 3 * TAU3)


def test_rho_is_the_largest_absolute_row_sum_and_bounds_the_spectrum():
    for cert in shipped_certificates():
        op, ref = walk_operators(cert.graph())
        # Row g holds +1 per arc into g and -1 per arc out of g: 2|C| if oriented.
        assert op.rho == np.abs(ref.matrix).sum(axis=1).max()
        assert op.rho == len(cert.graph().elements) * (2 if cert.oriented else 1)
        assert np.max(np.abs(dense_spectrum(ref)[0])) <= op.rho + 1e-12, cert.name


def _both_modes(graph):
    """(operator, dense reference) of the walk in its own mode, and of the
    undirected walk on |A| (the arcs without their orientation) in
    hermitian mode."""
    if not graph.oriented:
        return [walk_operators(graph)]
    inverse = graph.conj.class_inv
    undirected = cayley_graph(graph.group, [*graph.class_indices,
                                            *(inverse[c] for c in graph.class_indices)],
                              oriented=False)
    pairs = [walk_operators(graph), walk_operators(undirected)]
    assert np.array_equal(pairs[1][1].matrix, np.abs(pairs[0][1].matrix))
    return pairs


def test_chebyshev_matches_eigendecomposition_on_every_shipped_certificate():
    for cert in shipped_certificates():
        e = cert.group.identity
        for op, walk in _both_modes(cert.graph()):
            for t in (cert.tau, 0.37, -1.3):
                col = evolve_column(op, t, e)
                assert np.max(np.abs(col - dense_column(walk, t, e))) <= 1e-10, (cert.name, t)
            mag, entry = fidelity(op, cert.tau, e, cert.z)
            ref = dense_column(walk, cert.tau, e)[cert.z]
            assert abs(entry - ref) <= 1e-10 and abs(mag - abs(ref)) <= 1e-10, cert.name


@pytest.mark.parametrize("spec, classes, oriented", [
    ("z:3", [1], True), ("z:8", [1, 2, 5], True), ("z:4", [1, 3], False), ("z:6", [1, 5], False),
])
def test_evolve_column_matches_taylor_series(spec, classes, oriented):
    g = build_group(parse_group_spec(spec))
    op, ref = walk_operators(cayley_graph(g, classes, oriented=oriented))
    for t in (0.0, 1e-17, 1e-9, 0.3, -1.7, TAU3, 5.0):
        direct = expm_taylor((t if oriented else 1j * t) * ref.matrix)
        for v in (0, g.order - 1):
            assert np.max(np.abs(evolve_column(op, t, v) - direct[:, v])) < 1e-11, (spec, t, v)


def test_bessel_values_satisfy_their_identities():
    """Each row sums to 1 as J_0 + 2 sum J_2k, J_k(-w) = (-1)^k J_k(w), and
    the first values match the power series where it converges fast."""
    for w in (0.0, 1e-20, 2.5e-16, 1e-6, 0.5, 3.0, 40.0, 151.2):
        row = np.array(_bessel(w, 240))  # K(151.2) + 10 = 232 terms
        assert abs(row[0] + 2 * row[2::2].sum() - 1.0) < 1e-14, w
        assert np.array_equal(np.array(_bessel(-w, 240))[1::2], -row[1::2]), w
        if w <= 0.5:
            series = [sum((-1) ** m * (w / 2) ** (2 * m + k) /
                          (math.factorial(m) * math.factorial(m + k)) for m in range(12))
                      for k in range(6)]
            assert np.max(np.abs(row[:6] - series)) < 1e-15, w


def test_bessel_table_is_the_scalar_recurrence_bit_for_bit():
    """One recurrence over many omegas gives _bessel's rows exactly, and the
    vector term count is _terms: below 2e-16 (K = 1), negative, and up to
    the 2000 limit."""
    grids = [
        np.arange(201) * 0.1512,  # a scan window's offsets
        np.array([0.0, 1e-20, 1.9e-16, 2e-16, 2.5e-16, -1e-17, -3e-16, -0.7, -40.0]),
        np.array([1990.0, 1999.5, 2000.0, -2000.0, -1234.5, 1418.3, 3.0]),
        np.linspace(-60.0, 60.0, 97),
    ]
    for omegas in grids:
        for count in (1, 5, 80):
            table = _bessel_table(omegas, count)
            assert np.array_equal(table, np.array([_bessel(w, count) for w in omegas.tolist()]))
    omegas = np.concatenate([np.geomspace(1e-17, 2000.0, 4001), -np.linspace(0.0, 2000.0, 4001)])
    assert _term_counts(omegas).tolist() == [_terms(w) for w in omegas.tolist()]
    with pytest.raises(SizeLimitError):
        _bessel_table(np.array([1.0, 2000.5]), 4)
    with pytest.raises(InvalidParameterError):
        _term_counts(np.array([1.0, math.nan]))


GATHER_WALKS = [
    ("m2:7", [2, 10, 17, 18, 26, 32, 34, 42, 50, 58], True),
    ("wreath:z:3:3", [3, 6], True),
    ("es3:2", [1, 3, 5, 11, 29], True),
    ("z3^6", [1, 3, 9, 27, 81, 243], True),
    ("z:8", [1, 2, 5], True),
    ("z:256", [1], True),
    ("z:256", [1, 255], False),
    ("z:4", [1, 3], False),
]


def test_gather_product_matches_the_dense_product(monkeypatch):
    """Products gather through the index rows exactly when 32 d <= n: z3^6
    (12 of 729) and the cycle on 256 vertices do, m2:7 (38 of 128) and es3:2
    (26 of 243) do not, and multiply by the dense A built from the rows,
    which is the adjacency matrix exactly. On every walk, gathered and dense
    products agree with the adjacency product to 1e-13, and so do the bases
    built from them, for real and complex vectors and blocks of them."""
    walks = [(cert.name, pair) for cert in shipped_certificates()
             for pair in _both_modes(cert.graph())]
    for spec, classes, oriented in GATHER_WALKS:
        g = build_group(parse_group_spec(spec))
        walks.append((spec, walk_operators(cayley_graph(g, classes, oriented=oriented))))
    assert {name for name, (op, _) in walks
            if oracle._GATHER_RATIO * len(op.sign) <= op.order} == {"z3^6", "z:256"}
    rng = np.random.default_rng(7)
    for name, (op, ref) in walks:
        assert np.array_equal(op.dense, ref.matrix), name
        x = rng.standard_normal((op.order, 2)) + 1j * rng.standard_normal((op.order, 2))
        for v in (x[:, 0].real.copy(), x[:, 0], x):
            bases = []
            for ratio in (0, op.order + 1):  # every product gathered, then none
                monkeypatch.setattr(oracle, "_GATHER_RATIO", ratio)
                bases.append(_basis(op, v, 9))
            assert np.max(np.abs(bases[0][1] * op.rho - ref.matrix @ v)) <= 1e-13, name
            assert np.max(np.abs(bases[0] - bases[1])) <= 1e-13, name


SCAN_GROUPS = [
    ("m2:7", [2, 10, 17, 18, 26, 32, 34, 42, 50, 58]),
    ("wreath:z:3:3", [3, 6]),
    ("es3:2", [1, 3, 5, 11, 29]),
    ("z3^6", [1, 3, 9, 27, 81, 243]),
]


@pytest.mark.parametrize("spec, classes", SCAN_GROUPS)
def test_scan_hits_match_the_dense_scan(spec, classes):
    """From the sources the benchmark's seeds 42, 7, 1, 100 and 12345 pick:
    the same targets, times and fidelities to 1e-12. Both routes find a hit
    as the root of the target entry's slope, the reference by Newton steps on
    the eigendecomposition's u, u' and u'', so the times agree to round-off
    (5.3e-15 measured), where a golden-section reference was up to 1e-8 off."""
    g = build_group(parse_group_spec(spec))
    op, walk = walk_operators(cayley_graph(g, classes))
    for a in sorted({seed % g.order for seed in (42, 7, 1, 100, 12345)}):
        hits, ref = scan_pst(op, a, t_max=12.6), dense_scan_pst(walk, a, 12.6)
        assert [h.target for h in hits] == [h.target for h in ref], (spec, a)
        for h, r in zip(hits, ref):
            assert abs(h.time - r.time) <= 1e-12, (spec, a, h, r)
            assert abs(h.fidelity - r.fidelity) <= 1e-12, (spec, a, h, r)


def test_hermitian_scan_matches_the_dense_scan():
    g = build_group(parse_group_spec("z:4"))
    op, walk = walk_operators(cayley_graph(g, [1, 3], oriented=False))
    hits, ref = scan_pst(op, 1, t_max=12.6), dense_scan_pst(walk, 1, 12.6)
    assert [h.target for h in hits] == [h.target for h in ref] == [3] * 4
    assert max(abs(h.time - r.time) for h, r in zip(hits, ref)) <= 1e-12


@pytest.mark.parametrize("spec, classes, oriented, source", [
    ("z:8", [1, 2, 5], True, 0),
    ("m2:7", [2, 10, 17, 18, 26, 32, 34, 42, 50, 58], True, 42),
    ("z:4", [1, 3], False, 1),
])
def test_scan_hits_land_on_multiples_of_a_quarter_pi(spec, classes, oriented, source):
    """These walks transfer at multiples of pi/4 exactly, and a hit's time is
    the root of the target entry's slope, so it is exact to round-off."""
    g = build_group(parse_group_spec(spec))
    op = walk_operators(cayley_graph(g, classes, oriented=oriented))[0]
    hits = scan_pst(op, source, t_max=12.6)
    assert len(hits) >= 4
    for h in hits:
        k = round(h.time / (math.pi / 4))
        assert abs(h.time - k * math.pi / 4) <= 1e-12, (spec, h)


@pytest.mark.parametrize("spec, classes, source", [
    ("z:8", [1, 2, 5], 0),
    ("m2:7", [2, 10, 17, 18, 26, 32, 34, 42, 50, 58], 42),
])
def test_a_long_scan_reports_every_exact_transfer(spec, classes, source):
    """Over [0, 100] the hits are exactly the multiples of pi/4 at which the
    dense column transfers, each within 1e-12. A fixed 2,000-step grid
    (step 0.05) reported 68 of z:8's 96 and 29 of m2:7's 96: the degree-6
    and degree-38 walks need steps of 0.037 and 0.015."""
    g = build_group(parse_group_spec(spec))
    op, ref = walk_operators(cayley_graph(g, classes))
    transfers = []
    for k in range(1, int(100 / (math.pi / 4)) + 1):
        mags = np.abs(dense_column(ref, k * math.pi / 4, source))
        mags[source] = 0.0
        if mags.max() >= 1 - FIDELITY_GAP:
            transfers.append((k, int(np.argmax(mags))))
    assert len(transfers) == 96
    hits = scan_pst(op, source, t_max=100.0)
    assert [(round(h.time / (math.pi / 4)), h.target) for h in hits] == transfers
    for h in hits:
        assert abs(h.time - round(h.time / (math.pi / 4)) * math.pi / 4) <= 1e-12, (spec, h)


@pytest.mark.parametrize("spec, classes, source", [
    ("z:8", [1, 2, 5], 0),
    ("m2:7", [2, 10, 17, 18, 26, 32, 34, 42, 50, 58], 42),
])
def test_maxima_refined_in_blocks_of_two_are_the_one_batch_hits(monkeypatch, spec, classes,
                                                                source):
    g = build_group(parse_group_spec(spec))
    op = build_operator(g, cayley_graph(g, classes).elements)
    monkeypatch.setattr(oracle, "_REFINE_PEAKS", 10**6)
    whole = scan_pst(op, source, t_max=40.0)
    monkeypatch.setattr(oracle, "_REFINE_PEAKS", 2)
    blocked = scan_pst(op, source, t_max=40.0)
    assert len(whole) > 2 * 2 and [h.target for h in blocked] == [h.target for h in whole]
    for a, b in zip(blocked, whole):
        assert abs(a.time - b.time) <= 1e-12 and abs(a.fidelity - b.fidelity) <= 1e-12


def test_a_scan_holds_no_state_per_hit():
    """z3^4 {1,3,9,27} over [0, 800]: 441 hits. Refined in one batch, the
    basis and the left grid states of every maximum traced 5.6 MB; in
    blocks, 1.5 MB, of which the grid's 25,555 times, targets and
    fidelities take 0.6 MB."""
    g = build_abelian_power(3, 4)
    op = build_operator(g, cayley_graph(g, [1, 3, 9, 27]).elements)
    scan_pst(op, 0, t_max=1.0)
    tracemalloc.start()
    try:
        hits = scan_pst(op, 0, t_max=800.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(hits) == 441
    assert peak < 3 * 2**20


@pytest.mark.parametrize("spec, classes", SCAN_GROUPS)
def test_refined_fidelity_is_never_below_the_grid_peak(spec, classes):
    """Every hit reads at least the largest fidelity of the grid around it."""
    g = build_group(parse_group_spec(spec))
    op, ref = walk_operators(cayley_graph(g, classes))
    grid = np.linspace(0.0, 12.6, SCAN_STEPS + 1)
    _, values = dense_grid(ref, grid, 0)
    hits = scan_pst(op, 0, t_max=12.6)
    assert hits
    for h in hits:
        i = int(np.searchsorted(grid, h.time))
        assert h.fidelity >= np.max(values[i - 1:i + 1]) - 1e-13, (spec, h)


def test_a_refinement_off_the_peak_is_refused(monkeypatch):
    """A refinement that settles at the bracket's left end, below the grid
    peak, is refused."""
    op = skew_operator(8, [1, 2, 5])
    monkeypatch.setattr(oracle, "_refine", lambda op, rows, s, width: 0.0 * s)
    with pytest.raises(NumericalFailureError, match="below its grid value"):
        scan_pst(op, 0, t_max=12.6)


def test_norm_check_catches_a_rho_below_the_spectral_norm():
    """On z:3 the spectral norm is sqrt(3) > rho/2 = 1, so the expansion in
    A/(rho/2) leaves [-1, 1], where T_k grows like 3.15**k, and the truncated
    series loses the norm once omega is large enough (here 10 per window)."""
    op = dataclasses.replace(skew_operator(3, [1]), rho=1.0)
    with pytest.raises(NumericalFailureError, match="lost the norm"):
        evolve_column(op, 3 * TAU3, 0)
    with pytest.raises(NumericalFailureError, match="lost the norm"):
        scan_pst(op, 0, t_max=100.0)
    g = build_group(parse_group_spec("es3:2"))
    op = build_operator(g, cayley_graph(g, [1, 3, 5, 11, 29]).elements)
    with pytest.raises(NumericalFailureError, match="lost the norm"):
        scan_pst(dataclasses.replace(op, rho=op.rho / 2), 0, t_max=12.6)


def test_times_that_no_expansion_covers_are_refused():
    """omega = t*rho up to 2000 is one expansion (past 1418 its term bound
    overflows a float, so K is found in logarithms); evolve_column chains up
    to 1000 such pieces, and beyond that exits 4."""
    op, ref = walk_operators(cayley_graph(build_cyclic(8), [1, 2, 5]))
    t = 1999.0 / op.rho
    assert np.max(np.abs(evolve_column(op, t, 0) - dense_column(ref, t, 0))) < 1e-9
    with pytest.raises(SizeLimitError):
        evolve_column(op, 2000.0 * 1000.5 / op.rho, 0)
    with pytest.raises(InvalidParameterError):
        evolve_column(op, math.nan, 0)
    with pytest.raises(InvalidParameterError):
        evolve_column(op, math.inf, 0)
    with pytest.raises(SizeLimitError):
        evolve_column(op, 1e9, 0)
    with pytest.raises(InvalidParameterError):
        scan_pst(op, 0, t_max=math.inf)


def test_a_long_time_is_split_into_pieces(capsys):
    """omega = t*rho past 2000 is split into ceil(omega / 2000) equal
    pieces, each norm-checked: at omega = 5000 (three pieces) the column of
    z:8 {1, 2, 5} matches the dense reference to 1e-10, and pst oracle
    --time reads it (it exited 4)."""
    op, ref = walk_operators(cayley_graph(build_cyclic(8), [1, 2, 5]))
    t = 5000.0 / op.rho
    col = evolve_column(op, t, 0)
    assert np.max(np.abs(col - dense_column(ref, t, 0))) <= 1e-10
    code = main(["--format", "json", "pst", "oracle", "--group", "z:8", "--classes", "1,2,5",
                 "--time", repr(t), "--target", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK and doc["entry"] == [float(col[3]), 0.0]


@pytest.mark.parametrize("spec, classes, t", [
    ("z:4096", [1], 1.0),
    ("z4^6", [1, 4, 16, 64, 256, 1024], math.pi / 2),
])
def test_the_operator_and_one_column_stay_small(spec, classes, t):
    """At order 4096 a dense A alone is 128 MB; the index rows and one
    evolved column peak below 8 MB (0.9 and 2.8 MB measured)."""
    g = build_group(parse_group_spec(spec))
    elements = cayley_graph(g, classes).elements
    tracemalloc.start()
    try:
        evolve_column(build_operator(g, elements), t, g.identity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_columns_match_the_dense_reference_on_every_shipped_and_scanned_walk():
    """The index rows against the adjacency matrix, in both modes, on every
    shipped certificate's walk and every benchmark scan's walk: a row with
    its sign flipped, or a row of right multiplications, shows here."""
    graphs = [cert.graph() for cert in shipped_certificates()]
    graphs += [cayley_graph(build_group(parse_group_spec(spec)), classes)
               for spec, classes in SCAN_GROUPS]
    for graph in graphs:
        e = graph.group.identity
        for op, ref in _both_modes(graph):
            for t in (0.37, 1.3):
                col = evolve_column(op, t, e)
                assert np.max(np.abs(col - dense_column(ref, t, e))) <= 1e-13, (graph, t)
