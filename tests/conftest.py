"""Independent oracles shared by the test suite.

Everything here recomputes facts from first principles (permutation
composition, brute-force orbit scans, Taylor-series matrix exponentials) so
library results are checked against a second, structurally different route.
"""
from __future__ import annotations

import collections
import itertools
import json
import math
import weakref
from dataclasses import dataclass

import numpy as np
import pytest

from caywalk import characters
from caywalk.cayley import adjacency_matrix
from caywalk.characters import CharacterTable, GaloisData, unit_closure, units_mod
from caywalk.config import (
    PERMUTATION_TOL,
    RECONSTRUCTION_TOL,
    SCAN_STEPS,
    SCAN_THRESHOLD,
    VALUE_TOL,
)
from caywalk.engine import (
    ALLOWED_MST_SIZES,
    APERIODIC_WALK,
    STATIC_WALK,
    MSTReport,
    NonexistenceWitness,
    PSTCertificate,
    check_pst_at,
)
from caywalk.errors import GroupValidationError, InvariantBreachError, SchemaError
from caywalk.groups import (
    ConjugacyData,
    GroupSpec,
    GroupTable,
    WreathElement,
    WreathIndexing,
    _finish,
    _perm_label,
    _word,
    cycle_product,
    digits_of,
    index_of_digits,
    permutation_cycles,
    power,
    subgroup_closure,
)
from caywalk.oracle import (
    PermutationReport,
    ScanHit,
    WalkOperator,
    build_hermitian_operator,
    build_operator,
)

# Cyclic orders for the differential tests: every order to 64, then prime
# powers and products up to 729 (orbit_conjugacy takes O(r^2) Python steps).
CYCLIC_ORDERS = (*range(1, 65), 81, 100, 121, 125, 128, 243, 256, 343, 360, 512, 625, 729)

# Hand-written `verify --fixtures` documents, one per kind of claim: a
# transfer set of size 4, a report-only probe, and a periodic return (the
# zero-sum set {(0,1), (1,1), (2,1)} of Z_3^2). The optional claims_pst and
# report_only keys, where present, agree with claimed_size; family and notes
# are ignored by the reader.
FIXTURE_DOCUMENTS = (
    {"name": "z8_125", "group": "z:8", "connection_classes": [1, 2, 5], "z": 2,
     "tau": "solved:0.7853981633974483", "claimed_size": 4, "claims_pst": True,
     "report_only": False, "oriented": True, "family": "cyclic-8", "notes": ""},
    {"name": "m2_16_probe", "group": "m2:4", "connection_classes": [3, 4], "z": 4,
     "tau": "pi/4", "claimed_size": None, "report_only": True},
    {"name": "z3_2_return", "group": "z3^2", "connection_classes": [1, 4, 7], "z": 0,
     "tau": "2pi/3sqrt3", "claimed_size": 1, "claims_pst": False},
)


def write_fixture_documents(directory, docs=FIXTURE_DOCUMENTS) -> None:
    """Write each document to directory/<name>.json."""
    for doc in docs:
        (directory / f"{doc['name']}.json").write_text(json.dumps(doc), encoding="utf-8")


def permutation_group_table(n: int) -> GroupTable:
    """S_n as an explicit table, built from raw permutation composition."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    mul = np.zeros((size, size), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            mul[i, j] = index[tuple(p[q[k]] for k in range(n))]
    inv = np.zeros(size, dtype=np.int64)
    for i, p in enumerate(perms):
        ip = [0] * n
        for a, b in enumerate(p):
            ip[b] = a
        inv[i] = index[tuple(ip)]
    labels = tuple("".join(str(x) for x in p) for p in perms)
    return GroupTable(order=size, mul=mul, identity=index[tuple(range(n))],
                      inv=inv, labels=labels)


def brute_conjugacy_classes(mul: np.ndarray, inv: np.ndarray) -> list[frozenset[int]]:
    """Conjugacy classes by a plain double loop, no vectorization."""
    n = mul.shape[0]
    seen = set()
    classes = []
    for g in range(n):
        if g in seen:
            continue
        orbit = {int(mul[mul[h, g], inv[h]]) for h in range(n)}
        classes.append(frozenset(orbit))
        seen |= orbit
    return classes


def expm_taylor(m: np.ndarray) -> np.ndarray:
    """exp(M) by scaling-and-squaring with a plain Taylor series."""
    m = np.asarray(m, dtype=np.complex128)
    norm = float(np.abs(m).sum(axis=1).max()) if m.size else 0.0
    s = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    x = m / (2.0 ** s)
    out = np.eye(m.shape[0], dtype=np.complex128)
    term = np.eye(m.shape[0], dtype=np.complex128)
    for k in range(1, 30):
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


@dataclass(frozen=True, eq=False)
class DenseWalk:
    """A walk's dense A from cayley.adjacency_matrix, in its mode: the
    reference the oracle's index rows are checked against."""

    matrix: np.ndarray
    hermitian: bool = False

    @property
    def order(self) -> int:
        return self.matrix.shape[0]


def walk_operators(graph) -> tuple[WalkOperator, DenseWalk]:
    """The oracle's operator of a graph, in the graph's mode, and the dense
    reference built from its adjacency matrix."""
    build = build_operator if graph.oriented else build_hermitian_operator
    return (build(graph.group, graph.elements),
            DenseWalk(adjacency_matrix(graph), hermitian=not graph.oriented))


# The dense route the oracle's Chebyshev expansion replaced: one eigh of iA
# (of A in hermitian mode) per walk, kept here as the reference.
_SPECTRA: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# Complex entries in one block of the dense fidelity grid.
_GRID_BLOCK_ENTRIES = 2**19
# Newton steps dense_scan_pst allows one maximum before failing.
_DENSE_NEWTON_STEPS = 50


def dense_spectrum(walk: DenseWalk) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, vectors) of iA (of A in hermitian mode), checked by
    reconstruction and computed once per walk: the earlier
    oracle._diagonalize."""
    if walk not in _SPECTRA:
        herm = walk.matrix if walk.hermitian else 1j * walk.matrix
        eigenvalues, vectors = np.linalg.eigh(herm)
        recon = (vectors * eigenvalues) @ vectors.conj().T
        assert np.max(np.abs(recon - herm)) <= RECONSTRUCTION_TOL
        _SPECTRA[walk] = (eigenvalues, vectors)
    return _SPECTRA[walk]


def dense_phases(walk: DenseWalk, t) -> np.ndarray:
    """exp(-i lambda t) on the eigenvalues lambda of iA (exp(i lambda t) on
    those of A in hermitian mode), for a time or a column of times."""
    sign = 1j if walk.hermitian else -1j
    return np.exp(sign * dense_spectrum(walk)[0] * t)


def dense_evolve(walk: DenseWalk, t: float) -> np.ndarray:
    """U(t) from the eigendecomposition: the earlier oracle.evolve."""
    vectors = dense_spectrum(walk)[1]
    return (vectors * dense_phases(walk, t)) @ vectors.conj().T


def dense_column(walk: DenseWalk, t: float, a: int) -> np.ndarray:
    """Column a of U(t) from the eigendecomposition: the earlier body of
    oracle.evolve_column, kept as the reference for its Chebyshev form."""
    vectors = dense_spectrum(walk)[1]
    return vectors @ (dense_phases(walk, t) * np.conj(vectors[a, :]))


def dense_grid(walk: DenseWalk, times: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """(targets, fidelities) off vertex a at every time, from the
    eigendecomposition, one block of times per product (phases * conj(V[a]))
    @ V.T: the earlier oracle._best_offdiagonal_grid."""
    vectors = dense_spectrum(walk)[1]
    weights = np.conj(vectors[a, :])
    step = max(1, _GRID_BLOCK_ENTRIES // walk.order)
    targets = np.empty(len(times), dtype=np.int64)
    values = np.empty(len(times))
    for lo in range(0, len(times), step):
        mags = np.abs((dense_phases(walk, times[lo:lo + step, None]) * weights) @ vectors.T)
        mags[:, a] = -1.0
        targets[lo:lo + step], values[lo:lo + step] = mags.argmax(axis=1), mags.max(axis=1)
    return targets, values


def dense_permutation_check(walk: DenseWalk, t: float) -> PermutationReport:
    """The earlier oracle.permutation_check, on every column of the dense U(t)."""
    u = dense_evolve(walk, t)
    n = walk.order
    mags = np.abs(u)
    perm = np.argmax(mags, axis=0)
    cols = np.arange(n)
    chosen = np.abs(u[perm, cols] - 1.0)
    mags[perm, cols] = 0.0
    deviation = max(float(np.max(chosen)), float(np.max(mags)))
    if deviation > PERMUTATION_TOL or len(set(int(p) for p in perm)) != n:
        return PermutationReport(ok=False, permutation=None, max_deviation=float(deviation),
                                 fixed_point_free=False, commutes_with_generator=False,
                                 order=None)
    perm_t = tuple(int(p) for p in perm)
    a = walk.matrix
    commutes = bool(np.max(np.abs(a[np.ix_(perm, perm)] - a)) < PERMUTATION_TOL * max(1.0, n))
    fixed_free = all(perm_t[a] != a for a in range(n))
    order = math.lcm(*map(len, permutation_cycles(perm_t)))
    return PermutationReport(ok=True, permutation=perm_t, max_deviation=float(deviation),
                             fixed_point_free=fixed_free, commutes_with_generator=commutes,
                             order=order)


def distance_to_a_unit_vector(col: np.ndarray) -> float:
    """min over z of max(|c_z - 1|, max_{y != z} |c_y|), by trying every z:
    how far the column is from the nearest e_z."""
    others = np.tile(np.abs(col), (len(col), 1))
    np.fill_diagonal(others, 0.0)
    return float(np.min(np.maximum(np.abs(col - 1.0), others.max(axis=1))))


def dense_scan_pst(walk: DenseWalk, a: int, t_max: float) -> list[ScanHit]:
    """oracle.scan_pst on the eigendecomposition, the reference for its
    Chebyshev form: the fidelity grid, then Newton steps to each local
    maximum of the grid target's |u| (golden-section search before).

    With u(t) = sum_j w_j exp(r_j t), w_j = V[b, j] conj(V[a, j]) and r_j the
    phase rate of eigenvalue j, u' and u'' are the sums with r_j and r_j^2
    as factors. The peak is the root of Re(conj(u) u'), whose slope is
    |u'|^2 + Re(conj(u) u''); the steps are kept inside the grid bracket.
    """
    eigenvalues, vectors = dense_spectrum(walk)
    rates = (1j if walk.hermitian else -1j) * eigenvalues

    def best(t):
        col = np.abs(dense_column(walk, t, a))
        col[a] = -1.0
        b = int(np.argmax(col))
        return b, float(col[b])

    def newton_peak(b, t, lo, hi):
        weights = vectors[b, :] * np.conj(vectors[a, :])
        for _ in range(_DENSE_NEWTON_STEPS):
            terms = weights * np.exp(rates * t)
            u, du, ddu = terms.sum(), (rates * terms).sum(), (rates ** 2 * terms).sum()
            step = (np.conj(u) * du).real / (abs(du) ** 2 + (np.conj(u) * ddu).real)
            t = min(max(t - step, lo), hi)
            if abs(step) <= 1e-15 * max(1.0, t):
                return t
        raise AssertionError(f"no Newton convergence near t = {t}")

    grid = np.linspace(0.0, t_max, SCAN_STEPS + 1)
    targets, values = dense_grid(walk, grid, a)
    hits = []
    for i in range(1, SCAN_STEPS):
        if values[i] >= SCAN_THRESHOLD and values[i] >= values[i - 1] \
                and values[i] >= values[i + 1]:
            t_ref = newton_peak(int(targets[i]), float(grid[i]), float(grid[i - 1]),
                                float(grid[i + 1]))
            b, f = best(t_ref)
            hits.append(ScanHit(time=t_ref, target=b, fidelity=f))
    hits.sort(key=lambda h: h.time)
    merged = []
    for h in hits:
        if merged and abs(merged[-1].time - h.time) < 1e-6:
            if h.fidelity > merged[-1].fidelity:
                merged[-1] = h
        else:
            merged.append(h)
    return merged


def abelian_residue_counts(group: GroupTable, elements, v, r: int) -> np.ndarray:
    """counts[j] = number of connection elements w with v.w = j (mod r)."""
    n = len(v)
    assert r**n == group.order, "digit shape does not match the group order"
    counts = np.zeros(r, dtype=np.int64)
    for w in elements:
        dots = sum(int(a) * b for a, b in zip(v, digits_of(w, r, n))) % r
        counts[dots] += 1
    return counts


def theta_from_residue_counts(counts: np.ndarray, r: int) -> complex:
    """2i * sum_j counts[j] sin(2 pi j / r), the abelian eigenvalue formula."""
    j = np.arange(r)
    return complex(2j * np.sum(counts * np.sin(2 * np.pi * j / r)))


def idempotent(graph, table, char_index: int) -> np.ndarray:
    """Spectral projector E[g, h] = chi(h g^-1) * chi(e) / |G|."""
    group = graph.group
    # X[h, g] = h * g^-1, built column-by-column over g.
    x = group.mul[:, group.inv]
    deg = float(table.degrees[char_index])
    return (deg / group.order) * table.values[char_index][graph.conj.class_of[x]].T


def winding_search_times(graph, table, tol: float = 1e-8,
                         candidate_factor: int = 4) -> dict[int, tuple[float, float]]:
    """Minimal transfer time and residual per central target, by winding search.

    The engine's earlier solver, kept as a structurally different reference:
    for each target it solves one reference character's phase equation over
    the windings k = -K..K with K = candidate_factor * |G| and takes the
    earliest candidate time whose residual is under tol.
    """
    g = graph.group
    values = table.values  # a closed form derives it on each read
    idx = np.asarray(graph.class_indices, dtype=np.int64)
    sums = values[:, idx] @ table.class_sizes[idx].astype(np.float64)
    thetas = (sums - np.conj(sums)) / table.degrees
    static = np.abs(thetas.imag) <= tol
    ref = int(np.argmax(np.abs(thetas.imag)))
    ks = np.arange(-candidate_factor * g.order, candidate_factor * g.order + 1)
    found = {}
    for z in graph.conj.center:
        if z == g.identity or np.all(static):
            continue
        ratios = values[:, int(graph.conj.class_of[z])] / table.degrees
        if np.any((np.abs(ratios - 1.0) > tol) & static):
            continue
        alpha = float(np.angle(ratios[ref])) % (2.0 * np.pi)
        times = (alpha + 2.0 * np.pi * ks) / thetas.imag[ref]
        times = np.sort(times[times > 1e-12])
        residuals = np.max(np.abs(ratios[None, :] - np.exp(np.outer(times, thetas))), axis=1)
        hits = np.nonzero(residuals < tol)[0]
        if hits.size:
            found[z] = (float(times[hits[0]]), float(residuals[hits[0]]))
    return found


def itertools_oriented_sets(conj, max_classes=None):
    """Oriented class unions one tuple at a time, by itertools.

    The earlier body of cayley.enumerate_oriented_class_unions, kept as the
    reference for its array form: combination-major, then orientation, and
    a set is kept when it is not larger than its inverted image.
    """
    identity_class = int(conj.class_of[conj.group.identity])
    pairs = []
    for c in range(len(conj.classes)):
        cinv = conj.class_inv[c]
        if c == identity_class or cinv == c or cinv < c:
            continue
        pairs.append((c, cinv))
    cap = len(pairs) if max_classes is None else min(max_classes, len(pairs))
    for count in range(1, cap + 1):
        for combo in itertools.combinations(pairs, count):
            for orientation in itertools.product((0, 1), repeat=count):
                chosen = tuple(sorted(pair[side] for pair, side in zip(combo, orientation)))
                inverted = tuple(sorted(conj.class_inv[c] for c in chosen))
                if chosen <= inverted:
                    yield chosen


def per_set_walk_frequency(thetas, value_tol):
    """(omega, None) when periodic, else (None, reason): the earlier scalar test."""
    squares = thetas.imag ** 2
    nearest = np.rint(squares)
    if np.any(np.abs(squares - nearest) > value_tol * (1.0 + squares)):
        return None, APERIODIC_WALK
    nonzero = {int(n) for n in nearest if n > 0}
    if not nonzero:
        return None, STATIC_WALK
    first = min(nonzero)
    if any(math.isqrt(n * first) ** 2 != n * first for n in nonzero):
        return None, APERIODIC_WALK
    return math.sqrt(math.gcd(*nonzero)), None


def per_set_scan_targets(graph, table, targets, n, tol):
    """(tau, residual, reason) per central target of one set: the earlier scorer."""
    tau = np.full(len(targets), np.nan)
    residual = np.full(len(targets), math.inf)
    values = table.values  # a closed form derives it on each read
    idx = np.asarray(graph.class_indices, dtype=np.int64)
    sums = values[:, idx] @ table.class_sizes[idx].astype(np.float64)
    thetas = (sums - np.conj(sums)) / table.degrees
    omega, reason = per_set_walk_frequency(thetas, VALUE_TOL)
    if omega is None:
        return tau, residual, reason
    times = 2.0 * math.pi * np.arange(1, n) / (n * omega)
    waves = np.exp(np.outer(times, thetas))
    static = np.abs(thetas.imag) <= tol
    for i, z in enumerate(targets):
        ratios = values[:, int(graph.conj.class_of[z])] / table.degrees
        scores = np.max(np.abs(ratios[None, :] - waves), axis=1)
        if np.any((np.abs(ratios - 1.0) > tol) & static):
            scores[:] = math.inf
        hit = np.flatnonzero(scores < tol)
        pick = hit[0] if hit.size else int(np.argmin(scores))
        tau[i], residual[i] = times[pick], scores[pick]
    return tau, residual, None


def blocked_scan_targets(table, thetas, omega, z_classes, n, block_entries=1 << 16):
    """(tau, residual), sets x targets, over the times 2*pi*j/(n*omega) of each set.

    The engine's earlier multi-target scorer, kept as the reference for
    engine._decode_targets: every candidate time is scored against every
    target in (sets x times x characters x targets) blocks. Where nothing hits, tau is
    the candidate of least residual; residual is inf where no time can work.
    """
    tol = VALUE_TOL
    tau = np.full((len(thetas), len(z_classes)), np.nan)
    residual = np.full(tau.shape, math.inf)
    rows = np.flatnonzero(omega > 0)
    if rows.size == 0 or n < 2:
        return tau, residual
    times = 2.0 * math.pi * np.arange(1, n) / (n * omega[rows, None])
    values = table.values  # a closed form derives it on each read
    per_target = (n - 1) * table.n_chars
    width = max(1, min(len(z_classes), block_entries // per_target))
    height = max(1, block_entries // (per_target * width))
    for lo in range(0, rows.size, height):
        block = rows[lo:lo + height]
        waves = np.exp(times[lo:lo + height, :, None] * thetas[block, None, :])
        static = np.abs(thetas[block].imag) <= tol
        for left in range(0, len(z_classes), width):
            cols = slice(left, left + width)
            ratios = values[:, z_classes[cols]] / table.degrees[:, None]
            scores = np.max(np.abs(ratios[None, None] - waves[..., None]), axis=2)
            dead = (static[:, :, None] & (np.abs(ratios - 1.0) > tol)).any(axis=1)
            scores[np.broadcast_to(dead[:, None, :], scores.shape)] = math.inf
            hit = scores < tol
            pick = np.where(hit.any(axis=1), hit.argmax(axis=1), scores.argmin(axis=1))
            tau[block, cols] = np.take_along_axis(times[lo:lo + height], pick, axis=1)
            residual[block, cols] = np.take_along_axis(scores, pick[:, None, :], axis=1)[:, 0]
    return tau, residual


def per_set_compute_S_e(graph, table):
    """The earlier per-set compute_S_e: scan every central target, then the
    closure, size and power-law checks, with InvariantBreachError on a breach."""
    g = graph.group
    tol = VALUE_TOL
    targets = [z for z in graph.conj.center if z != g.identity]
    taus, residuals, _ = per_set_scan_targets(graph, table, targets,
                                              graph.conj.center_exponent, tol)
    certificates = {targets[i]: PSTCertificate(z=targets[i], tau=float(taus[i]),
                                               residual=float(residuals[i]))
                    for i in np.flatnonzero(residuals < tol)}
    if not certificates:
        return MSTReport(S_e=(g.identity,), size=1, generator=None,
                         minimal_time=None, certificates={})
    generator = min(certificates, key=lambda z: (certificates[z].tau, z))
    tau_min = certificates[generator].tau
    members = tuple(sorted({g.identity, *certificates.keys()}))
    if members != subgroup_closure(g, [generator]):
        raise InvariantBreachError(f"transfer set {members} is not cyclic")
    size = len(members)
    if size not in ALLOWED_MST_SIZES:
        raise InvariantBreachError(f"transfer set size {size} is not allowed")
    for n in range(1, size):
        if not check_pst_at(graph, table, power(g, generator, n), n * tau_min).accepted:
            raise InvariantBreachError(f"power law fails at generator^{n}")
    return MSTReport(S_e=members, size=size, generator=generator,
                     minimal_time=tau_min, certificates=certificates)


def row_loop_stabilizers(table, power_perm, units) -> tuple[tuple[int, ...], ...]:
    """Galois stabilizers tested one row and one unit at a time.

    The earlier body of characters._stabilizers_from, kept as the reference
    for its blocked form.
    """
    perms = {k: np.asarray(power_perm(k)) for k in units}
    stabs = []
    for row in table.values:
        stabs.append(tuple(k for k in units
                           if np.max(np.abs(row[perms[k]] - row)) < VALUE_TOL))
    return tuple(stabs)


def per_unit_stabilizers(table, power_maps) -> GaloisData:
    """Unit k fixes row i when the row equals itself permuted by k's class
    power map, one whole-table comparison per unit.

    The earlier body of characters.galois_stabilizers_imported, kept as the
    reference for its walk from the unit group's generators.
    """
    m, values = table.exponent, table.values
    fixes = np.zeros((table.n_chars, m), dtype=bool)
    for k in units_mod(m):
        perm = np.asarray(power_maps[k])
        fixes[:, k % m] = np.max(np.abs(values[:, perm] - values), axis=1) < VALUE_TOL
    return GaloisData.from_masks(m, fixes)


def order_rule_fixes(table) -> np.ndarray:
    """The (rows x residues) stabilizer mask of a closed form, one mask per
    row: unit u fixes a linear row when its additive order divides u - 1,
    and nonlinear row m when u*m lies in m's orbit, whose least member each
    label is.

    The earlier bodies of characters.galois_stabilizers (digits) and
    MonomialForm.fixes, kept as the reference for the stabilizers held once
    per distinct mask.
    """
    m = table.exponent
    u = np.arange(m)
    if table.form is None:
        orders = m // np.gcd(np.gcd.reduce(table.digits, axis=1), m)
        return ((u - 1) % orders[:, None] == 0) & characters.unit_mask(m)
    form, n = table.form, table.form.modulus
    orders = np.lcm.reduce(form.radices // np.gcd(form.rows, form.radices), axis=1)
    least = (np.arange(n)[:, None] * form.twists % n).min(axis=1)
    return np.concatenate([(u - 1) % orders[:, None] == 0,
                           least[form.labels[:, None] * u % n] == form.labels[:, None]]
                          ) & characters.unit_mask(m)


def galois_stabilizers_imported(table, power_maps) -> GaloisData:
    """Stabilizers from shipped class power maps, one for every unit mod the
    exponent; each map must be the composition of the generators' maps.

    Formerly characters.galois_stabilizers_imported, which nothing in the
    package called: the import's composition check, then the walk that
    galois_stabilizers takes from the generators' maps.
    """
    m = table.exponent
    missing = [k for k in units_mod(m) if k not in power_maps]
    if missing:
        raise SchemaError(f"power maps missing for units {missing}")
    characters._check_power_maps(power_maps, m, table.n_classes)
    return characters._galois_walk(
        table, {g: power_maps[g] for g in characters._unit_generators(m)})


def kernel(table, char_index: int, conj) -> tuple[int, ...]:
    """Elements whose class value matches the degree (the character's kernel).

    Formerly characters.kernel, which only the tests called.
    """
    row = table.products(np.eye(1, table.n_chars, char_index))[0]
    return tuple(np.flatnonzero(np.abs(row[conj.class_of] - row[0]) < VALUE_TOL).tolist())


def rational_intersection(galois, char_indices) -> bool:
    """True when the chosen characters' fields of values intersect in Q: the
    union of their stabilizers generates the whole unit group mod the exponent.

    Formerly characters.rational_intersection, which nothing in the package
    called.
    """
    seeds = np.flatnonzero(galois.fixes[list(char_indices)].any(axis=0))
    return bool(np.array_equal(unit_closure(galois.exponent, seeds), galois.units))


def partition_into_transfer_classes(graph, report: MSTReport):
    """Cosets of the transfer set, or None when there is no transfer at all.

    Formerly engine.partition_into_transfer_classes, which nothing in the
    package called.
    """
    if report.size <= 1:
        return None
    order = graph.group.order
    # Row v is the translate S_e * v, sorted; each is kept at its least element.
    cosets = np.sort(graph.group.mul[np.array(report.S_e)].T, axis=1)
    parts = cosets[cosets[:, 0] == np.arange(order)]
    if parts.shape[1] != report.size or not np.array_equal(np.sort(parts, axis=None),
                                                           np.arange(order)):
        raise InvariantBreachError("transfer classes do not partition the vertices")
    return tuple(map(tuple, parts.tolist()))


def wreath_type(el: WreathElement, base: GroupTable) -> dict[int, tuple[int, ...]]:
    """Partition-valued conjugation invariant of a wreath element: each base
    conjugacy class maps to the cycle lengths, sorted descending, whose
    forward cycle product lands in it. Classes receiving nothing are omitted.

    Formerly groups.wreath_type, which nothing in the package called.
    """
    out: dict[int, list[int]] = {}
    for cyc in permutation_cycles(el.perm, include_fixed=True):
        prod = cycle_product(base, el.coords, tuple(i + 1 for i in cyc))
        out.setdefault(int(base.conj.class_of[prod]), []).append(len(cyc))
    return {cls: tuple(sorted(lengths, reverse=True))
            for cls, lengths in out.items()}


def numpy_draw_table(group: GroupTable, seed: int) -> CharacterTable:
    """characters.character_table_numerical with each attempt's coefficients
    drawn as before the SplitMix64 stream, by
    np.random.default_rng(seed).integers(2^20, 3 * 2^20, size=k) / 2^21.

    The stream is replaced by one that yields each such integer c as the
    draw (c - 2^20) << 43, which the table turns back into c / 2^21, so
    everything after the draw is the package's own code.
    """
    k = len(group.conj.classes)
    rng = np.random.default_rng(seed)

    def numpy_stream(_seed):
        while True:
            for c in rng.integers(1 << 20, 3 << 20, size=k).tolist():
                yield (c - (1 << 20)) << 43

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characters, "_splitmix64", numpy_stream)
        return characters.character_table_numerical(group, seed)


def structure_constants(group: GroupTable) -> np.ndarray:
    """Class-algebra constants a[i, j, l]: K_i * K_j = sum_l a[i,j,l] K_l."""
    conj = group.conj
    k = len(conj.classes)
    order = group.order
    reps = [cls[0] for cls in conj.classes]
    a = np.zeros((k, k, k), dtype=np.float64)
    class_of = conj.class_of
    everyone = np.arange(order)
    mul = group.mul
    for l, z in enumerate(reps):
        partner = mul[group.inv[everyone], z]
        np.add.at(a, (class_of, class_of[partner], np.full(order, l)), 1.0)
    return a


def rounded_row_order(values: np.ndarray, degrees: np.ndarray) -> list[int]:
    """Rows by degree, then by each value rounded to 6 decimals, one Python
    key per row.

    The earlier body of characters._canonical_row_order, kept as the
    reference for its lexsort form.
    """
    keys = [(int(d), tuple((round(float(v.real), 6), round(float(v.imag), 6)) for v in row))
            for d, row in zip(degrees, values)]
    return sorted(range(values.shape[0]), key=lambda i: keys[i])


def set_unit_closure(m: int, seed) -> set[int]:
    """Multiplicative closure of seed (plus 1) inside the units mod m.

    The earlier body of characters.unit_closure, one pair of elements at a
    time, kept as the reference for its breadth-first mask form.
    """
    if m <= 2:
        return {1}
    out = {1}
    out.update(k % m for k in seed)
    grew = True
    while grew:
        grew = False
        for x in list(out):
            for y in list(out):
                z = (x * y) % m
                if z not in out:
                    out.add(z)
                    grew = True
    return out


def stabilizer_tuples(galois) -> tuple[tuple[int, ...], ...]:
    """Each row's stabilizer as the sorted units mod the exponent that fix it."""
    m = galois.exponent
    return tuple(tuple(k for k in units_mod(m) if row[k % m]) for row in galois.fixes)


def row_loop_witnesses(table, galois, z_classes, z_labels):
    """Greedy nonexistence witnesses with one kernel test per row, one class
    at a time.

    The earlier body of engine.nonexistence_witness_classes, kept as the
    reference for its masked form; the values and the stabilizers are read
    once for all classes.
    """
    units = set(units_mod(galois.exponent))
    stabilizers = [set(stab) for stab in stabilizer_tuples(galois)]
    values = table.values
    found = []
    for z_class, z_label in zip(z_classes, z_labels):
        covered, chosen, witness = {1}, [], None
        for i, row in enumerate(values):
            if abs(row[z_class] - row[0]) < VALUE_TOL:
                continue
            if chosen and stabilizers[i] <= covered:
                continue
            chosen.append(i)
            covered = set_unit_closure(galois.exponent, covered | stabilizers[i])
            if covered == units:
                witness = NonexistenceWitness(z=z_label, char_indices=tuple(chosen),
                                              exponent=galois.exponent)
                break
        found.append(witness)
    return found


def loop_extraspecial3(n: int, exponent_type: int = 3) -> tuple[np.ndarray, list[str]]:
    """(mul, labels) of the extraspecial 3-group, by a plain double loop.

    The constructor's earlier body, kept as the reference for its array form.
    """
    if exponent_type == 9:
        mul = np.zeros((27, 27), dtype=np.int64)
        for i1, j1, i2, j2 in itertools.product(range(9), range(3), range(9), range(3)):
            i = (i1 + i2 * pow(4, j1, 9)) % 9
            j = (j1 + j2) % 3
            mul[3 * i1 + j1, 3 * i2 + j2] = 3 * i + j
        labels = [_word([("x", i), ("y", j)]) for i in range(9) for j in range(3)]
        return mul, labels

    order = 3 ** (2 * n + 1)
    m = 3**n

    def decode(idx):
        idx, c = divmod(idx, 3)
        a, b = divmod(idx, m)
        return digits_of(a, 3, n), digits_of(b, 3, n), c

    def encode(a, b, c):
        return (index_of_digits(a, 3) * m + index_of_digits(b, 3)) * 3 + (c % 3)

    elems = [decode(i) for i in range(order)]
    mul = np.zeros((order, order), dtype=np.int64)
    for i, (a1, b1, c1) in enumerate(elems):
        for j, (a2, b2, c2) in enumerate(elems):
            a = tuple((u + v) % 3 for u, v in zip(a1, a2))
            b = tuple((u + v) % 3 for u, v in zip(b1, b2))
            c = (c1 + c2 + sum(u * v for u, v in zip(a1, b2))) % 3
            mul[i, j] = encode(a, b, c)

    labels = []
    for a, b, c in elems:
        t = (c - sum(u * v for u, v in zip(a, b))) % 3
        parts = [(f"x{k + 1}", a[k]) for k in range(n)]
        parts += [(f"y{k + 1}", b[k]) for k in range(n)]
        parts.append(("z", t))
        labels.append(_word(parts))
    return mul, labels


def loop_modular_maximal_cyclic(n: int) -> tuple[np.ndarray, list[str]]:
    """(mul, labels) of M_2(n), by a plain double loop over x^i sigma^j."""
    order = 2**n
    half = 2 ** (n - 1)
    twist = 2 ** (n - 2) + 1
    mul = np.zeros((order, order), dtype=np.int64)
    for i1, j1 in itertools.product(range(half), range(2)):
        for i2, j2 in itertools.product(range(half), range(2)):
            i = (i1 + i2 * (twist if j1 else 1)) % half
            j = (j1 + j2) % 2
            mul[2 * i1 + j1, 2 * i2 + j2] = 2 * i + j
    labels = [_word([("x", i), ("sigma", j)]) for i in range(half) for j in range(2)]
    return mul, labels


def loop_wreath_sym(base: GroupTable, n: int) -> tuple[np.ndarray, list[str]]:
    """mul and labels of base wr S_n, one row at a time.

    The earlier body of groups.build_wreath_sym, kept as the reference for
    its array form.
    """
    wi = WreathIndexing(base, n)
    order = wi.order
    elems = [wi.decode(i) for i in range(order)]
    coords = np.array([el.coords for el in elems], dtype=np.int64)
    perm_ids = np.array([wi.perm_rank[el.perm] for el in elems], dtype=np.int64)
    comp = np.zeros((wi.fact, wi.fact), dtype=np.int64)
    for a, p in enumerate(wi.perms):
        for b, q in enumerate(wi.perms):
            comp[a, b] = wi.perm_rank[tuple(p[q[i]] for i in range(n))]
    weights = base.order ** np.arange(n - 1, -1, -1, dtype=np.int64)
    bmul = base.mul.astype(np.int64)
    mul = np.zeros((order, order), dtype=np.int64)
    for a in range(order):
        pa = elems[a].perm
        pinv = [pa.index(i) for i in range(n)]
        shuffled = coords[:, pinv]
        prod_coords = bmul[np.asarray(elems[a].coords), shuffled]
        mul[a] = (prod_coords @ weights) * wi.fact + comp[perm_ids[a], perm_ids]
    labels = []
    for el in elems:
        inner = ",".join(base.labels[c] for c in el.coords)
        labels.append(f"({inner};{_perm_label(el.perm)})")
    return mul, labels


def digit_sum_abelian_power(r: int, n: int) -> tuple[np.ndarray, list[str]]:
    """(mul, labels) of Z_r^n from all pairwise digit-vector sums at once.

    The constructor's earlier body, kept as the reference for its digit-by-digit
    growth; it holds a |G| x |G| x n array.
    """
    order = r**n
    vecs = np.array([digits_of(i, r, n) for i in range(order)], dtype=np.int64)
    sums = (vecs[:, None, :] + vecs[None, :, :]) % r
    weights = r ** np.arange(n - 1, -1, -1, dtype=np.int64)
    labels = ["(" + ",".join(map(str, v)) + ")" for v in vecs]
    return sums @ weights, labels


# ---------------------------------------------------------------------------
# table references: the family constructors' earlier table writers, each
# writing uint16 a slice at a time, kept as the references for the laws

def window_cyclic_mul(r: int) -> np.ndarray:
    """(i + j) mod r as a read-only uint16 view: row i is the window
    i..i+r-1 of 0..r-1 written twice, so no sum is formed and none can wrap."""
    twice = np.tile(np.arange(r, dtype=np.uint16), 2)
    return np.lib.stride_tricks.sliding_window_view(twice, r)[:r]


def grown_abelian_mul(r: int, n: int) -> np.ndarray:
    """Componentwise addition on base-r digit vectors of length n, grown one
    leading digit at a time: with T the table of the last m = r^k elements,
    element f*m + a times g*m + b is ((f + g) mod r)*m + T[a, b], written
    for one left digit f at a time."""
    step = window_cyclic_mul(r)
    mul = step
    for _ in range(n - 1):
        m = mul.shape[0]
        grown = np.empty((r, m, r, m), dtype=np.uint16)  # [f, a, g, b]
        for f in range(r):
            np.add(mul[:, None, :], step[f, :, None] * m, out=grown[f])
        mul = grown.reshape(r * m, r * m)
    return mul


def metacyclic_mul(half: int, k: int, twist: int) -> np.ndarray:
    """<x, y | x^half = y^k = e, y x y^-1 = x^twist> with x^i y^j at index
    k*i + j: (x^i y^j)(x^i' y^j') = x^(i + i' twist^j) y^(j + j'), written
    one left exponent j at a time."""
    i = np.arange(half)
    y_part = window_cyclic_mul(k)
    mul = np.empty((half, k, half, k), dtype=np.uint16)  # [i, j, i', j']
    x_part = np.empty((half, half), dtype=np.uint16)
    for j in range(k):
        np.add.outer(i.astype(np.uint16), (i * pow(twist, j, half) % half).astype(np.uint16),
                     out=x_part)
        x_part %= half
        x_part *= k
        np.add(x_part[:, :, None], y_part[j], out=mul[:, j])
    return mul.reshape(half * k, half * k)


def sliced_heisenberg_mul(n: int) -> tuple[np.ndarray, list[str]]:
    """(mul, labels) of the Heisenberg model of es3:n: (a, b, c) with
    (a1,b1,c1)(a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1.b2) at index
    (A*3^n + B)*3 + c, written one left A at a time as the sum of an A'
    part, a (B, B') part and a (c, B', c') part; labels in the normal form
    x^a y^b z^t, t = c - a.b."""
    m, order = 3**n, 3 ** (2 * n + 1)
    digits = np.array([digits_of(k, 3, n) for k in range(m)], dtype=np.int64)
    add = grown_abelian_mul(3, n)
    major, minor = add * (3 * m), add * 3
    # (c + c' + a.b') mod 3, indexed [A, c, 1, B', c'].
    c_part = (window_cyclic_mul(3)[None, :, None, None, :]
              + (digits @ digits.T % 3).astype(np.uint16)[:, None, None, :, None]) % 3
    mul = np.empty((m, m, 3, m, m, 3), dtype=np.uint16)  # [A, B, c, A', B', c']
    for a_left in range(m):
        np.add(major[a_left, None, None, :, None, None], minor[:, None, None, :, None],
               out=mul[a_left])
        mul[a_left] += c_part[a_left]
    ab, c = np.divmod(np.arange(order), 3)
    a, b = digits[ab // m], digits[ab % m]
    t = (c - np.sum(a * b, axis=1)) % 3
    labels = [_word([(f"x{k + 1}", ai[k]) for k in range(n)]
                    + [(f"y{k + 1}", bi[k]) for k in range(n)] + [("z", ti)])
              for ai, bi, ti in zip(a.tolist(), b.tolist(), t.tolist())]
    return mul.reshape(order, order), labels


def blocked_wreath_mul(base: GroupTable, n: int) -> tuple[np.ndarray, list[str]]:
    """(mul, labels) of base wr S_n: the base part of (x; p)(y; q) depends on
    x, y and p only, so mul is filled one left permutation and one block of
    left ranks at a time, as a table of base coordinates repeated over the
    right permutations q."""
    wi = WreathIndexing(base, n)
    weights = base.order ** np.arange(n - 1, -1, -1, dtype=np.int64)
    ranks = base.order ** n
    digits = np.arange(ranks, dtype=np.int64)[:, None] // weights % base.order
    perms = np.array(wi.perms, dtype=np.int64).reshape(wi.fact, n)
    keys = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    comp = np.searchsorted(perms @ keys, perms[:, perms] @ keys).astype(np.uint16)  # p o q
    mul = np.empty((ranks, wi.fact, ranks, wi.fact), dtype=np.uint16)
    rows = max(1, 2**16 // ranks)
    base_mul = base.mul
    for a, pinv in enumerate(np.argsort(perms, axis=1)):
        for lo in range(0, ranks, rows):  # a block of left coordinate ranks
            left = digits[lo:lo + rows]
            coords = sum(base_mul[left[:, i, None], digits[None, :, pinv[i]]] * weight
                         for i, weight in enumerate(weights.tolist()))
            coords *= wi.fact
            np.add(coords[:, :, None], comp[a], out=mul[lo:lo + rows, a])
    perm_labels = [_perm_label(perm) for perm in wi.perms]
    labels = [f"({','.join(base.labels[c] for c in coords)};{perm_label})"
              for coords in itertools.product(range(base.order), repeat=n)
              for perm_label in perm_labels]
    return mul.reshape(wi.order, wi.order), labels


def reference_group(spec: GroupSpec) -> GroupTable:
    """The group a family spec names, from the table writers above, through
    the table backend (inverse search and full validation)."""
    fam = spec.family
    if fam == "cyclic":
        mul, labels = window_cyclic_mul(spec.r), [str(i) for i in range(spec.r)]
    elif fam == "abelian":
        mul = grown_abelian_mul(spec.r, spec.n)
        labels = ["(" + ",".join(map(str, v)) + ")"
                  for v in itertools.product(range(spec.r), repeat=spec.n)]
    elif fam == "extraspecial3" and spec.exponent == 9:
        mul = metacyclic_mul(9, 3, 4)
        labels = [_word([("x", x), ("y", y)]) for x in range(9) for y in range(3)]
    elif fam == "extraspecial3":
        mul, labels = sliced_heisenberg_mul(spec.n)
    elif fam == "m2":
        mul = metacyclic_mul(2 ** (spec.n - 1), 2, 2 ** (spec.n - 2) + 1)
        labels = [_word([("x", x), ("sigma", s)]) for x in range(2 ** (spec.n - 1))
                  for s in range(2)]
    else:
        mul, labels = blocked_wreath_mul(reference_group(spec.base), spec.n)
    return _finish(mul, labels, spec)


def orbit_conjugacy(group: GroupTable) -> ConjugacyData:
    """Conjugacy data by enumerating one orbit per unclassified element.

    An early body of groups.conjugacy, kept as a reference for its orbit
    labelling: a Python loop over orbits, one element order at a time.
    """
    n = group.order
    mul, inv = group.mul, group.inv
    class_of = np.full(n, -1, dtype=np.int64)
    classes: list[tuple[int, ...]] = []
    everyone = np.arange(n)

    for g in range(n):
        if class_of[g] >= 0:
            continue
        orbit = np.unique(mul[mul[everyone, g], inv[everyone]])
        idx = len(classes)
        classes.append(tuple(int(x) for x in orbit))
        class_of[orbit] = idx

    order_key = sorted(range(len(classes)),
                       key=lambda j: (classes[j][0] != group.identity, classes[j][0]))
    classes = [classes[j] for j in order_key]
    remap = {old: new for new, old in enumerate(order_key)}
    class_of = np.array([remap[int(c)] for c in class_of], dtype=np.int64)

    class_inv = tuple(int(class_of[group.inv[cls[0]]]) for cls in classes)
    center = tuple(int(g) for g in range(n)
                   if np.array_equal(mul[g], mul[:, g]))
    orders = np.array([element_order(group, g) for g in range(n)])
    return ConjugacyData(group=group, classes=tuple(classes), class_of=class_of,
                         class_inv=class_inv, center=center, orders=orders)


def element_order(group: GroupTable, g: int) -> int:
    """The order of g, by stepping through its powers one product at a time.

    The earlier groups.element_order, kept as the reference for
    ConjugacyData.orders.
    """
    cur = g
    order = 1
    mul = group.mul
    while cur != group.identity:
        cur = mul.item(cur, g)
        order += 1
    return order


def blocked_row_smallest_conjugates(group: GroupTable, block_entries=2**20) -> np.ndarray:
    """Each element's smallest conjugate, from rows of the conjugation table.

    The earlier body of groups.conjugacy, kept as the reference for its orbit
    labelling: row g, h^-1 g h over all h, lists g's class, so its minimum
    names every element in it; rows are formed for blocks of unnamed elements.
    """
    n = group.order
    mul, inv = group.mul, group.inv
    rep = np.full(n, -1, dtype=np.int64)
    pending = np.arange(n)
    cap = max(1, block_entries // n)
    block = min(64, cap)
    while pending.size:
        g = pending[:block]
        rows = mul[inv[None, :], mul[g]]
        rep[rows] = rows.min(axis=1)[:, None]
        pending = pending[block:]
        pending = pending[rep[pending] < 0]
        block = min(2 * block, cap)
    return rep


def sort_loop_spot_validate(g) -> None:
    """The earlier body of groups._validate_table, kept as the reference for
    Light's test: both Latin-square sorts, the group axioms, and associativity
    over every (a, b, c) up to order 256, above it on 10 * order seeded
    random triples. g is any object with the GroupTable fields."""
    n = g.order
    mul = g.mul
    if mul.shape != (n, n):
        raise GroupValidationError(f"table shape {mul.shape} does not match order {n}")
    if not (0 <= g.identity < n):
        raise GroupValidationError(f"identity index {g.identity} out of range")
    if len(g.labels) != n:
        raise GroupValidationError("label count does not match order")
    if mul.min() < 0 or mul.max() >= n:
        raise GroupValidationError("table entries out of range")
    rng_row = np.arange(n)
    if not np.array_equal(np.sort(mul, axis=1), np.broadcast_to(rng_row, (n, n))):
        raise GroupValidationError("rows are not permutations (Latin square fails)")
    if not np.array_equal(np.sort(mul, axis=0), np.broadcast_to(rng_row[:, None], (n, n))):
        raise GroupValidationError("columns are not permutations (Latin square fails)")
    e = g.identity
    if not np.array_equal(mul[e], rng_row) or not np.array_equal(mul[:, e], rng_row):
        raise GroupValidationError("identity axiom fails")
    if not np.all(mul[rng_row, g.inv] == e) or not np.all(mul[g.inv, rng_row] == e):
        raise GroupValidationError("inverse axiom fails")
    if n <= 256:
        for a in range(n):
            if not np.array_equal(mul[mul[a], :], mul[a][mul]):
                raise GroupValidationError(f"associativity fails at a={a}")
    else:
        triples = np.random.default_rng(1729).integers(0, n, size=(10 * n, 3))
        a, b, c = triples[:, 0], triples[:, 1], triples[:, 2]
        if not np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]]):
            raise GroupValidationError("associativity fails on spot check")


def group_to_json(group: GroupTable) -> dict:
    """The earlier body of the group export, kept as the reference for
    groups.group_to_json_str: the document as one dict, |G|^2 Python ints in
    mul."""
    return {
        "order": group.order,
        "identity": group.identity,
        "mul": group.mul.tolist(),
        "labels": list(group.labels),
    }


def light_validate(g) -> tuple[int, ...]:
    """The earlier body of groups._validate_table, kept as the reference for
    its generators and verdict: the group axioms, then Light's test, one
    |G|^2 pass per generator, each generator the smallest element outside
    the closure of those before. g is any object with the GroupTable
    fields; returns the generators."""
    n = g.order
    mul = np.asarray(g.mul)
    rng_row = np.arange(n)
    e = g.identity
    if not np.array_equal(mul[e], rng_row) or not np.array_equal(mul[:, e], rng_row):
        raise GroupValidationError("identity axiom fails")
    if not np.all(mul[rng_row, g.inv] == e) or not np.all(mul[g.inv, rng_row] == e):
        raise GroupValidationError("inverse axiom fails")
    rows = max(1, 2**16 // n)
    gens: list[int] = []
    while len(closure := subgroup_closure(g, gens)) < n:
        s = next(i for i, h in enumerate(closure + (n,)) if h != i)  # closure is sorted
        for lo in range(0, n, rows):
            # Rows lo.. of (x*s)*y and of x*(s*y), over every y.
            if not np.array_equal(mul[mul[lo:lo + rows, s]],
                                  np.take(mul[lo:lo + rows], mul[s], axis=1)):
                raise GroupValidationError(f"associativity fails at s={s}")
        gens.append(s)
    return tuple(gens)


def is_associative(mul: np.ndarray) -> bool:
    """(x*y)*z == x*(y*z) for every triple, all |G|^3 of them at once."""
    mul = np.asarray(mul)
    return bool(np.array_equal(mul[mul], mul[:, mul]))


def octonion_unit_loop() -> np.ndarray:
    """The table of the 16 octonion units +-e_0..+-e_7, +-e_i at index
    i + 8 (sign -): e_a e_b = e_c = -e_b e_a along each line (a, b, c) of
    the Fano plane, read cyclically, and e_a^2 = -1. A Moufang loop in which
    any two elements generate a group, so every check that looks at too few
    of its triples sees associativity."""
    lines = [(1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3)]
    unit = {(0, a): (0, a) for a in range(8)} | {(a, 0): (0, a) for a in range(8)}
    unit |= {(a, a): (1, 0) for a in range(1, 8)}
    for line in lines:
        for a, b, c in (line, line[1:] + line[:1], line[2:] + line[:2]):
            unit[a, b], unit[b, a] = (0, c), (1, c)
    mul = np.empty((16, 16), dtype=np.int64)
    for x, y in itertools.product(range(16), repeat=2):
        sign, c = unit[x % 8, y % 8]
        mul[x, y] = c + 8 * ((sign + x // 8 + y // 8) % 2)
    return mul


def intercalate_z2_9(rows=(3, 5), cols=(17, 23)) -> np.ndarray:
    """The table of Z_2^9 (XOR) with the intercalate at two rows and columns
    swapped, a ^ b == c ^ d: still a Latin square with identity 0 and
    x*x = 0, but 8,144 of its 512^3 triples are not associative."""
    (a, b), (c, d) = rows, cols
    mul = np.bitwise_xor.outer(np.arange(512), np.arange(512))
    mul[[a, a, b, b], [c, d, c, d]] = mul[[a, a, b, b], [d, c, d, c]]
    return mul


def deque_subgroup_closure(group: GroupTable, generators) -> tuple[int, ...]:
    """The earlier body of groups.subgroup_closure, kept as the reference for
    its array form: a breadth-first search one element at a time."""
    gens = sorted({int(g) for g in generators})
    members = {group.identity}
    frontier = collections.deque([group.identity])
    mul = group.mul
    while frontier:
        g = frontier.popleft()
        for s in gens:
            h = int(mul[g, s])
            if h not in members:
                members.add(h)
                frontier.append(h)
    return tuple(sorted(members))


def dense_commutes(permutation, matrix: np.ndarray) -> bool:
    """Whether PA = AP for the permutation matrix P[permutation[j], j] = 1,
    by the two dense products, under the oracle's bound.

    The earlier commutation test of oracle.permutation_check, kept as the
    reference for its index form.
    """
    n = len(permutation)
    p_mat = np.zeros((n, n))
    p_mat[list(permutation), np.arange(n)] = 1.0
    return bool(np.max(np.abs(p_mat @ matrix - matrix @ p_mat)) < PERMUTATION_TOL * max(1.0, n))


def pairing_matrix(r: int, n: int) -> np.ndarray:
    """D[v, w] = v.w mod r over base-r digit vectors, most significant first.

    The earlier characters._pairing_matrix, kept as the dense reference for
    the digit-vector closed form. Grown one leading digit at a time:
    D[f*m + a, g*m + b] = (f*g + D_m[a, b]) mod r for the r^k = m table D_m.
    """
    dtype = np.int8 if r <= 64 else np.int32  # f*g + D_m < 2r must fit
    digit = np.arange(r, dtype=np.int64)
    step = (np.multiply.outer(digit, digit) % r).astype(dtype)
    dots = step
    for _ in range(n - 1):
        m = dots.shape[0]
        grown = step[:, None, :, None] + dots[None, :, None, :]
        grown %= r
        dots = grown.reshape(m * r, m * r)
    return dots


def dense_abelian_table(r: int, n: int, columns=None) -> CharacterTable:
    """The table of Z_r^n with dense values zeta[pairing_matrix(r, n)], as the
    closed form held them, zeta the package's shared root table, optionally
    with its columns replaced by the given ones (a doctored table)."""
    values = characters.roots_of_unity(r)[pairing_matrix(r, n)]
    if columns is not None:
        values = values[:, columns]
    order = r**n
    return CharacterTable(dense=values, degrees=np.ones(order, dtype=np.int64),
                          class_sizes=np.ones(order, dtype=np.int64), exponent=r,
                          provenance="numerical")


def brute_derived_series(group: GroupTable) -> tuple[bool, tuple[int, ...]]:
    """The earlier groups.derived_series_solvable, kept as the reference for
    the normal-closure form: each term H' is closed from all |H|^2
    commutators of H."""
    if group.order == 1:
        return True, (1,)
    mul, inv = group.mul, group.inv
    current = tuple(range(group.order))
    series = [group.order]
    while True:
        h = np.array(current, dtype=np.int64)
        comms = np.zeros(group.order, dtype=bool)
        for a in current:
            comms[mul[mul[mul[a, h], inv[a]], inv[h]]] = True  # a h a^-1 h^-1
        derived = subgroup_closure(group, np.flatnonzero(comms))
        series.append(len(derived))
        if len(derived) == 1:
            return True, tuple(series)
        if len(derived) == len(current):
            return False, tuple(series)
        current = derived


@pytest.fixture(scope="session")
def s3_table() -> GroupTable:
    return permutation_group_table(3)


@pytest.fixture(scope="session")
def s5_table() -> GroupTable:
    return permutation_group_table(5)


def pytest_terminal_summary(terminalreporter):
    """Print one verdict line per acceptance criterion, outside capture."""
    import sys

    results = getattr(sys.modules.get("test_acceptance"), "CRITERIA_RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, status, elapsed in sorted(results):
        terminalreporter.write_line(
            f"criterion {number:2d} {status:4s} {elapsed:7.2f}s  {title}")
