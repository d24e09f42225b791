"""Matrix-exponential oracle for the continuous walk.

Answers fidelity, permutation, and scan queries directly from the matrix,
sharing no character theory with the criterion path. Every answer is a
Chebyshev expansion of exp(tA) in A (Tal-Ezer & Kosloff, J. Chem. Phys. 81
(1984) 3967), one product with A per term; a permutation U(t) follows from
one column, as A commutes with the right translations. Only the CSV grid
diagonalizes iA, for its t = 0 row. A Hermitian mode (exp(itA) for
symmetric A) covers undirected graphs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (
    PERMUTATION_TOL,
    RECONSTRUCTION_TOL,
    SCAN_REFINE_TOL,
    SCAN_STEPS,
    SCAN_THRESHOLD,
    SKEW_TOL,
    UNITARITY_TOL,
)
from .errors import InvalidParameterError, NumericalFailureError, SizeLimitError
from .groups import GroupTable, permutation_cycles

# Complex entries in one block of the CSV fidelity grid (8 MB): the block's
# time count is this over the group order. At order 729, 2**20 raised the
# scan's peak RSS by 8 MB; this bound keeps it under the eigendecomposition's
# peak.
_GRID_BLOCK_ENTRIES = 2**19
# Bytes of Chebyshev basis evolve stores at once (terms x order x columns):
# a whole eye(n) basis would be K(omega) n^2 8 bytes, hundreds of GB at
# n = 4096 and omega = 2000.
_EVOLVE_BASIS_BYTES = 2**24
# A Chebyshev expansion at omega = t*rho keeps the terms k < K(omega), the
# first k > omega with (omega/2)**k / k! < _TAIL. |J_k(omega)| is at most
# that bound, which falls by more than half per term past omega, and every
# P_k v has norm at most 1, so the dropped tail has norm below 4 * _TAIL.
_TAIL = 1e-16
# Grid steps evaluated from one Chebyshev basis in a scan.
_WINDOW_STEPS = 200
# Largest omega = t*rho one expansion covers. Miller's recurrence from
# K(omega) + 10 peaks at 4e189 here and overflows past omega = 3300; the
# basis holds about 1.4 * omega vectors of the group order (16 MB at 729).
_MAX_OMEGA = 2000.0


@dataclass(frozen=True, eq=False)
class WalkOperator:
    """A walk generator A with its Chebyshev scale, ready to exponentiate.

    evolve and its kin return exp(tA) for a skew-symmetric A, exp(itA) in
    hermitian mode. rho is the largest absolute row sum of A; A is normal,
    so rho bounds its spectral norm and A/rho has its spectrum in [-1, 1]
    (times i for skew A).
    """

    matrix: np.ndarray
    rho: float
    hermitian: bool = False

    @property
    def order(self) -> int:
        return self.matrix.shape[0]


def build_operator(a: np.ndarray) -> WalkOperator:
    """The walk exp(tA) of a skew-symmetric real A."""
    return _operator(a, hermitian=False)


def build_hermitian_operator(a: np.ndarray) -> WalkOperator:
    """The undirected walk exp(itA) of a real symmetric A."""
    return _operator(a, hermitian=True)


def _operator(a: np.ndarray, hermitian: bool) -> WalkOperator:
    """Check A against its mode and take its largest absolute row sum."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidParameterError("adjacency matrix must be square")
    kind = "symmetric" if hermitian else "skew-symmetric"
    if np.max(np.abs(a - a.T if hermitian else a + a.T)) > SKEW_TOL:
        raise InvalidParameterError(f"matrix is not {kind}")
    return WalkOperator(matrix=a, rho=float(np.max(np.abs(a).sum(axis=1))),
                        hermitian=hermitian)


# ---------------------------------------------------------------------------
# Chebyshev evolution of single states

def _terms(omega: float) -> int:
    """K(|omega|): the first k > |omega| with (|omega|/2)**k / k! < _TAIL,
    found in logarithms, as the bound itself overflows past omega = 1418."""
    omega = abs(omega)
    if not math.isfinite(omega):
        raise InvalidParameterError(f"walk time gives omega = t*rho = {omega}, not finite")
    if omega > _MAX_OMEGA:
        raise SizeLimitError(f"omega = t*rho = {omega:.6g} would need more than "
                             f"{_MAX_OMEGA:.0f} Chebyshev terms per expansion")
    if omega < 2 * _TAIL:
        return 1
    k = math.floor(omega) + 1
    log_bound = k * math.log(omega / 2) - math.lgamma(k + 1)
    while log_bound >= math.log(_TAIL):
        k += 1
        log_bound += math.log(omega / (2 * k))
    return k


def _bessel(omega: float, count: int) -> list[float]:
    """J_0(omega), ..., J_{count-1}(omega) by Miller's backward recurrence.

    With w = |omega|, J_{k-1} = (2k/w) J_k - J_{k+1} runs down from 1 at
    K(w) + 10, and the values are normalized by J_0 + 2(J_2 + J_4 + ...) = 1;
    J_k(-w) = (-1)^k J_k(w). For every w up to _MAX_OMEGA the running values
    stay below 1e201 (the worst case is w just above 2e-16), so none is
    rescaled. K(w) = 1 means w < 2e-16, where J_0 = 1 to within w**2/4 and
    J_1 < _TAIL. A Python loop: numpy pays more per call than one step costs.
    """
    w = abs(omega)
    terms = _terms(w)
    top = terms + 10
    vals = [0.0] * max(count, top + 2)
    if terms == 1:
        vals[0] = 1.0
        return vals[:count]
    vals[top] = 1.0
    two_over_w = 2.0 / w
    for k in range(top, 0, -1):
        vals[k - 1] = k * two_over_w * vals[k] - vals[k + 1]
    scale = 1.0 / (vals[0] + 2.0 * sum(vals[2::2]))
    odd = -scale if omega < 0 else scale
    return [v * (odd if k & 1 else scale) for k, v in enumerate(vals[:count])]


_I_POWERS = np.array([1, 1j, -1, -1j])


def _coefficients(op: WalkOperator, omegas: np.ndarray, count: int) -> np.ndarray:
    """One row c per omega with exp(omega A/rho) v = sum_k c_k P_k v, and in
    hermitian mode exp(i omega A/rho) v = sum_k c_k T_k v: c_0 = J_0(omega)
    and c_k = 2 J_k(omega), times i^k in hermitian mode (Jacobi-Anger)."""
    table = np.array([_bessel(w, count) for w in omegas.tolist()])
    table[:, 1:] *= 2.0
    if op.hermitian:
        return table * _I_POWERS[np.arange(count) % 4]
    return table


def _basis(op: WalkOperator, v: np.ndarray, count: int) -> np.ndarray:
    """P_0 v, ..., P_{count-1} v stacked on a new first axis, one product
    with A each; v is a vector or holds one vector per column.

    P_0 = I, P_1 = A/rho and P_{k+1} = 2(A/rho) P_k + P_{k-1}, so on the
    eigenvalue iy of A/rho, P_k is i^k T_k(y) (Chebyshev's T_k). In hermitian
    mode the terms are T_k(A/rho) v, with T_{k+1} = 2(A/rho) T_k - T_{k-1}.
    """
    a = op.matrix
    if np.iscomplexobj(v):  # in real arithmetic: numpy would copy A to complex
        def times(x):
            return a @ x.real + 1j * (a @ x.imag)
    else:
        times = a.__matmul__
    combine = np.subtract if op.hermitian else np.add
    basis = np.empty((count, *v.shape), dtype=v.dtype)
    basis[0] = v
    if count > 1:
        np.multiply(times(v), 1.0 / op.rho, out=basis[1])
    for k in range(1, count - 1):
        np.multiply(times(basis[k]), 2.0 / op.rho, out=basis[k + 1])
        combine(basis[k + 1], basis[k - 1], out=basis[k + 1])
    return basis


def _checked(op: WalkOperator, states: np.ndarray) -> np.ndarray:
    """The states (rows), after checking that each kept the unit norm of the
    state it evolved from; a rho below the spectral norm or a wrong
    coefficient shows here."""
    defect = float(np.max(np.abs(np.linalg.norm(states, axis=-1) - 1.0)))
    if defect > UNITARITY_TOL * max(1.0, math.sqrt(op.order)):
        raise NumericalFailureError(f"Chebyshev evolution lost the norm (defect {defect:.2e})")
    return states


def evolve_column(op: WalkOperator, t: float, a: int) -> np.ndarray:
    """Column a of the transition matrix (the state started at vertex a),
    by a Chebyshev expansion; real for a skew-symmetric A."""
    v = np.zeros(op.order)
    v[a] = 1.0
    count = _terms(t * op.rho)
    coefficients = _coefficients(op, np.array([t * op.rho]), count)[0]
    return _checked(op, coefficients @ _basis(op, v, count))


def evolve(op: WalkOperator, t: float) -> np.ndarray:
    """Full transition matrix at time t, by the Chebyshev expansion of a
    block of columns at a time, whose basis holds _EVOLVE_BASIS_BYTES or one
    column's. U must be unitary, and real (as returned) for a skew A."""
    n = op.order
    count = _terms(t * op.rho)
    coefficients = _coefficients(op, np.array([t * op.rho]), count)[0]
    width = max(1, _EVOLVE_BASIS_BYTES // (8 * count * n))
    u = np.empty((n, n), dtype=coefficients.dtype)
    for lo in range(0, n, width):
        block = np.eye(n, min(width, n - lo), -lo)  # columns lo, lo + 1, ... of I
        u[:, lo:lo + width] = np.tensordot(coefficients, _basis(op, block, count), axes=1)
    bound = UNITARITY_TOL * max(1.0, math.sqrt(n))
    defect = np.max(np.abs(u @ u.conj().T - np.eye(n)))
    if defect > bound:
        raise NumericalFailureError(f"evolution is not unitary (defect {defect:.2e})")
    if not op.hermitian and np.max(np.abs(u.imag)) > bound:
        raise NumericalFailureError("exp(tA) has an imaginary part")
    return u


def fidelity(op: WalkOperator, t: float, a: int, b: int) -> tuple[float, complex]:
    """(|U(t)[b,a]|, U(t)[b,a]): transfer magnitude and its phase-bearing entry."""
    col = evolve_column(op, t, a)
    entry = complex(col[b])
    return abs(entry), entry


@dataclass(frozen=True)
class PermutationReport:
    """Outcome of testing whether U(t) is a signed-free permutation matrix."""

    ok: bool
    permutation: tuple[int, ...] | None
    max_deviation: float
    fixed_point_free: bool
    commutes_with_generator: bool
    order: int | None


def permutation_check(op: WalkOperator, t: float, group: GroupTable) -> PermutationReport:
    """Test U(t) against 'permutation matrix with +1 entries' from one column.

    A must commute, exactly, with the right translation g -> g s by each of
    Light's generators s of the group (Godsil & Royle, Algebraic Graph
    Theory, ch. 3), so with every right translation, and so must U(t). Then
    if U(t) e_e = e_z to within PERMUTATION_TOL, U(t) e_h = e_{zh} for every
    h: U(t) is left multiplication by z, and its columns permute one set of
    entries.
    """
    a = op.matrix
    translates = all(np.array_equal(a[np.ix_(r, r)], a)
                     for r in (group.mul[:, s] for s in group.generators))
    col = evolve_column(op, t, group.identity)
    mags = np.abs(col)
    z = int(np.argmax(mags))
    chosen = abs(col[z] - 1.0)  # a -1 entry is not a permutation
    mags[z] = 0.0
    deviation = max(float(chosen), float(np.max(mags)))
    if not translates or deviation > PERMUTATION_TOL:
        return PermutationReport(ok=False, permutation=None, max_deviation=deviation,
                                 fixed_point_free=False, commutes_with_generator=False,
                                 order=None)
    perm = group.mul[z].astype(np.intp)
    perm_t = tuple(perm.tolist())
    # With P[perm[j], j] = 1, (P^T A P)[i, j] = A[perm[i], perm[j]], and
    # P^T A P = A exactly when PA = AP.
    commutes = bool(np.max(np.abs(a[np.ix_(perm, perm)] - a))
                    < PERMUTATION_TOL * max(1.0, op.order))
    order = math.lcm(*map(len, permutation_cycles(perm_t)))
    return PermutationReport(ok=True, permutation=perm_t, max_deviation=deviation,
                             fixed_point_free=z != group.identity,
                             commutes_with_generator=commutes, order=order)


@dataclass(frozen=True)
class ScanHit:
    time: float
    target: int
    fidelity: float


def _best_offdiagonal(states: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """(targets, fidelities) of the largest entry off vertex a of each state
    (the last axis)."""
    mags = np.abs(states)
    mags[..., a] = -1.0
    return np.argmax(mags, axis=-1), np.max(mags, axis=-1)


def scan_pst(op: WalkOperator, a: int, t_max: float | None = None) -> list[ScanHit]:
    """Grid scan of max off-diagonal fidelity from vertex a, maxima refined.

    The SCAN_STEPS-step grid is evaluated in windows of _WINDOW_STEPS steps:
    one Chebyshev basis at each window's first state, and one coefficient
    table, the same for every window, for the offsets within it. Local
    maxima above SCAN_THRESHOLD are polished by golden-section search on the
    continuous fidelity curve, from a basis at the bracket's left grid state;
    nearby duplicates collapse to the best one. Every state is norm-checked.
    """
    if t_max is None:
        t_max = 4 * math.pi
    d_omega = op.rho * t_max / SCAN_STEPS  # omega per grid step
    count = _terms(d_omega * _WINDOW_STEPS)
    table = _coefficients(op, d_omega * np.arange(_WINDOW_STEPS + 1), count)
    grid = np.linspace(0.0, t_max, SCAN_STEPS + 1)

    values = np.empty(SCAN_STEPS + 1)
    left = {}  # grid index -> state there, for each rising grid point to its right
    state = np.zeros(op.order)
    state[a] = 1.0
    for start in range(0, SCAN_STEPS, _WINDOW_STEPS):
        steps = min(_WINDOW_STEPS, SCAN_STEPS - start)
        states = _checked(op, table[:steps + 1] @ _basis(op, state, count))
        _, window = _best_offdiagonal(states, a)
        values[start:start + steps + 1] = window
        rising = (window[1:] >= SCAN_THRESHOLD) & (window[1:] >= window[:-1])
        left.update((start + j, states[j].copy()) for j in np.flatnonzero(rising).tolist())
        state = states[steps]

    inner = values[1:-1]
    peaks = 1 + np.flatnonzero((inner >= SCAN_THRESHOLD) & (inner >= values[:-2])
                               & (inner >= values[2:]))
    if not peaks.size:
        return []
    lo, hi = grid[peaks - 1], grid[peaks + 1]
    best = _brackets(op, np.stack([left[i] for i in (peaks - 1).tolist()], axis=1),
                     lo, float(np.max(hi - lo)), a)
    times = _golden_max(lambda t: best(t)[1], lo, hi)
    targets, fids = best(times)
    hits = sorted((ScanHit(time=t, target=b, fidelity=f)
                   for t, b, f in zip(times.tolist(), targets.tolist(), fids.tolist())),
                  key=lambda h: h.time)

    merged: list[ScanHit] = []
    for h in hits:
        if merged and abs(merged[-1].time - h.time) < 1e-6:
            if h.fidelity > merged[-1].fidelity:
                merged[-1] = h
        else:
            merged.append(h)
    return merged


def _brackets(op: WalkOperator, states: np.ndarray, lo: np.ndarray, width: float, a: int):
    """times -> (targets, fidelities) off vertex a, with times[j] in the
    bracket [lo[j], lo[j] + width], from the state at lo[j] (column j of
    states) and one Chebyshev basis there."""
    count = _terms(width * op.rho)
    basis = _basis(op, states, count)

    def best(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        coefficients = _coefficients(op, (times - lo) * op.rho, count)
        return _best_offdiagonal(_checked(op, np.einsum("jk,knj->jn", coefficients, basis)), a)
    return best


def _golden_max(fn, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Golden-section search for the maximum of fn on every bracket
    [lo[j], hi[j]] at once: fn maps one time per bracket to its values. A
    bracket stops narrowing once it is SCAN_REFINE_TOL wide."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while (active := hi - lo > SCAN_REFINE_TOL).any():
        # Where f1 < f2 the maximum lies right of x1 ("up"), else left of x2.
        up = active & (f1 < f2)
        down = active & ~(f1 < f2)
        lo, hi = np.where(up, x1, lo), np.where(down, x2, hi)
        x1, x2 = np.where(up, x2, x1), np.where(down, x1, x2)
        f1, f2 = np.where(up, f2, f1), np.where(down, f1, f2)
        x2 = np.where(up, lo + phi * (hi - lo), x2)
        x1 = np.where(down, hi - phi * (hi - lo), x1)
        fresh = fn(np.where(up, x2, x1))
        f1, f2 = np.where(down, fresh, f1), np.where(up, fresh, f2)
    return 0.5 * (lo + hi)


def _eigenpairs(op: WalkOperator) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the Hermitian A (hermitian) or iA, checked by reconstruction."""
    herm, name = (op.matrix, "A") if op.hermitian else (1j * op.matrix, "iA")
    eigenvalues, vectors = np.linalg.eigh(herm)
    recon = (vectors * eigenvalues) @ vectors.conj().T
    if np.max(np.abs(recon - herm)) > RECONSTRUCTION_TOL:
        raise NumericalFailureError(f"eigendecomposition failed to reconstruct {name}")
    return eigenvalues, vectors


def fidelity_series_csv(op: WalkOperator, a: int, t_max: float,
                        steps: int = SCAN_STEPS) -> str:
    """The fidelity grid as CSV, from the eigendecomposition: the reference
    row at t = 0 names the eigensolver's round-off winner as its target. Each
    block of times is one product (phases * conj(V[a])) @ V.T."""
    eigenvalues, vectors = _eigenpairs(op)
    sign = 1j if op.hermitian else -1j
    weights = np.conj(vectors[a, :])
    grid = np.linspace(0.0, t_max, steps + 1)
    step = max(1, _GRID_BLOCK_ENTRIES // op.order)
    lines = ["t,fidelity,target"]
    for lo in range(0, len(grid), step):
        times = grid[lo:lo + step]
        # Row j is U(t_j)[:, a], the state at the block's j-th time.
        states = (np.exp(sign * eigenvalues * times[:, None]) * weights) @ vectors.T
        targets, values = _best_offdiagonal(states, a)
        lines += [f"{t:.12g},{f:.12g},{b}"
                  for t, f, b in zip(times.tolist(), values.tolist(), targets.tolist())]
    return "\n".join(lines) + "\n"
