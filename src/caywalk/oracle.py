"""Matrix-exponential oracle for the continuous walk.

Evolves exp(tA) through one Hermitian eigendecomposition of iA and answers
fidelity, permutation, and scan queries directly from the matrix, sharing no
character theory with the criterion path. A Hermitian mode (exp(itA) for
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
from .errors import InvalidParameterError, NumericalFailureError
from .groups import permutation_cycles

# Complex entries in one block of the fidelity grid (8 MB): the block's time
# count is this over the group order. At order 729, 2**20 raised the scan's
# peak RSS by 8 MB; this bound keeps it under the eigendecomposition's peak.
_GRID_BLOCK_ENTRIES = 2**19


@dataclass(eq=False)
class WalkOperator:
    """Eigendecomposition of a walk generator, ready to exponentiate.

    For a skew-symmetric A the stored data diagonalizes iA and evolve returns
    exp(tA); in hermitian mode A itself is diagonalized and evolve returns
    exp(itA).
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray
    hermitian: bool = False

    @property
    def order(self) -> int:
        return self.matrix.shape[0]


def build_operator(a: np.ndarray) -> WalkOperator:
    """Diagonalize iA for skew-symmetric real A."""
    return _diagonalize(a, hermitian=False)


def build_hermitian_operator(a: np.ndarray) -> WalkOperator:
    """Diagonalize a real symmetric A for the undirected walk exp(itA)."""
    return _diagonalize(a, hermitian=True)


def _diagonalize(a: np.ndarray, hermitian: bool) -> WalkOperator:
    """Check A against its mode, then eigh the Hermitian A (hermitian) or iA."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidParameterError("adjacency matrix must be square")
    kind, name = ("symmetric", "A") if hermitian else ("skew-symmetric", "iA")
    if np.max(np.abs(a - a.T if hermitian else a + a.T)) > SKEW_TOL:
        raise InvalidParameterError(f"matrix is not {kind}")
    herm = a if hermitian else 1j * a
    eigenvalues, vectors = np.linalg.eigh(herm)
    recon = (vectors * eigenvalues) @ vectors.conj().T
    if np.max(np.abs(recon - herm)) > RECONSTRUCTION_TOL:
        raise NumericalFailureError(f"eigendecomposition failed to reconstruct {name}")
    return WalkOperator(matrix=a, eigenvalues=eigenvalues, vectors=vectors,
                        hermitian=hermitian)


def _phases(op: WalkOperator, t: float) -> np.ndarray:
    sign = 1j if op.hermitian else -1j
    return np.exp(sign * op.eigenvalues * t)


def evolve(op: WalkOperator, t: float, check: bool = True) -> np.ndarray:
    """Full transition matrix at time t."""
    u = (op.vectors * _phases(op, t)) @ op.vectors.conj().T
    if check:
        n = op.order
        defect = np.max(np.abs(u @ u.conj().T - np.eye(n)))
        if defect > UNITARITY_TOL * max(1.0, math.sqrt(n)):
            raise NumericalFailureError(f"evolution is not unitary (defect {defect:.2e})")
        if not op.hermitian and np.max(np.abs(u.imag)) > UNITARITY_TOL * max(1.0, math.sqrt(n)):
            raise NumericalFailureError("exp(tA) has an imaginary part")
    return u


def evolve_column(op: WalkOperator, t: float, a: int) -> np.ndarray:
    """Column a of the transition matrix (the state started at vertex a)."""
    return op.vectors @ (_phases(op, t) * np.conj(op.vectors[a, :]))


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


def permutation_check(op: WalkOperator, t: float) -> PermutationReport:
    """Test U(t) against 'permutation matrix with +1 entries'."""
    u = evolve(op, t)
    n = op.order
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
    # With P[perm[j], j] = 1, (P^T A P)[i, j] = A[perm[i], perm[j]], and
    # P^T A P = A exactly when PA = AP.
    a = op.matrix
    commutes = bool(np.max(np.abs(a[np.ix_(perm, perm)] - a)) < PERMUTATION_TOL * max(1.0, n))
    fixed_free = all(perm_t[a] != a for a in range(n))
    order = math.lcm(*map(len, permutation_cycles(perm_t)))
    return PermutationReport(ok=True, permutation=perm_t, max_deviation=float(deviation),
                             fixed_point_free=fixed_free, commutes_with_generator=commutes,
                             order=order)


@dataclass(frozen=True)
class ScanHit:
    time: float
    target: int
    fidelity: float


def _best_offdiagonal(op: WalkOperator, t: float, a: int) -> tuple[int, float]:
    col = np.abs(evolve_column(op, t, a))
    col[a] = -1.0
    b = int(np.argmax(col))
    return b, float(col[b])


def _best_offdiagonal_grid(op: WalkOperator, times: np.ndarray,
                           a: int) -> tuple[np.ndarray, np.ndarray]:
    """_best_offdiagonal at every time: (targets, fidelities), as arrays.

    Each block of times is one matrix product (phases * conj(V[a])) @ V.T, so
    the grid costs a few zgemm calls instead of one zgemv per time.
    """
    weights = np.conj(op.vectors[a, :])
    step = max(1, _GRID_BLOCK_ENTRIES // op.order)
    targets = np.empty(len(times), dtype=np.int64)
    values = np.empty(len(times))
    for lo in range(0, len(times), step):
        # Row j is |U(t_j)[:, a]|, the state at the block's j-th time.
        mags = np.abs((_phases(op, times[lo:lo + step, None]) * weights) @ op.vectors.T)
        mags[:, a] = -1.0
        targets[lo:lo + step] = np.argmax(mags, axis=1)
        values[lo:lo + step] = np.max(mags, axis=1)
    return targets, values


def scan_pst(op: WalkOperator, a: int, t_max: float | None = None) -> list[ScanHit]:
    """Grid scan of max off-diagonal fidelity from vertex a, maxima refined.

    Local maxima of the SCAN_STEPS-step grid above SCAN_THRESHOLD are polished
    by golden-section search on the continuous fidelity curve; nearby
    duplicates collapse to the best one.
    """
    if t_max is None:
        t_max = 4 * math.pi
    grid = np.linspace(0.0, t_max, SCAN_STEPS + 1)
    _, values = _best_offdiagonal_grid(op, grid, a)

    hits: list[ScanHit] = []
    for i in range(1, SCAN_STEPS):
        if values[i] < SCAN_THRESHOLD:
            continue
        if values[i] >= values[i - 1] and values[i] >= values[i + 1]:
            lo, hi = float(grid[i - 1]), float(grid[i + 1])
            t_ref = _golden_max(lambda t: _best_offdiagonal(op, t, a)[1], lo, hi)
            b, f = _best_offdiagonal(op, t_ref, a)
            hits.append(ScanHit(time=t_ref, target=b, fidelity=f))

    hits.sort(key=lambda h: h.time)
    merged: list[ScanHit] = []
    for h in hits:
        if merged and abs(merged[-1].time - h.time) < 1e-6:
            if h.fidelity > merged[-1].fidelity:
                merged[-1] = h
        else:
            merged.append(h)
    return merged


def _golden_max(fn, lo: float, hi: float) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > SCAN_REFINE_TOL:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = fn(x1)
    return 0.5 * (lo + hi)


def fidelity_series_csv(op: WalkOperator, a: int, t_max: float,
                        steps: int = SCAN_STEPS) -> str:
    grid = np.linspace(0.0, t_max, steps + 1)
    targets, values = _best_offdiagonal_grid(op, grid, a)
    lines = ["t,fidelity,target"]
    lines += [f"{t:.12g},{f:.12g},{b}"
              for t, f, b in zip(grid.tolist(), values.tolist(), targets.tolist())]
    return "\n".join(lines) + "\n"
