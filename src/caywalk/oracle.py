"""Matrix-exponential oracle for the continuous walk.

Answers fidelity, permutation, and scan queries from the group table,
sharing nothing else with the criterion path. Every answer is a Chebyshev
expansion of exp(tA) (Tal-Ezer & Kosloff, J. Chem. Phys. 81 (1984) 3967),
one product with A, 2|C| gathers through rows of the table, per term; a
permutation U(t) follows from one column, as A commutes with the right
translations. Only the CSV grid diagonalizes iA, for its t = 0 row. A
Hermitian mode (exp(itA) for symmetric A) covers undirected graphs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import (
    FIDELITY_GAP,
    PERMUTATION_TOL,
    RECONSTRUCTION_TOL,
    SCAN_REFINE_TOL,
    SCAN_STEPS,
    SCAN_THRESHOLD,
    UNITARITY_TOL,
)
from .errors import InvalidParameterError, NumericalFailureError, SizeLimitError
from .groups import GroupTable, permutation_cycles

# Complex entries in one block of the CSV fidelity grid (1 MB): the block's
# time count is this over the group order. On es3:2 one 2,001-row block
# (2**19) added 17 MB to the eigendecomposition's peak; this bound keeps the
# grid's temporaries under it.
_GRID_BLOCK_ENTRIES = 2**16
# Bytes of Chebyshev basis evolve stores at once (terms x order x columns):
# a whole eye(n) basis would be K(omega) n^2 8 bytes, hundreds of GB at
# n = 4096 and omega = 2000.
_EVOLVE_BASIS_BYTES = 2**24
# A Chebyshev expansion at omega = t*rho keeps the terms k < K(omega), the
# first k > omega with (omega/2)**k / k! < _TAIL. |J_k(omega)| is at most
# that bound, which falls by more than half per term past omega, and every
# P_k v has norm at most 1, so the dropped tail has norm below 4 * _TAIL.
_TAIL = 1e-16
# The span of omega = t*rho a scan evaluates from one Chebyshev basis: a
# window's basis holds about this many vectors plus the expansion's tail, and
# its steps share one coefficient table. On the benchmark's four JSON scans
# (in process, 2-vCPU VM) windows of omega 30 to 60 took 50 ms, 15 took 56 ms
# and 250 took 68 ms.
_WINDOW_OMEGA = 30.0
# Products gather through the d index rows when _GATHER_RATIO * d <= n and
# multiply by the dense A otherwise. On a 2-vCPU VM the gather beat a dense
# matvec on d-regular circulants from n/d of about 24 (2.3x on z3^6's 729/12),
# and gathering every product slowed the scans of m2:7 (n/d = 3.4) from 16 to
# 35 ms, wreath:z:3:3 from 14 to 47 ms and es3:2 (n/d = 9.3) from 17 to 25 ms.
_GATHER_RATIO = 32
# Newton steps a scan maximum may take before its refinement counts as failed;
# safeguarded by bisection, a bracket of two grid steps (12.6e-3 wide at the
# default window) shrinks below SCAN_REFINE_TOL within 27 halvings.
_NEWTON_STEPS = 40
# Largest omega = t*rho one expansion covers. Miller's recurrence from
# K(omega) + 10 peaks at 4e189 here and overflows past omega = 3300; the
# basis holds about 1.4 * omega vectors of the group order (16 MB at 729).
# evolve_column splits a longer omega into at most _MAX_PIECES equal pieces.
_MAX_OMEGA = 2000.0
_MAX_PIECES = 1000
# Grid steps a JSON scan may take: its grid, targets and fidelities hold
# steps + 1 entries each, and time and memory grow linearly with them. Just
# under the limit (z:8 {1,2,5}, t_max 37,905) a whole pst oracle --scan run
# took 5.2-5.5 s at a peak RSS of 158 MB (2-vCPU VM).
SCAN_MAX_STEPS = 2**20
# Grid maxima a scan refines at once, as soon as that many are known: one
# block's basis holds terms x order x this many entries, and a maximum's left
# grid state is dropped once it is refined, so memory does not grow with the
# hit count (the benchmark's scans have at most 12 hits: one block each).
_REFINE_PEAKS = 64


@dataclass(frozen=True, eq=False)
class WalkOperator:
    """A Cayley graph's walk generator A as index rows, ready to exponentiate:
    (Ax)[h] = sum_k sign[k] x[index[k, h]], one row mul[c^-1] (+1, the arc
    c^-1 h -> h) per element c of C, and in oriented mode one row mul[c] (-1,
    the arc h -> c h). evolve and its kin return exp(tA), exp(itA) in
    hermitian mode. Each row of A holds d = len(sign) entries +-1 at distinct
    places, so rho = d; A is normal, so rho bounds its spectral norm and
    A/rho has its spectrum in [-1, 1] (times i for skew A)."""

    index: np.ndarray
    sign: np.ndarray
    rho: float
    hermitian: bool = False

    @property
    def order(self) -> int:
        return self.index.shape[1]

    @cached_property
    def dense(self) -> np.ndarray:
        """A itself, from the index rows: for walks too dense to gather, and
        for the CSV grid's eigendecomposition."""
        a = np.zeros((self.order, self.order))
        for index, sign in zip(self.index, self.sign.tolist()):
            a[np.arange(self.order), index] += sign
        return a


def build_operator(group: GroupTable, elements: tuple[int, ...]) -> WalkOperator:
    """The walk exp(tA) of the oriented Cay(group, C): A[cg, g] = 1 = -A[g, cg]."""
    return _operator(group, elements, hermitian=False)


def build_hermitian_operator(group: GroupTable, elements: tuple[int, ...]) -> WalkOperator:
    """The walk exp(itA) of Cay(group, C), C inverse-closed: A[cg, g] = 1."""
    return _operator(group, elements, hermitian=True)


def _operator(group: GroupTable, elements: tuple[int, ...], hermitian: bool) -> WalkOperator:
    """Check C against its mode and take its index rows from the table."""
    c = np.asarray(elements, dtype=np.intp).reshape(-1)
    if not c.size or np.any((c < 0) | (c >= group.order)) or np.bincount(c).max() > 1:
        raise InvalidParameterError("connection set must be distinct elements of the group")
    member = np.zeros(group.order, dtype=bool)
    member[c] = True
    inverses = group.inv[c].astype(np.intp)
    if not member[inverses].all() if hermitian else member[inverses].any():
        raise InvalidParameterError("an undirected connection set must hold every inverse "
                                    "of its elements, an oriented one none")
    rows = inverses if hermitian else np.concatenate([inverses, c])
    sign = np.where(np.arange(rows.size) < c.size, 1.0, -1.0)
    index = group.multiply(rows[:, None], np.arange(group.order))
    return WalkOperator(index=np.asarray(index, dtype=np.intp), sign=sign,
                        rho=float(rows.size), hermitian=hermitian)


# ---------------------------------------------------------------------------
# Chebyshev evolution of single states

def _terms(omega: float) -> int:
    """K(|omega|): the first k > |omega| with (|omega|/2)**k / k! < _TAIL,
    found in logarithms, as the bound itself overflows past omega = 1418."""
    omega = abs(omega)
    _check_omega(omega)
    if omega < 2 * _TAIL:
        return 1
    k = math.floor(omega) + 1
    log_bound = k * math.log(omega / 2) - math.lgamma(k + 1)
    while log_bound >= math.log(_TAIL):
        k += 1
        log_bound += math.log(omega / (2 * k))
    return k


def _check_omega(omega: float) -> None:
    """Refuse an |omega| that is not finite or that no expansion covers."""
    if not math.isfinite(omega):
        raise InvalidParameterError(f"walk time gives omega = t*rho = {omega}, not finite")
    if omega > _MAX_OMEGA:
        raise SizeLimitError(f"omega = t*rho = {omega:.6g} would need more than "
                             f"{_MAX_OMEGA:.0f} Chebyshev terms per expansion")


def _term_counts(omegas: np.ndarray) -> np.ndarray:
    """_terms of every omega at once: the same logarithmic bound, stepped
    for all omegas together while any is still above _TAIL."""
    w = np.abs(omegas)
    _check_omega(float(np.max(w, initial=0.0)))
    k = np.floor(w) + 1
    wide = w >= 2 * _TAIL
    log_factorials = np.array([math.lgamma(j + 1) for j in range(int(np.max(k, initial=1.0)) + 1)])
    with np.errstate(divide="ignore"):
        log_bound = k * np.log(w / 2) - log_factorials[k.astype(np.intp)]
    while (more := wide & (log_bound >= math.log(_TAIL))).any():
        k[more] += 1
        log_bound[more] += np.log(w[more] / (2 * k[more]))
    return np.where(wide, k, 1).astype(np.intp)


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
    total = 0.0  # in order, not by sum(), which compensates from Python 3.12
    for v in vals[2:top + 1:2]:
        total += v
    scale = 1.0 / (vals[0] + 2.0 * total)
    odd = -scale if omega < 0 else scale
    return [v * (odd if k & 1 else scale) for k, v in enumerate(vals[:count])]


def _bessel_table(omegas: np.ndarray, count: int) -> np.ndarray:
    """One row _bessel(omega, count) per omega, bit for bit, from one
    recurrence over all of them: column j stays 0 above its own K + 10 and
    starts there, so it does exactly _bessel's arithmetic. For many omegas;
    one omega costs more here than in _bessel."""
    w = np.abs(omegas)
    terms = _term_counts(w)
    tops = np.where(terms > 1, terms + 10, -1)  # columns with K = 1 never start
    top = int(np.max(terms)) + 10
    two_over_w = 2.0 / np.where(terms > 1, w, 1.0)
    vals = np.zeros((max(count, top + 2), len(w)))
    for k in range(top, 0, -1):
        vals[k, tops == k] = 1.0
        vals[k - 1] = k * two_over_w * vals[k] - vals[k + 1]
    vals[0, terms == 1] = 1.0
    total = np.zeros(len(w))
    for row in vals[2::2]:  # in order, as _bessel adds
        total += row
    scale = 1.0 / (vals[0] + 2.0 * total)
    table = vals[:count] * scale
    table[1::2] *= np.where(omegas < 0, -1.0, 1.0)
    return table.T


_I_POWERS = np.array([1, 1j, -1, -1j])


def _coefficients(op: WalkOperator, bessel: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients c from Bessel values J_k(omega) on the last
    axis, with exp(omega A/rho) v = sum_k c_k P_k v, and in hermitian mode
    exp(i omega A/rho) v = sum_k c_k T_k v: c_0 = J_0(omega) and
    c_k = 2 J_k(omega), times i^k in hermitian mode (Jacobi-Anger). Linear
    in the values, so derivatives in omega map alike."""
    table = np.array(bessel, dtype=np.float64)
    table[..., 1:] *= 2.0
    if op.hermitian:
        return table * _I_POWERS[np.arange(table.shape[-1]) % 4]
    return table


def _basis(op: WalkOperator, v: np.ndarray, count: int) -> np.ndarray:
    """P_0 v, ..., P_{count-1} v stacked on a new first axis, one product
    with A each; v is a vector or holds one vector per column.

    P_0 = I, P_1 = A/rho and P_{k+1} = 2(A/rho) P_k + P_{k-1}, so on the
    eigenvalue iy of A/rho, P_k is i^k T_k(y) (Chebyshev's T_k). In hermitian
    mode the terms are T_k(A/rho) v, with T_{k+1} = 2(A/rho) T_k - T_{k-1}.
    Products gather through op's index rows where _GATHER_RATIO * d <= n,
    and multiply by its dense A otherwise.
    """
    if _GATHER_RATIO * len(op.sign) <= op.order:
        def times(x):
            return np.tensordot(op.sign, x[op.index], axes=1)
    elif np.iscomplexobj(v):  # in real arithmetic: numpy would copy A to complex
        def times(x, a=op.dense):
            return a @ x.real + 1j * (a @ x.imag)
    else:
        times = op.dense.__matmul__
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
    by a Chebyshev expansion; real for a skew-symmetric A. An omega = t*rho
    above _MAX_OMEGA is split into equal pieces, each state norm-checked."""
    omega = t * op.rho
    pieces = max(1, math.ceil(abs(omega) / _MAX_OMEGA)) if math.isfinite(omega) else 1
    if pieces > _MAX_PIECES:
        raise SizeLimitError(f"omega = t*rho = {omega:.6g} would need more than "
                             f"{_MAX_PIECES} expansions of omega {_MAX_OMEGA:.0f}")
    count = _terms(omega / pieces)
    coefficients = _coefficients(op, _bessel(omega / pieces, count))
    v = np.zeros(op.order)
    v[a] = 1.0
    for _ in range(pieces):
        v = _checked(op, coefficients @ _basis(op, v, count))
    return v


def evolve(op: WalkOperator, t: float) -> np.ndarray:
    """Full transition matrix at time t, by the Chebyshev expansion of a
    block of columns at a time, whose basis holds _EVOLVE_BASIS_BYTES or one
    column's. U must be unitary, and real (as returned) for a skew A."""
    n = op.order
    count = _terms(t * op.rho)
    coefficients = _coefficients(op, _bessel(t * op.rho, count))
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


def permutation_check(op: WalkOperator, col: np.ndarray, group: GroupTable) -> PermutationReport:
    """Test U(t) against 'permutation matrix with +1 entries' from its
    identity column col = U(t) e_e (evolve_column).

    A must commute, exactly, with the right translation g -> g s by each of
    the stored generators s of the group (Godsil & Royle, Algebraic Graph
    Theory, ch. 3), so with every right translation, and so must U(t). Then
    if U(t) e_e = e_z to within PERMUTATION_TOL, U(t) e_h = e_{zh} for every
    h: U(t) is left multiplication by z, and its columns permute one set of
    entries. A commutes with R_s when each index row does, index[k, hs] =
    index[k, h]s: an exact O(d n) test, true of rows ch by associativity.
    """
    index, multiply, everyone = op.index, group.multiply, np.arange(op.order)
    translates = op.order == group.order and all(
        np.array_equal(index[:, multiply(everyone, s)], multiply(index, s))
        for s in group.generators)
    # The distance max(|c_z - 1|, max_{y != z} |c_y|) to each e_z, in O(n):
    # the largest other magnitude is the largest one, or the second largest
    # at its own place. The nearest e_z does not depend on the numbering.
    mags = np.abs(col)
    first = int(np.argmax(mags))
    others = np.full(len(col), mags[first])
    mags[first] = 0.0
    others[first] = np.max(mags)
    distances = np.maximum(np.abs(col - 1.0), others)  # a -1 entry is not a permutation
    z = int(np.argmin(distances))
    deviation = float(distances[z])
    if not translates or deviation > PERMUTATION_TOL:
        return PermutationReport(ok=False, permutation=None, max_deviation=deviation,
                                 fixed_point_free=False, commutes_with_generator=False,
                                 order=None)
    perm_t = tuple(multiply(z, everyone).tolist())
    # Row k is then L_c, c = index[k, e], and L_z^-1 L_c L_z = L_{z^-1 c z}: A
    # commutes with L_z when conjugation by z permutes its signed elements.
    c, signed = index[:, group.identity], np.where(op.sign > 0, 0, op.order)
    commutes = np.array_equal(np.sort(c + signed),
                              np.sort(multiply(multiply(group.inv[z], c), z) + signed))
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

    The grid sees every transfer in [0, t_max] at fidelity 1 - FIDELITY_GAP
    or more: a grid point within h/2 of it reads at least SCAN_THRESHOLD, so
    the peak of those grid points is refined, unless it is an end of the
    grid. Let d = len(op.sign) = ||A e_b||^2 (one entry +-1 per index row),
    and U(tau) e_a = c e_b + r with |c| >= 1 - gamma, r orthogonal to e_b.
    A's eigenvalues are iy (y real in hermitian mode), and e_b has spectral
    weights w_y, sum w_y y^2 = d, so for |delta| <= h/2, h the grid step,
        |<e_b, U(delta) e_b>| >= sum w_y cos(delta y) >= 1 - d delta^2 / 2,
        |<e_b, U(delta) r>| = |<U(-delta) e_b - e_b, r>| <= |delta| sqrt(d) |r|,
    with |r|^2 = 1 - |c|^2 <= 2 gamma. With x = h sqrt(d) / 2 the grid point
    nearest tau reads at least
        (1 - gamma)(1 - x^2 / 2) - x sqrt(2 gamma) >= 1 - (x / sqrt 2 + sqrt gamma)^2,
    which is SCAN_THRESHOLD = theta whenever x <= sqrt 2 (sqrt(1 - theta) -
    sqrt gamma), that is for
        steps >= t_max sqrt(d / 8) / (sqrt(1 - theta) - sqrt gamma):
    t_max sqrt(d / (8 (1 - theta))) steps, over 1 - sqrt(gamma / (1 - theta))
    = 0.99 for the slack a hit at 1 - FIDELITY_GAP needs (1 - theta = 1e-3
    is 10^4 times that gap). A maximum below 1 - d h^2 / 8 that is no
    transfer can still fall between grid points.

    The grid is evaluated in windows of about _WINDOW_OMEGA of omega: one
    Chebyshev basis at each window's first state, and one coefficient table,
    the same for every window, for the offsets within it. Each local maximum
    above SCAN_THRESHOLD is refined on the entry of its grid target
    (_refine), from a basis at the bracket's left grid state, and its state
    is then evaluated once (_refine_peaks, _REFINE_PEAKS maxima at a time
    as the grid advances); nearby duplicates collapse to the best one.
    Every state is norm-checked.
    """
    if t_max is None:
        t_max = 4 * math.pi
    if not 0 < t_max < math.inf:
        raise InvalidParameterError(f"scan window t_max = {t_max} is not positive and finite")
    slack = math.sqrt(1.0 - SCAN_THRESHOLD) - math.sqrt(FIDELITY_GAP)
    steps = max(1, math.ceil(t_max * math.sqrt(len(op.sign) / 8) / slack))
    if steps > SCAN_MAX_STEPS:
        raise SizeLimitError(f"scan window t_max = {t_max} needs {steps} grid steps, "
                             f"over the limit {SCAN_MAX_STEPS}")
    d_omega = op.rho * t_max / steps  # omega per grid step
    width = min(steps, max(1, int(_WINDOW_OMEGA / d_omega)))  # grid steps per window
    count = _terms(d_omega * width)
    table = _coefficients(op, _bessel_table(d_omega * np.arange(width + 1), count))
    grid = np.linspace(0.0, t_max, steps + 1)

    targets = np.empty(steps + 1, dtype=np.intp)
    values = np.empty(steps + 1)
    left = {}  # grid index -> state there, for each rising grid point to its right
    pending: list[int] = []  # grid maxima not yet refined
    hits: list[ScanHit] = []
    state = np.zeros(op.order)
    state[a] = 1.0
    for start in range(0, steps, width):
        taken = min(width, steps - start)
        states = _checked(op, table[:taken + 1] @ _basis(op, state, count))
        span = slice(start, start + taken + 1)
        targets[span], values[span] = _best_offdiagonal(states, a)
        window = values[span]
        rising = (window[1:] >= SCAN_THRESHOLD) & (window[1:] >= window[:-1])
        left.update((start + j, states[j].copy()) for j in np.flatnonzero(rising).tolist())
        state = states[taken]
        # Grid points lo .. start + taken - 1 now have both neighbours.
        lo = max(start, 1)
        inner = values[lo:start + taken]
        pending += (lo + np.flatnonzero(
            (inner >= SCAN_THRESHOLD) & (inner >= values[lo - 1:start + taken - 1])
            & (inner >= values[lo + 1:start + taken + 1]))).tolist()
        wanted = {i - 1 for i in pending} | {start + taken - 1}
        left = {i: v for i, v in left.items() if i in wanted}
        last = start + taken == steps
        while len(pending) >= _REFINE_PEAKS or (last and pending):
            block, pending = np.array(pending[:_REFINE_PEAKS]), pending[_REFINE_PEAKS:]
            hits += _refine_peaks(op, a, grid, targets[block], values[block],
                                  [left.pop(i) for i in (block - 1).tolist()], block)
    hits.sort(key=lambda h: h.time)

    merged: list[ScanHit] = []
    for h in hits:
        if merged and abs(merged[-1].time - h.time) < 1e-6:
            if h.fidelity > merged[-1].fidelity:
                merged[-1] = h
        else:
            merged.append(h)
    return merged


def _refine_peaks(op: WalkOperator, a: int, grid: np.ndarray, targets: np.ndarray,
                  values: np.ndarray, lefts: list[np.ndarray], peaks: np.ndarray) -> list[ScanHit]:
    """The hits of the grid maxima at the indices peaks, whose grid targets
    and fidelities are targets and values and whose left grid states are
    lefts: each refined on its target's entry, then evaluated once."""
    lo, hi = grid[peaks - 1], grid[peaks + 1]
    count = _terms(float(np.max(hi - lo)) * op.rho)
    basis = _basis(op, np.stack(lefts, axis=1), count)
    offsets = _refine(op, basis[:, targets, np.arange(peaks.size)], grid[peaks] - lo, hi - lo)
    bessel = [_bessel(w, count) for w in (offsets * op.rho).tolist()]
    states = _checked(op, np.einsum("jk,knj->jn", _coefficients(op, bessel), basis))
    found, fids = _best_offdiagonal(states, a)
    if np.any(fids < values - 1e-15):
        raise NumericalFailureError("a refined scan maximum fell below its grid value")
    return [ScanHit(time=t, target=b, fidelity=f)
            for t, b, f in zip((lo + offsets).tolist(), found.tolist(), fids.tolist())]


def _refine(op: WalkOperator, rows: np.ndarray, s: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Offsets in [0, width[j]] where |u_j| peaks, from the first guess s[j],
    with u_j(s) = sum_k c_k(s rho) rows[k, j] one entry of a bracket's state.

    The peak is the root of g = Re(conj(u) u'), whose slope is
    g' = |u'|^2 + Re(conj(u) u''). The derivatives come from the same rows:
    d/ds = rho d/domega, 2 J_k' = J_{k-1} - J_{k+1} and
    4 J_k'' = J_{k-2} - 2 J_k + J_{k+2}, with J_{-k} = (-1)^k J_k (DLMF
    10.6.1), so a step costs one Bessel row per bracket and no product with
    A. Newton's method is safeguarded by bisection on the sign of g whenever
    a step would leave the bracket known to hold the root, or g' >= 0
    (Numerical Recipes, sec. 9.4, rtsafe); a bracket is done after a step
    below SCAN_REFINE_TOL.
    """
    count = len(rows)
    s, below, above = s.copy(), np.zeros_like(s), width.copy()
    active = np.ones(len(s), dtype=bool)
    for _ in range(_NEWTON_STEPS):
        live = np.flatnonzero(active)
        bessel = np.array([_bessel(w, count + 2) for w in (s[live] * op.rho).tolist()])
        ext = np.concatenate([bessel[:, 2:0:-1] * [1.0, -1.0], bessel], axis=1)  # from J_{-2}
        derivatives = np.stack([
            ext[:, 2:-2],
            op.rho / 2 * (ext[:, 1:-3] - ext[:, 3:-1]),
            op.rho ** 2 / 4 * (ext[:, :-4] - 2 * ext[:, 2:-2] + ext[:, 4:]),
        ])
        u, du, ddu = np.einsum("ijk,kj->ij", _coefficients(op, derivatives), rows[:, live])
        g = (np.conj(u) * du).real
        slope = np.abs(du) ** 2 + (np.conj(u) * ddu).real
        rising = g > 0
        below[live] = np.where(rising, s[live], below[live])
        above[live] = np.where(rising, above[live], s[live])
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = s[live] - g / slope
        inside = (slope < 0) & (newton >= below[live]) & (newton <= above[live])
        step = np.where(inside, newton, 0.5 * (below[live] + above[live]))
        active[live] = np.abs(step - s[live]) >= SCAN_REFINE_TOL
        s[live] = step
        if not active.any():
            return s
    raise NumericalFailureError(f"scan refinement did not settle in {_NEWTON_STEPS} steps")


def _eigenpairs(op: WalkOperator) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the Hermitian A (hermitian) or iA, checked by reconstruction."""
    herm, name = (op.dense, "A") if op.hermitian else (1j * op.dense, "iA")
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
