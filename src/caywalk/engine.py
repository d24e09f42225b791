"""Certification of state transfer from character data.

All tests reduce to one residual: transfer from the identity vertex to a
central element z at time t holds exactly when every irreducible character
satisfies chi(z)/chi(e) = exp(t * theta_chi), accepted when the residual is
under config.VALUE_TOL. Everything here consumes only character rows, class
sizes, and class maps, so imported tables work the same as group-backed ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .cayley import CayleyGraph, ConnectionStack, check_orientation
from .characters import CharacterTable, GaloisData, unit_closure
from .config import MAX_DENOMINATOR, RATIONAL_TOL, VALUE_TOL
from .errors import (
    InconsistencyError,
    InvalidParameterError,
    InvariantBreachError,
    SchemaError,
    check_fields,
    require_keys,
)
from .groups import (
    ConjugacyData,
    GroupTable,
    derived_series_solvable,
    power,
)

if TYPE_CHECKING:
    from .interchange import ImportedTable

ALLOWED_MST_SIZES = (2, 3, 4, 6)

# Symbolic transfer times used by fixtures and the CLI.
TIME_TAGS = {
    "2pi/3sqrt3": 2.0 * math.pi / (3.0 * math.sqrt(3.0)),
    "pi/2": math.pi / 2.0,
    "pi/4": math.pi / 4.0,
}


def parse_time(text: str | float) -> float:
    """A finite transfer time from a symbolic tag, a solved:<float> tag, or a float."""
    if text in TIME_TAGS:
        return TIME_TAGS[text]
    try:
        t = float(text.removeprefix("solved:") if isinstance(text, str) else text)
    except ValueError:
        raise InvalidParameterError(f"unrecognized time {text!r}") from None
    if not math.isfinite(t):
        raise InvalidParameterError(f"time {text!r} is not finite")
    return t


# ---------------------------------------------------------------------------
# spectra of connection sets

def connection_character_sums(table: CharacterTable,
                              class_indices: Sequence[int] | np.ndarray) -> np.ndarray:
    """chi(C) per character for one set of class indices, or per row of a 2-D stack.

    A stack is one batched product of its gathered columns with its class
    sizes: the same matrix-vector product per set as for a single set, so
    every row's sums agree bit for bit with the single-set call.
    """
    idx = np.asarray(class_indices, dtype=np.int64)
    weights = table.class_sizes[idx].astype(np.float64)
    return np.matmul(np.moveaxis(table.columns(idx), 0, -2), weights[..., None])[..., 0]


def walk_thetas(table: CharacterTable, conn_classes: Sequence[int] | np.ndarray) -> np.ndarray:
    """theta_chi = (chi(C) - conj chi(C)) / chi(e): the adjacency eigenvalue per character.

    A 2-D stack of connection sets gives one row of thetas per set.
    """
    sums = connection_character_sums(table, conn_classes)
    return (sums - np.conj(sums)) / table.degrees


def spectrum(graph: CayleyGraph, table: CharacterTable) -> np.ndarray:
    """walk_thetas of the graph's connection set, checked against the graph.

    Purely imaginary by skew symmetry; a real part beyond tolerance means the
    table does not belong to this graph's group.
    """
    if table.n_classes != len(graph.conj.classes):
        raise InconsistencyError("character table and graph disagree on class count")
    theta = walk_thetas(table, graph.class_indices)
    scale = max(1.0, float(len(graph.elements)))
    if np.max(np.abs(theta.real)) > VALUE_TOL * scale:
        raise InconsistencyError("spectrum has a real part; table/graph mismatch")
    trace = np.sum(table.degrees.astype(float) ** 2 * theta)
    if abs(trace) > VALUE_TOL * graph.order * scale:
        raise InconsistencyError("spectrum trace is nonzero; table/graph mismatch")
    return theta


def spectrum_report(table: CharacterTable, theta: np.ndarray) -> list[dict]:
    return [{"character": i, "degree": int(table.degrees[i]),
             "theta_imag": float(theta[i].imag),
             "multiplicity": int(table.degrees[i]) ** 2} for i in range(table.n_chars)]


# ---------------------------------------------------------------------------
# class-level criterion core

STATIC_SEPARATOR = "a character separating z from e is static"


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    residual: float
    reason: str | None = None


def check_transfer_classes(table: CharacterTable, conn_classes: Sequence[int],
                           z_class: int, t: float) -> CheckResult:
    """Criterion evaluated purely on class data (imported tables included)."""
    if int(table.class_sizes[z_class]) != 1:
        return CheckResult(accepted=False, residual=math.inf,
                           reason="target class is not central")
    thetas = walk_thetas(table, conn_classes)
    res = float(_residuals(table, thetas, np.array([z_class]), np.exp(t * thetas))[0])
    return CheckResult(accepted=res < VALUE_TOL, residual=res,
                       reason=STATIC_SEPARATOR if math.isinf(res) else None)


def check_pst_at(graph: CayleyGraph, table: CharacterTable, z: int, t: float) -> CheckResult:
    """Does the walk send the identity vertex exactly to z at time t?"""
    if not (0 <= z < graph.order):
        raise InvalidParameterError(f"element {z} out of range")
    if z not in graph.conj.center:
        return CheckResult(accepted=False, residual=math.inf,
                           reason="target is not central")
    z_class = int(graph.conj.class_of[z])
    return check_transfer_classes(table, graph.class_indices, z_class, t)


def check_pst_pair(graph: CayleyGraph, table: CharacterTable, a: int, b: int,
                   t: float) -> CheckResult:
    """Transfer a -> b reduces to identity -> b * a^-1 by vertex transitivity."""
    return check_pst_at(graph, table, int(graph.group.multiply(b, graph.group.inv[a])), t)


# ---------------------------------------------------------------------------
# minimal-time search

@dataclass(frozen=True)
class PSTCertificate:
    """A certified transfer: identity -> z at time tau with criterion residual."""

    z: int
    tau: float
    residual: float


@dataclass(frozen=True)
class SolveOutcome:
    certificate: PSTCertificate | None
    near_miss_residual: float
    near_miss_time: float | None = None
    reason: str | None = None


STATIC_WALK = "the walk is static: every eigenvalue is 0"
APERIODIC_WALK = "the spectrum is aperiodic, so the walk transfers to no vertex"
# Bound on the entries of one decoding block of waves, (times x k). A table
# with k^2 above it is decoded one time at a time, as a vector product or
# one FFT, so BLAS packs no copy of its values.
_BLOCK_ENTRIES = 1 << 16


def walk_frequency(thetas: np.ndarray) -> np.ndarray:
    """omega per row of thetas: the walk is periodic at e with least period 2*pi/omega.

    The y_chi = theta_chi / i are eigenvalues of the Hermitian -iA, hence
    algebraic integers. The walk is periodic at e exactly when every y_chi^2
    is an integer and the nonzero ones share one squarefree part Delta
    (Godsil, EJC 18 (2011) P23; Godsil & Lato, LAA (2020)); then y_chi =
    +-b_chi sqrt(Delta) and omega = gcd(b_chi) sqrt(Delta) = sqrt(gcd(y_chi^2)).
    omega is 0 for a static walk (every eigenvalue 0) and nan for an aperiodic one.
    """
    squares = thetas.imag ** 2
    nearest = np.rint(squares)
    # Lenient on purpose: a spectrum wrongly taken as periodic only adds
    # candidate times, which the residual test still rejects.
    integral = np.all(np.abs(squares - nearest) <= VALUE_TOL * (1.0 + squares), axis=-1)
    ints = nearest.astype(np.int64)
    # n shares first's squarefree part iff n * first is a square; the float
    # root of n * first < 2^63 rounds to the integer root whenever there is one.
    first = np.where(ints > 0, ints, np.iinfo(np.int64).max).min(axis=-1, keepdims=True)
    products = np.where(ints > 0, ints * first, 0)
    roots = np.rint(np.sqrt(products)).astype(np.int64)
    shared = np.all(roots * roots == products, axis=-1)
    return np.where(integral & shared, np.sqrt(np.gcd.reduce(ints, axis=-1)), np.nan)


def candidate_times(omega: np.ndarray, n: int) -> np.ndarray:
    """The times 2*pi*j/(n*omega), j = 1..n-1, one row per omega, ascending.

    A transfer to z of order m forces exp(m * tau * theta) = 1, so when m
    divides n these hold every transfer time within one period."""
    return 2.0 * math.pi * np.arange(1, n) / (n * omega[:, None])


def _residuals(table: CharacterTable, thetas: np.ndarray, z_classes: np.ndarray,
               waves: np.ndarray) -> np.ndarray:
    """max_chi |chi(z)/chi(e) - wave_chi| per (thetas, class, waves) row, for
    classes of any shape; inf where a static character separates z from e:
    exp(t * 0) = 1 never matches a ratio != 1, so no time can work."""
    ratios = np.moveaxis(table.columns(z_classes), 0, -1) / table.degrees
    scores = np.max(np.abs(ratios - waves), axis=-1)
    static = np.abs(thetas.imag) <= VALUE_TOL
    dead = (static & (np.abs(ratios - 1.0) > VALUE_TOL)).any(axis=-1)
    return np.where(dead, math.inf, scores)


def _decode_targets(table: CharacterTable, thetas: np.ndarray, omega: np.ndarray,
                    z_classes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(tau, residual), sets x targets, of each target's first hit among the
    candidate times of each periodic set; nan and inf where nothing hits.

    Each time's target is decoded, not scored: with w = exp(tau * theta), a
    hit at c has |w_chi - chi(c)/chi(e)| < tol for all chi and |w_chi| = 1, so
    p_c = Re sum_chi chi(e) conj(w_chi) chi(c) >= (1 - tol) sum_chi chi(e)^2 on
    any table. Only target classes with p_c over half that sum get the
    residual test: on a valid table one per hit, by column orthogonality."""
    tau = np.full((len(thetas), len(z_classes)), np.nan)
    residual = np.full(tau.shape, math.inf)
    rows = np.flatnonzero(omega > 0)
    if rows.size == 0 or n < 2 or tau.size == 0:
        return tau, residual
    slot = np.full(table.n_classes, -1)  # column of each target class in tau
    slot[z_classes] = np.arange(len(z_classes))
    floor = 0.5 * float(np.sum(table.degrees.astype(float) ** 2))
    # (set, time) pairs, times ascending within a set: the first hit is the minimal time.
    pair_sets = np.repeat(rows, n - 1)
    pair_times = candidate_times(omega[rows], n).ravel()
    first = np.full(tau.shape, pair_sets.size)  # pair index of each target's first hit
    height = _BLOCK_ENTRIES // table.n_classes if table.n_classes ** 2 <= _BLOCK_ENTRIES else 1
    for lo in range(0, pair_sets.size, height):
        sets, t = pair_sets[lo:lo + height], pair_times[lo:lo + height]
        waves = np.exp(t[:, None] * thetas[sets])
        p = table.products(table.degrees * waves.conj()).real
        pair, cls = np.nonzero((p >= floor) & (slot >= 0))
        res = _residuals(table, thetas[sets[pair]], cls, waves[pair])
        hit = np.flatnonzero(res < VALUE_TOL)
        hit_sets, hit_cols, index = sets[pair[hit]], slot[cls[hit]], lo + pair[hit]
        np.minimum.at(first, (hit_sets, hit_cols), index)
        keep = first[hit_sets, hit_cols] == index
        tau[hit_sets[keep], hit_cols[keep]] = pair_times[index[keep]]
        residual[hit_sets[keep], hit_cols[keep]] = res[hit[keep]]
    return tau, residual


def solve_pst_time(graph: CayleyGraph, table: CharacterTable, z: int,
                   period_mode: bool = False) -> SolveOutcome:
    """Minimal positive transfer time identity -> z, or a near-miss and a reason.

    Scores z at every candidate time, so that where nothing hits, the
    near-miss is the candidate of least residual: the earliest of those
    within VALUE_TOL of it, so that residuals equal but for rounding do not
    pick the time by their last bits. With period_mode and
    z = identity the result is the walk's least return time 2*pi/omega.
    """
    g = graph.group
    if z == g.identity and not period_mode:
        raise InvalidParameterError("z = identity needs period_mode=True")
    if z not in graph.conj.center:
        raise InvalidParameterError("target must be central")
    thetas = walk_thetas(table, [graph.class_indices])
    omega = walk_frequency(thetas)
    if not omega[0] > 0:
        return SolveOutcome(certificate=None, near_miss_residual=math.inf,
                            reason=STATIC_WALK if omega[0] == 0 else APERIODIC_WALK)
    if z == g.identity:
        times = 2.0 * math.pi / omega
    else:
        times = candidate_times(omega, graph.conj.orders[z])[0]
    scores = _residuals(table, thetas[0], graph.conj.class_of[[z]],
                        np.exp(times[:, None] * thetas[0]))
    hits = np.flatnonzero(scores < VALUE_TOL)
    pick = hits[0] if hits.size else int(np.argmax(scores <= scores.min() + VALUE_TOL))
    t, res = float(times[pick]), float(scores[pick])
    if math.isinf(res):
        return SolveOutcome(certificate=None, near_miss_residual=res, reason=STATIC_SEPARATOR)
    if res < VALUE_TOL:
        cert = PSTCertificate(z=z, tau=t, residual=res)
        return SolveOutcome(certificate=cert, near_miss_residual=res, near_miss_time=t)
    return SolveOutcome(certificate=None, near_miss_residual=res, near_miss_time=t,
                        reason="no candidate time meets the residual tolerance")


# ---------------------------------------------------------------------------
# transfer sets and their structure

@dataclass(frozen=True)
class MSTReport:
    """Everything the walk certifies about transfers out of the identity."""

    S_e: tuple[int, ...]
    size: int
    generator: int | None
    minimal_time: float | None
    certificates: Mapping[int, PSTCertificate]


def compute_S_e(graph: CayleyGraph | ConnectionStack,
                table: CharacterTable) -> MSTReport | list[MSTReport]:
    """Solve for every central target and assemble the transfer set.

    A graph gives its report; a stack of connection sets gives one report
    per row, from one blocked pass over every set: theta for all rows, then
    the periodicity test, then target scores for the periodic rows only.
    Structural facts are verified, not assumed: the set must be the cyclic
    group generated by the earliest target, its size must lie in {2, 3, 4, 6},
    and each power must transfer at the matching multiple of the minimal time.
    A violation raises InvariantBreachError rather than being repaired.
    """
    if isinstance(graph, CayleyGraph):
        return _transfer_reports(graph.conj, table, np.array([graph.class_indices]))[0]
    return _transfer_reports(graph.conj, table, graph.classes)


def _transfer_reports(conj: ConjugacyData, table: CharacterTable,
                      classes: np.ndarray) -> list[MSTReport]:
    g = conj.group
    targets = np.array([z for z in conj.center if z != g.identity], dtype=np.int64)
    thetas = walk_thetas(table, classes)
    omega = walk_frequency(thetas)
    taus, residuals = _decode_targets(table, thetas, omega, conj.class_of[targets],
                                      conj.center_exponent)
    hits = residuals < VALUE_TOL
    no_transfer = MSTReport(S_e=(g.identity,), size=1, generator=None,
                            minimal_time=None, certificates={})
    reports = [no_transfer] * len(classes)
    rows = np.flatnonzero(hits.any(axis=1))
    if rows.size == 0:
        return reports
    # The earliest target of each row, the least one among equal times.
    first = np.argmin(np.where(hits[rows], taus[rows], np.inf), axis=1)
    generators, tau_min = targets[first], taus[rows, first]
    _check_transfer_sets(conj, table, thetas[rows], hits[rows], targets, generators, tau_min)
    for row, generator, tau in zip(rows.tolist(), generators.tolist(), tau_min.tolist()):
        certificates = {int(targets[i]): PSTCertificate(z=int(targets[i]), tau=float(taus[row, i]),
                                                        residual=float(residuals[row, i]))
                        for i in np.flatnonzero(hits[row])}
        members = tuple(sorted({g.identity, *certificates}))
        reports[row] = MSTReport(S_e=members, size=len(members), generator=generator,
                                 minimal_time=tau, certificates=certificates)
    return reports


def _check_transfer_sets(conj: ConjugacyData, table: CharacterTable, thetas: np.ndarray,
                         hits: np.ndarray, targets: np.ndarray, generators: np.ndarray,
                         tau_min: np.ndarray) -> None:
    """The structural checks of all certifying sets at once, row i of hits, thetas,
    generators and tau_min for set i; raises at the first failing set and check."""
    g = conj.group
    orders = conj.orders[generators]
    powers = power(g, generators[:, None], np.arange(orders.max()))  # wraps past each order
    in_powers = np.zeros((len(generators), g.order), dtype=bool)
    np.put_along_axis(in_powers, powers, True, axis=1)
    not_cyclic = np.any(in_powers[:, targets] != hits, axis=1)
    sizes = hits.sum(axis=1) + 1
    bad_size = ~np.isin(sizes, ALLOWED_MST_SIZES)
    # generator^n must transfer at n * tau_min, n = 1..size-1: one residual
    # over (sets x n), for the sets that passed the checks above.
    law = np.flatnonzero(~not_cyclic & ~bad_size)
    steps = np.arange(1, max(ALLOWED_MST_SIZES))
    waves = np.exp((steps * tau_min[law, None])[..., None] * thetas[law, None])
    z_classes = conj.class_of[power(g, generators[law, None], steps)]
    law_fails = ~(_residuals(table, thetas[law, None], z_classes, waves) < VALUE_TOL)
    law_fails &= steps < sizes[law, None]
    failed = not_cyclic | bad_size
    failed[law[law_fails.any(axis=1)]] = True
    i = int(np.argmax(failed))
    if not_cyclic[i]:
        members = tuple(sorted({g.identity, *targets[hits[i]].tolist()}))
        raise InvariantBreachError(f"transfer set {members} is not the cyclic group "
                                   f"{tuple(np.sort(powers[i, :orders[i]]).tolist())}")
    if bad_size[i]:
        raise InvariantBreachError(f"transfer set size {sizes[i]} is not in {ALLOWED_MST_SIZES}")
    if failed[i]:
        n = int(np.argmax(law_fails[np.searchsorted(law, i)])) + 1
        raise InvariantBreachError(
            f"power law fails: no transfer to generator^{n} at {n} * tau_min")


# ---------------------------------------------------------------------------
# time arithmetic

@dataclass(frozen=True)
class RationalTime:
    ok: bool
    multiplier: str
    p: int
    q: int


def time_rationality_check(tau: float, size: int,
                           max_denominator: int = MAX_DENOMINATOR,
                           tol: float = RATIONAL_TOL) -> RationalTime:
    """Match tau against p/q * pi/sqrt(3) (sizes 3, 6) or p/q * pi (sizes 2, 4)."""
    if size in (3, 6):
        multiplier = "pi/sqrt3"
        x = tau * math.sqrt(3.0) / math.pi
    else:
        multiplier = "pi"
        x = tau / math.pi
    frac = Fraction(x).limit_denominator(max_denominator)
    ok = frac > 0 and abs(x - float(frac)) < tol
    return RationalTime(ok=ok, multiplier=multiplier,
                        p=frac.numerator, q=frac.denominator)


# ---------------------------------------------------------------------------
# nonexistence and exclusion arguments

@dataclass(frozen=True)
class NonexistenceWitness:
    """Characters separating z from every graph: z outside all kernels, joint field Q.

    Such a set rules out transfer onto <z> for every oriented normal Cayley
    graph on the group, independent of the connection set.
    """

    z: int
    char_indices: tuple[int, ...]
    exponent: int


def nonexistence_witness_classes(table: CharacterTable, galois: GaloisData,
                                 z_classes: Sequence[int] | np.ndarray,
                                 z_labels: Sequence[int]) -> list[NonexistenceWitness | None]:
    """Greedy witness search on class-level data, one result per class.

    For each class, keeps the first character whose kernel misses it, then
    each later one that misses it and whose stabilizer has a unit outside
    the closure of those kept, until that closure is every unit. A kept
    stabilizer never grows the closure again, and the closure only grows,
    so each pick is the least, over the stabilizers that would grow the
    closure so far, of the first row with that stabilizer that misses the
    class (_first_misses): no later row of such a stabilizer was passed
    over, or it would have been picked before. Every class carries a state,
    the id of the stabilizers it kept; each step from a state by a
    stabilizer id, its closure and the stabilizers that would grow it, is
    computed once for all classes, and one masked minimum over (classes x
    stabilizers) gives every class its next pick.
    """
    z_classes = np.asarray(z_classes, dtype=np.int64)
    m, k, n_stabs = galois.exponent, table.n_chars, len(galois.stabilizers)
    first = _first_misses(table, z_classes, galois.row_stabilizer, n_stabs)
    # State 0 keeps nothing and admits every row: the first pick is the first miss.
    closure, grows, whole = [unit_closure(m, ())], [np.ones(n_stabs, dtype=bool)], [False]
    steps: dict[int, int] = {}  # state * n_stabs + stabilizer id -> the state after
    state = np.zeros(len(z_classes), dtype=np.int64)
    chosen = np.full((len(z_classes), n_stabs), -1)  # at most one pick per stabilizer id
    live = np.arange(len(z_classes))
    for n in range(n_stabs):
        pick = np.where(np.array(grows)[state[live]], first[live], k).min(axis=1)
        live, pick = live[pick < k], pick[pick < k]
        chosen[live, n] = pick
        pairs, slot = np.unique(state[live] * n_stabs + galois.row_stabilizer[pick],
                                return_inverse=True)
        for pair in pairs.tolist():
            if pair not in steps:
                before, stab = closure[pair // n_stabs], galois.stabilizers[pair % n_stabs]
                covered = unit_closure(m, np.flatnonzero(stab & ~before), before)
                steps[pair] = len(closure)
                closure.append(covered)
                grows.append((galois.stabilizers & ~covered).any(axis=1))
                whole.append(bool(np.array_equal(covered, galois.units)))
        state[live] = np.array([steps[pair] for pair in pairs.tolist()], dtype=np.int64)[slot]
        live = live[~np.array(whole)[state[live]]]
    return [NonexistenceWitness(z=label, char_indices=tuple(i for i in row if i >= 0), exponent=m)
            if hit else None
            for label, row, hit in zip(z_labels, chosen.tolist(), np.array(whole)[state].tolist())]


# Entries of one kernel block, (classes x rows): 1 MB of int32 products at
# most on a closed form, 4 MB of complex values on a numerical table.
_MISS_ENTRIES = 1 << 18


def _first_misses(table: CharacterTable, z_classes: np.ndarray, row_stabilizer: np.ndarray,
                  n_stabs: int) -> np.ndarray:
    """(classes x stabilizer ids): the first row with each id, in row order,
    whose kernel misses each class; n_chars where none does. The rows of an
    id are read in blocks of at most _MISS_ENTRIES entries, and a class
    leaves an id's scan at its first miss."""
    first = np.full((len(z_classes), n_stabs), table.n_chars)
    members = np.argsort(row_stabilizer, kind="stable")
    bounds = np.cumsum(np.bincount(row_stabilizer, minlength=n_stabs))[:-1]
    for stab, rows in enumerate(np.split(members, bounds)):
        pending, lo = np.arange(len(z_classes)), 0
        while pending.size and lo < rows.size:
            block = rows[lo:lo + max(1, _MISS_ENTRIES // pending.size)]
            miss = table.misses(z_classes[pending], block)
            hit = miss.any(axis=1)
            first[pending[hit], stab] = block[miss.argmax(axis=1)[hit]]
            pending, lo = pending[~hit], lo + block.size
    return first


def nonexistence_witness(conj: ConjugacyData, table: CharacterTable, galois: GaloisData,
                         z: int | Sequence[int] | np.ndarray):
    """The witness or None for one central element z; a list of them for a
    list of central elements. The argument covers central targets only."""
    targets = np.asarray(z, dtype=np.int64).ravel()
    if np.any(conj.sizes[conj.class_of[targets]] != 1):
        raise InvalidParameterError("target must be central")
    found = nonexistence_witness_classes(table, galois, conj.class_of[targets], targets.tolist())
    return found if np.ndim(z) else found[0]


@dataclass(frozen=True)
class SolvableReport:
    solvable: bool
    series: tuple[int, ...]
    excluded_sizes: tuple[int, ...]


def solvable_exclusion_report(group: GroupTable) -> SolvableReport:
    """Solvable groups cannot carry a transfer set of size 6."""
    solvable, series = derived_series_solvable(group)
    return SolvableReport(solvable=solvable, series=series,
                          excluded_sizes=(6,) if solvable else ())


# ---------------------------------------------------------------------------
# imported-table claims

def check_imported_claim(imported: ImportedTable, claim: dict) -> dict:
    """Evaluate one transfer claim shipped inside an imported character table.

    Claim schema, type-checked as given: {"z_class": int, "time": tag or
    number, "connection_classes": [int, ...]}. The connection classes must
    form an oriented set under the inversion power map, with class 0 the
    identity (OrientationError otherwise), before the criterion runs.
    """
    require_keys(claim, ("connection_classes", "time", "z_class"), "claim")
    z_class, conn, t = claim["z_class"], claim["connection_classes"], claim["time"]
    check_fields("claim", (
        (type(z_class) is int, "z_class must be an integer"),
        (isinstance(conn, list) and conn != [] and all(type(c) is int for c in conn),
         "connection_classes must be a non-empty list of integers"),
        (type(t) in (str, int, float), "time must be a string or a number")))
    table = imported.table
    n = table.n_classes
    conn = sorted(set(conn))
    if any(not 0 <= c < n for c in conn) or not 0 <= z_class < n:
        raise InvalidParameterError("claim indices out of range")
    inv_map = imported.power_maps.get(table.exponent - 1) if table.exponent > 1 \
        else tuple(range(n))
    if inv_map is None:
        raise SchemaError("imported table lacks the inversion power map")
    check_orientation(inv_map, 0, np.array([conn]))
    t = parse_time(t)
    res = check_transfer_classes(table, conn, z_class, t)
    return {"z_class": z_class, "time": t, "connection_classes": conn,
            "accepted": res.accepted, "residual": res.residual,
            "reason": res.reason}


# ---------------------------------------------------------------------------
# verdict documents

def verdict_document(graph: CayleyGraph, report: MSTReport,
                     oracle_fidelity: float | None,
                     connected: bool,
                     witnesses: Sequence[NonexistenceWitness] = ()) -> dict:
    if report.minimal_time is not None and report.size in ALLOWED_MST_SIZES:
        rational = time_rationality_check(report.minimal_time, report.size)
        rational_doc = {"ok": rational.ok, "multiplier": rational.multiplier,
                        "p": rational.p, "q": rational.q}
    else:
        rational_doc = None
    residual = max((c.residual for _, c in report.certificates.items()), default=0.0)
    return {
        "group": graph.group.family_tag,
        "connection_classes": list(graph.class_indices),
        "S_e": list(report.S_e),
        "size": report.size,
        "tau": report.minimal_time,
        "tau_rational": rational_doc,
        "residual": residual,
        "oracle_fidelity": oracle_fidelity,
        "connected": connected,
        "witnesses": [
            {"z": w.z, "characters": list(w.char_indices)} for w in witnesses
        ],
    }
