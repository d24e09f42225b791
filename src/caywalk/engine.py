"""Certification of state transfer from character data.

All tests reduce to one residual: transfer from the identity vertex to a
central element z at time t holds exactly when every irreducible character
satisfies chi(z)/chi(e) = exp(t * theta_chi). Everything here consumes only
character rows, class sizes, and class maps, so imported tables work the same
as group-backed ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .cayley import CayleyGraph, connection_character_sums
from .characters import CharacterTable, GaloisData, ImportedTable, unit_closure
from .config import (
    MAX_DENOMINATOR,
    RATIONAL_TOL,
    DEFAULT_CONFIG,
    RunConfig,
)
from .errors import (
    InvalidParameterError,
    InvariantBreachError,
    SchemaError,
)
from .groups import (
    ConjugacyData,
    GroupTable,
    derived_series_solvable,
    element_order,
    power,
    subgroup_closure,
)

ALLOWED_MST_SIZES = (2, 3, 4, 6)

# Symbolic transfer times used by fixtures and the CLI.
TIME_TAGS = {
    "2pi/3sqrt3": 2.0 * math.pi / (3.0 * math.sqrt(3.0)),
    "pi/2": math.pi / 2.0,
    "pi/4": math.pi / 4.0,
}


def parse_time(text: str | float) -> float:
    """A transfer time from a symbolic tag, a solved:<float> tag, or a float."""
    if isinstance(text, (int, float)):
        return float(text)
    if text in TIME_TAGS:
        return TIME_TAGS[text]
    if text.startswith("solved:"):
        return float(text.split(":", 1)[1])
    try:
        return float(text)
    except ValueError:
        raise InvalidParameterError(f"unrecognized time {text!r}") from None


# ---------------------------------------------------------------------------
# class-level criterion core

def walk_thetas(table: CharacterTable, conn_classes: Sequence[int]) -> np.ndarray:
    """theta_chi = (chi(C) - conj chi(C)) / chi(e): the adjacency eigenvalue per row."""
    sums = connection_character_sums(table, conn_classes)
    return (sums - np.conj(sums)) / table.degrees


def residual_at(ratios: np.ndarray, thetas: np.ndarray, t: float) -> float:
    return float(np.max(np.abs(ratios - np.exp(t * thetas))))


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    residual: float
    reason: str | None = None


def check_transfer_classes(table: CharacterTable, conn_classes: Sequence[int],
                           z_class: int, t: float,
                           tol: float = DEFAULT_CONFIG.residual_tol) -> CheckResult:
    """Criterion evaluated purely on class data (imported tables included)."""
    if int(table.class_sizes[z_class]) != 1:
        return CheckResult(accepted=False, residual=math.inf,
                           reason="target class is not central")
    ratios = table.values[:, z_class] / table.degrees
    res = residual_at(ratios, walk_thetas(table, conn_classes), t)
    return CheckResult(accepted=res < tol, residual=res)


def check_pst_at(graph: CayleyGraph, table: CharacterTable, z: int, t: float,
                 tol: float = DEFAULT_CONFIG.residual_tol) -> CheckResult:
    """Does the walk send the identity vertex exactly to z at time t?"""
    if not (0 <= z < graph.order):
        raise InvalidParameterError(f"element {z} out of range")
    if z not in graph.conj.center:
        return CheckResult(accepted=False, residual=math.inf,
                           reason="target is not central")
    z_class = int(graph.conj.class_of[z])
    return check_transfer_classes(table, graph.conn.class_indices, z_class, t, tol)


def check_pst_pair(graph: CayleyGraph, table: CharacterTable, a: int, b: int,
                   t: float, tol: float = DEFAULT_CONFIG.residual_tol) -> CheckResult:
    """Transfer a -> b reduces to identity -> b * a^-1 by vertex transitivity."""
    g = graph.group
    z = int(g.mul[b, g.inv[a]])
    return check_pst_at(graph, table, z, t, tol)


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
_BLOCK_ENTRIES = 1 << 20  # bound on each (times x characters x targets) score block


def walk_frequency(thetas: np.ndarray, value_tol: float) -> tuple[float | None, str | None]:
    """(omega, None) when the walk is periodic at e with least period 2*pi/omega.

    The y_chi = theta_chi / i are eigenvalues of the Hermitian -iA, hence
    algebraic integers. The walk is periodic at e exactly when every y_chi^2
    is an integer and the nonzero ones share one squarefree part Delta
    (Godsil, EJC 18 (2011) P23; Godsil & Lato, LAA (2020)); then y_chi =
    +-b_chi sqrt(Delta) and omega = gcd(b_chi) sqrt(Delta) = sqrt(gcd(y_chi^2)).
    """
    squares = thetas.imag ** 2
    nearest = np.rint(squares)
    # Lenient on purpose: a spectrum wrongly taken as periodic only adds
    # candidate times, which the residual test still rejects.
    if np.any(np.abs(squares - nearest) > value_tol * (1.0 + squares)):
        return None, APERIODIC_WALK
    nonzero = {int(n) for n in nearest if n > 0}
    if not nonzero:
        return None, STATIC_WALK
    first = min(nonzero)  # n shares first's squarefree part iff n * first is a square
    if any(math.isqrt(n * first) ** 2 != n * first for n in nonzero):
        return None, APERIODIC_WALK
    return math.sqrt(math.gcd(*nonzero)), None


def _scan_targets(graph: CayleyGraph, table: CharacterTable, targets: Sequence[int],
                  n: int, tol: float) -> tuple[np.ndarray, np.ndarray, str | None]:
    """(tau, residual, reason) for each central target over the times 2*pi*j/(n*omega).

    A transfer to z of order m forces exp(m * tau * theta) = 1, so when m
    divides n, j = 1..n-1 covers every transfer within one period and the
    first time under tol is the minimal one. Where nothing hits, tau is the
    candidate of least residual; residual is inf where no time can work, and
    reason says why when that holds for every target.
    """
    tau = np.full(len(targets), np.nan)
    residual = np.full(len(targets), math.inf)
    thetas = walk_thetas(table, graph.conn.class_indices)
    omega, reason = walk_frequency(thetas, table.tolerance)
    if omega is None:
        return tau, residual, reason
    times = 2.0 * math.pi * np.arange(1, n) / (n * omega)
    waves = np.exp(np.outer(times, thetas))
    static = np.abs(thetas.imag) <= tol
    block = max(1, _BLOCK_ENTRIES // max(1, times.size * table.n_chars))
    for lo in range(0, len(targets), block):
        z_classes = graph.conj.class_of[np.asarray(targets[lo:lo + block])]
        ratios = table.values[:, z_classes] / table.degrees[:, None]
        scores = np.max(np.abs(ratios[None, :, :] - waves[:, :, None]), axis=1)
        # exp(t * 0) = 1 never matches a ratio != 1, so no time can work.
        scores[:, np.any((np.abs(ratios - 1.0) > tol) & static[:, None], axis=0)] = math.inf
        hit = scores < tol
        pick = np.where(hit.any(axis=0), hit.argmax(axis=0), scores.argmin(axis=0))
        tau[lo:lo + block] = times[pick]
        residual[lo:lo + block] = scores[pick, np.arange(pick.size)]
    return tau, residual, None


def solve_pst_time(graph: CayleyGraph, table: CharacterTable, z: int,
                   config: RunConfig = DEFAULT_CONFIG,
                   period_mode: bool = False) -> SolveOutcome:
    """Minimal positive transfer time identity -> z, or a near-miss and a reason.

    The single-target view of the pass compute_S_e runs over all central
    targets. With period_mode and z = identity the result is the walk's least
    return time 2*pi/omega.
    """
    g = graph.group
    if z == g.identity and not period_mode:
        raise InvalidParameterError("z = identity needs period_mode=True")
    if z not in graph.conj.center:
        raise InvalidParameterError("target must be central")
    tol = config.residual_tol
    if z == g.identity:
        thetas = walk_thetas(table, graph.conn.class_indices)
        omega, reason = walk_frequency(thetas, table.tolerance)
        t = 2.0 * math.pi / omega if omega else math.nan
        res = residual_at(1.0, thetas, t) if omega else math.inf
    else:
        taus, residuals, reason = _scan_targets(graph, table, [z], element_order(g, z), tol)
        t, res = float(taus[0]), float(residuals[0])
    if math.isinf(res):
        return SolveOutcome(certificate=None, near_miss_residual=res,
                            reason=reason or "a character separating z from e is static")
    if res < tol:
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


def compute_S_e(graph: CayleyGraph, table: CharacterTable,
                config: RunConfig = DEFAULT_CONFIG) -> MSTReport:
    """Solve for every central target and assemble the transfer set.

    Structural facts are verified, not assumed: the set must be the cyclic
    group generated by the earliest target, its size must lie in {2, 3, 4, 6},
    and each power must transfer at the matching multiple of the minimal time.
    A violation raises InvariantBreachError rather than being repaired.
    """
    g = graph.group
    targets = [z for z in graph.conj.center if z != g.identity]
    taus, residuals, _ = _scan_targets(graph, table, targets,
                                       graph.conj.center_exponent, config.residual_tol)
    certificates = {targets[i]: PSTCertificate(z=targets[i], tau=float(taus[i]),
                                               residual=float(residuals[i]))
                    for i in np.flatnonzero(residuals < config.residual_tol)}

    if not certificates:
        return MSTReport(S_e=(g.identity,), size=1, generator=None,
                         minimal_time=None, certificates={})

    generator = min(certificates, key=lambda z: (certificates[z].tau, z))
    tau_min = certificates[generator].tau
    members = tuple(sorted({g.identity, *certificates.keys()}))
    expected = subgroup_closure(g, [generator])
    if members != expected:
        raise InvariantBreachError(
            f"transfer set {members} is not the cyclic group {expected}")
    size = len(members)
    if size not in ALLOWED_MST_SIZES:
        raise InvariantBreachError(f"transfer set size {size} is not in {ALLOWED_MST_SIZES}")
    for n in range(1, size):
        zn = power(g, generator, n)
        res = check_pst_at(graph, table, zn, n * tau_min, config.residual_tol)
        if not res.accepted:
            raise InvariantBreachError(
                f"power law fails: no transfer to generator^{n} at {n} * tau_min")
    return MSTReport(S_e=members, size=size, generator=generator,
                     minimal_time=tau_min, certificates=certificates)


def partition_into_transfer_classes(graph: CayleyGraph,
                                    report: MSTReport) -> tuple[tuple[int, ...], ...] | None:
    """Cosets of the transfer set, or None when there is no transfer at all."""
    if report.size <= 1:
        return None
    g = graph.group
    assigned = np.full(g.order, -1, dtype=np.int64)
    parts: list[tuple[int, ...]] = []
    members = np.array(report.S_e, dtype=np.int64)
    for v in range(g.order):
        if assigned[v] >= 0:
            continue
        coset = tuple(sorted(int(g.mul[s, v]) for s in members))
        idx = len(parts)
        for u in coset:
            if assigned[u] >= 0:
                raise InvariantBreachError("transfer classes do not partition the vertices")
            assigned[u] = idx
        parts.append(coset)
    if any(len(p) != report.size for p in parts):
        raise InvariantBreachError("transfer classes have unequal sizes")
    return tuple(parts)


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
                                 z_class: int,
                                 z_label: int = -1) -> NonexistenceWitness | None:
    """Greedy witness search on class-level data.

    Walks the characters whose kernel misses z's class in row order and keeps
    the first one, then each one whose stabilizer has a unit outside the
    closure of those kept, until that closure is every unit.
    """
    values = table.values
    in_kernel = np.abs(values[:, z_class] - values[:, 0]) < table.tolerance
    outside = np.flatnonzero(~in_kernel)
    fixes = galois.stabilizer_mask[outside]
    units = set(galois.units)
    covered = {1}
    chosen: list[int] = []
    pos = 0  # position in outside of the next character to keep
    while pos < len(outside):
        i = int(outside[pos])
        chosen.append(i)
        covered = unit_closure(galois.exponent, covered | set(galois.stabilizers[i]))
        if covered == units:
            return NonexistenceWitness(z=z_label, char_indices=tuple(chosen),
                                       exponent=galois.exponent)
        fresh = ~np.isin(galois.units, list(covered))
        hits = np.flatnonzero((fixes[pos + 1:] & fresh).any(axis=1))
        pos = pos + 1 + int(hits[0]) if hits.size else len(outside)
    return None


def nonexistence_witness(conj: ConjugacyData, table: CharacterTable,
                         galois: GaloisData, z: int) -> NonexistenceWitness | None:
    if z == conj.group.identity:
        return None
    z_class = int(conj.class_of[z])
    return nonexistence_witness_classes(table, galois, z_class, z_label=z)


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

def check_imported_claim(imported: ImportedTable, claim: dict,
                         tol: float = DEFAULT_CONFIG.residual_tol) -> dict:
    """Evaluate one transfer claim shipped inside an imported character table.

    Claim schema: {"z_class": int, "time": tag or float,
    "connection_classes": [int, ...]}. The connection classes are validated
    as a proper orientation using the inversion power map before the
    criterion runs.
    """
    needed = {"z_class", "time", "connection_classes"}
    if not needed.issubset(claim):
        raise SchemaError(f"claim missing keys: {sorted(needed - set(claim))}")
    table = imported.table
    n = table.n_classes
    conn = sorted({int(c) for c in claim["connection_classes"]})
    z_class = int(claim["z_class"])
    if not conn or any(not 0 <= c < n for c in conn) or not 0 <= z_class < n:
        raise InvalidParameterError("claim indices out of range")
    inv_map = imported.power_maps.get(table.exponent - 1) if table.exponent > 1 \
        else tuple(range(n))
    if inv_map is None:
        raise SchemaError("imported table lacks the inversion power map")
    if 0 in conn:
        raise InvalidParameterError("claim connection contains the identity class")
    for c in conn:
        if inv_map[c] == c:
            raise InvalidParameterError(f"claim connection class {c} is real")
        if inv_map[c] in conn:
            raise InvalidParameterError(
                f"claim connection contains the inverse pair {c}, {inv_map[c]}")
    t = parse_time(claim["time"])
    res = check_transfer_classes(table, conn, z_class, t, tol)
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
    residual = max((c.residual for c in report.certificates.values()), default=0.0)
    return {
        "group": graph.group.family_tag,
        "connection_classes": list(graph.conn.class_indices),
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
