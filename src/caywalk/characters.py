"""Complex irreducible character tables.

Three sources feed the same CharacterTable shape: a closed form for powers of
cyclic groups, a seeded class-algebra computation for everything else, and a
JSON import path for tables produced outside the package. Galois stabilizers
of rows (as subgroups of the units mod the group exponent) support the
rationality arguments used by the nonexistence machinery.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .config import (
    DEFAULT_SEED,
    MAX_TABLE_CLASSES,
    SEED_BOUND,
    TABLE_RETRIES,
    VALUE_TOL,
)
from .errors import (
    CorruptTableError,
    InvalidParameterError,
    NumericalFailureError,
    SchemaError,
    SizeLimitError,
    check_fields,
    require_keys,
)
from .groups import ConjugacyData, GroupTable

PROVENANCE_CLOSED = "closed-form"
PROVENANCE_NUMERICAL = "numerical"
PROVENANCE_IMPORTED = "imported"

# A closed form of at most this many classes keeps its derived values (1 MB
# at most): one gather or product then beats numpy's FFT over short axes.
_DENSE_CLASSES = 256
# The class algebra's products are formed this many at a time, so that a
# law's temporaries stay near 1 MB (wreath:z:3:4: 6.3 MB at 2^17).
_COMBINATION_ENTRIES = 2**14


@dataclass(eq=False)
class CharacterTable:
    """Rows are irreducible characters, columns are conjugacy classes.

    Column 0 is the identity class. Numerical and imported tables store the
    k x k values in `dense`; the closed form of Z_r^n stores the k x n base-r
    `digits` of its rows and columns, (v, w) holding zeta^(v.w mod r) with
    zeta = exp(2*pi*i/r). `cyclotomic`, when present, stores each value as
    integer coefficients over the powers of a primitive exponent-th root of 1.
    """

    degrees: np.ndarray
    class_sizes: np.ndarray
    exponent: int
    provenance: str
    dense: np.ndarray | None = None
    digits: np.ndarray | None = None
    cyclotomic: np.ndarray | None = None

    @cached_property
    def _zeta(self) -> np.ndarray:
        return np.exp(2j * np.pi * np.arange(self.exponent) / self.exponent)

    @cached_property
    def _held(self) -> np.ndarray | None:
        """The k x k values kept: stored, derived once, or None (large closed form)."""
        if self.digits is None or self.n_classes > _DENSE_CLASSES:
            return self.dense
        return self._zeta[self.digits @ self.digits.T % self.exponent]

    def columns(self, idx) -> np.ndarray:
        """values[:, idx] for an integer array idx of any shape, (k, *idx.shape)."""
        idx = np.asarray(idx, dtype=np.int64)
        if self._held is not None:
            return self._held[:, idx]
        # The columns of the distinct classes in idx, then one gather.
        slot = np.zeros(self.n_classes, dtype=np.int64)
        slot[idx] = 1
        uniq = np.flatnonzero(slot)
        slot[uniq] = np.arange(uniq.size)
        return self._zeta[self.digits @ self.digits[uniq].T % self.exponent][:, slot[idx]]

    def products(self, x: np.ndarray) -> np.ndarray:
        """x @ values for a stack x of row vectors, (..., k). For Z_r^n, this
        sum_v x_v zeta^(v.w) is r^n times x's inverse DFT over the shape (r,)^n."""
        if self._held is not None:
            return x @ self._held
        n = self.digits.shape[1]
        grid = x.reshape(*x.shape[:-1], *(self.exponent,) * n)
        return np.fft.ifftn(grid, axes=tuple(range(-n, 0))).reshape(x.shape) * self.n_chars

    @property
    def values(self) -> np.ndarray:
        """The k x k complex table; a large closed form derives it on each call."""
        return self.columns(np.arange(self.n_classes)) if self._held is None else self._held

    def cyclotomic_row(self, i: int) -> np.ndarray | None:
        """Exact coefficients of row i, (classes x exponent), or None if not exact."""
        if self.cyclotomic is not None:
            return self.cyclotomic[i]
        if self.digits is None:
            return None
        powers = self.digits @ self.digits[i] % self.exponent
        return (powers[:, None] == np.arange(self.exponent)).view(np.int8)

    @property
    def n_chars(self) -> int:
        return len(self.degrees)

    @property
    def n_classes(self) -> int:
        return len(self.class_sizes)

    @property
    def group_order(self) -> int:
        return int(self.class_sizes.sum())


def _table_defects(values: np.ndarray, degrees: np.ndarray,
                   sizes: np.ndarray) -> list[str]:
    """Internal consistency failures of a candidate table, empty when sound."""
    problems = []
    n_chars, n_classes = values.shape
    order = int(sizes.sum())
    if n_chars != n_classes:
        problems.append(f"{n_chars} characters vs {n_classes} classes")
        return problems
    if int((degrees.astype(np.int64) ** 2).sum()) != order:
        problems.append("degree squares do not sum to the group order")
    if np.max(np.abs(values[:, 0] - degrees)) > VALUE_TOL * max(1, degrees.max()):
        problems.append("identity column does not match degrees")

    scaled = values * sizes[None, :]
    gram_rows = scaled @ values.conj().T
    if np.max(np.abs(gram_rows - order * np.eye(n_chars))) > VALUE_TOL * order:
        problems.append("row orthogonality fails")
    gram_cols = values.T @ values.conj()
    expected = np.diag(order / sizes.astype(float))
    if np.max(np.abs(gram_cols - expected)) > VALUE_TOL * order:
        problems.append("column orthogonality fails")
    if np.any(np.abs(values) > degrees[:, None] + VALUE_TOL * max(1, degrees.max())):
        problems.append("a value exceeds its character degree in modulus")
    return problems


def abelian_character_table(r: int, n: int) -> CharacterTable:
    """Closed-form table of Z_r^n: character v sends w to exp(2*pi*i (v.w) / r),
    both at the index whose base-r digits they are. character_table_for ties
    the digits to a group's table (_digit_defects) before use."""
    if r < 1 or n < 1:
        raise InvalidParameterError("need r >= 1 and n >= 1")
    order = r**n
    places = r ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return CharacterTable(
        degrees=np.ones(order, dtype=np.int64),
        class_sizes=np.ones(order, dtype=np.int64),
        exponent=r,
        provenance=PROVENANCE_CLOSED,
        digits=np.arange(order, dtype=np.int64)[:, None] // places % r,
    )


def _digit_defects(group: GroupTable, digits: np.ndarray, r: int) -> list[str]:
    """Exact failures of g -> c(g) = digits[g] as an isomorphism onto Z_r^n.

    If c(e) = 0 and right multiplication by s_k, the element at index
    r^(n-1-k), adds e_k to c(g) for every g and k, then c(s_k1 ... s_km) =
    e_k1 + ... + e_km: c is onto, so one-to-one, and by associativity (the
    law's formula, or the validation of a table), c(gh) = c(g) + c(h). The
    rows are then all |G| irreducible characters: a proof in O(n |G|)
    integer steps, no tolerance.
    """
    order, n = digits.shape
    if order != r**n or group.order != order:
        return [f"shape {digits.shape} does not fit a group of order {group.order}"]
    if digits.min() < 0 or digits.max() >= r:
        return [f"a digit lies outside 0..{r - 1}"]
    if digits[group.identity].any():
        return ["the identity's digit vector is nonzero"]
    if not np.array_equal(group.conj.class_of, np.arange(order)):
        return ["the classes are not the elements in index order"]
    places = r ** np.arange(n - 1, -1, -1, dtype=np.int64)
    code = digits @ places  # c(g) as a base-r number: one-to-one on digits in 0..r-1
    if r == 1:  # Z_1^n is trivial
        return []
    # [g, k]: c(g s_k) from one product, against c(g) with digit k raised
    moved = code[group.multiply(np.arange(order)[:, None], places)]
    raised = code[:, None] + np.where(digits == r - 1, (1 - r) * places, places)
    bad = np.flatnonzero((moved != raised).any(axis=0))
    if bad.size:
        k = int(bad[0])
        return [f"right multiplication by element {places[k]} does not raise digit {k}"]
    return []


def _canonical_row_order(values: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Rows by degree, then by the real and imaginary parts of each value in
    column order, all rounded to 6 decimals; ties keep their order."""
    rounded = np.round(values, 6)
    parts = np.stack([rounded.real, rounded.imag], axis=2).reshape(len(values), -1)
    return np.lexsort(np.vstack([parts.T[::-1], degrees]))  # the last key sorts first


def _class_combination(group: GroupTable, coeff: np.ndarray) -> np.ndarray:
    """M = sum_i coeff[i] M_i over the class matrices: column l bins coeff[class(x)]
    by the class of x^-1 z_l, z_l representing class l, from one product of
    every x^-1 with a block of representatives, at most _COMBINATION_ENTRIES
    products a block. For coeff in 2^-21 Z below 1.5, every partial sum is
    exact, whatever the order."""
    conj = group.conj
    k = len(conj.classes)
    reps = np.array([cls[0] for cls in conj.classes])
    weights = coeff[conj.class_of]
    width = max(1, _COMBINATION_ENTRIES // group.order)
    m = np.empty((k, k))
    for lo in range(0, k, width):
        block = reps[lo:lo + width]
        # partner[x, j] is the class c of x^-1 z_(lo+j), binned at c*len(block) + j.
        partner = conj.class_of[group.multiply(group.inv[:, None], block)]
        cells = (partner * len(block) + np.arange(len(block))).ravel()
        m[:, lo:lo + width] = np.bincount(cells, weights=np.repeat(weights, len(block)),
                                          minlength=k * len(block)).reshape(k, -1)
    return m


_MASK64 = (1 << 64) - 1


def _splitmix64(seed: int) -> Iterator[int]:
    """SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the state steps by the
    golden-ratio increment, and each output is the state after two
    xor-shift-multiply rounds and a final xor-shift, all mod 2^64. Plain
    integer arithmetic, so a seed gives the same stream under any numpy."""
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ state >> 30) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ z >> 27) * 0x94D049BB133111EB) & _MASK64
        yield z ^ z >> 31


def character_table_numerical(group: GroupTable, seed: int = DEFAULT_SEED) -> CharacterTable:
    """Character table via simultaneous eigenvectors of the class matrices.

    A seeded real combination of the class multiplication matrices
    generically has simple spectrum; its eigenvectors are the central
    characters, from which degrees and values follow. Each attempt takes the
    next k draws x of the seed's SplitMix64 stream as the coefficients
    (2^20 + (x >> 43)) / 2^21, multiples of 2^-21 in [0.5, 1.5), so a
    degenerate draw is retried deterministically in the seed.
    """
    seed = operator.index(seed)
    if not 0 <= seed < SEED_BOUND:
        raise InvalidParameterError(f"seed {seed} is outside 0..{SEED_BOUND - 1}")
    conj = group.conj
    k = len(conj.classes)
    if k > MAX_TABLE_CLASSES:
        raise SizeLimitError(f"{k} classes exceeds numerical cap {MAX_TABLE_CLASSES}")
    order = group.order
    sizes = conj.sizes
    stream = _splitmix64(seed)

    last_problem = "no attempt"
    for _ in range(TABLE_RETRIES):
        coeff = np.array([(1 << 20) + (x >> 43) for x in islice(stream, k)]) / (1 << 21)
        eigvals, eigvecs = np.linalg.eig(_class_combination(group, coeff))
        scale = max(1.0, float(np.max(np.abs(eigvals))))
        gaps = np.abs(eigvals[:, None] - eigvals[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() < 1e-6 * scale:
            last_problem = "degenerate eigenvalues"
            continue

        anchor = eigvecs[0, :]
        if np.min(np.abs(anchor)) < 1e-10:
            last_problem = "eigenvector vanishes at the identity class"
            continue
        omega = eigvecs / anchor[None, :]

        raw_degrees = np.sqrt(order / np.sum(np.abs(omega.T) ** 2 / sizes[None, :], axis=1))
        degrees = np.rint(raw_degrees).astype(np.int64)
        if np.any(degrees < 1) or \
                np.max(np.abs(raw_degrees - degrees)) > VALUE_TOL * max(1, degrees.max()):
            last_problem = "degrees failed to round to integers"
            continue

        values = omega.T * (degrees[:, None] / sizes[None, :])
        row_order = _canonical_row_order(values, degrees)
        values = np.ascontiguousarray(values[row_order])
        degrees = degrees[row_order]

        problems = _table_defects(values, degrees, sizes)
        if problems:
            last_problem = "; ".join(problems)
            continue
        return CharacterTable(dense=values, degrees=degrees,
                              class_sizes=sizes.copy(), exponent=conj.exponent,
                              provenance=PROVENANCE_NUMERICAL)
    raise NumericalFailureError(
        f"character table did not converge after {TABLE_RETRIES} attempts: {last_problem}")


def character_table_for(group: GroupTable, seed: int = DEFAULT_SEED) -> CharacterTable:
    """Checked closed form for the cyclic-power families, class algebra otherwise."""
    spec = group.spec
    if spec.family not in ("cyclic", "abelian"):
        return character_table_numerical(group, seed=seed)
    table = abelian_character_table(spec.r, spec.n if spec.family == "abelian" else 1)
    defects = _digit_defects(group, table.digits, spec.r)
    if defects:
        raise NumericalFailureError("closed form failed validation: " + "; ".join(defects))
    return table


# ---------------------------------------------------------------------------
# Galois action on rows

def units_mod(m: int) -> tuple[int, ...]:
    """The units mod m as integers 1..m-1; (1,) for m = 1, where 1 is 0 mod 1."""
    return (1,) if m <= 1 else tuple(np.flatnonzero(unit_mask(m)).tolist())


def unit_mask(m: int) -> np.ndarray:
    """Mask of the residues mod m that are units (for m = 1, the one residue)."""
    return np.gcd(np.arange(m), m) == 1


@dataclass(frozen=True)
class GaloisData:
    """Per-character stabilizers inside the unit group mod the exponent m.

    fixes[i, k] is True when the residue k is a unit and chi_i(g^k) = chi_i(g)
    for all g; the fixed field of row i's stabilizer is the character's field
    of values. Every unit subgroup here is a mask over the m residues.
    """

    exponent: int
    fixes: np.ndarray

    @property
    def units(self) -> np.ndarray:
        return unit_mask(self.exponent)


def galois_stabilizers(table: CharacterTable, conj: ConjugacyData) -> GaloisData:
    """On a closed form, exactly: unit k fixes row v when (k - 1) v = 0 mod r,
    that is when the additive order r / gcd(r, v) of v divides k - 1."""
    m = table.exponent
    if table.digits is None:
        return _galois_walk(table, {k: conj.class_power(k) for k in _unit_generators(m)})
    orders = m // np.gcd(np.gcd.reduce(table.digits, axis=1), m)
    distinct, row = np.unique(orders, return_inverse=True)
    fixes = ((np.arange(m) - 1) % distinct[:, None] == 0) & unit_mask(m)
    return GaloisData(exponent=m, fixes=fixes[row])


def _galois_walk(table: CharacterTable,
                 generator_maps: Mapping[int, Sequence[int]]) -> GaloisData:
    """Unit u fixes row i when sigma_u(i) = i, sigma_u the permutation of the
    rows that u's class power map P_u induces: row i composed with P_u is
    row sigma_u(i).

    generator_maps holds P_g for each generator g of the units mod the
    exponent; only those are matched on the table, and every other unit's
    sigma_u is composed along _walk_units, with sigma_(ug) = sigma_g o sigma_u.
    """
    m, k = table.exponent, table.n_chars
    identity = np.arange(k)
    walk = _walk_units(m, identity, {g: _row_permutation(table.values, np.asarray(g_map))
                                     for g, g_map in generator_maps.items()})
    fixes = np.zeros((k, m), dtype=bool)
    for u, sigma in walk.items():
        fixes[:, u % m] = sigma == identity
    return GaloisData(exponent=m, fixes=fixes)


def _walk_units(m: int, start: np.ndarray,
                steps: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Every unit mod m with its permutation, reached breadth-first from 1,
    which has start, as in unit_closure: steps holds that of each generator
    g, and u*g gets g's composed after u's, P_g[P_u]."""
    walk, frontier, seen = {}, {1: start}, {1 % m}
    while frontier:
        walk.update(frontier)
        reached = {}
        for u, perm in frontier.items():
            for g, g_perm in steps.items():
                if u * g % m not in seen:
                    seen.add(u * g % m)
                    reached[u * g % m] = g_perm[perm]
        frontier = reached
    return walk


def _check_power_maps(power_maps: Mapping[int, Sequence[int]], m: int, n_classes: int) -> None:
    """power_maps must hold the maps of the generators of the units mod m,
    and every map in it must be their composition, P_(ug) = P_g o P_u."""
    gens = _unit_generators(m)
    missing = [g for g in gens if g not in power_maps]
    if missing:
        raise SchemaError(f"power maps missing for the unit generators {missing}")
    walk = _walk_units(m, np.arange(n_classes), {g: np.asarray(power_maps[g]) for g in gens})
    for u, power_map in walk.items():
        if u in power_maps and not np.array_equal(power_maps[u], power_map):
            raise SchemaError(f"power map for k={u} is not the composition "
                              f"of the maps of the generators {gens}")


def _row_permutation(values: np.ndarray, power_map: np.ndarray) -> np.ndarray:
    """sigma with values[i, power_map] equal to values[sigma[i]] within
    VALUE_TOL, entry by entry.

    Candidates come from a generic real key per row, Re(values @ w) with
    w_c = exp(ic): rows equal within VALUE_TOL have keys within VALUE_TOL * k.
    Each match is checked on the whole row; where the nearest key is not the
    match, every row within that slack is tried before the row counts as
    unmatched.
    """
    k = len(values)
    weights = np.exp(1j * np.arange(k))
    moved = values[:, power_map]
    keys, moved_keys = (values @ weights).real, (moved @ weights).real
    order = np.argsort(keys)
    lo = np.searchsorted(keys[order], moved_keys - VALUE_TOL * k)
    hi = np.searchsorted(keys[order], moved_keys + VALUE_TOL * k, side="right")
    sigma = order[np.minimum(lo, k - 1)]
    unmatched = np.abs(moved - values[sigma]).max(axis=1) >= VALUE_TOL
    for i in np.flatnonzero(unmatched):
        near = [j for j in order[lo[i]:hi[i]] if np.abs(moved[i] - values[j]).max() < VALUE_TOL]
        if not near:
            raise NumericalFailureError(
                f"character {i} composed with a class power map matches no character")
        sigma[i] = near[0]
    return sigma


def _unit_generators(m: int) -> list[int]:
    """Generators of the units mod m: each unit, in order, that the ones
    before it do not generate (at most log2 of their count)."""
    gens, reached = [], unit_closure(m, ())
    for u in units_mod(m):
        if not reached[u % m]:
            gens.append(u)
            reached = unit_closure(m, [u], reached)
    return gens


def unit_closure(m: int, seeds: Iterable[int], start: np.ndarray | None = None) -> np.ndarray:
    """Mask of the subgroup of the units mod m generated by seeds and, when
    given, the subgroup whose mask is start.

    Breadth-first as groups.subgroup_closure: each level multiplies the whole
    frontier by every seed mod m and keeps the products not reached before.
    """
    gens = np.fromiter(seeds, dtype=np.int64) % m
    seen = np.zeros(m, dtype=bool) if start is None else start.copy()
    seen[1 % m] = True
    frontier = np.flatnonzero(seen)
    while frontier.size:
        fresh = np.zeros_like(seen)
        fresh[frontier[:, None] * gens % m] = True
        fresh &= ~seen
        seen |= fresh
        frontier = np.flatnonzero(fresh)
    return seen


# ---------------------------------------------------------------------------
# JSON interchange

@dataclass(eq=False)
class ImportedTable:
    """A character table plus the class bookkeeping shipped alongside it."""

    table: CharacterTable
    rep_orders: tuple[int, ...]
    power_maps: dict[int, tuple[int, ...]]
    claims: tuple[dict, ...] = ()


def export_character_table(table: CharacterTable, conj: ConjugacyData) -> dict:
    rep_orders = conj.orders[[cls[0] for cls in conj.classes]].tolist()
    power_maps = {str(k): list(conj.class_power(k)) for k in units_mod(table.exponent)}
    characters = []
    values = table.values
    for i in range(table.n_chars):
        entry: dict = {
            "degree": int(table.degrees[i]),
            "values": [[float(v.real), float(v.imag)] for v in values[i]],
        }
        coefficients = table.cyclotomic_row(i)
        if coefficients is not None:
            entry["cyclotomic"] = coefficients.tolist()
        characters.append(entry)
    return {
        "group_order": table.group_order,
        "exponent": table.exponent,
        "class_sizes": [int(s) for s in table.class_sizes],
        "class_rep_orders": rep_orders,
        "class_power_maps": power_maps,
        "characters": characters,
    }


def _int_list(x) -> bool:
    """True for a JSON list of integers; floats and booleans are not integers."""
    return isinstance(x, list) and all(type(v) is int for v in x)


def _number_pairs(x) -> bool:
    """True for a JSON list of [re, im] pairs of numbers; strings and
    booleans are not numbers."""
    return isinstance(x, list) and all(
        isinstance(p, list) and len(p) == 2 and all(type(v) in (int, float) for v in p)
        for p in x)


def import_character_table(doc: dict) -> ImportedTable:
    """Validate and load an externally produced character table.

    Values may come as [re, im] pairs or as integer coefficient vectors over
    the power basis of a primitive exponent-th root of unity; the exact form
    wins when both are present.
    """
    require_keys(doc, ("characters", "class_power_maps", "class_rep_orders", "class_sizes",
                       "exponent", "group_order"), "character table document")

    order, m, chars = doc["group_order"], doc["exponent"], doc["characters"]
    maps = doc["class_power_maps"]
    check_fields("character table document", (
        (type(order) is int, "group_order must be an integer"),
        (type(m) is int and m >= 1, "exponent must be a positive integer"),
        *((_int_list(doc[key]), f"{key} must be a list of integers")
          for key in ("class_sizes", "class_rep_orders")),
        (isinstance(chars, list) and all(isinstance(ch, dict) and type(ch.get("degree")) is int
                                         for ch in chars),
         "every character needs an integer degree"),
        (isinstance(maps, dict) and all(map(_int_list, maps.values())),
         "class_power_maps must map each unit to a list of integers")))
    sizes = np.array(doc["class_sizes"], dtype=np.int64)
    rep_orders, n_classes = tuple(doc["class_rep_orders"]), len(sizes)
    check_fields("character table document", (
        (int(sizes.sum()) == order, "class sizes do not sum to the group order"),
        (len(rep_orders) == n_classes, "class_rep_orders length mismatch"),
        (sizes[:1].tolist() == [1] and rep_orders[:1] == (1,),
         "class 0 must be the identity class"),
        (len(chars) == n_classes, f"{len(chars)} characters vs {n_classes} classes"),
        (set(maps) <= set(map(str, units_mod(m))),
         "class_power_maps keys must be the units 1..exponent-1 in decimal"),
        (all(isinstance(rows := ch.get("cyclotomic", []), list) and all(map(_int_list, rows))
             for ch in chars), "cyclotomic coefficients must be lists of integers"),
        (all(_number_pairs(ch["values"]) for ch in chars
             if "values" in ch and "cyclotomic" not in ch),
         "values must be lists of [re, im] number pairs")))

    zeta = np.exp(2j * np.pi * np.arange(m) / m)
    values = np.zeros((n_classes, n_classes), dtype=np.complex128)
    degrees = np.zeros(n_classes, dtype=np.int64)
    cyclo = None
    if all("cyclotomic" in ch for ch in chars):
        cyclo = np.zeros((n_classes, n_classes, m), dtype=np.int64)
    for i, ch in enumerate(chars):
        degrees[i] = ch["degree"]
        if "cyclotomic" in ch:
            coeffs = np.array(ch["cyclotomic"], dtype=np.int64)
            if coeffs.shape != (n_classes, m):
                raise SchemaError(f"character {i} cyclotomic shape mismatch")
            values[i] = coeffs @ zeta
            if cyclo is not None:
                cyclo[i] = coeffs
        elif "values" in ch:
            pairs = np.array(ch["values"], dtype=np.float64)
            if pairs.shape != (n_classes, 2):
                raise SchemaError(f"character {i} values shape mismatch")
            values[i] = pairs[:, 0] + 1j * pairs[:, 1]
        else:
            raise SchemaError(f"character {i} has neither values nor cyclotomic")

    power_maps: dict[int, tuple[int, ...]] = {}
    for key, perm in maps.items():
        perm_t = tuple(perm)
        if sorted(perm_t) != list(range(n_classes)) or perm_t[0] != 0:
            raise SchemaError(f"power map for k={key} is not a class permutation fixing 0")
        power_maps[int(key)] = perm_t
    _check_power_maps(power_maps, m, n_classes)

    defects = _table_defects(values, degrees, sizes)
    if defects:
        raise CorruptTableError("imported table fails validation: " + "; ".join(defects))

    claims = tuple(doc.get("pst_claims", ()))
    table = CharacterTable(dense=values, degrees=degrees, class_sizes=sizes,
                           exponent=m, provenance=PROVENANCE_IMPORTED, cyclotomic=cyclo)
    return ImportedTable(table=table, rep_orders=rep_orders,
                         power_maps=power_maps, claims=claims)


def load_character_table(path: str) -> ImportedTable:
    with open(path, "r", encoding="utf-8") as fh:
        return import_character_table(json.load(fh))
