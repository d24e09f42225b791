"""Complex irreducible character tables.

Three sources feed the same CharacterTable shape: a closed form for powers of
cyclic groups, a seeded class-algebra computation for everything else, and a
JSON import path for tables produced outside the package. Galois stabilizers
of rows (as subgroups of the units mod the group exponent) support the
rationality arguments used by the nonexistence machinery.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import (
    DEFAULT_SEED,
    MAX_TABLE_CLASSES,
    TABLE_RETRIES,
    VALUE_TOL,
)
from .errors import (
    CorruptTableError,
    InvalidParameterError,
    NumericalFailureError,
    SchemaError,
    SizeLimitError,
)
from .groups import ConjugacyData, GroupTable, element_order

PROVENANCE_CLOSED = "closed-form"
PROVENANCE_NUMERICAL = "numerical"
PROVENANCE_IMPORTED = "imported"

# _stabilizers_from compares this many table entries (16 MB) at a time.
_GALOIS_BLOCK_ENTRIES = 2**20


@dataclass(eq=False)
class CharacterTable:
    """Rows are irreducible characters, columns are conjugacy classes.

    Column 0 is the identity class. `cyclotomic`, when present, stores each
    value exactly as integer coefficients over the power basis of a primitive
    exponent-th root of unity.
    """

    values: np.ndarray
    degrees: np.ndarray
    class_sizes: np.ndarray
    exponent: int
    provenance: str
    tolerance: float = VALUE_TOL
    cyclotomic: np.ndarray | None = None

    @property
    def n_chars(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]

    @property
    def group_order(self) -> int:
        return int(self.class_sizes.sum())


def _table_defects(values: np.ndarray, degrees: np.ndarray,
                   sizes: np.ndarray, tol: float) -> list[str]:
    """Internal consistency failures of a candidate table, empty when sound."""
    problems = []
    n_chars, n_classes = values.shape
    order = int(sizes.sum())
    if n_chars != n_classes:
        problems.append(f"{n_chars} characters vs {n_classes} classes")
        return problems
    if int((degrees.astype(np.int64) ** 2).sum()) != order:
        problems.append("degree squares do not sum to the group order")
    if np.max(np.abs(values[:, 0] - degrees)) > tol * max(1, degrees.max()):
        problems.append("identity column does not match degrees")

    scaled = values * sizes[None, :]
    gram_rows = scaled @ values.conj().T
    if np.max(np.abs(gram_rows - order * np.eye(n_chars))) > tol * order:
        problems.append("row orthogonality fails")
    gram_cols = values.T @ values.conj()
    expected = np.diag(order / sizes.astype(float))
    if np.max(np.abs(gram_cols - expected)) > tol * order:
        problems.append("column orthogonality fails")
    if np.any(np.abs(values) > degrees[:, None] + tol * max(1, degrees.max())):
        problems.append("a value exceeds its character degree in modulus")
    return problems


def abelian_character_table(r: int, n: int, tol: float = VALUE_TOL) -> CharacterTable:
    """Closed-form table of Z_r^n.

    Character v sends element w to exp(2*pi*i * (v.w) / r); rows and columns
    share the digit-vector enumeration of the group elements. The exponents
    v.w mod r are checked exactly by _closed_form_defects before use.
    """
    if r < 1 or n < 1:
        raise InvalidParameterError("need r >= 1 and n >= 1")
    order = r**n
    dots = _pairing_matrix(r, n)
    defects = _closed_form_defects(dots, r, n)
    if defects:
        raise NumericalFailureError("closed form failed validation: " + "; ".join(defects))
    zeta = np.exp(2j * np.pi * np.arange(r) / r)
    # cyclotomic[v, w] is the one-hot vector of dots[v, w], built as the
    # planes dots == k and viewed as (v, w, k); 0/1 fits int8 for every r.
    planes = dots == np.arange(r, dtype=dots.dtype)[:, None, None]
    cyclotomic = np.moveaxis(planes, 0, -1).view(np.int8)
    return CharacterTable(
        values=zeta[dots],
        degrees=np.ones(order, dtype=np.int64),
        class_sizes=np.ones(order, dtype=np.int64),
        exponent=r,
        provenance=PROVENANCE_CLOSED,
        tolerance=tol,
        cyclotomic=cyclotomic,
    )


def _pairing_matrix(r: int, n: int) -> np.ndarray:
    """D[v, w] = v.w mod r over base-r digit vectors, most significant first.

    Grown one leading digit at a time like groups.build_abelian_power:
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


def _closed_form_defects(dots: np.ndarray, r: int, n: int) -> list[str]:
    """Exact failures of an exponent matrix as the table of Z_r^n, empty when sound.

    Row v is read as the function w -> dots[v, w] into Z_r. It is a
    homomorphism when it vanishes at 0 and, for every generator e_k and every
    g, dots[v, g + e_k] = dots[v, g] + dots[v, e_k] mod r: every element is a
    sum of generators from 0, so the row is then the homomorphism its
    generator images define. Rows with pairwise distinct generator images
    are |G| distinct linear characters of an abelian group of order |G|,
    which is all of its irreducible characters: the check is a proof, with
    no tolerance.
    """
    order = r**n
    if dots.shape != (order, order):
        return [f"shape {dots.shape} is not {order} x {order}"]
    if dots.min() < 0 or dots.max() >= r:
        return [f"an exponent lies outside 0..{r - 1}"]
    if np.any(dots[:, 0] != 0):
        return ["a row is nonzero at the identity"]
    if r == 1:
        return []  # the trivial group: its one row is the trivial character
    gens = [r ** (n - 1 - k) for k in range(n)]
    for k, place in enumerate(gens):
        # Column g + e_k of row v sits one step further along digit k of g.
        grid = dots.reshape(order, r**k, r, place)
        diff = np.roll(grid, -1, axis=2).reshape(order, order)
        diff -= dots
        diff -= dots[:, place:place + 1]
        # Every term lies in 0..r-1, so diff = 0 mod r means diff is 0 or -r.
        if not np.all((diff == 0) | (diff == -r)):
            return [f"a row is not additive along generator {place}"]
    images = dots[:, gens].astype(np.int64) @ (r ** np.arange(n - 1, -1, -1, dtype=np.int64))
    if np.unique(images).size != order:
        return ["two rows agree on every generator"]
    return []


def _canonical_row_order(values: np.ndarray, degrees: np.ndarray) -> list[int]:
    keys = []
    for i in range(values.shape[0]):
        row = values[i]
        keys.append((int(degrees[i]),
                     tuple((round(float(v.real), 6), round(float(v.imag), 6))
                           for v in row)))
    return sorted(range(values.shape[0]), key=lambda i: keys[i])


def structure_constants(group: GroupTable, conj: ConjugacyData) -> np.ndarray:
    """Class-algebra constants a[i, j, l]: K_i * K_j = sum_l a[i,j,l] K_l."""
    k = len(conj.classes)
    order = group.order
    reps = [cls[0] for cls in conj.classes]
    a = np.zeros((k, k, k), dtype=np.float64)
    class_of = conj.class_of
    everyone = np.arange(order)
    for l, z in enumerate(reps):
        partner = group.mul[group.inv[everyone], z]
        np.add.at(a, (class_of, class_of[partner], np.full(order, l)), 1.0)
    return a


def character_table_numerical(group: GroupTable, conj: ConjugacyData,
                              seed: int = DEFAULT_SEED, tol: float = VALUE_TOL,
                              retries: int = TABLE_RETRIES,
                              max_classes: int = MAX_TABLE_CLASSES) -> CharacterTable:
    """Character table via simultaneous eigenvectors of the class matrices.

    A random (seeded) real combination of the class multiplication matrices
    generically has simple spectrum; its eigenvectors are the central
    characters, from which degrees and values follow. Degenerate draws are
    retried with fresh coefficients, deterministically in the seed.
    """
    k = len(conj.classes)
    if k > max_classes:
        raise SizeLimitError(f"{k} classes exceeds numerical cap {max_classes}")
    order = group.order
    sizes = conj.sizes
    a = structure_constants(group, conj)
    rng = np.random.default_rng(seed)

    last_problem = "no attempt"
    for _ in range(retries):
        coeff = rng.uniform(0.5, 1.5, size=k)
        m = np.tensordot(coeff, a, axes=(0, 0))
        eigvals, eigvecs = np.linalg.eig(m)
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
        if np.any(degrees < 1) or np.max(np.abs(raw_degrees - degrees)) > tol * max(1, degrees.max()):
            last_problem = "degrees failed to round to integers"
            continue

        values = omega.T * (degrees[:, None] / sizes[None, :])
        row_order = _canonical_row_order(values, degrees)
        values = np.ascontiguousarray(values[row_order])
        degrees = degrees[row_order]

        problems = _table_defects(values, degrees, sizes, tol)
        if problems:
            last_problem = "; ".join(problems)
            continue
        return CharacterTable(values=values, degrees=degrees,
                              class_sizes=sizes.copy(), exponent=conj.exponent,
                              provenance=PROVENANCE_NUMERICAL, tolerance=tol)
    raise NumericalFailureError(
        f"character table did not converge after {retries} attempts: {last_problem}")


def character_table_for(group: GroupTable, conj: ConjugacyData,
                        seed: int = DEFAULT_SEED, tol: float = VALUE_TOL) -> CharacterTable:
    """Closed form for the cyclic-power families, class algebra otherwise."""
    spec = group.spec
    if spec.family == "cyclic":
        return abelian_character_table(spec.r, 1, tol)
    if spec.family == "abelian":
        return abelian_character_table(spec.r, spec.n, tol)
    return character_table_numerical(group, conj, seed=seed, tol=tol)


def kernel(table: CharacterTable, char_index: int, conj: ConjugacyData) -> tuple[int, ...]:
    """Elements whose class value matches the degree (the character's kernel)."""
    row = table.values[char_index]
    deg = row[0]
    kept = [j for j in range(table.n_classes) if abs(row[j] - deg) < table.tolerance]
    out: list[int] = []
    for j in kept:
        out.extend(conj.classes[j])
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Galois action on rows

def units_mod(m: int) -> tuple[int, ...]:
    if m <= 1:
        return (1,)
    return tuple(k for k in range(1, m) if math.gcd(k, m) == 1)


@dataclass(frozen=True)
class GaloisData:
    """Per-character stabilizers inside the unit group mod the exponent.

    stabilizers[i] is the set of units k with chi_i(g^k) = chi_i(g) for all g;
    the fixed field of that subgroup is the character's field of values.
    """

    exponent: int
    units: tuple[int, ...]
    stabilizers: tuple[tuple[int, ...], ...]

    @cached_property
    def stabilizer_mask(self) -> np.ndarray:
        """mask[i, u] is True when units[u] lies in stabilizers[i]."""
        pos = {k: u for u, k in enumerate(self.units)}
        mask = np.zeros((len(self.stabilizers), len(self.units)), dtype=bool)
        for i, stab in enumerate(self.stabilizers):
            mask[i, [pos[k] for k in stab]] = True
        return mask


def _stabilizers_from(table: CharacterTable,
                      power_perm: Callable[[int], Sequence[int]],
                      units: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    values = table.values
    perms = [np.asarray(power_perm(k)) for k in units]
    fixed = np.empty((table.n_chars, len(units)), dtype=bool)
    block = max(1, _GALOIS_BLOCK_ENTRIES // table.n_classes)
    for lo in range(0, table.n_chars, block):
        rows = values[lo:lo + block]
        for u, perm in enumerate(perms):
            drift = np.max(np.abs(rows[:, perm] - rows), axis=1)
            fixed[lo:lo + block, u] = drift < table.tolerance
    return tuple(tuple(k for k, f in zip(units, row) if f) for row in fixed.tolist())


def galois_stabilizers(table: CharacterTable, conj: ConjugacyData) -> GaloisData:
    m = table.exponent
    units = units_mod(m)
    stabs = _stabilizers_from(table, conj.class_power, units)
    return GaloisData(exponent=m, units=units, stabilizers=stabs)


def galois_stabilizers_imported(table: CharacterTable,
                                power_maps: dict[int, tuple[int, ...]]) -> GaloisData:
    m = table.exponent
    units = units_mod(m)
    missing = [k for k in units if k not in power_maps]
    if missing:
        raise SchemaError(f"power maps missing for units {missing}")
    stabs = _stabilizers_from(table, lambda k: power_maps[k], units)
    return GaloisData(exponent=m, units=units, stabilizers=stabs)


def unit_closure(m: int, seed: Iterable[int]) -> set[int]:
    """Multiplicative closure of seed (plus 1) inside the units mod m."""
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


def rational_intersection(galois: GaloisData, char_indices: Sequence[int]) -> bool:
    """True when the chosen characters' fields of values intersect in Q.

    Equivalent statement on the Galois side: the union of their stabilizers
    generates the whole unit group mod the exponent.
    """
    seed: set[int] = set()
    for i in char_indices:
        seed.update(galois.stabilizers[i])
    return unit_closure(galois.exponent, seed) == set(galois.units)


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
    reps = [cls[0] for cls in conj.classes]
    rep_orders = [element_order(conj.group, rep) for rep in reps]
    power_maps = {str(k): list(conj.class_power(k)) for k in units_mod(table.exponent)}
    characters = []
    for i in range(table.n_chars):
        entry: dict = {
            "degree": int(table.degrees[i]),
            "values": [[float(v.real), float(v.imag)] for v in table.values[i]],
        }
        if table.cyclotomic is not None:
            entry["cyclotomic"] = table.cyclotomic[i].tolist()
        characters.append(entry)
    return {
        "group_order": table.group_order,
        "exponent": table.exponent,
        "class_sizes": [int(s) for s in table.class_sizes],
        "class_rep_orders": rep_orders,
        "class_power_maps": power_maps,
        "characters": characters,
    }


def import_character_table(doc: dict, tol: float = VALUE_TOL) -> ImportedTable:
    """Validate and load an externally produced character table.

    Values may come as [re, im] pairs or as integer coefficient vectors over
    the power basis of a primitive exponent-th root of unity; the exact form
    wins when both are present.
    """
    required = {"group_order", "exponent", "class_sizes", "class_rep_orders",
                "class_power_maps", "characters"}
    if not isinstance(doc, dict) or not required.issubset(doc):
        missing = required - set(doc) if isinstance(doc, dict) else required
        raise SchemaError(f"character table document missing keys: {sorted(missing)}")

    order = doc["group_order"]
    m = int(doc["exponent"])
    if m < 1:
        raise SchemaError("exponent must be a positive integer")
    sizes = np.array(doc["class_sizes"], dtype=np.int64)
    rep_orders = tuple(int(x) for x in doc["class_rep_orders"])
    n_classes = len(sizes)
    if int(sizes.sum()) != order:
        raise SchemaError("class sizes do not sum to the group order")
    if len(rep_orders) != n_classes:
        raise SchemaError("class_rep_orders length mismatch")
    if sizes[0] != 1 or rep_orders[0] != 1:
        raise SchemaError("class 0 must be the identity class")
    if len(doc["characters"]) != n_classes:
        raise SchemaError(
            f"{len(doc['characters'])} characters vs {n_classes} classes")

    zeta = np.exp(2j * np.pi * np.arange(m) / m)
    values = np.zeros((n_classes, n_classes), dtype=np.complex128)
    degrees = np.zeros(n_classes, dtype=np.int64)
    cyclo = None
    if all("cyclotomic" in ch for ch in doc["characters"]):
        cyclo = np.zeros((n_classes, n_classes, m), dtype=np.int64)
    for i, ch in enumerate(doc["characters"]):
        if "degree" not in ch:
            raise SchemaError(f"character {i} missing degree")
        degrees[i] = int(ch["degree"])
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
    for key, perm in doc["class_power_maps"].items():
        perm_t = tuple(int(x) for x in perm)
        if sorted(perm_t) != list(range(n_classes)) or perm_t[0] != 0:
            raise SchemaError(f"power map for k={key} is not a class permutation fixing 0")
        power_maps[int(key)] = perm_t

    defects = _table_defects(values, degrees, sizes, tol)
    if defects:
        raise CorruptTableError("imported table fails validation: " + "; ".join(defects))

    claims = tuple(doc.get("pst_claims", ()))
    table = CharacterTable(values=values, degrees=degrees, class_sizes=sizes,
                           exponent=m, provenance=PROVENANCE_IMPORTED,
                           tolerance=tol, cyclotomic=cyclo)
    return ImportedTable(table=table, rep_orders=rep_orders,
                         power_maps=power_maps, claims=claims)


def load_character_table(path: str, tol: float = VALUE_TOL) -> ImportedTable:
    with open(path, "r", encoding="utf-8") as fh:
        return import_character_table(json.load(fh), tol)


def character_table_to_json_str(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
