"""Complex irreducible character tables.

Three sources feed the same CharacterTable shape: closed forms for powers of
cyclic groups and for the Heisenberg and metacyclic laws (es3, m2), a seeded
class-algebra computation for everything else, and caywalk.interchange for
tables produced outside the package. Galois stabilizers of rows (as subgroups
of the units mod the group exponent) support the rationality arguments used
by the nonexistence machinery.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .config import (
    DEFAULT_SEED,
    MAX_FORM_BYTES,
    MAX_TABLE_CLASSES,
    SEED_BOUND,
    TABLE_RETRIES,
    VALUE_TOL,
)
from .errors import (
    InvalidParameterError,
    NumericalFailureError,
    SchemaError,
    SizeLimitError,
)
from .groups import ConjugacyData, GroupTable, _HeisenbergLaw, family_law

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
    zeta = exp(2*pi*i/r). The closed forms of es3 and m2 keep their
    MonomialForm in `form`, and up to _DENSE_CLASSES classes its values in
    `dense` too, rows in _canonical_row_order. `cyclotomic`, when present,
    stores each value as integer coefficients over the powers of a primitive
    exponent-th root of 1.
    """

    degrees: np.ndarray
    class_sizes: np.ndarray
    exponent: int
    provenance: str
    dense: np.ndarray | None = None
    digits: np.ndarray | None = None
    cyclotomic: np.ndarray | None = None
    form: MonomialForm | None = None

    @cached_property
    def _held(self) -> np.ndarray | None:
        """The k x k values kept: stored, derived once, or None (large closed form)."""
        if self.digits is None or self.n_classes > _DENSE_CLASSES:
            return self.dense
        return roots_of_unity(self.exponent)[self.digits @ self.digits.T % self.exponent]

    def misses(self, classes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """(len(classes), len(rows)) mask of chi_i(c) != chi_i(1): row i's kernel
        misses class c. Exact on a closed form, where it is a nonzero exponent
        of the root of unity (row v misses class w of Z_r^n when v.w != 0 mod
        r); within VALUE_TOL on numerical and imported tables."""
        if self.form is not None:
            return self.form.misses(classes, rows)
        if self.digits is not None:
            r = np.full(self.digits.shape[1], self.exponent)
            return _exponents(self.digits[classes], self.digits[rows], r) != 0
        return ~(np.abs(self._held[np.ix_(rows, classes)].T - self.degrees[rows]) < VALUE_TOL)

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
        if self.form is not None:
            return self.form.columns(uniq)[:, slot[idx]]
        zeta = roots_of_unity(self.exponent)
        return zeta[self.digits @ self.digits[uniq].T % self.exponent][:, slot[idx]]

    def products(self, x: np.ndarray) -> np.ndarray:
        """x @ values for a stack x of row vectors, (..., k). For Z_r^n, this
        sum_v x_v zeta^(v.w) is r^n times x's inverse DFT over the shape (r,)^n."""
        if self._held is not None:
            return x @ self._held
        if self.form is not None:
            return self.form.products(x)
        n = self.digits.shape[1]
        grid = x.reshape(*x.shape[:-1], *(self.exponent,) * n)
        return np.fft.ifftn(grid, axes=tuple(range(-n, 0))).reshape(x.shape) * self.n_chars

    @property
    def values(self) -> np.ndarray:
        """The k x k complex table; a large closed form derives it on each call."""
        return self.columns(np.arange(self.n_classes)) if self._held is None else self._held

    def value_rows(self, lo: int, hi: int) -> np.ndarray:
        """values[lo:hi], entry for entry, without deriving the other rows."""
        if self._held is not None:
            return self._held[lo:hi]
        if self.form is not None:
            return self.form.columns(np.arange(self.n_classes), lo, hi)
        return roots_of_unity(self.exponent)[self.digits[lo:hi] @ self.digits.T % self.exponent]

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


@functools.cache
def roots_of_unity(m: int) -> np.ndarray:
    """exp(2 pi i j / m) for j = 0..m-1, one read-only array per m that every
    table of exponent m shares. Exact where the value is: 1, i, -1 and -i
    are exact, and so are the symmetries of the circle that m admits:
    root m - j is the conjugate of root j, root m/2 - j minus it, and root
    m/4 - j i times it, bit for bit. Values that are real or imaginary by
    symmetry then sum to an exact 0 in the other part. Each j is folded to
    the angle it mirrors, up to a quarter turn, whose cosine and sine give
    its parts; when 4 divides m the sine is the cosine of the complement."""
    j = np.arange(m)
    upper = np.minimum(j, m - j)
    first = np.minimum(upper, m // 2 - upper) if m % 2 == 0 else upper
    angle = 2 * np.pi * np.arange(first.max() + 1) / m
    cos, sin = np.cos(angle), np.sin(angle)
    if m % 4 == 0:
        cos[-1] = 0.0
        sin = cos[::-1]
    re, im = cos[first], sin[first]  # 0.0 - x negates without a -0.0
    roots = np.where(first < upper, 0.0 - re, re) + 1j * np.where(upper < j, 0.0 - im, im)
    roots.flags.writeable = False
    return roots


def _exponents(q: np.ndarray, v: np.ndarray, radices: np.ndarray) -> np.ndarray:
    """sum_l q_l v_l L / r_l mod L, L = lcm(radices), for digit vectors q
    (T, n) and v (c, n): (T, c), the exponent of exp(2 pi i / L) that linear
    character v takes at q. Integer broadcasts only: the sum is held in the
    narrowest signed type for n L, int8 or int16 on every admissible group,
    each digit's products in the narrowest for (r_l - 1)^2."""
    lcm = int(np.lcm.reduce(radices))
    out = np.zeros((len(q), len(v)), dtype=np.min_scalar_type(-len(radices) * lcm - 1))
    for l, r in enumerate(radices.tolist()):
        wide = np.promote_types(out.dtype, np.min_scalar_type(-(r - 1) ** 2 - 1))
        term = np.multiply.outer(q[:, l].astype(wide), v[:, l].astype(wide)) % r * (lcm // r)
        np.add(out, term, out=out, casting="unsafe")  # each term is below L
    return out % lcm


def _places(radices: np.ndarray) -> np.ndarray:
    """Mixed-radix place values, most significant first: digits d have the code d @ places."""
    return np.cumprod(np.r_[1, radices[:0:-1]])[::-1]


@dataclass(eq=False)
class MonomialForm:
    """The closed form of a group whose characters are linear or vanish off
    a cyclic normal subgroup A = <x> of order `modulus` N.

    Linear row v, a digit vector over the `radices` r_l of G/G', sends g to
    exp(2 pi i sum_l v_l q_l / r_l), q the digits of g's image in G/G'.
    Nonlinear row m sends x^i to scale * sum_(tau in twists)
    exp(2 pi i m tau i / N) and every element off A to 0. Column c reads
    its class's representative z: cols[c] = q(z), and coords[c] = i for
    z = x^i, -1 off A. `exponent`, the group's, is a multiple of each r_l
    and of N, so every value is a sum of powers of exp(2 pi i / exponent).
    """

    exponent: int
    radices: np.ndarray
    rows: np.ndarray
    labels: np.ndarray
    modulus: int
    twists: np.ndarray
    scale: int
    cols: np.ndarray
    coords: np.ndarray

    @property
    def degrees(self) -> np.ndarray:
        return np.r_[np.ones(len(self.rows), dtype=np.int64),
                     np.full(len(self.labels), self.scale * len(self.twists))]

    def columns(self, classes: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """values[lo:hi, classes] for a 1-D array of class indices."""
        m, n, size = self.exponent, self.modulus, len(self.rows)
        hi = size + len(self.labels) if hi is None else hi
        linear = (self.rows[lo:hi] * (m // self.radices)) @ self.cols[classes].T % m
        i = self.coords[classes]
        labels = self.labels[max(lo - size, 0):max(hi - size, 0)]
        powers = labels[:, None, None] * self.twists[:, None] * i % n * (m // n)
        zeta = roots_of_unity(m)
        return np.concatenate([zeta[linear], self.scale * zeta[powers].sum(axis=1) * (i >= 0)])

    def products(self, x: np.ndarray) -> np.ndarray:
        """x @ values, (..., k). The linear rows' sum is |G/G'| times x's
        inverse DFT over the shape of the radices, read at each class's q;
        the others' is N * scale times the inverse DFT of x_m spread over
        the residues m*tau, read at each class's i."""
        lead, size, n = x.shape[:-1], len(self.rows), self.modulus
        places = _places(self.radices)
        grid = np.zeros((*lead, size), dtype=complex)
        grid[..., self.rows @ places] = x[..., :size]
        axes = tuple(range(-len(self.radices), 0))
        linear = np.fft.ifftn(grid.reshape(*lead, *self.radices), axes=axes).reshape(grid.shape)
        out = linear[..., self.cols @ places] * size
        spread = np.zeros((*lead, n), dtype=complex)
        for tau in self.twists.tolist():
            spread[..., self.labels * tau % n] += x[..., size:]
        on = np.flatnonzero(self.coords >= 0)
        out[..., on] += np.fft.ifft(spread, axis=-1)[..., self.coords[on]] * (n * self.scale)
        return out

    def misses(self, classes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """CharacterTable.misses, exactly: a linear row misses a class when
        its exponent is nonzero, nonlinear row m misses x^i when
        m i != 0 mod N and every class off A."""
        size, i = len(self.rows), self.coords[classes]
        linear = rows < size
        out = np.empty((len(classes), len(rows)), dtype=bool)
        out[:, linear] = _exponents(self.cols[classes], self.rows[rows[linear]], self.radices) != 0
        labels = self.labels[rows[~linear] - size, None]
        on_a = _exponents(np.maximum(i, 0)[:, None], labels, np.array([self.modulus])) != 0
        out[:, ~linear] = on_a | (i < 0)[:, None]
        return out

    def stabilizers(self) -> GaloisData:
        """GaloisData, exactly: the unit u fixes a linear row when the row's
        additive order o divides u - 1, and nonlinear row m when u*m lies in
        m's orbit {m tau}, that is when u mod N/g lies in {tau mod N/g},
        g = gcd(m, N)."""
        m, n = self.exponent, self.modulus
        orders = np.lcm.reduce(self.radices // np.gcd(self.rows, self.radices), axis=1)
        linear, row = _residue_stabilizers(m, orders, np.ones(1, dtype=np.int64))
        orbits, label = _residue_stabilizers(m, n // np.gcd(self.labels, n), self.twists)
        return GaloisData.from_masks(m, np.concatenate([linear, orbits]),
                                     np.r_[row, len(linear) + label])


class _LawCoordinates(NamedTuple):
    """What a closed form reads of its law: its order, G/G' = prod Z_r
    (radices), the code q(g) @ places of each element's image there, x at
    index `stride` with x^i at stride * i (i < modulus), the multipliers of
    x under conjugation, and the nonlinear degree over their number."""

    order: int
    radices: np.ndarray
    codes: np.ndarray
    stride: int
    modulus: int
    twists: np.ndarray
    scale: int


def _law_coordinates(law, order: int) -> _LawCoordinates:
    """The Heisenberg law keeps (a, b, c) at index 3 * code(a, b) + c: q reads
    the 2n digits of (a, b), and A is the centre {(0, 0, c)}, indices 0..2.
    The metacyclic law keeps x^i y^j at index k i + j: G' = <x^(t - 1)>, so
    q = (i mod d, j) with d = gcd(t - 1, N), and A = <x>, x at index k."""
    g = np.arange(order)
    if isinstance(law, _HeisenbergLaw):
        return _LawCoordinates(3 * law.m**2, np.full(2 * law.n, 3), g // 3, 1, 3,
                               np.ones(1, np.int64), law.m)
    n, k, twists = law.half, law.k, law.twists.astype(np.int64)
    d = math.gcd(int(twists[1]) - 1, n)  # twists[q] = t^q
    i, j = divmod(g, k)
    return _LawCoordinates(n * k, np.array([d, k]), i % d * k + j, k, n, twists, 1)


def _full_orbit_minima(n: int, twists: np.ndarray) -> np.ndarray:
    """Mask of the nonzero residues mod n that are the least of an orbit
    {m tau mod n} with len(twists) members: the labels of the nonlinear rows."""
    orbits = np.arange(n)[:, None] * twists % n
    full = (np.diff(np.sort(orbits, axis=1), axis=1) != 0).all(axis=1)
    return full & (orbits.min(axis=1) == np.arange(n)) & (np.arange(n) != 0)


def _monomial_form(group: GroupTable, law: _LawCoordinates) -> MonomialForm:
    """The form in structural order: linear rows by code, then labels ascending."""
    places = _places(law.radices)
    reps = np.array([cls[0] for cls in group.conj.classes])
    on = (reps % law.stride == 0) & (reps < law.stride * law.modulus)
    return MonomialForm(exponent=group.conj.exponent, radices=law.radices,
                        rows=np.arange(int(np.prod(law.radices)))[:, None] // places % law.radices,
                        labels=np.flatnonzero(_full_orbit_minima(law.modulus, law.twists)),
                        modulus=law.modulus, twists=law.twists, scale=law.scale,
                        cols=law.codes[reps, None] // places % law.radices,
                        coords=np.where(on, reps // law.stride, -1))


def _monomial_defects(group: GroupTable, law: _LawCoordinates, form: MonomialForm) -> list[str]:
    """Exact failures of form as the character table of group, in
    O(|T| |G|) integer steps for the group's generators T.

    On a group of the law's order, q(e) = 0 and q(g s) = q(g) + q(s) for
    every g and each s in T make q a homomorphism (as in _digit_defects),
    onto by its formula, so the rows, the |G/G'| distinct digit vectors,
    are distinct linear characters. x^i at index stride * i, for i mod N,
    make A = <x> cyclic of order N. Heisenberg: A (indices 0..2) lies in
    ker q, which has 3 elements, so A = ker q is normal, hence central in
    a 3-group; the 3^2n + 2 classes then leave the elements off A in
    classes of 3, a coset of A each, so by column orthogonality a nonlinear
    character vanishes there and is chi(1) exp(2 pi i m c / 3) on A, with
    chi(1)^2 = 3^2n from <chi, chi> = 1. Metacyclic: A lies in the kernel
    of q's last digit j, of order |G|/k = N, so A is normal, and y (index
    1, j = 1) conjugates x to x^t: a label's orbit {m t^q} of k members
    induces an irreducible character with the form's values, distinct
    orbits distinct characters (Isaacs, Character Theory of Finite Groups,
    6.11). Row count k and the degrees' squares summing to |G| then make
    the rows every irreducible character.
    """
    conj, order, n = group.conj, group.order, law.modulus
    places, size = _places(law.radices), int(np.prod(law.radices))
    if order != law.order:
        return [f"a group of order {order} does not fit a law of order {law.order}"]
    if group.identity != 0:
        return ["the identity is not element 0"]
    digits = law.codes[:, None] // places % law.radices
    for s in group.generators:
        moved = law.codes[group.multiply(np.arange(order), s)]
        if (moved != (digits + digits[s]) % law.radices @ places).any():
            return [f"right multiplication by element {s} does not add its image in G/G'"]
    cyclic = law.stride * np.arange(n)
    if cyclic[-1] >= order or (group.multiply(cyclic, law.stride) != np.roll(cyclic, -1)).any():
        return [f"the element at index {law.stride} does not step through the multiples "
                f"of {law.stride} below {law.stride * n}"]
    if len(law.twists) > 1 and group.multiply(group.multiply(1, law.stride), group.inv[1]) \
            != law.stride * int(law.twists[1]):
        return [f"y x y^-1 is not x^{law.twists[1]}"]
    problems = []
    rows = form.rows
    if rows.shape != (size, len(law.radices)) or (rows < 0).any() or (rows >= law.radices).any() \
            or not np.array_equal(np.sort(rows @ places), np.arange(size)):
        problems.append("the linear rows are not the characters of G/G'")
    labels = form.labels
    if (labels < 0).any() or (labels >= n).any() or (np.diff(np.sort(labels)) == 0).any() \
            or not _full_orbit_minima(n, law.twists)[labels % n].all():
        problems.append("a nonlinear row's label is not the least of a full orbit")
    if len(rows) + len(labels) != len(conj.classes):
        problems.append(f"{len(rows) + len(labels)} rows for {len(conj.classes)} classes")
    if int((form.degrees ** 2).sum()) != order:
        problems.append("degree squares do not sum to the group order")
    return problems


def _monomial_table(group: GroupTable) -> CharacterTable:
    """The checked closed form of an es3 or m2 group: with its values held
    in _canonical_row_order up to _DENSE_CLASSES classes, the form alone
    above (linear rows by code, then nonlinear rows by label)."""
    law = _law_coordinates(family_law(group.spec), group.order)
    k, size, digits = len(group.conj.classes), int(np.prod(law.radices)), len(law.radices)
    stored = 8 * (size * digits + k * (digits + 1) + max(k - size, 0)) \
        + (16 * k * k if k <= _DENSE_CLASSES else 0)
    if stored > MAX_FORM_BYTES:
        raise SizeLimitError(f"the closed form of {k} classes would store {stored} bytes, "
                             f"over the limit {MAX_FORM_BYTES}")
    form = _monomial_form(group, law)
    defects = _monomial_defects(group, law, form)
    if defects:
        raise NumericalFailureError("closed form failed validation: " + "; ".join(defects))
    table = CharacterTable(degrees=form.degrees, class_sizes=group.conj.sizes,
                           exponent=form.exponent, provenance=PROVENANCE_CLOSED, form=form)
    if k > _DENSE_CLASSES:
        return table
    values = form.columns(np.arange(k))
    order = _canonical_row_order(values, table.degrees)  # degree 1 first: linear rows stay first
    form = dataclasses.replace(form, rows=form.rows[order[:size]],
                               labels=form.labels[order[size:] - size])
    return dataclasses.replace(table, degrees=table.degrees[order], form=form,
                               dense=np.ascontiguousarray(values[order]))


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
    """Checked closed form for the cyclic-power, es3 and m2 families, class
    algebra otherwise (wreath and file groups)."""
    spec = group.spec
    if spec.family in ("extraspecial3", "m2"):
        return _monomial_table(group)
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

    Each distinct stabilizer is held once, as a mask over the m residues, in
    stabilizers; row i's is stabilizers[row_stabilizer[i]]. The residue k
    lies in it when k is a unit and chi_i(g^k) = chi_i(g) for all g; the
    fixed field of row i's stabilizer is the character's field of values.
    """

    exponent: int
    stabilizers: np.ndarray
    row_stabilizer: np.ndarray

    @classmethod
    def from_masks(cls, exponent: int, masks: np.ndarray,
                   ids: np.ndarray | None = None) -> GaloisData:
        """Row i's stabilizer is masks[ids[i]] (masks[i] without ids); equal
        masks are kept once."""
        keys: dict[bytes, int] = {}
        index = np.array([keys.setdefault(mask.tobytes(), len(keys)) for mask in masks],
                         dtype=np.int64)
        return cls(exponent=exponent, stabilizers=masks[np.unique(index, return_index=True)[1]],
                   row_stabilizer=index if ids is None else index[ids])

    @property
    def fixes(self) -> np.ndarray:
        """The (rows x residues) mask of every row's stabilizer."""
        return self.stabilizers[self.row_stabilizer]

    @property
    def units(self) -> np.ndarray:
        return unit_mask(self.exponent)


def _residue_stabilizers(m: int, periods: np.ndarray,
                         twists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(masks, ids) of rows that the unit u fixes when u mod p lies in
    {tau mod p : tau in twists}, p the row's period: one mask per distinct
    period. A linear row's period is its additive order, its twists (1,)."""
    distinct, ids = np.unique(periods, return_inverse=True)
    p = distinct[:, None, None]
    return (np.arange(m)[:, None] % p == twists % p).any(axis=2) & unit_mask(m), ids


def galois_stabilizers(table: CharacterTable, conj: ConjugacyData) -> GaloisData:
    """On a closed form, exactly: unit k fixes row v when (k - 1) v = 0 mod r,
    that is when the additive order r / gcd(r, v) of v divides k - 1 (for
    es3 and m2, MonomialForm.stabilizers); by _galois_walk otherwise."""
    m = table.exponent
    if table.form is not None:
        return table.form.stabilizers()
    if table.digits is None:
        return _galois_walk(table, {k: conj.class_power(k) for k in _unit_generators(m)})
    orders = m // np.gcd(np.gcd.reduce(table.digits, axis=1), m)
    return GaloisData.from_masks(m, *_residue_stabilizers(m, orders, np.ones(1, dtype=np.int64)))


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
    return GaloisData.from_masks(m, fixes)


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
