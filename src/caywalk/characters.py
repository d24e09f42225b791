"""Complex irreducible character tables.

Three sources feed the same CharacterTable shape: closed forms for powers of
cyclic groups and for the Heisenberg and metacyclic laws (es3, m2), a seeded
class-algebra computation for everything else, and a JSON import path for
tables produced outside the package. Galois stabilizers of rows (as subgroups
of the units mod the group exponent) support the rationality arguments used
by the nonexistence machinery.
"""
from __future__ import annotations

import dataclasses
import functools
import json
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
    CorruptTableError,
    InvalidParameterError,
    NumericalFailureError,
    SchemaError,
    SizeLimitError,
    check_fields,
    require_keys,
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
        if self.form is not None:
            return self.form.columns(uniq)[:, slot[idx]]
        return self._zeta[self.digits @ self.digits[uniq].T % self.exponent][:, slot[idx]]

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
        return self._zeta[self.digits[lo:hi] @ self.digits.T % self.exponent]

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

    @cached_property
    def _zeta(self) -> np.ndarray:
        return np.exp(2j * np.pi * np.arange(self.exponent) / self.exponent)

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
        return np.concatenate([self._zeta[linear],
                               self.scale * self._zeta[powers].sum(axis=1) * (i >= 0)])

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

    def fixes(self) -> np.ndarray:
        """GaloisData.fixes, exactly: the unit u fixes a linear row when the
        row's additive order divides u - 1, and nonlinear row m when u*m lies
        in m's orbit {m tau}, whose least member each label is."""
        m, n = self.exponent, self.modulus
        u = np.arange(m)
        orders = np.lcm.reduce(self.radices // np.gcd(self.rows, self.radices), axis=1)
        seen = np.bincount(orders) > 0  # the distinct orders, without np.unique (numpy.ma)
        divides = (u - 1) % np.flatnonzero(seen)[:, None] == 0
        least = (np.arange(n)[:, None] * self.twists % n).min(axis=1)
        return np.concatenate([divides[np.cumsum(seen)[orders] - 1],
                               least[self.labels[:, None] * u % n] == self.labels[:, None]]
                              ) & unit_mask(m)


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
    that is when the additive order r / gcd(r, v) of v divides k - 1 (for
    es3 and m2, MonomialForm.fixes)."""
    m = table.exponent
    if table.form is not None:
        return GaloisData(exponent=m, fixes=table.form.fixes())
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


# Entries per block of rows a character-table export converts to Python
# numbers and writes at once, a row's values and cyclotomic coefficients
# counted as (exponent + 1) per class.
_EXPORT_ENTRIES = 2**14


def _character_entries(table: CharacterTable, lo: int, hi: int) -> list[dict]:
    """The export's entries of characters lo..hi-1."""
    entries = []
    for i, row in enumerate(table.value_rows(lo, hi).tolist(), start=lo):
        entry: dict = {"degree": int(table.degrees[i]), "values": [[v.real, v.imag] for v in row]}
        coefficients = table.cyclotomic_row(i)
        if coefficients is not None:
            entry["cyclotomic"] = coefficients.tolist()
        entries.append(entry)
    return entries


def _export_header(table: CharacterTable, conj: ConjugacyData) -> dict:
    """The export document but its characters."""
    return {
        "group_order": table.group_order,
        "exponent": table.exponent,
        "class_sizes": [int(s) for s in table.class_sizes],
        "class_rep_orders": conj.orders[[cls[0] for cls in conj.classes]].tolist(),
        "class_power_maps": {str(k): list(conj.class_power(k))
                             for k in units_mod(table.exponent)},
    }


def export_character_table(table: CharacterTable, conj: ConjugacyData) -> dict:
    return {**_export_header(table, conj),
            "characters": _character_entries(table, 0, table.n_chars)}


def write_character_table(table: CharacterTable, conj: ConjugacyData, fh) -> None:
    """Write the text of json.dumps(export_character_table(table, conj),
    sort_keys=True, separators=(",", ":")) to the text file fh, its
    characters (the first key) a block of rows at a time."""
    dump = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    fh.write('{"characters":[')
    height = max(1, _EXPORT_ENTRIES // (table.n_classes * (table.exponent + 1)))
    for lo in range(0, table.n_chars, height):
        fh.write(("," if lo else "") + ",".join(map(dump, _character_entries(table, lo, lo + height))))
    fh.write("]," + dump(_export_header(table, conj))[1:])


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
