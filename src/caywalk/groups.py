"""Finite groups on the elements 0..order-1, with one product: multiply.

A group holds a law or a table. Every family spec (cyclic and abelian
powers, extraspecial 3-groups, modular maximal-cyclic 2-groups, wreath
products with the full symmetric group) is a law: a formula on element
indices over broadcast arrays, with its inverses and each element's
generator-word label, so nothing of size |G|^2 is stored. file: and custom
groups are tables, checked exactly (the axioms, then Light's associativity
test on their generators) and stored as uint16: an order-65,536 table
already takes 8 GB, so every element index a table can hold fits, and
larger orders are refused, for laws too, before anything is allocated. A
spec's compact spelling is the one group grammar of the CLI, the fixture
files and every printed group name.
"""
from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_MAX_ORDER
from .errors import (
    GroupValidationError,
    InvalidParameterError,
    SchemaError,
    SizeLimitError,
    require_keys,
)

# The element type of every table, and the largest order it can index.
ELEMENT = np.uint16
MAX_TABLE_ORDER = 2**16
# Row blocks of this many entries: the associativity test, the inverse search
# and file loads work one block at a time.
_BLOCK_ENTRIES = 2**16
# A law writes its table out in blocks of this many entries, whose int32
# temporaries stay in cache (z4^6: 0.31 s against 0.47 s in blocks of 2^16).
_LAW_BLOCK_ENTRIES = 2**14
# A law computes in int32: every index and every intermediate value of the
# family laws stays below 2^31 at orders up to MAX_TABLE_ORDER.
_LAW_INT = np.int32
# A law of at most this order gathers from its table (8 KB at most), written
# out on first use: on arrays this small one gather costs about a tenth of a
# law's dozen numpy calls (a subgroup closure of m2:5, 47 against 143 us).
_LAW_TABLE_ORDER = 64


@dataclass(frozen=True)
class GroupSpec:
    """What a group is: its family and the parameters its constructor takes.

    Families and their fields: cyclic (r), abelian (r, n), extraspecial3
    (n, exponent), m2 (n), wreath (base, n), file (path), and custom for a
    table built directly.
    """

    family: str
    r: int = 0
    n: int = 0
    exponent: int = 3
    base: GroupSpec | None = None
    path: str = ""

    def __str__(self) -> str:
        """The group's printed name, which parse_group_spec reads back into
        this spec; a custom table prints its bare family."""
        fam = self.family
        if fam == "cyclic":
            return f"z:{self.r}"
        if fam == "abelian":
            return f"z{self.r}^{self.n}"
        if fam == "extraspecial3":
            return f"es3:{self.n}" + (":9" if self.exponent == 9 else "")
        if fam == "m2":
            return f"m2:{self.n}"
        if fam == "wreath":
            return f"wreath:{self.base}:{self.n}"
        if fam == "file":
            return f"file:{self.path}"
        return fam


class GroupTable:
    """An immutable group on 0..order-1; multiply(a, b) is the product a*b.

    From a table, GroupTable(order, mul, identity, inv, labels) stores mul
    and inv as read-only C-contiguous uint16 arrays, their shapes and range
    0..order-1 checked on the values as given, before the cast (so -1 is
    refused, not read as 65,535), then validates it in full. From a law,
    GroupTable(order, spec=..., law=...) stores the law and its inv, identity
    0, and checks identity and inverses through the law in O(|G|); the tests
    check each law's formula entry for entry against table references. A
    law writes mul out, and renders labels, only on first use; one of order
    at most _LAW_TABLE_ORDER then gathers its products from mul.
    """

    def __init__(self, order: int, mul=None, identity: int = 0, inv=None,
                 labels: Sequence[str] = (), spec: GroupSpec = GroupSpec("custom"),
                 law=None):
        _check_order_cap(order)
        fields = vars(self)  # set once here; __setattr__ refuses later changes
        fields.update(order=order, identity=identity, spec=spec, _law=law,
                      _gather=law is None or order <= _LAW_TABLE_ORDER)
        if law is None:
            fields.update(mul=_elements(mul, (order, order), order, "mul"),
                          inv=_elements(inv, (order,), order, "inv"), labels=tuple(labels))
            fields["generators"] = _validate_table(self)
            self.mul.flags.writeable = False
        else:
            fields["inv"] = _elements(law.inverse(np.arange(order)), (order,), order, "inv")
            _check_axioms(self)
            fields["generators"] = tuple(_closure(self, None)[1])
        self.inv.flags.writeable = False

    def __setattr__(self, name, value):
        raise AttributeError(f"a GroupTable is immutable: cannot set {name}")

    def multiply(self, a, b):
        """The products a*b elementwise over the broadcast integer arrays (or
        ints) a and b: a gather from a table (a small law's too), else the
        law's formula."""
        if self._gather:
            return self.mul[a, b]
        return self._law.multiply(np.asarray(a, dtype=_LAW_INT), np.asarray(b, dtype=_LAW_INT))

    @cached_property
    def mul(self) -> np.ndarray:
        """The read-only uint16 table mul[a, b] = a*b: a table's own, or a
        law's, written a block of rows at a time on first use, each block's
        range checked before the cast."""
        n = self.order
        mul = np.empty((n, n), dtype=ELEMENT)
        rows, everyone = max(1, _LAW_BLOCK_ENTRIES // n), np.arange(n, dtype=_LAW_INT)
        for lo in range(0, n, rows):
            block = self._law.multiply(everyone[lo:lo + rows, None], everyone)
            mul[lo:lo + rows] = _elements(block, block.shape, n, "mul")
        mul.flags.writeable = False
        return mul

    @cached_property
    def conj(self) -> ConjugacyData:
        """The group's conjugacy data, computed on first use."""
        # By its module-level name, so a rebinding (a tracer) sees the call.
        return conjugacy(self)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Every element's label: a table's as given, a law's rendered on first use."""
        return tuple(map(self.label_of, range(self.order)))

    @property
    def family_tag(self) -> str:
        """The printed name of the group, rendered from its spec."""
        return str(self.spec)

    def label_of(self, g: int) -> str:
        return self.labels[g] if self._law is None else self._law.label(int(g))

    def index_of(self, label: str) -> int:
        """Element index for a label; raises if the label is unknown."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidParameterError(f"no element labeled {label!r}") from None


def _elements(values, shape: tuple[int, ...], order: int, what: str) -> np.ndarray:
    """values as a C-contiguous uint16 array, once their shape, integer type
    and range 0..order-1 are checked as given."""
    values = np.asarray(values)
    if values.shape != shape:
        raise GroupValidationError(f"{what} shape {values.shape} does not match order {order}")
    if values.dtype.kind not in "iu":
        raise GroupValidationError(f"{what} entries are not integers")
    if values.size and (values.min() < 0 or values.max() >= order):
        raise GroupValidationError(f"{what} entries out of range")
    return np.ascontiguousarray(values, dtype=ELEMENT)


def _validate_table(g: GroupTable) -> tuple[int, ...]:
    """Check identity, two-sided inverses and associativity exactly; return
    the generators of Light's test, each the smallest element outside the
    closure of those before (_closure).

    Light's lemma (Clifford & Preston, The Algebraic Theory of Semigroups I,
    1.2): the a with (x*a)*y == x*(a*y) for all x, y are closed under the
    product. _closure reaches every element from the identity, which
    passes, by products with generators and their repeated squares, so it is
    enough that each generator s passes:
    rows (x*s)*y == x*(s*y) over every y, a block of _BLOCK_ENTRIES entries
    at a time, |T| |G|^2 reads for |T| generators. With identity and
    inverses an associative table is a group (a Latin square).
    """
    n = g.order
    mul = g.mul
    if len(g.labels) != n:
        raise GroupValidationError("label count does not match order")
    _check_axioms(g)
    _, gens = _closure(g, None)
    rows = max(1, _BLOCK_ENTRIES // n)
    for s in gens:
        for lo in range(0, n, rows):
            if not np.array_equal(mul[mul[lo:lo + rows, s]],
                                  np.take(mul[lo:lo + rows], mul[s], axis=1)):
                raise GroupValidationError(f"associativity fails at s={s}")
    return tuple(gens)


def _check_axioms(g: GroupTable) -> None:
    """The identity and two-sided inverse axioms, through the product."""
    everyone, e = np.arange(g.order), g.identity
    if not (0 <= e < g.order):
        raise GroupValidationError(f"identity index {e} out of range")
    if (g.multiply(e, everyone) != everyone).any() or (g.multiply(everyone, e) != everyone).any():
        raise GroupValidationError("identity axiom fails")
    if (g.multiply(everyone, g.inv) != e).any() or (g.multiply(g.inv, everyone) != e).any():
        raise GroupValidationError("inverse axiom fails")


def _finish(mul: np.ndarray, labels: Sequence[str], spec: GroupSpec,
            identity: int = 0) -> GroupTable:
    """The validated group of a product table; each element's inverse is
    where its row meets the identity, found a block of rows at a time."""
    n = mul.shape[0]
    rows = max(1, _BLOCK_ENTRIES // n)
    inv = np.concatenate([np.argmax(mul[lo:lo + rows] == identity, axis=1)
                          for lo in range(0, n, rows)])
    return GroupTable(order=n, mul=mul, identity=identity,
                      inv=inv, labels=tuple(labels), spec=spec)


def _check_order_cap(order: int, max_order: int = MAX_TABLE_ORDER) -> None:
    if order > MAX_TABLE_ORDER:
        raise SizeLimitError(f"order {order} exceeds {MAX_TABLE_ORDER}, "
                             f"the largest a uint16 table can index")
    if order > max_order:
        raise SizeLimitError(f"order {order} exceeds cap {max_order}")


# ---------------------------------------------------------------------------
# mixed-radix digit vectors for abelian powers

def digits_of(index: int, r: int, n: int) -> tuple[int, ...]:
    """Base-r digit vector of an element index, most significant first."""
    out = []
    for _ in range(n):
        index, d = divmod(index, r)
        out.append(d)
    return tuple(reversed(out))


def index_of_digits(vec: Sequence[int], r: int) -> int:
    idx = 0
    for d in vec:
        idx = idx * r + (d % r)
    return idx


# ---------------------------------------------------------------------------
# family laws: multiply and inverse take broadcast int32 arrays, label one int

# numpy's floor division by a scalar runs about twice as fast as its remainder.
def _mod(x, m: int):
    return x - x // m * m


def _divmod(x, m: int):
    q = x // m
    return q, x - q * m


class _DigitLaw:
    """Z_r^n on base-r digit vectors, most significant first: digits add mod
    r. Digit k of a // r^k is its last digit, so (a // w + b // w) % r is
    the sum of the digits at place w. Z_r itself labels i as str(i)."""

    def __init__(self, r: int, n: int, cyclic: bool = False):
        self.r, self.n, self.cyclic = r, n, cyclic
        self.places = [r**k for k in range(1, n)]

    def multiply(self, a, b):
        out = _mod(a + b, self.r)
        for w in self.places:
            out = out + _mod(a // w + b // w, self.r) * w
        return out

    def inverse(self, g):
        out = _mod(-g, self.r)
        for w in self.places:
            out = out + _mod(-(g // w), self.r) * w
        return out

    def label(self, g: int) -> str:
        return str(g) if self.cyclic else f"({','.join(map(str, digits_of(g, self.r, self.n)))})"


class _HeisenbergLaw:
    """The extraspecial 3-group of exponent 3 as the Heisenberg group: (a, b, c)
    with a, b in F_3^n and c in F_3, at index (A*3^n + B)*3 + c for A and B
    the base-3 numbers of a and b; (a, b, c)(a', b', c') = (a + a', b + b',
    c + c' + a.b'), so (a, b, c)^-1 = (-a, -b, a.b - c)."""

    def __init__(self, n: int):
        self.n, self.m = n, 3**n
        self.pairs = _DigitLaw(3, 2 * n)  # (a, b) as the 2n digits A*3^n + B

    def _dot(self, a, b):
        """a.b for the base-3 numbers a and b of n digits (not reduced mod 3)."""
        return sum(_mod(a // 3**k, 3) * _mod(b // 3**k, 3) for k in range(self.n))

    def multiply(self, a, b):
        (ab, c), (ab2, c2) = _divmod(a, 3), _divmod(b, 3)
        c = c + c2 + self._dot(ab // self.m, _mod(ab2, self.m))
        return self.pairs.multiply(ab, ab2) * 3 + _mod(c, 3)

    def inverse(self, g):
        ab, c = _divmod(g, 3)
        return self.pairs.inverse(ab) * 3 + _mod(self._dot(ab // self.m, _mod(ab, self.m)) - c, 3)

    def label(self, g: int) -> str:
        """The normal form x^a y^b z^t, t = c - a.b."""
        ab, c = divmod(g, 3)
        a, b = (digits_of(x, 3, self.n) for x in divmod(ab, self.m))
        t = (c - sum(x * y for x, y in zip(a, b))) % 3
        return _word([(f"x{k + 1}", a[k]) for k in range(self.n)]
                     + [(f"y{k + 1}", b[k]) for k in range(self.n)] + [("z", t)])


class _MetacyclicLaw:
    """<x, y | x^half = y^k = e, y x y^-1 = x^twist> with x^i y^j at index
    k*i + j: (x^i y^j)(x^i' y^j') = x^(i + i' twist^j) y^(j + j'), and
    (x^i y^j)^-1 = x^(-i twist^j') y^j' for j' = -j mod k (twist^k = 1 mod half)."""

    def __init__(self, half: int, k: int, twist: int, y_name: str):
        self.half, self.k, self.y_name = half, k, y_name
        self.twists = np.array([pow(twist, j, half) for j in range(k)], dtype=_LAW_INT)

    def multiply(self, a, b):
        (i, j), (i2, j2) = _divmod(a, self.k), _divmod(b, self.k)
        return _mod(i + i2 * self.twists[j], self.half) * self.k + _mod(j + j2, self.k)

    def inverse(self, g):
        i, j = _divmod(g, self.k)
        j = _mod(-j, self.k)
        return _mod(-i * self.twists[j], self.half) * self.k + j

    def label(self, g: int) -> str:
        return _word(list(zip(("x", self.y_name), divmod(g, self.k))))


def build_cyclic(r: int, max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """Cyclic group of order r; element i is labeled str(i)."""
    if r < 1:
        raise InvalidParameterError("cyclic order must be positive")
    _check_order_cap(r, max_order)
    return GroupTable(r, spec=GroupSpec("cyclic", r=r), law=_DigitLaw(r, 1, cyclic=True))


def build_abelian_power(r: int, n: int, max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """Direct power Z_r^n with componentwise addition on digit vectors."""
    if r < 1 or n < 1:
        raise InvalidParameterError("need r >= 1 and n >= 1")
    _check_order_cap(r**n, max_order)
    return GroupTable(r**n, spec=GroupSpec("abelian", r=r, n=n), law=_DigitLaw(r, n))


def _word(parts: list[tuple[str, int]]) -> str:
    factors = []
    for name, exp in parts:
        if exp == 0:
            continue
        factors.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(factors) if factors else "e"


def build_extraspecial3(n: int, exponent_type: int = 3,
                        max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """Extraspecial 3-group of order 3^(2n+1).

    exponent_type 3 is the generalized Heisenberg group over F_3 (any n);
    exponent_type 9 is the modular group <x, y | x^9 = y^3 = e,
    y x y^-1 = x^4> of order 27, x^i y^j at index 3i + j, and needs n = 1.
    """
    if n < 1:
        raise InvalidParameterError("need n >= 1")
    if exponent_type not in (3, 9):
        raise InvalidParameterError("exponent_type must be 3 or 9")
    order = 3 ** (2 * n + 1)
    _check_order_cap(order, max_order)
    if exponent_type == 9 and n != 1:
        raise InvalidParameterError("exponent 9 exists only at order 27 (n = 1)")
    spec = GroupSpec("extraspecial3", n=n, exponent=exponent_type)
    return GroupTable(order, spec=spec, law=family_law(spec))


def build_modular_maximal_cyclic(n: int, max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """Modular maximal-cyclic 2-group of order 2^n for n >= 4.

    Presentation <x, sigma | x^(2^(n-1)) = sigma^2 = e,
    sigma x sigma = x^(2^(n-2)+1)>; element x^i sigma^j at index 2i + j.
    """
    if n < 4:
        raise InvalidParameterError("need n >= 4")
    order = 2**n
    _check_order_cap(order, max_order)
    spec = GroupSpec("m2", n=n)
    return GroupTable(order, spec=spec, law=family_law(spec))


def family_law(spec: GroupSpec):
    """The law an extraspecial3 or m2 spec names, its parameters as given:
    the one source of the constructors' laws and of their closed-form
    character tables."""
    if spec.family == "m2":
        return _MetacyclicLaw(2 ** (spec.n - 1), 2, 2 ** (spec.n - 2) + 1, "sigma")
    return _MetacyclicLaw(9, 3, 4, "y") if spec.exponent == 9 else _HeisenbergLaw(spec.n)


# ---------------------------------------------------------------------------
# wreath products G wr S_n

@dataclass(frozen=True)
class WreathElement:
    """One element (coords; perm): a base-group tuple twisted by a permutation.

    perm is 0-based, given by images: perm[i] is where position i goes.
    """

    coords: tuple[int, ...]
    perm: tuple[int, ...]


class WreathIndexing:
    """Bijection between wreath elements and indices 0..order-1, and the
    wreath product's law on those indices.

    Index layout is mixed-radix: base coords are the major digits (coordinate 0
    most significant), the permutation's lexicographic rank is the minor digit.
    Product rule: (x; p)(y; q) = (x * (p.y); p o q) where (p.y)_i = y_(p^-1(i)),
    so (x; p)^-1 = (p^-1.x^-1; p^-1), x^-1 taken coordinatewise.
    """

    def __init__(self, base: GroupTable, n: int):
        if n < 1:
            raise InvalidParameterError("need n >= 1")
        self.base = base
        self.n = n
        self.perms: tuple[tuple[int, ...], ...] = tuple(
            itertools.permutations(range(n)))
        self.perm_rank = {p: i for i, p in enumerate(self.perms)}
        self.fact = len(self.perms)
        self.order = base.order**n * self.fact
        self.weights = base.order ** np.arange(n - 1, -1, -1, dtype=_LAW_INT)
        perms = np.array(self.perms, dtype=np.int64).reshape(self.fact, n)
        # Permutations are listed lexicographically, so their base-n keys ascend.
        keys = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self.compose = np.searchsorted(perms @ keys, perms[:, perms] @ keys).astype(_LAW_INT)
        preimage = np.argsort(perms, axis=1)
        self.inverse_rank = np.searchsorted(perms @ keys, preimage @ keys).astype(_LAW_INT)
        # coords[rank] are the base coordinates of a coordinate rank, and
        # shift[p, rank of y] is the rank of p.y.
        self.coords = np.arange(base.order**n, dtype=_LAW_INT)[:, None] // self.weights
        self.coords %= base.order
        self.shift = np.ascontiguousarray((self.coords[:, preimage] @ self.weights).T)

    def encode(self, el: WreathElement) -> int:
        return int(np.dot(el.coords, self.weights)) * self.fact + self.perm_rank[el.perm]

    def decode(self, idx: int) -> WreathElement:
        rank, p = divmod(idx, self.fact)
        coords = digits_of(rank, self.base.order, self.n)
        return WreathElement(coords, self.perms[p])

    def diagonal(self, g: int) -> int:
        """Index of (g, g, ..., g; identity permutation)."""
        return self.encode(WreathElement((g,) * self.n, tuple(range(self.n))))

    def multiply(self, a, b):
        (ra, p), (rb, q) = _divmod(a, self.fact), _divmod(b, self.fact)
        coords = self.base.multiply(self.coords[ra], self.coords[self.shift[p, rb]])
        return np.asarray(coords, dtype=_LAW_INT) @ self.weights * self.fact + self.compose[p, q]

    def inverse(self, g):
        rank, p = _divmod(g, self.fact)
        p = self.inverse_rank[p]
        coords = self.base.inv[self.coords[rank]].astype(_LAW_INT)
        return self.shift[p, coords @ self.weights] * self.fact + p

    def label(self, g: int) -> str:
        el = self.decode(g)
        return f"({','.join(map(self.base.label_of, el.coords))};{_perm_label(el.perm)})"


def build_wreath_sym(base: GroupTable, n: int,
                     max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """Wreath product base wr S_n with the place-permutation action, its law
    the WreathIndexing of base and n."""
    if n < 1:
        raise InvalidParameterError("need n >= 1")
    _check_order_cap(base.order**n * math.factorial(n), max_order)
    law = WreathIndexing(base, n)
    return GroupTable(law.order, spec=GroupSpec("wreath", n=n, base=base.spec), law=law)


def _perm_label(perm: tuple[int, ...]) -> str:
    cycles = permutation_cycles(perm, include_fixed=False)
    if not cycles:
        return "id"
    return "".join("(" + " ".join(str(i + 1) for i in cyc) + ")" for cyc in cycles)


def permutation_cycles(perm: Sequence[int],
                       include_fixed: bool = True) -> list[tuple[int, ...]]:
    """Cycle decomposition (0-based), each cycle rotated to start at its minimum."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        cur = perm[start]
        while cur != start:
            cyc.append(cur)
            seen[cur] = True
            cur = perm[cur]
        if len(cyc) > 1 or include_fixed:
            cycles.append(tuple(cyc))
    return cycles


def cycle_product(base: GroupTable, coords: Sequence[int],
                  cycle: Sequence[int]) -> int:
    """Forward cycle product of a coordinate tuple along one cycle.

    The cycle is 1-based, listed as (a, k(a), k^2(a), ...). Walking backwards
    from the smallest moved point a gives y_a * y_(k^-1(a)) * ... as a single
    base-group element; a fixed point contributes its own coordinate.
    """
    if len(set(cycle)) != len(cycle) or not cycle:
        raise InvalidParameterError("cycle entries must be distinct and nonempty")
    zero_based = [c - 1 for c in cycle]
    if any(c < 0 or c >= len(coords) for c in zero_based):
        raise InvalidParameterError("cycle entry out of range")
    pivot = zero_based.index(min(zero_based))
    ordered = zero_based[pivot:] + zero_based[:pivot]
    prod = coords[ordered[0]]
    for pos in reversed(ordered[1:]):
        prod = int(base.multiply(prod, coords[pos]))
    return prod


# ---------------------------------------------------------------------------
# conjugacy structure

@dataclass(eq=False)
class ConjugacyData:
    """Conjugacy classes plus the derived maps the engine needs.

    Class 0 is always {identity}; the rest are ordered by their minimal
    element. class_inv[j] is the class of inverses of class j, and orders[g]
    is the order of element g.
    """

    group: GroupTable
    classes: tuple[tuple[int, ...], ...]
    class_of: np.ndarray
    class_inv: tuple[int, ...]
    center: tuple[int, ...]
    orders: np.ndarray

    @property
    def sizes(self) -> np.ndarray:
        return np.array([len(c) for c in self.classes], dtype=np.int64)

    @cached_property
    def exponent(self) -> int:
        """Least common multiple of the element orders."""
        return int(np.lcm.reduce(self.orders))

    @cached_property
    def center_exponent(self) -> int:
        """Least common multiple of the orders of the central elements."""
        return int(np.lcm.reduce(self.orders[list(self.center)]))

    def class_power(self, k: int) -> tuple[int, ...]:
        """Permutation j -> class of g^k for g in class j."""
        reps = [cls[0] for cls in self.classes]
        return tuple(self.class_of[power(self.group, reps, k)].tolist())


def power(group: GroupTable, g, k):
    """g^k by repeated squaring on the table, elementwise over the broadcast
    integer arrays g and k; a negative k powers the inverse. Scalar g and k
    give an int.

    A scalar k runs a Python loop over its bits, at most two products each,
    in place of the masked array steps a per-element k needs."""
    multiply = group.multiply
    if np.ndim(k) == 0:
        k = int(k)
        base = group.inv[g] if k < 0 else np.array(g)
        result, k = None, abs(k)
        while k:
            if k & 1:
                result = base if result is None else multiply(result, base)
            k >>= 1
            if k:
                base = multiply(base, base)
        if result is None:
            result = np.full(np.shape(g), group.identity)
        return int(result) if np.ndim(result) == 0 else result
    g, k = np.broadcast_arrays(np.asarray(g), np.asarray(k))
    base = np.where(k < 0, group.inv[g], g)
    k = np.abs(k)
    result = np.full(k.shape, group.identity)
    while k.any():
        result = np.where(k & 1, multiply(result, base), result)
        base = multiply(base, base)
        k = k >> 1
    return int(result) if result.ndim == 0 else result


def conjugacy(group: GroupTable) -> ConjugacyData:
    """Conjugacy classes, identity class first, the rest by minimal element.

    Each element's class is named by its smallest conjugate. The class of x
    is its orbit under x -> s^-1 x s for the stored generators s: a component
    of the graph with those edges. Each round hooks the larger label of each
    edge's ends onto the smaller, then jumps pointers to the roots, until
    every edge's ends agree.
    """
    n = group.order
    inv, e = group.inv, group.identity
    gens = np.array(group.generators, dtype=np.int64)
    # maps[i, x] = s_i^-1 * (x * s_i)
    maps = group.multiply(inv[gens][:, None], group.multiply(np.arange(n), gens[:, None]))
    rep = np.arange(n)
    while not np.array_equal(ends := np.broadcast_to(rep, maps.shape), others := rep[maps]):
        np.minimum.at(rep, np.maximum(ends, others), np.minimum(ends, others))
        while not np.array_equal(rep, jumped := rep[rep]):
            rep = jumped

    # Canonical order: identity singleton first, the rest by minimal element.
    mins = np.flatnonzero(rep == np.arange(n))
    mins = np.concatenate(([e], mins[mins != e]))
    slot = np.empty(n, dtype=np.int64)
    slot[mins] = np.arange(len(mins))
    class_of = slot[rep]
    sizes = np.bincount(class_of)
    members, bounds = np.argsort(class_of, kind="stable").tolist(), np.cumsum(sizes).tolist()
    classes = tuple(tuple(members[lo:hi]) for lo, hi in zip([0, *bounds], bounds))

    class_inv = tuple(class_of[inv[mins]].tolist())
    # g is central exactly when its class is {g}.
    center = tuple(np.flatnonzero(sizes[class_of] == 1).tolist())
    # Conjugates share their order, so only the classes' minima are powered.
    return ConjugacyData(group=group, classes=classes, class_of=class_of, class_inv=class_inv,
                         center=center, orders=_element_orders(group, mins)[class_of])


def _element_orders(group: GroupTable, elements: np.ndarray | None = None) -> np.ndarray:
    """Order of each of elements (by default every element), one prime p of
    |G| at a time: h = g^m, with m the part of |G| prime to p, has the
    p-part of g's order as its order, so h is raised to its p-th power until
    it is the identity."""
    n, e = group.order, group.identity
    elements = np.arange(n) if elements is None else np.asarray(elements)
    orders = np.ones(len(elements), dtype=np.int64)
    for p in (p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))):
        h = power(group, elements, n // math.gcd(n, p**n))
        pending = np.flatnonzero(h != e)
        while pending.size:
            orders[pending] *= p
            h[pending] = power(group, h[pending], p)
            pending = pending[h[pending] != e]
    return orders


# ---------------------------------------------------------------------------
# subgroup machinery

def subgroup_closure(group: GroupTable, generators: Iterable[int]) -> tuple[int, ...]:
    """Subgroup generated by the given elements (multiplicative closure)."""
    seen, _ = _closure(group, generators)
    return tuple(np.flatnonzero(seen).tolist())


def _closure(group: GroupTable,
             generators: Iterable[int] | None) -> tuple[np.ndarray, list[int]]:
    """(mask of the members, generators used) of the breadth-first closure
    from the identity.

    The generators are taken in increasing order, None meaning every
    element. One already inside the closure of those before adds nothing;
    any other at least doubles it, so at most log2 |G| are used, and with
    None each is the smallest element outside the closure so far. A used
    generator g brings its repeated squares g^2, g^4, ... as steps, every
    member reached so far is multiplied by the new steps, and the new
    elements then grow breadth-first by every step. So each member is the
    identity or p*s for a member p reached before it and a step s. A set
    that holds the identity and is closed under the steps is the subgroup
    they generate, and g^k takes popcount(k) levels: the closure of {1} in
    Z_4096 takes 12 levels, not 4,095.
    """
    n, multiply = group.order, group.multiply
    seen = np.zeros(n, dtype=bool)
    seen[group.identity] = True
    size = 1

    def grow(rows: np.ndarray, cols: list[int]) -> np.ndarray:
        """Multiply rows by cols; mark and return the products not seen."""
        products = multiply(rows[:, None], cols)
        fresh = np.zeros_like(seen)
        fresh[products] = True
        fresh[seen] = False
        new = fresh.nonzero()[0]
        seen[new] = True
        return new

    pending = None if generators is None else iter(sorted({int(x) for x in generators}))
    used: list[int] = []
    steps: list[int] = []
    while size < n:
        g = int(np.argmin(seen)) if pending is None else \
            next((x for x in pending if not seen[x]), None)
        if g is None:
            break
        used.append(g)
        new: list[int] = []
        while not seen[g] and g not in new:
            new.append(g)
            g = int(multiply(g, g))
        frontier = grow(seen.nonzero()[0], new)
        steps += new
        size += len(frontier)
        while frontier.size and size < n:
            frontier = grow(frontier, steps)
            size += len(frontier)
    return seen, used


def derived_series_solvable(group: GroupTable) -> tuple[bool, tuple[int, ...]]:
    """Derived series orders; solvable iff the series reaches the trivial group.

    H' is the normal closure N in H of the commutators of a generating set S
    of H (H/N is abelian, as the images of S commute): each commutator or
    conjugate s^-1 x s (s in S) outside the closure so far becomes one of its
    generators, at least doubling it. Those generators are the next S."""
    m, inv = group.multiply, group.inv
    gens, series = np.array(group.generators, dtype=np.int64), [group.order]
    while series[-1] > 1:
        a, b = gens[:, None], gens[None, :]
        todo = m(m(m(a, b), inv[a]), inv[b]).ravel().tolist()  # a b a^-1 b^-1
        inside = np.arange(group.order) == group.identity
        derived: list[int] = []
        while todo:
            x = todo.pop()
            if not inside[x]:
                derived.append(x)
                inside[list(subgroup_closure(group, derived))] = True
                todo.extend(m(m(inv[gens], x), gens).tolist())
        if inside.sum() == series[-1]:
            return False, (*series, series[-1])
        gens = np.array(derived, dtype=np.int64)
        series.append(int(inside.sum()))
    return True, tuple(series)


# ---------------------------------------------------------------------------
# JSON interchange

def _write_group(group: GroupTable, fh) -> None:
    """Write the group document, the text of json.dumps({"identity",
    "labels", "mul", "order"}, sort_keys=True, separators=(",", ":")), to
    the text file fh. mul goes a block of rows at a time as the bytes of
    each entry's text, NUL-padded to one width ("7," or, at the end of a
    row, "7],["), with the padding dropped: no entry becomes a Python int."""
    n = group.order
    fh.write(f'{{"identity":{group.identity},"labels":')
    fh.write(json.dumps(list(group.labels), separators=(",", ":")))
    fh.write(',"mul":[[')
    cells = np.array([f"{i}," for i in range(n)] + [f"{i}],[" for i in range(n)], dtype=bytes)
    row_end = np.zeros(n, dtype=np.intp)
    row_end[-1] = n
    rows = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, n, rows):
        text = cells[group.mul[lo:lo + rows] + row_end].tobytes().replace(b"\0", b"").decode()
        fh.write(text if lo + rows < n else text[:-2] + "]")
    fh.write(f',"order":{n}}}')


def group_from_json(doc: dict, max_order: int = DEFAULT_MAX_ORDER,
                    spec: GroupSpec = GroupSpec("custom")) -> GroupTable:
    require_keys(doc, ("identity", "labels", "mul", "order"), "group document")
    order, identity = doc["order"], doc["identity"]
    if type(order) is not int or order < 1:  # a JSON true is no order
        raise SchemaError("order must be a positive integer")
    if type(identity) is not int:
        raise SchemaError("identity must be an integer")
    _check_order_cap(order, max_order)
    rows, labels = doc["mul"], doc["labels"]
    if not isinstance(rows, list) or len(rows) != order:
        raise SchemaError("mul must be an order x order matrix")
    if not isinstance(labels, list) or len(labels) != order or \
            not all(type(x) is str for x in labels):
        raise SchemaError(f"labels must be a list of {order} strings")
    if len(set(labels)) != order:  # index_of would resolve a repeat to its first
        raise SchemaError("labels must be distinct")
    # Read a block of rows at a time, each checked as given before its cast.
    mul = np.empty((order, order), dtype=ELEMENT)
    step = max(1, _BLOCK_ENTRIES // order)
    for lo in range(0, order, step):
        chunk = rows[lo:lo + step]
        try:
            block = np.array(chunk)
        except ValueError:  # ragged rows
            block = np.empty(0)
        if block.shape != (len(chunk), order):
            raise SchemaError("mul must be an order x order matrix")
        if not set(map(type, itertools.chain.from_iterable(chunk))) <= {int}:
            raise GroupValidationError("mul entries are not integers")
        mul[lo:lo + step] = _elements(block, block.shape, order, "mul")
    return _finish(mul, labels, spec, identity=identity)


def load_group(path: str, max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """A table read from a JSON file; its spec is file:PATH, whatever group
    the file holds, so it always gets the numerical character table."""
    with open(path, "r", encoding="utf-8") as fh:
        return group_from_json(json.load(fh), max_order, GroupSpec("file", path=path))


def save_group(group: GroupTable, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_group(group, fh)


# ---------------------------------------------------------------------------
# group specs

def parse_group_spec(text: str) -> GroupSpec:
    """Read the compact group grammar.

    z:<r> (cyclic), z<r>^<n> (abelian power), extraspecial3:<n>[:<exp>] or
    es3:<n>[:<exp>], m2:<n>, wreath:<base spec>:<n> and file:<path>.
    """
    text = text.strip()
    if text.startswith("file:"):
        return GroupSpec("file", path=text[len("file:"):])
    if text.startswith("wreath:"):
        base, _, n = text[len("wreath:"):].rpartition(":")
        if not base or not n.isdigit():
            raise InvalidParameterError(f"bad wreath spec {text!r}")
        return GroupSpec("wreath", n=int(n), base=parse_group_spec(base))
    m = re.fullmatch(r"z:(\d+)", text)
    if m:
        return GroupSpec("cyclic", r=int(m[1]))
    m = re.fullmatch(r"z(\d+)\^(\d+)", text)
    if m:
        return GroupSpec("abelian", r=int(m[1]), n=int(m[2]))
    m = re.fullmatch(r"(?:extraspecial3|es3):(\d+)(?::(\d+))?", text)
    if m:
        return GroupSpec("extraspecial3", n=int(m[1]), exponent=int(m[2] or 3))
    m = re.fullmatch(r"m2:(\d+)", text)
    if m:
        return GroupSpec("m2", n=int(m[1]))
    raise InvalidParameterError(f"unrecognized group spec {text!r}")


def build_group(spec: GroupSpec, max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """Run the constructor a spec names."""
    # The constructors are called by their module-level names, so that
    # anything rebinding those names (a tracer, a test double) sees each build.
    fam = spec.family
    if fam == "cyclic":
        return build_cyclic(spec.r, max_order)
    if fam == "abelian":
        return build_abelian_power(spec.r, spec.n, max_order)
    if fam == "extraspecial3":
        return build_extraspecial3(spec.n, spec.exponent, max_order)
    if fam == "m2":
        return build_modular_maximal_cyclic(spec.n, max_order)
    if fam == "wreath":
        return build_wreath_sym(build_group(spec.base, max_order), spec.n, max_order)
    if fam == "file":
        return load_group(spec.path, max_order)
    raise InvalidParameterError(f"no constructor for group family {fam!r}")
