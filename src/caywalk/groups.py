"""Finite groups as explicit multiplication tables.

Every group is a validated Cayley table over elements 0..order-1, stored as
uint16: an order-65,536 table already takes 8 GB, so every element index a
table can hold fits, and larger orders are refused before anything is
allocated. Family constructors (cyclic powers, extraspecial 3-groups, modular
maximal-cyclic 2-groups, wreath products with the full symmetric group) write
uint16 directly, a slice at a time, with no wider |G|^2 temporary; they attach
generator-word labels and the GroupSpec that rebuilds them. A spec's compact
spelling is the one group grammar of the CLI, the fixture files and every
printed group name.
"""
from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field
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
# and file loads work through a table one block at a time.
_BLOCK_ENTRIES = 2**16


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


@dataclass(frozen=True, eq=False)
class GroupTable:
    """Immutable multiplication table: mul[a, b] is the product a*b.

    mul and inv are read-only C-contiguous uint16 arrays, whatever integer
    arrays they were given as: their shapes and the range 0..order-1 are
    checked on the values as given, before the cast, so an entry of -1 is
    refused rather than read as 65,535.
    """

    order: int
    mul: np.ndarray
    identity: int
    inv: np.ndarray
    labels: tuple[str, ...]
    spec: GroupSpec = GroupSpec("custom")
    generators: tuple[int, ...] = field(init=False, repr=False)  # found by validation

    def __post_init__(self):
        _check_order_cap(self.order)
        for name, shape in (("mul", (self.order, self.order)), ("inv", (self.order,))):
            object.__setattr__(self, name, _elements(getattr(self, name), shape,
                                                     self.order, name))
        object.__setattr__(self, "generators", _validate_table(self))
        self.mul.flags.writeable = False
        self.inv.flags.writeable = False

    @cached_property
    def conj(self) -> ConjugacyData:
        """The group's conjugacy data, computed on first use."""
        # By its module-level name, so a rebinding (a tracer) sees the call.
        return conjugacy(self)

    @property
    def family_tag(self) -> str:
        """The printed name of the group, rendered from its spec."""
        return str(self.spec)

    def label_of(self, g: int) -> str:
        return self.labels[g]

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
    the generating set the associativity test used.

    Associativity is Light's test (Clifford & Preston, The Algebraic Theory of
    Semigroups I, 1.2): the s with (x*s)*y == x*(s*y) for all x, y are closed
    under the product, so it suffices to pass on generators. Each one is the
    smallest element outside the closure of those before, so in a group it at
    least doubles the closure. A group table is a Latin square.
    """
    n = g.order
    mul = g.mul
    if not (0 <= g.identity < n):
        raise GroupValidationError(f"identity index {g.identity} out of range")
    if len(g.labels) != n:
        raise GroupValidationError("label count does not match order")

    rng_row = np.arange(n)
    e = g.identity
    if not np.array_equal(mul[e], rng_row) or not np.array_equal(mul[:, e], rng_row):
        raise GroupValidationError("identity axiom fails")
    if not np.all(mul[rng_row, g.inv] == e) or not np.all(mul[g.inv, rng_row] == e):
        raise GroupValidationError("inverse axiom fails")

    rows = max(1, _BLOCK_ENTRIES // n)
    gens: list[int] = []
    while len(closure := subgroup_closure(g, gens)) < n:
        s = next(i for i, h in enumerate(closure + (n,)) if h != i)  # closure is sorted
        for lo in range(0, n, rows):
            # Rows lo.. of (x*s)*y and of x*(s*y), over every y.
            if not np.array_equal(mul[mul[lo:lo + rows, s]],
                                  np.take(mul[lo:lo + rows], mul[s], axis=1)):
                raise GroupValidationError(f"associativity fails at s={s}")
        gens.append(s)
    return tuple(gens)


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
# family constructors

def _cyclic_mul(r: int) -> np.ndarray:
    """(i + j) mod r as a read-only uint16 view: row i is the window
    i..i+r-1 of 0..r-1 written twice, so no sum is formed and none can wrap.
    GroupTable copies it into a contiguous table."""
    twice = np.tile(np.arange(r, dtype=ELEMENT), 2)
    return np.lib.stride_tricks.sliding_window_view(twice, r)[:r]


def _abelian_mul(r: int, n: int) -> np.ndarray:
    """Componentwise addition on base-r digit vectors of length n, grown one
    leading digit at a time: with T the table of the last m = r^k elements,
    element f*m + a times g*m + b is ((f + g) mod r)*m + T[a, b], written
    for one left digit f at a time."""
    step = _cyclic_mul(r)
    mul = step
    for _ in range(n - 1):
        m = mul.shape[0]
        grown = np.empty((r, m, r, m), dtype=ELEMENT)  # [f, a, g, b]
        for f in range(r):
            np.add(mul[:, None, :], step[f, :, None] * m, out=grown[f])
        mul = grown.reshape(r * m, r * m)
    return mul


def _metacyclic_mul(half: int, k: int, twist: int) -> np.ndarray:
    """<x, y | x^half = y^k = e, y x y^-1 = x^twist> with x^i y^j at index
    k*i + j: (x^i y^j)(x^i' y^j') = x^(i + i' twist^j) y^(j + j'), written
    one left exponent j at a time."""
    i = np.arange(half)
    y_part = _cyclic_mul(k)
    mul = np.empty((half, k, half, k), dtype=ELEMENT)  # [i, j, i', j']
    x_part = np.empty((half, half), dtype=ELEMENT)
    for j in range(k):
        np.add.outer(i.astype(ELEMENT), (i * pow(twist, j, half) % half).astype(ELEMENT),
                     out=x_part)
        x_part %= half
        x_part *= k
        np.add(x_part[:, :, None], y_part[j], out=mul[:, j])
    return mul.reshape(half * k, half * k)


def build_cyclic(r: int, max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """Cyclic group of order r; element i is labeled str(i)."""
    if r < 1:
        raise InvalidParameterError("cyclic order must be positive")
    _check_order_cap(r, max_order)
    return _finish(_cyclic_mul(r), [str(i) for i in range(r)], GroupSpec("cyclic", r=r))


def build_abelian_power(r: int, n: int, max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """Direct power Z_r^n with componentwise addition on digit vectors."""
    if r < 1 or n < 1:
        raise InvalidParameterError("need r >= 1 and n >= 1")
    _check_order_cap(r**n, max_order)
    labels = ["(" + ",".join(map(str, v)) + ")"
              for v in itertools.product(range(r), repeat=n)]
    return _finish(_abelian_mul(r, n), labels, GroupSpec("abelian", r=r, n=n))


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
    exponent_type 9 is the modular group of order 27 and needs n = 1.
    """
    if n < 1:
        raise InvalidParameterError("need n >= 1")
    if exponent_type not in (3, 9):
        raise InvalidParameterError("exponent_type must be 3 or 9")
    order = 3 ** (2 * n + 1)
    _check_order_cap(order, max_order)

    if exponent_type == 9:
        if n != 1:
            raise InvalidParameterError("exponent 9 exists only at order 27 (n = 1)")
        # <x, y | x^9 = y^3 = e, y x y^-1 = x^4>; element x^i y^j at index 3i + j.
        i, j = np.divmod(np.arange(27), 3)
        labels = [_word([("x", x), ("y", y)]) for x, y in zip(i.tolist(), j.tolist())]
        return _finish(_metacyclic_mul(9, 3, 4), labels,
                       GroupSpec("extraspecial3", n=n, exponent=9))

    # Heisenberg model: (a, b, c) with a, b in F_3^n, c in F_3 and
    # (a1,b1,c1)(a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1.b2); element (a, b, c)
    # at index (A*3^n + B)*3 + c, A and B the base-3 numbers of a and b.
    # The table is written one left A at a time, as the sum of an A' part,
    # a (B, B') part and a (c, B', c') part.
    m = 3**n
    digits = np.array([digits_of(k, 3, n) for k in range(m)], dtype=np.int64)
    add = _abelian_mul(3, n)
    major, minor = add * (3 * m), add * 3
    # (c + c' + a.b') mod 3, indexed [A, c, 1, B', c'].
    c_part = (_cyclic_mul(3)[None, :, None, None, :]
              + (digits @ digits.T % 3).astype(ELEMENT)[:, None, None, :, None]) % 3
    mul = np.empty((m, m, 3, m, m, 3), dtype=ELEMENT)  # [A, B, c, A', B', c']
    for a_left in range(m):
        np.add(major[a_left, None, None, :, None, None], minor[:, None, None, :, None],
               out=mul[a_left])
        mul[a_left] += c_part[a_left]
    mul = mul.reshape(order, order)

    # Normal form x^a y^b z^t with t = c - a.b.
    ab, c = np.divmod(np.arange(order), 3)
    a, b = digits[ab // m], digits[ab % m]
    t = (c - np.sum(a * b, axis=1)) % 3
    labels = [_word([(f"x{k + 1}", ai[k]) for k in range(n)]
                    + [(f"y{k + 1}", bi[k]) for k in range(n)] + [("z", ti)])
              for ai, bi, ti in zip(a.tolist(), b.tolist(), t.tolist())]
    return _finish(mul, labels, GroupSpec("extraspecial3", n=n))


def build_modular_maximal_cyclic(n: int, max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """Modular maximal-cyclic 2-group of order 2^n for n >= 4.

    Presentation <x, sigma | x^(2^(n-1)) = sigma^2 = e,
    sigma x sigma = x^(2^(n-2)+1)>; element x^i sigma^j at index 2i + j.
    """
    if n < 4:
        raise InvalidParameterError("need n >= 4")
    order = 2**n
    _check_order_cap(order, max_order)
    i, j = np.divmod(np.arange(order), 2)
    labels = [_word([("x", x), ("sigma", s)]) for x, s in zip(i.tolist(), j.tolist())]
    return _finish(_metacyclic_mul(order // 2, 2, 2 ** (n - 2) + 1), labels,
                   GroupSpec("m2", n=n))


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
    """Bijection between wreath elements and indices 0..order-1.

    Index layout is mixed-radix: base coords are the major digits (coordinate 0
    most significant), the permutation's lexicographic rank is the minor digit.
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

    def encode(self, el: WreathElement) -> int:
        rank = 0
        for c in el.coords:
            rank = rank * self.base.order + c
        return rank * self.fact + self.perm_rank[el.perm]

    def decode(self, idx: int) -> WreathElement:
        rank, p = divmod(idx, self.fact)
        coords = digits_of(rank, self.base.order, self.n)
        return WreathElement(coords, self.perms[p])

    def diagonal(self, g: int) -> int:
        """Index of (g, g, ..., g; identity permutation)."""
        return self.encode(WreathElement((g,) * self.n, tuple(range(self.n))))


def build_wreath_sym(base: GroupTable, n: int,
                     max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """Wreath product base wr S_n with the place-permutation action.

    Product rule: (x; p)(y; q) = (x * (p.y); p o q) where (p.y)_i = y_(p^-1(i)).
    The base part of (x; p)(y; q) depends on x, y and p only, so mul is
    filled one left permutation and one block of left ranks at a time, as a
    table of base coordinates repeated over the right permutations q.
    """
    if n < 1:
        raise InvalidParameterError("need n >= 1")
    _check_order_cap(base.order**n * math.factorial(n), max_order)
    wi = WreathIndexing(base, n)
    weights = base.order ** np.arange(n - 1, -1, -1, dtype=np.int64)
    ranks = base.order ** n
    digits = np.arange(ranks, dtype=np.int64)[:, None] // weights % base.order
    perms = np.array(wi.perms, dtype=np.int64).reshape(wi.fact, n)
    # Permutations are listed lexicographically, so their base-n keys ascend.
    keys = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    comp = np.searchsorted(perms @ keys, perms[:, perms] @ keys).astype(ELEMENT)  # p o q
    mul = np.empty((ranks, wi.fact, ranks, wi.fact), dtype=ELEMENT)
    rows = max(1, _BLOCK_ENTRIES // ranks)
    for a, pinv in enumerate(np.argsort(perms, axis=1)):
        for lo in range(0, ranks, rows):  # a block of left coordinate ranks
            left = digits[lo:lo + rows]
            coords = sum(base.mul[left[:, i, None], digits[None, :, pinv[i]]] * weight
                         for i, weight in enumerate(weights.tolist()))
            coords *= wi.fact
            np.add(coords[:, :, None], comp[a], out=mul[lo:lo + rows, a])
    mul = mul.reshape(wi.order, wi.order)
    perm_labels = [_perm_label(perm) for perm in wi.perms]
    labels = [f"({','.join(base.labels[c] for c in coords)};{perm_label})"
              for coords in itertools.product(range(base.order), repeat=n)
              for perm_label in perm_labels]
    return _finish(mul, labels, GroupSpec("wreath", n=n, base=base.spec))


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
        prod = int(base.mul[prod, coords[pos]])
    return prod


def wreath_type(el: WreathElement, base: GroupTable) -> dict[int, tuple[int, ...]]:
    """Partition-valued conjugation invariant of a wreath element.

    Maps each base conjugacy class to the multiset (sorted descending) of
    cycle lengths whose forward cycle product lands in that class. Classes
    receiving nothing are omitted.
    """
    out: dict[int, list[int]] = {}
    for cyc in permutation_cycles(el.perm, include_fixed=True):
        prod = cycle_product(base, el.coords, tuple(i + 1 for i in cyc))
        out.setdefault(int(base.conj.class_of[prod]), []).append(len(cyc))
    return {cls: tuple(sorted(lengths, reverse=True))
            for cls, lengths in out.items()}


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

    A scalar k runs a Python loop over its bits, at most two gathers each,
    in place of the masked array steps a per-element k needs."""
    if np.ndim(k) == 0:
        k = int(k)
        base = group.inv[g] if k < 0 else np.array(g)
        result, k = None, abs(k)
        while k:
            if k & 1:
                result = base if result is None else group.mul[result, base]
            k >>= 1
            if k:
                base = group.mul[base, base]
        if result is None:
            result = np.full(np.shape(g), group.identity)
        return int(result) if np.ndim(result) == 0 else result
    g, k = np.broadcast_arrays(np.asarray(g), np.asarray(k))
    base = np.where(k < 0, group.inv[g], g)
    k = np.abs(k)
    result = np.full(k.shape, group.identity)
    while k.any():
        result = np.where(k & 1, group.mul[result, base], result)
        base = group.mul[base, base]
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
    mul, inv, e = group.mul, group.inv, group.identity
    gens = np.array(group.generators, dtype=np.int64)
    # maps[i, x] = s_i^-1 * (x * s_i): one gather per generator.
    maps = mul[inv[gens][:, None], mul[:, gens].T]
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
    members = np.split(np.argsort(class_of, kind="stable"), np.cumsum(sizes)[:-1])
    classes = tuple(tuple(part.tolist()) for part in members)

    class_inv = tuple(class_of[inv[mins]].tolist())
    # g is central exactly when its class is {g}.
    center = tuple(np.flatnonzero(sizes[class_of] == 1).tolist())
    return ConjugacyData(group=group, classes=classes, class_of=class_of,
                         class_inv=class_inv, center=center, orders=_element_orders(group))


def _element_orders(group: GroupTable) -> np.ndarray:
    """Order of every element, one prime p of |G| at a time: h = g^m, with m
    the part of |G| prime to p, has the p-part of g's order as its order, so
    h is raised to its p-th power until it is the identity."""
    n, e = group.order, group.identity
    orders = np.ones(n, dtype=np.int64)
    for p in (p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))):
        h = power(group, np.arange(n), n // math.gcd(n, p**n))
        pending = np.flatnonzero(h != e)
        while pending.size:
            orders[pending] *= p
            h[pending] = power(group, h[pending], p)
            pending = pending[h[pending] != e]
    return orders


# ---------------------------------------------------------------------------
# subgroup machinery

def subgroup_closure(group: GroupTable, generators: Iterable[int]) -> tuple[int, ...]:
    """Subgroup generated by the given elements (multiplicative closure).

    The generators are taken in increasing order. One already inside the
    closure of those before adds nothing; any other at least doubles it, so
    at most log2 |G| are used. A used generator g brings its repeated squares
    g^2, g^4, ... as steps, every member reached so far is multiplied by the
    new steps, and the new elements then grow breadth-first by every step.
    A set that holds the identity and is closed under the steps is the
    subgroup they generate, and g^k takes popcount(k) levels: the closure of
    {1} in Z_4096 takes 12 levels, not 4,095.
    """
    mul = group.mul
    seen = np.zeros(group.order, dtype=bool)
    seen[group.identity] = True
    steps: list[int] = []
    for g in sorted({int(x) for x in generators}):
        if seen[g]:
            continue
        new: list[int] = []
        while not seen[g] and g not in new:
            new.append(g)
            g = int(mul[g, g])
        frontier = mul[np.flatnonzero(seen)[:, None], new]
        steps += new
        while frontier.size:
            fresh = np.zeros_like(seen)
            fresh[frontier] = True
            fresh &= ~seen
            seen |= fresh
            frontier = mul[np.flatnonzero(fresh)[:, None], steps]
    return tuple(np.flatnonzero(seen).tolist())


def derived_series_solvable(group: GroupTable) -> tuple[bool, tuple[int, ...]]:
    """Derived series orders; solvable iff the series reaches the trivial group.

    H' is the normal closure N in H of the commutators of a generating set S
    of H (H/N is abelian, as the images of S commute): each commutator or
    conjugate s^-1 x s (s in S) outside the closure so far becomes one of its
    generators, at least doubling it. Those generators are the next S."""
    mul, inv = group.mul, group.inv
    gens, series = np.array(group.generators, dtype=np.int64), [group.order]
    while series[-1] > 1:
        a, b = gens[:, None], gens[None, :]
        todo = mul[mul[mul[a, b], inv[a]], inv[b]].ravel().tolist()  # a b a^-1 b^-1
        inside = np.arange(group.order) == group.identity
        derived: list[int] = []
        while todo:
            x = todo.pop()
            if not inside[x]:
                derived.append(x)
                inside[list(subgroup_closure(group, derived))] = True
                todo.extend(mul[mul[inv[gens], x], gens].tolist())
        if inside.sum() == series[-1]:
            return False, (*series, series[-1])
        gens = np.array(derived, dtype=np.int64)
        series.append(int(inside.sum()))
    return True, tuple(series)


# ---------------------------------------------------------------------------
# JSON interchange

def group_to_json(group: GroupTable) -> dict:
    return {
        "order": group.order,
        "identity": group.identity,
        "mul": group.mul.tolist(),
        "labels": list(group.labels),
    }


def group_to_json_str(group: GroupTable) -> str:
    return json.dumps(group_to_json(group), sort_keys=True, separators=(",", ":"))


def group_from_json(doc: dict, max_order: int = DEFAULT_MAX_ORDER,
                    spec: GroupSpec = GroupSpec("custom")) -> GroupTable:
    require_keys(doc, ("identity", "labels", "mul", "order"), "group document")
    order, identity = doc["order"], doc["identity"]
    if type(order) is not int or order < 1:  # a JSON true is no order
        raise SchemaError("order must be a positive integer")
    if type(identity) is not int:
        raise SchemaError("identity must be an integer")
    _check_order_cap(order, max_order)
    rows = doc["mul"]
    labels = [str(x) for x in doc["labels"]]
    if not isinstance(rows, list) or len(rows) != order:
        raise SchemaError("mul must be an order x order matrix")
    if len(labels) != order:
        raise SchemaError("labels length must equal order")
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
        mul[lo:lo + step] = _elements(block, block.shape, order, "mul")
    return _finish(mul, labels, spec, identity=identity)


def load_group(path: str, max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """A table read from a JSON file; its spec is file:PATH, whatever group
    the file holds, so it always gets the numerical character table."""
    with open(path, "r", encoding="utf-8") as fh:
        return group_from_json(json.load(fh), max_order, GroupSpec("file", path=path))


def save_group(group: GroupTable, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(group_to_json_str(group))


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
