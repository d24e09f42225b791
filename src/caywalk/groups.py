"""Finite groups as explicit multiplication tables.

Every group is a validated Cayley table over elements 0..order-1. Family
constructors (cyclic powers, extraspecial 3-groups, modular maximal-cyclic
2-groups, wreath products with the full symmetric group) attach generator-word
labels and the GroupSpec that rebuilds them. A spec's compact spelling is the
one group grammar of the CLI, the fixture files and every printed group name.
"""
from __future__ import annotations

import itertools
import json
import math
import re
from collections import deque
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
)

# Orders up to this bound get the full associativity scan; larger tables get a
# seeded spot check (10 * order random triples).
FULL_ASSOC_LIMIT = 256
ASSOC_SPOT_FACTOR = 10
ASSOC_SPOT_SEED = 1729
# conjugacy forms its conjugation table this many entries (8 MB) at a time.
_CONJ_BLOCK_ENTRIES = 2**20


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
    """Immutable multiplication table: mul[a, b] is the product a*b."""

    order: int
    mul: np.ndarray
    identity: int
    inv: np.ndarray
    labels: tuple[str, ...]
    spec: GroupSpec = GroupSpec("custom")

    def __post_init__(self):
        _validate_table(self)
        self.mul.flags.writeable = False
        self.inv.flags.writeable = False

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


def _validate_table(g: GroupTable) -> None:
    n = g.order
    mul = g.mul
    if mul.shape != (n, n):
        raise GroupValidationError(f"table shape {mul.shape} does not match order {n}")
    if not (0 <= g.identity < n):
        raise GroupValidationError(f"identity index {g.identity} out of range")
    if len(g.labels) != n:
        raise GroupValidationError("label count does not match order")
    if mul.min() < 0 or mul.max() >= n:
        raise GroupValidationError("table entries out of range")

    rng_row = np.arange(n)
    if not np.array_equal(np.sort(mul, axis=1), np.broadcast_to(rng_row, (n, n))):
        raise GroupValidationError("rows are not permutations (Latin square fails)")
    if not np.array_equal(np.sort(mul, axis=0), np.broadcast_to(rng_row[:, None], (n, n))):
        raise GroupValidationError("columns are not permutations (Latin square fails)")

    e = g.identity
    if not np.array_equal(mul[e], rng_row) or not np.array_equal(mul[:, e], rng_row):
        raise GroupValidationError("identity axiom fails")
    if not np.all(mul[rng_row, g.inv] == e) or not np.all(mul[g.inv, rng_row] == e):
        raise GroupValidationError("inverse axiom fails")

    if n <= FULL_ASSOC_LIMIT:
        # (a*b)*c == a*(b*c) for every triple, checked one slice at a time to
        # keep memory linear in n^2.
        for a in range(n):
            left = mul[mul[a], :]
            right = mul[a][mul]
            if not np.array_equal(left, right):
                raise GroupValidationError(f"associativity fails at a={a}")
    else:
        rng = np.random.default_rng(ASSOC_SPOT_SEED)
        triples = rng.integers(0, n, size=(ASSOC_SPOT_FACTOR * n, 3))
        a, b, c = triples[:, 0], triples[:, 1], triples[:, 2]
        if not np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]]):
            raise GroupValidationError("associativity fails on spot check")


def _finish(mul: np.ndarray, labels: Sequence[str], spec: GroupSpec,
            identity: int = 0) -> GroupTable:
    mul = np.ascontiguousarray(mul, dtype=np.int32)
    inv = np.argmax(mul == identity, axis=1).astype(np.int32)
    return GroupTable(order=mul.shape[0], mul=mul, identity=identity,
                      inv=inv, labels=tuple(labels), spec=spec)


def _check_order_cap(order: int, max_order: int) -> None:
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

def build_cyclic(r: int, max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """Cyclic group of order r; element i is labeled str(i)."""
    if r < 1:
        raise InvalidParameterError("cyclic order must be positive")
    _check_order_cap(r, max_order)
    idx = np.arange(r)
    mul = (idx[:, None] + idx[None, :]) % r
    return _finish(mul, [str(i) for i in range(r)], GroupSpec("cyclic", r=r))


def build_abelian_power(r: int, n: int, max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """Direct power Z_r^n with componentwise addition on digit vectors."""
    if r < 1 or n < 1:
        raise InvalidParameterError("need r >= 1 and n >= 1")
    order = r**n
    _check_order_cap(order, max_order)
    # Grow the table one leading digit at a time: with T the table of the
    # last m = r^k elements, element f*m + a times g*m + b is
    # ((f + g) mod r)*m + T[a, b]. The result is the only O(|G|^2) array held.
    digit = np.arange(r, dtype=np.int32)
    step = np.add.outer(digit, digit) % r
    mul = step
    for _ in range(n - 1):
        m = mul.shape[0]
        mul = (step[:, None, :, None] * m + mul[None, :, None, :]).reshape(m * r, m * r)
    labels = ["(" + ",".join(map(str, v)) + ")"
              for v in itertools.product(range(r), repeat=n)]
    return _finish(mul, labels, GroupSpec("abelian", r=r, n=n))


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
        twist = 4**j % 9
        mul = 3 * ((i[:, None] + i[None, :] * twist[:, None]) % 9) \
            + (j[:, None] + j[None, :]) % 3
        labels = [_word([("x", x), ("y", y)]) for x, y in zip(i.tolist(), j.tolist())]
        return _finish(mul, labels, GroupSpec("extraspecial3", n=n, exponent=9))

    # Heisenberg model: (a, b, c) with a, b in F_3^n, c in F_3 and
    # (a1,b1,c1)(a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1.b2); element (a, b, c)
    # at index (A*3^n + B)*3 + c, A and B the base-3 numbers of a and b.
    m = 3**n
    ab, c = np.divmod(np.arange(order), 3)
    digits = np.array([digits_of(k, 3, n) for k in range(m)], dtype=np.int64)
    a, b = digits[ab // m], digits[ab % m]
    mul = (c[:, None] + c[None, :] + a @ b.T) % 3
    for k, place in enumerate(3 ** np.arange(n - 1, -1, -1)):
        mul += (a[:, k, None] + a[None, :, k]) % 3 * (place * 3 * m)
        mul += (b[:, k, None] + b[None, :, k]) % 3 * (place * 3)

    # Normal form x^a y^b z^t with t = c - a.b.
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
    half = 2 ** (n - 1)
    twist = 2 ** (n - 2) + 1

    i, j = np.divmod(np.arange(order), 2)
    twists = np.where(j == 1, twist, 1)
    mul = 2 * ((i[:, None] + i[None, :] * twists[:, None]) % half) \
        + (j[:, None] + j[None, :]) % 2
    labels = [_word([("x", x), ("sigma", s)]) for x, s in zip(i.tolist(), j.tolist())]
    return _finish(mul, labels, GroupSpec("m2", n=n))


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

    def diagonal(self, g: int, perm: tuple[int, ...] | None = None) -> int:
        """Index of (g, g, ..., g; perm), defaulting to the identity permutation."""
        perm = perm if perm is not None else tuple(range(self.n))
        return self.encode(WreathElement((g,) * self.n, perm))


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Function composition p after q: (p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def build_wreath_sym(base: GroupTable, n: int,
                     max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """Wreath product base wr S_n with the place-permutation action.

    Product rule: (x; p)(y; q) = (x * (p.y); p o q) where (p.y)_i = y_(p^-1(i)).
    """
    wi = WreathIndexing(base, n)
    _check_order_cap(wi.order, max_order)
    order = wi.order
    elems = [wi.decode(i) for i in range(order)]
    coords = np.array([el.coords for el in elems], dtype=np.int64)
    perm_ids = np.array([wi.perm_rank[el.perm] for el in elems], dtype=np.int64)

    comp = np.zeros((wi.fact, wi.fact), dtype=np.int64)
    for a, p in enumerate(wi.perms):
        for b, q in enumerate(wi.perms):
            comp[a, b] = wi.perm_rank[_compose(p, q)]

    weights = base.order ** np.arange(n - 1, -1, -1, dtype=np.int64)
    bmul = base.mul.astype(np.int64)
    mul = np.zeros((order, order), dtype=np.int64)
    for a in range(order):
        pa = elems[a].perm
        pinv = _invert(pa)
        shuffled = coords[:, pinv]
        prod_coords = bmul[np.asarray(elems[a].coords), shuffled]
        mul[a] = (prod_coords @ weights) * wi.fact + comp[perm_ids[a], perm_ids]

    labels = []
    for el in elems:
        inner = ",".join(base.labels[c] for c in el.coords)
        labels.append(f"({inner};{_perm_label(el.perm)})")
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


def wreath_type(el: WreathElement, base: GroupTable,
                base_conj: "ConjugacyData") -> dict[int, tuple[int, ...]]:
    """Partition-valued conjugation invariant of a wreath element.

    Maps each base conjugacy class to the multiset (sorted descending) of
    cycle lengths whose forward cycle product lands in that class. Classes
    receiving nothing are omitted.
    """
    out: dict[int, list[int]] = {}
    for cyc in permutation_cycles(el.perm, include_fixed=True):
        prod = cycle_product(base, el.coords, tuple(i + 1 for i in cyc))
        out.setdefault(int(base_conj.class_of[prod]), []).append(len(cyc))
    return {cls: tuple(sorted(lengths, reverse=True))
            for cls, lengths in out.items()}


# ---------------------------------------------------------------------------
# conjugacy structure

@dataclass(eq=False)
class ConjugacyData:
    """Conjugacy classes plus the derived maps the engine needs.

    Class 0 is always {identity}; the rest are ordered by their minimal
    element. class_inv[j] is the class of inverses of class j.
    """

    group: GroupTable
    classes: tuple[tuple[int, ...], ...]
    class_of: np.ndarray
    class_inv: tuple[int, ...]
    center: tuple[int, ...]
    exponent: int
    _power_cache: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def sizes(self) -> np.ndarray:
        return np.array([len(c) for c in self.classes], dtype=np.int64)

    @cached_property
    def center_exponent(self) -> int:
        """Least common multiple of the orders of the central elements."""
        return math.lcm(*(element_order(self.group, z) for z in self.center))

    def class_power(self, k: int) -> tuple[int, ...]:
        """Permutation j -> class of g^k for g in class j (depends on k mod exponent)."""
        k = k % self.exponent
        cached = self._power_cache.get(k)
        if cached is not None:
            return cached
        g = self.group
        perm = tuple(int(self.class_of[power(g, cls[0], k)]) for cls in self.classes)
        self._power_cache[k] = perm
        return perm


def power(group: GroupTable, g: int, k: int) -> int:
    """g^k by repeated squaring on the table."""
    result = group.identity
    base = g
    k = int(k)
    if k < 0:
        base = int(group.inv[g])
        k = -k
    while k:
        if k & 1:
            result = int(group.mul[result, base])
        base = int(group.mul[base, base])
        k >>= 1
    return result


def element_order(group: GroupTable, g: int) -> int:
    cur = g
    order = 1
    while cur != group.identity:
        cur = int(group.mul[cur, g])
        order += 1
    return order


def conjugacy(group: GroupTable) -> ConjugacyData:
    """Conjugacy classes, identity class first, the rest by minimal element.

    Each element's class is named by its smallest conjugate. Row g of the
    conjugation table, h^-1 g h over all h, lists g's class, so its minimum
    names every element in it. Rows are formed for a block of still unnamed
    elements at a time, doubling up to _CONJ_BLOCK_ENTRIES entries, so no
    |G| x |G| array is held and a group with few classes forms few rows.
    """
    n = group.order
    mul, inv, e = group.mul, group.inv, group.identity
    rep = np.full(n, -1, dtype=np.int64)
    pending = np.arange(n)
    cap = max(1, _CONJ_BLOCK_ENTRIES // n)
    block = min(64, cap)
    while pending.size:
        g = pending[:block]
        # rows[i, h] = h^-1 * (g[i] * h), all conjugates of g[i].
        rows = mul[inv[None, :], mul[g]]
        rep[rows] = rows.min(axis=1)[:, None]
        pending = pending[block:]
        pending = pending[rep[pending] < 0]
        block = min(2 * block, cap)

    # Canonical order: identity singleton first, the rest by minimal element.
    mins = np.unique(rep)
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
    exponent = math.lcm(*np.unique(_element_orders(group)).tolist())
    return ConjugacyData(group=group, classes=classes, class_of=class_of,
                         class_inv=class_inv, center=center, exponent=exponent)


def _element_orders(group: GroupTable) -> np.ndarray:
    """Order of every element, by stepping all powers g^k at once."""
    n, e = group.order, group.identity
    orders = np.ones(n, dtype=np.int64)
    pending = np.flatnonzero(np.arange(n) != e)
    cur = pending.copy()
    k = 1
    while pending.size:
        k += 1
        cur = group.mul[cur, pending]
        done = cur == e
        orders[pending[done]] = k
        pending, cur = pending[~done], cur[~done]
    return orders


# ---------------------------------------------------------------------------
# subgroup machinery

def subgroup_closure(group: GroupTable, generators: Iterable[int]) -> tuple[int, ...]:
    """Subgroup generated by the given elements (multiplicative closure)."""
    gens = sorted({int(g) for g in generators})
    members = {group.identity}
    frontier = deque([group.identity])
    mul = group.mul
    while frontier:
        g = frontier.popleft()
        for s in gens:
            h = int(mul[g, s])
            if h not in members:
                members.add(h)
                frontier.append(h)
    return tuple(sorted(members))


def derived_series_solvable(group: GroupTable) -> tuple[bool, tuple[int, ...]]:
    """Derived series orders; solvable iff the series reaches the trivial group."""
    if group.order == 1:
        return True, (1,)
    mul, inv = group.mul, group.inv
    current = tuple(range(group.order))
    series = [group.order]
    while True:
        h = np.array(current, dtype=np.int64)
        inv_h = inv[h]
        comms: set[int] = set()
        for a in current:
            t = mul[mul[np.int64(a), h], inv[a]]
            comms.update(int(x) for x in mul[t, inv_h])
        derived = subgroup_closure(group, comms)
        series.append(len(derived))
        if len(derived) == 1:
            return True, tuple(series)
        if len(derived) == len(current):
            return False, tuple(series)
        current = derived


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
    required = {"order", "identity", "mul", "labels"}
    if not isinstance(doc, dict) or not required.issubset(doc):
        missing = required - set(doc) if isinstance(doc, dict) else required
        raise SchemaError(f"group document missing keys: {sorted(missing)}")
    order = doc["order"]
    if not isinstance(order, int) or order < 1:
        raise SchemaError("order must be a positive integer")
    _check_order_cap(order, max_order)
    mul = np.array(doc["mul"], dtype=np.int64)
    labels = [str(x) for x in doc["labels"]]
    if mul.shape != (order, order):
        raise SchemaError("mul must be an order x order matrix")
    if len(labels) != order:
        raise SchemaError("labels length must equal order")
    return _finish(mul, labels, spec, identity=int(doc["identity"]))


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
