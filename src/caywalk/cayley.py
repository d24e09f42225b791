"""Oriented Cayley graphs whose connection sets are unions of conjugacy classes.

An oriented connection set contains no identity, no self-inverse class, and at
most one class from each inverse pair, so the signed adjacency matrix is skew
symmetric. The symmetric variant (inverse-closed sets, 0/1 adjacency) exists
for the undirected lifting fixture.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidParameterError, OrientationError
from .groups import ConjugacyData, GroupTable, subgroup_closure

# enumerate_oriented_class_unions yields stacks of at most this many sets, so
# one criterion pass of a sweep stays small: at 128 the m2:5 sweep keeps the
# peak RSS of one set at a time, where 1,024 raised it by 2.6 MB.
_ENUM_BLOCK_SETS = 128


@dataclass(frozen=True, eq=False)
class CayleyGraph:
    """Cay(group, C) for C the union of the classes at class_indices
    (ascending); cayley_graph builds one and checks the set's rule."""

    group: GroupTable
    class_indices: tuple[int, ...]
    oriented: bool = True

    @property
    def conj(self) -> ConjugacyData:
        return self.group.conj

    @functools.cached_property
    def elements(self) -> tuple[int, ...]:
        """The connection set C, ascending."""
        chosen = np.zeros(len(self.conj.classes), dtype=bool)
        chosen[list(self.class_indices)] = True
        return tuple(np.flatnonzero(chosen[self.conj.class_of]).tolist())

    @property
    def order(self) -> int:
        return self.group.order


def check_orientation(class_inv: Sequence[int] | np.ndarray, identity_class: int,
                      classes: np.ndarray) -> None:
    """The oriented-set rule on every row of a 2-D array of class indices.

    A row may hold no identity class, no other real class (one equal to its
    inverse class), and no class together with its inverse class. Raises
    OrientationError listing every violation, each class once per rule.
    """
    class_inv = np.asarray(class_inv, dtype=np.int64)
    inverses = class_inv[classes]
    violations: list[tuple[str, tuple[int, ...]]] = []
    for c in sorted(set(classes[classes == identity_class].tolist())):
        violations.append((OrientationError.RULE_IDENTITY, (c,)))
    real = (inverses == classes) & (classes != identity_class)
    for c in sorted(set(classes[real].tolist())):
        violations.append((OrientationError.RULE_REAL, (c,)))
    paired = (classes[:, :, None] == inverses[:, None, :]).any(axis=2)
    for c in sorted(set(classes[paired & (classes < inverses)].tolist())):
        violations.append((OrientationError.RULE_INVERSE_PAIR, (c, int(class_inv[c]))))
    if violations:
        raise OrientationError(violations)


@dataclass(frozen=True, eq=False)
class ConnectionStack:
    """Oriented connection sets of one group, one row of class indices each.

    Every row is ascending and has the same number of classes, and every row
    passes check_orientation.
    """

    conj: ConjugacyData
    classes: np.ndarray

    def __post_init__(self) -> None:
        conj = self.conj
        check_orientation(conj.class_inv, int(conj.class_of[conj.group.identity]), self.classes)

    def __len__(self) -> int:
        return len(self.classes)

    def graph(self, i: int) -> CayleyGraph:
        """The Cayley graph of row i."""
        return cayley_graph(self.conj.group, self.classes[i].tolist())


def cayley_graph(group: GroupTable, class_indices: Iterable[int],
                 oriented: bool = True) -> CayleyGraph:
    """The Cayley graph of a union of classes, checked: an oriented set by
    check_orientation, a symmetric one (an undirected graph) for holding no
    identity class and each class's inverse class. Every violation is collected.
    """
    idx = sorted({int(c) for c in class_indices})
    conj = group.conj
    if not idx:
        raise InvalidParameterError("connection set cannot be empty")
    for c in idx:
        if not (0 <= c < len(conj.classes)):
            raise InvalidParameterError(f"class index {c} out of range")
    identity_class = int(conj.class_of[group.identity])
    if oriented:
        check_orientation(conj.class_inv, identity_class, np.array([idx], dtype=np.int64))
    else:
        violations: list[tuple[str, tuple[int, ...]]] = []
        for c in idx:
            if c == identity_class:
                violations.append((OrientationError.RULE_IDENTITY, (c,)))
            elif conj.class_inv[c] not in idx:
                violations.append((OrientationError.RULE_INVERSE_PAIR, (c, conj.class_inv[c])))
        if violations:
            raise OrientationError(violations)
    return CayleyGraph(group=group, class_indices=tuple(idx), oriented=oriented)


def adjacency_matrix(graph: CayleyGraph) -> np.ndarray:
    """Signed adjacency: the arc g -> c*g puts +1 at [c*g, g] and -1 at [g, c*g].

    Columns index the source vertex, so exp(tA) applied to a canonical basis
    vector evolves the walk that starts there. For a symmetric connection set
    the result is the usual 0/1 adjacency matrix.
    """
    n = graph.order
    group = graph.group
    cols = np.arange(n)
    a = np.zeros((n, n), dtype=np.float64)
    for c in graph.elements:
        a[group.multiply(c, cols), cols] += 1.0
        if graph.oriented:
            a[group.multiply(group.inv[c], cols), cols] -= 1.0
    return a


def is_connected(graph: CayleyGraph) -> bool:
    return len(subgroup_closure(graph.group, graph.elements)) == graph.order


def class_union_connectivity(conj: ConjugacyData) -> Callable[[Iterable[int]], bool]:
    """A test of whether a union of classes (given by index) generates the
    group, i.e. whether its Cayley graph is connected, for many unions.

    A union generates the join of the normal subgroups its classes generate
    one at a time, so the answer depends only on which of those subgroups it
    meets: one closure per class, then one per distinct set of subgroups.
    """
    group = conj.group
    normal = [subgroup_closure(group, cls) for cls in conj.classes]
    distinct = list(dict.fromkeys(normal))
    subgroup_of = [distinct.index(h) for h in normal]

    @functools.cache
    def generates(key: frozenset[int]) -> bool:
        return len(subgroup_closure(group, set().union(*(distinct[i] for i in key)))) \
            == group.order

    return lambda classes: generates(frozenset(subgroup_of[c] for c in classes))


def _inverse_pairs(conj: ConjugacyData) -> np.ndarray:
    """(c, class of c's inverses) for each class c below its inverse class."""
    identity_class = int(conj.class_of[conj.group.identity])
    return np.array([(c, cinv) for c, cinv in enumerate(conj.class_inv)
                     if c != identity_class and c < cinv], dtype=np.int64).reshape(-1, 2)


def count_oriented_class_unions(conj: ConjugacyData, max_classes: int | None = None) -> int:
    """How many sets enumerate_oriented_class_unions yields: sum over c up to
    the cap of C(P, c) 2^(c - 1) for P inverse pairs, (3^P - 1) / 2 uncapped."""
    pairs = len(_inverse_pairs(conj))
    cap = pairs if max_classes is None else min(max_classes, pairs)
    return sum(math.comb(pairs, c) << (c - 1) for c in range(1, cap + 1))


def enumerate_oriented_class_unions(conj: ConjugacyData,
                                    max_classes: int | None = None) -> Iterator[ConnectionStack]:
    """All valid oriented connection sets, one representative per global inversion.

    Classes come in inverse pairs; a set takes one side of each of `count`
    pairs. Sets are listed combination-major, then by orientation (the first
    pair's side varying slowest), and one is kept only if its sorted index
    row is smaller than that of its inverted image, so exactly one of C, C^-1
    appears: half the orientations of each combination. Sets come in that
    order, in stacks of one class count and at most _ENUM_BLOCK_SETS rows (or
    one combination's sets, when those are more).
    """
    class_inv = np.asarray(conj.class_inv, dtype=np.int64)
    pairs = _inverse_pairs(conj)
    cap = len(pairs) if max_classes is None else min(max_classes, len(pairs))

    for count in range(1, cap + 1):
        # sides[o, i] is the side of pair i in orientation o, itertools.product order
        sides = (np.arange(2 ** count)[:, None] >> np.arange(count - 1, -1, -1)) & 1
        combos = itertools.combinations(range(len(pairs)), count)
        per_block = max(1, _ENUM_BLOCK_SETS // 2 ** (count - 1))  # each keeps half its sides
        while True:
            flat = np.fromiter(itertools.chain.from_iterable(
                itertools.islice(combos, per_block)), dtype=np.int64)
            if flat.size == 0:
                break
            picked = pairs[flat.reshape(-1, 1, count), sides[None, :, :]]
            chosen = np.sort(picked.reshape(-1, count), axis=1)
            inverted = np.sort(class_inv[chosen], axis=1)
            # chosen <= inverted as tuples: compare at the first differing place
            first = np.argmax(chosen != inverted, axis=1)[:, None]
            keep = np.take_along_axis(chosen, first, 1) <= np.take_along_axis(inverted, first, 1)
            yield ConnectionStack(conj=conj, classes=chosen[keep[:, 0]])


# ---------------------------------------------------------------------------
# exports

def graph_to_dot(graph: CayleyGraph) -> str:
    directed = graph.oriented
    lines = ["digraph cayley {" if directed else "graph cayley {"]
    edge = "->" if directed else "--"
    labels = graph.group.labels
    heads = graph.group.multiply(np.array(graph.elements), np.arange(graph.order)[:, None])
    for g in range(graph.order):
        label = labels[g].replace("\\", "\\\\").replace('"', '\\"')  # a DOT quoted string
        lines.append(f'  n{g} [label="{label}"];')
    for g, row in enumerate(heads.tolist()):
        lines += [f"  n{g} {edge} n{h};" for h in row if directed or g < h]
    lines.append("}")
    return "\n".join(lines)


def adjacency_to_csv(matrix: np.ndarray) -> str:
    rows = [",".join(str(int(x)) for x in row) for row in matrix]
    return "\n".join(rows) + "\n"
