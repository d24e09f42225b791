"""Signed adjacency, spectra, projectors, enumeration, and exports."""
import numpy as np
import pytest

from caywalk import cayley
from caywalk.cayley import (
    CayleyGraph,
    ConnectionStack,
    adjacency_matrix,
    adjacency_to_csv,
    cayley_graph,
    class_union_connectivity,
    enumerate_oriented_class_unions,
    graph_to_dot,
    is_connected,
)
from caywalk.characters import (
    abelian_character_table,
    character_table_for,
)
from caywalk.engine import (
    check_imported_claim,
    connection_character_sums,
    spectrum,
    spectrum_report,
)
from caywalk.errors import InconsistencyError, InvalidParameterError, OrientationError
from caywalk.groups import (
    GroupTable,
    build_abelian_power,
    build_cyclic,
    build_extraspecial3,
    build_group,
    conjugacy,
    parse_group_spec,
)
from caywalk.interchange import export_character_table, import_character_table
from conftest import abelian_residue_counts, idempotent, theta_from_residue_counts


def cyclic_graph(r, classes, oriented=True):
    return cayley_graph(build_cyclic(r), classes, oriented=oriented)


# ---------------------------------------------------------------------------
# Connection set validation


def test_oriented_set_accepts_half_of_an_inverse_pair():
    graph = cayley_graph(build_cyclic(8), [5, 1, 2, 1])
    assert graph.class_indices == (1, 2, 5)
    assert graph.elements == (1, 2, 5)
    assert graph.oriented and graph.conj is graph.group.conj


def test_oriented_set_collects_every_violation():
    with pytest.raises(OrientationError) as exc:
        cayley_graph(build_cyclic(8), [0, 4, 1, 7])
    rules = sorted(rule for rule, _ in exc.value.violations)
    assert rules == [
        OrientationError.RULE_IDENTITY,
        OrientationError.RULE_INVERSE_PAIR,
        OrientationError.RULE_REAL,
    ]
    by_rule = {rule: cls for rule, cls in exc.value.violations}
    assert by_rule[OrientationError.RULE_IDENTITY] == (0,)
    assert by_rule[OrientationError.RULE_REAL] == (4,)
    assert set(by_rule[OrientationError.RULE_INVERSE_PAIR]) == {1, 7}


def test_oriented_set_rejects_empty_and_out_of_range():
    g = build_cyclic(8)
    with pytest.raises(InvalidParameterError):
        cayley_graph(g, [])
    with pytest.raises(InvalidParameterError):
        cayley_graph(g, [99])


def test_symmetric_set_requires_inverse_closure():
    g = build_cyclic(8)
    good = cayley_graph(g, [1, 7], oriented=False)
    assert good.elements == (1, 7) and not good.oriented
    with pytest.raises(OrientationError):
        cayley_graph(g, [1], oriented=False)
    with pytest.raises(OrientationError):
        cayley_graph(g, [0, 1, 7], oriented=False)


# ---------------------------------------------------------------------------
# Adjacency matrices


def test_adjacency_cyclic3_exact():
    graph = cyclic_graph(3, [1])
    a = adjacency_matrix(graph)
    assert np.array_equal(a, np.array([
        [0.0, -1.0, 1.0],
        [1.0, 0.0, -1.0],
        [-1.0, 1.0, 0.0],
    ]))


def test_adjacency_is_skew_with_small_entries():
    graph = cyclic_graph(8, [1, 2, 5])
    a = adjacency_matrix(graph)
    assert np.array_equal(a, -a.T)
    assert set(np.unique(a)) <= {-1.0, 0.0, 1.0}
    assert np.array_equal(a.sum(axis=0), np.zeros(8))
    assert np.array_equal(a.sum(axis=1), np.zeros(8))


def test_adjacency_undirected_cycle():
    graph = cyclic_graph(4, [1, 3], oriented=False)
    a = adjacency_matrix(graph)
    want = np.zeros((4, 4))
    for g in range(4):
        want[(g + 1) % 4, g] = 1.0
        want[(g - 1) % 4, g] = 1.0
    assert np.array_equal(a, want)
    assert np.array_equal(a, a.T)


# ---------------------------------------------------------------------------
# Spectra


def test_spectrum_cyclic3_eigenvalues():
    graph = cyclic_graph(3, [1])
    table = abelian_character_table(3, 1)
    spec = spectrum(graph, table)
    root3 = np.sqrt(3.0)
    assert np.allclose(sorted(spec.imag), [-root3, 0.0, root3])
    eig = np.linalg.eigvals(adjacency_matrix(graph))
    assert np.allclose(sorted(eig.imag), sorted(spec.imag), atol=1e-9)
    assert np.max(np.abs(eig.real)) < 1e-9


def test_spectrum_matches_residue_count_formula():
    graph = cyclic_graph(8, [1, 2, 5])
    table = abelian_character_table(8, 1)
    spec = spectrum(graph, table)
    for v in range(8):
        counts = abelian_residue_counts(graph.group, graph.elements, [v], 8)
        assert abs(spec[v] - theta_from_residue_counts(counts, 8)) < 1e-12
    # the v = 1 value is 2i(sin 45 + sin 90 + sin 225) = 2i exactly
    assert abs(spec[1] - 2j) < 1e-12


def test_character_sums_direct():
    graph = cyclic_graph(8, [1, 2, 5])
    table = abelian_character_table(8, 1)
    sums = connection_character_sums(table, graph.class_indices)
    zeta = np.exp(2j * np.pi / 8)
    for v in range(8):
        assert abs(sums[v] - (zeta**v + zeta ** (2 * v) + zeta ** (5 * v))) < 1e-12


def test_spectrum_rejects_foreign_table():
    graph = cyclic_graph(8, [1, 2, 5])
    with pytest.raises(InconsistencyError):
        spectrum(graph, abelian_character_table(3, 1))


def first_oriented_class(conj):
    identity_class = int(conj.class_of[conj.group.identity])
    for c in range(len(conj.classes)):
        if c != identity_class and conj.class_inv[c] != c:
            return c
    raise AssertionError("no oriented class available")


def extraspecial_graph():
    g = build_extraspecial3(1)
    conj = conjugacy(g)
    c = first_oriented_class(conj)
    graph = cayley_graph(g, [c])
    table = character_table_for(g)
    return graph, table


def test_eigenvalue_multiset_from_degrees():
    """Adjacency eigenvalues must be the per-character values, each deg^2 times."""
    graph, table = extraspecial_graph()
    spec = spectrum(graph, table)
    predicted = []
    for i in range(table.n_chars):
        predicted.extend([spec[i].imag] * int(table.degrees[i]) ** 2)
    eig = np.linalg.eigvals(adjacency_matrix(graph))
    assert np.max(np.abs(eig.real)) < 1e-9
    assert np.allclose(sorted(eig.imag), sorted(predicted), atol=1e-7)


def test_idempotents_resolve_adjacency():
    graph, table = extraspecial_graph()
    spec = spectrum(graph, table)
    a = adjacency_matrix(graph)
    n = graph.order
    total = np.zeros((n, n), dtype=np.complex128)
    rebuilt = np.zeros((n, n), dtype=np.complex128)
    for i in range(table.n_chars):
        e = idempotent(graph, table, i)
        assert np.max(np.abs(e @ e - e)) < 1e-9           # projector
        assert np.max(np.abs(e - e.conj().T)) < 1e-9       # hermitian
        assert np.max(np.abs(a @ e - spec[i] * e)) < 1e-8  # eigenspace
        total += e
        rebuilt += spec[i] * e
    assert np.max(np.abs(total - np.eye(n))) < 1e-9
    assert np.max(np.abs(rebuilt - a)) < 1e-8


def test_idempotent_ranks_square_degrees():
    graph, table = extraspecial_graph()
    for i in range(table.n_chars):
        e = idempotent(graph, table, i)
        rank = int(round(float(np.trace(e).real)))
        assert rank == int(table.degrees[i]) ** 2


# ---------------------------------------------------------------------------
# Connectivity and enumeration


def test_is_connected():
    assert is_connected(cyclic_graph(8, [1, 2, 5]))
    assert not is_connected(cyclic_graph(8, [2]))


def enumerated_sets(conj, **kwargs) -> list[tuple[int, ...]]:
    return [tuple(row) for stack in enumerate_oriented_class_unions(conj, **kwargs)
            for row in stack.classes.tolist()]


@pytest.mark.parametrize("spec", ["z4^2", "z:12", "m2:5", "es3:1", "wreath:z:3:2"])
def test_class_union_connectivity_matches_is_connected_on_every_set(spec):
    conj = conjugacy(build_group(parse_group_spec(spec)))
    connected = class_union_connectivity(conj)
    seen = set()
    for stack in enumerate_oriented_class_unions(conj):
        for i, row in enumerate(stack.classes.tolist()):
            seen.add(connected(row))
            assert connected(row) == is_connected(stack.graph(i)), row
    assert seen == {True, False}


def test_enumeration_count_cyclic8():
    conj = conjugacy(build_cyclic(8))
    sets = enumerated_sets(conj)
    assert len(sets) == 13
    seen = set(sets)
    assert len(seen) == 13
    assert (1, 2, 5) in seen


def test_enumeration_is_canonical_and_valid():
    g = build_cyclic(8)
    conj = g.conj
    for s in enumerated_sets(conj):
        cayley_graph(g, s)  # must not raise
        inverted = tuple(sorted(conj.class_inv[c] for c in s))
        assert s <= inverted


def test_enumeration_count_z4_squared():
    conj = conjugacy(build_abelian_power(4, 2))
    sets = enumerated_sets(conj)
    assert len(sets) == 364


def test_enumeration_class_cap():
    conj = conjugacy(build_cyclic(8))
    sets = enumerated_sets(conj, max_classes=1)
    assert sorted(sets) == [(1,), (2,), (3,)]


def test_enumeration_blocks_keep_one_class_count_and_their_bound(monkeypatch):
    conj = conjugacy(build_abelian_power(4, 2))
    monkeypatch.setattr(cayley, "_ENUM_BLOCK_SETS", 16)
    stacks = list(enumerate_oriented_class_unions(conj))
    counts = [stack.classes.shape[1] for stack in stacks]
    assert counts == sorted(counts) and set(counts) == {1, 2, 3, 4, 5, 6}
    assert all(len(s) <= max(16, 2 ** (s.classes.shape[1] - 1)) for s in stacks)
    assert max(len(s) for s in stacks) == 32  # one combination of six pairs
    monkeypatch.undo()
    assert [tuple(r) for s in stacks for r in s.classes.tolist()] == enumerated_sets(conj)


def _orientation_violations(check) -> list:
    with pytest.raises(OrientationError) as info:
        check()
    return info.value.violations


@pytest.mark.parametrize("rows, rule", [
    ([[0, 1]], OrientationError.RULE_IDENTITY),
    ([[1, 2]], OrientationError.RULE_REAL),  # class 2 is {2}, an involution in Z_4
    ([[0, 1], [1, 3]], OrientationError.RULE_INVERSE_PAIR),
])
def test_connection_stack_checks_the_orientation_rules(rows, rule):
    """The stack reports the rule, and exactly the violations that
    cayley_graph and an imported-table claim report row by row."""
    g = build_cyclic(4)
    conj = g.conj
    stack = _orientation_violations(
        lambda: ConnectionStack(conj=conj, classes=np.array(rows, dtype=np.int64)))
    assert rule in {r for r, _ in stack}
    assert (OrientationError.RULE_REAL, (0,)) not in stack  # the identity is not real
    imported = import_character_table(
        export_character_table(abelian_character_table(4, 1), conj))
    per_row = []
    for row in rows:
        one = _orientation_violations(lambda: cayley_graph(g, row))
        claim = {"z_class": 2, "time": "pi/2", "connection_classes": row}
        assert _orientation_violations(lambda: check_imported_claim(imported, claim)) == one
        per_row += one
    assert sorted(stack) == sorted(per_row)


# ---------------------------------------------------------------------------
# Exports


def test_dot_output_directed():
    graph = cyclic_graph(3, [1])
    dot = graph_to_dot(graph)
    assert dot.startswith("digraph")
    for edge in ("n0 -> n1", "n1 -> n2", "n2 -> n0"):
        assert edge in dot
    assert "n1 -> n0" not in dot
    assert 'label="0"' in dot


def test_dot_output_undirected_no_duplicate_edges():
    graph = cyclic_graph(4, [1, 3], oriented=False)
    dot = graph_to_dot(graph)
    assert dot.startswith("graph")
    assert dot.count("n0 -- n1") == 1
    assert "n1 -- n0" not in dot


def test_dot_labels_are_escaped_quoted_strings():
    """A file: table's labels may hold quotes and backslashes; each label
    stays one DOT quoted string. Family labels hold neither, so their
    output is unchanged."""
    z3 = build_cyclic(3)
    group = GroupTable(order=3, mul=z3.mul, identity=0, inv=z3.inv,
                       labels=("e", 'x"];evil', "a\\b"))
    dot = graph_to_dot(cayley_graph(group, [1]))
    assert dot.splitlines()[2] == '  n1 [label="x\\"];evil"];'
    assert dot.splitlines()[3] == '  n2 [label="a\\\\b"];'
    assert graph_to_dot(cyclic_graph(3, [1])).splitlines()[1:4] == \
        ['  n0 [label="0"];', '  n1 [label="1"];', '  n2 [label="2"];']


def test_csv_output_exact():
    graph = cyclic_graph(3, [1])
    assert adjacency_to_csv(adjacency_matrix(graph)) == "0,-1,1\n1,0,-1\n-1,1,0\n"


def test_spectrum_report_fields():
    graph, table = extraspecial_graph()
    report = spectrum_report(table, spectrum(graph, table))
    assert len(report) == table.n_chars
    assert sum(r["multiplicity"] for r in report) == graph.order
    for r in report:
        assert set(r) == {"character", "degree", "theta_imag", "multiplicity"}
