"""Group tables, family constructors, conjugacy machinery, JSON interchange."""
import io
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caywalk import groups
from caywalk.cayley import enumerate_oriented_class_unions
from caywalk.cli import EXIT_SIZE, EXIT_VALIDATION, main
from caywalk.errors import (
    GroupValidationError,
    InvalidParameterError,
    SchemaError,
    SizeLimitError,
)
from caywalk.groups import (
    GroupTable,
    _element_orders,
    _write_group,
    WreathElement,
    WreathIndexing,
    build_abelian_power,
    build_cyclic,
    build_extraspecial3,
    build_modular_maximal_cyclic,
    build_wreath_sym,
    build_group,
    conjugacy,
    cycle_product,
    derived_series_solvable,
    digits_of,
    group_from_json,
    index_of_digits,
    load_group,
    parse_group_spec,
    permutation_cycles,
    power,
    save_group,
    subgroup_closure,
)

from conftest import (
    CYCLIC_ORDERS,
    blocked_row_smallest_conjugates,
    brute_conjugacy_classes,
    brute_derived_series,
    deque_subgroup_closure,
    digit_sum_abelian_power,
    element_order,
    group_to_json,
    intercalate_z2_9,
    is_associative,
    light_validate,
    loop_extraspecial3,
    loop_modular_maximal_cyclic,
    loop_wreath_sym,
    octonion_unit_loop,
    orbit_conjugacy,
    permutation_group_table,
    reference_group,
    sort_loop_spot_validate,
    window_cyclic_mul,
    wreath_type,
)


def family_members(max_order: int) -> list[str]:
    """Specs of the family members up to max_order the differential tests cover.

    Every abelian power z<r>^<n> with n >= 2, every extraspecial3 and m2
    member, every wreath product over z:2..z:6 and es3:1 / es3:1:9, and the
    cyclic groups of CYCLIC_ORDERS.
    """
    specs = [f"z:{r}" for r in CYCLIC_ORDERS if r <= max_order]
    specs += [f"z{r}^{n}" for r in range(2, max_order) for n in range(2, 11)
              if r**n <= max_order]
    specs += [f"es3:{n}" for n in (1, 2, 3) if 3 ** (2 * n + 1) <= max_order]
    specs += ["es3:1:9"] if 27 <= max_order else []
    specs += [f"m2:{n}" for n in range(4, 13) if 2**n <= max_order]
    for base, size in [("z:2", 2), ("z:3", 3), ("z:4", 4), ("z:5", 5), ("z:6", 6),
                       ("es3:1", 27), ("es3:1:9", 27)]:
        specs += [f"wreath:{base}:{n}" for n in range(1, 7)
                  if size**n * math.factorial(n) <= max_order]
    return specs


def test_cyclic_table():
    g = build_cyclic(6)
    assert g.order == 6 and g.identity == 0
    assert g.mul[2, 5] == 1
    assert list(g.inv) == [0, 5, 4, 3, 2, 1]
    assert g.label_of(3) == "3" and g.index_of("4") == 4
    for r in CYCLIC_ORDERS:
        idx = np.arange(r)
        assert np.array_equal(build_cyclic(r).mul, (idx[:, None] + idx[None, :]) % r), r


def test_cyclic_law_does_not_wrap_at_the_largest_order():
    # uint16 indices near 2**16 are summed without wrapping, by the law (in
    # int32) and by the window reference (a view over 2 * 65,536 entries,
    # never the 8 GB table).
    r = 2**16
    g = build_cyclic(r, max_order=r)
    mul = window_cyclic_mul(r)
    assert mul.shape == (r, r) and mul.dtype == np.uint16
    j = np.arange(r)
    assert np.array_equal(g.inv, -j % r)
    for i in (0, 1, 2**15, r - 1):
        assert np.array_equal(g.multiply(np.uint16(i), j.astype(np.uint16)), (i + j) % r), i
        assert np.array_equal(mul[i], (i + j) % r), i


@pytest.mark.parametrize("spec", ["z:12", "z3^4", "es3:2", "es3:1:9", "m2:6",
                                  "wreath:z:3:2", "wreath:es3:1:1", "file", "custom"])
def test_every_construction_path_stores_read_only_uint16_tables(tmp_path, spec):
    if spec == "custom":
        g = build_cyclic(6)
        group = GroupTable(order=6, mul=g.mul.astype(np.int64), identity=0,
                           inv=g.inv.astype(np.int64), labels=g.labels)
    elif spec == "file":
        path = tmp_path / "g.json"
        save_group(build_group(parse_group_spec("wreath:z:2:3")), str(path))
        group = load_group(str(path))
    else:
        group = build_group(parse_group_spec(spec))
    for table in (group.mul, group.inv):
        assert table.dtype == np.uint16
        assert table.flags.c_contiguous and not table.flags.writeable
    assert np.array_equal(group.mul[np.arange(group.order), group.inv], np.zeros(group.order))


@pytest.mark.parametrize("entry", ["minus one", "order"])
def test_range_is_checked_before_the_uint16_cast(tmp_path, entry):
    g = build_cyclic(5)
    bad = -1 if entry == "minus one" else 5
    mul = g.mul.astype(np.int64)
    mul[2, 3] = bad
    with pytest.raises(GroupValidationError, match="mul entries out of range"):
        GroupTable(order=5, mul=mul, identity=0, inv=g.inv.copy(), labels=g.labels)
    inv = g.inv.astype(np.int64)
    inv[1] = bad
    with pytest.raises(GroupValidationError, match="inv entries out of range"):
        GroupTable(order=5, mul=g.mul, identity=0, inv=inv, labels=g.labels)
    doc = group_to_json(g)
    doc["mul"][2][3] = bad
    with pytest.raises(GroupValidationError, match="out of range"):
        group_from_json(doc)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["group", "info", f"file:{path}"]) == EXIT_VALIDATION


@pytest.mark.parametrize("bad", [1.5, "1", None, 2**70])
def test_file_tables_refuse_entries_that_are_not_integers(bad):
    doc = group_to_json(build_cyclic(3))
    doc["mul"][1][2] = bad
    with pytest.raises(GroupValidationError, match="not integers"):
        group_from_json(doc)


def test_file_tables_refuse_a_boolean_of_the_right_value(tmp_path):
    """In z:3, 2 * 2 = 1, and numpy reads a JSON true among integers as 1."""
    doc = group_to_json(build_cyclic(3))
    doc["mul"][2][2] = True
    with pytest.raises(GroupValidationError, match="not integers"):
        group_from_json(doc)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["group", "info", f"file:{path}"]) == EXIT_VALIDATION


@pytest.mark.parametrize("labels", ["abc", ["a", "b", 2], {"a": 0, "b": 1, "c": 2},
                                    ["a", "b"]])
def test_file_labels_must_be_a_list_of_strings(tmp_path, labels):
    doc = group_to_json(build_cyclic(3))
    doc["labels"] = labels
    with pytest.raises(SchemaError, match="labels must be a list of 3 strings"):
        group_from_json(doc)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["group", "info", f"file:{path}"]) == EXIT_VALIDATION


def test_file_labels_must_be_distinct(tmp_path, capsys):
    """A repeated label would resolve to its first element: --classes a
    would quietly name the identity."""
    doc = group_to_json(build_cyclic(3))
    doc["labels"] = ["a", "a", "b"]
    with pytest.raises(SchemaError, match="labels must be distinct"):
        group_from_json(doc)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["pst", "mst", "--group", f"file:{path}", "--classes", "1"],
                 ["pst", "check", "--group", f"file:{path}", "--classes", "a",
                  "--target", "b", "--time", "1"]):
        assert main(argv) == EXIT_VALIDATION, argv
    assert "labels must be distinct" in capsys.readouterr().err


def test_ragged_file_table_is_a_schema_error():
    doc = group_to_json(build_cyclic(3))
    doc["mul"][1] = [1, 2]
    with pytest.raises(SchemaError):
        group_from_json(doc)


@pytest.mark.parametrize("field, value", [("identity", "0"), ("identity", 0.0),
                                          ("identity", False), ("identity", None),
                                          ("order", True), ("order", 3.0)])
def test_file_order_and_identity_must_be_integers(field, value):
    doc = group_to_json(build_cyclic(1 if field == "order" else 3))
    doc[field] = value
    with pytest.raises(SchemaError, match=f"{field} must be"):
        group_from_json(doc)


@pytest.mark.parametrize("spec", ["z:70000", "wreath:z:4:5", "z2^17", "m2:17", "es3:5"])
def test_orders_past_uint16_are_refused_before_any_allocation(spec):
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="uint16"):
            build_group(parse_group_spec(spec), max_order=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_cli_refuses_orders_past_uint16_with_exit_4(capsys):
    assert main(["--max-order", "1000000", "group", "info", "z:70000"]) == EXIT_SIZE
    assert "65536" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["z:4096", "z3^7", "es3:3", "m2:10", "wreath:z:3:4",
                                  "wreath:z:32:2"])
def test_builds_trace_at_most_three_table_sizes(spec):
    """On the table backend (file: and custom groups) the uint16 table is
    2 |G|^2 bytes; the inverse search and the checks together add at most
    |G|^2 more. The table is written out of the law before tracing starts."""
    law = build_group(parse_group_spec(spec))
    mul, labels = law.mul, law.labels
    tracemalloc.start()
    try:
        group = groups._finish(mul, labels, law.spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.generators == law.generators
    assert 2 * group.order**2 + peak <= 3 * group.order**2


@pytest.mark.parametrize("spec", ["z3^7", "wreath:z:3:4"])
def test_law_groups_build_and_classify_without_a_table(spec):
    """A law stores inv and no table: the build plus the conjugacy data trace
    under 2 MB, where the 2,187 x 2,187 uint16 table alone is 9.6 MB."""
    parsed = parse_group_spec(spec)
    tracemalloc.start()
    try:
        build_group(parsed).conj
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_cyclic_rejects_bad_order():
    with pytest.raises(InvalidParameterError):
        build_cyclic(0)


def test_order_cap():
    with pytest.raises(SizeLimitError):
        build_cyclic(5000)
    with pytest.raises(SizeLimitError):
        build_cyclic(100, max_order=50)


def test_abelian_power_arithmetic():
    g = build_abelian_power(3, 2)
    a = index_of_digits((1, 0), 3)
    b = index_of_digits((2, 2), 3)
    assert g.mul[a, b] == index_of_digits((0, 2), 3)
    assert g.label_of(a) == "(1,0)"


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_digit_roundtrip(r, n, raw):
    idx = raw % (r**n)
    assert index_of_digits(digits_of(idx, r, n), r) == idx


def test_validation_rejects_broken_latin_square():
    g = build_cyclic(4)
    mul = g.mul.copy()
    mul[1, 1] = 3  # duplicates 3 in row 1
    with pytest.raises(GroupValidationError):
        GroupTable(order=4, mul=mul, identity=0, inv=g.inv.copy(),
                   labels=g.labels)


@pytest.mark.parametrize("mul, identity, inv, message", [
    (np.tile(np.arange(3), (3, 1)), 0, [0, 0, 0], "identity axiom fails"),  # x*y = y
    (np.add.outer(np.arange(3), np.arange(3)) % 3, 0, [0, 1, 2], "inverse axiom fails"),
    (np.multiply.outer(np.arange(4), np.arange(4)) % 4, 1, [0, 1, 2, 3], "inverse axiom fails")],
    ids=["right_zero", "z3_inverses_wrong", "z4_times_monoid"])
def test_associative_tables_that_are_not_groups_are_refused(mul, identity, inv, message):
    """Light's test passes each table; only the axioms refuse it."""
    assert is_associative(mul)
    with pytest.raises(GroupValidationError, match=message):
        GroupTable(order=len(mul), mul=mul, identity=identity, inv=inv,
                   labels=tuple("abcd"[:len(mul)]))


def test_validation_rejects_nonassociative_latin_square():
    # Swapping a 2x2 block of Z_5 keeps the Latin property and the identity
    # row/column but breaks associativity (or the inverse axiom): either way
    # construction must fail.
    g = build_cyclic(5)
    mul = g.mul.copy()
    mul[3, 3], mul[3, 4] = mul[3, 4], mul[3, 3]
    mul[4, 3], mul[4, 4] = mul[4, 4], mul[4, 3]
    inv = np.argmax(mul == 0, axis=1)
    with pytest.raises(GroupValidationError):
        GroupTable(order=5, mul=mul, identity=0, inv=inv,
                   labels=g.labels)


@pytest.mark.parametrize("rows, cols", [((3, 5), (17, 23)),
                                        ((66, 67), (193, 192)),    # passes generator 1
                                        ((421, 485), (128, 192))])  # passes row block 0
def test_validation_rejects_order_512_intercalate_loops(rows, cols):
    # Latin loops with identity and inverses that the earlier spot check of
    # 5,120 random triples accepted.
    g = build_abelian_power(2, 9)
    mul = intercalate_z2_9(rows, cols)
    sort_loop_spot_validate(SimpleNamespace(order=512, mul=mul, identity=0,
                                            inv=g.inv, labels=g.labels))
    with pytest.raises(GroupValidationError, match="associativity"):
        GroupTable(order=512, mul=mul, identity=0, inv=g.inv.copy(), labels=g.labels)


def test_light_and_reference_validators_accept_every_family_member():
    for spec in family_members(729):
        sort_loop_spot_validate(build_group(parse_group_spec(spec)))


def _rejects(validate, table) -> bool:
    try:
        validate(table)
    except GroupValidationError:
        return True
    return False


# Blocks of 2**4 entries: one row a block above order 16, so Light's test
# crosses a block boundary between any two rows.
SMALL_BLOCKS = 2**4


@pytest.mark.parametrize("block", [groups._BLOCK_ENTRIES, SMALL_BLOCKS])
def test_generators_and_verdict_match_the_light_reference(monkeypatch, block):
    """Every family member up to order 729 passes, with the generators of
    Light's test one generator at a time, at each block size."""
    monkeypatch.setattr(groups, "_BLOCK_ENTRIES", block)
    for spec in family_members(729):
        group = build_group(parse_group_spec(spec))
        assert groups._validate_table(group) == group.generators == light_validate(group), spec


def perturbed_tables(group: GroupTable, rng: np.random.Generator, count: int):
    """Tables that keep the identity row and column and every x*x^-1 = e:
    one or two swaps of two entries in a row, or of the four corners of an
    intercalate (a 2x2 Latin subsquare), off the identity and inverse cells."""
    n, e, inv = group.order, group.identity, group.inv
    for trial in range(count):
        mul = group.mul.astype(np.int64)
        for _ in range(1 + trial % 2):
            a, b = rng.choice(np.delete(np.arange(n), e), 2, replace=False)
            c = int(rng.choice([x for x in range(n) if x != e and inv[x] not in (a, b)]))
            d = int(np.flatnonzero(mul[b] == mul[a, c])[0]) if trial % 4 < 2 else \
                int(rng.choice([x for x in range(n) if x not in (e, c) and inv[x] != a]))
            if trial % 4 < 2:  # an intercalate, when rows a and b hold one
                if d == e or inv[d] in (a, b) or mul[a, d] != mul[b, c]:
                    continue
                mul[[a, a, b, b], [c, d, c, d]] = mul[[a, a, b, b], [d, c, d, c]]
            else:
                mul[a, [c, d]] = mul[a, [d, c]]
        yield mul


@pytest.mark.parametrize("block", [groups._BLOCK_ENTRIES, SMALL_BLOCKS])
def test_refusals_match_brute_force_associativity(monkeypatch, block):
    """Perturbed tables with identity and inverses intact are refused, for
    associativity, exactly when some triple fails (x*y)*z == x*(y*z)."""
    monkeypatch.setattr(groups, "_BLOCK_ENTRIES", block)
    rng = np.random.default_rng(1234)
    refused = 0
    for spec in ["z3^2", "z:9", "z2^3", "z4^2", "z:12", "es3:1", "m2:4", "wreath:z:2:2"]:
        group = build_group(parse_group_spec(spec))
        for mul in perturbed_tables(group, rng, 60):
            try:
                GroupTable(order=group.order, mul=mul, identity=group.identity,
                           inv=group.inv, labels=group.labels)
            except GroupValidationError as err:
                assert "associativity" in str(err) and not is_associative(mul), spec
                refused += 1
            else:
                assert is_associative(mul), spec
    assert refused > 250


@pytest.mark.parametrize("block", [groups._BLOCK_ENTRIES, SMALL_BLOCKS])
def test_the_octonion_unit_loop_is_refused(monkeypatch, block):
    """Moufang, and any two of its elements generate a group."""
    monkeypatch.setattr(groups, "_BLOCK_ENTRIES", block)
    mul = octonion_unit_loop()
    x, y, z = np.meshgrid(*[np.arange(16)] * 3, indexing="ij")
    assert np.array_equal(mul[z, mul[x, mul[z, y]]], mul[mul[mul[z, x], z], y])
    assert not is_associative(mul)
    inv = np.argmax(mul == 0, axis=1)
    with pytest.raises(GroupValidationError, match="associativity"):
        GroupTable(order=16, mul=mul, identity=0, inv=inv, labels=tuple(map(str, range(16))))


def z2_cubed_with(changes) -> np.ndarray:
    mul = build_abelian_power(2, 3).mul.astype(np.int64)
    for row, col, value in changes:
        mul[row, col] = value
    return mul


# Non-associative Z_2^3 tables with identity and inverses intact, each
# passing one half of an earlier spanning-tree check: eight entries changed
# pass its tree's edges (check A), and entries 3*5 and 3*6 swapped pass the
# generators' commutation with its steps (check B).
PASSES_A_ONLY = [(1, 5, 6), (1, 7, 4), (3, 5, 4), (3, 7, 6),
                 (5, 1, 6), (5, 3, 4), (7, 1, 4), (7, 3, 6)]
PASSES_B_ONLY = [(3, 5, 5), (3, 6, 6)]
# Identity and two-sided inverses on 5 elements, and 1*1 = 1: the same
# check's doubling closure of the generators 1 and 2 missed element 4.
ORDER_5_LOOP = [[0, 1, 2, 3, 4], [1, 1, 3, 0, 1], [2, 1, 3, 4, 0],
                [3, 0, 0, 1, 3], [4, 2, 0, 2, 1]]


@pytest.mark.parametrize("block", [groups._BLOCK_ENTRIES, SMALL_BLOCKS])
@pytest.mark.parametrize("mul, message", [
    (z2_cubed_with(PASSES_A_ONLY), "associativity"),
    (z2_cubed_with(PASSES_B_ONLY), "associativity"),
    (np.array(ORDER_5_LOOP), "associativity fails at s=1")], ids=["a_only", "b_only", "order_5"])
def test_light_refuses_tables_that_pass_half_a_tree_check(monkeypatch, mul, message, block):
    """Each table passed one half of a spanning-tree check (a tree's edges, or
    generators commuting with its steps); Light's test on the generators
    refuses all three."""
    assert not is_associative(mul)
    monkeypatch.setattr(groups, "_BLOCK_ENTRIES", block)
    n = len(mul)
    with pytest.raises(GroupValidationError, match=message):
        GroupTable(order=n, mul=mul, identity=0, inv=np.argmax(mul == 0, axis=1),
                   labels=tuple("abcdefgh"[:n]))


def test_a_defect_seen_only_in_the_last_row_block_is_refused():
    """Z_256 x Z_2 (element 2i + j) with the intercalate at rows 510, 511 and
    columns 16, 17 swapped: a Latin loop with identity and inverses. Of its
    generators 1 and 2, 1 passes Light's test, and the rows
    (x*2)*y == x*(2*y) fail only for x in 508..511, all in the last block
    of 128 rows."""
    (i, j), (i2, j2) = divmod(np.arange(512)[:, None], 2), divmod(np.arange(512), 2)
    group = (i + i2) % 256 * 2 + (j ^ j2)
    mul = group.copy()
    mul[[510, 510, 511, 511], [16, 17, 16, 17]] = group[[510, 510, 511, 511], [17, 16, 17, 16]]
    inv = np.argmax(mul == 0, axis=1)
    assert np.array_equal(inv, np.argmax(group == 0, axis=1))
    assert groups._BLOCK_ENTRIES // 512 == 128
    for s, failing in [(1, []), (2, [508, 509, 510, 511])]:
        assert np.flatnonzero((mul[mul[:, s]] != mul[:, mul[s]]).any(axis=1)).tolist() == failing
    labels = tuple(map(str, range(512)))
    assert GroupTable(order=512, mul=group, identity=0, inv=inv, labels=labels).generators == (1, 2)
    with pytest.raises(GroupValidationError, match="associativity fails at s=2"):
        GroupTable(order=512, mul=mul, identity=0, inv=inv, labels=labels)


@pytest.mark.parametrize("spec", ["z:12", "es3:1", "m2:5", "wreath:z:2:3"])
def test_light_rejects_exactly_the_corrupted_tables_that_are_not_groups(spec):
    group = build_group(parse_group_spec(spec))
    n, e = group.order, group.identity
    rng = np.random.default_rng(7)
    rejected = 0
    for trial in range(300):
        mul = group.mul.copy()
        r, c, d = rng.integers(0, n, size=3)
        if trial % 2:
            mul[r, c], mul[r, d] = mul[r, d], mul[r, c]
        else:
            mul[r, c] = (mul[r, c] + rng.integers(1, n)) % n
        table = SimpleNamespace(order=n, mul=mul, identity=e,
                                inv=np.argmax(mul == e, axis=1), labels=group.labels)
        idx, inv = np.arange(n), table.inv
        is_group = (np.array_equal(mul[e], idx) and np.array_equal(mul[:, e], idx)
                    and np.all(mul[idx, inv] == e) and np.all(mul[inv, idx] == e)
                    and np.array_equal(mul[mul], mul[:, mul]))  # (xy)z == x(yz)
        light_rejects = _rejects(lambda t: GroupTable(**vars(t)), table)
        assert light_rejects == (not is_group), (spec, trial)
        assert light_rejects or not _rejects(sort_loop_spot_validate, table)
        rejected += light_rejects
    assert rejected > 250


@pytest.mark.parametrize("spec", ["z4^2", "z:12", "m2:5", "es3:1"])
def test_subgroup_closure_matches_deque_reference_on_every_connection_set(spec):
    group = build_group(parse_group_spec(spec))
    conj = conjugacy(group)
    for stack in enumerate_oriented_class_unions(conj):
        for row in stack.classes.tolist():
            gens = [g for c in row for g in conj.classes[c]]
            assert subgroup_closure(group, gens) == deque_subgroup_closure(group, gens)
    assert subgroup_closure(group, []) == deque_subgroup_closure(group, []) == (0,)


def test_subgroup_closure_matches_deque_reference_on_random_generator_subsets(s5_table):
    rng = np.random.default_rng(2026)
    groups = [s5_table, *(build_group(parse_group_spec(spec)) for spec in family_members(729))]
    for group in groups:
        subsets = [list(group.generators), [int(rng.integers(group.order))]]
        subsets += [rng.choice(group.order, size=k, replace=False).tolist()
                    for k in rng.integers(1, min(group.order, 6) + 1, size=4)]
        for gens in subsets:
            assert subgroup_closure(group, gens) == deque_subgroup_closure(group, gens), \
                (group.family_tag, gens)


def test_subgroup_closure_follows_a_2047_level_chain():
    g = build_cyclic(2048)
    assert subgroup_closure(g, [1]) == deque_subgroup_closure(g, [1]) == tuple(range(2048))


def test_extraspecial3_heisenberg():
    g = build_extraspecial3(1)
    conj = conjugacy(g)
    assert g.order == 27
    assert len(conj.center) == 3
    assert len(conj.classes) == 11
    assert conj.exponent == 3
    # Noncentral classes are the center-cosets: class of x1 is {x1, x1*z, x1*z^2}.
    x1 = g.index_of("x1")
    z = g.index_of("z")
    coset = {x1, int(g.mul[x1, z]), int(g.mul[x1, int(g.mul[z, z])])}
    assert set(conj.classes[int(conj.class_of[x1])]) == coset


def test_extraspecial3_exponent9():
    g = build_extraspecial3(1, exponent_type=9)
    conj = conjugacy(g)
    assert g.order == 27
    assert len(conj.center) == 3
    assert len(conj.classes) == 11
    assert conj.exponent == 9
    assert element_order(g, g.index_of("x")) == 9
    assert set(conj.center) == {0, g.index_of("x^3"), g.index_of("x^6")}


def test_extraspecial9_needs_rank_one():
    with pytest.raises(InvalidParameterError):
        build_extraspecial3(2, exponent_type=9)


def test_m2_structure():
    g = build_modular_maximal_cyclic(5)
    conj = conjugacy(g)
    assert g.order == 32
    assert len(conj.classes) == 20
    assert len(conj.center) == 8
    x = g.index_of("x")
    sigma = g.index_of("sigma")
    # sigma * x * sigma = x^(2^(n-2)+1) = x^9
    lhs = g.mul[int(g.mul[sigma, x]), sigma]
    assert g.label_of(int(lhs)) == "x^9"
    assert element_order(g, x) == 16 and element_order(g, sigma) == 2
    # center is generated by x^2
    assert set(conj.center) == set(subgroup_closure(g, [g.index_of("x^2")]))


def test_m2_needs_n4():
    with pytest.raises(InvalidParameterError):
        build_modular_maximal_cyclic(3)


@pytest.mark.parametrize("build, reference, args", [
    (build_extraspecial3, loop_extraspecial3, (1,)),
    (build_extraspecial3, loop_extraspecial3, (2,)),
    (build_extraspecial3, loop_extraspecial3, (1, 9)),
    *[(build_modular_maximal_cyclic, loop_modular_maximal_cyclic, (n,)) for n in (4, 5, 6, 7)],
])
def test_array_constructors_match_double_loops(build, reference, args):
    g = build(*args)
    mul, labels = reference(*args)
    assert np.array_equal(g.mul, mul)
    assert g.labels == tuple(labels)


@pytest.mark.parametrize("base_spec", ("z:2", "z:3", "z:4", "z:5", "z:6", "es3:1"))
def test_wreath_matches_row_loop_reference(base_spec):
    """Every wreath product over the base up to order 729: the same mul and labels."""
    base = build_group(parse_group_spec(base_spec))
    n = 1
    while base.order ** n * math.factorial(n) <= 729:
        g = build_wreath_sym(base, n)
        mul, labels = loop_wreath_sym(base, n)
        assert np.array_equal(g.mul, mul), (base_spec, n)
        assert g.labels == tuple(labels), (base_spec, n)
        n += 1
    assert n > 1


@pytest.mark.parametrize("r", (2, 3, 4))
def test_abelian_power_matches_digit_sum_reference(r):
    n = 1
    while r**n <= 729:
        g = build_abelian_power(r, n)
        mul, labels = digit_sum_abelian_power(r, n)
        assert np.array_equal(g.mul, mul), (r, n)
        assert g.labels == tuple(labels), (r, n)
        n += 1


# Family members above order 729 that the benchmark, the fixtures and the
# tests build.
LARGE_MEMBERS = ["z:1024", "z:2048", "z:4096", "z4^5", "z4^6", "z3^7", "es3:3", "m2:10",
                 "m2:11", "wreath:z:3:4", "wreath:z:32:2", "wreath:es3:1:2"]


def assert_law_matches_its_table_reference(spec: str) -> GroupTable:
    """The law's table, inverses, generators and labels equal those of the
    earlier table writer, run through the table backend's validation."""
    law, ref = build_group(parse_group_spec(spec)), reference_group(parse_group_spec(spec))
    assert np.array_equal(law.mul, ref.mul), spec
    assert np.array_equal(law.inv, ref.inv), spec
    assert law.generators == ref.generators, spec
    assert law.labels == ref.labels and [law.label_of(g) for g in range(law.order)] == \
        list(ref.labels), spec
    return law


def test_laws_match_the_table_writers_on_every_family_member():
    """Up to order 729; test_generators_and_verdict_match_the_light_reference
    runs _validate_table on each law's table."""
    for spec in family_members(729):
        assert_law_matches_its_table_reference(spec)


@pytest.mark.parametrize("spec", LARGE_MEMBERS)
def test_laws_match_the_table_writers_above_order_729(spec):
    law = assert_law_matches_its_table_reference(spec)
    assert groups._validate_table(law) == law.generators == light_validate(law)


def assert_same_conjugacy(group: GroupTable) -> None:
    got, want = conjugacy(group), orbit_conjugacy(group)
    smallest = np.array([cls[0] for cls in got.classes])[got.class_of]
    assert np.array_equal(smallest, blocked_row_smallest_conjugates(group))
    assert got.classes == want.classes
    assert got.class_of.dtype == want.class_of.dtype
    assert np.array_equal(got.class_of, want.class_of)
    assert got.class_inv == want.class_inv
    assert got.center == want.center
    assert got.exponent == want.exponent


def test_conjugacy_matches_orbit_reference_on_every_family_member():
    specs = family_members(729)
    assert {"z3^6", "z4^4", "z2^9", "es3:2", "m2:9", "wreath:z:3:3",
            "wreath:z:2:4", "wreath:es3:1:1", "z:729"} <= set(specs)
    for spec in specs:
        group = build_group(parse_group_spec(spec))
        assert group.order <= 729
        assert_same_conjugacy(group)


@pytest.mark.parametrize("spec", ["z4^6", "es3:3", "m2:11", "wreath:z:3:4"])
def test_conjugacy_matches_orbit_reference_at_the_cap(spec):
    assert_same_conjugacy(build_group(parse_group_spec(spec)))


def test_conjugacy_matches_brute_force_on_s5(s5_table):
    conj = conjugacy(s5_table)
    brute = brute_conjugacy_classes(s5_table.mul, s5_table.inv)
    assert sorted(map(sorted, conj.classes)) == sorted(map(sorted, brute))
    assert_same_conjugacy(s5_table)


@pytest.mark.parametrize("spec", ["z:1", "z:12", "z2^9", "z4^6", "es3:2", "es3:1:9",
                                  "m2:11", "wreath:z:3:4", "wreath:es3:1:1"])
def test_stored_generators_generate_the_group(spec):
    g = build_group(parse_group_spec(spec))
    assert deque_subgroup_closure(g, g.generators) == tuple(range(g.order))


def test_stored_generators_of_file_and_custom_tables(tmp_path, s5_table):
    g = build_group(parse_group_spec("wreath:z:3:2"))
    path = tmp_path / "g.json"
    save_group(g, str(path))
    loaded = build_group(parse_group_spec(f"file:{path}"))
    assert loaded.generators == g.generators
    for table in (loaded, s5_table):
        assert deque_subgroup_closure(table, table.generators) == tuple(range(table.order))


@pytest.mark.parametrize("spec", ["wreath:z:2:2", "es3:1:9", "m2:4"])
def test_conjugacy_matches_reference_when_identity_is_not_element_0(tmp_path, spec):
    # Relabel element i as (i + 5) mod |G|, so the identity sits at index 5.
    g = build_group(parse_group_spec(spec))
    shift = (np.arange(g.order) + 5) % g.order
    mul = np.empty_like(g.mul)
    mul[np.ix_(shift, shift)] = shift[g.mul]
    doc = group_to_json(g)
    doc.update(identity=int(shift[g.identity]), mul=mul.tolist())
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    shifted = build_group(parse_group_spec(f"file:{path}"))
    assert shifted.identity == 5
    assert_same_conjugacy(shifted)
    assert conjugacy(shifted).classes[0] == (5,)


def test_wreath_small_is_dihedral():
    # Z_2 wr S_2 has order 8 and the class structure of the dihedral group.
    g = build_wreath_sym(build_cyclic(2), 2)
    conj = conjugacy(g)
    assert g.order == 8
    assert len(conj.classes) == 5
    assert sorted(len(c) for c in conj.classes) == [1, 1, 2, 2, 2]


def test_wreath_multiplication_semantics():
    base = build_cyclic(3)
    g = build_wreath_sym(base, 2)
    wi = WreathIndexing(base, 2)
    swap = (1, 0)
    ident = (0, 1)
    a = wi.encode(WreathElement((1, 2), swap))
    b = wi.encode(WreathElement((2, 0), ident))
    # (x; p)(y; q) = (x * p.y; p o q) with (p.y)_i = y_(p^-1(i))
    prod = wi.decode(int(g.mul[a, b]))
    assert prod.perm == swap
    assert prod.coords == ((1 + 0) % 3, (2 + 2) % 3)


def test_wreath_classes_match_brute_force():
    g = build_wreath_sym(build_cyclic(3), 2)
    conj = conjugacy(g)
    brute = brute_conjugacy_classes(g.mul, g.inv)
    assert sorted(map(sorted, conj.classes)) == sorted(map(sorted, brute))


def test_wreath_type_invariant_matches_conjugacy():
    base = build_cyclic(3)
    g = build_wreath_sym(base, 2)
    conj = conjugacy(g)
    wi = WreathIndexing(base, 2)
    types = [wreath_type(wi.decode(i), base) for i in range(g.order)]
    for i in range(g.order):
        for j in range(g.order):
            assert (types[i] == types[j]) == (conj.class_of[i] == conj.class_of[j])


def test_conjugacy_s3(s3_table):
    conj = conjugacy(s3_table)
    assert sorted(len(c) for c in conj.classes) == [1, 2, 3]
    assert conj.center == (s3_table.identity,)
    assert conj.exponent == 6
    brute = brute_conjugacy_classes(s3_table.mul, s3_table.inv)
    assert sorted(map(sorted, conj.classes)) == sorted(map(sorted, brute))


def test_class_inverse_map(s3_table):
    for g, conj in ((s3_table, conjugacy(s3_table)),
                    (build_modular_maximal_cyclic(4),
                     conjugacy(build_modular_maximal_cyclic(4)))):
        for j, cls in enumerate(conj.classes):
            for el in cls:
                assert conj.class_of[g.inv[el]] == conj.class_inv[j]


def test_class_power_map():
    g = build_cyclic(8)
    conj = conjugacy(g)
    perm = conj.class_power(3)
    assert perm == tuple(int(conj.class_of[(3 * c) % 8]) for c in range(8))


def test_power_and_order():
    g = build_cyclic(12)
    assert element_order(g, 4) == 3
    assert power(g, 5, 0) == 0
    assert power(g, 5, -1) == int(g.inv[5])
    assert power(g, 7, 25) == (7 * 25) % 12


@pytest.mark.parametrize("spec", ["z:4096", "z6^3", "es3:3", "es3:1:9", "m2:11",
                                  "wreath:z:3:4", "file"])
def test_element_orders_match_stepping_reference(tmp_path, spec):
    if spec == "file":
        path = tmp_path / "g.json"
        save_group(build_group(parse_group_spec("wreath:z:2:3")), str(path))
        spec = f"file:{path}"
    group = build_group(parse_group_spec(spec))
    conj = conjugacy(group)
    want = [element_order(group, g) for g in range(group.order)]
    assert conj.orders.tolist() == want
    assert conj.exponent == math.lcm(*want)
    assert conj.center_exponent == math.lcm(*(want[z] for z in conj.center))


def test_element_orders_by_squaring_match_stepping_on_every_family_member(s3_table, s5_table):
    for group in [s3_table, s5_table, *(build_group(parse_group_spec(spec))
                                        for spec in family_members(729))]:
        want = [element_order(group, g) for g in range(group.order)]
        assert _element_orders(group).tolist() == want, group.family_tag


def scalar_power(group: GroupTable, g: int, k: int) -> int:
    """g^k as |k| products with g, or with g^-1 when k < 0."""
    step = g if k >= 0 else int(group.inv[g])
    out = group.identity
    mul = group.mul
    for _ in range(abs(k)):
        out = int(mul[out, step])
    return out


@pytest.mark.parametrize("spec", ["z:12", "es3:1:9", "m2:5", "wreath:z:3:2"])
def test_power_matches_scalar_reference_on_random_pairs(spec):
    group = build_group(parse_group_spec(spec))
    exponent = conjugacy(group).exponent
    rng = np.random.default_rng(11)
    g = rng.integers(0, group.order, size=300)
    k = rng.integers(-3 * exponent, 3 * exponent + 1, size=300)
    k[:12] = 0
    want = [scalar_power(group, int(a), int(b)) for a, b in zip(g, k)]
    assert (k < 0).any() and (k > exponent).any()
    assert power(group, g, k).tolist() == want
    assert power(group, g[0], k).tolist() == [scalar_power(group, int(g[0]), int(b)) for b in k]
    scalars = [power(group, int(a), int(b)) for a, b in zip(g[:40], k[:40])]
    assert scalars == want[:40] and all(type(x) is int for x in scalars)


@pytest.mark.parametrize("spec", ["z:12", "es3:1:9", "m2:5", "wreath:z:3:2"])
def test_power_by_a_scalar_exponent_matches_stepping(spec):
    """The bit loop of a scalar k, on every element at once, for every k
    within twice the exponent either side of 0."""
    group = build_group(parse_group_spec(spec))
    exponent = conjugacy(group).exponent
    g = np.arange(group.order)
    for k in range(-2 * exponent - 1, 2 * exponent + 2):
        want = [scalar_power(group, a, k) for a in range(group.order)]
        assert power(group, g, k).tolist() == want, k
        assert power(group, g, np.int64(k)).tolist() == want, k
        assert power(group, g[5], k) == want[5] and type(power(group, 5, k)) is int
    once = power(group, g, 1)
    once[0] = -1
    assert g[0] == 0  # the result never aliases the argument


def test_subgroup_closure_values():
    g = build_cyclic(8)
    assert subgroup_closure(g, [2]) == (0, 2, 4, 6)
    assert subgroup_closure(g, []) == (0,)


def test_derived_series(s3_table, s5_table):
    solvable, series = derived_series_solvable(s3_table)
    assert solvable and series == (6, 3, 1)
    solvable, series = derived_series_solvable(s5_table)
    assert not solvable
    assert series[-1] == 60  # stalls at the simple alternating subgroup
    assert derived_series_solvable(build_cyclic(1)) == (True, (1,))
    assert derived_series_solvable(build_abelian_power(3, 2))[0]


@pytest.mark.parametrize("spec", ["S5", "wreath:z:3:4", "es3:2", "m2:7", "S4", "wreath:z:3:2"])
def test_derived_series_matches_all_commutators_reference(spec):
    group = (permutation_group_table(int(spec[1])) if spec.startswith("S")
             else build_group(parse_group_spec(spec)))
    assert derived_series_solvable(group) == brute_derived_series(group)


def test_permutation_cycles_and_product():
    assert permutation_cycles((1, 2, 0)) == [(0, 1, 2)]
    assert permutation_cycles((1, 0, 2)) == [(0, 1), (2,)]
    assert permutation_cycles((1, 0, 2), include_fixed=False) == [(0, 1)]
    base = build_cyclic(4)
    # kappa = (1 2 3), coords y = (1, 2, 3): product y_1 y_3 y_2 = 6 mod 4.
    assert cycle_product(base, (1, 2, 3), (1, 2, 3)) == 2
    assert cycle_product(base, (3, 1, 2), (2,)) == 1


def test_group_json_roundtrip(tmp_path):
    g = build_extraspecial3(1)
    path = tmp_path / "g.json"
    save_group(g, str(path))
    loaded = load_group(str(path))
    assert loaded.order == g.order
    assert np.array_equal(loaded.mul, g.mul)
    assert loaded.labels == g.labels
    assert loaded.identity == g.identity


def group_text(group) -> str:
    out = io.StringIO()
    _write_group(group, out)
    return out.getvalue()


def test_group_export_writes_the_bytes_of_the_reference_document(tmp_path):
    """Every family member up to order 729, and a file: table relabelled
    with quotes, backslashes and non-ASCII text, written a block of rows at
    a time, as one json.dumps of the whole document would write it."""
    def reference(group):
        return json.dumps(group_to_json(group), sort_keys=True, separators=(",", ":"))

    for spec in family_members(729):
        group = build_group(parse_group_spec(spec))
        assert group_text(group) == reference(group), spec
    doc = group_to_json(build_group(parse_group_spec("wreath:z:2:3")))
    doc["labels"] = [f'"{x}"\\\u00e9' for x in doc["labels"]]
    path = tmp_path / "relabelled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    relabelled = build_group(parse_group_spec(f"file:{path}"))
    saved = tmp_path / "saved.json"
    save_group(relabelled, str(saved))
    assert saved.read_text(encoding="utf-8") == group_text(relabelled) == \
        reference(relabelled)
    assert json.loads(saved.read_text(encoding="utf-8")) == doc


def test_group_export_holds_no_table_of_python_ints(tmp_path, capsys):
    """z3^7 is 21.5 MB of JSON; a document of |G|^2 Python ints peaked at
    217 MB, and the whole text as one string at 43 MB on top of the table.
    group export builds the 9.6 MB table from the law and writes the file a
    block of rows at a time: 11.3 MB traced in all."""
    path = tmp_path / "z3^7.json"
    tracemalloc.start()
    try:
        assert main(["group", "export", "--out", str(path), "z3^7"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert path.stat().st_size > 20 * 10**6
    assert peak <= 16 * 10**6


def test_group_json_schema_errors():
    with pytest.raises(SchemaError):
        group_from_json({"order": 2})
    doc = group_to_json(build_cyclic(2))
    doc["mul"] = [[0, 1]]
    with pytest.raises(SchemaError):
        group_from_json(doc)
    doc = group_to_json(build_cyclic(2))
    doc["order"] = -1
    with pytest.raises(SchemaError):
        group_from_json(doc)


def test_group_json_validates_table():
    doc = group_to_json(build_cyclic(3))
    doc["mul"][0][0] = 1  # identity row broken
    with pytest.raises(GroupValidationError):
        group_from_json(doc)


def test_wreath_label_roundtrip():
    base = build_cyclic(3)
    g = build_wreath_sym(base, 2)
    wi = WreathIndexing(base, 2)
    for i in (0, 5, 11, 17):
        assert wi.encode(wi.decode(i)) == i
    diag = wi.diagonal(2)
    assert wi.decode(diag).coords == (2, 2)
