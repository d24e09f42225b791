"""Character tables: closed form, class-algebra numerics, Galois data, interchange."""
import copy
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from caywalk import characters
from caywalk.characters import (
    CorruptTableError,
    _table_defects,
    abelian_character_table,
    character_table_for,
    character_table_numerical,
    character_table_to_json_str,
    export_character_table,
    galois_stabilizers,
    galois_stabilizers_imported,
    import_character_table,
    kernel,
    load_character_table,
    rational_intersection,
    structure_constants,
    units_mod,
)
from caywalk.errors import NumericalFailureError, SchemaError
from caywalk.groups import (
    GroupSpec,
    GroupTable,
    build_abelian_power,
    build_cyclic,
    build_extraspecial3,
    build_group,
    conjugacy,
    parse_group_spec,
)

from conftest import (
    CYCLIC_ORDERS,
    dense_abelian_table,
    permutation_group_table,
    rounded_row_order,
    row_loop_stabilizers,
    set_unit_closure,
    stabilizer_tuples,
)


def rounded_rows(values, places=8):
    """Order-insensitive fingerprint of a table's rows."""
    out = set()
    for row in values:
        out.add(tuple((round(v.real, places), round(v.imag, places)) for v in row))
    return out


# ---------------------------------------------------------------------------
# Closed form for cyclic powers


def test_abelian_closed_form_z6_values():
    t = abelian_character_table(6, 1)
    assert t.n_chars == 6 and t.group_order == 6 and t.exponent == 6
    zeta = np.exp(2j * np.pi / 6)
    assert abs(t.values[1, 1] - zeta) < 1e-14
    assert np.allclose(t.values[3], [1, -1, 1, -1, 1, -1])
    # row v, column w holds the basis vector of zeta^(v*w), derived on request
    assert t.cyclotomic is None
    for v in range(6):
        row = t.cyclotomic_row(v)
        for w in range(6):
            want = np.zeros(6, dtype=np.int64)
            want[(v * w) % 6] = 1
            assert np.array_equal(row[w], want)


def test_abelian_closed_form_z3_squared():
    t = abelian_character_table(3, 2)
    assert t.group_order == 9 and t.exponent == 3
    assert np.array_equal(t.degrees, np.ones(9, dtype=np.int64))
    # character (1,0) on element (2,0): dot = 2
    assert abs(t.values[3, 6] - np.exp(4j * np.pi / 3)) < 1e-14


def test_abelian_closed_form_rejects_bad_shape():
    with pytest.raises(Exception):
        abelian_character_table(0, 1)


def closed_form_shapes(max_order: int) -> list[tuple[int, int]]:
    """(r, n) of every closed-form table up to max_order the tests cover."""
    shapes = [(r, 1) for r in CYCLIC_ORDERS if r <= max_order]
    return shapes + [(r, n) for r in range(2, max_order) for n in range(2, 11)
                     if r**n <= max_order]


def test_closed_form_tables_pass_the_gram_checks():
    # The exact check replaces the orthogonality checks on this path; they
    # still hold on every closed-form table.
    for r, n in closed_form_shapes(729):
        t = abelian_character_table(r, n)
        assert _table_defects(t.values, t.degrees, t.class_sizes) == [], (r, n)


def closed_form_group(r: int, n: int):
    return build_cyclic(r) if n == 1 else build_abelian_power(r, n)


@pytest.mark.parametrize("held", [False, True])
def test_digit_backend_matches_the_dense_reference(monkeypatch, held):
    """columns exactly, products to 1e-12 k, the integer Galois rule and the
    kernels against the dense table the closed form used to store; with no
    table held (digits and FFT throughout), and with the small ones held."""
    if not held:
        monkeypatch.setattr(characters, "_DENSE_CLASSES", 0)
    rng = np.random.default_rng(5)
    for r, n in closed_form_shapes(729):
        group = closed_form_group(r, n)
        conj = group.conj
        table = character_table_for(group)
        dense = dense_abelian_table(r, n)
        k = table.n_chars
        assert (table._held is not None) == (held and k <= characters._DENSE_CLASSES)
        assert np.array_equal(table.columns(np.arange(k)), dense.values), (r, n)
        idx = rng.integers(0, k, size=(3, 4))
        assert np.array_equal(table.columns(idx), dense.values[:, idx]), (r, n)
        x = rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))
        assert np.max(np.abs(table.products(x) - x @ dense.values)) < 1e-12 * k, (r, n)
        # The tolerance route costs k^2 per unit: at most 16 units per table.
        units = units_mod(r)[::-(-len(units_mod(r)) // 16)]
        exact = [tuple(u for u in stab if u in units)
                 for stab in stabilizer_tuples(galois_stabilizers(table, conj))]
        assert exact == list(row_loop_stabilizers(dense, conj.class_power, units)), (r, n)
        for i in sorted({0, 1, k - 1, *rng.integers(0, k, size=4).tolist()}):
            assert kernel(table, i, conj) == kernel(dense, i, conj), (r, n, i)


def corrupt_flip(digits, r):
    digits = digits.copy()
    digits[5, -1] = (digits[5, -1] + 1) % r
    return digits


def corrupt_duplicate_row(digits, r):
    digits = digits.copy()
    digits[4] = digits[3]
    return digits


@pytest.mark.parametrize("corrupt", [corrupt_flip, corrupt_duplicate_row])
@pytest.mark.parametrize("r, n", [(3, 2), (2, 4), (4, 3), (5, 2)])
def test_closed_form_rejects_a_corrupted_exponent_matrix(monkeypatch, corrupt, r, n):
    # The exponent matrix v.w mod r is now held as its digit vectors.
    group = closed_form_group(r, n)
    sound = abelian_character_table(r, n)
    assert characters._digit_defects(group, sound.digits, r) == []
    monkeypatch.setattr(characters, "abelian_character_table",
                        lambda r, n: dataclasses.replace(sound, digits=corrupt(sound.digits, r)))
    with pytest.raises(NumericalFailureError, match="closed form failed validation"):
        character_table_for(group)


def test_closed_form_check_names_each_defect():
    group = closed_form_group(3, 3)
    digits = abelian_character_table(3, 3).digits
    for words, entry, value in [("outside 0..2", (1, 1), 3),
                                ("identity's digit vector is nonzero", (0, 2), 1),
                                ("does not raise digit", (7, 1), (digits[7, 1] + 2) % 3)]:
        bad = digits.copy()
        bad[entry] = value
        assert words in characters._digit_defects(group, bad, 3)[0], words
    assert "does not raise digit" in characters._digit_defects(
        group, corrupt_duplicate_row(digits, 3), 3)[0]
    assert "shape" in characters._digit_defects(group, digits[:9], 3)[0]


def doctor_generator_column(mul, places):
    mul[4, places[0]] = mul[5, places[0]]


def swap_generator_columns(mul, places):
    mul[:, [places[0], places[-1]]] = mul[:, [places[-1], places[0]]]


@pytest.mark.parametrize("doctor", [doctor_generator_column, swap_generator_columns])
@pytest.mark.parametrize("r, n", [(3, 3), (4, 2)])
def test_closed_form_rejects_a_doctored_group_table(doctor, r, n):
    """The check reads the group's table, not only the digit vectors."""
    group = closed_form_group(r, n)
    sound_conj = group.conj
    mul = group.mul.copy()
    doctor(mul, [r ** (n - 1 - k) for k in range(n)])
    doctored = copy.copy(group)
    assert doctored.conj is sound_conj  # the copy keeps the sound table's classes
    object.__setattr__(doctored, "mul", mul)
    with pytest.raises(NumericalFailureError, match="does not raise digit"):
        character_table_for(doctored)


@pytest.mark.parametrize("built, spec", [
    ("z:9", GroupSpec("abelian", r=3, n=2)),
    ("z3^2", GroupSpec("cyclic", r=9)),
    ("z2^4", GroupSpec("abelian", r=4, n=2)),
])
def test_closed_form_rejects_a_valid_group_under_another_spec(built, spec):
    group = build_group(parse_group_spec(built))
    relabeled = GroupTable(order=group.order, mul=group.mul, identity=group.identity,
                           inv=group.inv, labels=group.labels, spec=spec)
    with pytest.raises(NumericalFailureError, match="does not raise digit"):
        character_table_for(relabeled)


def test_abelian_build_and_table_peak_memory():
    # Peak traced allocation of the Z_3^6 group and its checked table, in
    # units of |G|^2 bytes: the group keeps 2 (uint16 mul) and the table no
    # |G|^2 array at all, so the Z_4^6 table alone peaks under 1 MB.
    build_abelian_power(2, 2)
    abelian_character_table(2, 2)
    tracemalloc.start()
    try:
        group = build_abelian_power(3, 6)
        character_table_for(group)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        abelian_character_table(4, 6)
        _, table_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * group.order**2
    assert table_peak - start < 2**20


def test_cyclic_table_peak_memory_is_linear():
    # Z_4096: the table holds 4096 one-digit vectors; the k x k complex values
    # (16 r^2 bytes) and an eager one-hot of the exponents (r^3) are never formed.
    abelian_character_table(2, 1)
    r = 4096
    tracemalloc.start()
    try:
        table = abelian_character_table(r, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert table.cyclotomic_row(3)[5].tolist() == [int(k == 15) for k in range(r)]


# ---------------------------------------------------------------------------
# Structure constants


def test_structure_constants_cyclic_convolution():
    g = build_cyclic(4)
    conj = conjugacy(g)
    a = structure_constants(g)
    c = conj.class_of
    for i in range(4):
        for j in range(4):
            for l in range(4):
                want = 1.0 if (i + j) % 4 == l else 0.0
                assert a[c[i], c[j], c[l]] == want


def test_structure_constants_s3_hand_values(s3_table):
    conj = conjugacy(s3_table)
    by_size = {len(cls): idx for idx, cls in enumerate(conj.classes)}
    e, cyc, trans = by_size[1], by_size[2], by_size[3]
    a = structure_constants(s3_table)
    # product of the transposition class with itself: 3 copies of the
    # identity class plus 3 copies of the 3-cycle class
    assert a[trans, trans, e] == 3.0
    assert a[trans, trans, cyc] == 3.0
    assert a[trans, trans, trans] == 0.0


def test_structure_constants_counting_identity(s3_table):
    conj = conjugacy(s3_table)
    a = structure_constants(s3_table)
    sizes = conj.sizes.astype(float)
    k = len(conj.classes)
    for i in range(k):
        for j in range(k):
            assert sizes[i] * sizes[j] == pytest.approx(float(a[i, j] @ sizes))


# ---------------------------------------------------------------------------
# Numerical tables


def test_numerical_matches_closed_form_z6():
    g = build_cyclic(6)
    num = character_table_numerical(g)
    closed = abelian_character_table(6, 1)
    assert rounded_rows(num.values) == rounded_rows(closed.values)


def test_numerical_matches_closed_form_z3_squared():
    g = build_abelian_power(3, 2)
    num = character_table_numerical(g)
    closed = abelian_character_table(3, 2)
    assert rounded_rows(num.values) == rounded_rows(closed.values)


def test_numerical_s3_known_table(s3_table):
    conj = conjugacy(s3_table)
    t = character_table_numerical(s3_table)
    by_size = {len(cls): idx for idx, cls in enumerate(conj.classes)}
    e, cyc, trans = by_size[1], by_size[2], by_size[3]
    rows = {tuple(round(t.values[i, j].real, 8) for j in (e, cyc, trans))
            for i in range(3)}
    assert np.max(np.abs(t.values.imag)) < 1e-9
    assert rows == {(1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (2.0, -1.0, 0.0)}


def test_numerical_s5_degrees(s5_table):
    t = character_table_numerical(s5_table)
    assert sorted(t.degrees.tolist()) == [1, 1, 4, 4, 5, 5, 6]
    assert int((t.degrees**2).sum()) == 120


def test_numerical_extraspecial_degrees():
    g = build_extraspecial3(1)
    t = character_table_numerical(g)
    assert sorted(t.degrees.tolist()) == [1] * 9 + [3, 3]


def test_row_orthogonality_direct(s5_table):
    """Recompute the weighted Gram matrix here rather than trusting the builder."""
    conj = conjugacy(s5_table)
    t = character_table_numerical(s5_table)
    gram = (t.values * conj.sizes[None, :]) @ t.values.conj().T
    assert np.max(np.abs(gram - 120 * np.eye(7))) < 1e-8


def test_same_seed_is_bitwise_deterministic():
    g = build_extraspecial3(1)
    a = character_table_numerical(g, seed=7)
    b = character_table_numerical(g, seed=7)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.degrees, b.degrees)


def test_different_seeds_agree_after_rounding():
    g = build_extraspecial3(1)
    a = character_table_numerical(g, seed=1)
    b = character_table_numerical(g, seed=2)
    assert rounded_rows(a.values) == rounded_rows(b.values)


@pytest.mark.parametrize("spec", ["es3:1", "es3:1:9", "es3:2", "m2:4", "m2:5", "m2:6",
                                  "m2:7", "wreath:z:3:2", "wreath:z:3:3", "wreath:z:3:4",
                                  "wreath:z:4:2", "wreath:z:4:3"])
def test_canonical_row_order_matches_the_rounded_key_reference(spec):
    """On every numerical family member of at most 128 classes, with its rows
    shuffled, the lexsort order is the one-key-per-row sort's permutation."""
    table = character_table_numerical(build_group(parse_group_spec(spec)))
    shuffle = np.random.default_rng(3).permutation(table.n_chars)
    values, degrees = table.values[shuffle], table.degrees[shuffle]
    order = characters._canonical_row_order(values, degrees)
    assert order.tolist() == rounded_row_order(values, degrees)
    assert np.array_equal(values[order], table.values)


def test_dispatch_prefers_closed_form():
    g = build_cyclic(6)
    t = character_table_for(g)
    assert t.provenance == "closed-form"
    h = build_extraspecial3(1)
    u = character_table_for(h)
    assert u.provenance == "numerical"


# ---------------------------------------------------------------------------
# Kernels and Galois data


def test_kernel_of_abelian_characters():
    g = build_cyclic(6)
    conj = conjugacy(g)
    t = abelian_character_table(6, 1)
    assert kernel(t, 0, conj) == (0, 1, 2, 3, 4, 5)
    assert kernel(t, 2, conj) == (0, 3)
    assert kernel(t, 1, conj) == (0,)


def test_units_mod():
    assert units_mod(6) == (1, 5)
    assert units_mod(12) == (1, 5, 7, 11)
    assert units_mod(1) == (1,)


def test_galois_stabilizers_z6():
    g = build_cyclic(6)
    conj = conjugacy(g)
    t = abelian_character_table(6, 1)
    gal = galois_stabilizers(t, conj)
    assert gal.exponent == 6 and np.flatnonzero(gal.units).tolist() == [1, 5]
    stabs = stabilizer_tuples(gal)
    assert stabs[0] == (1, 5)   # trivial character, rational
    assert stabs[3] == (1, 5)   # order-2 character, values +-1
    assert stabs[1] == (1,)
    assert stabs[2] == (1,)


def test_rational_intersection_z6():
    g = build_cyclic(6)
    conj = conjugacy(g)
    t = abelian_character_table(6, 1)
    gal = galois_stabilizers(t, conj)
    assert rational_intersection(gal, [1, 3]) is True
    assert rational_intersection(gal, [1]) is False
    assert rational_intersection(gal, [1, 2]) is False
    assert rational_intersection(gal, [0]) is True


def test_unit_closure_and_rational_intersection_match_the_set_reference():
    """Seeded random character subsets of z:128, whose 64 units make a
    non-cyclic group, against the pairwise closure of the stabilizer union."""
    g = build_cyclic(128)
    conj = conjugacy(g)
    gal = galois_stabilizers(abelian_character_table(128, 1), conj)
    stabs = stabilizer_tuples(gal)
    units = set(units_mod(128))
    rng = np.random.default_rng(13)
    verdicts = set()
    for _ in range(60):
        chars = rng.choice(128, size=rng.integers(1, 5), replace=False).tolist()
        seed = {k for i in chars for k in stabs[i]}
        reference = set_unit_closure(128, seed)
        assert set(np.flatnonzero(characters.unit_closure(128, seed)).tolist()) == reference
        verdicts.add(rational_intersection(gal, chars))
        assert rational_intersection(gal, chars) is (reference == units), chars
    assert verdicts == {False, True}
    # Started from a subgroup, the closure is the one of the subgroup and the seeds.
    for a, b in [(5, 127), (3, 17), (65, 63)]:
        start = characters.unit_closure(128, [a])
        assert set(np.flatnonzero(characters.unit_closure(128, [b], start)).tolist()) \
            == set_unit_closure(128, {a, b})


def test_rational_intersection_small_exponent_short_circuit():
    g = build_cyclic(2)
    conj = conjugacy(g)
    t = abelian_character_table(2, 1)
    gal = galois_stabilizers(t, conj)
    assert rational_intersection(gal, [1]) is True


# ---------------------------------------------------------------------------
# JSON interchange


def exported_extraspecial():
    g = build_extraspecial3(1)
    conj = conjugacy(g)
    t = character_table_numerical(g)
    return export_character_table(t, conj), t


def test_export_import_round_trip():
    doc, t = exported_extraspecial()
    imp = import_character_table(doc)
    assert np.max(np.abs(imp.table.values - t.values)) < 1e-10
    assert np.array_equal(imp.table.degrees, t.degrees)
    assert imp.rep_orders[0] == 1 and set(imp.rep_orders[1:]) == {3}
    assert set(imp.power_maps) == {1, 2}
    assert imp.claims == ()
    assert imp.table.provenance == "imported"


def test_import_detects_perturbed_value():
    doc, _ = exported_extraspecial()
    bad = copy.deepcopy(doc)
    bad["characters"][1]["values"][2][0] += 1e-3
    with pytest.raises(CorruptTableError):
        import_character_table(bad)


def test_import_schema_missing_key():
    doc, _ = exported_extraspecial()
    bad = copy.deepcopy(doc)
    del bad["class_sizes"]
    with pytest.raises(SchemaError):
        import_character_table(bad)


def test_import_schema_bad_power_map():
    doc, _ = exported_extraspecial()
    bad = copy.deepcopy(doc)
    bad["class_power_maps"]["2"] = [1] * len(doc["class_sizes"])
    with pytest.raises(SchemaError):
        import_character_table(bad)


def test_import_schema_size_sum_mismatch():
    doc, _ = exported_extraspecial()
    bad = copy.deepcopy(doc)
    bad["class_sizes"][1] += 1
    with pytest.raises(SchemaError):
        import_character_table(bad)


def test_import_schema_identity_class_first():
    doc, _ = exported_extraspecial()
    bad = copy.deepcopy(doc)
    bad["class_rep_orders"][0] = 3
    with pytest.raises(SchemaError):
        import_character_table(bad)


def test_import_schema_character_without_values():
    doc, _ = exported_extraspecial()
    bad = copy.deepcopy(doc)
    del bad["characters"][0]["values"]
    with pytest.raises(SchemaError):
        import_character_table(bad)


def hand_built_cyclic3_doc():
    chars = []
    for v in range(3):
        coeffs = []
        for w in range(3):
            e = [0, 0, 0]
            e[(v * w) % 3] = 1
            coeffs.append(e)
        chars.append({"degree": 1, "cyclotomic": coeffs})
    return {
        "group_order": 3,
        "exponent": 3,
        "class_sizes": [1, 1, 1],
        "class_rep_orders": [1, 3, 3],
        "class_power_maps": {"1": [0, 1, 2], "2": [0, 2, 1]},
        "characters": chars,
    }


def test_import_exact_cyclotomic_document():
    imp = import_character_table(hand_built_cyclic3_doc())
    assert abs(imp.table.values[1, 1] - np.exp(2j * np.pi / 3)) < 1e-14
    assert imp.table.cyclotomic is not None
    gal = galois_stabilizers_imported(imp.table, imp.power_maps)
    assert stabilizer_tuples(gal)[:2] == ((1, 2), (1,))


def test_imported_galois_requires_all_unit_maps():
    imp = import_character_table(hand_built_cyclic3_doc())
    with pytest.raises(SchemaError):
        galois_stabilizers_imported(imp.table, {1: imp.power_maps[1]})


def test_cyclotomic_coefficients_win_over_float_values():
    doc = hand_built_cyclic3_doc()
    for ch in doc["characters"]:
        # garbage float values alongside exact coefficients must be ignored
        ch["values"] = [[9.0, 9.0]] * 3
    imp = import_character_table(doc)
    assert abs(imp.table.values[1, 1] - np.exp(2j * np.pi / 3)) < 1e-14


def test_load_character_table_from_disk(tmp_path):
    doc, t = exported_extraspecial()
    path = tmp_path / "table.json"
    path.write_text(character_table_to_json_str(doc), encoding="utf-8")
    imp = load_character_table(str(path))
    assert np.max(np.abs(imp.table.values - t.values)) < 1e-10


def test_json_string_is_deterministic():
    doc, _ = exported_extraspecial()
    again, _ = exported_extraspecial()
    assert character_table_to_json_str(doc) == character_table_to_json_str(again)
    json.loads(character_table_to_json_str(doc))  # remains valid JSON
