"""Character tables: closed form, class-algebra numerics, Galois data, interchange."""
import copy
import json
import tracemalloc

import numpy as np
import pytest

from caywalk import characters
from caywalk.characters import (
    CorruptTableError,
    _closed_form_defects,
    _pairing_matrix,
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
from caywalk.groups import build_abelian_power, build_cyclic, build_extraspecial3, conjugacy

from conftest import CYCLIC_ORDERS, permutation_group_table


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
    # row v, column w holds the basis vector of zeta^(v*w)
    assert t.cyclotomic is not None
    for v in range(6):
        for w in range(6):
            want = np.zeros(6, dtype=np.int64)
            want[(v * w) % 6] = 1
            assert np.array_equal(t.cyclotomic[v, w], want)


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
        assert _table_defects(t.values, t.degrees, t.class_sizes, t.tolerance) == [], (r, n)


def corrupt_flip(dots, r):
    dots = dots.copy()
    dots[5, 7] = (dots[5, 7] + 1) % r
    return dots


def corrupt_duplicate_row(dots, r):
    dots = dots.copy()
    dots[4] = dots[3]
    return dots


@pytest.mark.parametrize("corrupt", [corrupt_flip, corrupt_duplicate_row])
@pytest.mark.parametrize("r, n", [(3, 2), (2, 4), (4, 3), (5, 2)])
def test_closed_form_rejects_a_corrupted_exponent_matrix(monkeypatch, corrupt, r, n):
    sound = _pairing_matrix(r, n)
    assert _closed_form_defects(sound, r, n) == []
    monkeypatch.setattr(characters, "_pairing_matrix",
                        lambda r, n: corrupt(sound, r))
    with pytest.raises(NumericalFailureError, match="closed form failed validation"):
        abelian_character_table(r, n)


def test_closed_form_check_names_each_defect():
    dots = _pairing_matrix(3, 3)
    for words, entry, value in [("outside 0..2", (1, 1), 3),
                                ("nonzero at the identity", (2, 0), 1),
                                ("not additive", (7, 13), (dots[7, 13] + 2) % 3)]:
        bad = dots.copy()
        bad[entry] = value
        assert words in _closed_form_defects(bad, 3, 3)[0], words
    assert "agree on every generator" in _closed_form_defects(
        corrupt_duplicate_row(dots, 3), 3, 3)[0]
    assert "shape" in _closed_form_defects(dots[:9], 3, 3)[0]


def test_closed_form_accepts_rows_in_any_order():
    # The proof needs distinct homomorphisms, not a particular row order.
    dots = _pairing_matrix(3, 3)
    assert _closed_form_defects(dots[::-1].copy(), 3, 3) == []


def test_abelian_build_and_table_peak_memory():
    # Peak traced allocation of the Z_3^6 group and its table, in units of
    # |G|^2 bytes. The table keeps 16 (complex values) + 3 (one-hot exponents)
    # and the group 4 (int32 mul); digit-vector sums over all pairs and dense
    # Gram checks peaked near 150.
    build_abelian_power(2, 2)
    abelian_character_table(2, 2)
    tracemalloc.start()
    try:
        group = build_abelian_power(3, 6)
        abelian_character_table(3, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * group.order**2


# ---------------------------------------------------------------------------
# Structure constants


def test_structure_constants_cyclic_convolution():
    g = build_cyclic(4)
    conj = conjugacy(g)
    a = structure_constants(g, conj)
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
    a = structure_constants(s3_table, conj)
    # product of the transposition class with itself: 3 copies of the
    # identity class plus 3 copies of the 3-cycle class
    assert a[trans, trans, e] == 3.0
    assert a[trans, trans, cyc] == 3.0
    assert a[trans, trans, trans] == 0.0


def test_structure_constants_counting_identity(s3_table):
    conj = conjugacy(s3_table)
    a = structure_constants(s3_table, conj)
    sizes = conj.sizes.astype(float)
    k = len(conj.classes)
    for i in range(k):
        for j in range(k):
            assert sizes[i] * sizes[j] == pytest.approx(float(a[i, j] @ sizes))


# ---------------------------------------------------------------------------
# Numerical tables


def test_numerical_matches_closed_form_z6():
    g = build_cyclic(6)
    conj = conjugacy(g)
    num = character_table_numerical(g, conj)
    closed = abelian_character_table(6, 1)
    assert rounded_rows(num.values) == rounded_rows(closed.values)


def test_numerical_matches_closed_form_z3_squared():
    g = build_abelian_power(3, 2)
    conj = conjugacy(g)
    num = character_table_numerical(g, conj)
    closed = abelian_character_table(3, 2)
    assert rounded_rows(num.values) == rounded_rows(closed.values)


def test_numerical_s3_known_table(s3_table):
    conj = conjugacy(s3_table)
    t = character_table_numerical(s3_table, conj)
    by_size = {len(cls): idx for idx, cls in enumerate(conj.classes)}
    e, cyc, trans = by_size[1], by_size[2], by_size[3]
    rows = {tuple(round(t.values[i, j].real, 8) for j in (e, cyc, trans))
            for i in range(3)}
    assert np.max(np.abs(t.values.imag)) < 1e-9
    assert rows == {(1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (2.0, -1.0, 0.0)}


def test_numerical_s5_degrees(s5_table):
    conj = conjugacy(s5_table)
    t = character_table_numerical(s5_table, conj)
    assert sorted(t.degrees.tolist()) == [1, 1, 4, 4, 5, 5, 6]
    assert int((t.degrees**2).sum()) == 120


def test_numerical_extraspecial_degrees():
    g = build_extraspecial3(1)
    conj = conjugacy(g)
    t = character_table_numerical(g, conj)
    assert sorted(t.degrees.tolist()) == [1] * 9 + [3, 3]


def test_row_orthogonality_direct(s5_table):
    """Recompute the weighted Gram matrix here rather than trusting the builder."""
    conj = conjugacy(s5_table)
    t = character_table_numerical(s5_table, conj)
    gram = (t.values * conj.sizes[None, :]) @ t.values.conj().T
    assert np.max(np.abs(gram - 120 * np.eye(7))) < 1e-8


def test_same_seed_is_bitwise_deterministic():
    g = build_extraspecial3(1)
    conj = conjugacy(g)
    a = character_table_numerical(g, conj, seed=7)
    b = character_table_numerical(g, conj, seed=7)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.degrees, b.degrees)


def test_different_seeds_agree_after_rounding():
    g = build_extraspecial3(1)
    conj = conjugacy(g)
    a = character_table_numerical(g, conj, seed=1)
    b = character_table_numerical(g, conj, seed=2)
    assert rounded_rows(a.values) == rounded_rows(b.values)


def test_dispatch_prefers_closed_form():
    g = build_cyclic(6)
    t = character_table_for(g, conjugacy(g))
    assert t.provenance == "closed-form"
    h = build_extraspecial3(1)
    u = character_table_for(h, conjugacy(h))
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
    assert gal.exponent == 6 and gal.units == (1, 5)
    assert gal.stabilizers[0] == (1, 5)   # trivial character, rational
    assert gal.stabilizers[3] == (1, 5)   # order-2 character, values +-1
    assert gal.stabilizers[1] == (1,)
    assert gal.stabilizers[2] == (1,)


def test_rational_intersection_z6():
    g = build_cyclic(6)
    conj = conjugacy(g)
    t = abelian_character_table(6, 1)
    gal = galois_stabilizers(t, conj)
    assert rational_intersection(gal, [1, 3]) is True
    assert rational_intersection(gal, [1]) is False
    assert rational_intersection(gal, [1, 2]) is False
    assert rational_intersection(gal, [0]) is True


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
    t = character_table_numerical(g, conj)
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
    assert gal.stabilizers[0] == (1, 2)
    assert gal.stabilizers[1] == (1,)


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
