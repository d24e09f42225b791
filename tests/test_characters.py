"""Character tables: closed form, class-algebra numerics, Galois data, interchange."""
import copy
import dataclasses
import functools
import io
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from caywalk import characters, interchange
from caywalk.characters import (
    GaloisData,
    _table_defects,
    abelian_character_table,
    character_table_for,
    character_table_numerical,
    galois_stabilizers,
    units_mod,
)
from caywalk.config import VALUE_TOL
from caywalk.errors import (
    CorruptTableError,
    InvalidParameterError,
    NumericalFailureError,
    SchemaError,
    SizeLimitError,
)
from caywalk.groups import (
    GroupSpec,
    GroupTable,
    build_abelian_power,
    build_cyclic,
    build_extraspecial3,
    build_group,
    conjugacy,
    family_law,
    parse_group_spec,
)
from caywalk.interchange import (
    export_character_table,
    import_character_table,
    load_character_table,
)

from conftest import (
    CYCLIC_ORDERS,
    dense_abelian_table,
    galois_stabilizers_imported,
    kernel,
    numpy_draw_table,
    order_rule_fixes,
    per_unit_stabilizers,
    permutation_group_table,
    rational_intersection,
    rounded_row_order,
    row_loop_stabilizers,
    set_unit_closure,
    stabilizer_tuples,
    structure_constants,
)


# Every group whose numerical table the tests build, and the seeds they use.
NUMERICAL_TABLES = [
    *[(spec, 42) for spec in ("s3", "s5", "z:6", "z3^2", "es3:1", "es3:1:9", "es3:2", "es3:3",
                              "m2:4", "m2:5", "m2:6", "m2:7", "m2:8", "wreath:z:3:2",
                              "wreath:z:3:3", "wreath:z:3:4", "wreath:z:4:2", "wreath:z:4:3")],
    ("es3:1", 1), ("es3:1", 2), ("es3:1", 7)]


@functools.cache
def numerical_group(spec: str) -> GroupTable:
    """s3 and s5 as permutation groups, anything else by its spec."""
    if spec in ("s3", "s5"):
        return permutation_group_table(int(spec[1]))
    return build_group(parse_group_spec(spec))


@functools.cache
def numerical_table(spec: str, seed: int):
    return character_table_numerical(numerical_group(spec), seed=seed)


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


def closed_form_members(max_order: int) -> list[GroupTable]:
    """Every closed-form family member up to max_order the tests cover:
    cyclic groups and powers, then the es3 and m2 members."""
    return [*(closed_form_group(r, n) for r, n in closed_form_shapes(max_order)),
            *(g for g in map(numerical_group, MONOMIAL_SPECS) if g.order <= max_order)]


def test_exact_kernels_match_the_tolerance_test():
    """On every class of every closed-form member up to order 729, rows and
    classes in a seeded order: the exact kernel is the VALUE_TOL test on the
    table's values, and a dense copy of the values reads the same."""
    rng = np.random.default_rng(28)
    for group in closed_form_members(729):
        table = character_table_for(group)
        k = table.n_chars
        rows, classes = rng.permutation(k), rng.permutation(k)
        values = table.values
        reference = ~(np.abs(values[rows][:, classes].T - table.degrees[rows]) < VALUE_TOL)
        assert np.array_equal(table.misses(classes, rows), reference), group.family_tag
        dense = dataclasses.replace(table, dense=values, digits=None, form=None)
        assert np.array_equal(dense.misses(classes, rows), reference), group.family_tag


def test_distinct_stabilizers_expand_to_the_order_rule():
    """Held once per distinct mask, the stabilizers of every closed-form
    member up to order 729 expand to the per-row masks of the order rule
    (imported tables: test_galois_walk_matches_the_per_unit_reference)."""
    for group in closed_form_members(729):
        table = character_table_for(group)
        gal = galois_stabilizers(table, group.conj)
        assert np.array_equal(gal.fixes, order_rule_fixes(table)), group.family_tag
        assert len({mask.tobytes() for mask in gal.stabilizers}) == len(gal.stabilizers)
        assert np.array_equal(np.unique(gal.row_stabilizer), np.arange(len(gal.stabilizers)))
    masks, ids = np.array([[0, 1, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 1]],
                          dtype=bool), np.array([2, 1, 0, 1])
    merged = GaloisData.from_masks(6, masks, ids)
    assert np.array_equal(merged.fixes, masks[ids]) and len(merged.stabilizers) == 2


def test_one_root_table_exact_at_the_quarter_points():
    """Every table of an exponent reads the same roots: 1, i, -1, -i
    exactly, no negative zero, the symmetries of the circle that m admits
    bit for bit, and the rest within 2e-15 of exp(2 pi i j / m) as numpy
    computes it, whose error grows with the angle."""
    for m in (*range(1, 70), 243, 256, 360, 4096):
        roots = characters.roots_of_unity(m)
        j = np.arange(m)
        assert roots is characters.roots_of_unity(m) and not roots.flags.writeable
        assert np.max(np.abs(roots - np.exp(2j * np.pi * j / m))) < 2e-15, m
        parts = np.r_[roots.real, roots.imag]
        assert not np.signbit(parts[parts == 0]).any(), m
        assert np.array_equal(roots[(m - j) % m], roots.conj()), m
        quarters = {0: 1}
        if m % 2 == 0:
            assert np.array_equal(roots[(m // 2 - j) % m], 0.0 - roots.conj()), m
            quarters[m // 2] = -1
        if m % 4 == 0:
            assert np.array_equal(roots[(m // 4 - j) % m], 1j * roots.conj()), m
            quarters.update({m // 4: 1j, 3 * m // 4: -1j})
        assert all(roots[q] == v for q, v in quarters.items()), m
    table = character_table_for(numerical_group("m2:5"))
    assert np.isin(table.values[table.degrees == 1], characters.roots_of_unity(16)).all()


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
    object.__setattr__(doctored, "_law", None)  # its products gather from mul
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
# Closed forms of the Heisenberg and metacyclic laws (es3, m2)

MONOMIAL_SPECS = ["es3:1", "es3:1:9", "es3:2", "es3:3", *(f"m2:{n}" for n in range(4, 12))]


@pytest.mark.parametrize("spec", MONOMIAL_SPECS)
def test_monomial_closed_form_matches_the_numerical_table(spec):
    """Every es3 and m2 member of at most 1,280 classes: after
    _canonical_row_order, the closed form's rows are the numerical table's,
    same degrees, values within 1e-11; tables of at most _DENSE_CLASSES
    classes hold them in that order already."""
    group = numerical_group(spec)
    table = character_table_for(group)
    reference = numerical_table(spec, 42) if spec in dict(NUMERICAL_TABLES) \
        else character_table_numerical(group)
    assert table.provenance == "closed-form" and table.form is not None
    values = table.values
    order = characters._canonical_row_order(values, table.degrees)
    if table.n_classes <= characters._DENSE_CLASSES:
        assert order.tolist() == list(range(table.n_chars))
    assert np.array_equal(table.degrees[order], reference.degrees)
    assert np.max(np.abs(values[order] - reference.values)) <= 1e-11


@pytest.mark.parametrize("spec", ["es3:1", "es3:1:9", "es3:2", "m2:4", "m2:7", "m2:8"])
def test_structured_form_reads_the_held_values(monkeypatch, spec):
    """With no values held, columns are the held table's exactly and
    products within 1e-12 k."""
    held = character_table_for(numerical_group(spec))
    monkeypatch.setattr(characters, "_DENSE_CLASSES", 0)
    form = character_table_for(numerical_group(spec))
    assert form._held is None
    values = held.values
    order = characters._canonical_row_order(form.values, form.degrees)
    assert np.array_equal(form.values[order], values)
    rng = np.random.default_rng(7)
    k = held.n_chars
    idx = rng.integers(0, k, size=(2, 5))
    assert np.array_equal(form.columns(idx)[order], values[:, idx])
    x = rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))
    assert np.max(np.abs(form.products(x[:, np.argsort(order)]) - x @ values)) < 1e-12 * k


@pytest.mark.parametrize("spec", [s for s in MONOMIAL_SPECS
                                  if len(numerical_group(s).conj.classes) <= 320])
def test_monomial_galois_rule_matches_the_walk(spec):
    """The exact stabilizers (additive order, orbit membership) are those
    _galois_walk finds on the same values, for every member of at most 320
    classes."""
    group = numerical_group(spec)
    table, conj = character_table_for(group), group.conj
    maps = {g: conj.class_power(g) for g in characters._unit_generators(table.exponent)}
    assert np.array_equal(galois_stabilizers(table, conj).fixes,
                          characters._galois_walk(table, maps).fixes)


def metacyclic_twist_one(spec):
    law = family_law(spec)
    return type(law)(law.half, law.k, 1, "sigma")


def induced_row_of_a_fixed_label(form):
    labels = form.labels.copy()
    labels[0] = form.modulus // 2  # (N / 2)(t - 1) = 0 mod N for m2
    return dataclasses.replace(form, labels=labels)


def linear_row_off_by_one(form):
    rows = form.rows.copy()
    rows[5, 0] = (rows[5, 0] + 1) % form.radices[0]
    return dataclasses.replace(form, rows=rows)


@pytest.mark.parametrize("spec, law, corrupt, words", [
    ("m2:5", None, induced_row_of_a_fixed_label, "not the least of a full orbit"),
    ("m2:5", metacyclic_twist_one, None, "does not add its image"),
    ("m2:5", None, linear_row_off_by_one, "linear rows are not the characters"),
    ("es3:2", None, linear_row_off_by_one, "linear rows are not the characters"),
])
def test_monomial_closed_form_rejects_a_mutation(monkeypatch, spec, law, corrupt, words):
    group = numerical_group(spec)
    if law is not None:
        monkeypatch.setattr(characters, "family_law", law)
    if corrupt is not None:
        sound = characters._monomial_form
        monkeypatch.setattr(characters, "_monomial_form", lambda g, c: corrupt(sound(g, c)))
    with pytest.raises(NumericalFailureError, match=f"closed form failed validation: .*{words}"):
        character_table_for(group)


def test_a_twist_of_one_fails_the_conjugation_check_too():
    """t = 1 read with the true quotient still meets y x y^-1 = x^t."""
    group = numerical_group("m2:5")
    true = characters._law_coordinates(characters.family_law(group.spec), group.order)
    fake = true._replace(twists=np.ones_like(true.twists))
    form = characters._monomial_form(group, fake)
    assert form.labels.size == 0
    assert characters._monomial_defects(group, fake, form) == ["y x y^-1 is not x^1"]


@pytest.mark.parametrize("built, spec, words", [
    ("es3:1:9", GroupSpec("extraspecial3", n=1), "does not add its image"),
    ("es3:1", GroupSpec("extraspecial3", n=1, exponent=9), "does not add its image"),
    ("m2:5", GroupSpec("extraspecial3", n=1, exponent=9), "order 32 does not fit a law of order 27"),
    ("z:27", GroupSpec("extraspecial3", n=1), "does not add its image"),
    ("z3^3", GroupSpec("extraspecial3", n=1), "11 rows for 27 classes"),
])
def test_monomial_closed_form_rejects_a_valid_group_under_another_spec(built, spec, words):
    """The es3:1 form on the es3:1:9 table, and three more such mismatches."""
    group = build_group(parse_group_spec(built))
    relabeled = GroupTable(order=group.order, mul=group.mul, identity=group.identity,
                           inv=group.inv, labels=group.labels, spec=spec)
    with pytest.raises(NumericalFailureError, match=words):
        character_table_for(relabeled)


def test_monomial_closed_form_rejects_a_doctored_group_table():
    """Two generator columns of es3:1 swapped: still a table the check reads
    through multiply, and no longer the Heisenberg law."""
    group = numerical_group("es3:1")
    mul = group.mul.copy()
    mul[:, [3, 9]] = mul[:, [9, 3]]
    doctored = copy.copy(group)
    object.__setattr__(doctored, "mul", mul)
    object.__setattr__(doctored, "_law", None)
    with pytest.raises(NumericalFailureError, match="closed form failed validation"):
        character_table_for(doctored)


def test_a_closed_form_over_the_byte_limit_is_refused_before_it_is_built(monkeypatch):
    built, sound = [], characters._monomial_form
    monkeypatch.setattr(characters, "MAX_FORM_BYTES", 10_000)
    monkeypatch.setattr(characters, "_monomial_form", lambda *args: built.append(args) or sound(*args))
    character_table_for(numerical_group("es3:1"))  # 11 classes: 2,408 bytes
    with pytest.raises(SizeLimitError, match="would store 116152 bytes, over the limit 10000"):
        character_table_for(numerical_group("es3:2"))
    assert len(built) == 1


@pytest.mark.parametrize("spec", ["es3:1", "es3:2", "m2:5", "m2:9", "es3:3"])
def test_monomial_tables_never_build_a_numerical_table(monkeypatch, spec):
    monkeypatch.setattr(characters, "character_table_numerical",
                        lambda *args, **kwargs: pytest.fail("numerical table built"))
    assert character_table_for(numerical_group(spec)).provenance == "closed-form"


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


@pytest.mark.parametrize("spec", ["s3", "s5", "m2:4", "m2:5", "m2:6", "m2:7", "es3:1",
                                  "es3:1:9", "es3:2", "wreath:z:3:2", "wreath:z:3:3",
                                  "wreath:z:3:4", "wreath:z:4:2", "wreath:z:4:3"])
def test_class_combination_is_the_contracted_structure_tensor(spec, request):
    """Column by column, on the dyadic grid of the seeded draw, the route's
    M is the reference tensor contracted with the same coefficients, bit
    for bit."""
    if spec in ("s3", "s5"):
        g = request.getfixturevalue(f"{spec}_table")
    else:
        g = build_group(parse_group_spec(spec))
    k = len(g.conj.classes)
    coeff = np.random.default_rng(42).integers(1 << 20, 3 << 20, size=k) / (1 << 21)
    want = np.tensordot(coeff, structure_constants(g), axes=(0, 0))
    assert np.array_equal(characters._class_combination(g, coeff), want)


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


@pytest.mark.parametrize("spec, seed", NUMERICAL_TABLES)
def test_stream_table_matches_the_numpy_draw_reference(spec, seed):
    """The SplitMix64 coefficients give the table the earlier numpy draw
    gave: the same degrees in the same row order, values within 1e-12.

    es3:3 (731 classes) is the exception: the stream's M has the smaller
    relative eigenvalue gap there (1.6e-5 against 2.3e-5), and its table lies
    2.9e-12 from the exact values in Z[omega], where the numpy draw's lies
    7.3e-13 from them; both are 3,000 times inside VALUE_TOL."""
    table = numerical_table(spec, seed)
    reference = numpy_draw_table(numerical_group(spec), seed)
    assert np.array_equal(table.degrees, reference.degrees)
    bound = 1e-11 if spec == "es3:3" else 1e-12
    assert np.max(np.abs(table.values - reference.values)) <= bound


def test_the_coefficient_stream_is_pinned(s3_table, monkeypatch):
    """The stream is SplitMix64 (the published outputs for seeds 0 and
    1234567), and the first coefficients of seeds 0 and 42 are fixed
    multiples of 2^-21, so a seed gives the same table under any numpy."""
    assert list(itertools.islice(characters._splitmix64(0), 3)) == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert list(itertools.islice(characters._splitmix64(1234567), 5)) == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821]
    drawn = []
    original = characters._class_combination
    monkeypatch.setattr(characters, "_class_combination",
                        lambda g, coeff: drawn.append(coeff) or original(g, coeff))
    for seed in (0, 42):
        character_table_numerical(s3_table, seed=seed)
    assert [(c * (1 << 21)).tolist() for c in drawn] == [[2901013, 1953555, 1104011],
                                                         [2603750, 1383932, 1632844]]


def test_a_retry_takes_the_next_k_draws_of_the_stream(s3_table, monkeypatch):
    drawn = []
    original = characters._class_combination

    def degenerate_first(g, coeff):
        drawn.append(coeff * (1 << 21))
        return np.eye(len(coeff)) if len(drawn) == 1 else original(g, coeff)

    monkeypatch.setattr(characters, "_class_combination", degenerate_first)
    table = character_table_numerical(s3_table, seed=0)
    assert sorted(table.degrees.tolist()) == [1, 1, 2]
    assert [c.tolist() for c in drawn] == [[2901013, 1953555, 1104011],
                                           [3084663, 1271601, 1735027]]


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_outside_64_bits_is_refused(s3_table, seed):
    with pytest.raises(InvalidParameterError, match="outside 0..18446744073709551615"):
        character_table_numerical(s3_table, seed=seed)


def test_dispatch_prefers_closed_form():
    g = build_cyclic(6)
    t = character_table_for(g)
    assert t.provenance == "closed-form"
    for spec in ("es3:1", "es3:1:9", "m2:4"):
        assert character_table_for(build_group(parse_group_spec(spec))).provenance == "closed-form"
    u = character_table_for(build_group(parse_group_spec("wreath:z:3:2")))
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


@pytest.mark.parametrize("spec", sorted({spec for spec, _ in NUMERICAL_TABLES}))
def test_galois_walk_matches_the_per_unit_reference(spec):
    """Walked from the generators of the units, the stabilizers of each
    numerical table, and of its export read back, are the ones a whole-table
    comparison per unit finds."""
    table, conj = numerical_table(spec, 42), numerical_group(spec).conj
    maps = {k: conj.class_power(k) for k in units_mod(table.exponent)}
    reference = per_unit_stabilizers(table, maps).fixes
    assert np.array_equal(galois_stabilizers(table, conj).fixes, reference)
    imp = import_character_table(export_character_table(table, conj))
    gal = galois_stabilizers_imported(imp.table, imp.power_maps)
    assert np.array_equal(gal.fixes, reference)
    assert len({mask.tobytes() for mask in gal.stabilizers}) == len(gal.stabilizers)


def test_a_power_map_off_the_generators_composition_is_refused():
    """m2:5's units mod 16 are generated by 3 and 5; a shipped map for 15
    with two classes swapped is still a permutation fixing class 0, which the
    per-unit comparison took without a word. The import refuses it, and so
    does the walk when such a map reaches it directly."""
    table, conj = numerical_table("m2:5", 42), numerical_group("m2:5").conj
    assert characters._unit_generators(16) == [3, 5]
    doc = export_character_table(table, conj)
    imp = import_character_table(copy.deepcopy(doc))
    bad = doc["class_power_maps"]["15"]
    i, j = 1, next(j for j in range(2, len(bad)) if bad[j] != bad[1])
    bad[i], bad[j] = bad[j], bad[i]
    with pytest.raises(SchemaError, match="power map for k=15 is not the composition"):
        import_character_table(doc)
    maps = {**imp.power_maps, 15: tuple(bad)}
    per_unit_stabilizers(imp.table, maps)
    with pytest.raises(SchemaError, match="power map for k=15 is not the composition"):
        galois_stabilizers_imported(imp.table, maps)


def test_the_import_needs_the_maps_of_the_unit_generators():
    doc, _ = exported_extraspecial()
    del doc["class_power_maps"]["2"]
    with pytest.raises(SchemaError, match=r"missing for the unit generators \[2\]"):
        import_character_table(doc)


def test_a_generator_map_that_no_character_follows_is_a_numerical_failure():
    doc, _ = exported_extraspecial()
    doc["class_power_maps"]["2"] = [0, *doc["class_power_maps"]["2"][1:][::-1]]
    imp = import_character_table(doc)
    with pytest.raises(NumericalFailureError, match="matches no character"):
        galois_stabilizers_imported(imp.table, imp.power_maps)


def test_row_permutation_tries_every_row_within_the_key_slack():
    """Rows 1 and 3 differ by 5e-8 in one entry: their keys lie within the
    slack VALUE_TOL * k, the nearer key is the wrong row, and the full-row
    check finds the right one. Columns swapped, no row matches."""
    values = np.random.default_rng(0).standard_normal((6, 6)) + 0j
    values[3] = values[1]
    values[3, 0] += 5e-8
    assert characters._row_permutation(values, np.arange(6)).tolist() == list(range(6))
    with pytest.raises(NumericalFailureError):
        characters._row_permutation(values, np.array([0, 2, 1, 3, 4, 5]))


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
    assert np.array_equal(gal.fixes, per_unit_stabilizers(imp.table, imp.power_maps).fixes)


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
    path.write_text(json.dumps(doc), encoding="utf-8")
    imp = load_character_table(str(path))
    assert np.max(np.abs(imp.table.values - t.values)) < 1e-10


@pytest.mark.parametrize("held", [True, False])
@pytest.mark.parametrize("spec", ["z:8", "m2:5", "es3:2"])
def test_character_export_streams_the_bytes_of_json_dumps(monkeypatch, spec, held):
    """Written a row or a few at a time, from held values, digits or a form."""
    if not held:
        monkeypatch.setattr(characters, "_DENSE_CLASSES", 0)
    monkeypatch.setattr(interchange, "_EXPORT_ENTRIES", 500)
    group = build_group(parse_group_spec(spec))
    table = character_table_for(group)
    out = io.StringIO()
    interchange.write_character_table(table, group.conj, out)
    assert out.getvalue() == json.dumps(export_character_table(table, group.conj),
                                        sort_keys=True, separators=(",", ":"))


def test_json_string_is_deterministic():
    doc, _ = exported_extraspecial()
    again, _ = exported_extraspecial()
    texts = [json.dumps(d, sort_keys=True, separators=(",", ":")) for d in (doc, again)]
    assert texts[0] == texts[1]
    json.loads(texts[0])  # remains valid JSON
