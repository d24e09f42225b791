"""Group tables, family constructors, conjugacy machinery, JSON interchange."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caywalk.errors import (
    GroupValidationError,
    InvalidParameterError,
    SchemaError,
    SizeLimitError,
)
from caywalk.groups import (
    GroupTable,
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
    element_order,
    group_from_json,
    group_to_json,
    index_of_digits,
    load_group,
    parse_group_spec,
    permutation_cycles,
    power,
    save_group,
    subgroup_closure,
    wreath_type,
)

from conftest import (
    CYCLIC_ORDERS,
    brute_conjugacy_classes,
    digit_sum_abelian_power,
    loop_extraspecial3,
    loop_modular_maximal_cyclic,
    orbit_conjugacy,
    permutation_group_table,
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


@pytest.mark.parametrize("r", (2, 3, 4))
def test_abelian_power_matches_digit_sum_reference(r):
    n = 1
    while r**n <= 729:
        g = build_abelian_power(r, n)
        mul, labels = digit_sum_abelian_power(r, n)
        assert np.array_equal(g.mul, mul), (r, n)
        assert g.labels == tuple(labels), (r, n)
        n += 1


def assert_same_conjugacy(group: GroupTable) -> None:
    got, want = conjugacy(group), orbit_conjugacy(group)
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
    base_conj = conjugacy(base)
    g = build_wreath_sym(base, 2)
    conj = conjugacy(g)
    wi = WreathIndexing(base, 2)
    types = [wreath_type(wi.decode(i), base, base_conj) for i in range(g.order)]
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
