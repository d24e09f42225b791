"""Certificate families, the certificate suite, and dual verification."""
import math
from dataclasses import replace

import numpy as np
import pytest

from caywalk import families, oracle
from caywalk.config import DEFAULT_CONFIG
from caywalk.errors import InvalidParameterError
from caywalk.families import (
    dual_verify,
    family_extraspecial3,
    family_m2,
    family_z3n,
    family_z4n,
    load_fixture_certificates,
    m2_remark_probe,
    shipped_certificates,
    undirected_cycle4_certificate,
    wreath_lift,
    z8_certificate,
)
from caywalk.groups import (
    GroupSpec,
    build_cyclic,
    build_group,
    digits_of,
    parse_group_spec,
    save_group,
)

from conftest import write_fixture_documents


# ---------------------------------------------------------------------------
# cyclic-power families


def random_valid_z3_sets(n, count, seed):
    """Seeded valid oriented sets in Z_3^n: pick one side (or neither) per inverse pair."""
    rng = np.random.default_rng(seed)
    order = 3**n
    pairs = []
    seen = set()
    for w in range(1, order):
        digits = digits_of(w, 3, n)
        neg = tuple((-d) % 3 for d in digits)
        if tuple(digits) in seen or neg in seen:
            continue
        seen.add(tuple(digits))
        pairs.append((tuple(digits), neg))
    sets = []
    while len(sets) < count:
        choice = rng.integers(0, 3, size=len(pairs))
        chosen = [pair[side - 1] for pair, side in zip(pairs, choice) if side > 0]
        if chosen:
            sets.append(chosen)
    return sets


def test_z3_randomized_sets_verify():
    for connection in random_valid_z3_sets(2, 4, seed=11):
        cert = family_z3n(2, connection)
        sigma = tuple(sum(c[i] for c in connection) % 3 for i in range(2))
        assert (cert.claimed_size == 3) == (sigma != (0, 0))
        if cert.claimed_size == 3:
            assert tuple(digits_of(cert.z, 3, 2)) == sigma
        report = dual_verify(cert)
        assert report.ok, report.messages


def test_z3_zero_sum_is_periodic_only():
    cert = family_z3n(2, [(0, 1), (1, 1), (2, 1)])
    assert cert.claimed_size == 1
    assert cert.z == cert.group.identity
    report = dual_verify(cert)
    assert report.ok, report.messages
    assert report.mst.size == 1


def test_z4_even_sum_is_periodic_only():
    cert = family_z4n(2, [(1, 1), (1, 3)])
    assert cert.claimed_size == 1
    assert cert.z == cert.group.identity  # twice an order-2 sum
    report = dual_verify(cert)
    assert report.ok, report.messages
    assert report.mst.size == 1 and report.oracle_fidelity == pytest.approx(1.0)
    assert report.phase == pytest.approx(1.0)  # the return carries phase +1


def test_z4_odd_sum_transfers():
    cert = family_z4n(1, [(1,)])
    assert cert.claimed_size == 2 and cert.z == 2
    report = dual_verify(cert)
    assert report.ok, report.messages
    assert report.mst.S_e == (0, 2)


# ---------------------------------------------------------------------------
# nonabelian families


def test_extraspecial_exponent9_variant_verifies():
    cert = family_extraspecial3(1, exponent_type=9)
    assert cert.name.endswith("_exp9")
    assert cert.group.order == 27
    report = dual_verify(cert)
    assert report.ok, report.messages
    assert report.mst.size == 3


def test_extraspecial_custom_basis():
    g = family_extraspecial3(1).group
    xy = int(g.mul[g.index_of("x1"), g.index_of("y1")])
    cert = family_extraspecial3(1, basis_elements=[xy, g.index_of("y1")])
    report = dual_verify(cert)
    assert report.ok, report.messages


def test_extraspecial_rejects_non_spanning_basis():
    g = family_extraspecial3(1).group
    with pytest.raises(InvalidParameterError):
        family_extraspecial3(1, basis_elements=[g.index_of("x1"), g.index_of("x1")])
    with pytest.raises(InvalidParameterError):
        family_extraspecial3(1, basis_elements=[g.index_of("x1")])


def test_m2_certificate_structure():
    cert = family_m2(5)
    g = cert.group
    assert g.order == 32
    assert g.label_of(cert.z) == "x^4"
    labels = {g.label_of(e) for e in cert.graph().elements}
    assert labels == {"x^4", "x^2*sigma", "x^10*sigma", "x", "x^5", "x^9", "x^13"}
    assert len(cert.connection_classes) == 4


def test_m2_rejects_small_n():
    with pytest.raises(InvalidParameterError):
        family_m2(4)


def test_report_only_probe():
    cert = m2_remark_probe()
    assert cert.claimed_size is None
    report = dual_verify(cert)
    assert report.ok, report.messages
    # observed outcome, recorded rather than claimed: the probe does transfer
    assert report.mst.size == 4
    assert report.phase is not None and report.phase > 0


# ---------------------------------------------------------------------------
# wreath lifts


def test_wreath_lift_element_counts():
    base = family_z3n(1, [(1,)])
    lift2 = wreath_lift(base, 2)
    assert len(lift2.graph().elements) == 5   # 2 insertions + 3 twists
    lift3 = wreath_lift(base, 3)
    assert len(lift3.graph().elements) == 21  # 3 insertions + 2*9 twists


def test_wreath_lift_connectivity_recorded():
    base = family_z3n(1, [(1,)])
    rep2 = dual_verify(wreath_lift(base, 2))
    assert rep2.ok and rep2.connected is True
    rep3 = dual_verify(wreath_lift(base, 3))
    # only even permutations arise from full-cycle twists when n = 3, so the
    # lifted graph is disconnected; transfer still holds componentwise
    assert rep3.ok and rep3.connected is False
    assert rep3.verdict["connected"] is False


def test_wreath_lift_of_degenerate_base_stays_degenerate():
    base = family_z3n(2, [(0, 1), (1, 1), (2, 1)])
    lifted = wreath_lift(base, 2)
    assert lifted.claimed_size == 1
    report = dual_verify(lifted)
    assert report.ok, report.messages
    assert report.mst.size == 1


def test_wreath_lift_rejects_small_n():
    with pytest.raises(InvalidParameterError):
        wreath_lift(family_z3n(1, [(1,)]), 1)


# ---------------------------------------------------------------------------
# undirected and solved-time certificates


def test_undirected_certificate_is_oracle_only():
    report = dual_verify(undirected_cycle4_certificate())
    assert report.ok, report.messages
    assert report.criterion_residual is None
    assert report.mst is None
    assert report.oracle_fidelity == pytest.approx(1.0, abs=1e-12)


def test_z8_solved_tag_matches_quarter_pi():
    cert = z8_certificate()
    assert cert.tau == math.pi / 4


# ---------------------------------------------------------------------------
# the suite and --fixtures documents


def test_load_fixtures_from_directory(tmp_path):
    """Hand-written documents read back as the certificates the constructors build."""
    write_fixture_documents(tmp_path)
    certs = load_fixture_certificates(str(tmp_path))
    built = [m2_remark_probe(), family_z3n(2, [(0, 1), (1, 1), (2, 1)]), z8_certificate()]
    assert [c.name for c in certs] == ["m2_16_probe", "z3_2_return", "z8_125"]
    for cert, want in zip(certs, built):
        assert cert.connection_classes == want.connection_classes
        assert (cert.z, cert.tau_tag, cert.claimed_size) == (want.z, want.tau_tag,
                                                             want.claimed_size)
        assert cert.oriented and cert.group.spec == want.group.spec
        assert np.array_equal(cert.group.mul, want.group.mul)


def test_load_packaged_fixtures():
    """With no directory the suite comes from the constructors, in name order."""
    certs = load_fixture_certificates()
    assert len(certs) == 14
    assert [c.name for c in certs] == sorted(c.name for c in shipped_certificates())


def test_group_spec_dispatch(tmp_path):
    assert build_group(parse_group_spec("z:8")).order == 8
    assert build_group(parse_group_spec("z3^2")).order == 9
    assert build_group(parse_group_spec("wreath:z:3:2")).order == 18
    with pytest.raises(InvalidParameterError):
        build_group(GroupSpec("nonsense"))
    path = tmp_path / "g.json"
    save_group(build_cyclic(6), str(path))
    assert build_group(parse_group_spec(f"file:{path}")).order == 6


# ---------------------------------------------------------------------------
# dual verification must actually reject


def test_dual_verify_rejects_wrong_target():
    cert = z8_certificate()
    doctored = replace(cert, z=4)  # transfers at pi/2, not at the pinned pi/4
    report = dual_verify(doctored)
    assert not report.ok
    assert any("criterion rejected" in m for m in report.messages)


def test_dual_verify_rejects_wrong_size():
    cert = z8_certificate()
    report = dual_verify(replace(cert, claimed_size=2))
    assert not report.ok
    assert any("size" in m for m in report.messages)


def test_dual_verify_rejects_wrong_time():
    cert = z8_certificate()
    report = dual_verify(replace(cert, tau_tag="pi/2"))
    assert not report.ok


def test_dual_verify_skips_oracle_above_cap():
    cert = z8_certificate()
    small_cap = DEFAULT_CONFIG.with_updates(oracle_max_order=4)
    report = dual_verify(cert, small_cap)
    assert report.ok, report.messages
    assert report.oracle_fidelity is None  # criterion ran alone


def test_each_oriented_transfer_certificate_evolves_one_column(monkeypatch):
    """The oracle's fidelity and its permutation check read one column,
    evolved at the pinned time."""
    calls = []
    evolve_column = oracle.evolve_column

    def counted(op, t, a):
        calls.append((t, a))
        return evolve_column(op, t, a)

    monkeypatch.setattr(oracle, "evolve_column", counted)
    monkeypatch.setattr(families, "evolve_column", counted)
    checked = 0
    for cert in shipped_certificates():
        if cert.oriented and (cert.claimed_size or 0) > 1 and \
                cert.group.order <= DEFAULT_CONFIG.oracle_max_order:
            calls.clear()
            assert dual_verify(cert).ok, cert.name
            assert calls == [(cert.tau, cert.group.identity)], cert.name
            checked += 1
    assert checked == 11
