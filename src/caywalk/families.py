"""Connection-set families with certified transfer, the certificate suite,
and dual verification.

Each constructor returns a FamilyCertificate: a group, a class-closed oriented
connection set, the claimed target and time, and the claimed transfer-set
size. shipped_certificates() is the suite `caywalk verify` replays;
dual_verify replays any certificate through both the character criterion and
the matrix-exponential oracle.
"""
from __future__ import annotations

import itertools
import json
import pathlib
from dataclasses import dataclass
from typing import Sequence

from .cayley import CayleyGraph, cayley_graph, is_connected
from .characters import character_table_for
from .config import DEFAULT_CONFIG, FIDELITY_GAP, RunConfig
from .engine import (
    MSTReport,
    check_pst_at,
    compute_S_e,
    parse_time,
    time_rationality_check,
    verdict_document,
)
from .errors import (
    InconsistencyError,
    InvalidParameterError,
    SchemaError,
    check_fields,
    require_keys,
)
from .groups import (
    ConjugacyData,
    GroupTable,
    WreathElement,
    WreathIndexing,
    build_abelian_power,
    build_cyclic,
    build_extraspecial3,
    build_group,
    build_modular_maximal_cyclic,
    build_wreath_sym,
    cycle_product,
    digits_of,
    index_of_digits,
    parse_group_spec,
    permutation_cycles,
    subgroup_closure,
)
from .oracle import (
    build_hermitian_operator,
    build_operator,
    evolve_column,
    fidelity,
    permutation_check,
)

Z8_TAU_TAG = "solved:0.7853981633974483"


@dataclass(eq=False)
class FamilyCertificate:
    """One claimed transfer instance, self-contained and replayable.

    claimed_size is the whole claim: None for a report-only probe, 1 for a
    periodic return to the identity (z is then the identity), k >= 2 for a
    transfer set of size k.
    """

    name: str
    group: GroupTable
    connection_classes: tuple[int, ...]
    z: int
    tau_tag: str
    claimed_size: int | None
    oriented: bool = True

    @property
    def conj(self) -> ConjugacyData:
        return self.group.conj

    @property
    def tau(self) -> float:
        return parse_time(self.tau_tag)

    def graph(self) -> CayleyGraph:
        return cayley_graph(self.group, self.connection_classes, self.oriented)


def _classes_of_elements(group: GroupTable, elements: Sequence[int]) -> tuple[int, ...]:
    """Class indices of the elements, which must form a union of whole classes."""
    conj = group.conj
    classes = tuple(sorted({int(conj.class_of[g]) for g in elements}))
    covered = sorted(g for c in classes for g in conj.classes[c])
    if covered != sorted(int(g) for g in elements):
        raise InconsistencyError("element set is not a union of conjugacy classes")
    return classes


def _as_indices(connection: Sequence, r: int) -> list[int]:
    return [index_of_digits(w, r) if isinstance(w, (tuple, list)) else int(w)
            for w in connection]


def family_z3n(n: int, connection: Sequence) -> FamilyCertificate:
    """Z_3^n with any valid oriented connection set.

    The claimed target is the componentwise sum of the connection vectors at
    time 2*pi/(3*sqrt 3); a zero sum degrades the claim to a plain return.
    """
    group = build_abelian_power(3, n)
    elements = _as_indices(connection, 3)
    classes = _classes_of_elements(group, elements)
    total = [sum(d) % 3 for d in zip(*(digits_of(w, 3, n) for w in elements))]
    sigma = index_of_digits(total, 3)
    return FamilyCertificate(
        name=f"z3_{n}", group=group,
        connection_classes=classes, z=sigma, tau_tag="2pi/3sqrt3",
        claimed_size=3 if sigma != group.identity else 1,
    )


def family_z4n(n: int, connection: Sequence) -> FamilyCertificate:
    """Z_4^n at time pi/2: transfer to twice the connection sum iff it has order 4."""
    group = build_abelian_power(4, n)
    elements = _as_indices(connection, 4)
    classes = _classes_of_elements(group, elements)
    total = [sum(d) % 4 for d in zip(*(digits_of(w, 4, n) for w in elements))]
    sigma_order_four = any(d % 2 == 1 for d in total)
    target = index_of_digits([(2 * d) % 4 for d in total], 4)
    return FamilyCertificate(
        name=f"z4_{n}", group=group,
        connection_classes=classes, z=target, tau_tag="pi/2",
        claimed_size=2 if sigma_order_four else 1,
    )


def family_extraspecial3(n: int, exponent_type: int = 3,
                         basis_elements: Sequence[int] | None = None) -> FamilyCertificate:
    """Extraspecial 3-group: centre preimages of a quotient basis, plus one
    central generator, transfer onto the whole centre at 2*pi/(3*sqrt 3)."""
    group = build_extraspecial3(n, exponent_type)
    z = min(c for c in group.conj.center if c != group.identity)
    if basis_elements is None:
        if exponent_type == 9:
            basis_elements = [group.index_of("x"), group.index_of("y")]
        else:
            basis_elements = [group.index_of(f"x{i + 1}") for i in range(n)]
            basis_elements += [group.index_of(f"y{i + 1}") for i in range(n)]
    basis_elements = [int(b) for b in basis_elements]
    if len(basis_elements) != 2 * n:
        raise InvalidParameterError(f"need 2n = {2 * n} basis elements")
    if len(subgroup_closure(group, basis_elements)) != group.order:
        raise InvalidParameterError("basis images do not span the central quotient")

    elements = set()
    for b in basis_elements:
        elements.update(group.conj.classes[int(group.conj.class_of[b])])
    elements.add(z)
    classes = _classes_of_elements(group, sorted(elements))
    return FamilyCertificate(
        name=f"extraspecial3_{group.order}" + ("_exp9" if exponent_type == 9 else ""),
        group=group, connection_classes=classes, z=z, tau_tag="2pi/3sqrt3",
        claimed_size=3,
    )


def family_m2(n: int) -> FamilyCertificate:
    """Modular maximal-cyclic group of order 2^n (n >= 5): transfer set of
    size 4 inside the cyclic centre at time pi/4."""
    if n < 5:
        raise InvalidParameterError("the certified family needs n >= 5")
    group = build_modular_maximal_cyclic(n)
    half = 2 ** (n - 1)

    def elem(i: int, j: int) -> int:
        return 2 * (i % half) + j

    z = elem(2 ** (n - 3), 0)
    elements = {z, elem(2 ** (n - 4), 1), elem(2 ** (n - 2) + 2 ** (n - 4), 1)}
    elements.update(elem(4 * k + 1, 0) for k in range(2 ** (n - 3)))
    classes = _classes_of_elements(group, sorted(elements))
    return FamilyCertificate(
        name=f"m2_{group.order}", group=group,
        connection_classes=classes, z=z, tau_tag="pi/4", claimed_size=4,
    )


def m2_remark_probe() -> FamilyCertificate:
    """Order-16 modular group with the connection set {x^2, x*sigma, x^5*sigma}.

    Shipped report-only: the verdict is whatever the criterion and the oracle
    agree on, with no asserted size.
    """
    group = build_modular_maximal_cyclic(4)
    elements = [group.index_of("x^2"), group.index_of("x*sigma"),
                group.index_of("x^5*sigma")]
    classes = _classes_of_elements(group, elements)
    return FamilyCertificate(
        name="m2_16_probe", group=group,
        connection_classes=classes, z=group.index_of("x^2"), tau_tag="pi/4",
        claimed_size=None,
    )


def z8_certificate() -> FamilyCertificate:
    """Cay(Z_8, {1, 2, 5}): transfer set {0, 2, 4, 6} with solved minimal time."""
    group = build_cyclic(8)
    classes = _classes_of_elements(group, [1, 2, 5])
    return FamilyCertificate(
        name="z8_125", group=group,
        connection_classes=classes, z=2, tau_tag=Z8_TAU_TAG, claimed_size=4,
    )


# ---------------------------------------------------------------------------
# wreath lifting

def _ncycles(n: int) -> list[tuple[int, ...]]:
    """Permutations of n >= 2 points that are a single full-length cycle."""
    return [perm for perm in itertools.permutations(range(n))
            if len(permutation_cycles(perm)) == 1]


def _lift_elements(base: GroupTable, wi: WreathIndexing,
                   conn_elements: Sequence[int]) -> list[int]:
    n = wi.n
    e = base.identity
    chosen = set(conn_elements)
    lifted = []
    # One moved coordinate, identity permutation.
    ident = tuple(range(n))
    for pos in range(n):
        for c in conn_elements:
            coords = tuple(c if k == pos else e for k in range(n))
            lifted.append(wi.encode(WreathElement(coords, ident)))
    # Full-cycle permutations whose forward cycle product lands in the set.
    for perm in _ncycles(n):
        cycle = tuple(i + 1 for i in permutation_cycles(perm)[0])
        for coords in itertools.product(range(base.order), repeat=n):
            if cycle_product(base, coords, cycle) in chosen:
                lifted.append(wi.encode(WreathElement(coords, perm)))
    return lifted


def wreath_lift(base_cert: FamilyCertificate, n: int) -> FamilyCertificate:
    """Lift a base certificate to base wr S_n at the same time.

    The lifted connection set pairs single-coordinate insertions with
    full-cycle twists; the target is the diagonal of the base target.
    """
    if n < 2:
        raise InvalidParameterError("need n >= 2")
    base = base_cert.group
    group = build_wreath_sym(base, n)
    wi = WreathIndexing(base, n)
    lifted = _lift_elements(base, wi, base_cert.graph().elements)
    classes = _classes_of_elements(group, lifted)
    z = wi.diagonal(base_cert.z)
    return FamilyCertificate(
        name=f"lift_{base_cert.name}_s{n}",
        group=group, connection_classes=classes, z=z,
        tau_tag=base_cert.tau_tag,
        claimed_size=1 if base_cert.claimed_size == 1 else int(group.conj.orders[z]),
        oriented=base_cert.oriented,
    )


def undirected_cycle4_certificate() -> FamilyCertificate:
    """Undirected 4-cycle as Cay(Z_4, {1, 3}): antipodal transfer at pi/2."""
    group = build_cyclic(4)
    classes = _classes_of_elements(group, [1, 3])
    return FamilyCertificate(
        name="undirected_c4", group=group,
        connection_classes=classes, z=2, tau_tag="pi/2", claimed_size=2,
        oriented=False,
    )


# ---------------------------------------------------------------------------
# the certificate suite and --fixtures documents

def shipped_certificates() -> list[FamilyCertificate]:
    """The certificate suite `caywalk verify` replays, built by the constructors."""
    base_z3 = family_z3n(1, [(1,)])
    base_z4 = family_z4n(1, [(1,)])
    return [
        base_z3,
        family_z3n(2, [(1, 0), (0, 1), (1, 1)]),
        family_z3n(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        base_z4,
        family_z4n(2, [(1, 0), (0, 1)]),
        family_extraspecial3(1),
        family_extraspecial3(2),
        family_m2(5),
        z8_certificate(),
        wreath_lift(base_z3, 2),
        wreath_lift(base_z3, 3),
        wreath_lift(base_z4, 2),
        undirected_cycle4_certificate(),
        m2_remark_probe(),
    ]


def fixture_to_certificate(doc: dict) -> FamilyCertificate:
    """Certificate from one `verify --fixtures` document.

    The optional claims_pst and report_only keys must agree with
    claimed_size; family and notes are ignored.
    """
    name = doc.get("name")
    require_keys(doc, ("name", "group", "connection_classes", "z", "tau", "claimed_size"),
                 f"fixture {name!r}")
    classes, z, tau = doc["connection_classes"], doc["z"], doc["tau"]
    oriented = doc.get("oriented", True)
    check_fields(f"fixture {name!r}", (
        (isinstance(doc["group"], str), "group must be a spec string"),
        (isinstance(classes, list) and classes != [] and all(type(c) is int for c in classes),
         "connection_classes must be a non-empty list of integers"),
        (type(z) is int, "z must be an integer"),
        (type(tau) in (str, int, float), "tau must be a string or a number"),
        (type(oriented) is bool, "oriented must be a boolean")))
    size = doc["claimed_size"]
    if size is not None and (type(size) is not int or size < 1):
        raise SchemaError(f"fixture {name!r}: claimed_size {size!r} is neither null "
                          "nor a positive integer")
    for key, derived in (("claims_pst", size != 1), ("report_only", size is None)):
        if key in doc and doc[key] != derived:
            raise SchemaError(f"fixture {name!r}: {key}={doc[key]!r} contradicts "
                              f"claimed_size={size!r}")
    group = build_group(parse_group_spec(doc["group"]))
    return FamilyCertificate(
        name=doc["name"], group=group,
        connection_classes=tuple(classes), z=z, tau_tag=str(tau),
        claimed_size=size, oriented=oriented,
    )


def load_fixture_certificates(directory: str | None = None) -> list[FamilyCertificate]:
    """The suite in name order, or the *.json documents of directory in file order."""
    if directory is None:
        return sorted(shipped_certificates(), key=lambda cert: cert.name)
    return [fixture_to_certificate(json.loads(p.read_text(encoding="utf-8")))
            for p in sorted(pathlib.Path(directory).glob("*.json"))]


# ---------------------------------------------------------------------------
# dual verification

@dataclass(eq=False)
class DualReport:
    """Criterion and oracle outcomes for one certificate."""

    name: str
    ok: bool
    messages: list[str]
    criterion_residual: float | None
    oracle_fidelity: float | None
    phase: float | None
    mst: MSTReport | None
    connected: bool
    verdict: dict | None


def dual_verify(cert: FamilyCertificate,
                config: RunConfig = DEFAULT_CONFIG) -> DualReport:
    """Replay a certificate through the criterion and (size permitting) the oracle.

    Both routes test the walk from the identity to cert.z at cert.tau, which
    for a size-1 claim is the periodic return. Report-only certificates
    cannot fail on their claims; they fail only if the criterion and the
    oracle contradict each other.
    """
    messages: list[str] = []
    graph = cert.graph()
    group = cert.group
    tau = cert.tau
    connected = is_connected(graph)
    run_oracle = group.order <= config.oracle_max_order

    if not cert.oriented:
        # Undirected fixtures are oracle territory only.
        fid = phase = None
        if run_oracle:
            op = build_hermitian_operator(group, graph.elements)
            fid, entry = fidelity(op, tau, group.identity, cert.z)
            if fid < 1.0 - FIDELITY_GAP:
                messages.append(f"oracle fidelity {fid:.12f} below threshold")
        ok = not messages
        return DualReport(name=cert.name, ok=ok, messages=messages,
                          criterion_residual=None, oracle_fidelity=fid,
                          phase=None, mst=None, connected=connected, verdict=None)

    table = character_table_for(group, seed=config.seed)
    claimed = cert.claimed_size
    transfer = claimed is not None and claimed > 1
    res = check_pst_at(graph, table, cert.z, tau)
    if not res.accepted and claimed is not None:
        messages.append(
            f"criterion rejected transfer to {cert.z} at {tau:.12g}"
            f" (residual {res.residual:.3e})")
    mst = compute_S_e(graph, table)
    if claimed is not None and mst.size != claimed:
        messages.append(f"transfer set size {mst.size} != claimed {claimed}")
    if transfer:
        if mst.minimal_time is None or abs(mst.minimal_time - tau) > 1e-9:
            got = "none" if mst.minimal_time is None else f"{mst.minimal_time:.12g}"
            messages.append(f"minimal time {got} does not match the pinned {tau:.12g}")
        if not time_rationality_check(tau, mst.size).ok:
            messages.append("pinned time is not a small rational multiple")

    fid: float | None = None
    phase: float | None = None
    if run_oracle:
        op = build_operator(group, graph.elements)
        # One column at the pinned time serves the fidelity and the
        # permutation check: tau is the minimal time, checked above to 1e-9.
        col = evolve_column(op, tau, group.identity)
        entry = complex(col[cert.z])
        fid, phase = abs(entry), entry.real
        if claimed is None:
            if (fid > 1.0 - FIDELITY_GAP and phase > 0) != res.accepted:
                messages.append("criterion and oracle disagree on the probe")
        elif fid < 1.0 - FIDELITY_GAP:
            messages.append(f"oracle fidelity {fid:.12f} below threshold")
        elif phase < 0:
            messages.append("oracle phase is not +1")
        if transfer and mst.size > 1 and mst.minimal_time is not None:
            perm = permutation_check(op, col, group)
            if not perm.ok or not perm.fixed_point_free or \
                    not perm.commutes_with_generator or perm.order != mst.size:
                messages.append("transfer permutation structure check failed")

    verdict = verdict_document(graph, mst, fid, connected)
    verdict["name"] = cert.name
    ok = not messages
    return DualReport(name=cert.name, ok=ok, messages=messages,
                      criterion_residual=res.residual, oracle_fidelity=fid,
                      phase=phase, mst=mst, connected=connected, verdict=verdict)
