"""Independent oracles shared by the test suite.

Everything here recomputes facts from first principles (permutation
composition, brute-force orbit scans, Taylor-series matrix exponentials) so
library results are checked against a second, structurally different route.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from caywalk.groups import GroupTable, _word, digits_of, index_of_digits


def permutation_group_table(n: int) -> GroupTable:
    """S_n as an explicit table, built from raw permutation composition."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    mul = np.zeros((size, size), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            mul[i, j] = index[tuple(p[q[k]] for k in range(n))]
    inv = np.zeros(size, dtype=np.int64)
    for i, p in enumerate(perms):
        ip = [0] * n
        for a, b in enumerate(p):
            ip[b] = a
        inv[i] = index[tuple(ip)]
    labels = tuple("".join(str(x) for x in p) for p in perms)
    return GroupTable(order=size, mul=mul, identity=index[tuple(range(n))],
                      inv=inv, labels=labels)


def brute_conjugacy_classes(mul: np.ndarray, inv: np.ndarray) -> list[frozenset[int]]:
    """Conjugacy classes by a plain double loop, no vectorization."""
    n = mul.shape[0]
    seen = set()
    classes = []
    for g in range(n):
        if g in seen:
            continue
        orbit = {int(mul[mul[h, g], inv[h]]) for h in range(n)}
        classes.append(frozenset(orbit))
        seen |= orbit
    return classes


def expm_taylor(m: np.ndarray) -> np.ndarray:
    """exp(M) by scaling-and-squaring with a plain Taylor series."""
    m = np.asarray(m, dtype=np.complex128)
    norm = float(np.abs(m).sum(axis=1).max()) if m.size else 0.0
    s = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    x = m / (2.0 ** s)
    out = np.eye(m.shape[0], dtype=np.complex128)
    term = np.eye(m.shape[0], dtype=np.complex128)
    for k in range(1, 30):
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def abelian_residue_counts(group: GroupTable, conn, v, r: int) -> np.ndarray:
    """counts[j] = number of connection elements w with v.w = j (mod r)."""
    n = len(v)
    assert r**n == group.order, "digit shape does not match the group order"
    counts = np.zeros(r, dtype=np.int64)
    for w in conn.elements:
        dots = sum(int(a) * b for a, b in zip(v, digits_of(w, r, n))) % r
        counts[dots] += 1
    return counts


def theta_from_residue_counts(counts: np.ndarray, r: int) -> complex:
    """2i * sum_j counts[j] sin(2 pi j / r), the abelian eigenvalue formula."""
    j = np.arange(r)
    return complex(2j * np.sum(counts * np.sin(2 * np.pi * j / r)))


def idempotent(graph, table, char_index: int) -> np.ndarray:
    """Spectral projector E[g, h] = chi(h g^-1) * chi(e) / |G|."""
    group = graph.group
    # X[h, g] = h * g^-1, built column-by-column over g.
    x = group.mul[:, group.inv]
    deg = float(table.degrees[char_index])
    return (deg / group.order) * table.values[char_index][graph.conj.class_of[x]].T


def winding_search_times(graph, table, tol: float = 1e-8,
                         candidate_factor: int = 4) -> dict[int, tuple[float, float]]:
    """Minimal transfer time and residual per central target, by winding search.

    The engine's earlier solver, kept as a structurally different reference:
    for each target it solves one reference character's phase equation over
    the windings k = -K..K with K = candidate_factor * |G| and takes the
    earliest candidate time whose residual is under tol.
    """
    g = graph.group
    idx = np.asarray(graph.conn.class_indices, dtype=np.int64)
    sums = table.values[:, idx] @ table.class_sizes[idx].astype(np.float64)
    thetas = (sums - np.conj(sums)) / table.degrees
    static = np.abs(thetas.imag) <= tol
    ref = int(np.argmax(np.abs(thetas.imag)))
    ks = np.arange(-candidate_factor * g.order, candidate_factor * g.order + 1)
    found = {}
    for z in graph.conj.center:
        if z == g.identity or np.all(static):
            continue
        ratios = table.values[:, int(graph.conj.class_of[z])] / table.degrees
        if np.any((np.abs(ratios - 1.0) > tol) & static):
            continue
        alpha = float(np.angle(ratios[ref])) % (2.0 * np.pi)
        times = (alpha + 2.0 * np.pi * ks) / thetas.imag[ref]
        times = np.sort(times[times > 1e-12])
        residuals = np.max(np.abs(ratios[None, :] - np.exp(np.outer(times, thetas))), axis=1)
        hits = np.nonzero(residuals < tol)[0]
        if hits.size:
            found[z] = (float(times[hits[0]]), float(residuals[hits[0]]))
    return found


def loop_extraspecial3(n: int, exponent_type: int = 3) -> tuple[np.ndarray, list[str]]:
    """(mul, labels) of the extraspecial 3-group, by a plain double loop.

    The constructor's earlier body, kept as the reference for its array form.
    """
    if exponent_type == 9:
        mul = np.zeros((27, 27), dtype=np.int64)
        for i1, j1, i2, j2 in itertools.product(range(9), range(3), range(9), range(3)):
            i = (i1 + i2 * pow(4, j1, 9)) % 9
            j = (j1 + j2) % 3
            mul[3 * i1 + j1, 3 * i2 + j2] = 3 * i + j
        labels = [_word([("x", i), ("y", j)]) for i in range(9) for j in range(3)]
        return mul, labels

    order = 3 ** (2 * n + 1)
    m = 3**n

    def decode(idx):
        idx, c = divmod(idx, 3)
        a, b = divmod(idx, m)
        return digits_of(a, 3, n), digits_of(b, 3, n), c

    def encode(a, b, c):
        return (index_of_digits(a, 3) * m + index_of_digits(b, 3)) * 3 + (c % 3)

    elems = [decode(i) for i in range(order)]
    mul = np.zeros((order, order), dtype=np.int64)
    for i, (a1, b1, c1) in enumerate(elems):
        for j, (a2, b2, c2) in enumerate(elems):
            a = tuple((u + v) % 3 for u, v in zip(a1, a2))
            b = tuple((u + v) % 3 for u, v in zip(b1, b2))
            c = (c1 + c2 + sum(u * v for u, v in zip(a1, b2))) % 3
            mul[i, j] = encode(a, b, c)

    labels = []
    for a, b, c in elems:
        t = (c - sum(u * v for u, v in zip(a, b))) % 3
        parts = [(f"x{k + 1}", a[k]) for k in range(n)]
        parts += [(f"y{k + 1}", b[k]) for k in range(n)]
        parts.append(("z", t))
        labels.append(_word(parts))
    return mul, labels


def loop_modular_maximal_cyclic(n: int) -> tuple[np.ndarray, list[str]]:
    """(mul, labels) of M_2(n), by a plain double loop over x^i sigma^j."""
    order = 2**n
    half = 2 ** (n - 1)
    twist = 2 ** (n - 2) + 1
    mul = np.zeros((order, order), dtype=np.int64)
    for i1, j1 in itertools.product(range(half), range(2)):
        for i2, j2 in itertools.product(range(half), range(2)):
            i = (i1 + i2 * (twist if j1 else 1)) % half
            j = (j1 + j2) % 2
            mul[2 * i1 + j1, 2 * i2 + j2] = 2 * i + j
    labels = [_word([("x", i), ("sigma", j)]) for i in range(half) for j in range(2)]
    return mul, labels


@pytest.fixture(scope="session")
def s3_table() -> GroupTable:
    return permutation_group_table(3)


@pytest.fixture(scope="session")
def s5_table() -> GroupTable:
    return permutation_group_table(5)


def pytest_terminal_summary(terminalreporter):
    """Print one verdict line per acceptance criterion, outside capture."""
    import sys

    results = getattr(sys.modules.get("test_acceptance"), "CRITERIA_RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, status, elapsed in sorted(results):
        terminalreporter.write_line(
            f"criterion {number:2d} {status:4s} {elapsed:7.2f}s  {title}")
