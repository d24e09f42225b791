"""Independent oracles shared by the test suite.

Everything here recomputes facts from first principles (permutation
composition, brute-force orbit scans, Taylor-series matrix exponentials) so
library results are checked against a second, structurally different route.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from caywalk.groups import GroupTable, digits_of


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
