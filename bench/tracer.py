"""Spans around caywalk's public functions, installed from outside the package.

``install`` wraps the functions in ``SPANS`` and rebinds every caywalk module
namespace that holds them, since ``cli`` and ``families`` import names such as
``compute_S_e`` directly. Spans stay in memory as ``[name, start, end,
parent]`` and the launcher writes them out when its command ends. The tracer
assumes one thread, which holds for every workload (verify runs with its
default of one worker).
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, function, span name). Each span name is one layer metric; its
# self time is the span's duration minus the time of the spans inside it.
SPANS = (
    ("groups", "build_cyclic", "groups.build"),
    ("groups", "build_abelian_power", "groups.build"),
    ("groups", "build_extraspecial3", "groups.build"),
    ("groups", "build_modular_maximal_cyclic", "groups.build"),
    ("groups", "build_wreath_sym", "groups.build"),
    ("groups", "conjugacy", "groups.conjugacy"),
    ("groups", "subgroup_closure", "groups.closure"),
    ("characters", "character_table_for", "characters.table"),
    ("characters", "galois_stabilizers", "characters.galois"),
    ("cayley", "adjacency_matrix", "cayley.adjacency"),
    ("cayley", "is_connected", "cayley.connected"),
    ("engine", "compute_S_e", "engine.mst"),
    ("engine", "solve_pst_time", "engine.solve"),
    ("engine", "nonexistence_witness", "engine.witness"),
    # build_operator is the eigendecomposition plus its reconstruction check.
    ("oracle", "build_operator", "oracle.eigh"),
    ("oracle", "build_hermitian_operator", "oracle.eigh"),
    ("oracle", "evolve", "oracle.evolve"),
    ("oracle", "evolve_column", "oracle.evolve"),
    ("oracle", "permutation_check", "oracle.perm"),
    ("oracle", "scan_pst", "oracle.scan"),
    ("oracle", "fidelity_series_csv", "oracle.scan"),
    ("families", "load_fixture_certificates", "families.load"),
    ("families", "dual_verify", "families.dual_verify"),
)
ENUMERATE = ("cayley", "enumerate_oriented_class_unions", "cayley.enumerate")

SPAN_NAMES = tuple(dict.fromkeys([name for _, _, name in SPANS] + [ENUMERATE[2]]))


class Tracer:
    """Span and counter store for one command."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result
        return wrapper

    def span_each_next(self, name: str, fn, count: str):
        """Wrap a generator function so that every next() is one span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counts[count] += 1
                yield item
        return wrapper

    def counter(self, fn, on_call):
        """Count calls without a span, for helpers too small to time."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            on_call(args, kwargs)
            return fn(*args, **kwargs)
        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the traced functions and rebind them in every caywalk module."""
    pkg = "caywalk"
    replace = {}  # id(original) -> (original, wrapper)

    def home(module: str, name: str):
        return getattr(sys.modules[f"{pkg}.{module}"], name)

    def bump(key: str):
        def on(*_):
            tracer.counts[key] += 1
        return on

    for module, name, span_name in SPANS:
        fn = home(module, name)
        hook = None
        if name == "solve_pst_time":
            def hook(result, *_):
                if result.certificate is not None:
                    tracer.counts["engine.solve_hits"] += 1
        replace[id(fn)] = (fn, tracer.span(span_name, fn, hook))

    module, name, span_name = ENUMERATE
    fn = home(module, name)
    replace[id(fn)] = (fn, tracer.span_each_next(span_name, fn, "cayley.conn_sets"))

    fn = home("characters", "character_table_numerical")
    replace[id(fn)] = (fn, tracer.counter(fn, bump("characters.numerical_tables")))

    def verdict(args, kwargs):
        fidelity = kwargs["oracle_fidelity"] if "oracle_fidelity" in kwargs else args[2]
        if fidelity is not None:
            tracer.counts["oracle.checked_verdicts"] += 1
    fn = home("engine", "verdict_document")
    replace[id(fn)] = (fn, tracer.counter(fn, verdict))

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == pkg or mod_name.startswith(pkg + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            original, wrapper = replace.get(id(value), (None, None))
            if original is value:
                setattr(mod, attr, wrapper)


def self_times(spans) -> tuple[dict[str, float], float, float | None]:
    """Self time per span name, total time of top-level spans, first eigh time.

    A span's self time is its duration minus the part of its interval that
    its direct children cover.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            covered[parent] += max(0.0, min(end, p_end) - max(start, p_start))
    selfs: dict[str, float] = {}
    top = 0.0
    first_eigh = None
    for (name, start, end, parent), inner in zip(spans, covered):
        selfs[name] = selfs.get(name, 0.0) + (end - start) - inner
        if parent < 0:
            top += end - start
        if first_eigh is None and name == "oracle.eigh":
            first_eigh = end - start
    return selfs, top, first_eigh


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(records) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its commands' records.

    Each record holds ``wall`` (command time after import), ``spans``,
    ``counts`` and ``stdout_bytes``. The ``_s`` metrics other than
    ``oracle.eigh_first_s`` add up, with ``cli.self_s``, to the summed wall.
    ``oracle.eigh_first_s`` is the pass's first eigendecomposition, where the
    roughly 1 s stall of threaded LAPACK after an idle spell would show.
    """
    selfs = dict.fromkeys(SPAN_NAMES, 0.0)
    calls: Counter = Counter()
    counts: Counter = Counter()
    cli_self = 0.0
    stdout_bytes = 0
    first_eigh = None
    for rec in records:
        own, top, first = self_times(rec["spans"])
        for name, value in own.items():
            selfs[name] += value
        calls.update(span[0] for span in rec["spans"])
        counts.update(rec["counts"])
        cli_self += rec["wall"] - top
        stdout_bytes += rec["stdout_bytes"]
        if first is not None and first_eigh is None:
            first_eigh = first
    m = {
        "groups.build_s": selfs["groups.build"],
        "groups.build_calls": calls["groups.build"],
        "groups.conjugacy_s": selfs["groups.conjugacy"],
        "groups.closure_s": selfs["groups.closure"],
        "characters.table_s": selfs["characters.table"],
        "characters.tables": calls["characters.table"],
        "characters.numerical_tables": counts["characters.numerical_tables"],
        "characters.galois_s": selfs["characters.galois"],
        "cayley.enumerate_s": selfs["cayley.enumerate"],
        "cayley.conn_sets": counts["cayley.conn_sets"],
        "cayley.adjacency_s": selfs["cayley.adjacency"],
        "cayley.connected_s": selfs["cayley.connected"],
        "engine.mst_s": selfs["engine.mst"],
        "engine.mst_calls": calls["engine.mst"],
        "engine.solve_s": selfs["engine.solve"],
        "engine.solve_calls": calls["engine.solve"],
        "engine.solve_hit_ratio": _ratio(counts["engine.solve_hits"], calls["engine.solve"]),
        "engine.witness_s": selfs["engine.witness"],
        "engine.witness_calls": calls["engine.witness"],
        "oracle.eigh_s": selfs["oracle.eigh"],
        "oracle.eigh_calls": calls["oracle.eigh"],
        "oracle.eigh_first_s": first_eigh or 0.0,
        "oracle.evolve_s": selfs["oracle.evolve"],
        "oracle.evolve_calls": calls["oracle.evolve"],
        "oracle.perm_s": selfs["oracle.perm"],
        "oracle.scan_s": selfs["oracle.scan"],
        "oracle.checked_ratio": _ratio(counts["oracle.checked_verdicts"], calls["engine.mst"]),
        "families.load_s": selfs["families.load"],
        "families.dual_verify_s": selfs["families.dual_verify"],
        "cli.self_s": cli_self,
        "cli.stdout_bytes": stdout_bytes,
    }
    return m


# Units and directions of the metrics layer_metrics returns, plus the ratio
# of traced to untraced wall time that the runner adds.
UNITS = {name: ("s" if name.endswith("_s") else
                "ratio" if name.endswith("_ratio") else
                "bytes" if name.endswith("_bytes") else "count")
         for name in layer_metrics([])}
UNITS["trace.overhead_ratio"] = "ratio"
HIGHER_IS_BETTER = {"engine.solve_hit_ratio", "oracle.checked_ratio"}
