"""Tests of the benchmark itself: span arithmetic, output checks, a smoke pass.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""
import copy
import json

import pytest

import run
from check import check_output
from tracer import Tracer, layer_metrics, self_times
from workloads import REFERENCE_SEED, SMALLEST, WORKLOADS

# root [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]; e [11, 12]
# is a second top-level span.
NESTED = [
    ["families.dual_verify", 0.0, 10.0, -1],
    ["engine.mst", 1.0, 4.0, 0],
    ["engine.solve", 2.0, 3.0, 1],
    ["oracle.eigh", 5.0, 9.0, 0],
    ["oracle.eigh", 11.0, 12.0, -1],
]


def test_self_times_subtract_direct_children():
    selfs, top, first_eigh = self_times(NESTED)
    assert selfs == {"families.dual_verify": 3.0, "engine.mst": 2.0,
                     "engine.solve": 1.0, "oracle.eigh": 5.0}
    assert top == 11.0
    assert first_eigh == 4.0


def test_layer_self_times_and_cli_self_add_up_to_the_wall():
    m = layer_metrics([{"wall": 13.0, "spans": NESTED, "counts": {}, "stdout_bytes": 7}])
    assert m["cli.self_s"] == 2.0
    assert m["oracle.eigh_calls"] == 2 and m["oracle.eigh_first_s"] == 4.0
    assert sum(v for k, v in m.items()
               if k.endswith("_s") and k != "oracle.eigh_first_s") == 13.0


def test_tracer_records_parents_and_each_next():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def items():
        yield from "ab"

    def solve(x):
        return x

    solve = tracer.span("engine.solve", solve)
    enumerate_ = tracer.span_each_next("cayley.enumerate", items, "cayley.conn_sets")
    outer = tracer.span("engine.mst", lambda: [solve(x) for x in enumerate_()])
    assert outer() == ["a", "b"]
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("engine.mst", -1), ("cayley.enumerate", 0), ("engine.solve", 0),
                     ("cayley.enumerate", 0), ("engine.solve", 0), ("cayley.enumerate", 0)]
    assert tracer.counts["cayley.conn_sets"] == 2
    assert all(end > start for _, start, end, _ in tracer.spans)


def _reference(workload, index):
    return json.loads((run.REFERENCES / f"{workload}.json").read_text())["commands"][index]


def _doctored(workload, index, edit):
    ref = _reference(workload, index)
    doc = copy.deepcopy(ref["stdout"])
    edit(doc)
    fmt = WORKLOADS[workload][index].fmt
    text = doc if fmt == "csv" else json.dumps(doc)
    return check_output(text, ref, fmt, ref["source"])


@pytest.mark.parametrize("workload, index", [(w, i) for w, cmds in WORKLOADS.items()
                                             for i in range(len(cmds))])
def test_references_pass_their_own_check(workload, index):
    assert _doctored(workload, index, lambda doc: None) == []


@pytest.mark.parametrize("edit", [
    lambda d: d.update(S_e=[0, 1]),
    lambda d: d.update(size=5),
    lambda d: d.update(tau=d["tau"] + 1e-6),
    lambda d: d["tau_rational"].update(ok=False),
    lambda d: d.update(oracle_fidelity=0.99),
    lambda d: d.update(witnesses=[{"z": 5, "characters": [1]}]),
])
def test_checker_rejects_a_doctored_verdict(edit):
    assert _doctored("certify", 2, edit)


def test_checker_accepts_last_bit_changes_of_tau():
    assert _doctored("certify", 2, lambda d: d.update(tau=d["tau"] * (1 + 1e-15))) == []


def test_checker_rejects_doctored_sweep_verify_and_scan():
    assert _doctored("sweep", 0, lambda d: d["histogram"].update({"1": 0}))
    assert _doctored("sweep", 3, lambda d: d["certificates"][0].update(size=5))
    assert _doctored("certify", 0, lambda d: d["certificates"][0]["verdict"].update(size=5))
    assert _doctored("certify", 0, lambda d: d["certificates"][3].update(ok=False))
    assert _doctored("scan", 0, lambda d: d["hits"].pop())
    assert _doctored("scan", 0, lambda d: d["hits"][0].update(time=d["hits"][0]["time"] + 1e-3))
    ref_csv = _reference("scan", 4)["stdout"]
    line = ref_csv.splitlines()[5]
    t, fid, target = line.split(",")
    bad = ref_csv.replace(line, f"{t},{float(fid) - 1e-6:.12g},{target}")
    assert check_output(bad, _reference("scan", 4), "csv", _reference("scan", 4)["source"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed, traced", [(REFERENCE_SEED, False), (7, True)])
def test_smoke_smallest_command(workload, seed, traced):
    run.WORK.mkdir(exist_ok=True)
    refs = run.load_references(workload)
    result = run.run_command(workload, SMALLEST[workload], seed, refs, traced)
    assert result["errors"] == []
    assert 0 < result["setup"] < 30 and 0 < result["wall"] < 60
    if traced:
        m = layer_metrics([result])
        total = sum(v for k, v in m.items() if k.endswith("_s") and k != "oracle.eigh_first_s")
        assert total == pytest.approx(result["wall"], abs=1e-6)
        assert m["cli.self_s"] >= 0
