"""caywalk benchmark: drive the caywalk CLI from outside and report metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {sweep,certify,scan} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --record    # rewrite bench/reference/ from the current program

A run is a closed loop with one client. The workload's commands (see
workloads.py) run in order, one at a time, each in a fresh interpreter as a
CLI user runs them, so no cache carries from one command to the next. One
untimed warm-up command comes first. Passes over the command list repeat
until a command would overrun --seconds; the last pass runs only the
commands that still fit. The BLAS thread count is left at its default.

With --trace 0 the last line of stdout reports the end-to-end metrics:

    setup_s      median over the run's commands of the time from spawning the
                 interpreter until caywalk.cli is imported
    wall_s       sum over the workload's commands of each command's median
                 time after import, over the run's untraced passes
    peak_rss_mb  highest ru_maxrss of any command

With --trace 1, untraced and traced passes alternate, and the line reports
the per-layer metrics of tracer.py (medians over traced passes) plus
trace.overhead_ratio, traced over untraced wall_s. Every command's output is
checked against bench/reference/; a command with a wrong exit code or output
counts in "failed". Details of the last run go to .bench_run/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_output
from tracer import HIGHER_IS_BETTER, UNITS, layer_metrics
from workloads import EXCLUDED, REFERENCE_SEED, SMALLEST, WORKLOADS, scan_source

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run"
REFERENCES = BENCH / "reference"
COMMAND_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(argv: list[str], traced: bool) -> dict:
    """Run one CLI command in a fresh interpreter; return its measurements."""
    record_path = WORK / f"record-{os.getpid()}.json"
    record_path.unlink(missing_ok=True)
    mode = "trace" if traced else "plain"
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "launch.py"), str(record_path), mode, *argv],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rc": None, "stdout": "", "stderr": f"timed out after {COMMAND_TIMEOUT_S} s"}
    out = {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    try:
        record = json.loads(record_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return out
    finally:
        record_path.unlink(missing_ok=True)
    out.update(setup=record["t_import"] - t_spawn,
               wall=record["t_end"] - record["t_start"],
               rss_mb=record["maxrss_kb"] / 1024.0, cpu_s=record["cpu_s"],
               spans=record.get("spans"), counts=record.get("counts"))
    return out


def load_references(workload: str) -> list[dict]:
    doc = json.loads((REFERENCES / f"{workload}.json").read_text(encoding="utf-8"))
    refs = doc["commands"]
    expected = [cmd.argv(REFERENCE_SEED) for cmd in WORKLOADS[workload]]
    if [r["argv"] for r in refs] != expected:
        raise SystemExit(f"error: {workload} references do not match its commands; "
                         f"re-record them with --record")
    return refs


def run_command(workload: str, index: int, seed: int, refs: list[dict],
                traced: bool) -> dict:
    cmd = WORKLOADS[workload][index]
    result = spawn(cmd.argv(seed), traced)
    result["command"] = index
    if result["rc"] != 0:
        tail = result["stderr"].strip().splitlines()[-1:] or [""]
        result["errors"] = [f"exit code {result['rc']}: {tail[0]}"]
    elif "wall" not in result:
        result["errors"] = ["the launcher wrote no timing record"]
    else:
        source = scan_source(seed, cmd.scan_order) if cmd.scan_order else None
        result["errors"] = check_output(result["stdout"], refs[index], cmd.fmt, source)
    result["stdout_bytes"] = len(result.pop("stdout").encode("utf-8"))
    result.pop("stderr")
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    refs = load_references(workload)
    count = len(WORKLOADS[workload])
    run_command(workload, SMALLEST[workload], seed, refs, False)  # warm-up, discarded
    passes: list[dict] = []
    cost = [0.0] * count  # seconds each command last took, spawn included
    t0 = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        results = []
        for i in range(count):
            # The first pass of each kind always completes; after that a
            # command runs only if it should end within --seconds.
            if (len(passes) >= (2 if trace else 1)
                    and time.perf_counter() - t0 + cost[i] > seconds):
                continue
            t = time.perf_counter()
            results.append(run_command(workload, i, seed, refs, traced))
            cost[i] = time.perf_counter() - t
        if results:
            passes.append({"traced": traced, "commands": results})
        if len(results) < count:
            return passes


def pass_wall(p: dict) -> float:
    return sum(r.get("wall", 0.0) for r in p["commands"])


def median_wall(passes: list[dict]) -> float:
    """Sum over commands of each command's median wall time in these passes."""
    samples: dict[int, list[float]] = {}
    for p in passes:
        for r in p["commands"]:
            samples.setdefault(r["command"], []).append(r.get("wall", 0.0))
    return sum(statistics.median(v) for v in samples.values())


def summarize(passes: list[dict], trace: bool) -> tuple[dict, dict, list[str]]:
    """(metrics, details, problems) of one run."""
    commands = [r for p in passes for r in p["commands"]]
    problems = [f"command {r['command']}: {e}" for r in commands for e in r["errors"]]
    count = len(passes[0]["commands"])  # the first pass always completes
    plain = [p for p in passes if not p["traced"]]
    walls = [pass_wall(p) for p in plain if len(p["commands"]) == count]
    details = {
        "passes": len(passes),
        "wall_s_quartiles": quartiles(walls),
        "wall_s_samples": len(walls),
        "samples_per_command": [sum(1 for p in plain for r in p["commands"] if r["command"] == i)
                                for i in range(count)],
        "cpu_s_per_pass": [sum(r.get("cpu_s", 0.0) for r in p["commands"])
                           for p in plain if len(p["commands"]) == count],
        "failed_ratio": sum(1 for r in commands if r["errors"]) / len(commands),
    }
    if not trace:
        measured = [r for r in commands if "wall" in r]
        metrics = {
            "setup_s": (statistics.median(r["setup"] for r in measured), "s"),
            "wall_s": (median_wall(plain), "s"),
            "peak_rss_mb": (max(r["rss_mb"] for r in measured), "MB"),
        }
        return metrics, details, problems

    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        if len(p["commands"]) < count:
            continue
        m = layer_metrics([r for r in p["commands"] if "wall" in r])
        accounted = sum(v for k, v in m.items() if k.endswith("_s") and k != "oracle.eigh_first_s")
        if abs(accounted - pass_wall(p)) > 1e-6 + 1e-9 * pass_wall(p):
            problems.append(f"layer self times sum to {accounted} s, pass wall {pass_wall(p)} s")
        per_pass.append(m)
    metrics = {name: (statistics.median(m[name] for m in per_pass), UNITS[name])
               for name in per_pass[0]}
    overhead = median_wall(traced) / median_wall(plain)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    details["per_command"] = [
        {"command": r["command"], "wall_s": r.get("wall"),
         "layers_s": layer_totals(layer_metrics([r]))} for r in traced[0]["commands"] if "wall" in r]
    details["spans"] = [[r["command"], *s] for r in traced[0]["commands"] for s in r.get("spans") or []]
    return metrics, details, problems


def layer_totals(m: dict) -> dict:
    totals: dict[str, float] = {}
    for name, value in m.items():
        if name.endswith("_s") and name != "oracle.eigh_first_s":
            layer = name.split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + value
    return totals


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_build = "unknown"
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_build,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg": os.getloadavg(),
        "excluded": EXCLUDED,
    }


def record_references() -> int:
    """Run every command once at the reference seed and store its output."""
    REFERENCES.mkdir(exist_ok=True)
    for workload, commands in WORKLOADS.items():
        entries = []
        for cmd in commands:
            argv = cmd.argv(REFERENCE_SEED)
            proc = subprocess.run([sys.executable, "-m", "caywalk.cli", *argv], cwd=ROOT,
                                  env=child_env(), capture_output=True, text=True,
                                  timeout=COMMAND_TIMEOUT_S)
            if proc.returncode != 0:
                print(f"error: {argv} exited {proc.returncode}: {proc.stderr}", file=sys.stderr)
                return 1
            stdout = proc.stdout if cmd.fmt == "csv" else json.loads(proc.stdout)
            source = scan_source(REFERENCE_SEED, cmd.scan_order) if cmd.scan_order else None
            entries.append({"argv": argv, "source": source, "stdout": stdout})
        path = REFERENCES / f"{workload}.json"
        path.write_text(json.dumps({"seed": REFERENCE_SEED, "commands": entries},
                                   indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the stored reference outputs and exit")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "caywalk" / "cli.py").is_file():
        print(f"error: no caywalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.record:
        return record_references()

    env = environment()
    passes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted = sum(len(p["commands"]) for p in passes)
    failed = sum(1 for p in passes for r in p["commands"] if r["errors"])
    if not all(any("wall" in r for r in p["commands"]) for p in passes):
        print("error: a pass had no command that finished with a timing record",
              file=sys.stderr)
        return 1
    metrics, details, problems = summarize(passes, bool(args.trace))

    (WORK / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": env, "metrics": metrics, "problems": problems,
        "details": details, "passes": [
            [{k: v for k, v in r.items() if k not in ("spans", "counts")}
             for r in p["commands"]] for p in passes],
    }), encoding="utf-8")

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("environment: " + json.dumps(env, sort_keys=True))
    q1, q2, q3 = details["wall_s_quartiles"]
    print(f"{args.workload}: {details['passes']} passes, {attempted} commands, "
          f"untraced samples per command {details['samples_per_command']}, "
          f"pass wall q1/median/q3 {q1:.4f}/{q2:.4f}/{q3:.4f} s over "
          f"{details['wall_s_samples']} complete untraced passes")
    for name, (value, unit) in metrics.items():
        better = "higher" if name in HIGHER_IS_BETTER else "lower"
        print(f"  {name:28s} {value:14.6f} {unit:6s} ({better} is better)")
    print(f"  {'failed_ratio':28s} {details['failed_ratio']:14.6f} {'1':6s} "
          f"(lower is better; failed / attempted in the result line)")
    print(f"  {'cpu_s':28s} {statistics.median(details['cpu_s_per_pass']):14.6f} "
          f"{'s':6s} (diagnostic: median user + sys per untraced pass)")
    for row in details.get("per_command", []):
        layers = " ".join(f"{k}={v:.3f}" for k, v in row["layers_s"].items() if v)
        print(f"  command {row['command']}: wall {row['wall_s']:.3f} s = {layers}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
