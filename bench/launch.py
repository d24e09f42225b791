"""Run one caywalk CLI command in this fresh interpreter and record its timings.

Usage: python3 launch.py RECORD.json {plain,trace} CLI-ARGS...

The record holds ``t_import`` (perf_counter once ``caywalk.cli`` is
imported), the command's start and end times, its exit code, the process's
peak RSS and CPU time, and, when traced, its spans and counters. On Linux
perf_counter reads CLOCK_MONOTONIC, so the parent can subtract its own spawn
time from ``t_import``.
"""
import sys
import time


def main() -> int:
    record_path, mode, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import caywalk.cli
    t_import = time.perf_counter()

    import json
    import resource

    tracer = None
    if mode == "trace":
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    rc = 1
    t_start = time.perf_counter()
    try:
        rc = caywalk.cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        t_end = time.perf_counter()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        record = {
            "t_import": t_import, "t_start": t_start, "t_end": t_end, "rc": rc,
            "maxrss_kb": usage.ru_maxrss, "cpu_s": usage.ru_utime + usage.ru_stime,
        }
        if tracer is not None:
            record["spans"] = tracer.spans
            record["counts"] = dict(tracer.counts)
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
