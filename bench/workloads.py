"""The benchmark's workloads: CLI commands run in order, one fresh interpreter each.

Every command carries the global ``--seed`` of the run; scan commands also
take their ``--source`` vertex from the seed. Groups are vertex-transitive, so
the work a command does does not depend on the seed.
"""
from __future__ import annotations

from dataclasses import dataclass

# caywalk's default RNG seed; the stored references were recorded with it.
REFERENCE_SEED = 42

T_MAX = "12.6"  # a little over 4*pi, the CLI's default scan window


@dataclass(frozen=True)
class Command:
    """One CLI invocation: the flags before the subcommand, then the rest."""

    args: tuple[str, ...]
    fmt: str = "json"
    global_args: tuple[str, ...] = ()
    scan_order: int | None = None  # group order, when the seed picks a source vertex

    def argv(self, seed: int) -> list[str]:
        out = ["--seed", str(seed), "--format", self.fmt, *self.global_args, *self.args]
        if self.scan_order is not None:
            out += ["--source", str(scan_source(seed, self.scan_order))]
        return out


def scan_source(seed: int, order: int) -> int:
    return seed % order


def _sweep(group: str, limit: int | None = None) -> Command:
    extra = ("--limit", str(limit)) if limit is not None else ()
    return Command(("sweep", "--group", group, *extra))


def _mst(group: str, classes: str, witnesses: bool) -> Command:
    extra = ("--witnesses",) if witnesses else ()
    return Command(("pst", "mst", "--group", group, "--classes", classes, *extra))


def _scan(group: str, classes: str, order: int, fmt: str = "json") -> Command:
    return Command(("pst", "oracle", "--group", group, "--classes", classes,
                    "--scan", "--t-max", T_MAX),
                   fmt=fmt, global_args=("--oracle-max-order", "1024"),
                   scan_order=order)


M2_7_CLASSES = "2,10,17,18,26,32,34,42,50,58"
ES3_2_CLASSES = "1,3,5,11,29"
Z3_6_CLASSES = "1,3,9,27,81,243"

# Why each workload exists, and which layers it loads:
# - sweep: 7,288 connection sets on four small tables (three closed-form, one
#   numerical for m2:5); nearly all time is the criterion's time search. The
#   oracle never runs.
# - certify: replay of the 14 fixtures, then one verdict on the largest member
#   of each family the caps admit; group construction, conjugacy, character
#   tables and the memory peak (z3^7) dominate.
# - scan: oracle fidelity scans up to order 729; dense eigh and 2,001-point
#   grids with golden-section refinement dominate, no character table is built.
WORKLOADS: dict[str, tuple[Command, ...]] = {
    "sweep": (
        _sweep("z4^2"),
        _sweep("z:13", 13),
        _sweep("z:17", 17),
        _sweep("m2:5", 32),
    ),
    "certify": (
        Command(("verify",)),
        _mst("extraspecial3:2", ES3_2_CLASSES, True),
        _mst("m2:7", M2_7_CLASSES, True),
        _mst("wreath:z:3:4", "5,11", True),
        _mst("z3^6", Z3_6_CLASSES, True),
        _mst("z4^5", "1,4,16,64,256", False),
        _mst("z3^7", "1,3,9,27,81,243,729", False),
    ),
    "scan": (
        _scan("m2:7", M2_7_CLASSES, 128),
        _scan("wreath:z:3:3", "3,6", 162),
        _scan("extraspecial3:2", ES3_2_CLASSES, 243),
        _scan("z3^6", Z3_6_CLASSES, 729),
        _scan("extraspecial3:2", ES3_2_CLASSES, 243, fmt="csv"),
    ),
}

# Index of each workload's cheapest command: the discarded warm-up of every
# run, and the smoke test.
SMALLEST = {"sweep": 0, "certify": 2, "scan": 0}

# Family members the caps admit but the benchmark leaves out, with the reason.
EXCLUDED = (
    {"group": "z4^6", "reason": "estimated peak RSS of several GB risks the OOM "
                                "killer on an 8 GB machine; never run"},
    {"group": "extraspecial3:3", "reason": "about 15 s to build, then the "
                                           "character table is refused at 731 classes"},
    {"group": "m2:8", "reason": "character table refused at 160 classes "
                                "(limit 128)"},
)
