"""Run configuration and artifact-wide numerical tolerances."""
from __future__ import annotations

from dataclasses import dataclass, replace

# Value-equality tolerance for character tables, and the acceptance threshold
# of the transfer criterion's residual; orthogonality sums are compared at
# VALUE_TOL * |G|.
VALUE_TOL = 1e-8
# The oracle certifies transfer when fidelity exceeds 1 - FIDELITY_GAP.
FIDELITY_GAP = 1e-7
# exp(tA) must be real and orthogonal to this accuracy.
UNITARITY_TOL = 1e-9
# Spectral reconstruction checks.
RECONSTRUCTION_TOL = 1e-9
# Rationality check: denominators up to MAX_DENOMINATOR, matched to RATIONAL_TOL.
MAX_DENOMINATOR = 10**4
RATIONAL_TOL = 1e-12
# exp(tA) is a permutation matrix when every entry is within this of 0 or 1.
PERMUTATION_TOL = 1e-8
# Fidelity scans: the csv grid's steps (a JSON scan derives its own from the
# walk's degree, oracle.scan_pst), the fidelity a grid maximum must reach, and
# the Newton step below which the refined time of a maximum counts as settled.
SCAN_STEPS = 2000
SCAN_THRESHOLD = 0.999
SCAN_REFINE_TOL = 1e-10

DEFAULT_MAX_ORDER = 4096
# graph --format csv writes a dense n x n matrix: refused above this many
# vertices (z4^6, 4,096: 33.6 MB of text at a 255 MB peak RSS).
MAX_CSV_VERTICES = 4096
# A sweep keeps a certificate per transferring set: refused above this many
# connection sets (the full z3^3 sweep has 797,161).
MAX_SWEEP_SETS = 2**20
# Oracle verification is skipped above this many vertices unless forced.
DEFAULT_ORACLE_MAX_ORDER = 200
DEFAULT_SEED = 42
# A seed keys a 64-bit SplitMix64 stream, so it lies in 0..SEED_BOUND - 1.
SEED_BOUND = 1 << 64
# Numerical character tables are refused above this many classes (m2:12 has 2,560).
MAX_TABLE_CLASSES = 2560
# A closed form that would store more bytes than this is refused; es3:4 stores
# 0.9 MB and m2:16, the largest admissible, 1.6 MB.
MAX_FORM_BYTES = 2**24
TABLE_RETRIES = 8


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the engine, the oracle, and the CLI."""

    max_order: int = DEFAULT_MAX_ORDER
    oracle_max_order: int = DEFAULT_ORACLE_MAX_ORDER
    seed: int = DEFAULT_SEED

    def with_updates(self, **changes) -> "RunConfig":
        return replace(self, **changes)


DEFAULT_CONFIG = RunConfig()
