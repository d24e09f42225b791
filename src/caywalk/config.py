"""Run configuration and artifact-wide numerical tolerances."""
from __future__ import annotations

from dataclasses import dataclass, replace

# Value-equality tolerance for character tables; orthogonality sums are
# compared at VALUE_TOL * |G|.
VALUE_TOL = 1e-8
# Acceptance threshold for the transfer criterion residual.
RESIDUAL_TOL = 1e-8
# The oracle certifies transfer when fidelity exceeds 1 - FIDELITY_GAP.
FIDELITY_GAP = 1e-7
# exp(tA) must be real and orthogonal to this accuracy.
UNITARITY_TOL = 1e-9
# Skew-symmetry required of adjacency input to the oracle.
SKEW_TOL = 1e-12
# Spectral reconstruction checks.
RECONSTRUCTION_TOL = 1e-9
# Rationality check: denominators up to MAX_DENOMINATOR, matched to RATIONAL_TOL.
MAX_DENOMINATOR = 10**4
RATIONAL_TOL = 1e-12
# Golden-section refinement tolerance for fidelity maxima.
SCAN_REFINE_TOL = 1e-10
SCAN_STEPS = 2000

DEFAULT_MAX_ORDER = 4096
# Oracle verification is skipped above this many vertices unless forced.
DEFAULT_ORACLE_MAX_ORDER = 200
DEFAULT_SEED = 42
# Numerical character tables are refused above this many classes.
MAX_TABLE_CLASSES = 128
TABLE_RETRIES = 8


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the engine, the oracle, and the CLI."""

    value_tol: float = VALUE_TOL
    residual_tol: float = RESIDUAL_TOL
    fidelity_gap: float = FIDELITY_GAP
    max_order: int = DEFAULT_MAX_ORDER
    oracle_max_order: int = DEFAULT_ORACLE_MAX_ORDER
    seed: int = DEFAULT_SEED

    def with_updates(self, **changes) -> "RunConfig":
        return replace(self, **changes)


DEFAULT_CONFIG = RunConfig()
