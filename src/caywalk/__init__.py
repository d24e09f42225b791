"""Continuous quantum walks on oriented normal Cayley graphs.

The package certifies perfect and multiple state transfer on such graphs two
independent ways: a character-theoretic criterion evaluated on exact or
numerically recovered character tables, and a matrix-exponential oracle
whose walk generator is read from the group table.
"""
from types import ModuleType as _ModuleType

from .cayley import (
    CayleyGraph,
    ConnectionStack,
    adjacency_to_csv,
    cayley_graph,
    check_orientation,
    enumerate_oriented_class_unions,
    graph_to_dot,
    is_connected,
)
from .characters import (
    CharacterTable,
    GaloisData,
    ImportedTable,
    abelian_character_table,
    character_table_for,
    character_table_numerical,
    character_table_to_json_str,
    export_character_table,
    galois_stabilizers,
    galois_stabilizers_imported,
    import_character_table,
    kernel,
    load_character_table,
    unit_closure,
    units_mod,
)
from .config import DEFAULT_CONFIG, RunConfig
from .engine import (
    CheckResult,
    MSTReport,
    NonexistenceWitness,
    PSTCertificate,
    RationalTime,
    SolvableReport,
    SolveOutcome,
    check_imported_claim,
    check_pst_at,
    check_pst_pair,
    check_transfer_classes,
    compute_S_e,
    connection_character_sums,
    nonexistence_witness,
    nonexistence_witness_classes,
    parse_time,
    solvable_exclusion_report,
    solve_pst_time,
    spectrum,
    spectrum_report,
    time_rationality_check,
    verdict_document,
)
from .errors import (
    CaywalkError,
    CorruptTableError,
    GroupValidationError,
    InconsistencyError,
    InvalidParameterError,
    InvariantBreachError,
    NumericalFailureError,
    OrientationError,
    SchemaError,
    SizeLimitError,
    VerificationFailure,
)
from .families import (
    DualReport,
    FamilyCertificate,
    dual_verify,
    family_extraspecial3,
    family_m2,
    family_z3n,
    family_z4n,
    fixture_to_certificate,
    load_fixture_certificates,
    m2_remark_probe,
    shipped_certificates,
    undirected_cycle4_certificate,
    wreath_lift,
    z8_certificate,
)
from .groups import (
    ConjugacyData,
    GroupSpec,
    GroupTable,
    WreathElement,
    WreathIndexing,
    build_abelian_power,
    build_cyclic,
    build_extraspecial3,
    build_group,
    build_modular_maximal_cyclic,
    build_wreath_sym,
    conjugacy,
    cycle_product,
    derived_series_solvable,
    group_from_json,
    group_to_json_str,
    load_group,
    parse_group_spec,
    permutation_cycles,
    save_group,
    subgroup_closure,
)
from .oracle import (
    PermutationReport,
    ScanHit,
    WalkOperator,
    build_hermitian_operator,
    build_operator,
    evolve,
    evolve_column,
    fidelity,
    fidelity_series_csv,
    permutation_check,
    scan_pst,
)

__version__ = "0.1.0"

# The re-exported names, without the submodules the imports above bind.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
