"""Exception hierarchy shared across the package."""
from __future__ import annotations


class CaywalkError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(CaywalkError):
    """A caller supplied an argument outside an operation's domain."""


class SizeLimitError(CaywalkError):
    """A requested object exceeds a configured size cap."""


class GroupValidationError(CaywalkError):
    """A multiplication table fails the group axioms."""


class SchemaError(InvalidParameterError):
    """A JSON document does not match the expected shape."""


def require_keys(doc, keys, where: str) -> None:
    """Raise SchemaError unless doc is a dict holding every one of keys."""
    missing = [key for key in keys if not isinstance(doc, dict) or key not in doc]
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}")


def check_fields(where: str, checks) -> None:
    """Raise SchemaError for the first (ok, what) pair of checks that fails."""
    for ok, what in checks:
        if not ok:
            raise SchemaError(f"{where}: {what}")


class OrientationError(InvalidParameterError):
    """A class selection cannot form an oriented connection set.

    Carries one (rule, classes) entry per violation so callers can report
    every offending class, not just the first.
    """

    RULE_IDENTITY = "identity-class"
    RULE_REAL = "real-class"
    RULE_INVERSE_PAIR = "inverse-pair"

    def __init__(self, violations: list[tuple[str, tuple[int, ...]]]):
        self.violations = violations
        parts = [f"{rule}: classes {list(cls)}" for rule, cls in violations]
        super().__init__("; ".join(parts))


class CorruptTableError(CaywalkError):
    """An imported character table fails its internal consistency checks."""


class NumericalFailureError(CaywalkError):
    """A numerical routine could not reach the required accuracy."""


class InconsistencyError(CaywalkError):
    """Data passed together (group / table / graph) do not describe the same object."""


class InvariantBreachError(CaywalkError):
    """A structural property that must hold for every result was violated.

    Raised instead of silently repairing the result, so a breach is always
    visible to the caller.
    """


class VerificationFailure(CaywalkError):
    """A certificate failed dual verification."""
