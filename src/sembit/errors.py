"""Exception types shared across the package, and the finiteness check.

Everything derives from :class:`SembitError` so callers can catch one base
class at CLI or sweep level and map it to an exit code or an infeasibility
counter.  Malformed input raises ValueError, which the CLI maps to exit 2.
"""

from __future__ import annotations

import math


def require_finite(obj, *fields: str) -> None:
    """Raise ValueError unless each named attribute of ``obj`` is a finite number."""
    for name in fields:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


class SembitError(Exception):
    """Base class for all package-specific errors."""


class TargetBelowFloor(SembitError):
    """Similarity target at or below the lower asymptote: any SNR suffices."""


class TargetUnreachable(SembitError):
    """Similarity target at or above the upper asymptote: no finite SNR works."""


class InsufficientData(SembitError):
    """Too few samples (or too few distinct SNR abscissae) to fit a curve."""


class DegenerateData(SembitError):
    """All similarity samples equal: the S-curve parameters are unidentifiable."""


class DistanceBelowReference(SembitError):
    """Link distance below the 1 m reference of the path-loss model."""


class InfeasibleTarget(SembitError):
    """Requested semantic rate needs more bandwidth than the carrier has."""


class EmptyRegion(SembitError):
    """The requested rate region contains no point (power-limited overlay)."""


class DomainMismatch(SembitError):
    """Two boundaries share no overlapping semantic-rate range."""


class InfeasibleBandwidth(SembitError):
    """A positive bit-rate target with zero bandwidth available to carry it."""


class Infeasible(SembitError):
    """A power-minimisation target set that no allocation can meet.

    Attributes:
        cause: one of "bandwidth-bound", "rate-asymptote",
            "similarity-asymptote" identifying the binding obstruction.
    """

    def __init__(self, message: str, cause: str):
        super().__init__(message)
        self.cause = cause
