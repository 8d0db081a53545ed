"""Exception types shared across the package, and the finiteness check.

Everything derives from :class:`SembitError` so callers can catch one base
class at CLI or sweep level and map it to an exit code or an infeasibility
counter.  Malformed input raises ValueError, which the CLI maps to exit 2;
the package's own input errors (too few or degenerate samples, a link
shorter than the reference distance) are ValueErrors too, so none of them
reaches the CLI's exit 1 for an internal error.
"""

from __future__ import annotations

import math
import numbers
from typing import Mapping


def require_finite(obj, *fields: str) -> None:
    """Raise ValueError unless each named attribute of ``obj`` is a finite number."""
    for name in fields:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def require_float(name: str, value) -> float:
    """``value`` as a float; ValueError for a bool, a string, a non-number or an integer too large.

    JSON ``true`` and ``"2"`` are not numbers, though ``float()`` takes them.
    """
    if not isinstance(value, (bool, str)):
        try:
            return float(value)
        except TypeError:
            pass
        except OverflowError:
            digits = len(str(abs(value)))
            raise ValueError(f"{name} is too large for a float: {digits} digits") from None
    raise ValueError(f"{name} must be a number, got {value!r}")


def require_int(name: str, value) -> int:
    """``value`` as an int; ValueError for a bool, a non-number or a fractional number.

    An integral float such as 4.0 passes, so JSON written as 4.0 still reads.
    """
    integral = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def reject_unknown(kind: str, payload, known) -> None:
    """Raise ValueError unless ``payload`` is a mapping whose keys are all in ``known``.

    The message names the payload's type or every unknown key.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"{kind} must be an object, got {payload!r}")
    unknown = set(payload) - set(known)
    if unknown:
        raise ValueError(f"unknown {kind} fields: {sorted(unknown)}")


def require_keys(kind: str, payload: Mapping, keys) -> None:
    """Raise ValueError naming each of ``keys`` that the mapping ``payload`` lacks."""
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ValueError(f"{kind} is missing {', '.join(map(repr, missing))}")


class SembitError(Exception):
    """Base class for all package-specific errors."""


class TargetBelowFloor(SembitError):
    """Similarity target at or below the lower asymptote: any SNR suffices."""


class TargetUnreachable(SembitError):
    """Similarity target at or above the upper asymptote: no finite SNR works."""


class InsufficientData(SembitError, ValueError):
    """Too few samples (or too few distinct SNR abscissae) to fit a curve."""


class DegenerateData(SembitError, ValueError):
    """All similarity samples equal: the S-curve parameters are unidentifiable."""


class DistanceBelowReference(SembitError, ValueError):
    """Link distance below the 1 m reference of the path-loss model."""


class InfeasibleTarget(SembitError):
    """Requested semantic rate needs more bandwidth than the carrier has."""


class EmptyRegion(SembitError):
    """The requested rate region contains no point (power-limited overlay)."""


class DomainMismatch(SembitError):
    """Two boundaries share no overlapping semantic-rate range."""


class Infeasible(SembitError):
    """A power-minimisation target set that no allocation can meet.

    Attributes:
        cause: one of "bandwidth-bound", "rate-asymptote",
            "similarity-asymptote" identifying the binding obstruction.
    """

    def __init__(self, message: str, cause: str):
        super().__init__(message)
        self.cause = cause
