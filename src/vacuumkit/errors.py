"""Exception types shared across the library, and the scalar input checks
that raise them."""

import cmath
import math
import numbers


class DomainError(ValueError):
    """An input lies outside the physical or numerical domain of an operation."""


class SingularResonanceError(DomainError):
    """A lossless unit-reflectivity cavity was evaluated exactly on resonance.

    The radiation-pressure redistribution factor diverges there; perfect
    mirrors must be handled through the closed-form path instead.
    """


class ConvergenceError(RuntimeError):
    """A quadrature or summation failed to reach the requested accuracy."""


def _check_positive(name: str, value, *, allow_zero: bool = False) -> float:
    """value as a float, if it is a finite real number > 0, or >= 0 with
    ``allow_zero``; bools are refused, numpy real scalars accepted."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Real)
        and math.isfinite(value)
        and (value > 0.0 or (allow_zero and value == 0.0))
    ):
        raise DomainError(f"{name} must be finite and {'>=' if allow_zero else '>'} 0, got {value!r}")
    return float(value)


def _check_finite(name: str, value, **inputs):
    """value, a real or complex result of ``name``, if it is finite;
    DomainError naming the ``inputs`` where it has overflowed."""
    if not cmath.isfinite(value):
        args = ", ".join(f"{key}={arg!r}" for key, arg in inputs.items())
        raise DomainError(f"{name} is not finite at {args}: got {value!r}")
    return value


def _check_integer(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """value as an int, if it is an integer >= minimum (and <= maximum, when
    given); bools are refused, numpy integer scalars accepted."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral)
        and value >= minimum
        and (maximum is None or value <= maximum)
    ):
        bound = "" if maximum is None else f" and <= {maximum}"
        raise DomainError(f"{name} must be an integer >= {minimum}{bound}, got {value!r}")
    return int(value)
