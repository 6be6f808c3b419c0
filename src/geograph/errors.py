"""Exception types shared across the package, and the check that a setting is finite."""

import math


class GeographError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(GeographError):
    """Operand dimensions are incompatible."""


class StateError(GeographError):
    """Operation invoked in an invalid order, e.g. backward with no recorded graph."""


class NumericError(GeographError):
    """Non-finite values or rank deficiencies encountered during computation."""


class ArgumentError(GeographError):
    """A parameter value is outside its documented range."""


class DataFormatError(GeographError):
    """An input data file is malformed. Messages carry the offending line number."""


def finite(name: str, value: float) -> float:
    """``value``, unless it is infinite: that raises ``ArgumentError`` naming
    ``name``. NaN passes, for the range check that reads the result."""
    if math.isinf(value):
        raise ArgumentError(f"{name} must be finite, got {value}")
    return value
