"""Exception types shared across the package, and the checks on numeric settings."""

import math
import numbers
import operator


class XlcError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(XlcError):
    """Operands have incompatible shapes. The message carries both shapes."""


class NonNegativityError(XlcError):
    """A value violates a non-negativity requirement."""


class ConfigError(XlcError):
    """A configuration value is out of its legal range."""


class TrainingDivergedError(XlcError):
    """Loss became non-finite during iterative training."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class DatasetFormatError(XlcError):
    """A dataset file failed to parse. The message carries the line number."""


class ModelFormatError(XlcError):
    """A model container is malformed, corrupted, or unsupported."""


def _integer(name: str, value, lo: int) -> int:
    """value as an int >= lo: Python or numpy integers, never a float."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if value < lo:
        raise ConfigError(f"{name} must be >= {lo}, got {value}")
    return value


def _real(name: str, value, lo: float, above: bool = False) -> float:
    """value as a float >= lo, or > lo when above: a finite real, never a string."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if value < lo or (above and value == lo):
        raise ConfigError(f"{name} must be {'>' if above else '>='} {lo}, got {value}")
    return float(value)
