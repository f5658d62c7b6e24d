"""Exception types shared across the package, and the checks on arguments."""

import math
import numbers
import operator

import numpy as np


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


def _integer(name: str, value, lo: int | None, hi: int | None = None) -> int:
    """value as an int >= lo when lo is not None, and <= hi when given:
    Python or numpy integers, never a float."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if lo is not None and value < lo:
        raise ConfigError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{name} must be <= {hi}, got {value}")
    return value


def _real(name: str, value, lo: float, above: bool = False,
          below: float | None = None) -> float:
    """value as a float >= lo, or > lo when above, and < below when given: a finite real."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if value < lo or (above and value == lo):
        raise ConfigError(f"{name} must be {'>' if above else '>='} {lo}, got {value}")
    if below is not None and value >= below:
        raise ConfigError(f"{name} must be < {below}, got {value}")
    return float(value)


def _integers(name: str, values, lo: int, item: str | None = None) -> tuple[int, ...]:
    """values as a non-empty tuple of ints >= lo, each checked by _integer
    under the name item, or name; a bare scalar or None is refused."""
    try:
        checked = tuple(values)
    except TypeError:
        checked = ()
    if not checked:
        raise ConfigError(f"{name} must be a non-empty sequence of integers, got {values!r}")
    return tuple(_integer(item or name, v, lo) for v in checked)


def _choice(name: str, value, choices) -> str:
    """value, which must be one of the strings in choices."""
    if not (isinstance(value, str) and value in choices):
        raise ConfigError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _instance(name: str, value, cls: type):
    """value, which must be an instance of cls."""
    if not isinstance(value, cls):
        raise ConfigError(f"{name} must be of type {cls.__name__}, "
                          f"got {type(value).__name__}")
    return value


def _array(name: str, value, ndim, nonneg: bool = False) -> np.ndarray:
    """value as a C-contiguous float64 array of ndim dimensions (or of one
    of the counts in the tuple ndim), with finite entries, all >= 0 when
    nonneg. value itself is returned when it already is such an array."""
    try:
        a = np.asarray(value, dtype=np.float64, order="C")
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a numeric array, got "
                          f"{type(value).__name__}") from None
    dims = ndim if isinstance(ndim, tuple) else (ndim,)
    if a.ndim not in dims:
        raise ShapeMismatchError(f"{name} must be {' or '.join(f'{n}-D' for n in dims)}, "
                                 f"got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ConfigError(f"{name} must be finite, got a non-finite entry in shape {a.shape}")
    if nonneg and a.size and a.min() < 0.0:
        raise NonNegativityError(f"{name} must be >= 0, got {a.min()} in shape {a.shape}")
    return a
