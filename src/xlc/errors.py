"""Exception types shared across the package, and the checks on arguments."""

import math
import numbers
import operator
from collections.abc import Sequence

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


def _names(name: str, value, p: int | None = None) -> list[str]:
    """value as a list of label names: a sequence, never a bare string, of
    strings that hold no newline, and of p of them when p is given."""
    if isinstance(value, str) or not isinstance(value, Sequence):
        raise ConfigError(f"{name} must be a sequence of strings, got {type(value).__name__}")
    for item in value:
        if not isinstance(item, str):
            raise ConfigError(f"label name {item!r} must be a string, got {type(item).__name__}")
        if "\n" in item:
            raise ConfigError(f"label name {item!r} contains a newline")
    if p is not None and len(value) != p:
        raise ShapeMismatchError(f"{len(value)} label names for p={p} labels")
    return list(value)


def _shape_error(name: str, shapes, got: tuple) -> ShapeMismatchError:
    """The error for an array whose shape is got, not one of shapes; a
    None length prints as *."""
    expected = " or ".join(str(s).replace("None", "*") for s in shapes)
    return ShapeMismatchError(f"{name} must have shape {expected}, got shape {got}")


def _array(name: str, value, *shapes: tuple, nonneg: bool = False) -> np.ndarray:
    """value as a C-contiguous float64 array with finite entries, all >= 0
    when nonneg, of one of the shapes: a tuple with a length per axis or None
    for any length, where a shape with a None fixes at most its last axis.
    value itself is returned when it already is such an array. Booleans,
    integers, floats and objects that are not text convert; text is refused,
    not parsed. Checked in order: dtype, dimension count, finiteness,
    lengths, sign."""
    a = value
    if not (isinstance(a, np.ndarray) and a.dtype.kind in "biuf"):
        try:
            a = np.asarray(value)
            if a.dtype.kind not in "biufO" or a.dtype.kind == "O" and any(
                    isinstance(e, (str, bytes)) for e in a.flat):
                raise TypeError("text")
            a = a.astype(np.float64)
        except (TypeError, ValueError, OverflowError):  # text, a ragged list, no number
            raise ConfigError(f"{name} must be a numeric array, got "
                              f"{type(value).__name__}") from None
    a = np.asarray(a, dtype=np.float64, order="C")
    for shape in shapes:
        if len(shape) == a.ndim:
            break
    else:
        raise _shape_error(name, shapes, a.shape)
    if not np.isfinite(a).all():
        raise ConfigError(f"{name} must be finite, got a non-finite entry in shape {a.shape}")
    # one comparison, no slicing: slices of a.shape cost as much as the rest
    if None in shape:
        wrong = shape[-1] is not None and a.shape[-1] != shape[-1]
    else:
        wrong = a.shape != shape
    if wrong:
        raise _shape_error(name, shapes, a.shape)
    if nonneg and a.size and a.min() < 0.0:
        raise NonNegativityError(f"{name} must be >= 0, got {a.min()} in shape {a.shape}")
    return a


def _indices(name: str, value, shape: tuple, size: int) -> np.ndarray:
    """value as an int64 array of the given shape with every entry in
    [0, size); an empty array of any dtype is taken."""
    try:
        a = np.asarray(value)
    except ValueError:                      # a ragged list
        raise ConfigError(f"{name} must be an index array, got "
                          f"{type(value).__name__}") from None
    if a.shape != shape:
        raise _shape_error(name, (shape,), a.shape)
    if a.size and a.dtype.kind not in "iu":
        raise ConfigError(f"{name} must hold integers, got dtype {a.dtype}")
    a = a.astype(np.int64, copy=False)
    if a.size and not (a.min() >= 0 and a.max() < size):
        raise ConfigError(f"{name} must be in [0, {size}), got [{a.min()}, {a.max()}]")
    return a
