"""Argument-validation helpers shared across the library.

These helpers centralise the defensive checks performed at public API
boundaries so that error messages are uniform and the hot kernels can stay
free of redundant validation.  Every function either returns a normalised
value or raises a descriptive exception; none of them copy array data unless
a dtype or contiguity conversion is strictly required.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_in",
    "as_value_array",
    "as_index_array",
    "check_shape",
]

_INT32 = np.iinfo(np.int32)


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive.

    Parameters
    ----------
    value:
        Scalar to validate.
    name:
        Name used in the error message.

    Returns
    -------
    The validated value, unchanged.
    """
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is >= 0 and return it."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_in(value, options: Iterable, name: str):
    """Validate that ``value`` is one of ``options`` and return it."""
    options = tuple(options)
    if value not in options:
        raise ValueError(f"{name} must be one of {options}, got {value!r}")
    return value


def as_value_array(
    data, name: str, *, ndim: int | None = None, dtype=None
) -> np.ndarray:
    """Convert ``data`` to a C-contiguous float32 or float64 value array.

    float32 input stays float32 and float64 stays float64, so the batch
    formats can carry either working precision.  Any other input dtype
    (ints, python lists, float16, ...) is normalised to float64, the
    library default.  Pass ``dtype`` to force a specific value dtype
    instead.

    A view is returned whenever the input already satisfies the dtype
    and contiguity requirements, so passing well-formed arrays is free.
    """
    if dtype is None:
        src = np.asarray(data)
        dtype = src.dtype if src.dtype in (np.float32, np.float64) else np.float64
        data = src
    else:
        dtype = np.dtype(dtype)
        if dtype not in (np.float32, np.float64):
            raise ValueError(
                f"{name} dtype must be float32 or float64, got {dtype}"
            )
    arr = np.ascontiguousarray(data, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} dimensions, got {arr.ndim}")
    return arr


def as_index_array(data, name: str, *, ndim: int | None = None) -> np.ndarray:
    """Convert ``data`` to a C-contiguous int32 index array.

    An input that already is one (of the requested ``ndim``) is returned
    as it is.  Otherwise raises ``ValueError`` if a float value is
    non-integral or non-finite, or if any value would overflow int32 —
    batch problems in this library are small per entry, so 32-bit indices
    are both sufficient and match what the GPU kernels in the reference
    implementation use.
    """
    arr = np.asarray(data)
    if arr.dtype != np.int32:
        if arr.dtype.kind == "f" and not np.all(
            np.isfinite(arr) & (arr == np.trunc(arr))
        ):
            raise ValueError(
                f"{name} must hold integers, got non-integral or non-finite values"
            )
        if arr.size and (arr.min() < _INT32.min or arr.max() > _INT32.max):
            raise ValueError(f"{name} contains values that overflow int32")
    arr = np.ascontiguousarray(arr, dtype=np.int32)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} dimensions, got {arr.ndim}")
    return arr


def check_shape(arr: np.ndarray, shape: Sequence[int], name: str) -> np.ndarray:
    """Validate that ``arr.shape`` equals ``shape`` exactly."""
    if tuple(arr.shape) != tuple(shape):
        raise ValueError(f"{name} must have shape {tuple(shape)}, got {arr.shape}")
    return arr
