"""``BatchDense`` format and the batched BLAS-1 reductions.

The iterative solvers are composed from a small set of batched dense
operations — dot products, AXPYs, norms, scalings — applied to *batch
vectors* of shape ``(num_batch, num_rows)``.  In the reference GPU
implementation these are the specialised, tuned ``BatchDense`` kernels that
get inlined into the fused solver kernel; here the reductions live below
and the fused, allocation-free updates in :mod:`repro.core.blas`.

All functions operate along the last axis and broadcast per-system scalars
of shape ``(num_batch,)``.
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import as_value_array
from .spmv import BatchMatrix, nonzero_union
from .types import BatchShape, DimensionMismatch

__all__ = ["BatchDense", "batch_dot", "batch_norm2"]


class BatchDense(BatchMatrix):
    """A batch of dense matrices with identical dimensions.

    Parameters
    ----------
    values:
        Array of shape ``(num_batch, num_rows, num_cols)``; copied only when
        a dtype/contiguity conversion is required.

    Notes
    -----
    This is both a matrix format in its own right (usable with every
    solver) and the storage baseline against which the paper compares the
    sparse formats' footprint (Fig. 3).
    """

    format_name = "dense"

    def __init__(self, values: np.ndarray):
        values = as_value_array(values, "values", ndim=3)
        self._values = values
        self._shape = BatchShape(*values.shape)

    @property
    def nnz_per_system(self) -> int:
        """Stored entries per batch entry (all of them, for dense)."""
        return self.num_rows * self.num_cols

    # -- the format contract -----------------------------------------------

    @property
    def pattern(self) -> tuple:
        return ()

    def with_values(self, values: np.ndarray) -> "BatchDense":
        return BatchDense(values)

    def entries(self):
        """The positions non-zero in some system (the union pattern)."""
        rows, cols = nonzero_union(self._values)
        return rows, cols, (rows, cols)

    @classmethod
    def from_entries(cls, num_rows, num_cols, rows, cols, values) -> "BatchDense":
        dense = np.zeros((values.shape[0], num_rows, num_cols), dtype=values.dtype)
        dense[:, rows, cols] = values
        return cls(dense)

    # -- matrix-vector product ---------------------------------------------

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Batched dense mat-vec ``out[k] = A[k] @ x[k]``.

        ``x`` has shape ``(num_batch, num_cols)``; the result has shape
        ``(num_batch, num_rows)``.
        """
        self._shape.compatible_vector(x, "x")
        y = np.einsum("bij,bj->bi", self._values, x, optimize=True)
        if out is None:
            return y
        out[...] = y
        return out


# ---------------------------------------------------------------------------
# Batched BLAS-1 kernels operating on (num_batch, n) batch vectors.
# ---------------------------------------------------------------------------

def batch_dot(
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray | None = None,
    *,
    dtype=None,
) -> np.ndarray:
    """Per-system dot products: ``out[k] = a[k] . b[k]``.

    Both inputs have shape ``(num_batch, n)``; the result has shape
    ``(num_batch,)``.  ``dtype`` sets the accumulation dtype of the
    reduction — the mixed-precision policy passes float64 here so that
    float32 vectors keep double-precision dot products.
    """
    if a.shape != b.shape:
        raise DimensionMismatch(f"dot operands differ in shape: {a.shape} vs {b.shape}")
    return np.einsum("bi,bi->b", a, b, out=out, dtype=dtype)


def batch_norm2(
    a: np.ndarray, out: np.ndarray | None = None, *, dtype=None
) -> np.ndarray:
    """Per-system Euclidean norms: ``out[k] = ||a[k]||_2``.

    ``dtype`` sets the accumulation dtype of the squared sum (see
    :func:`batch_dot`).
    """
    sq = np.einsum("bi,bi->b", a, a, dtype=dtype)
    if out is None:
        return np.sqrt(sq)
    np.sqrt(sq, out=out)
    return out
