"""``BatchCsr``: a batch of sparse matrices sharing one CSR sparsity pattern.

The format stores the classical CSR metadata — ``row_ptrs`` and ``col_idxs``
— exactly once for the whole batch, plus a dense ``(num_batch, nnz)`` values
array holding every entry of every system.  This is the direct analogue of
Ginkgo's ``BatchCsr``: the pattern is read-only and cacheable while the
values stream through.

Storage cost (paper, Section IV-A)::

    num_batch * nnz            values
    + (num_rows + 1)           row pointers
    + nnz                      column indices
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import as_index_array, as_value_array
from .spmv import BatchMatrix
from .types import INDEX_DTYPE, BatchShape, DimensionMismatch, InvalidFormatError

__all__ = ["BatchCsr"]


class BatchCsr(BatchMatrix):
    """Batch of sparse matrices with a shared CSR sparsity pattern.

    Parameters
    ----------
    num_cols:
        Number of columns of each system.
    row_ptrs:
        Shared row-pointer array of shape ``(num_rows + 1,)``.
    col_idxs:
        Shared column-index array of shape ``(nnz,)``.
    values:
        Per-system values of shape ``(num_batch, nnz)``.
    check:
        When True (default) the pattern invariants are validated once at
        construction: monotone row pointers, in-range column indices, no
        column stored twice in one row.
    """

    format_name = "csr"

    def __init__(
        self,
        num_cols: int,
        row_ptrs: np.ndarray,
        col_idxs: np.ndarray,
        values: np.ndarray,
        *,
        check: bool = True,
    ):
        row_ptrs = as_index_array(row_ptrs, "row_ptrs", ndim=1)
        col_idxs = as_index_array(col_idxs, "col_idxs", ndim=1)
        values = as_value_array(values, "values", ndim=2)

        num_rows = row_ptrs.shape[0] - 1
        if num_rows < 1:
            raise InvalidFormatError("row_ptrs must have at least 2 entries")
        nnz = col_idxs.shape[0]
        if values.shape[1] != nnz:
            raise DimensionMismatch(
                f"values has {values.shape[1]} entries per system but "
                f"col_idxs implies nnz={nnz}"
            )
        if check:
            if row_ptrs[0] != 0 or row_ptrs[-1] != nnz:
                raise InvalidFormatError(
                    f"row_ptrs must start at 0 and end at nnz={nnz}, "
                    f"got [{row_ptrs[0]}, {row_ptrs[-1]}]"
                )
            if np.any(np.diff(row_ptrs) < 0):
                raise InvalidFormatError("row_ptrs must be non-decreasing")
            if nnz and (col_idxs.min() < 0 or col_idxs.max() >= num_cols):
                raise InvalidFormatError(
                    f"col_idxs must lie in [0, {num_cols}), got range "
                    f"[{col_idxs.min()}, {col_idxs.max()}]"
                )

        self._row_ptrs = row_ptrs
        self._col_idxs = col_idxs
        self._values = values
        self._shape = BatchShape(values.shape[0], num_rows, int(num_cols))
        if check:
            self._reject_repeated_columns()

    # -- attributes ------------------------------------------------------

    @property
    def row_ptrs(self) -> np.ndarray:
        """Shared row pointers, shape ``(num_rows + 1,)``."""
        return self._row_ptrs

    @property
    def col_idxs(self) -> np.ndarray:
        """Shared column indices, shape ``(nnz,)``."""
        return self._col_idxs

    @property
    def nnz_per_system(self) -> int:
        """Stored non-zeros per batch entry."""
        return self._col_idxs.shape[0]

    def nnz_per_row(self) -> np.ndarray:
        """Non-zeros in each row of the shared pattern."""
        return np.diff(self._row_ptrs)

    # -- the format contract -----------------------------------------------

    @property
    def pattern(self) -> tuple[np.ndarray, np.ndarray]:
        return (self._row_ptrs, self._col_idxs)

    def with_values(self, values: np.ndarray) -> "BatchCsr":
        return BatchCsr(
            self.num_cols, self._row_ptrs, self._col_idxs, values, check=False
        )

    def entries(self):
        """Entries in stored order, which is CSR order when columns are
        sorted within rows (as every built-in constructor stores them)."""
        rows = np.repeat(np.arange(self.num_rows, dtype=np.int64), self.nnz_per_row())
        return rows, self._col_idxs.astype(np.int64), (np.arange(rows.size),)

    @classmethod
    def from_entries(cls, num_rows, num_cols, rows, cols, values) -> "BatchCsr":
        row_ptrs = np.zeros(num_rows + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(rows, minlength=num_rows), out=row_ptrs[1:])
        return cls(num_cols, row_ptrs, cols, values, check=False)

    # -- matrix-vector product ---------------------------------------------

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Batched SpMV ``out[k] = A[k] @ x[k]``.

        The kernel gathers ``x`` at the shared column indices for all systems
        at once, multiplies elementwise with the values, and segment-reduces
        with :func:`numpy.add.reduceat` over the shared row extents —
        mirroring the one-warp-per-row reduction of the GPU kernel while
        staying fully vectorised over the batch.
        """
        self._shape.compatible_vector(x, "x")
        gathered = x[:, self._col_idxs]
        gathered *= self._values
        if out is None:
            out = np.empty((self.num_batch, self.num_rows), dtype=self._values.dtype)
        nnz = self.nnz_per_system
        if nnz == 0:
            out[...] = 0.0
            return out
        # Per-row segment reduction with reduceat: each row is summed
        # independently (no cross-row accumulation, so rows of wildly
        # different magnitude cannot contaminate each other — a global
        # prefix sum would).  A zero sentinel keeps trailing empty rows'
        # start index (== nnz) in bounds; reduceat returns the element at
        # `start` for empty segments, which the mask then zeroes.
        padded = np.empty((self.num_batch, nnz + 1), dtype=gathered.dtype)
        padded[:, :nnz] = gathered
        padded[:, nnz] = 0.0
        starts = self._row_ptrs[:-1].astype(np.int64)
        out[...] = np.add.reduceat(padded, starts, axis=1)
        empty = np.diff(self._row_ptrs) == 0
        if np.any(empty):
            out[:, empty] = 0.0
        return out
