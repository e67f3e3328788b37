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
from .types import DTYPE, INDEX_DTYPE, BatchShape, DimensionMismatch, InvalidFormatError

__all__ = ["BatchCsr"]


class BatchCsr:
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
        construction: monotone row pointers, in-range column indices.
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
    def values(self) -> np.ndarray:
        """Per-system non-zero values, shape ``(num_batch, nnz)``."""
        return self._values

    @property
    def dtype(self) -> np.dtype:
        """Value dtype of the stored entries (float32 or float64)."""
        return self._values.dtype

    @property
    def shape(self) -> BatchShape:
        return self._shape

    @property
    def num_batch(self) -> int:
        return self._shape.num_batch

    @property
    def num_rows(self) -> int:
        return self._shape.num_rows

    @property
    def num_cols(self) -> int:
        return self._shape.num_cols

    @property
    def nnz_per_system(self) -> int:
        """Stored non-zeros per batch entry."""
        return self._col_idxs.shape[0]

    def nnz_per_row(self) -> np.ndarray:
        """Non-zeros in each row of the shared pattern."""
        return np.diff(self._row_ptrs)

    def storage_bytes(self) -> int:
        """Total bytes: values + shared pattern (Fig. 3 accounting)."""
        return self._values.nbytes + self._row_ptrs.nbytes + self._col_idxs.nbytes

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dense(cls, dense_values: np.ndarray, *, tol: float = 0.0) -> "BatchCsr":
        """Build from a dense ``(num_batch, n, m)`` array.

        The shared pattern is the *union* of the patterns of all entries:
        a position is stored if any system has ``|a_ij| > tol`` there, so no
        system loses information.
        """
        dense_values = as_value_array(dense_values, "dense_values", ndim=3)
        mask = np.any(np.abs(dense_values) > tol, axis=0)
        rows, cols = np.nonzero(mask)
        num_rows = dense_values.shape[1]
        row_counts = np.bincount(rows, minlength=num_rows)
        row_ptrs = np.zeros(num_rows + 1, dtype=INDEX_DTYPE)
        np.cumsum(row_counts, out=row_ptrs[1:])
        values = dense_values[:, rows, cols]
        return cls(dense_values.shape[2], row_ptrs, cols.astype(INDEX_DTYPE), values)

    @classmethod
    def from_coo(
        cls,
        num_batch: int,
        num_rows: int,
        num_cols: int,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
    ) -> "BatchCsr":
        """Build from shared COO triplets with per-system values.

        ``rows``/``cols`` have shape ``(nnz,)``; ``values`` has shape
        ``(num_batch, nnz)``.  Duplicate (row, col) pairs are summed, as in
        standard finite-element assembly.
        """
        rows = as_index_array(rows, "rows", ndim=1)
        cols = as_index_array(cols, "cols", ndim=1)
        values = as_value_array(values, "values", ndim=2)
        if values.shape != (num_batch, rows.shape[0]):
            raise DimensionMismatch(
                f"values must have shape ({num_batch}, {rows.shape[0]}), "
                f"got {values.shape}"
            )
        if rows.size and (rows.min() < 0 or rows.max() >= num_rows):
            raise InvalidFormatError("row indices out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= num_cols):
            raise InvalidFormatError("column indices out of range")

        # Sort lexicographically by (row, col), then fold duplicates.
        order = np.lexsort((cols, rows))
        rows_s, cols_s = rows[order], cols[order]
        vals_s = values[:, order]
        if rows_s.size:
            new_group = np.empty(rows_s.shape[0], dtype=bool)
            new_group[0] = True
            new_group[1:] = (np.diff(rows_s) != 0) | (np.diff(cols_s) != 0)
            group_ids = np.cumsum(new_group) - 1
            n_groups = int(group_ids[-1]) + 1
            folded = np.zeros((num_batch, n_groups), dtype=values.dtype)
            np.add.at(folded.T, group_ids, vals_s.T)
            rows_u = rows_s[new_group]
            cols_u = cols_s[new_group]
        else:
            folded = values.copy()
            rows_u = rows_s
            cols_u = cols_s

        row_counts = np.bincount(rows_u, minlength=num_rows)
        row_ptrs = np.zeros(num_rows + 1, dtype=INDEX_DTYPE)
        np.cumsum(row_counts, out=row_ptrs[1:])
        return cls(num_cols, row_ptrs, cols_u, folded)

    # -- access / conversion -----------------------------------------------

    def entry_dense(self, batch_index: int) -> np.ndarray:
        """Materialise one batch entry as a dense 2-D array."""
        out = np.zeros((self.num_rows, self.num_cols), dtype=self._values.dtype)
        rows = np.repeat(
            np.arange(self.num_rows, dtype=np.int64), self.nnz_per_row()
        )
        out[rows, self._col_idxs] = self._values[batch_index]
        return out

    def diagonal(self) -> np.ndarray:
        """Per-system main diagonals, shape ``(num_batch, min(n, m))``.

        Missing diagonal entries (not in the pattern) come back as 0.
        """
        n = min(self.num_rows, self.num_cols)
        diag = np.zeros((self.num_batch, n), dtype=self._values.dtype)
        rows = np.repeat(np.arange(self.num_rows, dtype=np.int64), self.nnz_per_row())
        on_diag = (rows == self._col_idxs) & (rows < n)
        diag[:, rows[on_diag]] = self._values[:, on_diag]
        return diag

    def copy(self) -> "BatchCsr":
        """Deep copy (pattern arrays are shared; they are read-only by contract)."""
        return BatchCsr(
            self.num_cols,
            self._row_ptrs,
            self._col_idxs,
            self._values.copy(),
            check=False,
        )

    def astype(self, dtype) -> "BatchCsr":
        """Batch with values cast to ``dtype`` (self when already there).

        The shared sparsity pattern is reused by reference, so a cast
        batch can be refreshed in place from a same-pattern source with
        ``np.copyto(cast.values, src.values, casting="same_kind")``.
        """
        if self._values.dtype == np.dtype(dtype):
            return self
        return BatchCsr(
            self.num_cols,
            self._row_ptrs,
            self._col_idxs,
            self._values.astype(dtype),
            check=False,
        )

    def take_batch(
        self, indices: np.ndarray, *, values_out: np.ndarray | None = None
    ) -> "BatchCsr":
        """Gather a sub-batch of systems into a compact batch.

        ``indices`` is an integer index array or boolean mask over the batch
        axis.  The shared sparsity pattern is reused by reference; only the
        selected systems' values are gathered — this is the host analogue of
        the GPU gather that active-batch compaction performs when most of a
        batch has converged.  Each selected system's values are bit-identical
        to the original, so its SpMV results are unchanged.  ``values_out``
        is optional preallocated storage for the gathered values (leading
        ``len(indices)`` systems used), making repeated compaction events
        allocation-free.
        """
        indices = np.asarray(indices)
        if values_out is None:
            gathered = self._values[indices]
        else:
            if indices.dtype == np.bool_:
                indices = np.flatnonzero(indices)
            gathered = values_out[: indices.size]
            np.take(self._values, indices, axis=0, out=gathered)
        return BatchCsr(
            self.num_cols,
            self._row_ptrs,
            self._col_idxs,
            gathered,
            check=False,
        )

    def scale_values(self, factor: float | np.ndarray) -> "BatchCsr":
        """Return a new batch with values scaled per system (or globally)."""
        factor = np.asarray(factor, dtype=self._values.dtype)
        if factor.ndim == 1:
            factor = factor[:, None]
        return BatchCsr(
            self.num_cols,
            self._row_ptrs,
            self._col_idxs,
            self._values * factor,
            check=False,
        )

    # -- matrix-vector products ---------------------------------------------

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

    def advanced_apply(
        self,
        alpha: float | np.ndarray,
        x: np.ndarray,
        beta: float | np.ndarray,
        y: np.ndarray,
        *,
        work: np.ndarray | None = None,
    ) -> np.ndarray:
        """In-place fused ``y[k] = alpha*A[k]@x[k] + beta*y[k]``.

        ``work`` is an optional ``(num_batch, num_rows)`` scratch buffer
        that receives the product; with it the update adds no batch-vector
        allocation beyond the gather.  ``work`` must not alias ``x`` or
        ``y``.
        """
        ax = self.apply(x, out=work)
        alpha = np.asarray(alpha, dtype=ax.dtype)
        beta = np.asarray(beta, dtype=y.dtype)
        if alpha.ndim == 1:
            alpha = alpha[:, None]
        if beta.ndim == 1:
            beta = beta[:, None]
        np.multiply(ax, alpha, out=ax)
        np.multiply(y, beta, out=y)
        np.add(y, ax, out=y)
        return y

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self._shape
        return (
            f"BatchCsr(num_batch={s.num_batch}, shape={s.num_rows}x{s.num_cols}, "
            f"nnz={self.nnz_per_system})"
        )
