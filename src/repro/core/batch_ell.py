"""``BatchEll``: a batch of sparse matrices in shared ELLPACK layout.

Every row is padded to a uniform ``max_nnz_row`` entries, which removes the
row-pointer array entirely and makes the access pattern rectangular.  The
paper stores the ELL values *column-major* so that consecutive GPU threads
(one per row) read consecutive memory — here the values are laid out as
``(num_batch, max_nnz_row, num_rows)`` C-order, which makes the **row** axis
the contiguous one: the exact same coalescing-friendly layout expressed in
NumPy strides.

Padding positions carry the sentinel column index ``-1`` and a value of
exactly ``0.0``; the SpMV kernel clamps the sentinel for the gather and the
zero value annihilates the contribution, so no branching is needed.

Storage cost (paper, Section IV-A)::

    num_batch * (max_nnz_row * num_rows)   values (incl. padding)
    + max_nnz_row * num_rows               column indices
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import as_index_array, as_value_array
from .types import DTYPE, INDEX_DTYPE, BatchShape, DimensionMismatch, InvalidFormatError

__all__ = ["BatchEll", "PAD_COL"]

#: Sentinel column index marking a padded (non-stored) position.
PAD_COL = INDEX_DTYPE(-1)


class BatchEll:
    """Batch of sparse matrices with a shared ELL sparsity pattern.

    Parameters
    ----------
    num_cols:
        Number of columns of each system.
    col_idxs:
        Shared column indices, shape ``(max_nnz_row, num_rows)``; padded
        positions hold :data:`PAD_COL`.
    values:
        Per-system values, shape ``(num_batch, max_nnz_row, num_rows)``;
        padded positions must hold exactly ``0.0``.
    check:
        Validate pattern invariants at construction (default True).
    """

    format_name = "ell"

    def __init__(
        self,
        num_cols: int,
        col_idxs: np.ndarray,
        values: np.ndarray,
        *,
        check: bool = True,
    ):
        col_idxs = as_index_array(col_idxs, "col_idxs", ndim=2)
        values = as_value_array(values, "values", ndim=3)
        max_nnz_row, num_rows = col_idxs.shape
        if values.shape[1:] != (max_nnz_row, num_rows):
            raise DimensionMismatch(
                f"values must have shape (num_batch, {max_nnz_row}, {num_rows}), "
                f"got {values.shape}"
            )
        if check:
            pad = col_idxs == PAD_COL
            valid = ~pad
            if valid.any():
                cv = col_idxs[valid]
                if cv.min() < 0 or cv.max() >= num_cols:
                    raise InvalidFormatError(
                        f"col_idxs must lie in [0, {num_cols}) or be PAD_COL"
                    )
            if pad.any() and np.any(values[:, pad] != 0.0):
                raise InvalidFormatError("padded positions must hold value 0.0")

        self._col_idxs = col_idxs
        self._values = values
        self._shape = BatchShape(values.shape[0], num_rows, int(num_cols))
        # Clamped gather indices, computed once: the SpMV gather reads these
        # every call, and re-deriving them per apply() would allocate and
        # re-scan the whole index array on the hottest loop in the library.
        self._gather_cols = np.maximum(col_idxs, 0)

    # -- attributes ------------------------------------------------------

    @property
    def col_idxs(self) -> np.ndarray:
        """Shared column indices, shape ``(max_nnz_row, num_rows)``."""
        return self._col_idxs

    @property
    def values(self) -> np.ndarray:
        """Per-system values, shape ``(num_batch, max_nnz_row, num_rows)``."""
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
    def max_nnz_row(self) -> int:
        """Stored entries per row, including padding."""
        return self._col_idxs.shape[0]

    @property
    def nnz_per_system(self) -> int:
        """True (unpadded) non-zero count per batch entry."""
        return int(np.count_nonzero(self._col_idxs != PAD_COL))

    @property
    def stored_per_system(self) -> int:
        """Stored values per batch entry, including padding."""
        return self.max_nnz_row * self.num_rows

    def padding_fraction(self) -> float:
        """Fraction of stored values that is padding (0 for uniform rows)."""
        stored = self.stored_per_system
        return 0.0 if stored == 0 else 1.0 - self.nnz_per_system / stored

    def storage_bytes(self) -> int:
        """Total bytes: padded values + shared indices (Fig. 3 accounting)."""
        return self._values.nbytes + self._col_idxs.nbytes

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dense(cls, dense_values: np.ndarray, *, tol: float = 0.0) -> "BatchEll":
        """Build from a dense ``(num_batch, n, m)`` array (union pattern)."""
        dense_values = as_value_array(dense_values, "dense_values", ndim=3)
        num_batch, num_rows, num_cols = dense_values.shape
        mask = np.any(np.abs(dense_values) > tol, axis=0)
        per_row = mask.sum(axis=1)
        max_nnz_row = max(int(per_row.max(initial=0)), 1)

        col_idxs = np.full((max_nnz_row, num_rows), PAD_COL, dtype=INDEX_DTYPE)
        values = np.zeros((num_batch, max_nnz_row, num_rows), dtype=dense_values.dtype)
        # Rank of each stored entry within its row gives its ELL slot.
        rows, cols = np.nonzero(mask)
        starts = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(per_row, out=starts[1:])
        slot = np.arange(rows.size, dtype=np.int64) - starts[rows]
        col_idxs[slot, rows] = cols
        values[:, slot, rows] = dense_values[:, rows, cols]
        return cls(num_cols, col_idxs, values)

    # -- access / conversion -----------------------------------------------

    def entry_dense(self, batch_index: int) -> np.ndarray:
        """Materialise one batch entry as a dense 2-D array."""
        out = np.zeros((self.num_rows, self.num_cols), dtype=self._values.dtype)
        slot, rows = np.nonzero(self._col_idxs != PAD_COL)
        cols = self._col_idxs[slot, rows]
        out[rows, cols] = self._values[batch_index, slot, rows]
        return out

    def diagonal(self) -> np.ndarray:
        """Per-system main diagonals, shape ``(num_batch, min(n, m))``."""
        n = min(self.num_rows, self.num_cols)
        diag = np.zeros((self.num_batch, n), dtype=self._values.dtype)
        row_of = np.broadcast_to(
            np.arange(self.num_rows, dtype=INDEX_DTYPE), self._col_idxs.shape
        )
        on_diag = (self._col_idxs == row_of) & (row_of < n)
        slot, rows = np.nonzero(on_diag)
        diag[:, rows] = self._values[:, slot, rows]
        return diag

    def copy(self) -> "BatchEll":
        """Deep copy (shared pattern arrays reused; read-only by contract)."""
        return BatchEll(self.num_cols, self._col_idxs, self._values.copy(), check=False)

    def astype(self, dtype) -> "BatchEll":
        """Batch with values cast to ``dtype`` (self when already there)."""
        if self._values.dtype == np.dtype(dtype):
            return self
        return BatchEll(
            self.num_cols, self._col_idxs, self._values.astype(dtype), check=False
        )

    def take_batch(
        self, indices: np.ndarray, *, values_out: np.ndarray | None = None
    ) -> "BatchEll":
        """Gather a sub-batch of systems into a compact batch.

        ``indices`` is an integer index array or boolean mask over the batch
        axis.  The shared ELL pattern is reused by reference; only the
        selected systems' (padded) values are gathered, preserving each
        system's values bit-for-bit (see
        :meth:`BatchCsr.take_batch <repro.core.batch_csr.BatchCsr.take_batch>`).
        ``values_out`` is optional preallocated storage for the gathered
        values (leading ``len(indices)`` systems used).
        """
        indices = np.asarray(indices)
        if values_out is None:
            gathered = self._values[indices]
        else:
            if indices.dtype == np.bool_:
                indices = np.flatnonzero(indices)
            gathered = values_out[: indices.size]
            np.take(self._values, indices, axis=0, out=gathered)
        return BatchEll(self.num_cols, self._col_idxs, gathered, check=False)

    def scale_values(self, factor: float | np.ndarray) -> "BatchEll":
        """Return a new batch with values scaled per system (or globally)."""
        factor = np.asarray(factor, dtype=self._values.dtype)
        if factor.ndim == 1:
            factor = factor[:, None, None]
        return BatchEll(self.num_cols, self._col_idxs, self._values * factor, check=False)

    # -- matrix-vector products ---------------------------------------------

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Batched SpMV ``out[k] = A[k] @ x[k]``.

        One pass per ELL slot (``max_nnz_row`` passes — 9 for the XGC
        stencil), each pass fully vectorised over batch × rows.  This is the
        NumPy transcription of the paper's one-thread-per-row kernel: thread
        ``i`` walks its row's slots sequentially while slot data for all rows
        is contiguous.
        """
        self._shape.compatible_vector(x, "x")
        if out is None:
            out = np.zeros((self.num_batch, self.num_rows), dtype=self._values.dtype)
        else:
            out[...] = 0.0
        cols = self._gather_cols  # pre-clamped sentinel; value 0 kills it
        for k in range(self.max_nnz_row):
            out += self._values[:, k, :] * x[:, cols[k]]
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
        that receives the product; with it the update is allocation-free.
        ``work`` must not alias ``x`` or ``y``.
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
            f"BatchEll(num_batch={s.num_batch}, shape={s.num_rows}x{s.num_cols}, "
            f"max_nnz_row={self.max_nnz_row})"
        )
