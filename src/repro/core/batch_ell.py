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
from .spmv import BatchMatrix
from .types import (
    INDEX_DTYPE,
    BatchShape,
    DimensionMismatch,
    InvalidFormatError,
    batch_tile,
)

__all__ = ["BatchEll", "PAD_COL"]

#: Sentinel column index marking a padded (non-stored) position.
PAD_COL = INDEX_DTYPE(-1)


class BatchEll(BatchMatrix):
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
        Validate pattern invariants at construction (default True):
        in-range columns, zero padding, no column stored twice in one row.
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
        # Lazily-allocated per-tile SpMV scratch (see _scratch).
        self._work: tuple[np.ndarray, np.ndarray] | None = None
        if check:
            self._reject_repeated_columns()

    # -- attributes ------------------------------------------------------

    @property
    def col_idxs(self) -> np.ndarray:
        """Shared column indices, shape ``(max_nnz_row, num_rows)``."""
        return self._col_idxs

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

    # -- the format contract -----------------------------------------------

    @property
    def pattern(self) -> tuple[np.ndarray]:
        return (self._col_idxs,)

    def with_values(self, values: np.ndarray) -> "BatchEll":
        return BatchEll(self.num_cols, self._col_idxs, values, check=False)

    def entries(self):
        # Row-major scan: slots already hold each row's entries in column
        # order when the batch was built from entries, so the sort is one
        # pass over sorted keys.
        rows, slot = np.nonzero((self._col_idxs != PAD_COL).T)
        cols = self._col_idxs[slot, rows].astype(np.int64)
        order = np.argsort(rows * self.num_cols + cols, kind="stable")
        rows = rows[order]
        return rows, cols[order], (slot[order], rows)

    @classmethod
    def from_entries(cls, num_rows, num_cols, rows, cols, values) -> "BatchEll":
        """Each row's entries fill its slots in CSR order; ``max_nnz_row``
        is the longest row and shorter rows are padded."""
        per_row = np.bincount(rows, minlength=num_rows)
        starts = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(per_row, out=starts[1:])
        slot = np.arange(rows.size, dtype=np.int64) - starts[rows]
        max_nnz_row = max(int(per_row.max(initial=0)), 1)
        col_idxs = np.full((max_nnz_row, num_rows), PAD_COL, dtype=INDEX_DTYPE)
        col_idxs[slot, rows] = cols
        padded = np.zeros((values.shape[0], max_nnz_row, num_rows), dtype=values.dtype)
        padded[:, slot, rows] = values
        return cls(num_cols, col_idxs, padded, check=False)

    # -- matrix-vector product ---------------------------------------------

    def _scratch(self, tile: int, x_dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
        """Reused ``(tile, num_rows)`` gather and product buffers."""
        work = self._work
        if work is None or work[0].shape[0] < tile or work[0].dtype != x_dtype:
            prod_dtype = np.result_type(self._values.dtype, x_dtype)
            work = self._work = (
                np.empty((tile, self.num_rows), dtype=x_dtype),
                np.empty((tile, self.num_rows), dtype=prod_dtype),
            )
        return work

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Batched SpMV ``out[k] = A[k] @ x[k]``.

        One pass per ELL slot (``max_nnz_row`` passes — 9 for the XGC
        stencil), each pass vectorised over a tile of systems × rows.  This
        is the NumPy transcription of the paper's one-thread-per-row kernel:
        thread ``i`` walks its row's slots sequentially while slot data for
        all rows is contiguous.  The batch is walked in tiles of
        :func:`~repro.core.types.batch_tile` systems so a tile's ``x``,
        ``out`` and gather/product scratch stay cache-resident across all
        slot passes; every row is still computed independently, so results
        are bit-identical to an untiled pass.
        """
        self._shape.compatible_vector(x, "x")
        num_batch = self.num_batch
        if out is None:
            out = np.empty((num_batch, self.num_rows), dtype=self._values.dtype)
        cols = self._gather_cols  # pre-clamped sentinel; value 0 kills it
        values = self._values
        tile = min(num_batch, batch_tile(self.num_rows, out.itemsize))
        gather, prod = self._scratch(tile, x.dtype)
        for lo in range(0, num_batch, tile):
            hi = min(lo + tile, num_batch)
            xt, vt, ot = x[lo:hi], values[lo:hi], out[lo:hi]
            g, p = gather[: hi - lo], prod[: hi - lo]
            ot[...] = 0.0
            for k in range(self.max_nnz_row):
                # mode="clip" takes the unbuffered path (indices are
                # pre-clamped, so nothing is actually clipped).
                xt.take(cols[k], axis=1, out=g, mode="clip")
                np.multiply(vt[:, k, :], g, out=p)
                ot += p
        return out
