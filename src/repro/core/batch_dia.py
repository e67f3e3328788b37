"""``BatchDia``: a batch of sparse matrices in shared DIA (diagonal) layout.

The XGC collision matrix is a fixed 9-point stencil on a tensor-product
velocity grid: every non-zero sits on one of at most nine *constant
diagonals* ``col - row = d``.  CSR and ELL both spend memory traffic on
column-index arrays that, for such a matrix, encode nothing but those nine
constants — and their SpMV kernels spend an indexed gather per stored entry
to honour them.  DIA stores the shared sorted offset array ``(num_diags,)``
once for the whole batch plus per-system diagonal value bands
``(num_batch, num_diags, num_rows)``, and its SpMV is **gather-free**: each
diagonal ``d`` contributes through a contiguous shifted slice ::

    out[:, lo:hi] += values[:, k, lo:hi] * x[:, lo + d : hi + d]

with ``lo = max(0, -d)`` and ``hi = min(num_rows, num_cols - d)`` — no
``col_idxs`` load, no fancy indexing, pure strided AXPYs.  This extends the
paper's CSR-vs-ELL format study (Section IV-A) one step further in the
direction Ginkgo's format portfolio points: when the access pattern is a
compile-time constant, stop reading it from memory.

Band positions outside the matrix (the *fringe* of an off-diagonal: rows
``< lo`` or ``>= hi``) are stored as exactly ``0.0`` so every diagonal has
uniform length — the DIA analogue of ELL's padding, and equally cheap for
the stencil's small offsets.

Storage cost (extending the paper's Fig. 3 accounting)::

    num_batch * (num_diags * num_rows)   values (incl. fringe padding)
    + num_diags                          diagonal offsets

The index metadata is ``num_diags`` integers *total* — versus ``nnz``
integers for ELL and ``nnz + num_rows + 1`` for CSR — which is why the
modelled per-SpMV memory traffic of DIA is the lowest of the three sparse
formats (see ``docs/performance_model.md``).
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import as_index_array, as_value_array
from .spmv import BatchMatrix
from .types import BatchShape, DimensionMismatch, InvalidFormatError, batch_tile

__all__ = ["BatchDia"]


class BatchDia(BatchMatrix):
    """Batch of sparse matrices with a shared set of constant diagonals.

    Parameters
    ----------
    num_cols:
        Number of columns of each system.
    offsets:
        Shared diagonal offsets ``col - row``, shape ``(num_diags,)``,
        strictly increasing (the main diagonal is offset 0, superdiagonals
        are positive).
    values:
        Per-system diagonal bands, shape ``(num_batch, num_diags,
        num_rows)``; band position ``r`` of diagonal ``d`` holds entry
        ``(r, r + d)``.  Fringe positions (outside the matrix) must hold
        exactly ``0.0``.
    check:
        Validate pattern invariants at construction (default True).
    """

    format_name = "dia"

    def __init__(
        self,
        num_cols: int,
        offsets: np.ndarray,
        values: np.ndarray,
        *,
        check: bool = True,
    ):
        offsets = as_index_array(offsets, "offsets", ndim=1)
        values = as_value_array(values, "values", ndim=3)
        num_diags = offsets.shape[0]
        if num_diags < 1:
            raise InvalidFormatError("offsets must hold at least one diagonal")
        if values.shape[1] != num_diags:
            raise DimensionMismatch(
                f"values must have shape (num_batch, {num_diags}, num_rows), "
                f"got {values.shape}"
            )
        num_rows = values.shape[2]
        num_cols = int(num_cols)
        if check:
            if np.any(np.diff(offsets) <= 0):
                raise InvalidFormatError("offsets must be strictly increasing")
            if offsets[0] <= -num_rows or offsets[-1] >= num_cols:
                raise InvalidFormatError(
                    f"offsets must lie in ({-num_rows}, {num_cols}), got range "
                    f"[{offsets[0]}, {offsets[-1]}]"
                )

        self._offsets = offsets
        self._values = values
        self._shape = BatchShape(values.shape[0], num_rows, num_cols)
        # Per-diagonal valid band [lo, hi): rows whose entry (r, r + d)
        # falls inside the matrix.  Computed once; every SpMV is then pure
        # slicing.  Plain Python ints so the hot loop does no array math.
        self._spans = tuple(
            (k, int(d), max(0, -int(d)), min(num_rows, num_cols - int(d)))
            for k, d in enumerate(offsets)
        )
        if check:
            fringe = self.fringe_mask()
            if fringe.any() and np.any(values[:, fringe] != 0.0):
                raise InvalidFormatError("fringe positions must hold value 0.0")
        # Zero padding on each side of a tile's copy of x, so every diagonal
        # reads a full-width shifted window: rows r + d outside [0, num_cols)
        # land in the padding.
        self._pad_lo = max(0, -int(offsets.min()))
        self._pad_hi = max(0, int(offsets.max()) + num_rows - num_cols)
        # Lazily-allocated per-tile scratch (see _scratch): no temporaries
        # per SpMV after the first (core/blas discipline).
        self._work: tuple[np.ndarray, np.ndarray] | None = None

    # -- attributes ------------------------------------------------------

    @property
    def offsets(self) -> np.ndarray:
        """Shared sorted diagonal offsets, shape ``(num_diags,)``."""
        return self._offsets

    @property
    def num_diags(self) -> int:
        """Stored diagonals (the whole index metadata of the format)."""
        return self._offsets.shape[0]

    @property
    def nnz_per_system(self) -> int:
        """In-band stored positions per batch entry (fringe excluded)."""
        return sum(hi - lo for _, _, lo, hi in self._spans)

    @property
    def stored_per_system(self) -> int:
        """Stored values per batch entry, including fringe padding."""
        return self.num_diags * self.num_rows

    def fringe_mask(self) -> np.ndarray:
        """Boolean ``(num_diags, num_rows)`` mask of out-of-matrix positions."""
        mask = np.ones((self.num_diags, self.num_rows), dtype=bool)
        for k, _, lo, hi in self._spans:
            mask[k, lo:hi] = False
        return mask

    def padding_fraction(self) -> float:
        """Fraction of stored values that is fringe padding."""
        stored = self.stored_per_system
        return 0.0 if stored == 0 else 1.0 - self.nnz_per_system / stored

    # -- the format contract -----------------------------------------------

    @property
    def pattern(self) -> tuple[np.ndarray]:
        return (self._offsets,)

    def with_values(self, values: np.ndarray) -> "BatchDia":
        return BatchDia(self.num_cols, self._offsets, values, check=False)

    def entries(self):
        """Every in-band position of every stored diagonal, stored zeros
        included — the honest stored pattern of the batch."""
        bands = [np.arange(lo, hi, dtype=np.int64) for _, _, lo, hi in self._spans]
        lengths = [band.size for band in bands]
        rows = np.concatenate(bands)
        cols = rows + np.repeat(self._offsets.astype(np.int64), lengths)
        slot = np.repeat(np.arange(self.num_diags), lengths)
        order = np.argsort(rows * self.num_cols + cols, kind="stable")
        rows = rows[order]
        return rows, cols[order], (slot[order], rows)

    @classmethod
    def from_entries(cls, num_rows, num_cols, rows, cols, values) -> "BatchDia":
        """One band per distinct ``col - row``; in-band positions the
        entries skip (e.g. the XGC stencil's boundary holes) become
        explicit zeros."""
        diag_of = np.asarray(cols, dtype=np.int64) - rows
        offsets = np.unique(diag_of)
        if offsets.size == 0:
            offsets = np.zeros(1, dtype=np.int64)
        bands = np.zeros((values.shape[0], offsets.size, num_rows), dtype=values.dtype)
        bands[:, np.searchsorted(offsets, diag_of), rows] = values
        return cls(num_cols, offsets, bands, check=False)

    # -- matrix-vector product ---------------------------------------------

    def _scratch(self, tile: int, x_dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
        """Reused ``(tile, ...)`` zero-padded ``x`` rows and product rows."""
        work = self._work
        if work is None or work[0].shape[0] < tile or work[0].dtype != x_dtype:
            width = self._pad_lo + self.num_cols + self._pad_hi
            work = self._work = (
                np.zeros((tile, width), dtype=x_dtype),
                np.empty((tile, self.num_rows), dtype=self._values.dtype),
            )
        return work

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Batched gather-free SpMV ``out[k] = A[k] @ x[k]``.

        One shifted-slice multiply-add per stored diagonal (9 for the XGC
        stencil), vectorised over a tile of systems x rows.  No index array
        is read and no gather is issued: the diagonal structure *is* the
        addressing.

        The batch is walked in tiles of :func:`~repro.core.types.batch_tile`
        systems so a tile's ``x``, ``out`` and scratch stay cache-resident
        across all diagonal passes.  Each tile's ``x`` is copied into
        zero-padded rows, so every diagonal multiplies full rows and adds
        into contiguous ``out`` rows (NumPy runs in-place adds on partial
        rows several times slower).  Fringe rows then add ``0.0 * 0.0``,
        which leaves an accumulator that starts at ``+0.0`` unchanged, so
        results are bit-identical to skipping the fringe; each row is still
        computed independently.
        """
        self._shape.compatible_vector(x, "x")
        num_batch, num_rows, num_cols = self.num_batch, self.num_rows, self.num_cols
        if out is None:
            out = np.empty((num_batch, num_rows), dtype=self._values.dtype)
        values = self._values
        pad = self._pad_lo
        tile = min(num_batch, batch_tile(num_rows, out.itemsize))
        xpad, prod = self._scratch(tile, x.dtype)
        for t0 in range(0, num_batch, tile):
            t1 = min(t0 + tile, num_batch)
            xp, p, vt, ot = xpad[: t1 - t0], prod[: t1 - t0], values[t0:t1], out[t0:t1]
            xp[:, pad : pad + num_cols] = x[t0:t1]
            ot[...] = 0.0
            for k, d, lo, hi in self._spans:
                if lo >= hi:
                    continue
                np.multiply(vt[:, k, :], xp[:, pad + d : pad + d + num_rows], out=p)
                ot += p
        return out
