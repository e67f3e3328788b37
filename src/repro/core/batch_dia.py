"""``BatchDia``: a batch of sparse matrices in shared DIA (diagonal) layout.

The XGC collision matrix is a fixed 9-point stencil on a tensor-product
velocity grid: every non-zero sits on one of at most nine *constant
diagonals* ``col - row = d``.  CSR and ELL both spend memory traffic on
column-index arrays that, for such a matrix, encode nothing but those nine
constants — and their SpMV kernels spend an indexed gather per stored entry
to honour them.  DIA stores the shared sorted offset array ``(num_diags,)``
once for the whole batch plus per-system diagonal value bands
``(num_batch, num_diags, num_rows)``, and its SpMV is **gather-free**:
diagonal ``k`` (offset ``d``) contributes a shifted window of ``x`` ::

    out[:, r] = sum over k of values[:, k, r] * x[:, r + d]

With ``x`` copied into zero-padded rows, every window is a slice of one
row, and when the offsets form a grid (the XGC stencil's are
``-33 + 32 g + r`` for ``g, r < 3``) all nine windows are one strided view:
one multiply and one reduction over the diagonal axis per batch tile — no
``col_idxs`` load, no fancy indexing.  This extends the paper's CSR-vs-ELL
format study (Section IV-A) one step further in the direction Ginkgo's
format portfolio points: when the access pattern is a compile-time
constant, stop reading it from memory.

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
from numpy.lib.stride_tricks import as_strided

from ..utils.validation import as_index_array, as_value_array
from .spmv import BatchMatrix
from .types import BatchShape, DimensionMismatch, InvalidFormatError, dia_tile

__all__ = ["BatchDia"]


def _offset_grid(offsets: list[int]) -> tuple[int, int, int] | None:
    """``(G, R, step)`` when the sorted offsets are ``offsets[0] + step * g
    + r`` for ``g < G``, ``r < R`` (runs of ``R`` consecutive offsets,
    ``step`` apart), else None.  The XGC stencil is ``(3, 3, 32)``."""
    run = 1
    while run < len(offsets) and offsets[run] == offsets[0] + run:
        run += 1
    groups, rest = divmod(len(offsets), run)
    step = offsets[run] - offsets[0] if groups > 1 else 0
    grid = [offsets[0] + step * g + r for g in range(groups) for r in range(run)]
    return (groups, run, step) if rest == 0 and grid == offsets else None


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
        # falls inside the matrix.  Plain Python ints, so the per-diagonal
        # SpMV of a non-grid offset set does no array math.
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
        self._grid = _offset_grid(offsets.tolist())
        # Lazily-allocated per-tile scratch (see _scratch): no temporaries
        # per SpMV after the first (core/blas discipline).
        self._work: tuple | None = None

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

    def _scratch(self, tile: int, x_dtype: np.dtype):
        """Reused per-tile scratch: zero-padded ``x`` rows, the
        ``(tile, num_diags, num_rows)`` products, and (for a grid offset
        set) the strided view of the padded rows that lines ``x`` up with
        every diagonal at once."""
        work = self._work
        if work is None or work[0].shape[0] < tile or work[0].dtype != x_dtype:
            width = self._pad_lo + self.num_cols + self._pad_hi
            xpad = np.zeros((tile, width), dtype=x_dtype)
            prod = np.empty(
                (tile, self.num_diags, self.num_rows), dtype=self._values.dtype
            )
            xgrid = None
            if self._grid is not None:
                groups, run, step = self._grid
                item = xpad.itemsize
                xgrid = as_strided(
                    xpad[:, self._pad_lo + int(self._offsets[0]):],
                    shape=(tile, groups, run, self.num_rows),
                    strides=(xpad.strides[0], step * item, item, item),
                    writeable=False,
                )
            work = self._work = (xpad, prod, xgrid)
        return work

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Batched gather-free SpMV ``out[k] = A[k] @ x[k]``.

        The batch is walked in tiles of :func:`~repro.core.types.dia_tile`
        systems, three NumPy calls each.  A tile's ``x`` is copied into
        zero-padded rows, so diagonal ``d`` reads the full-width window
        starting at ``pad + d``.  One multiply writes every diagonal's
        products into a ``(tile, num_diags, num_rows)`` scratch: when the
        offsets form a grid ``offsets[0] + step * g + r`` (the XGC stencil:
        ``-33 + 32 g + r``, ``g, r < 3``) the values, viewed as ``(tile, G,
        R, num_rows)``, meet one strided view of the padded rows; any other
        offset set runs one multiply per diagonal into the same scratch.
        Then ``np.add.reduce(..., initial=0.0)`` sums the diagonal axis
        into ``out`` in ascending-offset order from ``+0.0``, so a leading
        ``-0.0`` product still sums to ``+0.0``.  No index array is read
        and no gather is issued: the diagonal structure *is* the
        addressing.

        Fringe positions multiply ``0.0`` by padding ``0.0``; adding that
        ``+0.0`` to an accumulator that starts at ``+0.0`` cannot change
        it, so results are bit-identical to skipping the fringe, and each
        row is computed independently of the tiling.
        """
        self._shape.compatible_vector(x, "x")
        num_batch, num_rows, num_cols = self.num_batch, self.num_rows, self.num_cols
        if out is None:
            out = np.empty((num_batch, num_rows), dtype=self._values.dtype)
        values = self._values
        pad = self._pad_lo
        tile = min(num_batch, dia_tile(self.num_diags, num_rows, out.itemsize))
        xpad, prod, xgrid = self._scratch(tile, x.dtype)
        if xgrid is not None:
            # Splitting the diagonal axis in two is always a view.
            grid_shape = self._grid[:2] + (num_rows,)
            values_g = values.reshape((num_batch,) + grid_shape)
            prod_g = prod.reshape((prod.shape[0],) + grid_shape)
        for t0 in range(0, num_batch, tile):
            t1 = min(t0 + tile, num_batch)
            nt = t1 - t0
            xp, p = xpad[:nt], prod[:nt]
            xp[:, pad : pad + num_cols] = x[t0:t1]
            if xgrid is not None:
                np.multiply(values_g[t0:t1], xgrid[:nt], out=prod_g[:nt])
            else:
                for k, d, _, _ in self._spans:
                    window = xp[:, pad + d : pad + d + num_rows]
                    np.multiply(values[t0:t1, k], window, out=p[:, k])
            np.add.reduce(p, axis=1, out=out[t0:t1], initial=0.0)
        return out
