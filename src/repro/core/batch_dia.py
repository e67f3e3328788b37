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
from .types import BatchShape, DimensionMismatch, InvalidFormatError

__all__ = ["BatchDia"]


class BatchDia:
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
        # Lazily-allocated (num_batch, num_rows) scratch so apply() streams
        # each diagonal's product through a reused buffer: no batch-sized
        # temporaries per SpMV after the first (core/blas discipline).
        self._work: np.ndarray | None = None

    # -- attributes ------------------------------------------------------

    @property
    def offsets(self) -> np.ndarray:
        """Shared sorted diagonal offsets, shape ``(num_diags,)``."""
        return self._offsets

    @property
    def values(self) -> np.ndarray:
        """Per-system bands, shape ``(num_batch, num_diags, num_rows)``."""
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

    def storage_bytes(self) -> int:
        """Total bytes: padded bands + the shared offsets (Fig. 3 style)."""
        return self._values.nbytes + self._offsets.nbytes

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dense(cls, dense_values: np.ndarray, *, tol: float = 0.0) -> "BatchDia":
        """Build from a dense ``(num_batch, n, m)`` array (union pattern).

        A diagonal is stored when any system has ``|a_ij| > tol`` anywhere
        on it; in-band positions of a stored diagonal that are zero in every
        system are stored as explicit zeros (the format has no way to skip
        them — that is its padding trade-off).
        """
        dense_values = as_value_array(dense_values, "dense_values", ndim=3)
        num_batch, num_rows, num_cols = dense_values.shape
        mask = np.any(np.abs(dense_values) > tol, axis=0)
        rows, cols = np.nonzero(mask)
        diag_of = cols.astype(np.int64) - rows
        offsets = np.unique(diag_of)
        if offsets.size == 0:
            offsets = np.zeros(1, dtype=np.int64)
        bands = np.zeros((num_batch, offsets.size, num_rows), dtype=dense_values.dtype)
        slot = np.searchsorted(offsets, diag_of)
        bands[:, slot, rows] = dense_values[:, rows, cols]
        return cls(num_cols, offsets, bands, check=False)

    # -- access / conversion -----------------------------------------------

    def entry_dense(self, batch_index: int) -> np.ndarray:
        """Materialise one batch entry as a dense 2-D array."""
        out = np.zeros((self.num_rows, self.num_cols), dtype=self._values.dtype)
        for k, d, lo, hi in self._spans:
            rows = np.arange(lo, hi)
            out[rows, rows + d] = self._values[batch_index, k, lo:hi]
        return out

    def diagonal(self) -> np.ndarray:
        """Per-system main diagonals, shape ``(num_batch, min(n, m))``.

        For DIA this is a pure slice of the offset-0 band — no search, no
        gather (zeros when the main diagonal is not stored).
        """
        n = min(self.num_rows, self.num_cols)
        pos = int(np.searchsorted(self._offsets, 0))
        if pos < self.num_diags and self._offsets[pos] == 0:
            return self._values[:, pos, :n].copy()
        return np.zeros((self.num_batch, n), dtype=self._values.dtype)

    def copy(self) -> "BatchDia":
        """Deep copy (shared offset array reused; read-only by contract)."""
        return BatchDia(
            self.num_cols, self._offsets, self._values.copy(), check=False
        )

    def astype(self, dtype) -> "BatchDia":
        """Batch with bands cast to ``dtype`` (self when already there)."""
        if self._values.dtype == np.dtype(dtype):
            return self
        return BatchDia(
            self.num_cols, self._offsets, self._values.astype(dtype), check=False
        )

    def take_batch(
        self, indices: np.ndarray, *, values_out: np.ndarray | None = None
    ) -> "BatchDia":
        """Gather a sub-batch of systems into a compact batch.

        ``indices`` is an integer index array or boolean mask over the
        batch axis.  The shared offsets are reused by reference; only the
        selected systems' bands are gathered, bit-for-bit (see
        :meth:`BatchCsr.take_batch <repro.core.batch_csr.BatchCsr.take_batch>`)
        — so :class:`~repro.core.compaction.BatchCompactor` works unchanged.
        ``values_out`` is optional preallocated storage for the gathered
        bands (leading ``len(indices)`` systems used).
        """
        indices = np.asarray(indices)
        if values_out is None:
            gathered = self._values[indices]
        else:
            if indices.dtype == np.bool_:
                indices = np.flatnonzero(indices)
            gathered = values_out[: indices.size]
            np.take(self._values, indices, axis=0, out=gathered)
        return BatchDia(self.num_cols, self._offsets, gathered, check=False)

    def scale_values(self, factor: float | np.ndarray) -> "BatchDia":
        """Return a new batch with values scaled per system (or globally)."""
        factor = np.asarray(factor, dtype=self._values.dtype)
        if factor.ndim == 1:
            factor = factor[:, None, None]
        return BatchDia(
            self.num_cols, self._offsets, self._values * factor, check=False
        )

    # -- matrix-vector products ---------------------------------------------

    def _scratch(self) -> np.ndarray:
        if self._work is None:
            self._work = np.empty(
                (self.num_batch, max(self.num_rows, self.num_cols)),
                dtype=self._values.dtype,
            )
        return self._work

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Batched gather-free SpMV ``out[k] = A[k] @ x[k]``.

        One contiguous shifted-slice multiply-add per stored diagonal (9
        for the XGC stencil), vectorised over batch x rows.  No index array
        is read and no gather is issued: the diagonal structure *is* the
        addressing.  ``x`` must not alias ``out``.
        """
        self._shape.compatible_vector(x, "x")
        if out is None:
            out = np.zeros((self.num_batch, self.num_rows), dtype=self._values.dtype)
        else:
            out[...] = 0.0
        work = self._scratch()
        values = self._values
        for k, d, lo, hi in self._spans:
            if lo >= hi:
                continue
            w = work[:, : hi - lo]
            np.multiply(values[:, k, lo:hi], x[:, lo + d : hi + d], out=w)
            seg = out[:, lo:hi]
            np.add(seg, w, out=seg)
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
        (e.g. a :class:`~repro.core.workspace.SolverWorkspace` vector) that
        receives the product; with it the update is allocation-free.
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
            f"BatchDia(num_batch={s.num_batch}, shape={s.num_rows}x{s.num_cols}, "
            f"num_diags={self.num_diags})"
        )
