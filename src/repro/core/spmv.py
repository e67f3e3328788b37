"""The batch-matrix contract every built-in format implements.

The paper's batched formats (Ginkgo's ``BatchCsr``/``BatchEll`` design) are
one sparsity pattern shared by every system plus per-system values.
:class:`BatchMatrix` is that idea written once.  A format supplies its
constructor and validation, its ``apply`` kernel, and four hooks:

* :attr:`~BatchMatrix.pattern` — the tuple of its shared index arrays;
* :meth:`~BatchMatrix.with_values` — the same pattern, by reference, with
  new values and no re-validation;
* :meth:`~BatchMatrix.entries` — ``(rows, cols, index)`` of its stored
  entries in CSR order, where ``values[(slice(None), *index)]`` is their
  ``(num_batch, nnz)`` value array;
* :meth:`~BatchMatrix.from_entries` — the format built from such an entry
  list.

Everything else (shape and dtype, storage accounting, ``copy``,
``astype``, ``take_batch``, ``diagonal``, ``entry_dense``, ``from_dense``)
is implemented here on top of those hooks, and
:func:`repro.core.convert.to_format` converts through the entry list, so
only the format modules know a format's data layout.

The solvers themselves need nothing beyond ``shape`` and ``apply`` (plus
``take_batch`` for active-batch compaction), so duck-typed custom formats
keep working without subclassing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..utils.validation import as_value_array
from .types import BatchShape, InvalidFormatError

__all__ = ["BatchMatrix", "residual"]


def nonzero_union(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)``, row-major, of the positions of a dense
    ``(num_batch, n, m)`` array that are non-zero in some system."""
    return np.nonzero(np.any(values != 0, axis=0))


class BatchMatrix(ABC):
    """A batch of matrices sharing one sparsity pattern, per-system values.

    Subclasses set ``_values`` and ``_shape`` in their constructor and
    implement the four hooks plus ``apply``.
    """

    format_name: str = ""
    _values: np.ndarray
    _shape: BatchShape

    # -- the per-format hooks ----------------------------------------------

    @property
    @abstractmethod
    def pattern(self) -> tuple[np.ndarray, ...]:
        """The shared index arrays (read-only by contract; ``()`` for dense)."""

    @abstractmethod
    def with_values(self, values: np.ndarray) -> "BatchMatrix":
        """This pattern, by reference, with ``values`` (not re-validated)."""

    @abstractmethod
    def entries(self) -> tuple[np.ndarray, np.ndarray, tuple]:
        """``(rows, cols, index)`` of the stored entries, in CSR order.

        CSR order is row-major with columns ascending within each row.
        ``values[(slice(None), *index)]`` is the entries' ``(num_batch,
        nnz)`` value array, and ``values[(k, *index)]`` system ``k``'s.
        """

    @classmethod
    @abstractmethod
    def from_entries(
        cls,
        num_rows: int,
        num_cols: int,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
    ) -> "BatchMatrix":
        """Build from distinct entries in CSR order with ``(num_batch,
        nnz)`` values; every entry is stored, explicit zeros included."""

    @abstractmethod
    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Batched SpMV ``out[k] = A[k] @ x[k]``."""

    # -- attributes ------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """Per-system values in the format's layout, batch axis first."""
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

    def storage_bytes(self) -> int:
        """Total bytes: values plus the shared pattern (Fig. 3 accounting)."""
        return self._values.nbytes + sum(p.nbytes for p in self.pattern)

    # -- construction and per-system access --------------------------------

    @classmethod
    def from_dense(cls, dense_values: np.ndarray) -> "BatchMatrix":
        """Build from a dense ``(num_batch, n, m)`` array.

        The shared pattern is the *union* of the systems' patterns: a
        position is stored if any system is non-zero there, so no system
        loses information.
        """
        dense_values = as_value_array(dense_values, "dense_values", ndim=3)
        rows, cols = nonzero_union(dense_values)
        _, n, m = dense_values.shape
        return cls.from_entries(n, m, rows, cols, dense_values[:, rows, cols])

    def copy(self) -> "BatchMatrix":
        """Deep copy of the values; the read-only pattern is shared."""
        return self.with_values(self._values.copy())

    def astype(self, dtype) -> "BatchMatrix":
        """Batch with values cast to ``dtype`` (self when already there).

        The pattern is shared by reference, so a cast batch can be
        refreshed in place from a same-pattern source with
        ``np.copyto(cast.values, src.values, casting="same_kind")``.
        """
        if self._values.dtype == np.dtype(dtype):
            return self
        return self.with_values(self._values.astype(dtype))

    def take_batch(
        self, indices: np.ndarray, *, values_out: np.ndarray | None = None
    ) -> "BatchMatrix":
        """Gather a sub-batch of systems into a compact batch.

        ``indices`` is an integer index array or boolean mask over the batch
        axis.  The pattern is shared by reference; only the selected
        systems' values are gathered, bit for bit, so their SpMV results are
        unchanged — the host analogue of the GPU gather that active-batch
        compaction performs.  ``values_out`` is optional preallocated
        storage for the gathered values (its leading ``len(indices)``
        systems are used), making repeated compaction events
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
        return self.with_values(gathered)

    def diagonal(self) -> np.ndarray:
        """Per-system main diagonals, shape ``(num_batch, min(n, m))``.

        Diagonal positions outside the pattern come back as 0.
        """
        rows, cols, index = self.entries()
        on = rows == cols
        diag = np.zeros(
            (self.num_batch, min(self.num_rows, self.num_cols)), dtype=self.dtype
        )
        diag[:, rows[on]] = self._values[(slice(None), *(i[on] for i in index))]
        return diag

    def entry_dense(self, batch_index: int) -> np.ndarray:
        """Materialise one batch entry as a dense 2-D array."""
        rows, cols, index = self.entries()
        out = np.zeros((self.num_rows, self.num_cols), dtype=self.dtype)
        out[rows, cols] = self._values[(batch_index, *index)]
        return out

    def _reject_repeated_columns(self) -> None:
        """Raise :class:`InvalidFormatError` if a row stores a column twice.

        ``apply`` would sum both entries while every entry-based view
        (conversions, ``diagonal``, ``entry_dense``) keeps only one.
        """
        rows, cols, _ = self.entries()
        keys = np.sort(rows * self.num_cols + cols)
        repeated = np.flatnonzero(keys[1:] == keys[:-1])
        if repeated.size:
            r, c = divmod(int(keys[repeated[0]]), self.num_cols)
            raise InvalidFormatError(f"row {r} stores column {c} more than once")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self._shape
        return (
            f"{type(self).__name__}(num_batch={s.num_batch}, "
            f"shape={s.num_rows}x{s.num_cols}, nnz={self.nnz_per_system})"
        )


def residual(
    matrix: BatchMatrix,
    x: np.ndarray,
    b: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Batched residual ``r[k] = b[k] - A[k] @ x[k]``.

    When ``out`` is given (typically a :class:`~repro.core.workspace.
    SolverWorkspace` vector) the residual is formed entirely in that buffer
    and no batch-vector-sized allocation happens — the convergence checks of
    the iterative solvers call this once per confirmation, so the hot path
    stays allocation-free.
    """
    r = matrix.apply(x, out=out)
    np.subtract(b, r, out=r)
    return r
