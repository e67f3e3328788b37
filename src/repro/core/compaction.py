"""Active-batch compaction for the batched iterative solvers.

The paper's fused kernels stop *charging* work for converged systems by
per-system masking — but the host solvers here still execute every BLAS-1
statement over the full batch, so a batch that is 90 % converged pays 100 %
of the arithmetic for its last stragglers.  :class:`BatchCompactor` closes
that gap: once the active fraction of the batch drops below a threshold,
the still-active systems are *gathered* into a compact sub-batch (matrix
values via ``take_batch``, every named per-system array by ``np.take``,
preconditioner and stopping criterion via their ``restrict`` views) and the
solver keeps iterating on the compact arrays; results are scattered back to
the full batch on exit.

Per-system numerics are **bit-identical** with compaction on or off: every
kernel in the solve (SpMV, dots, norms, masked updates) computes each
system independently along the batch axis, so gathering systems changes
which rows exist — never what any row computes.  The tests in
``tests/core/test_compaction.py`` assert exact equality of per-system
iteration counts and residual norms across the whole solver family.

The compactor also keeps the map from compact rows to original batch
positions (:attr:`~BatchCompactor.indices`,
:meth:`~BatchCompactor.global_indices`); the iteration driver writes its
full-size per-system results through it.
"""

from __future__ import annotations

import numpy as np

from .stop import StoppingCriterion

__all__ = ["BatchCompactor", "COMPACT_MIN_BATCH"]

#: Batches of at most this many systems are never compacted — the gather
#: overhead cannot pay off on tiny remainders.
COMPACT_MIN_BATCH = 4


class BatchCompactor:
    """Gathers the active systems of a batched solve into a compact batch.

    Parameters
    ----------
    criterion:
        The solver's stopping criterion.  After each compaction event the
        compactor holds a restricted view; solvers must check convergence
        through :attr:`criterion` rather than the solver-level instance.
    threshold:
        Compact when ``num_active <= threshold * batch_size``.  ``None``
        disables compaction entirely.  Batches of at most
        :data:`COMPACT_MIN_BATCH` systems are never compacted.
    enabled:
        Master switch (e.g. False when the matrix format has no
        ``take_batch``).
    slabs:
        The two gather slab sets, e.g. a workspace's ``compaction_slabs``
        so successive solves reuse them; a fresh pair when omitted.
    """

    def __init__(
        self,
        criterion: StoppingCriterion,
        *,
        threshold: float | None = 0.5,
        enabled: bool = True,
        slabs: tuple[dict, dict] | None = None,
    ) -> None:
        self.criterion = criterion
        self.threshold = threshold
        self.enabled = bool(enabled) and threshold is not None
        self._idx: np.ndarray | None = None  # global indices of current rows
        self.num_events = 0
        # Double-buffered gather scratch: each compaction event writes its
        # gathered arrays into preallocated slabs via ``np.take(..., out=)``
        # instead of allocating fresh temporaries.  Two slab sets alternate
        # because the sources of event N+1 are the outputs of event N — the
        # gather must never read and write the same slab.
        self._slabs: tuple[dict, dict] = slabs if slabs is not None else ({}, {})
        self._turn = 0
        self._capacity = 0

    # -- state -------------------------------------------------------------

    @property
    def indices(self) -> np.ndarray | None:
        """Global batch indices of the current (compact) rows."""
        return self._idx

    def global_indices(self, local_mask: np.ndarray) -> np.ndarray:
        """Translate a local boolean mask into global integer indices."""
        if self._idx is None:
            return np.flatnonzero(local_mask)
        return self._idx[local_mask]

    # -- the compaction decision and the gather ------------------------------

    def should_compact(self, active: np.ndarray) -> bool:
        """Whether gathering the active systems is worthwhile right now."""
        if not self.enabled:
            return False
        size = active.size
        if size <= COMPACT_MIN_BATCH:
            return False
        num_active = int(np.count_nonzero(active))
        return 0 < num_active < size and num_active <= self.threshold * size

    def compact(
        self,
        active: np.ndarray,
        matrix,
        b: np.ndarray,
        precond,
        arrays: dict[str, np.ndarray],
        x_full: np.ndarray,
    ):
        """Gather the active systems; returns the compacted solve state.

        Returns ``(matrix, b, precond, arrays)`` with the matrix, ``b`` and
        every named array of ``arrays`` reduced to the active rows, or
        ``None`` when the criterion or preconditioner cannot be restricted
        — the solver then simply keeps the full batch.

        ``arrays["x"]`` is the current (possibly compact) iterate; it is
        scattered into ``x_full``, the original full-size solution array,
        before the gather, so systems dropped now retain their final values.
        """
        sel = np.flatnonzero(active)
        sub_criterion = self.criterion.restrict(sel)
        sub_precond = precond.restrict(sel)
        if sub_criterion is None or sub_precond is None:
            self.enabled = False
            return None

        if self._idx is not None:
            # Persist the progress of the systems this event drops.
            x_full[self._idx] = arrays["x"]
            self._idx = self._idx[sel]
        else:
            self._idx = sel
        self.criterion = sub_criterion
        self.num_events += 1

        store = self._slabs[self._turn]
        self._turn ^= 1
        if self._capacity < sel.size:
            self._capacity = sel.size  # the first event sizes all slabs

        values_out = self._slab(store, "matrix", matrix.values)
        return (
            matrix.take_batch(sel, values_out=values_out),
            self._take(store, "b", b, sel),
            sub_precond,
            {name: self._take(store, name, a, sel) for name, a in arrays.items()},
        )

    def _slab(self, store: dict, key: str, src: np.ndarray) -> np.ndarray:
        """This event's preallocated buffer for gathered rows of ``src``."""
        buf = store.get(key)
        if (
            buf is None
            or buf.shape[0] < self._capacity
            or buf.shape[1:] != src.shape[1:]
            or buf.dtype != src.dtype
        ):
            buf = np.empty((self._capacity,) + src.shape[1:], dtype=src.dtype)
            store[key] = buf
        return buf

    def _take(self, store: dict, key: str, src: np.ndarray, sel: np.ndarray):
        """Gather ``src[sel]`` into this event's preallocated slab."""
        out = self._slab(store, key, src)[: sel.size]
        np.take(src, sel, axis=0, out=out)
        return out

    def finalize(self, x_full: np.ndarray, x: np.ndarray) -> None:
        """Scatter the compact iterate back into the full solution array."""
        if self._idx is not None:
            x_full[self._idx] = x
