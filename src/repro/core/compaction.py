"""Active-batch compaction for the batched iterative solvers.

The paper's fused kernels stop *charging* work for converged systems by
per-system masking — but the host solvers here still execute every BLAS-1
statement over the full batch, so a batch that is 90 % converged pays 100 %
of the arithmetic for its last stragglers.  :class:`BatchCompactor` closes
that gap: once the active fraction of the batch drops below a threshold,
the still-active systems are *gathered* into a compact sub-batch (matrix
values via ``take_batch``, vectors by fancy indexing, preconditioner and
stopping criterion via their ``restrict`` views) and the solver keeps
iterating on the compact arrays; results are scattered back to the full
batch on exit.

Per-system numerics are **bit-identical** with compaction on or off: every
kernel in the solve (SpMV, dots, norms, masked updates) computes each
system independently along the batch axis, so gathering systems changes
which rows exist — never what any row computes.  The tests in
``tests/core/test_compaction.py`` assert exact equality of per-system
iteration counts and residual norms across the whole solver family.

The compactor also centralises the global/local index bookkeeping: the
solver's ``converged`` and ``final_norms`` arrays stay full-size and are
updated through :meth:`mark_converged` / :meth:`update_norms`, and
convergence events are logged with original batch indices through
:meth:`log_converged`.
"""

from __future__ import annotations

import numpy as np

from .logging_ import BatchLogger
from .stop import StoppingCriterion

__all__ = ["BatchCompactor"]


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
        disables compaction entirely.
    min_batch:
        Do not compact batches at or below this size — the gather overhead
        cannot pay off on tiny remainders.
    enabled:
        Master switch (e.g. False when the matrix format has no
        ``take_batch``).
    """

    def __init__(
        self,
        criterion: StoppingCriterion,
        *,
        threshold: float | None = 0.5,
        min_batch: int = 4,
        enabled: bool = True,
    ) -> None:
        self.criterion = criterion
        self.threshold = threshold
        self.min_batch = int(min_batch)
        self.enabled = bool(enabled) and threshold is not None
        self._idx: np.ndarray | None = None  # global indices of current rows
        self.num_events = 0
        # Double-buffered gather scratch: each compaction event writes its
        # gathered arrays into preallocated slabs via ``np.take(..., out=)``
        # instead of allocating fresh temporaries.  Two slab sets alternate
        # because the sources of event N+1 are the outputs of event N — the
        # gather must never read and write the same slab.
        self._slabs: tuple[dict, dict] = ({}, {})
        self._turn = 0
        self._capacity = 0

    # -- state -------------------------------------------------------------

    @property
    def compacted(self) -> bool:
        """Whether the solve currently runs on a gathered sub-batch."""
        return self._idx is not None

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
        if size <= self.min_batch:
            return False
        num_active = int(np.count_nonzero(active))
        return 0 < num_active < size and num_active <= self.threshold * size

    def compact(
        self,
        active: np.ndarray,
        matrix,
        b: np.ndarray,
        x_full: np.ndarray,
        x: np.ndarray,
        precond,
        vectors: tuple = (),
        scalars: tuple = (),
    ):
        """Gather the active systems; returns the compacted solve state.

        Returns ``(matrix, b, x, precond, active, vectors, scalars)`` with
        every array reduced to the active rows (``active`` becomes all-True
        at the new size), or ``None`` when the criterion or preconditioner
        cannot be restricted — the solver then simply keeps the full batch.

        ``x_full`` is the original full-size solution array; the current
        compact iterate ``x`` is scattered into it before re-gathering so
        systems dropped now retain their final values.
        """
        sel = np.flatnonzero(active)
        sub_criterion = self.criterion.restrict(sel)
        sub_precond = precond.restrict(sel)
        if sub_criterion is None or sub_precond is None:
            self.enabled = False
            return None

        if self._idx is not None:
            x_full[self._idx] = x  # persist progress of to-be-dropped systems
            self._idx = self._idx[sel]
        else:
            self._idx = sel
        self.criterion = sub_criterion
        self.num_events += 1

        store = self._slabs[self._turn]
        self._turn ^= 1
        if self._capacity < sel.size:
            self._capacity = sel.size  # the first event sizes all slabs

        new_active = np.ones(sel.size, dtype=bool)
        return (
            self._take_matrix(store, matrix, sel),
            self._take(store, "b", b, sel),
            self._take(store, "x", x_full, self._idx),
            sub_precond,
            new_active,
            tuple(
                self._take(store, f"v{i}", v, sel) for i, v in enumerate(vectors)
            ),
            tuple(
                self._take(store, f"s{i}", s, sel) for i, s in enumerate(scalars)
            ),
        )

    def _take(self, store: dict, key: str, src: np.ndarray, sel: np.ndarray):
        """Gather ``src[sel]`` into this event's preallocated slab."""
        buf = store.get(key)
        if (
            buf is None
            or buf.shape[0] < self._capacity
            or buf.shape[1:] != src.shape[1:]
            or buf.dtype != src.dtype
        ):
            buf = np.empty((self._capacity,) + src.shape[1:], dtype=src.dtype)
            store[key] = buf
        out = buf[: sel.size]
        np.take(src, sel, axis=0, out=out)
        return out

    def _take_matrix(self, store: dict, matrix, sel: np.ndarray):
        """Gather the active systems' matrix values into a slab when possible."""
        values = getattr(matrix, "values", None)
        if values is not None:
            buf = store.get("matrix")
            if (
                buf is None
                or buf.shape[0] < self._capacity
                or buf.shape[1:] != values.shape[1:]
                or buf.dtype != values.dtype
            ):
                buf = np.empty(
                    (self._capacity,) + values.shape[1:], dtype=values.dtype
                )
                store["matrix"] = buf
            try:
                return matrix.take_batch(sel, values_out=buf)
            except TypeError:
                pass  # format without values_out support
        return matrix.take_batch(sel)

    def finalize(self, x_full: np.ndarray, x: np.ndarray) -> None:
        """Scatter the compact iterate back into the full solution array."""
        if self._idx is not None:
            x_full[self._idx] = x

    # -- scatter helpers for the solver's full-size bookkeeping --------------

    def update_norms(
        self, full_norms: np.ndarray, local_norms: np.ndarray, local_mask: np.ndarray
    ) -> None:
        """``full_norms[sys] = local_norms[sys]`` for masked local systems."""
        if self._idx is None:
            np.copyto(full_norms, local_norms, where=local_mask)
        else:
            full_norms[self._idx[local_mask]] = local_norms[local_mask]

    def mark_converged(self, full_mask: np.ndarray, local_mask: np.ndarray) -> None:
        """Raise the full-size converged flags for masked local systems."""
        if self._idx is None:
            full_mask |= local_mask
        else:
            full_mask[self._idx[local_mask]] = True

    def log_converged(
        self,
        logger: BatchLogger,
        iteration: int,
        local_norms: np.ndarray,
        local_mask: np.ndarray,
    ) -> None:
        """Log a convergence event with original batch indices."""
        logger.log_converged(
            iteration, self.global_indices(local_mask), local_norms[local_mask]
        )
