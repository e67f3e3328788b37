"""Per-system convergence logging.

Ginkgo's batched kernels take a ``LogType`` template argument that records,
for each system in the batch, the iteration count at convergence and the
final residual norm.  :class:`BatchLogger` is the equivalent here for the
iteration counts, with an optional full residual history (used by the
convergence-study example and the tests that validate Table III); the
final norms come from the iteration driver
(:attr:`SolveResult.residual_norms <repro.core.types.SolveResult>`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["BatchLogger"]


class BatchLogger:
    """Records per-system convergence data during a batched solve.

    Parameters
    ----------
    record_history:
        When True, every iteration's per-system residual-norm vector is
        stored (O(iterations × num_batch) memory).  Off by default.
    """

    def __init__(self, record_history: bool = False) -> None:
        self.record_history = bool(record_history)
        self._iterations: np.ndarray | None = None
        self._halted: np.ndarray | None = None
        self._history: list[np.ndarray] | None = [] if record_history else None

    # -- solver-facing API -------------------------------------------------

    def initialize(self, num_batch: int) -> None:
        """Reset state for a batch of ``num_batch`` systems."""
        self._iterations = np.zeros(num_batch, dtype=np.int64)
        self._halted = np.zeros(num_batch, dtype=bool)
        if self.record_history is True:
            self._history = []

    def log_converged(self, iteration: int, indices: np.ndarray) -> None:
        """Record that the systems named by *global* batch ``indices``
        converged at ``iteration`` (0-based; logged as ``iteration + 1``).

        The compacted solve path works on a gathered sub-batch; it reports
        convergence with the systems' original batch indices.
        """
        if self._iterations is None:
            raise RuntimeError("logger used before initialize()")
        self._iterations[indices] = iteration + 1

    def log_history(self, res_norms: np.ndarray) -> None:
        """Append one per-iteration residual snapshot (when enabled)."""
        if self._history is not None:
            self._history.append(res_norms.copy())

    def log_halted(self, indices: np.ndarray, trips: int) -> None:
        """Record systems deactivated *without* converging (health guards).

        ``trips`` is the number of loop trips the systems actually ran —
        a system that breaks down at entry bills 0 iterations, not
        ``max_iter``.  :meth:`finalize` will not overwrite these counts.
        """
        if self._iterations is None:
            raise RuntimeError("logger used before initialize()")
        self._iterations[indices] = trips
        self._halted[indices] = True

    def finalize(self, unconverged: np.ndarray, max_iter: int) -> None:
        """Bill ``max_iter`` to the systems that never converged.

        Systems halted early by the health guards keep the trip count
        recorded at deactivation instead of being billed ``max_iter``.
        """
        if self._iterations is None:
            raise RuntimeError("logger used before initialize()")
        self._iterations[unconverged & ~self._halted] = max_iter

    # -- user-facing API -----------------------------------------------------

    @property
    def iterations(self) -> np.ndarray:
        """Per-system iteration counts at convergence (int64)."""
        if self._iterations is None:
            raise RuntimeError("logger holds no data; run a solve first")
        return self._iterations

    @property
    def history(self) -> list[np.ndarray]:
        """Per-iteration residual-norm snapshots (requires record_history)."""
        if self._history is None:
            raise RuntimeError("history recording was not enabled")
        return self._history

    def convergence_curve(self, system: int) -> np.ndarray:
        """Residual norms of one system across iterations (from history)."""
        hist = self.history
        return np.array([h[system] for h in hist])
