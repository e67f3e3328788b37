"""Core value types shared by the batched solver stack.

This module defines the small, immutable descriptor types used throughout
:mod:`repro.core`:

* :class:`BatchShape` — the dimensions of a batch of equally-sized systems.
* :class:`SolveResult` — everything a batched solve returns, including
  per-system iteration counts and residual histories needed by the
  performance model and the Picard driver.
* Exception types for dimension and convergence errors.

The reference GPU implementation (Ginkgo's batched solvers) templatizes its
kernels over value type; in this reproduction everything is float64
(``DTYPE``), matching the double-precision runs reported in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .faults import derive_health

__all__ = [
    "DTYPE",
    "INDEX_DTYPE",
    "L2_TILE_BYTES",
    "batch_tile",
    "dia_tile",
    "BatchShape",
    "SolveResult",
    "DimensionMismatch",
    "ConvergenceError",
    "InvalidFormatError",
]

#: Value dtype used by every kernel (paper runs are FP64).
DTYPE = np.float64

#: Index dtype used for sparsity metadata (matches GPU int32 indices).
INDEX_DTYPE = np.int32

#: Cache budget of one batch tile of the host SpMV kernels, so every pass
#: of a tile re-reads its rows from L2 instead of memory — the host
#: counterpart of the paper's shared-memory residency (Section IV-D).
#: ELL tiles by :func:`batch_tile`, DIA by :func:`dia_tile`.
L2_TILE_BYTES = 1 << 20


def batch_tile(num_rows: int, itemsize: int) -> int:
    """Systems per ELL SpMV tile: four rows of ``num_rows`` x ``itemsize``
    bytes per system (``x``, ``out``, the gather and the product scratch)
    fit in :data:`L2_TILE_BYTES` (33 systems at n = 992 in fp64).

    It is also the unit of the Picard shard plan
    (:data:`repro.xgc.picard.MIN_SHARD_TILES`).
    """
    return max(1, L2_TILE_BYTES // (4 * num_rows * itemsize))


def dia_tile(num_diags: int, num_rows: int, itemsize: int) -> int:
    """Systems per DIA SpMV tile: a system's ``num_diags + 2`` rows of
    products, padded ``x`` and ``out``, plus the ``num_diags`` rows of
    values its multiply streams past them, fit in :data:`L2_TILE_BYTES`
    (6 systems of 9 diagonals at n = 992 in fp64)."""
    return max(1, L2_TILE_BYTES // ((2 * num_diags + 2) * num_rows * itemsize))


class DimensionMismatch(ValueError):
    """Raised when operands of a batched operation have inconsistent shapes."""


class ConvergenceError(RuntimeError):
    """Raised when a solver is asked to enforce convergence and fails."""


class InvalidFormatError(ValueError):
    """Raised when a matrix payload violates its format's invariants."""


@dataclass(frozen=True)
class BatchShape:
    """Dimensions of a batch of identically-sized linear systems.

    Attributes
    ----------
    num_batch:
        Number of independent systems in the batch.
    num_rows:
        Rows of each individual matrix.
    num_cols:
        Columns of each individual matrix.
    """

    num_batch: int
    num_rows: int
    num_cols: int

    def __post_init__(self) -> None:
        for name in ("num_batch", "num_rows", "num_cols"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v <= 0:
                raise ValueError(f"BatchShape.{name} must be a positive int, got {v!r}")

    @property
    def is_square(self) -> bool:
        """Whether each system in the batch is square."""
        return self.num_rows == self.num_cols

    def require_square(self) -> None:
        """Raise :class:`DimensionMismatch` unless each matrix is square."""
        if not self.is_square:
            raise DimensionMismatch(
                f"operation requires square batch entries, got "
                f"{self.num_rows}x{self.num_cols}"
            )

    def compatible_vector(self, x: np.ndarray, name: str = "x") -> np.ndarray:
        """Validate that ``x`` is a ``(num_batch, num_cols)`` batch vector."""
        if x.shape != (self.num_batch, self.num_cols):
            raise DimensionMismatch(
                f"{name} must have shape ({self.num_batch}, {self.num_cols}), "
                f"got {x.shape}"
            )
        return x


@dataclass
class SolveResult:
    """Outcome of a batched linear solve.

    Attributes
    ----------
    x:
        Solution batch vector, shape ``(num_batch, num_rows)``.
    iterations:
        Per-system iteration counts, shape ``(num_batch,)`` int64.  Direct
        solvers report 1 for every system.
    residual_norms:
        Per-system final (absolute) residual 2-norms, shape ``(num_batch,)``.
    converged:
        Per-system convergence flags, shape ``(num_batch,)`` bool.  Direct
        solvers report all-True.
    solver:
        Human-readable solver identifier (e.g. ``"bicgstab"``).
    format:
        Matrix-format identifier the solve ran with (``"csr"``, ``"ell"``,
        ``"dense"``, ``"banded"``).
    residual_history:
        Optional list of per-iteration residual-norm snapshots
        (each ``(num_batch,)``), populated when the iterative solver was
        built with ``record_history=True``; ``None`` otherwise.
    health:
        Per-system :class:`~repro.core.faults.SolverHealth` codes, shape
        ``(num_batch,)`` int8 — the breakdown taxonomy filled in by the
        iteration driver's health guards.  Solvers without driver-level
        monitoring (the direct solvers, refinement's outer loop) pass none
        and get :func:`~repro.core.faults.derive_health` of ``converged``
        and ``residual_norms``.
    """

    x: np.ndarray
    iterations: np.ndarray
    residual_norms: np.ndarray
    converged: np.ndarray
    solver: str = ""
    format: str = ""
    residual_history: Optional[list] = field(default=None, repr=False)
    health: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.health is None:
            self.health = derive_health(self.converged, self.residual_norms)

    @property
    def num_batch(self) -> int:
        """Number of systems in the solved batch."""
        return self.x.shape[0]

    @property
    def all_converged(self) -> bool:
        """True when every system met its stopping criterion."""
        return bool(np.all(self.converged))

    @property
    def max_iterations(self) -> int:
        """The largest per-system iteration count (the 'worst' system)."""
        return int(self.iterations.max())

    @property
    def total_iterations(self) -> int:
        """Sum of per-system iteration counts (total work metric)."""
        return int(self.iterations.sum())

    def require_converged(self) -> "SolveResult":
        """Raise :class:`ConvergenceError` unless every system converged."""
        if not self.all_converged:
            bad = np.flatnonzero(~self.converged)
            raise ConvergenceError(
                f"{bad.size} of {self.num_batch} systems did not converge "
                f"(first failures: {bad[:5].tolist()}); "
                f"max residual {self.residual_norms[bad].max():.3e}"
            )
        return self

    def summary(self, *, max_rows: int = 16) -> str:
        """Per-system convergence table, ready to print.

        Shows at most ``max_rows`` systems (head of the batch) plus an
        aggregate line — the quick look a user wants after a solve.
        """
        lines = [
            f"{self.solver or 'solve'} on {self.num_batch} systems "
            f"({self.format or 'unknown'} format): "
            f"{int(self.converged.sum())}/{self.num_batch} converged, "
            f"iterations {int(self.iterations.min())}-"
            f"{self.max_iterations} (total {self.total_iterations})",
            f"{'system':>7} {'iters':>6} {'residual':>12} {'ok':>4}",
        ]
        shown = min(self.num_batch, max_rows)
        for k in range(shown):
            lines.append(
                f"{k:>7} {int(self.iterations[k]):>6} "
                f"{self.residual_norms[k]:12.3e} "
                f"{'yes' if self.converged[k] else 'NO':>4}"
            )
        if shown < self.num_batch:
            lines.append(f"    ... {self.num_batch - shown} more systems")
        return "\n".join(lines)
