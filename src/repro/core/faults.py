"""Per-system solver health: the breakdown taxonomy of the batched solvers.

The paper's central operational claim is *per-system* convergence
monitoring: in a batch of thousands of collision systems one degenerate
system must neither poison its neighbours nor stall the Picard loop.  This
module gives that claim a first-class vocabulary — a :class:`SolverHealth`
status per system, kept next to its iteration count and final residual as
Ginkgo's batched logger keeps them — detected and recorded by the shared
:class:`~repro.core.solvers.base.IterationDriver` by vectorised guards:

* **non-finite** residual norms (NaN/Inf anywhere in a system's residual),
* **divergence** (residual grew by :data:`DIVERGENCE_FACTOR` over its
  start),
* **stagnation** (no relative improvement of the best residual for
  :data:`STAGNATION_WINDOW` consecutive loop trips),
* **breakdown** of the Krylov recurrences, flagged by the solver bodies
  themselves the moment a defining scalar (``rho``-family or
  ``omega``-family denominator) is exactly zero or non-finite.

Health codes are ordered *best to worst* so per-system aggregation across
solves or ranks is a plain ``np.maximum`` and "the batch's worst state" is
``health.max()``.  Unhealthy systems are deactivated on detection — they
stop iterating (and stop being charged work) while the healthy remainder
proceeds untouched; the
:class:`~repro.core.solvers.escalation.EscalationSolver` can then re-solve
exactly the unhealthy subset up a ladder of stronger methods.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

__all__ = [
    "SolverHealth",
    "DIVERGENCE_FACTOR",
    "STAGNATION_WINDOW",
    "STAGNATION_RTOL",
    "HEALTH_DTYPE",
    "health_counts",
    "worst_health",
    "summarize_health",
    "derive_health",
]

#: Storage dtype of per-system health arrays (one byte per system, like the
#: GPU status word of Ginkgo's batched stopping criterion).
HEALTH_DTYPE = np.int8


class SolverHealth(IntEnum):
    """Per-system solve status, ordered from best to worst.

    The ordering is load-bearing: ``np.maximum`` of two health arrays is
    the correct "worst of" aggregation (across Picard iterations, ranks, or
    escalation rungs).
    """

    CONVERGED = 0       #: met the stopping criterion
    ITERATING = 1       #: healthy but ran out of iteration budget
    STAGNATED = 2       #: no residual progress for a full stagnation window
    DIVERGED = 3        #: residual grew far beyond its starting value
    BREAKDOWN_RHO = 4   #: BiCG-family rho / alpha-denominator hit exact 0 or NaN
    BREAKDOWN_OMEGA = 5 #: stabiliser omega (t.s / t.t) hit exact 0 or NaN
    NON_FINITE = 6      #: NaN/Inf in the residual (poisoned operands)


#: A system is DIVERGED once its residual norm exceeds this factor times
#: its *initial* residual norm.  Scale-invariant: both sides scale with the
#: system, so uniformly rescaled batches make identical decisions.
DIVERGENCE_FACTOR = 1e8

#: Loop trips without a relative best-residual improvement of at least
#: :data:`STAGNATION_RTOL` before a system is declared STAGNATED.  The
#: clock is driver trips (Arnoldi steps for GMRES), not wall time.
STAGNATION_WINDOW = 100

#: Minimum relative improvement of the running best residual that counts
#: as progress (``new < (1 - STAGNATION_RTOL) * best``).
STAGNATION_RTOL = 1e-4


def health_counts(health: np.ndarray) -> dict[str, int]:
    """Histogram of a health array keyed by state name (zero counts omitted).

    ``health`` holds :class:`SolverHealth` codes, in any shape.
    """
    counts = np.bincount(
        np.asarray(health, dtype=np.intp).ravel(), minlength=len(SolverHealth)
    )
    return {
        state.name.lower(): int(n) for state, n in zip(SolverHealth, counts) if n
    }


def worst_health(*arrays: np.ndarray) -> np.ndarray:
    """Element-wise worst-of aggregation of per-system health arrays."""
    if not arrays:
        raise ValueError("worst_health needs at least one array")
    out = np.asarray(arrays[0], dtype=HEALTH_DTYPE).copy()
    for arr in arrays[1:]:
        np.maximum(out, np.asarray(arr, dtype=HEALTH_DTYPE), out=out)
    return out


def summarize_health(health: np.ndarray) -> str:
    """One-line human summary, e.g. ``"converged: 30, breakdown_rho: 2"``."""
    counts = health_counts(health)
    if not counts:
        return "empty batch"
    return ", ".join(f"{name}: {n}" for name, n in counts.items())


def derive_health(
    converged: np.ndarray, residual_norms: np.ndarray | None = None
) -> np.ndarray:
    """Coarse health from a solve without driver-level monitoring.

    Direct solvers and the refinement wrapper report only convergence flags
    and final norms; this maps them onto the taxonomy: CONVERGED,
    NON_FINITE (norm is NaN/Inf), or ITERATING for everything else.
    """
    converged = np.asarray(converged, dtype=bool)
    health = np.where(
        converged, SolverHealth.CONVERGED, SolverHealth.ITERATING
    ).astype(HEALTH_DTYPE)
    if residual_norms is not None:
        bad = ~converged & ~np.isfinite(np.asarray(residual_norms))
        health[bad] = SolverHealth.NON_FINITE
    return health
