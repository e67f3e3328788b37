"""Simulated multi-rank execution of the proxy app.

Executes a decomposed batch rank by rank and reports the modelled parallel
timing: per-rank solve-time estimates from the GPU model, the
synchronisation point at the end of the collision step, and the resulting
parallel efficiency.

Ranks own independent problems, so their *numerics* never depend on how
they are executed.  Ranks run one after another in the calling process;
a large rank's :class:`~repro.xgc.picard.PicardStepper` splits its own
linear solves across the usable cores.  Each rank is priced from the
stepper that solved it: its stencil, matrix format and solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.faults import HEALTH_DTYPE, SolverHealth, health_counts
from ..gpu.hardware import GpuSpec, V100
from ..gpu.timing import estimate_iterative_solve
from ..xgc.picard import PicardStepper
from .partition import Partition, partition_batch

__all__ = ["RankResult", "DistributedRun", "run_distributed"]


@dataclass
class RankResult:
    """One rank's outcome.

    Attributes
    ----------
    rank:
        Rank id.
    f_new:
        Updated distributions of the rank's systems.
    linear_iterations:
        ``(picard_iters, rank_batch)`` iteration counts.
    modelled_time_s:
        Modelled wall-clock of the rank's solves on the target GPU.
    health:
        Per-system worst :class:`~repro.core.faults.SolverHealth` the
        rank's Picard loop observed (``np.int8`` codes).
    """

    rank: int
    f_new: np.ndarray
    linear_iterations: np.ndarray
    modelled_time_s: float
    health: np.ndarray


@dataclass
class DistributedRun:
    """Results and timing summary of a simulated distributed step."""

    partition: Partition
    rank_results: list[RankResult] = field(default_factory=list)

    @property
    def makespan_s(self) -> float:
        """Parallel time: slowest rank (synchronisation at step end)."""
        return max(r.modelled_time_s for r in self.rank_results)

    @property
    def total_work_s(self) -> float:
        """Aggregate rank time (serial-equivalent work)."""
        return sum(r.modelled_time_s for r in self.rank_results)

    @property
    def parallel_efficiency(self) -> float:
        """``total_work / (ranks * makespan)`` — 1.0 is perfect balance."""
        n = len(self.rank_results)
        return self.total_work_s / (n * self.makespan_s) if n else 0.0

    def gather_f(self) -> np.ndarray:
        """Updated distributions reassembled into batch order."""
        return self.partition.gather([r.f_new for r in self.rank_results])

    def gather_health(self) -> np.ndarray:
        """Per-system health reassembled into batch order."""
        return self.partition.gather([r.health for r in self.rank_results])

    def health_counts(self) -> dict:
        """Worst-health histogram across all ranks (the MPI-reduce analogue:
        each rank reduces locally, the counts merge here)."""
        return health_counts(self.gather_health())

    @property
    def worst_health(self) -> int:
        """Single worst health code across the whole run."""
        gathered = self.gather_health()
        if gathered.size == 0:
            return int(SolverHealth.CONVERGED)
        return int(gathered.max())


def _modelled_time(stepper: PicardStepper, linear_iterations, gpu: GpuSpec) -> float:
    """GPU-model time of a rank's solves, priced from the stepper that ran them."""
    stencil = stepper.stencil
    n = stencil.num_rows
    stored = int(stencil.nnz_per_row().max()) * n
    opts = stepper.options
    return sum(
        estimate_iterative_solve(
            gpu, opts.matrix_format, n, stencil.nnz, its,
            stored_nnz=stored, solver=opts.solver,
        ).total_time_s
        for its in linear_iterations
    )


def run_distributed(
    stepper_factory,
    f0: np.ndarray,
    dt: float,
    num_ranks: int,
    *,
    scheme: str = "block",
    gpu: GpuSpec = V100,
) -> DistributedRun:
    """Run one collision step decomposed over simulated ranks.

    Parameters
    ----------
    stepper_factory:
        Callable ``(rank_indices) -> PicardStepper`` building a rank's
        stepper from the batch indices the rank owns (e.g. to slice the
        species-mass array).
    f0:
        Full batch of initial distributions, shape ``(num_batch, n)``.
    dt:
        Time-step size.
    num_ranks:
        Ranks to decompose over.
    scheme:
        Partitioning scheme (see :func:`repro.dist.partition.partition_batch`).
    gpu:
        GPU model used for the per-rank timing estimate.
    """
    part = partition_batch(f0.shape[0], num_ranks, scheme=scheme)
    run = DistributedRun(partition=part)
    for rank in range(num_ranks):
        idx = part.indices_of(rank)
        if idx.size == 0:
            run.rank_results.append(
                RankResult(rank, f0[:0], np.zeros((0, 0)), 0.0,
                           np.zeros(0, dtype=HEALTH_DTYPE))
            )
            continue
        stepper = stepper_factory(idx)
        result = stepper.step(f0[idx], dt)
        run.rank_results.append(RankResult(
            rank, result.f_new, result.linear_iterations,
            _modelled_time(stepper, result.linear_iterations, gpu),
            result.health,
        ))
    return run
