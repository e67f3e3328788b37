"""Batch dispatcher: real numerics, modelled wall-clock, multi-GPU shards.

The dispatcher is where a coalesced batch meets hardware.  Each
:class:`~repro.service.coalescer.CoalescedBatch` runs the *actual* host
solver once (so the numerics — including active-batch compaction of
early-converged stragglers — are the real thing), then bills virtual
wall-clock from the models the repo already trusts:

* the sync-aware GPU cost model
  (:func:`repro.gpu.timing.estimate_iterative_solve`) prices each shard's
  kernel from the solve's *measured* per-system iteration counts;
* the PCIe transfer model (``repro.xgc.timeline.PCIE_BW``) prices moving
  each shard's matrix values + right-hand sides to the device and the
  solutions back;
* :mod:`repro.dist.partition` shards the batch across the node's GPUs
  (block scheme), and the node's ``sync_overhead_us`` is charged once,
  only when more than one rank ran.  (The node model
  :func:`repro.dist.multi_gpu.estimate_node_solve` charges it on one GPU
  too; a one-rank dispatch here pays no sync.)

The batch occupies the simulated node for the resulting makespan: the
dispatcher holds the device by ``await``-ing the virtual clock, so a
single dispatch loop serialises batches exactly like a busy GPU queue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.solvers import make_solver
from ..core.stop import AbsoluteResidual
from ..core.types import SolveResult
from ..dist.multi_gpu import GpuNode, SUMMIT_NODE
from ..dist.partition import partition_batch
from ..gpu.timing import estimate_iterative_solve
from ..xgc.timeline import PCIE_BW
from .clock import VirtualClock
from .coalescer import CoalescedBatch, CompatKey, concat_requests

__all__ = ["DispatchReport", "Dispatcher"]


@dataclass
class DispatchReport:
    """One executed batch: real results plus the modelled execution.

    Attributes
    ----------
    batch_id, key, solver_variant, flush_reason:
        Echoed from the coalesced batch.
    result:
        The real :class:`~repro.core.types.SolveResult` of the whole
        batch; request slices index its arrays.
    slices:
        Per-request slices of the batch axis, in request order.
    dispatch_time / finish_time:
        Virtual time the batch started / finished on the node.
    modelled_time_s:
        Node makespan: slowest shard (transfers + kernel) plus the
        multi-GPU sync charge.
    transfer_s:
        Slowest shard's PCIe component alone.
    num_ranks:
        GPUs that received at least one system.
    compaction_events:
        Active-batch compactions the solver performed (straggler
        re-batching through :class:`repro.core.compaction.BatchCompactor`).
    """

    batch_id: int
    key: CompatKey
    solver_variant: str
    flush_reason: str
    result: SolveResult
    slices: list[slice]
    dispatch_time: float
    finish_time: float
    modelled_time_s: float
    transfer_s: float
    num_ranks: int
    compaction_events: int


def _billing_format(key: CompatKey, matrix) -> tuple[str, int, int]:
    """(fmt, nnz, stored_nnz) as the GPU cost model wants them.

    Dense batches are billed as fully-stored ELL — every entry stored and
    touched — since the timing model prices sparse formats only.
    """
    n = int(matrix.num_rows)
    nnz = int(matrix.nnz_per_system)
    if key.fmt == "dense":
        return "ell", nnz, n * int(matrix.num_cols)
    stored = int(getattr(matrix, "stored_per_system", nnz) or nnz)
    return key.fmt, nnz, stored


class Dispatcher:
    """Runs coalesced batches and bills their modelled node makespan.

    Parameters
    ----------
    clock:
        The service's virtual clock (occupancy is expressed by sleeping
        on it).
    node:
        Simulated multi-GPU node (default: a Summit node, 6x V100).
    num_ranks:
        GPUs the dispatcher shards across, in contiguous blocks (capped
        at the node's count).
    max_iter:
        Iteration cap handed to every solver the dispatcher builds.
    degraded_precision:
        Inner-solver precision of the refinement ladder that serves
        degraded requests.
    """

    def __init__(
        self,
        clock: VirtualClock,
        *,
        node: GpuNode = SUMMIT_NODE,
        num_ranks: int = 1,
        max_iter: int = 500,
        degraded_precision: str = "mixed",
    ) -> None:
        if num_ranks < 1:
            raise ValueError("num_ranks must be at least 1")
        self.clock = clock
        self.node = node
        self.num_ranks = min(int(num_ranks), int(node.gpus_per_node))
        self.max_iter = int(max_iter)
        self.degraded_precision = degraded_precision
        self._solvers: dict[tuple, object] = {}
        self._estimates: dict[tuple, float] = {}
        #: Running totals for the service report.
        self.batches_run = 0
        self.systems_run = 0
        self.busy_s = 0.0
        self.compaction_events = 0

    # -- solver construction -------------------------------------------------

    def solver_for(self, key: CompatKey, variant: str):
        """The (cached) solver a batch with this key runs.

        Exactly the configuration a direct ``solve()`` would use — same
        preconditioner, criterion and compaction threshold — which is what
        makes service-path results bit-identical per system.
        """
        cache_key = (variant, key.tolerance, key.degraded)
        solver = self._solvers.get(cache_key)
        if solver is None:
            if key.degraded:
                solver = make_solver(
                    "refinement",
                    precision=self.degraded_precision,
                    preconditioner="jacobi",
                    criterion=AbsoluteResidual(key.tolerance),
                )
            else:
                solver = make_solver(
                    variant,
                    preconditioner="jacobi",
                    criterion=AbsoluteResidual(key.tolerance),
                    max_iter=self.max_iter,
                )
            self._solvers[cache_key] = solver
        return solver

    # -- billing -------------------------------------------------------------

    def _shard_times(
        self, key: CompatKey, matrix, result: SolveResult, variant: str
    ) -> tuple[float, float]:
        """(makespan_s, slowest_transfer_s) of the sharded batch."""
        fmt, nnz, stored = _billing_format(key, matrix)
        n = int(matrix.num_rows)
        num_batch = int(matrix.num_batch)
        value_bytes = 4 if key.degraded else int(np.dtype(key.dtype).itemsize)
        # Degraded batches run the refinement ladder; the kernel being
        # billed is its fp32/mixed inner solver.
        billed_solver = "bicgstab" if key.degraded else variant
        part = partition_batch(num_batch, min(self.num_ranks, num_batch))
        per_system_values = matrix.values.nbytes / num_batch
        per_system_vec = n * 8  # rhs in, solution out: always fp64 host data
        worst = 0.0
        worst_transfer = 0.0
        for rank in range(part.num_ranks):
            idx = part.indices_of(rank)
            if len(idx) == 0:
                continue
            est = estimate_iterative_solve(
                self.node.gpu, fmt, n, nnz, result.iterations[idx],
                stored_nnz=stored, solver=billed_solver,
                value_bytes=value_bytes,
            )
            h2d = len(idx) * (per_system_values + per_system_vec) / PCIE_BW
            d2h = len(idx) * per_system_vec / PCIE_BW
            shard = h2d + est.total_time_s + d2h
            if shard > worst:
                worst = shard
            if h2d + d2h > worst_transfer:
                worst_transfer = h2d + d2h
        if part.num_ranks > 1:
            worst += self.node.sync_overhead_us * 1e-6
        return worst, worst_transfer

    # -- execution -----------------------------------------------------------

    async def execute(self, batch: CoalescedBatch) -> DispatchReport:
        """Solve one coalesced batch and occupy the node for its makespan.

        The caller's single dispatch loop awaits this coroutine batch by
        batch, so the virtual node never overlaps two batches.
        """
        dispatch_time = self.clock.now
        matrix, b, slices = concat_requests(batch.requests)
        solver = self.solver_for(batch.key, batch.solver_variant)
        result = solver.solve(matrix, b)
        compactions = int(getattr(solver, "last_compaction_events", 0))

        ranks_used = min(self.num_ranks, matrix.num_batch)
        makespan, transfer = self._shard_times(
            batch.key, matrix, result, batch.solver_variant
        )
        await self.clock.sleep(makespan)

        self.batches_run += 1
        self.systems_run += matrix.num_batch
        self.busy_s += makespan
        self.compaction_events += compactions
        return DispatchReport(
            batch_id=batch.batch_id,
            key=batch.key,
            solver_variant=batch.solver_variant,
            flush_reason=batch.flush_reason,
            result=result,
            slices=slices,
            dispatch_time=dispatch_time,
            finish_time=self.clock.now,
            modelled_time_s=makespan,
            transfer_s=transfer,
            num_ranks=ranks_used,
            compaction_events=compactions,
        )

    def estimate_service_time(
        self, key: CompatKey, variant: str, num_systems: int,
        iterations: int = 32,
    ) -> float:
        """Cheap a-priori makespan estimate for deadline-pressure flushes.

        On a fixed node the estimate is a pure function of its arguments,
        so each distinct ``(key, variant, num_systems, iterations)`` is
        priced once per dispatcher.
        """
        memo = (key, variant, num_systems, iterations)
        hit = self._estimates.get(memo)
        if hit is None:
            fmt = "ell" if key.fmt == "dense" else key.fmt
            n = key.num_rows
            billed = "bicgstab" if key.degraded else variant
            ranks = max(1, min(self.num_ranks, num_systems))
            shard = -(-num_systems // ranks)
            hit = self._estimates[memo] = estimate_iterative_solve(
                self.node.gpu, fmt, n, max(1, n), np.full(shard, iterations),
                solver=billed,
                value_bytes=4 if key.degraded else int(np.dtype(key.dtype).itemsize),
            ).total_time_s
        return hit
