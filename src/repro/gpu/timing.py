"""End-to-end solve-time estimation on the modelled GPUs.

This is the composition layer: operation counts (:mod:`.kernel`), warp
geometry (:mod:`.warp`), shared-memory placement
(:mod:`repro.core.workspace` via :func:`.kernel.storage_for_solver`),
occupancy (:mod:`.occupancy`), the cache model (:mod:`.memory`) and the
block scheduler (:mod:`.scheduler`) combine into wall-clock estimates for

* the fused batched iterative solve (one kernel launch; per-system block
  times from the *actual* per-system iteration counts of a
  :class:`~repro.core.types.SolveResult`),
* the batched SpMV kernel alone (Fig. 7), and
* the batched direct QR baseline (Fig. 6).

Per-block time follows a compute/memory roofline at thread-block-slot
granularity; the memory term is stream-weighted by lane utilisation
(``u^-0.75`` parallelism penalty): matrix/index traffic moves during the
SpMV phase at the SpMV's utilisation, vector traffic during the dense
phases.  Under-filled warps (warp-per-row CSR with 9 nnz/row) issue fewer
concurrent loads and lose achieved bandwidth even when memory-bound — this
is what separates the CSR and ELL curves of Fig. 6 in the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.solvers.schedule import solver_schedule
from ..core.workspace import StorageConfig
from .hardware import GpuSpec
from .kernel import (
    KernelWork,
    banded_qr_work,
    dense_lu_work,
    iteration_work,
    reduction_round_scale,
    reduction_rounds,
    setup_work,
    spmv_work,
    storage_for_solver,
)
from .memory import MemoryEstimate, estimate_memory
from .occupancy import Occupancy, compute_occupancy
from .scheduler import schedule_blocks
from .warp import ell_spmv_utilization, spmv_utilization, solver_utilization

__all__ = ["GpuSolveEstimate", "estimate_iterative_solve", "estimate_spmv",
           "estimate_direct_qr", "estimate_dense_lu"]


@dataclass(frozen=True)
class GpuSolveEstimate:
    """A modelled batched-solve execution.

    Attributes
    ----------
    total_time_s:
        Wall-clock of the whole batch (launch + sync + makespan).
    per_entry_time_s:
        ``total_time_s / num_batch`` (the right panel of Fig. 6).
    launch_s:
        Kernel-launch overhead component — one launch for the fused
        kernel.
    block_times_s:
        Per-system block execution times.
    storage:
        Shared-memory placement used.
    occupancy:
        Residency outcome.
    memory:
        Cache/traffic estimate per iteration (or per kernel for direct).
    warp_utilization:
        Whole-kernel lane utilisation (Table II metric).
    sync_s:
        Device-wide reduction-round cost: the schedule's sync points per
        iteration times the kernel's trip count (the batch-maximum
        iteration count) times the hardware's per-round latency.  This is
        the term the pipelined solver variants shrink.
    """

    total_time_s: float
    per_entry_time_s: float
    launch_s: float
    block_times_s: np.ndarray
    storage: StorageConfig | None
    occupancy: Occupancy
    memory: MemoryEstimate
    warp_utilization: float
    sync_s: float = 0.0


#: Exponent of the memory-parallelism penalty ``u^-MEM_PARALLEL_EXP``:
#: a warp running at lane utilisation ``u`` issues proportionally fewer
#: concurrent memory requests, costing achieved bandwidth somewhat
#: sub-linearly (latency hiding by other warps recovers part of it).
MEM_PARALLEL_EXP = 0.75


def _slot_times(
    hw: GpuSpec,
    work: KernelWork,
    occ: Occupancy,
    mem: MemoryEstimate,
    u_spmv: float,
    u_dense: float,
    *,
    compute_efficiency: float | None = None,
) -> float:
    """Roofline time of one unit of ``work`` on one block slot.

    The memory term is stream-weighted: matrix/index traffic moves during
    the SpMV phase at the SpMV's lane utilisation, vector/RHS traffic
    during the (fully-parallel) dense phases.
    """
    eff = hw.fp64_efficiency if compute_efficiency is None else compute_efficiency
    u_blend = 0.6 * u_spmv + 0.4 * u_dense
    slot_flops = hw.peak_fp64_per_cu * eff * u_blend / occ.blocks_per_cu
    t_compute = work.flops / max(slot_flops, 1.0)

    total = max(work.total_bytes, 1.0)
    frac_spmv = (work.matrix_bytes + work.index_bytes) / total
    penalty = frac_spmv / max(u_spmv, 1e-3) ** MEM_PARALLEL_EXP + (
        1.0 - frac_spmv
    ) / max(u_dense, 1e-3) ** MEM_PARALLEL_EXP
    t_memory = mem.memory_time(hw) * occ.blocks_per_cu * penalty
    return max(t_compute, t_memory)


def estimate_iterative_solve(
    hw: GpuSpec,
    fmt: str,
    num_rows: int,
    nnz: int,
    iterations: np.ndarray,
    *,
    stored_nnz: int | None = None,
    solver: str = "bicgstab",
    value_bytes: int = 8,
    shared_budget_bytes: int | None = None,
) -> GpuSolveEstimate:
    """Model the fused batched iterative solve.

    Parameters
    ----------
    hw:
        Target GPU.
    fmt:
        ``"csr"``, ``"ell"``, or ``"dia"``.
    num_rows, nnz:
        Per-system dimensions (true non-zeros).
    iterations:
        Per-system iteration counts — take them from a real
        :class:`~repro.core.types.SolveResult` so the model charges the
        numerics actually required.
    stored_nnz:
        Stored entries for padded formats (default ``nnz``).
    solver:
        Which solver's declared :class:`~repro.core.solvers.schedule.
        OpSchedule` to charge — each solver gets its own per-iteration
        work, vector footprint, and spill traffic.  Unknown names raise
        ``ValueError``.
    value_bytes:
        Bytes per stored value: 8 for fp64 (default), 4 for the fp32 and
        mixed precision policies.  Halves every value-traffic stream,
        doubles the vector capacity of the shared-memory budget, and
        doubles the usable compute throughput (GPU fp32 peak is twice the
        fp64 peak).
    shared_budget_bytes:
        Per-block dynamic shared-memory budget for the §IV-D placement.
        Defaults to ``hw.shared_budget_per_block()`` (the hardware's
        default residency target); pass
        ``hw.shared_budget_per_block(target)`` to price another residency
        target's occupancy-vs-spill trade.
    """
    iterations = np.asarray(iterations, dtype=np.float64)
    num_batch = iterations.shape[0]

    if shared_budget_bytes is None:
        shared_budget_bytes = hw.shared_budget_per_block()
    schedule = solver_schedule(solver)
    storage = storage_for_solver(
        solver, num_rows, int(shared_budget_bytes), value_bytes=value_bytes,
    )
    occ = compute_occupancy(hw, storage.shared_bytes_used, num_rows)

    iter_work = iteration_work(
        schedule, num_rows, nnz, fmt, storage,
        stored_nnz=stored_nnz, value_bytes=value_bytes,
    )
    setup = setup_work(
        schedule, num_rows, nnz, fmt, stored_nnz=stored_nnz,
        value_bytes=value_bytes,
    )

    stored = nnz if stored_nnz is None else stored_nnz
    value_b = value_bytes
    uniq_mat = stored * value_b
    # Unique shared index metadata is format-specific (DIA: offsets only);
    # take it from the per-SpMV work model rather than re-deriving it here.
    uniq_idx = spmv_work(num_rows, nnz, fmt, stored_nnz=stored_nnz).index_bytes
    mean_iters = float(iterations.mean()) if num_batch else 1.0
    active = min(num_batch, occ.total_slots)
    mem = estimate_memory(
        hw, iter_work,
        shared_bytes_per_block=storage.shared_bytes_used,
        blocks_per_cu=occ.blocks_per_cu,
        active_systems=active,
        reuse_passes=max(mean_iters, 1.0),
        unique_matrix_bytes=uniq_mat,
        unique_index_bytes=uniq_idx,
        unique_rhs_bytes=num_rows * value_b,
    )
    nnz_row = max(nnz // max(num_rows, 1), 1)
    u_spmv = spmv_utilization(fmt, num_rows, nnz_row, hw)
    u_dense = ell_spmv_utilization(num_rows, hw.warp_size)
    util = solver_utilization(fmt, num_rows, nnz_row, hw)

    # GPU fp32 peak throughput is double the fp64 peak; expressed here as
    # a compute-efficiency scale so the roofline's compute leg tracks the
    # precision policy alongside the halved value traffic.
    eff = hw.fp64_efficiency * (8.0 / value_bytes)
    t_iter = _slot_times(
        hw, iter_work, occ, mem, u_spmv, u_dense, compute_efficiency=eff
    )
    mem_setup = estimate_memory(
        hw, setup,
        shared_bytes_per_block=storage.shared_bytes_used,
        blocks_per_cu=occ.blocks_per_cu,
        active_systems=active,
        reuse_passes=1.0,
    )
    t_setup = _slot_times(
        hw, setup, occ, mem_setup, u_spmv, u_dense, compute_efficiency=eff
    )

    block_times = t_setup + iterations * t_iter
    # The whole solve is one fused kernel launch.  Its loop trips until
    # the *slowest* system converges, so the grid-wide reduction rounds
    # scale with the batch-maximum iteration count.
    iters_max = float(iterations.max()) if num_batch else 0.0
    launch = hw.launch_overhead_us * 1e-6
    # One block per system, one lane per row (capped at the 1024-lane
    # block limit): targets whose kernels compile narrower than the warp
    # (PVC SIMD16) pay extra barrier phases per reduction round.
    sync_scale = reduction_round_scale(hw, min(num_rows, 1024))
    sync_s = (
        reduction_rounds(schedule, iters_max)
        * sync_scale * hw.sync_latency_us * 1e-6
    )
    makespan = schedule_blocks(hw, occ, block_times)
    total = launch + sync_s + makespan
    return GpuSolveEstimate(
        total_time_s=total,
        per_entry_time_s=total / max(num_batch, 1),
        launch_s=launch,
        block_times_s=block_times,
        storage=storage,
        occupancy=occ,
        memory=mem,
        warp_utilization=util,
        sync_s=sync_s,
    )


def _single_kernel_estimate(
    hw: GpuSpec,
    work: KernelWork,
    num_rows: int,
    num_batch: int,
    util: float,
    *,
    reuse_passes: float,
    launches: int,
    compute_efficiency: float,
    repeats: int = 1,
) -> GpuSolveEstimate:
    """Model ``repeats`` passes of one no-shared-memory kernel over the batch.

    Every block runs one system's ``work`` at lane utilisation ``util``;
    the batch pays ``launches`` kernel launches.
    """
    occ = compute_occupancy(hw, 0, num_rows)
    mem = estimate_memory(
        hw, work,
        shared_bytes_per_block=0,
        blocks_per_cu=occ.blocks_per_cu,
        active_systems=min(num_batch, occ.total_slots),
        reuse_passes=reuse_passes,
    )
    t_block = _slot_times(
        hw, work, occ, mem, util, util, compute_efficiency=compute_efficiency
    ) * repeats
    block_times = np.full(num_batch, t_block)
    launch = hw.launch_overhead_us * 1e-6 * launches
    total = launch + schedule_blocks(hw, occ, block_times)
    return GpuSolveEstimate(
        total_time_s=total,
        per_entry_time_s=total / max(num_batch, 1),
        launch_s=launch,
        block_times_s=block_times,
        storage=None,
        occupancy=occ,
        memory=mem,
        warp_utilization=util,
    )


def estimate_spmv(
    hw: GpuSpec,
    fmt: str,
    num_rows: int,
    nnz: int,
    num_batch: int,
    *,
    stored_nnz: int | None = None,
    repeats: int = 1,
    value_bytes: int = 8,
) -> GpuSolveEstimate:
    """Model the standalone batched SpMV kernel (Fig. 7)."""
    work = spmv_work(num_rows, nnz, fmt, stored_nnz=stored_nnz, value_bytes=value_bytes)
    nnz_row = max(1, round(nnz / max(num_rows, 1)))
    return _single_kernel_estimate(
        hw, work, num_rows, num_batch,
        spmv_utilization(fmt, num_rows, nnz_row, hw),
        reuse_passes=float(max(repeats, 1)),
        launches=repeats,
        compute_efficiency=hw.fp64_efficiency * (8.0 / value_bytes),
        repeats=repeats,
    )


def estimate_dense_lu(
    hw: GpuSpec,
    num_rows: int,
    num_batch: int,
) -> GpuSolveEstimate:
    """Model a batched *dense* LU solve (the DGETRF-style related work).

    Batched dense factorisations are mature and run at good efficiency on
    GPUs — the problem for the collision systems is the cubic flop count
    itself, so this estimate deliberately grants the kernel full dense-BLAS
    efficiency (no extra penalty factor) and lets the O(n^3) work speak.
    """
    return _single_kernel_estimate(
        hw, dense_lu_work(num_rows), num_rows, num_batch,
        ell_spmv_utilization(num_rows, hw.warp_size),
        reuse_passes=float(max(num_rows // 8, 2)),  # blocked reuse
        launches=2,  # factor + solve
        compute_efficiency=hw.fp64_efficiency,
    )


def estimate_direct_qr(
    hw: GpuSpec,
    num_rows: int,
    kl: int,
    ku: int,
    num_batch: int,
) -> GpuSolveEstimate:
    """Model the cuSolver-style batched sparse QR (Fig. 6 baseline).

    The QR kernel factorises exactly: no early exit, long sequential
    rotation chains over the band.  Its compute throughput is further
    multiplied by ``hw.qr_parallel_efficiency`` (see
    :mod:`repro.gpu.hardware`).
    """
    return _single_kernel_estimate(
        hw, banded_qr_work(num_rows, kl, ku), num_rows, num_batch,
        ell_spmv_utilization(num_rows, hw.warp_size),
        reuse_passes=float(max(kl, 2)),  # band re-traversed per column sweep
        launches=3,  # analysis + factor + solve
        compute_efficiency=hw.fp64_efficiency * hw.qr_parallel_efficiency,
    )
