"""Operation-count models of the batched kernels.

Every timing estimate starts from an exact account of the work one *system*
(one thread block) performs: floating-point operations and the bytes it
moves per memory stream.  These counts are derived from the algorithms as
implemented in :mod:`repro.core` — they are bookkeeping, not calibration.

Streams are kept separate because they hit different memory levels:

* ``matrix_bytes`` — per-system non-zero values (read once per SpMV);
* ``index_bytes`` — the *shared* sparsity metadata (read per SpMV but
  identical for every system, so highly cacheable);
* ``vector_bytes`` — traffic of solver vectors that the §IV-D planner
  could not fit into shared memory (shared-resident vectors cost nothing
  here);
* ``rhs_bytes`` — right-hand-side reads (global, read-only, cacheable).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..core.solvers.schedule import OpSchedule, solver_schedule
from ..core.workspace import StorageConfig, plan_storage

__all__ = [
    "KernelWork",
    "spmv_work",
    "iteration_work",
    "setup_work",
    "banded_lu_work",
    "banded_qr_work",
    "escalation_work",
    "reduction_phase_count",
    "reduction_round_scale",
    "reduction_rounds",
    "storage_for_solver",
]

VALUE_BYTES = 8
INDEX_BYTES = 4


@dataclass(frozen=True)
class KernelWork:
    """Per-system work of one kernel invocation (or one iteration).

    Attributes
    ----------
    flops:
        Floating-point operations.
    matrix_bytes:
        Per-system matrix-value traffic.
    index_bytes:
        Shared sparsity-metadata traffic (same data for all systems).
    vector_bytes:
        Global-memory solver-vector traffic (reads + writes).
    rhs_bytes:
        Right-hand-side / solution global traffic.
    """

    flops: float
    matrix_bytes: float = 0.0
    index_bytes: float = 0.0
    vector_bytes: float = 0.0
    rhs_bytes: float = 0.0

    def __add__(self, other: "KernelWork") -> "KernelWork":
        return KernelWork(
            flops=self.flops + other.flops,
            matrix_bytes=self.matrix_bytes + other.matrix_bytes,
            index_bytes=self.index_bytes + other.index_bytes,
            vector_bytes=self.vector_bytes + other.vector_bytes,
            rhs_bytes=self.rhs_bytes + other.rhs_bytes,
        )

    def scaled(self, factor: float) -> "KernelWork":
        """Work repeated ``factor`` times."""
        return KernelWork(
            flops=self.flops * factor,
            matrix_bytes=self.matrix_bytes * factor,
            index_bytes=self.index_bytes * factor,
            vector_bytes=self.vector_bytes * factor,
            rhs_bytes=self.rhs_bytes * factor,
        )

    @property
    def total_bytes(self) -> float:
        """All streams combined (before cache filtering)."""
        return (
            self.matrix_bytes + self.index_bytes + self.vector_bytes + self.rhs_bytes
        )


@lru_cache(maxsize=4096)
def spmv_work(
    num_rows: int,
    nnz: int,
    fmt: str,
    *,
    stored_nnz: int | None = None,
    value_bytes: int = VALUE_BYTES,
) -> KernelWork:
    """One batched SpMV, per system.

    ``stored_nnz`` covers ELL/DIA padding (stored entries can exceed the
    true non-zero count); defaults to ``nnz``.  The DIA kernel reads no
    column indices at all — its index metadata is one offset per stored
    diagonal (``stored / num_rows`` of them) — but pays the padded-fringe
    flops and value traffic like ELL pays its padding.  ``value_bytes``
    is the size of one stored value (8 for fp64, 4 for fp32): value and
    vector traffic scale with it, index metadata does not.
    """
    stored = nnz if stored_nnz is None else stored_nnz
    if fmt == "csr":
        index_bytes = (stored + num_rows + 1) * INDEX_BYTES
    elif fmt == "ell":
        index_bytes = stored * INDEX_BYTES
    elif fmt == "dia":
        num_diags = max(stored // max(num_rows, 1), 1)
        index_bytes = num_diags * INDEX_BYTES
    elif fmt == "dense":
        stored = num_rows * num_rows
        index_bytes = 0
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return KernelWork(
        flops=2.0 * stored,
        matrix_bytes=stored * value_bytes,
        index_bytes=index_bytes,
        # Input vector is gathered (cache-friendly) and output written once;
        # both usually live in shared memory for the fused solver — the
        # caller zeroes vector_bytes when that is the case.
        vector_bytes=2.0 * num_rows * value_bytes,
    )


def reduction_rounds(schedule: OpSchedule, num_iterations: float) -> float:
    """Device-wide reduction rounds of one fused solve, from the schedule.

    A round is one grid-wide synchronization + scalar broadcast: a bare
    ``batch_dot`` or ``batch_norm2`` costs one, a ``fused_dots`` call
    costs one *regardless of how many dots it carries* — exactly what the
    schedules' ``syncs`` channel declares and the conformance tests
    measure.  ``num_iterations`` is the kernel's trip count — the batch
    *maximum* per-system iteration count, since the loop of the fused
    kernel runs until the slowest system converges (frozen systems ride
    along in masked no-op form but the barrier still costs every block).
    """
    return schedule.setup_syncs + schedule.amortized("syncs") * num_iterations


def reduction_phase_count(num_lanes: int, width: int) -> int:
    """Barrier-separated phases of one block-wide reduction at SIMD ``width``.

    Each phase reduces ``width`` partial sums per SIMD group via shuffles
    (barrier-free), then the group leaders write to shared local memory
    and a barrier separates the next phase: ``num_lanes`` lanes need
    ``ceil(log_width(num_lanes))`` such phases.  A narrower compiled
    SIMD width therefore means *more* barrier phases for the same block
    — the Ponte Vecchio SIMD16-vs-SIMD32 effect (arXiv:2308.08417).
    """
    if num_lanes < 1 or width < 2:
        raise ValueError("need num_lanes >= 1 and width >= 2")
    phases = 0
    remaining = num_lanes
    while remaining > 1:
        remaining = -(-remaining // width)
        phases += 1
    return max(phases, 1)


def reduction_round_scale(hw, num_lanes: int) -> float:
    """Cost multiplier on one reduction round for ``hw``'s compiled width.

    ``sync_latency_us`` is calibrated for kernels that reduce at the
    native warp width; a target whose kernels compile to a *narrower*
    ``subgroup_width`` (PVC's SIMD16) pays proportionally more
    barrier-separated phases per round.  Identical widths give exactly
    ``1.0``, so CUDA/HIP targets' bills are untouched.
    """
    if hw.subgroup_width == hw.warp_size:
        return 1.0
    return (
        reduction_phase_count(num_lanes, hw.subgroup_width)
        / reduction_phase_count(num_lanes, hw.warp_size)
    )


@lru_cache(maxsize=4096)
def storage_for_solver(
    solver: str,
    num_rows: int,
    shared_budget_bytes: int,
    *,
    value_bytes: int = VALUE_BYTES,
) -> StorageConfig:
    """Shared-memory placement for a solver's auxiliary vectors (§IV-D).

    fp32 vectors (``value_bytes=4``) are half the size, so the same
    shared-memory budget holds twice as many — the placement genuinely
    changes with the precision policy.
    """
    return plan_storage(
        solver_schedule(solver).vectors, num_rows, shared_budget_bytes,
        value_bytes=value_bytes,
    )


@lru_cache(maxsize=4096)
def iteration_work(
    schedule: OpSchedule,
    num_rows: int,
    nnz: int,
    fmt: str,
    storage: StorageConfig,
    *,
    stored_nnz: int | None = None,
    value_bytes: int = VALUE_BYTES,
) -> KernelWork:
    """One solver iteration, per system, derived from its declared schedule.

    Flops: each SpMV costs its format-specific count, dots and norms 2n,
    axpy-like updates 2n, preconditioner applies n (Jacobi's diagonal
    scaling, the one apply the model prices); cyclic extras (GMRES restart
    boundaries) are amortised over the cycle length.  Global-vector
    traffic is charged only for the vectors the §IV-D placement spilled —
    each pays its *declared* per-iteration touches in HBM passes, not a
    flat per-solver constant.

    Memoized: schedules, placements and :class:`KernelWork` are all frozen
    value objects, and the service's dispatcher re-prices the same
    (solver, format, precision) spec for every batch it bills — rebuilding
    the work record on every
    :func:`~repro.gpu.timing.estimate_iterative_solve` call was a measured
    hot path.
    """
    n = num_rows
    spmv = spmv_work(n, nnz, fmt, stored_nnz=stored_nnz, value_bytes=value_bytes)

    spmvs = schedule.amortized("spmvs")
    precond_applies = schedule.amortized("precond_applies")
    dots = schedule.amortized("dots")
    norms = schedule.amortized("norms")
    axpys = schedule.amortized("axpys")

    vec_flops = (
        (dots + norms) * 2.0 * n
        + axpys * 2.0 * n
        + precond_applies * n
    )

    vector_traffic = (
        schedule.spilled_touches(storage.global_vectors) * n * value_bytes
    )

    return KernelWork(
        flops=spmvs * spmv.flops + vec_flops,
        matrix_bytes=spmvs * spmv.matrix_bytes,
        index_bytes=spmvs * spmv.index_bytes,
        vector_bytes=vector_traffic,
        rhs_bytes=0.0,
    )


@lru_cache(maxsize=4096)
def setup_work(
    schedule: OpSchedule,
    num_rows: int,
    nnz: int,
    fmt: str,
    *,
    stored_nnz: int | None = None,
    value_bytes: int = VALUE_BYTES,
) -> KernelWork:
    """Per-system one-time work of a solver's priming phase.

    The declared ``setup_*`` counts (initial residual, criterion norms,
    first Krylov quantities) plus the read-b / write-x RHS traffic.
    """
    n = num_rows
    spmv = spmv_work(n, nnz, fmt, stored_nnz=stored_nnz, value_bytes=value_bytes)
    vec_flops = (
        (schedule.setup_dots + schedule.setup_norms + schedule.setup_axpys)
        * 2.0 * n
        + schedule.setup_precond_applies * n
    )
    return KernelWork(
        flops=schedule.setup_spmvs * spmv.flops + vec_flops,
        matrix_bytes=schedule.setup_spmvs * spmv.matrix_bytes,
        index_bytes=schedule.setup_spmvs * spmv.index_bytes,
        vector_bytes=0.0,
        rhs_bytes=2.0 * num_rows * value_bytes,  # read b, write x
    )


def escalation_work(
    num_rows: int,
    nnz: int,
    fmt: str,
    rungs,
    *,
    stored_nnz: int | None = None,
    shared_budget_bytes: int = 0,
    value_bytes: int = VALUE_BYTES,
    kl: int | None = None,
    ku: int | None = None,
) -> KernelWork:
    """Aggregate re-solve work of an escalation ladder, *whole batch*.

    ``rungs`` is the
    :meth:`~repro.core.solvers.escalation.EscalationReport.rung_billing`
    output — ``(solver_name, total_iterations, num_systems)`` per attempted
    rung.  Each iterative rung is billed through the same
    :class:`~repro.core.solvers.schedule.OpSchedule` machinery as a primary
    solve: one :func:`setup_work` per attempted system plus
    :func:`iteration_work` per recorded iteration.  ``"refinement"`` bills
    at the BiCGSTAB schedule (its inner sweeps) and ``"banded-lu"`` at
    :func:`banded_lu_work` per system with bandwidths
    ``kl`` / ``ku`` (default ``isqrt(num_rows)``, the paper's ~n^(1/2)
    collision-stencil band).

    Unlike the per-system counters above this returns **batch totals** —
    escalation sub-batches differ per rung, so per-system numbers would
    average over different denominators.  ``shared_budget_bytes`` defaults
    to 0 (every auxiliary vector spilled to HBM), a conservative ceiling;
    pass the hardware's ``shared_budget_per_block()`` to reproduce the
    fused-kernel placement.
    """
    band = int(max(1, round(num_rows ** 0.5)))
    kl = band if kl is None else kl
    ku = band if ku is None else ku
    total = KernelWork(flops=0.0)
    for solver_name, total_iterations, num_systems in rungs:
        if num_systems <= 0:
            continue
        if solver_name == "banded-lu":
            total = total + banded_lu_work(num_rows, kl, ku).scaled(num_systems)
            continue
        schedule_name = "bicgstab" if solver_name == "refinement" else solver_name
        schedule = solver_schedule(schedule_name)
        storage = storage_for_solver(
            schedule_name, num_rows, shared_budget_bytes, value_bytes=value_bytes,
        )
        per_iter = iteration_work(
            schedule, num_rows, nnz, fmt, storage,
            stored_nnz=stored_nnz, value_bytes=value_bytes,
        )
        setup = setup_work(
            schedule, num_rows, nnz, fmt,
            stored_nnz=stored_nnz, value_bytes=value_bytes,
        )
        total = total + setup.scaled(num_systems) + per_iter.scaled(total_iterations)
    return total


def banded_lu_work(num_rows: int, kl: int, ku: int) -> KernelWork:
    """LAPACK ``dgbsv``-equivalent factor+solve flop count, per system.

    Standard counts: factorisation ``~2 n kl (kl + ku + 1)`` (partial
    pivoting fill included), forward/backward solve ``~2 n (2 kl + ku)``.
    """
    n = num_rows
    factor = 2.0 * n * kl * (kl + ku + 1)
    solve = 2.0 * n * (2 * kl + ku)
    bytes_touched = n * (2 * kl + ku + 1) * VALUE_BYTES * 3.0
    return KernelWork(
        flops=factor + solve,
        matrix_bytes=bytes_touched,
        rhs_bytes=2.0 * n * VALUE_BYTES,
    )


def dense_lu_work(num_rows: int) -> KernelWork:
    """Batched dense LU factor+solve flop count, per system.

    The classical ``(2/3) n^3`` factorisation plus ``2 n^2`` triangular
    solves — the cubic cost that rules batched-dense approaches out for
    the n ~ 1000 collision systems (Section II).
    """
    n = num_rows
    factor = (2.0 / 3.0) * n**3
    solve = 2.0 * n**2
    bytes_touched = n * n * VALUE_BYTES * 3.0
    return KernelWork(
        flops=factor + solve,
        matrix_bytes=bytes_touched,
        rhs_bytes=2.0 * n * VALUE_BYTES,
    )


def banded_qr_work(num_rows: int, kl: int, ku: int) -> KernelWork:
    """Batched banded Givens QR factor+solve flop count, per system.

    ``n * kl`` rotations, each touching two rows of ``kl + ku + 1``
    entries (6 flops per pair), plus the banded back substitution.
    """
    n = num_rows
    rotations = n * kl
    factor = rotations * 6.0 * (kl + ku + 1)
    solve = 2.0 * n * (kl + ku)
    bytes_touched = n * (2 * kl + ku + 1) * VALUE_BYTES * 4.0
    return KernelWork(
        flops=factor + solve,
        matrix_bytes=bytes_touched,
        rhs_bytes=2.0 * n * VALUE_BYTES,
    )
