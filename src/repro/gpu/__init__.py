"""GPU execution-model simulator.

Substitutes for the paper's physical V100 / A100 / MI100 / Skylake testbed:
a first-principles performance model parameterised by the Table I hardware
catalog.  The numerics run in :mod:`repro.core`; this package turns their
measured per-system iteration counts into modelled wall-clock times,
scheduling behaviour (the MI100 staircase), profiler metrics (Table II),
and CPU-baseline costs.
"""

from .cpu_model import CpuSolveEstimate, estimate_cpu_dgbsv
from .hardware import (
    A100,
    GPUS,
    H100,
    MI100,
    MI250X,
    PVC,
    SKYLAKE_NODE,
    TABLE1_GPUS,
    V100,
    CpuSpec,
    GpuSpec,
)
from .kernel import (
    KernelWork,
    banded_lu_work,
    banded_qr_work,
    dense_lu_work,
    escalation_work,
    iteration_work,
    reduction_phase_count,
    reduction_round_scale,
    reduction_rounds,
    setup_work,
    spmv_work,
    storage_for_solver,
)
from .memory import MemoryEstimate, estimate_memory
from .occupancy import Occupancy, compute_occupancy
from .profiler import KernelMetrics, collect_metrics, metrics_table
from .scheduler import flexible_makespan, schedule_blocks, wave_makespan
from .trace import BlockTrace, ScheduleTrace, render_gantt, trace_schedule
from .timing import (
    GpuSolveEstimate,
    estimate_dense_lu,
    estimate_direct_qr,
    estimate_iterative_solve,
    estimate_spmv,
)
from .tuning import (
    TuningDecision,
    choose_solver_variant,
    tune_batched_solver,
    tune_for_matrix,
    variant_estimates,
)
from .warp import (
    csr_spmv_utilization,
    ell_spmv_utilization,
    solver_utilization,
    spmv_utilization,
)

__all__ = [
    "GpuSpec",
    "CpuSpec",
    "V100",
    "A100",
    "H100",
    "MI100",
    "MI250X",
    "PVC",
    "SKYLAKE_NODE",
    "GPUS",
    "TABLE1_GPUS",
    "KernelWork",
    "spmv_work",
    "iteration_work",
    "setup_work",
    "banded_lu_work",
    "banded_qr_work",
    "dense_lu_work",
    "escalation_work",
    "storage_for_solver",
    "reduction_phase_count",
    "reduction_round_scale",
    "reduction_rounds",
    "MemoryEstimate",
    "estimate_memory",
    "Occupancy",
    "compute_occupancy",
    "schedule_blocks",
    "wave_makespan",
    "flexible_makespan",
    "GpuSolveEstimate",
    "estimate_iterative_solve",
    "estimate_spmv",
    "estimate_direct_qr",
    "estimate_dense_lu",
    "TuningDecision",
    "choose_solver_variant",
    "tune_batched_solver",
    "tune_for_matrix",
    "variant_estimates",
    "CpuSolveEstimate",
    "estimate_cpu_dgbsv",
    "KernelMetrics",
    "collect_metrics",
    "metrics_table",
    "BlockTrace",
    "ScheduleTrace",
    "trace_schedule",
    "render_gantt",
    "csr_spmv_utilization",
    "ell_spmv_utilization",
    "spmv_utilization",
    "solver_utilization",
]
