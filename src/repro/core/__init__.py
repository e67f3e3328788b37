"""Batched sparse linear algebra — the paper's core contribution.

Public surface:

* Formats: :class:`BatchCsr`, :class:`BatchEll`, :class:`BatchDia`,
  :class:`BatchDense` (shared sparsity pattern, per-system values).
* Kernels: :func:`spmv`, :func:`advanced_spmv`, the batched BLAS-1 helpers.
* Solvers: :func:`make_solver` / :class:`BatchBicgstab` et al., plus the
  direct baselines (:class:`BatchBandedLu`, :class:`BatchBandedQr`).
* Components: preconditioners, stopping criteria, per-system loggers, and
  the §IV-D shared-memory placement planner.
* Precision: :func:`precision_policy` (``fp64`` / ``fp32`` / ``mixed``)
  and :class:`RefinementSolver` for fp64-accurate low-precision solves.
"""

from .batch_csr import BatchCsr
from .batch_dense import (
    BatchDense,
    batch_axpy,
    batch_copy,
    batch_dot,
    batch_norm2,
    batch_scale,
)
from .batch_dia import BatchDia
from .batch_ell import PAD_COL, BatchEll
from .blas import (
    axpby,
    fused_dots,
    fused_update,
    masked_assign,
    masked_axpy,
    masked_fill,
    pipelined_cg_update,
)
from .compaction import BatchCompactor
from .convert import (
    csr_to_dense,
    csr_to_dia,
    csr_to_ell,
    dense_to_csr,
    dense_to_dia,
    dense_to_ell,
    dia_to_csr,
    dia_to_dense,
    dia_to_ell,
    ell_to_csr,
    ell_to_dense,
    ell_to_dia,
    to_format,
)
from .faults import (
    HealthOptions,
    SolverHealth,
    derive_health,
    health_counts,
    summarize_health,
    worst_health,
)
from .logging_ import BatchLogger
from .precision import (
    FP32,
    FP64,
    MIXED,
    PrecisionPolicy,
    policy_for_dtype,
    precision_policy,
)
from .preconditioners import (
    BatchPreconditioner,
    BlockJacobiPreconditioner,
    IdentityPreconditioner,
    Ilu0Preconditioner,
    JacobiPreconditioner,
    make_preconditioner,
)
from .solvers import (
    BatchBandedLu,
    BatchBandedQr,
    BatchDenseLu,
    BatchBicgstab,
    BatchThomas,
    BatchTridiag,
    BatchCg,
    BatchCgs,
    BatchGmres,
    BatchPipelinedBicgstab,
    BatchPipelinedCg,
    BatchRichardson,
    EscalationReport,
    EscalationSolver,
    RefinementSolver,
    MonolithicBlockSolver,
    assemble_block_diagonal,
    banded_lu_solve,
    banded_qr_solve,
    dense_lu_solve,
    extract_tridiagonal,
    make_solver,
    thomas_solve,
)
from .scaling import ScaledSystem, row_scaling, symmetric_scaling
from .spmv import BatchMatrix, advanced_spmv, residual, spmv
from .stop import (
    AbsoluteResidual,
    CombinedCriterion,
    RelativeResidual,
    StoppingCriterion,
    make_criterion,
)
from .types import (
    DTYPE,
    INDEX_DTYPE,
    BatchShape,
    ConvergenceError,
    DimensionMismatch,
    InvalidFormatError,
    SolveResult,
)
from .workspace import (
    SolverWorkspace,
    StorageConfig,
    VectorSpec,
    plan_storage,
    solver_vector_specs,
)

__all__ = [
    # formats
    "BatchCsr",
    "BatchEll",
    "BatchDia",
    "BatchDense",
    "PAD_COL",
    # kernels
    "spmv",
    "advanced_spmv",
    "residual",
    "BatchMatrix",
    "batch_dot",
    "batch_norm2",
    "batch_axpy",
    "batch_scale",
    "batch_copy",
    "axpby",
    "fused_dots",
    "fused_update",
    "masked_assign",
    "pipelined_cg_update",
    "masked_axpy",
    "masked_fill",
    "BatchCompactor",
    # conversions
    "to_format",
    "csr_to_ell",
    "ell_to_csr",
    "csr_to_dense",
    "ell_to_dense",
    "dense_to_csr",
    "dense_to_ell",
    "csr_to_dia",
    "dia_to_csr",
    "ell_to_dia",
    "dia_to_ell",
    "dia_to_dense",
    "dense_to_dia",
    # solvers
    "make_solver",
    "BatchBicgstab",
    "BatchCg",
    "BatchCgs",
    "BatchGmres",
    "BatchPipelinedBicgstab",
    "BatchPipelinedCg",
    "BatchRichardson",
    "RefinementSolver",
    "EscalationSolver",
    "EscalationReport",
    "BatchBandedLu",
    "BatchBandedQr",
    "BatchDenseLu",
    "dense_lu_solve",
    "banded_lu_solve",
    "banded_qr_solve",
    "BatchThomas",
    "BatchTridiag",
    "thomas_solve",
    "extract_tridiagonal",
    "MonolithicBlockSolver",
    "assemble_block_diagonal",
    # scaling
    "ScaledSystem",
    "row_scaling",
    "symmetric_scaling",
    # components
    "BatchPreconditioner",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "BlockJacobiPreconditioner",
    "Ilu0Preconditioner",
    "make_preconditioner",
    "StoppingCriterion",
    "AbsoluteResidual",
    "RelativeResidual",
    "CombinedCriterion",
    "make_criterion",
    "BatchLogger",
    # health / robustness
    "SolverHealth",
    "HealthOptions",
    "health_counts",
    "worst_health",
    "summarize_health",
    "derive_health",
    # precision
    "PrecisionPolicy",
    "precision_policy",
    "policy_for_dtype",
    "FP64",
    "FP32",
    "MIXED",
    "SolverWorkspace",
    "StorageConfig",
    "VectorSpec",
    "plan_storage",
    "solver_vector_specs",
    # types
    "DTYPE",
    "INDEX_DTYPE",
    "BatchShape",
    "SolveResult",
    "DimensionMismatch",
    "ConvergenceError",
    "InvalidFormatError",
]
