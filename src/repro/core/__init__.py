"""Batched sparse linear algebra — the paper's core contribution.

Public surface:

* Formats: :class:`BatchCsr`, :class:`BatchEll`, :class:`BatchDia`,
  :class:`BatchDense` (shared sparsity pattern, per-system values).
* The format contract :class:`BatchMatrix` (shared pattern + per-system
  values), :func:`to_format`, :func:`residual`, the batched BLAS-1 helpers.
* Solvers: :func:`make_solver` / :class:`BatchBicgstab` et al., plus the
  direct baselines (:class:`BatchBandedLu`, :class:`BatchThomas`).
* Components: preconditioners, stopping criteria, and the §IV-D
  shared-memory placement planner; per-system iteration counts, residuals,
  health codes and the optional residual history come back on
  :class:`SolveResult`.
* Precision: :func:`precision_policy` (``fp64`` / ``fp32`` / ``mixed``)
  and :class:`RefinementSolver` for fp64-accurate low-precision solves.
"""

from .batch_csr import BatchCsr
from .batch_dense import BatchDense, batch_dot, batch_norm2
from .batch_dia import BatchDia
from .batch_ell import PAD_COL, BatchEll
from .blas import (
    fused_dots,
    fused_update,
    masked_assign,
    masked_axpy,
    masked_fill,
    pipelined_cg_update,
)
from .compaction import BatchCompactor
from .convert import to_format
from .faults import (
    SolverHealth,
    derive_health,
    health_counts,
    summarize_health,
    worst_health,
)
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
    IdentityPreconditioner,
    JacobiPreconditioner,
    make_preconditioner,
)
from .solvers import (
    BatchBandedLu,
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
    dense_lu_solve,
    make_solver,
    thomas_solve,
)
from .spmv import BatchMatrix, residual
from .stop import (
    AbsoluteResidual,
    CombinedCriterion,
    RelativeResidual,
    StoppingCriterion,
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
)

__all__ = [
    # formats
    "BatchCsr",
    "BatchEll",
    "BatchDia",
    "BatchDense",
    "PAD_COL",
    # kernels
    "residual",
    "BatchMatrix",
    "batch_dot",
    "batch_norm2",
    "fused_dots",
    "fused_update",
    "masked_assign",
    "pipelined_cg_update",
    "masked_axpy",
    "masked_fill",
    "BatchCompactor",
    # conversions
    "to_format",
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
    "BatchDenseLu",
    "dense_lu_solve",
    "banded_lu_solve",
    "BatchThomas",
    "BatchTridiag",
    "thomas_solve",
    "MonolithicBlockSolver",
    "assemble_block_diagonal",
    # components
    "BatchPreconditioner",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "make_preconditioner",
    "StoppingCriterion",
    "AbsoluteResidual",
    "RelativeResidual",
    "CombinedCriterion",
    # health / robustness
    "SolverHealth",
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
    # types
    "DTYPE",
    "INDEX_DTYPE",
    "BatchShape",
    "SolveResult",
    "DimensionMismatch",
    "ConvergenceError",
    "InvalidFormatError",
]
