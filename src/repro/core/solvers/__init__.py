"""Batched solvers: Krylov iterative methods and direct baselines.

Iterative (per-system convergence monitoring, pluggable preconditioner /
criterion, a per-system result record — the paper's contribution):

* :class:`~repro.core.solvers.bicgstab.BatchBicgstab` — Algorithm 1, the
  solver behind every result in the paper.
* :class:`~repro.core.solvers.cg.BatchCg`
* :class:`~repro.core.solvers.gmres.BatchGmres`
* :class:`~repro.core.solvers.richardson.BatchRichardson`
* :class:`~repro.core.solvers.pipelined_cg.BatchPipelinedCg` and
  :class:`~repro.core.solvers.pipelined_bicgstab.BatchPipelinedBicgstab` —
  sync-avoiding variants with one / two fused reduction rounds per
  iteration.

Direct baselines:

* :class:`~repro.core.solvers.direct_banded.BatchBandedLu` — the LAPACK
  ``dgbsv`` CPU baseline.
* :class:`~repro.core.solvers.tridiag.BatchThomas` — the related-work
  batched tridiagonal solver.

The cuSolver batched sparse QR baseline of Fig. 6 is an operation count
only (:func:`repro.gpu.estimate_direct_qr`); no host QR runs.

Ablation:

* :class:`~repro.core.solvers.block_diag.MonolithicBlockSolver` — the
  block-diagonal monolithic alternative dismissed in Section II.
"""

from .base import BatchedIterativeSolver, safe_divide
from .bicgstab import BatchBicgstab
from .block_diag import MonolithicBlockSolver, assemble_block_diagonal
from .cg import BatchCg
from .cgs import BatchCgs
from .direct_banded import BatchBandedLu, banded_lu_solve
from .direct_dense import BatchDenseLu, dense_lu_solve
from .escalation import EscalationReport, EscalationSolver
from .gmres import BatchGmres
from .pipelined_bicgstab import BatchPipelinedBicgstab
from .pipelined_cg import BatchPipelinedCg
from .refinement import RefinementSolver
from .richardson import BatchRichardson
from .tridiag import BatchThomas, BatchTridiag, thomas_solve

__all__ = [
    "BatchedIterativeSolver",
    "safe_divide",
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
    "banded_lu_solve",
    "BatchDenseLu",
    "dense_lu_solve",
    "MonolithicBlockSolver",
    "assemble_block_diagonal",
    "BatchThomas",
    "BatchTridiag",
    "thomas_solve",
    "make_solver",
]

_SOLVERS = {
    "bicgstab": BatchBicgstab,
    "cg": BatchCg,
    "cgs": BatchCgs,
    "gmres": BatchGmres,
    "pipelined_bicgstab": BatchPipelinedBicgstab,
    "pipelined_cg": BatchPipelinedCg,
    "richardson": BatchRichardson,
    "refinement": RefinementSolver,
    "escalation": EscalationSolver,
}


def make_solver(name: str, **kwargs):
    """Factory: build an iterative solver by name.

    Accepted names: ``bicgstab``, ``cg``, ``cgs``, ``gmres``, ``richardson``,
    ``pipelined_cg`` / ``pipelined_bicgstab`` (sync-avoiding variants),
    ``refinement`` (mixed-precision iterative refinement), ``escalation``
    (health-driven re-solve ladder).
    Keyword arguments are forwarded to the solver constructor.
    """
    try:
        cls = _SOLVERS[name]
    except KeyError:
        raise ValueError(
            f"unknown solver {name!r}; choices: {sorted(_SOLVERS)}"
        ) from None
    return cls(**kwargs)
