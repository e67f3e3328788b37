"""Monolithic block-diagonal alternative (the Section II ablation).

Instead of a batched solver, one *could* assemble the whole batch into a
single block-diagonal system and hand it to a monolithic Krylov solver.
The paper dismisses this design for three measurable reasons, all of which
this module makes reproducible:

1. **Iteration coupling** — the monolithic iteration count is dictated by
   the most difficult block (every block pays for the worst one).
2. **Global synchronisation** — each iteration's dot products reduce over
   the whole assembled system (a device-wide synchronisation on a GPU).
3. **Pattern duplication** — a general sparse format must replicate the
   sparsity pattern for every block, inflating metadata storage by a factor
   of ``num_batch``.

:func:`assemble_block_diagonal` builds the monolithic system (with the
duplicated pattern, so storage accounting is honest), and
:class:`MonolithicBlockSolver` runs BiCGSTAB on it with the coupled
termination semantics: every block iterates until *all* blocks meet the
criterion, and the reported per-system iteration count is the shared
(worst-case) one.
"""

from __future__ import annotations

import numpy as np

from ..batch_csr import BatchCsr
from ..batch_dense import batch_norm2
from ..convert import to_format
from ..stop import AbsoluteResidual
from ..types import INDEX_DTYPE, SolveResult
from .bicgstab import BatchBicgstab

__all__ = ["assemble_block_diagonal", "MonolithicBlockSolver"]


def assemble_block_diagonal(matrix) -> BatchCsr:
    """Assemble a batch into one block-diagonal CSR system.

    The result is a :class:`BatchCsr` with ``num_batch == 1`` whose single
    system is ``diag(A_0, A_1, ..., A_{nb-1})``.  The sparsity pattern is
    physically replicated per block — the storage overhead the paper calls
    out — so ``storage_bytes()`` comparisons against the batched formats are
    meaningful.
    """
    csr = to_format(matrix, "csr")
    nb, n, m = csr.num_batch, csr.num_rows, csr.num_cols
    nnz = csr.nnz_per_system

    # Replicate the pattern with per-block offsets.
    col_idxs = (
        np.tile(csr.col_idxs.astype(np.int64), nb)
        + np.repeat(np.arange(nb, dtype=np.int64) * m, nnz)
    )
    row_nnz = np.tile(np.diff(csr.row_ptrs).astype(np.int64), nb)
    row_ptrs = np.zeros(nb * n + 1, dtype=np.int64)
    np.cumsum(row_nnz, out=row_ptrs[1:])
    values = csr.values.reshape(1, nb * nnz)

    return BatchCsr(
        nb * m,
        row_ptrs.astype(INDEX_DTYPE),
        col_idxs.astype(INDEX_DTYPE),
        values,
    )


class MonolithicBlockSolver:
    """BiCGSTAB on the assembled block-diagonal system.

    Parameters
    ----------
    preconditioner, max_iter, tol:
        Forwarded to the inner BiCGSTAB.  The stopping criterion is the
        *coupled* one: iterate until **every** block's residual satisfies
        the absolute tolerance.

    Notes
    -----
    Internally the blocks are iterated through the batched kernel (so the
    numerics per block are identical to the batched solver); the coupling is
    expressed in the reported iteration counts — all blocks report the
    worst block's count, which is exactly the work a monolithic solve
    performs.  Converged blocks are frozen rather than over-iterated, which
    is *charitable* to the monolithic design: the paper notes real coupled
    iterations can diverge converged blocks.
    """

    name = "monolithic-block"

    def __init__(
        self,
        preconditioner="jacobi",
        max_iter: int = 500,
        tol: float = 1e-10,
    ) -> None:
        self._inner = BatchBicgstab(
            preconditioner=preconditioner,
            criterion=AbsoluteResidual(tol),
            max_iter=max_iter,
        )
        self.tol = tol

    def solve(self, matrix, b: np.ndarray, x0: np.ndarray | None = None) -> SolveResult:
        """Solve the batch through the monolithic formulation."""
        result = self._inner.solve(matrix, b, x0)
        coupled = np.full_like(result.iterations, result.iterations.max())
        return SolveResult(
            x=result.x,
            iterations=coupled,
            residual_norms=result.residual_norms,
            converged=result.converged,
            solver=self.name,
            format=result.format,
            residual_history=result.residual_history,
        )

    def solve_assembled(self, matrix, b: np.ndarray) -> SolveResult:
        """Solve via the physically assembled block-diagonal system.

        This path exercises the actual monolithic data structure (duplicated
        pattern, single huge system) and reports the global residual.  It is
        the slow path the ablation benchmark times.
        """
        csr = to_format(matrix, "csr")
        nb, n = csr.num_batch, csr.num_rows
        mono = assemble_block_diagonal(csr)
        rhs = np.ascontiguousarray(b, dtype=np.float64).reshape(1, nb * n)
        res = self._inner.solve(mono, rhs)
        x = res.x.reshape(nb, n)
        r = rhs.reshape(nb, n) - csr.apply(x)
        block_norms = batch_norm2(r)
        return SolveResult(
            x=x,
            iterations=np.full(nb, res.iterations[0], dtype=np.int64),
            residual_norms=block_norms,
            converged=block_norms <= self.tol,
            solver=self.name + "-assembled",
            format="csr",
        )
