"""Batched preconditioned Richardson iteration.

The simplest preconditionable iterative method: ``x += M^-1 r``.  With the
Jacobi preconditioner this is Jacobi relaxation.  Useful as a smoke-test
solver, as a smoother, and as the cheapest point in the
solver-composability space the Ginkgo design exposes.  Like every iterative
solver here it runs masked updates through :mod:`repro.core.blas` and
compacts the batch once most systems have converged.

Breakdown audit: Richardson has no recurrence scalars (no ``rho`` /
``omega``), so the only degradation modes are divergence (spectral radius
of ``I - M^-1 A`` above 1), stagnation (spectral radius ~= 1), and
NaN/Inf operands — all three are caught by the iteration driver's
vectorised health guards on the recorded residual norms.
"""

from __future__ import annotations

from ..batch_dense import batch_norm2
from ..blas import masked_axpy
from ..spmv import residual
from .base import BatchedIterativeSolver, IterationDriver

__all__ = ["BatchRichardson"]


class BatchRichardson(BatchedIterativeSolver):
    """Batched Richardson iteration with per-system termination."""

    name = "richardson"

    def _iterate(self, matrix, b, x, precond, ws):
        drv = IterationDriver(self, matrix, b, x, precond, ws)

        def body(st, it):
            st.precond.apply(st.r, out=st.z)
            # Frozen systems take a zero step.
            masked_axpy(st.x, 1.0, st.z, mask=st.active, work=st.work)

            residual(st.matrix, st.x, st.b, out=st.r)

            drv.settle(it, batch_norm2(st.r, dtype=st.acc_dtype), st.active)

        return drv.run(body)
