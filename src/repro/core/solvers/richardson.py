"""Batched (preconditioned, damped) Richardson iteration.

The simplest preconditionable iterative method: ``x += relax * M^-1 r``.
With the Jacobi preconditioner this is damped Jacobi relaxation.  Useful as
a smoke-test solver, as a smoother, and as the cheapest point in the
solver-composability space the Ginkgo design exposes.  Like every iterative
solver here it runs masked updates through :mod:`repro.core.blas` and
compacts the batch once most systems have converged.

Breakdown audit: Richardson has no recurrence scalars (no ``rho`` /
``omega``), so the only degradation modes are divergence (relaxation too
aggressive for the spectrum), stagnation (spectral radius ~= 1), and
NaN/Inf operands — all three are caught by the iteration driver's
vectorised health guards on the recorded residual norms.
"""

from __future__ import annotations

import numpy as np

from ...utils.validation import check_positive
from ..batch_dense import batch_norm2
from ..blas import masked_axpy
from ..spmv import residual
from .base import BatchedIterativeSolver, IterationDriver

__all__ = ["BatchRichardson"]


class BatchRichardson(BatchedIterativeSolver):
    """Batched damped Richardson iteration with per-system termination.

    Parameters
    ----------
    relaxation:
        Damping factor applied to every correction (default 1.0).
    """

    name = "richardson"

    def __init__(self, *args, relaxation: float = 1.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.relaxation = float(check_positive(relaxation, "relaxation"))

    def _iterate(self, matrix, b, x, precond, ws):
        drv = IterationDriver(self, matrix, b, x, precond, ws)

        def body(st, it):
            st.precond.apply(st.r, out=st.z)
            # Frozen systems take a zero step.
            masked_axpy(st.x, self.relaxation, st.z, mask=st.active, work=st.work)

            residual(st.matrix, st.x, st.b, out=st.r)

            res_norms = batch_norm2(st.r, dtype=st.acc_dtype)
            drv.update_norms(res_norms, st.active)
            newly = st.active & drv.criterion.check(res_norms)
            if np.any(newly):
                drv.freeze(it, res_norms, newly)
            drv.log_history()

        return drv.run(body)
