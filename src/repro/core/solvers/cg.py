"""Batched preconditioned Conjugate Gradient.

CG is provided for the symmetric-positive-definite problems a batched-solver
user may bring (the XGC matrices themselves are nonsymmetric, which is why
the paper's results use BiCGSTAB).  The per-system monitoring machinery is
identical to :class:`~repro.core.solvers.bicgstab.BatchBicgstab`, as are the
two host-performance layers: fused allocation-free BLAS-1 updates
(:mod:`repro.core.blas`) and active-batch compaction
(:mod:`repro.core.compaction`), both bit-identical per system.
"""

from __future__ import annotations

import numpy as np

from ..batch_dense import batch_dot, batch_norm2
from ..blas import masked_assign, masked_axpy
from ..faults import SolverHealth
from .base import STOP, BatchedIterativeSolver, IterationDriver, guarded_divide, safe_divide

__all__ = ["BatchCg"]


class BatchCg(BatchedIterativeSolver):
    """Batched preconditioned CG with per-system termination."""

    name = "cg"

    def _iterate(self, matrix, b, x, precond, ws):
        drv = IterationDriver(self, matrix, b, x, precond, ws)
        st = drv.state

        st.precond.apply(st.r, out=st.z)
        st.p[...] = st.z
        st.register("rz_old", batch_dot(st.r, st.z, dtype=st.acc_dtype))

        def body(st, it):
            st.matrix.apply(st.p, out=st.w)
            # p . A p = 0 (or NaN) with an unconverged residual is the CG
            # breakdown — the search direction carries no curvature
            # information (indefinite or poisoned operator).
            pw = batch_dot(st.p, st.w, dtype=st.acc_dtype)
            if drv.guard(st.active, SolverHealth.BREAKDOWN_RHO, pw):
                return STOP
            alpha = guarded_divide(st.rz_old, pw, st.active)

            # Frozen systems take zero steps: their alpha is already 0.
            masked_axpy(st.x, alpha, st.p, work=st.work)
            np.multiply(st.w, alpha[:, None], out=st.work)
            np.subtract(st.r, st.work, out=st.r)

            res_norms = batch_norm2(st.r, dtype=st.acc_dtype)
            drv.settle(it, res_norms, st.active)
            if not np.count_nonzero(st.active):
                return STOP

            st.precond.apply(st.r, out=st.z)
            rz_new = batch_dot(st.r, st.z, dtype=st.acc_dtype)
            if drv.guard(st.active, SolverHealth.BREAKDOWN_RHO, rz_new):
                return STOP
            beta = safe_divide(rz_new, st.rz_old, st.active)
            st.p *= beta[:, None]
            st.p += st.z
            masked_assign(st.rz_old, rz_new, st.active)

        return drv.run(body)
