"""Batched Conjugate Gradient Squared (CGS, Sonneveld 1989).

One more member of the "several preconditionable iterative solvers" family
the paper implements batched versions of.  CGS squares the BiCG
polynomial: two SpMVs per iteration like BiCGSTAB, often faster on easy
nonsymmetric problems but with rougher convergence (the squared residual
polynomial amplifies noise) — which is exactly why the paper's production
choice fell on BiCGSTAB.  Having both in the family lets the solver
comparison example demonstrate that choice.

Per-system monitoring, safe scalar guards and true-residual confirmation
follow the same scheme as :class:`~repro.core.solvers.bicgstab.BatchBicgstab`,
as do the fused allocation-free BLAS-1 updates and active-batch compaction.
"""

from __future__ import annotations

import numpy as np

from ..batch_dense import batch_dot
from ..blas import fused_dots, masked_assign, masked_axpy
from ..faults import SolverHealth
from .base import STOP, BatchedIterativeSolver, IterationDriver, safe_divide

__all__ = ["BatchCgs"]


class BatchCgs(BatchedIterativeSolver):
    """Batched preconditioned CGS with per-system termination."""

    name = "cgs"

    @staticmethod
    def _restart(st, true_r, restarted):
        """Reseed drifted systems from the true residual (rho included)."""
        masked_assign(st.r, true_r, restarted)
        masked_assign(st.r_hat, true_r, restarted)
        masked_assign(st.u, true_r, restarted)
        masked_assign(st.p, true_r, restarted)
        st.rho_old[restarted] = batch_dot(st.r_hat, st.r, dtype=st.acc_dtype)[restarted]

    def _iterate(self, matrix, b, x, precond, ws):
        drv = IterationDriver(self, matrix, b, x, precond, ws)
        st = drv.state
        st.r_hat[...] = st.r
        st.u[...] = st.r
        st.p[...] = st.r

        st.register("rho_old", batch_dot(st.r_hat, st.r, dtype=st.acc_dtype))

        def body(st, it):
            # v = A M^-1 p ; alpha = rho / (r_hat . v)
            st.precond.apply(st.p, out=st.work)
            st.matrix.apply(st.work, out=st.v)
            # BiCG-family breakdown guards: a zero/non-finite rho carried
            # from the previous trip, or a zero/non-finite alpha
            # denominator, ends the recurrence for that system.
            alpha_den = batch_dot(st.r_hat, st.v, dtype=st.acc_dtype)
            if drv.guard(
                st.active, SolverHealth.BREAKDOWN_RHO, st.rho_old, alpha_den
            ):
                return STOP
            alpha = safe_divide(st.rho_old, alpha_den, st.active)

            # q = u - alpha v ; solution update direction u + q
            np.multiply(st.v, alpha[:, None], out=st.q)
            np.subtract(st.u, st.q, out=st.q)
            np.add(st.u, st.q, out=st.uq)

            st.precond.apply(st.uq, out=st.uq_hat)
            # alpha is already 0 for frozen systems (safe_divide).
            masked_axpy(st.x, alpha, st.uq_hat, work=st.scratch)

            # r -= alpha A M^-1 (u + q)
            st.matrix.apply(st.uq_hat, out=st.work)
            np.multiply(st.work, alpha[:, None], out=st.scratch)
            np.subtract(st.r, st.scratch, out=st.r)

            # ||r||^2 and the next rho share the pass over r: one fused
            # reduction round.  sqrt(r.r) is bit-identical to batch_norm2,
            # and rho computed before the verify step is safe — restarted
            # systems are excluded from every use of it below (their
            # rho_old is reseeded from the true residual by _restart).
            rr, rho = fused_dots(
                (st.r, st.r), (st.r_hat, st.r), dtype=st.acc_dtype
            )
            # Convergence is confirmed against the true residual (CGS
            # recursions drift even more readily than BiCGSTAB's);
            # restarted systems skip the direction update this iteration.
            restarted = drv.settle(it, np.sqrt(rr), st.active, self._restart)
            if not np.any(st.active):
                return STOP
            active_now = st.active & ~restarted

            # beta = rho / rho_old
            beta = safe_divide(rho, st.rho_old, active_now)

            # u = r + beta q ; p = u + beta (q + beta p)
            np.multiply(st.q, beta[:, None], out=st.scratch)
            st.scratch += st.r
            masked_assign(st.u, st.scratch, active_now)
            np.multiply(st.p, beta[:, None], out=st.scratch)
            st.scratch += st.q
            np.multiply(st.scratch, beta[:, None], out=st.scratch)
            st.scratch += st.u
            masked_assign(st.p, st.scratch, active_now)
            masked_assign(st.rho_old, rho, active_now)

        return drv.run(body)
