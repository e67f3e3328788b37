"""Batched BiCGSTAB (Algorithm 1 of the paper, van der Vorst 1992).

The solver runs all systems of the batch through the same instruction
stream — exactly like the fused CUDA kernel where one thread block owns one
system — while per-system ``active`` masks implement the paper's
system-individual convergence monitoring:

* converged systems stop contributing to any update (their step scalars are
  forced to zero by :func:`~repro.core.solvers.base.safe_divide` and
  :func:`~repro.core.solvers.base.guarded_divide`),
* each system's iteration count and final residual are logged individually,
* the loop exits as soon as *every* system has converged, so a batch of
  easy ion systems never pays for hard electron systems beyond the mask
  bookkeeping (the timing model charges per-system iterations, not the
  loop-trip count).

Two host-performance layers sit on top of the algorithm without touching
its numerics:

* all masked updates go through the fused, allocation-free helpers in
  :mod:`repro.core.blas` instead of the ``np.where`` copy idiom, and
* **active-batch compaction** (:mod:`repro.core.compaction`): once most of
  the batch has converged, the still-active systems are gathered into a
  compact sub-batch and iterated alone.  Each system's instruction stream
  is unchanged, so per-system iteration counts and residuals are
  bit-identical with compaction on or off.

The mid-iteration early exit on ``||s|| < tau`` (with the ``x += alpha *
p_hat`` half-step update) is implemented per system as in Algorithm 1.

Convergence flags raised by the *recursive* residual are confirmed against
the true residual ``b - A x`` before a system is frozen; systems whose
recursion has drifted (possible after a near-breakdown) are restarted from
the true residual instead — the standard stagnation recovery, which keeps
the returned residual norms trustworthy.
"""

from __future__ import annotations

import numpy as np

from ..batch_dense import batch_dot, batch_norm2
from ..blas import fused_dots, fused_update, masked_assign, masked_axpy, masked_fill
from ..faults import SolverHealth
from .base import STOP, BatchedIterativeSolver, IterationDriver, guarded_divide, safe_divide

__all__ = ["BatchBicgstab"]


class BatchBicgstab(BatchedIterativeSolver):
    """Batched preconditioned BiCGSTAB with per-system termination."""

    name = "bicgstab"

    @staticmethod
    def _restart(st, true_r, restarted):
        """Rebuild the Krylov state of drifted systems from the true residual."""
        masked_assign(st.r, true_r, restarted)
        masked_assign(st.r_hat, true_r, restarted)
        masked_fill(st.p, 0.0, restarted)
        masked_fill(st.v, 0.0, restarted)
        masked_fill(st.rho_old, 1.0, restarted)

    def _iterate(self, matrix, b, x, precond, ws):
        drv = IterationDriver(self, matrix, b, x, precond, ws, zero=("p", "v"))
        st = drv.state
        st.r_hat[...] = st.r

        st.register("rho_old", ws.scalar("rho_old", fill=1.0))
        st.register("alpha", ws.scalar("alpha", fill=1.0))
        st.register("omega", ws.scalar("omega", fill=1.0))

        def body(st, it):
            # `cont` marks systems executing the rest of THIS iteration;
            # systems restarted mid-iteration sit the remainder out.
            cont = st.active.copy()

            # rho = r_hat . r ; beta = (rho / rho_old) * (alpha / omega)
            rho = batch_dot(st.r_hat, st.r, dtype=st.acc_dtype)
            # rho = 0 (exact underflow or serendipitous r_hat-orthogonality)
            # or non-finite is the BiCG primary breakdown: the recurrence
            # cannot continue, so the system freezes with a health code
            # instead of silently no-op'ing to max_iter.
            if drv.guard(cont, SolverHealth.BREAKDOWN_RHO, rho):
                return STOP
            beta = safe_divide(rho, st.rho_old, cont) * safe_divide(
                st.alpha, st.omega, cont
            )

            # p = r + beta * (p - omega * v)   (restart-safe: beta = 0
            # reduces this to the steepest-descent direction p = r)
            fused_update(st.p, st.r, beta, st.omega, st.v, work=st.work)

            st.precond.apply(st.p, out=st.p_hat)
            st.matrix.apply(st.p_hat, out=st.v)

            # alpha = rho / (r_hat . v); a zero or non-finite denominator
            # with rho != 0 is the second BiCG breakdown (r_hat ⟂ A p).
            alpha_den = batch_dot(st.r_hat, st.v, dtype=st.acc_dtype)
            if drv.guard(cont, SolverHealth.BREAKDOWN_RHO, alpha_den):
                return STOP
            guarded_divide(rho, alpha_den, cont, out=st.alpha)

            # s = r - alpha * v
            np.multiply(st.v, st.alpha[:, None], out=st.s)
            np.subtract(st.r, st.s, out=st.s)

            s_norms = batch_norm2(st.s, dtype=st.acc_dtype)
            # Early exit per system: x += alpha * p_hat, then freeze.
            s_conv = cont & drv.criterion.check(s_norms)
            if np.count_nonzero(s_conv):
                masked_axpy(st.x, st.alpha, st.p_hat, mask=s_conv, work=st.work)
                drv.verify_and_freeze(it, s_conv, self._restart)
                cont &= ~s_conv  # both confirmed and restarted sit out
                if not np.any(st.active):
                    return STOP

            st.precond.apply(st.s, out=st.s_hat)
            st.matrix.apply(st.s_hat, out=st.t)

            # omega = (t . s) / (t . t); a vanishing or non-finite
            # stabiliser means the next beta divides by omega = 0 — the
            # omega-family breakdown.  Both dots share the pass over t:
            # one fused reduction round, bit-identical to two batch_dots.
            ts, tt = fused_dots(
                (st.t, st.s), (st.t, st.t), dtype=st.acc_dtype
            )
            if drv.guard(cont, SolverHealth.BREAKDOWN_OMEGA, ts, tt):
                return STOP
            guarded_divide(ts, tt, cont, out=st.omega)

            # x += alpha * p_hat + omega * s_hat   (zero steps when frozen
            # or restarted)
            masked_axpy(st.x, st.alpha, st.p_hat, mask=cont, work=st.work)
            masked_axpy(st.x, st.omega, st.s_hat, mask=cont, work=st.work)

            # r = s - omega * t   (only for continuing systems)
            np.multiply(st.t, st.omega[:, None], out=st.t)
            np.subtract(st.s, st.t, out=st.t)
            masked_assign(st.r, st.t, cont)

            masked_assign(st.rho_old, rho, cont)

            # The health guards watch every active system, including those
            # restarted at the ||s|| exit, which sat this update out.
            res_norms = batch_norm2(st.r, dtype=st.acc_dtype)
            drv.settle(it, res_norms, cont, self._restart, record=st.active)

        return drv.run(body)
