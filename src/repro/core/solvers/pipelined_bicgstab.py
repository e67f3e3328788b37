"""Batched pipelined BiCGSTAB — two reduction rounds per iteration.

Classic BiCGSTAB spreads six reductions over the iteration: ``rho``, the
``alpha`` denominator, ``||s||``, the ``(t.s, t.t)`` pair, and ``||r||``
— five synchronization rounds once the classic hot loop fuses the omega
pair (six in the unfused textbook formulation).  In the batched
small-system regime each round is a device-wide barrier that costs as
much as an SpMV, so this variant regroups the iteration around **two**
rounds:

1. ``r_hat . v`` — unavoidable on its own: ``alpha`` must exist before
   ``s = r - alpha v`` can be formed;
2. one fused five-dot round over ``t`` and ``s``: ``t.s``, ``t.t``,
   ``r_hat.s``, ``r_hat.t``, ``s.s``.

Everything else follows by scalar recurrence, with no further pass over
the vectors::

    omega   = (t.s) / (t.t)
    rho'    = (r_hat.s) - omega (r_hat.t)        # = r_hat . (s - omega t)
    ||r||^2 = (s.s) - 2 omega (t.s) + omega^2 (t.t)

The ``||s||`` mid-iteration early exit of Algorithm 1 is given up — it
would reintroduce a third round; systems that would have frozen at the
half-step freeze at the end-of-iteration check instead (same iteration
count, marginally more work on their final trip).  The recurrence-derived
``rho`` and ``||r||`` are recombinations of exact dots of the *current*
vectors, so no drift accumulates across iterations; the cancellation risk
near convergence is covered by the shared verify-and-freeze confirmation
against the true residual, and drifted systems are restarted from it
(reseeding ``rho = r_hat . r`` — the schedule's declared restart dot).

Health guards, active-batch compaction, and precision policies are
inherited unchanged from the shared driver.
"""

from __future__ import annotations

import numpy as np

from ..batch_dense import batch_dot
from ..blas import fused_dots, fused_update, masked_assign, masked_axpy, masked_fill
from ..faults import SolverHealth
from .base import STOP, BatchedIterativeSolver, IterationDriver, safe_divide

__all__ = ["BatchPipelinedBicgstab"]


class BatchPipelinedBicgstab(BatchedIterativeSolver):
    """Batched pipelined BiCGSTAB with per-system termination."""

    name = "pipelined_bicgstab"

    @staticmethod
    def _restart(st, true_r, restarted):
        """Rebuild the Krylov state of drifted systems from the true residual."""
        masked_assign(st.r, true_r, restarted)
        masked_assign(st.r_hat, true_r, restarted)
        masked_fill(st.p, 0.0, restarted)
        masked_fill(st.v, 0.0, restarted)
        masked_fill(st.rho_old, 1.0, restarted)
        # The rho recurrence is rebuilt exactly: r_hat = r = true_r.
        masked_assign(
            st.rho, batch_dot(st.r_hat, st.r, dtype=st.acc_dtype), restarted
        )

    def _iterate(self, matrix, b, x, precond, ws):
        drv = IterationDriver(self, matrix, b, x, precond, ws, zero=("p", "v"))
        st = drv.state
        st.r_hat[...] = st.r

        st.register("rho_old", ws.scalar("rho_old", fill=1.0))
        st.register("alpha", ws.scalar("alpha", fill=1.0))
        st.register("omega", ws.scalar("omega", fill=1.0))
        rho = st.register("rho", ws.scalar("rho"))
        rho[...] = batch_dot(st.r_hat, st.r, dtype=st.acc_dtype)

        def body(st, it):
            # `cont` marks systems executing the rest of THIS iteration.
            cont = st.active.copy()

            # rho carried by recurrence from the previous trip; zero or
            # non-finite is the BiCG primary breakdown.
            if drv.guard(cont, SolverHealth.BREAKDOWN_RHO, st.rho):
                return STOP
            beta = safe_divide(st.rho, st.rho_old, cont) * safe_divide(
                st.alpha, st.omega, cont
            )

            # p = r + beta * (p - omega * v)
            fused_update(st.p, st.r, beta, st.omega, st.v, work=st.work)

            st.precond.apply(st.p, out=st.p_hat)
            st.matrix.apply(st.p_hat, out=st.v)

            # ROUND 1: alpha = rho / (r_hat . v).
            alpha_den = batch_dot(st.r_hat, st.v, dtype=st.acc_dtype)
            if drv.guard(cont, SolverHealth.BREAKDOWN_RHO, alpha_den):
                return STOP
            safe_divide(st.rho, alpha_den, cont, out=st.alpha)

            # s = r - alpha * v
            np.multiply(st.v, st.alpha[:, None], out=st.s)
            np.subtract(st.r, st.s, out=st.s)

            st.precond.apply(st.s, out=st.s_hat)
            st.matrix.apply(st.s_hat, out=st.t)

            # ROUND 2: every remaining scalar of the iteration.
            ts, tt, rhs, rht, ss = fused_dots(
                (st.t, st.s), (st.t, st.t), (st.r_hat, st.s),
                (st.r_hat, st.t), (st.s, st.s), dtype=st.acc_dtype,
            )
            if drv.guard(cont, SolverHealth.BREAKDOWN_OMEGA, ts, tt):
                return STOP
            safe_divide(ts, tt, cont, out=st.omega)

            # x += alpha * p_hat + omega * s_hat
            masked_axpy(st.x, st.alpha, st.p_hat, mask=cont, work=st.work)
            masked_axpy(st.x, st.omega, st.s_hat, mask=cont, work=st.work)

            # r = s - omega * t   (only for continuing systems)
            np.multiply(st.t, st.omega[:, None], out=st.t)
            np.subtract(st.s, st.t, out=st.t)
            masked_assign(st.r, st.t, cont)

            # Recurrence scalars: rho' = r_hat.(s - omega t) and
            # ||r||^2 = s.s - 2 omega t.s + omega^2 t.t, clamped at zero
            # against cancellation in the fully converged limit.
            rho_next = rhs - st.omega * rht
            res_sq = np.maximum(ss - st.omega * (2.0 * ts - st.omega * tt), 0.0)
            res_norms = np.sqrt(res_sq)
            # _restart reseeded the restarted systems' rho/rho_old exactly.
            carry = cont & ~drv.settle(it, res_norms, cont, self._restart)
            masked_assign(st.rho_old, st.rho, carry)
            masked_assign(st.rho, rho_next, carry)

        return drv.run(body)
