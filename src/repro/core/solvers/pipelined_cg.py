"""Batched pipelined Conjugate Gradient (Chronopoulos & Gear 1989;
Ghysels & Vanroose 2014).

Classic CG pays three reduction rounds per iteration — ``p . Ap``,
``||r||``, and ``r . z`` — and each round is a device-wide
synchronization point.  In the paper's batched regime (thousands of
n = 992 systems, a handful of microseconds per SpMV) those barriers, not
FLOPs, bound the iteration rate.  The Chronopoulos-Gear recurrence
reorganises CG so that *all* scalar information of an iteration comes
from one fused reduction::

    p = u + beta * p                  # search direction
    s = w + beta * s                  # recurrence for A p  (no extra SpMV)
    x = x + alpha * p
    r = r - alpha * s
    u = M^-1 r                        # preconditioner apply
    w = A u                           # the single SpMV
    gamma' = r . u ; delta = w . u ; rr = r . r      # ONE fused round
    beta' = gamma' / gamma
    alpha' = gamma' / (delta - beta' * gamma' / alpha)

The residual norm is ``sqrt(rr)`` — no separate norm kernel — so the
iteration has exactly one synchronization point (classic CG: three).

Pipelining is not free: ``s`` and ``r`` are maintained by recurrence and
drift from ``A p`` and ``b - A x`` in finite precision.  Two guards keep
the results trustworthy:

* every :data:`~repro.core.solvers.schedule.REPLACEMENT_PERIOD` trips the
  solver recomputes ``r = b - A x`` and ``s = A p`` exactly (residual
  replacement, two SpMVs, declared as the schedule's ``cycle_*`` work),
* convergence flags are confirmed against the true residual before a
  system freezes (the shared verify-and-freeze machinery); drifted
  systems are rebuilt from the true residual and keep iterating.

Health guards, active-batch compaction, and precision policies are
inherited unchanged from the shared driver.
"""

from __future__ import annotations

import numpy as np

from ..blas import (
    fused_dots,
    masked_assign,
    masked_fill,
    pipelined_cg_update,
)
from ..faults import SolverHealth
from ..spmv import residual
from .base import STOP, BatchedIterativeSolver, IterationDriver, guarded_divide, safe_divide
from .schedule import REPLACEMENT_PERIOD

__all__ = ["BatchPipelinedCg"]


class BatchPipelinedCg(BatchedIterativeSolver):
    """Batched pipelined (Chronopoulos-Gear) CG with per-system termination."""

    name = "pipelined_cg"

    @staticmethod
    def _restart(st, true_r, restarted):
        """Rebuild drifted systems' recurrences from the true residual.

        ``r``, ``u = M^-1 r``, ``w = A u``, ``gamma`` and ``alpha`` are
        recomputed exactly; ``beta`` is zeroed so the next direction
        update collapses to a fresh steepest-descent start (``p = u``,
        ``s = w``), discarding the drifted ``p``/``s`` recurrences.
        """
        masked_assign(st.r, true_r, restarted)
        st.precond.apply(true_r, out=st.scratch)
        masked_assign(st.u, st.scratch, restarted)
        st.matrix.apply(st.scratch, out=st.work)
        masked_assign(st.w, st.work, restarted)
        gamma_r, delta_r = fused_dots(
            (true_r, st.scratch), (st.work, st.scratch), dtype=st.acc_dtype
        )
        masked_assign(st.gamma, gamma_r, restarted)
        masked_assign(
            st.alpha, safe_divide(gamma_r, delta_r, restarted), restarted
        )
        masked_fill(st.beta, 0.0, restarted)

    def _iterate(self, matrix, b, x, precond, ws):
        drv = IterationDriver(self, matrix, b, x, precond, ws, zero=("p", "s"))
        st = drv.state

        # Prime the Chronopoulos-Gear quantities: u = M^-1 r, w = A u,
        # gamma = r.u, delta = w.u, alpha = gamma / delta, beta = 0.
        st.precond.apply(st.r, out=st.u)
        st.matrix.apply(st.u, out=st.w)
        fd = fused_dots((st.r, st.u), (st.w, st.u), dtype=st.acc_dtype)
        gamma = st.register("gamma", ws.scalar("gamma"))
        gamma[...] = fd[0]
        alpha = st.register("alpha", ws.scalar("alpha"))
        safe_divide(fd[0], fd[1], st.active, out=alpha)
        beta = st.register("beta", ws.scalar("beta"))
        beta[...] = 0.0

        def body(st, it):
            # The merged recurrence block: p, s, x, r in one fused group.
            # Frozen systems carry alpha = beta = 0, so their x and r are
            # unchanged (zero steps) — masked coefficients, not masked
            # kernels, exactly like the fused GPU kernel would run.
            pipelined_cg_update(
                st.p, st.s, st.u, st.w, st.x, st.r, st.alpha, st.beta,
                work=st.work,
            )

            st.precond.apply(st.r, out=st.u)
            st.matrix.apply(st.u, out=st.w)

            # The iteration's single synchronization point.
            gamma_new, delta, rr = fused_dots(
                (st.r, st.u), (st.w, st.u), (st.r, st.r), dtype=st.acc_dtype
            )
            restarted = drv.settle(it, np.sqrt(rr), st.active, self._restart)
            if not np.count_nonzero(st.active):
                return STOP

            # Restarted systems got fresh scalars from _restart; the stale
            # gamma_new/delta of their drifted state must not overwrite them.
            cont = st.active & ~restarted

            # gamma = 0 (or non-finite) with an unconverged residual means
            # the preconditioned residual carries no descent information —
            # the CG breakdown.
            stop = drv.guard(cont, SolverHealth.BREAKDOWN_RHO, gamma_new)
            beta_new = safe_divide(gamma_new, st.gamma, cont)
            # alpha' = gamma' / (delta - beta' gamma' / alpha): the
            # recurrence form of p . A p, computed without touching the
            # vectors again.
            den = delta - safe_divide(beta_new * gamma_new, st.alpha, cont)
            if drv.guard(cont, SolverHealth.BREAKDOWN_RHO, den) or stop:
                return STOP
            alpha_new = guarded_divide(gamma_new, den, cont)

            masked_assign(st.gamma, gamma_new, cont)
            masked_assign(st.alpha, alpha_new, cont)
            masked_assign(st.beta, beta_new, cont)
            # Deactivated systems take zero-length steps forever after.
            inactive = ~st.active
            masked_fill(st.alpha, 0.0, inactive)
            masked_fill(st.beta, 0.0, inactive)

            # Periodic residual replacement: the r and s = A p recurrences
            # accumulate rounding drift; recompute both exactly so the
            # monitored residual stays honest between verify events.
            if (it + 1) % REPLACEMENT_PERIOD == 0:
                drv.stats.cycle_steps.append(REPLACEMENT_PERIOD)
                residual(st.matrix, st.x, st.b, out=st.work)
                masked_assign(st.r, st.work, st.active)
                st.matrix.apply(st.p, out=st.scratch)
                masked_assign(st.s, st.scratch, st.active)

        return drv.run(body)
