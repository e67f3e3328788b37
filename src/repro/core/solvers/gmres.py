"""Batched restarted GMRES with right preconditioning.

GMRES(m) is the general-purpose Krylov option in the batched solver family.
Right preconditioning (solve ``A M^{-1} y = b``, ``x = M^{-1} u``) is used
so that the Arnoldi residual estimate tracks the *true* residual norm, which
keeps the per-system stopping criterion meaningful.

Per-system termination inside a restart cycle works by *recording* the
Krylov subspace size at which each system's residual estimate met the
criterion; the cycle completes for the batch (the instruction stream is
shared, as on the GPU), but each system's solution update only uses its own
recorded subspace size, and logged iteration counts are per system.  True
residuals are recomputed at every restart boundary, so an optimistic
estimate can never mark an unconverged system as done.

Active-batch compaction happens at restart boundaries only: the Krylov
state is rebuilt from the true residual there anyway, so gathering the
still-active systems between cycles changes nothing in any system's
instruction stream — iteration counts stay bit-identical while the basis,
Hessenberg, and Givens arrays shrink to the active sub-batch.
"""

from __future__ import annotations

import numpy as np

from ..batch_dense import batch_dot, batch_norm2
from ..faults import SolverHealth
from ..spmv import residual
from .base import BatchedIterativeSolver, IterationDriver, safe_divide
from .schedule import GMRES_RESTART

__all__ = ["BatchGmres"]


class BatchGmres(BatchedIterativeSolver):
    """Batched restarted GMRES(m) with per-system termination.

    Each cycle builds a Krylov subspace of ``m = GMRES_RESTART`` (30)
    dimensions, capped at the system size.
    """

    name = "gmres"

    def _iterate(self, matrix, b, x, precond, ws):
        nb, n = x.shape
        m = min(GMRES_RESTART, n)

        # The m+1 modelled basis vectors live in one (m+1, nb, n) array, so
        # the driver manages only the residual and the two scratch vectors.
        drv = IterationDriver(
            self, matrix, b, x, precond, ws,
            vector_names=("r", "gmres_work", "gmres_upd"),
        )
        st = drv.state
        st.register("logged", drv.converged.copy())

        # Krylov basis and Hessenberg storage (reused across cycles,
        # reallocated at the compact size after a compaction event).  The
        # basis streams through SpMVs, so it lives in working precision;
        # the Hessenberg/Givens recurrences hold reduction results and
        # stay in the policy's accumulation dtype.
        work_dt, acc_dt = st.x.dtype, st.acc_dtype
        basis = np.zeros((m + 1, nb, n), dtype=work_dt)
        hess = np.zeros((nb, m + 1, m), dtype=acc_dt)  # becomes R after Givens
        givens_c = np.zeros((nb, m), dtype=acc_dt)
        givens_s = np.zeros((nb, m), dtype=acc_dt)
        g = np.zeros((nb, m + 1), dtype=acc_dt)
        y = np.zeros((nb, m), dtype=acc_dt)

        total_it = 0
        while total_it < self.max_iter and np.any(st.active):
            # -- compact at the cycle boundary (no Krylov state carries over)
            if drv.maybe_compact():
                nb = st.x.shape[0]
                basis = np.zeros((m + 1, nb, n), dtype=work_dt)
                hess = np.zeros((nb, m + 1, m), dtype=acc_dt)
                givens_c = np.zeros((nb, m), dtype=acc_dt)
                givens_s = np.zeros((nb, m), dtype=acc_dt)
                g = np.zeros((nb, m + 1), dtype=acc_dt)
                y = np.zeros((nb, m), dtype=acc_dt)

            # -- start a cycle from the true residual ------------------------
            residual(st.matrix, st.x, st.b, out=st.r)
            beta = batch_norm2(st.r, dtype=st.acc_dtype)
            # A poisoned system (NaN/Inf residual) cannot seed a Krylov
            # basis; freeze it with a health code before the cycle starts.
            poisoned = st.active & ~np.isfinite(beta)
            if np.any(poisoned):
                drv.update_norms(beta, poisoned)
                drv.flag_unhealthy(poisoned, SolverHealth.NON_FINITE)
                if not np.any(st.active):
                    break
            inv_beta = safe_divide(np.ones(nb), beta, st.active)
            basis[0] = st.r * inv_beta[:, None]
            hess[...] = 0.0
            g[...] = 0.0
            g[:, 0] = beta
            y[...] = 0.0
            used = np.zeros(nb, dtype=np.int64)  # subspace size per system
            cycle_active = st.active.copy()

            steps = min(m, self.max_iter - total_it)
            j_done = 0
            for j in range(steps):
                # w = A M^-1 v_j
                st.precond.apply(basis[j], out=st.gmres_work)
                st.matrix.apply(st.gmres_work, out=basis[j + 1])
                w = basis[j + 1]

                # Modified Gram-Schmidt against v_0..v_j.
                for i in range(j + 1):
                    hij = batch_dot(w, basis[i], dtype=st.acc_dtype)
                    hess[:, i, j] = hij
                    w -= hij[:, None] * basis[i]
                hlast = batch_norm2(w, dtype=st.acc_dtype)
                hess[:, j + 1, j] = hlast
                inv_h = safe_divide(np.ones(nb), hlast, cycle_active)
                w *= inv_h[:, None]

                # Apply previous Givens rotations to the new column.
                col = hess[:, : j + 2, j]
                for i in range(j):
                    ci, si = givens_c[:, i], givens_s[:, i]
                    t0 = ci * col[:, i] + si * col[:, i + 1]
                    t1 = -si * col[:, i] + ci * col[:, i + 1]
                    col[:, i], col[:, i + 1] = t0, t1
                # New rotation zeroing col[j+1].
                denom = np.hypot(col[:, j], col[:, j + 1])
                cj = safe_divide(col[:, j], denom, cycle_active)
                sj = safe_divide(col[:, j + 1], denom, cycle_active)
                # Frozen/breakdown systems get the identity rotation.
                degenerate = denom == 0.0
                cj[degenerate] = 1.0
                givens_c[:, j], givens_s[:, j] = cj, sj
                col[:, j] = cj * col[:, j] + sj * col[:, j + 1]
                col[:, j + 1] = 0.0
                g[:, j + 1] = -sj * g[:, j]
                g[:, j] = cj * g[:, j]

                used = np.where(cycle_active, j + 1, used)

                est = np.abs(g[:, j + 1])
                newly = cycle_active & drv.criterion.check(est)
                if np.any(newly):
                    drv.log_converged(total_it + j, newly)
                    st.logged |= newly
                    cycle_active &= ~newly
                drv.log_history(est, st.active)
                j_done = j + 1
                if not np.any(cycle_active):
                    break

            total_it += j_done
            drv.stats.trips += j_done
            drv.stats.cycle_steps.append(j_done)

            # -- per-system triangular solve and solution update -------------
            # used[k] holds the subspace size system k actually needs.
            for i in range(j_done - 1, -1, -1):
                acc = g[:, i].copy()
                for jj in range(i + 1, j_done):
                    acc -= hess[:, i, jj] * y[:, jj]
                in_range = (i < used) & st.active
                y[:, i] = np.where(
                    in_range,
                    safe_divide(acc, hess[:, i, i], in_range),
                    0.0,
                )

            st.gmres_work[...] = 0.0
            for jj in range(j_done):
                st.gmres_work += y[:, jj][:, None] * basis[jj]
            st.precond.apply(st.gmres_work, out=st.gmres_upd)
            np.add(st.x, st.gmres_upd, out=st.x, where=st.active[:, None])

            # -- recompute true residuals at the restart boundary ------------
            residual(st.matrix, st.x, st.b, out=st.r)
            res_norms = batch_norm2(st.r, dtype=st.acc_dtype)
            drv.update_norms(res_norms, st.active)
            true_conv = st.active & drv.criterion.check(res_norms)
            if np.any(true_conv):
                # Systems the estimate already caught keep their mid-cycle
                # iteration count; systems it lagged on are logged now.
                est_missed = true_conv & ~st.logged
                if np.any(est_missed):
                    drv.log_converged(total_it - 1, est_missed)
                    st.logged |= est_missed
                drv.mark_converged(true_conv)
            # Systems whose estimate was optimistic stay active; their
            # (premature) logged count will be overwritten next cycle.
            st.logged &= ~st.active

        return drv.finish()
