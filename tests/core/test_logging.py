"""Tests for the per-system convergence record.

Ginkgo's batched kernels log, for each system, the iteration count at
convergence and the final residual norm.  Here the iteration driver keeps
that record (with the health codes and the optional residual history) and
is its only writer; the solve returns it as the ``SolveResult``.
"""

import numpy as np

from repro.core import BatchBicgstab, BatchCsr, BatchRichardson, SolverHealth
from repro.core.solvers.base import IterationDriver
from repro.core.workspace import SolverWorkspace


def make_driver(num_batch=3, max_iter=100, record_history=False, solver=None):
    """An IterationDriver over identity systems with ``b = 1`` and a zero
    guess, so no system starts converged and the batch is too small to
    compact.  The default solver is Richardson; pass a verifying solver
    (one whose schedule declares ``true_r``) to exercise restarts."""
    if solver is None:
        solver = BatchRichardson(max_iter=max_iter, record_history=record_history)
    matrix = BatchCsr.from_dense(np.tile(np.eye(2), (num_batch, 1, 1)))
    b = np.ones((num_batch, 2))
    return IterationDriver(
        solver, matrix, b, np.zeros_like(b),
        solver.preconditioner.generate(matrix), SolverWorkspace(num_batch, 2),
    )


def two_solves(rng, csr_batch, **kw):
    """Two back-to-back solves on one Richardson instance (it appends one
    history snapshot on every trip); the second starts near the solution,
    so it needs fewer trips.  Returns the results, their trip counts, and
    copies of the first result taken before the second solve ran."""
    s = BatchRichardson(preconditioner="jacobi", **kw)
    b = rng.standard_normal((csr_batch.num_batch, csr_batch.num_rows))
    r1 = s.solve(csr_batch, b)
    trips1 = s.last_op_stats.trips
    fields = ("iterations", "residual_norms", "converged", "health")
    saved = {name: getattr(r1, name).copy() for name in fields}
    if r1.residual_history is not None:
        saved["residual_history"] = [h.copy() for h in r1.residual_history]
    near = r1.x + 1e-6 * rng.standard_normal(r1.x.shape)
    r2 = s.solve(csr_batch, b, x0=near)
    trips2 = s.last_op_stats.trips
    assert 0 < trips2 < trips1
    return r1, r2, trips1, trips2, saved


class TestBatchLogger:
    def test_initialize_resets(self, rng, csr_batch):
        """Each solve gets a fresh record: the second reports only its own
        counts and leaves the first result untouched."""
        r1, r2, _, trips2, saved = two_solves(rng, csr_batch)
        assert r2.all_converged
        assert r2.max_iterations == trips2
        for name in ("iterations", "residual_norms", "converged", "health"):
            np.testing.assert_array_equal(getattr(r1, name), saved[name])

    def test_records_convergence_iteration(self):
        """settle() without a restart trusts the recorded norms: systems
        that meet the criterion are counted, flagged and deactivated."""
        drv = make_driver()
        restarted = drv.settle(4, np.array([0.0, 1.0, 1.0]), drv.state.active)
        assert drv.iterations[0] == 5  # iteration index 4 => count 5
        assert drv.iterations[1] == 0  # untouched
        assert drv.converged.tolist() == [True, False, False]
        assert drv.state.active.tolist() == [False, True, True]
        assert not restarted.any()

    def test_finalize_marks_unconverged(self):
        drv = make_driver(max_iter=10)

        def body(st, it):
            if it == 2:
                drv.settle(
                    it, np.array([0.0, 1.0, 1.0]), np.array([True, False, False])
                )
            if it == 6:
                drv.flag_unhealthy(
                    np.array([False, False, True]), SolverHealth.BREAKDOWN_RHO
                )

        assert drv.run(body) is drv
        assert drv.iterations[1] == 10  # billed max_iter
        assert drv.iterations[0] == 3  # untouched by finish
        assert drv.iterations[2] == 7  # halted: keeps its trip count
        assert drv.health.tolist() == [
            SolverHealth.CONVERGED, SolverHealth.ITERATING,
            SolverHealth.BREAKDOWN_RHO,
        ]

    def test_history_disabled_by_default(self, rng, csr_batch):
        b = rng.standard_normal((csr_batch.num_batch, csr_batch.num_rows))
        res = BatchBicgstab(preconditioner="jacobi").solve(csr_batch, b)
        assert res.residual_history is None
        drv = make_driver()
        drv.log_history()
        assert drv.history is None

    def test_history_records_snapshots(self):
        drv = make_driver(num_batch=2, record_history=True)
        active = np.ones(2, dtype=bool)
        for r in (1.0, 0.1, 0.01):
            drv.update_norms(np.array([r, r * 2]), active)
            drv.log_history()
        assert len(drv.history) == 3
        np.testing.assert_allclose([h[1] for h in drv.history], [2.0, 0.2, 0.02])

    def test_history_snapshots_are_copies(self):
        drv = make_driver(num_batch=1, record_history=True)
        active = np.ones(1, dtype=bool)
        drv.update_norms(np.array([1.0]), active)
        drv.log_history()
        drv.update_norms(np.array([0.5]), active)
        assert drv.history[0][0] == 1.0

    def test_reinitialize_clears_history(self, rng, csr_batch):
        """A second solve's history holds only its own trips."""
        r1, r2, trips1, trips2, saved = two_solves(
            rng, csr_batch, record_history=True
        )
        assert len(r1.residual_history) == trips1
        assert len(r2.residual_history) == trips2
        for got, want in zip(r1.residual_history, saved["residual_history"]):
            np.testing.assert_array_equal(got, want)


class TestGuard:
    """``IterationDriver.guard``: the solver bodies' breakdown check."""

    def test_non_finite_later_scalar_freezes_its_system(self):
        drv = make_driver(max_iter=5)
        seen = {}

        def body(st, it):
            if it == 3:
                cont = st.active.copy()
                seen["stop"] = drv.guard(
                    cont, SolverHealth.BREAKDOWN_OMEGA,
                    np.array([1.0, 2.0, 3.0]), np.array([1.0, np.nan, 1.0]),
                )
                seen["cont"] = cont.tolist()
                seen["active"] = st.active.tolist()

        drv.run(body)
        assert seen == {
            "stop": False,
            "cont": [True, False, True],
            "active": [True, False, True],
        }
        assert drv.health.tolist() == [
            SolverHealth.ITERATING, SolverHealth.BREAKDOWN_OMEGA,
            SolverHealth.ITERATING,
        ]
        assert drv.iterations[1] == 4  # halted on its fourth trip

    def test_zero_outside_cont_is_ignored(self):
        drv = make_driver()
        cont = np.array([True, False, True])
        stop = drv.guard(cont, SolverHealth.BREAKDOWN_RHO, np.array([1.0, 0.0, 1.0]))
        assert not stop
        assert cont.tolist() == [True, False, True]
        assert drv.state.active.all()
        assert drv.health[1] == SolverHealth.ITERATING

    def test_true_when_the_last_active_system_breaks(self):
        drv = make_driver()
        cont = drv.state.active.copy()
        rho = SolverHealth.BREAKDOWN_RHO
        assert not drv.guard(cont, rho, np.array([0.0, np.inf, 1.0]))
        assert drv.guard(cont, rho, np.array([1.0, 1.0, 0.0]))
        assert not cont.any() and not drv.state.active.any()
        assert (drv.health == rho).all()


class TestSettle:
    """``IterationDriver.settle``: the end of a solver body's trip."""

    def test_restart_gets_candidates_the_true_residual_rejects(self):
        drv = make_driver(solver=BatchBicgstab())
        drv.state.x[1] = 1.0  # system 1 is solved exactly; 0 and 2 are not
        calls = []

        def restart(st, true_r, mask):
            calls.append(mask.copy())

        restarted = drv.settle(
            2, np.array([0.0, 0.0, 1.0]), drv.state.active.copy(), restart
        )
        assert [m.tolist() for m in calls] == [[True, False, False]]
        assert restarted.tolist() == [True, False, False]
        assert drv.state.active.tolist() == [True, False, True]
        assert drv.converged.tolist() == [False, True, False]
        assert drv.iterations.tolist() == [0, 3, 0]

    def test_record_outside_cont_is_recorded_not_frozen(self):
        drv = make_driver()
        initial = drv.final_norms[2]
        drv.settle(
            2, np.zeros(3), np.array([True, False, False]),
            record=np.array([True, True, False]),
        )
        assert drv.final_norms.tolist() == [0.0, 0.0, initial]
        assert drv.converged.tolist() == [True, False, False]
        assert drv.state.active.tolist() == [False, True, True]
