"""Tests for the batched restarted GMRES solver."""

import numpy as np
import pytest

from repro.core import AbsoluteResidual, BatchCsr, BatchGmres, to_format
from repro.core.solvers.schedule import GMRES_RESTART
from repro.experiments.common import paper_app

from ..conftest import make_random_batch


def solver(**kw):
    kw.setdefault("preconditioner", "jacobi")
    kw.setdefault("criterion", AbsoluteResidual(1e-10))
    kw.setdefault("max_iter", 500)
    return BatchGmres(**kw)


class TestConvergence:
    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    def test_solves_nonsymmetric_batch(self, rng, csr_batch, fmt):
        m = to_format(csr_batch, fmt)
        x_true = rng.standard_normal((m.num_batch, m.num_rows))
        b = m.apply(x_true)
        res = solver().solve(m, b)
        assert res.all_converged
        np.testing.assert_allclose(res.x, x_true, atol=1e-7)

    def test_true_residual_meets_tolerance(self, rng, csr_batch):
        b = rng.standard_normal((csr_batch.num_batch, csr_batch.num_rows))
        res = solver().solve(csr_batch, b)
        true_res = np.linalg.norm(b - csr_batch.apply(res.x), axis=1)
        assert np.all(true_res < 1e-9)

    def test_small_restart_still_converges(self, rng):
        """Systems that need more Arnoldi steps than one restart cycle
        holds converge across several cycles."""
        m = BatchCsr.from_dense(make_random_batch(rng, dominance=0.4))
        b = rng.standard_normal((m.num_batch, m.num_rows))
        gm = solver()
        res = gm.solve(m, b)
        assert res.all_converged
        assert res.max_iterations > GMRES_RESTART
        assert len(gm.last_op_stats.cycle_steps) >= 2
        true_res = np.linalg.norm(b - m.apply(res.x), axis=1)
        assert np.all(true_res < 1e-9)

    def test_full_gmres_finite_termination(self, rng):
        """A system no larger than the restart length runs unrestarted
        GMRES, which converges within n steps."""
        n = 12
        dense = rng.standard_normal((2, n, n)) + n * np.eye(n)
        m = BatchCsr.from_dense(dense)
        b = rng.standard_normal((2, n))
        res = BatchGmres(
            preconditioner="identity",
            criterion=AbsoluteResidual(1e-9),
            max_iter=3 * n,
        ).solve(m, b)
        assert res.all_converged
        assert res.max_iterations <= n + 1

    def test_per_system_counts_differ(self, rng):
        n = 25
        easy = np.eye(n)[None] * 2.0
        hard = rng.standard_normal((1, n, n))
        hard += np.eye(n) * (np.abs(hard).sum(axis=2, keepdims=True) + 1)
        m = BatchCsr.from_dense(np.concatenate([easy, hard]))
        b = rng.standard_normal((2, n))
        res = solver().solve(m, b)
        assert res.all_converged
        assert res.iterations[0] <= res.iterations[1]

    def test_warm_start(self, rng, csr_batch):
        x_true = rng.standard_normal((csr_batch.num_batch, csr_batch.num_rows))
        b = csr_batch.apply(x_true)
        cold = solver().solve(csr_batch, b)
        warm = solver().solve(
            csr_batch, b, x0=x_true + 1e-7 * rng.standard_normal(x_true.shape)
        )
        assert warm.total_iterations < cold.total_iterations

    def test_exact_x0_zero_iterations(self, rng, csr_batch):
        x_true = rng.standard_normal((csr_batch.num_batch, csr_batch.num_rows))
        b = csr_batch.apply(x_true)
        res = solver().solve(csr_batch, b, x0=x_true)
        assert np.all(res.iterations == 0)

    def test_zero_rhs(self, csr_batch):
        b = np.zeros((csr_batch.num_batch, csr_batch.num_rows))
        res = solver().solve(csr_batch, b)
        assert res.all_converged
        np.testing.assert_array_equal(res.x, b)

    def test_unconverged_reported(self, rng, csr_batch):
        b = rng.standard_normal((csr_batch.num_batch, csr_batch.num_rows))
        res = solver(max_iter=2).solve(csr_batch, b)
        assert not res.all_converged
        assert np.all(np.isfinite(res.x))


class TestHistory:
    def test_one_snapshot_per_arnoldi_step(self):
        """Mid-cycle Arnoldi estimates are recorded once per step, on the
        XGC batch (69 steps over three restart cycles)."""
        matrix, f = paper_app(2).build_matrices()
        gm = solver(record_history=True)
        res = gm.solve(matrix, f)
        assert res.all_converged
        assert len(res.residual_history) == gm.last_op_stats.trips
        assert res.residual_history[-1].max() < res.residual_history[0].max()
