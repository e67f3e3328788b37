"""Tests for the batched BiCGSTAB solver (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import (
    AbsoluteResidual,
    BatchBicgstab,
    BatchCsr,
    RelativeResidual,
    to_format,
)


def solver(**kw):
    kw.setdefault("preconditioner", "jacobi")
    kw.setdefault("criterion", AbsoluteResidual(1e-10))
    kw.setdefault("max_iter", 500)
    return BatchBicgstab(**kw)


class TestConvergence:
    @pytest.mark.parametrize("fmt", ["csr", "ell", "dense"])
    def test_solves_all_formats(self, rng, csr_batch, fmt):
        m = to_format(csr_batch, fmt)
        x_true = rng.standard_normal((m.num_batch, m.num_rows))
        b = m.apply(x_true)
        res = solver().solve(m, b)
        assert res.all_converged
        assert res.format == fmt
        np.testing.assert_allclose(res.x, x_true, atol=1e-8)

    def test_residual_meets_tolerance(self, rng, csr_batch):
        b = rng.standard_normal((csr_batch.num_batch, csr_batch.num_rows))
        res = solver().solve(csr_batch, b)
        true_res = np.linalg.norm(b - csr_batch.apply(res.x), axis=1)
        assert np.all(true_res < 1e-9)  # small slack over recursive residual

    def test_identity_preconditioner_also_converges(self, rng, csr_batch):
        b = rng.standard_normal((csr_batch.num_batch, csr_batch.num_rows))
        res = solver(preconditioner="identity").solve(csr_batch, b)
        assert res.all_converged

    def test_relative_criterion(self, rng, csr_batch):
        b = rng.standard_normal((csr_batch.num_batch, csr_batch.num_rows))
        res = solver(criterion=RelativeResidual(1e-8)).solve(csr_batch, b)
        assert res.all_converged
        assert np.all(
            res.residual_norms <= 1e-8 * np.linalg.norm(b, axis=1) + 1e-15
        )

    def test_diagonal_system_converges_immediately(self, rng):
        n = 12
        d = rng.random((3, n)) + 1.0
        m = BatchCsr.from_dense(np.einsum("bi,ij->bij", d, np.eye(n)))
        b = rng.standard_normal((3, n))
        res = solver().solve(m, b)
        assert res.all_converged
        assert res.max_iterations <= 1
        np.testing.assert_allclose(res.x, b / d, rtol=1e-10)


class TestPerSystemMonitoring:
    def test_iteration_counts_differ_across_systems(self, rng):
        """Mix an easy (near-identity) and a hard system: counts differ."""
        n = 30
        easy = np.eye(n)[None] + 0.01 * rng.standard_normal((1, n, n))
        hard = np.eye(n)[None] * 5 + rng.standard_normal((1, n, n))
        hard += np.eye(n) * np.abs(hard).sum(axis=2, keepdims=True)
        dense = np.concatenate([easy, hard])
        # Union pattern is dense here; that's fine.
        m = BatchCsr.from_dense(dense)
        b = rng.standard_normal((2, n))
        res = solver().solve(m, b)
        assert res.all_converged
        assert res.iterations[0] != res.iterations[1]

    def test_converged_systems_are_frozen(self, rng, csr_batch):
        """The easy system's solution must be identical whether or not a
        hard system shares its batch (frozen systems don't drift)."""
        nb, n = csr_batch.num_batch, csr_batch.num_rows
        b = rng.standard_normal((nb, n))
        full = solver().solve(csr_batch, b)

        # Solve system 0 alone.
        solo_m = BatchCsr(
            csr_batch.num_cols,
            csr_batch.row_ptrs,
            csr_batch.col_idxs,
            csr_batch.values[:1],
        )
        solo = solver().solve(solo_m, b[:1])
        np.testing.assert_allclose(full.x[0], solo.x[0], rtol=1e-8, atol=1e-12)
        assert full.iterations[0] == solo.iterations[0]

    def test_x0_already_solution_takes_zero_iterations(self, rng, csr_batch):
        x_true = rng.standard_normal((csr_batch.num_batch, csr_batch.num_rows))
        b = csr_batch.apply(x_true)
        res = solver().solve(csr_batch, b, x0=x_true)
        assert res.all_converged
        assert np.all(res.iterations == 0)
        np.testing.assert_allclose(res.x, x_true)


class TestWarmStart:
    def test_good_guess_reduces_iterations(self, rng, csr_batch):
        x_true = rng.standard_normal((csr_batch.num_batch, csr_batch.num_rows))
        b = csr_batch.apply(x_true)
        cold = solver().solve(csr_batch, b)
        near = x_true + 1e-6 * rng.standard_normal(x_true.shape)
        warm = solver().solve(csr_batch, b, x0=near)
        assert warm.total_iterations < cold.total_iterations

    def test_x0_not_modified(self, rng, csr_batch):
        b = rng.standard_normal((csr_batch.num_batch, csr_batch.num_rows))
        x0 = rng.standard_normal(b.shape)
        ref = x0.copy()
        solver().solve(csr_batch, b, x0=x0)
        np.testing.assert_array_equal(x0, ref)


class TestEdgeCases:
    def test_max_iter_reports_unconverged(self, rng, csr_batch):
        b = rng.standard_normal((csr_batch.num_batch, csr_batch.num_rows))
        res = solver(max_iter=1).solve(csr_batch, b)
        assert not res.all_converged
        assert np.all(res.iterations[~res.converged] == 1)
        assert np.all(np.isfinite(res.x))

    def test_zero_rhs_converges_to_zero(self, csr_batch):
        b = np.zeros((csr_batch.num_batch, csr_batch.num_rows))
        res = solver().solve(csr_batch, b)
        assert res.all_converged
        assert np.all(res.iterations == 0)
        np.testing.assert_array_equal(res.x, b)

    def test_rejects_rectangular(self, rng):
        dense = rng.standard_normal((2, 4, 5))
        m = BatchCsr.from_dense(dense)
        with pytest.raises(Exception):
            solver().solve(m, np.zeros((2, 5)))

    def test_rejects_wrong_rhs_shape(self, csr_batch):
        with pytest.raises(Exception):
            solver().solve(csr_batch, np.zeros((1, csr_batch.num_rows)))

    def test_history_recording(self, rng, csr_batch):
        s = solver(record_history=True)
        b = rng.standard_normal((csr_batch.num_batch, csr_batch.num_rows))
        res = s.solve(csr_batch, b)
        assert res.residual_history is not None
        assert len(res.residual_history) >= 1
        # Residuals in history are broadly decreasing (BiCGSTAB is not
        # strictly monotone, but the final entry must be the smallest order).
        first = res.residual_history[0].max()
        last = res.residual_history[-1].max()
        assert last < first

    def test_workspace_reused_across_solves(self, rng, csr_batch):
        s = solver()
        b = rng.standard_normal((csr_batch.num_batch, csr_batch.num_rows))
        s.solve(csr_batch, b)
        ws1 = s._workspace
        s.solve(csr_batch, b)
        assert s._workspace is ws1
