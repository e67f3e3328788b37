"""Tests for the batched Richardson solver."""

import numpy as np

from repro.core import AbsoluteResidual, BatchCsr, BatchRichardson


def solver(**kw):
    kw.setdefault("preconditioner", "jacobi")
    kw.setdefault("criterion", AbsoluteResidual(1e-10))
    kw.setdefault("max_iter", 2000)
    return BatchRichardson(**kw)


class TestConvergence:
    def test_solves_diagonally_dominant(self, rng, csr_batch):
        """Jacobi-preconditioned Richardson = the Jacobi method, which
        converges on strictly diagonally dominant systems."""
        x_true = rng.standard_normal((csr_batch.num_batch, csr_batch.num_rows))
        b = csr_batch.apply(x_true)
        res = solver().solve(csr_batch, b)
        assert res.all_converged
        np.testing.assert_allclose(res.x, x_true, atol=1e-8)

    def test_needs_more_iterations_than_bicgstab(self, rng, csr_batch):
        from repro.core import BatchBicgstab

        b = rng.standard_normal((csr_batch.num_batch, csr_batch.num_rows))
        rich = solver().solve(csr_batch, b)
        bicg = BatchBicgstab(
            preconditioner="jacobi", criterion=AbsoluteResidual(1e-10),
            max_iter=2000,
        ).solve(csr_batch, b)
        assert rich.total_iterations > bicg.total_iterations

    def test_exact_for_identity(self, rng):
        n = 8
        m = BatchCsr.from_dense(np.broadcast_to(np.eye(n), (2, n, n)).copy())
        b = rng.standard_normal((2, n))
        res = solver().solve(m, b)
        assert res.max_iterations <= 1
        np.testing.assert_allclose(res.x, b)

    def test_per_system_freeze(self, rng):
        """Identity system finishes in one step and must stay frozen while
        a harder system iterates on."""
        n = 10
        easy = np.eye(n)[None]
        hard = np.eye(n)[None] + 0.4 * rng.random((1, n, n)) / n
        m = BatchCsr.from_dense(np.concatenate([easy, hard]))
        b = rng.standard_normal((2, n))
        res = solver().solve(m, b)
        assert res.all_converged
        assert res.iterations[0] < res.iterations[1]
        np.testing.assert_allclose(res.x[0], b[0], atol=1e-12)

    def test_divergent_case_reports_unconverged(self, rng):
        """A matrix violating the Jacobi convergence condition must end at
        max_iter without NaNs."""
        n = 6
        dense = np.ones((1, n, n)) + np.eye(n)  # heavily off-diagonal
        m = BatchCsr.from_dense(dense)
        b = rng.standard_normal((1, n))
        res = solver(max_iter=50).solve(m, b)
        assert not res.all_converged
        assert np.all(np.isfinite(res.residual_norms))
