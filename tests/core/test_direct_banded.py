"""Tests for the batched banded LU direct solver (dgbsv stand-in).

Validated against ``scipy.linalg.solve_banded`` — scipy appears only in
tests, never in library code.
"""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from repro.core import BatchBandedLu, BatchCsr, banded_lu_solve
from repro.core.faults import HEALTH_DTYPE, SolverHealth
from repro.core.solvers.direct_banded import SingularBatchError
from repro.utils import csr_to_banded, detect_bandwidths


def random_banded_dense(rng, nb, n, kl, ku, *, dominant=True):
    """Random banded batch as dense array (shared pattern)."""
    dense = np.zeros((nb, n, n))
    for off in range(-kl, ku + 1):
        i = np.arange(max(0, -off), min(n, n - off))
        dense[:, i, i + off] = rng.standard_normal((nb, i.size))
    if dominant:
        i = np.arange(n)
        dense[:, i, i] += np.abs(dense).sum(axis=2) + 1.0
    return dense


class TestBandedLuSolve:
    @pytest.mark.parametrize("kl,ku", [(1, 1), (2, 3), (5, 2), (0, 2), (3, 0)])
    def test_matches_scipy(self, rng, kl, ku):
        nb, n = 4, 20
        dense = random_banded_dense(rng, nb, n, kl, ku)
        csr = BatchCsr.from_dense(dense)
        banded = csr_to_banded(csr)
        b = rng.standard_normal((nb, n))
        x = banded_lu_solve(banded, b)
        for k in range(nb):
            ab = np.zeros((kl + ku + 1, n))
            for i in range(n):
                for j in range(max(0, i - kl), min(n, i + ku + 1)):
                    ab[ku + i - j, j] = dense[k, i, j]
            ref = solve_banded((kl, ku), ab, b[k])
            np.testing.assert_allclose(x[k], ref, rtol=1e-9, atol=1e-11)

    def test_pivoting_handles_small_diagonal(self, rng):
        """A matrix needing row swaps (tiny diagonal pivot) still solves."""
        n = 12
        dense = random_banded_dense(rng, 2, n, 2, 2, dominant=False)
        dense[:, 5, 5] = 1e-300  # force a pivot swap at column 5
        dense[:, 6, 5] = 3.0
        csr = BatchCsr.from_dense(dense)
        x_true = rng.standard_normal((2, n))
        b = np.einsum("bij,bj->bi", dense, x_true)
        x = banded_lu_solve(csr_to_banded(csr), b)
        np.testing.assert_allclose(x, x_true, rtol=1e-6, atol=1e-8)

    def test_per_system_pivot_choices(self, rng):
        """Different systems may pivot differently at the same column."""
        n = 8
        dense = random_banded_dense(rng, 2, n, 1, 1, dominant=False)
        dense[0, 3, 3] = 1e-12  # only system 0 needs the swap
        dense[0, 4, 3] = 2.0
        dense[1, 3, 3] = 5.0
        csr = BatchCsr.from_dense(dense)
        x_true = rng.standard_normal((2, n))
        b = np.einsum("bij,bj->bi", dense, x_true)
        x = banded_lu_solve(csr_to_banded(csr), b)
        np.testing.assert_allclose(x, x_true, rtol=1e-6, atol=1e-8)

    def test_singular_system_raises(self, rng):
        n = 6
        dense = random_banded_dense(rng, 2, n, 1, 1)
        dense[1, :, :] = 0.0
        dense[1, 0, 0] = 1.0  # rank-1: column 1 is entirely zero
        csr = BatchCsr.from_dense(dense)
        with pytest.raises(SingularBatchError):
            banded_lu_solve(csr_to_banded(csr), np.ones((2, n)))

    def test_insufficient_fill_rejected(self, rng):
        dense = random_banded_dense(rng, 1, 6, 2, 1)
        banded = csr_to_banded(BatchCsr.from_dense(dense), fill=1)
        with pytest.raises(ValueError, match="fill"):
            banded_lu_solve(banded, np.ones((1, 6)))

    def test_rhs_shape_checked(self, rng):
        dense = random_banded_dense(rng, 2, 6, 1, 1)
        banded = csr_to_banded(BatchCsr.from_dense(dense))
        with pytest.raises(ValueError):
            banded_lu_solve(banded, np.ones((1, 6)))

    def test_tridiagonal_large(self, rng):
        """A larger tridiagonal batch, the classic dgbsv workload."""
        nb, n = 3, 200
        dense = random_banded_dense(rng, nb, n, 1, 1)
        csr = BatchCsr.from_dense(dense)
        x_true = rng.standard_normal((nb, n))
        b = csr.apply(x_true)
        x = banded_lu_solve(csr_to_banded(csr), b)
        np.testing.assert_allclose(x, x_true, rtol=1e-8, atol=1e-10)


class TestPropertyBased:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(2, 30),
        kl=st.integers(0, 4),
        ku=st.integers(0, 4),
        nb=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_lu_solves_any_dominant_band(self, seed, n, kl, ku, nb):
        rng = np.random.default_rng(seed)
        kl, ku = min(kl, n - 1), min(ku, n - 1)
        dense = random_banded_dense(rng, nb, n, kl, ku)
        csr = BatchCsr.from_dense(dense)
        x_true = rng.standard_normal((nb, n))
        b = csr.apply(x_true)
        x = banded_lu_solve(csr_to_banded(csr), b)
        np.testing.assert_allclose(x, x_true, rtol=1e-6, atol=1e-8)

    @given(seed=st.integers(0, 2**20), n=st.integers(2, 25))
    @settings(max_examples=40, deadline=None)
    def test_lu_and_qr_agree(self, seed, n):
        from repro.core import banded_qr_solve

        rng = np.random.default_rng(seed)
        dense = random_banded_dense(rng, 2, n, 2, 2)
        csr = BatchCsr.from_dense(dense)
        b = rng.standard_normal((2, n))
        x_lu = banded_lu_solve(csr_to_banded(csr), b)
        x_qr = banded_qr_solve(csr_to_banded(csr), b)
        np.testing.assert_allclose(x_lu, x_qr, rtol=1e-6, atol=1e-8)


class TestBatchBandedLuSolver:
    def test_solve_interface(self, rng):
        dense = random_banded_dense(rng, 3, 15, 2, 2)
        csr = BatchCsr.from_dense(dense)
        x_true = rng.standard_normal((3, 15))
        b = csr.apply(x_true)
        res = BatchBandedLu().solve(csr, b)
        assert res.all_converged
        assert res.solver == "banded-lu"
        assert np.all(res.iterations == 1)
        np.testing.assert_allclose(res.x, x_true, rtol=1e-8, atol=1e-10)
        assert np.all(res.residual_norms < 1e-8)

    def test_reports_per_system_health(self, rng):
        """A direct solve carries health codes like an iterative one."""
        csr = BatchCsr.from_dense(random_banded_dense(rng, 3, 15, 2, 2))
        res = BatchBandedLu().solve(csr, rng.standard_normal((3, 15)))
        assert res.health.dtype == HEALTH_DTYPE
        np.testing.assert_array_equal(res.health, [SolverHealth.CONVERGED] * 3)

    def test_accepts_banded_input(self, rng):
        dense = random_banded_dense(rng, 2, 10, 1, 2)
        csr = BatchCsr.from_dense(dense)
        banded = csr_to_banded(csr)
        work_ref = banded.work.copy()
        b = rng.standard_normal((2, 10))
        res = BatchBandedLu().solve(banded, b)
        # Caller's banded storage must not be clobbered.
        np.testing.assert_array_equal(banded.work, work_ref)
        np.testing.assert_allclose(
            csr.apply(res.x), b, rtol=1e-8, atol=1e-10
        )

    def test_initial_guess_ignored(self, rng):
        dense = random_banded_dense(rng, 2, 10, 1, 1)
        csr = BatchCsr.from_dense(dense)
        b = rng.standard_normal((2, 10))
        res1 = BatchBandedLu().solve(csr, b)
        res2 = BatchBandedLu().solve(csr, b, x0=rng.standard_normal((2, 10)))
        np.testing.assert_array_equal(res1.x, res2.x)

    def test_solves_xgc_matrices(self, paper_app):
        """The dgbsv path must handle the actual collision matrices."""
        matrix, f = paper_app.build_matrices()
        from repro.core import to_format

        csr = to_format(matrix, "csr")
        bw = detect_bandwidths(csr)
        assert bw.kl == bw.ku == paper_app.config.grid.nv_par + 1
        res = BatchBandedLu().solve(csr, f)
        assert np.all(res.residual_norms < 1e-8)
