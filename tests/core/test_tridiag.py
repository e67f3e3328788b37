"""Tests for the batched tridiagonal Thomas solver (related-work baseline)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchCsr,
    BatchThomas,
    BatchTridiag,
    thomas_solve,
)


def tridiag_bands(rng, nb, n):
    """Diagonally dominant ``(dl, d, du)`` bands and the same batch dense."""
    i = np.arange(n)
    dl = rng.standard_normal((nb, max(n - 1, 0)))
    du = rng.standard_normal((nb, max(n - 1, 0)))
    dense = np.zeros((nb, n, n))
    dense[:, i[1:], i[:-1]] = dl
    dense[:, i[:-1], i[1:]] = du
    d = np.abs(dense).sum(axis=2) + 1.0 + np.abs(rng.standard_normal((nb, n)))
    dense[:, i, i] = d
    return dl, d, du, dense


class TestThomasSolve:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 200])
    def test_matches_numpy(self, rng, n):
        dl, d, du, dense = tridiag_bands(rng, 3, n)
        b = rng.standard_normal((3, n))
        x = thomas_solve(dl, d, du, b)
        for k in range(3):
            np.testing.assert_allclose(
                x[k], np.linalg.solve(dense[k], b[k]), rtol=1e-9, atol=1e-11
            )

    def test_zero_pivot_raises(self):
        d = np.array([[0.0, 1.0]])
        dl = np.array([[1.0]])
        du = np.array([[1.0]])
        with pytest.raises(np.linalg.LinAlgError, match="pivot"):
            thomas_solve(dl, d, du, np.ones((1, 2)))

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            thomas_solve(np.zeros((1, 3)), np.zeros((1, 3)), np.zeros((1, 2)),
                         np.zeros((1, 3)))

    @given(
        seed=st.integers(0, 2**20),
        nb=st.integers(1, 5),
        n=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_random_dominant(self, seed, nb, n):
        rng = np.random.default_rng(seed)
        dl, d, du, dense = tridiag_bands(rng, nb, n)
        x_true = rng.standard_normal((nb, n))
        b = BatchCsr.from_dense(dense).apply(x_true)
        x = thomas_solve(dl, d, du, b)
        np.testing.assert_allclose(x, x_true, rtol=1e-7, atol=1e-9)


class TestBatchTridiag:
    def test_interleaved_layout(self, rng):
        """The value arrays are (n, nb) C-order: the batch axis is
        contiguous — the coalesced interleaved storage of the GPU kernels."""
        dl, d, du, _ = tridiag_bands(rng, 4, 6)
        tri = BatchTridiag(dl, d, du)
        assert tri._d.shape == (6, 4)
        assert tri._d.strides[1] == tri._d.itemsize

    def test_apply_matches_csr(self, rng):
        dl, d, du, dense = tridiag_bands(rng, 3, 12)
        csr = BatchCsr.from_dense(dense)
        tri = BatchTridiag(dl, d, du)
        x = rng.standard_normal((3, 12))
        np.testing.assert_allclose(tri.apply(x), csr.apply(x), rtol=1e-12)

    def test_storage_has_no_index_metadata(self, rng):
        dl, d, du, dense = tridiag_bands(rng, 4, 10)
        csr = BatchCsr.from_dense(dense)
        tri = BatchTridiag(dl, d, du)
        # values only: (3n - 2) * nb * 8 bytes vs CSR's values + indices.
        assert tri.storage_bytes() < csr.storage_bytes()


class TestBatchThomasSolver:
    def test_solve_interface(self, rng):
        dl, d, du, dense = tridiag_bands(rng, 4, 30)
        x_true = rng.standard_normal((4, 30))
        b = BatchCsr.from_dense(dense).apply(x_true)
        res = BatchThomas().solve(BatchTridiag(dl, d, du), b)
        assert res.all_converged
        assert res.solver == "thomas"
        np.testing.assert_allclose(res.x, x_true, rtol=1e-8, atol=1e-10)

    def test_agrees_with_banded_lu(self, rng):
        from repro.core import BatchBandedLu

        dl, d, du, dense = tridiag_bands(rng, 2, 25)
        b = rng.standard_normal((2, 25))
        x_thomas = BatchThomas().solve(BatchTridiag(dl, d, du), b).x
        x_lu = BatchBandedLu().solve(BatchCsr.from_dense(dense), b).x
        np.testing.assert_allclose(x_thomas, x_lu, rtol=1e-9, atol=1e-11)

    def test_rejects_nine_point_stencil(self, small_app):
        matrix, f = small_app.build_matrices()
        with pytest.raises(TypeError, match="BatchTridiag"):
            BatchThomas().solve(matrix, f)
