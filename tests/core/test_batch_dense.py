"""Tests for the BatchDense format and the batched BLAS-1 reductions."""

import numpy as np
import pytest

from repro.core import BatchDense, DimensionMismatch, batch_dot, batch_norm2


class TestBatchDense:
    def test_shape_and_storage(self, dense_batch):
        m = BatchDense(dense_batch)
        nb, n, _ = dense_batch.shape
        assert m.num_batch == nb
        assert m.num_rows == n
        assert m.num_cols == n
        assert m.nnz_per_system == n * n
        assert m.storage_bytes() == dense_batch.nbytes

    def test_apply_matches_reference(self, rng, dense_batch):
        m = BatchDense(dense_batch)
        x = rng.standard_normal((m.num_batch, m.num_cols))
        y = m.apply(x)
        for k in range(m.num_batch):
            np.testing.assert_allclose(y[k], dense_batch[k] @ x[k], rtol=1e-13)

    def test_apply_out_parameter(self, rng, dense_batch):
        m = BatchDense(dense_batch)
        x = rng.standard_normal((m.num_batch, m.num_cols))
        out = np.empty((m.num_batch, m.num_rows))
        res = m.apply(x, out=out)
        assert res is out
        np.testing.assert_allclose(out, m.apply(x))

    def test_apply_rejects_bad_shape(self, dense_batch):
        m = BatchDense(dense_batch)
        with pytest.raises(DimensionMismatch):
            m.apply(np.zeros((m.num_batch, m.num_cols + 1)))

    def test_copy_is_deep(self, dense_batch):
        m = BatchDense(dense_batch)
        c = m.copy()
        c.values[0, 0, 0] += 1.0
        assert m.values[0, 0, 0] != c.values[0, 0, 0]

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            BatchDense(np.zeros((3, 4)))


class TestBlas1:
    def test_batch_dot(self, rng):
        a = rng.standard_normal((4, 9))
        b = rng.standard_normal((4, 9))
        expected = np.array([a[k] @ b[k] for k in range(4)])
        np.testing.assert_allclose(batch_dot(a, b), expected, rtol=1e-13)

    def test_batch_dot_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            batch_dot(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_batch_norm2(self, rng):
        a = rng.standard_normal((5, 7))
        np.testing.assert_allclose(
            batch_norm2(a), np.linalg.norm(a, axis=1), rtol=1e-13
        )

    def test_batch_norm2_out(self, rng):
        a = rng.standard_normal((5, 7))
        out = np.empty(5)
        assert batch_norm2(a, out=out) is out
