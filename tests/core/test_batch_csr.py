"""Tests for the BatchCsr format (shared pattern, per-system values)."""

import numpy as np
import pytest

from repro.core import (
    BatchCsr,
    DimensionMismatch,
    InvalidFormatError,
)


def tiny_csr() -> BatchCsr:
    """2 systems of the 3x3 matrix pattern [[a, b, 0], [0, c, 0], [d, 0, e]]."""
    row_ptrs = [0, 2, 3, 5]
    col_idxs = [0, 1, 1, 0, 2]
    values = [[1.0, 2.0, 3.0, 4.0, 5.0], [10.0, 20.0, 30.0, 40.0, 50.0]]
    return BatchCsr(3, row_ptrs, col_idxs, values)


class TestConstruction:
    def test_attributes(self):
        m = tiny_csr()
        assert m.num_batch == 2
        assert m.num_rows == 3
        assert m.num_cols == 3
        assert m.nnz_per_system == 5
        np.testing.assert_array_equal(m.nnz_per_row(), [2, 1, 2])

    def test_storage_accounting_matches_paper_formula(self):
        m = tiny_csr()
        # num_matrices*nnz*8 + (rows+1)*4 + nnz*4 (Fig. 3 formula).
        expected = 2 * 5 * 8 + 4 * 4 + 5 * 4
        assert m.storage_bytes() == expected

    def test_rejects_bad_row_ptrs_end(self):
        with pytest.raises(InvalidFormatError):
            BatchCsr(3, [0, 2, 3, 4], [0, 1, 1, 0, 2], np.zeros((1, 5)))

    def test_rejects_decreasing_row_ptrs(self):
        with pytest.raises(InvalidFormatError):
            BatchCsr(3, [0, 3, 2, 5], [0, 1, 1, 0, 2], np.zeros((1, 5)))

    def test_rejects_out_of_range_columns(self):
        with pytest.raises(InvalidFormatError):
            BatchCsr(3, [0, 2, 3, 5], [0, 1, 1, 0, 7], np.zeros((1, 5)))

    def test_rejects_repeated_column(self):
        """apply() would sum both entries while diagonal(), entry_dense()
        and every conversion keep only one of them."""
        with pytest.raises(InvalidFormatError, match="row 0 stores column 0"):
            BatchCsr(2, [0, 2, 3], [0, 0, 1], [[1.0, 2.0, 5.0]])
        with pytest.raises(InvalidFormatError, match="row 1 stores column 2"):
            BatchCsr(3, [0, 1, 4], [0, 2, 1, 2], np.ones((1, 4)))

    def test_rejects_value_nnz_mismatch(self):
        with pytest.raises(DimensionMismatch):
            BatchCsr(3, [0, 2, 3, 5], [0, 1, 1, 0, 2], np.zeros((1, 4)))

    def test_check_false_skips_validation(self):
        # Invalid column survives when check=False (fast path contract).
        m = BatchCsr(3, [0, 2, 3, 5], [0, 1, 1, 0, 2], np.zeros((1, 5)), check=False)
        assert m.nnz_per_system == 5


class TestFromDense:
    def test_roundtrip(self, dense_batch):
        m = BatchCsr.from_dense(dense_batch)
        for k in range(m.num_batch):
            np.testing.assert_array_equal(m.entry_dense(k), dense_batch[k])

    def test_union_pattern(self):
        # Entry present in only one system must be stored for all; there is
        # no magnitude threshold, so a tiny entry is stored too.
        dense = np.zeros((2, 2, 2))
        dense[0, 0, 1] = 5.0
        dense[1, 1, 0] = 1e-14
        dense[:, 0, 0] = 1.0
        dense[:, 1, 1] = 1.0
        m = BatchCsr.from_dense(dense)
        assert m.nnz_per_system == 4
        assert m.entry_dense(1)[0, 1] == 0.0
        assert m.entry_dense(1)[1, 0] == 1e-14


class TestApply:
    def test_matches_dense(self, rng, csr_batch, dense_batch):
        x = rng.standard_normal((csr_batch.num_batch, csr_batch.num_cols))
        y = csr_batch.apply(x)
        expected = np.einsum("bij,bj->bi", dense_batch, x)
        np.testing.assert_allclose(y, expected, rtol=1e-12, atol=1e-12)

    def test_empty_rows_give_zero(self):
        # Pattern with an empty middle row and empty last row.
        m = BatchCsr(3, [0, 2, 2, 2], [0, 1], [[1.0, 2.0]])
        y = m.apply(np.array([[1.0, 1.0, 1.0]]))
        np.testing.assert_array_equal(y, [[3.0, 0.0, 0.0]])

    def test_rowwise_precision_under_wild_scaling(self, rng):
        """Regression: each row's product must be computed independently —
        a global prefix-sum reduction lets 1e+6-magnitude rows destroy the
        precision of 1e-6-magnitude rows."""
        nb, n = 4, 30
        dense = rng.standard_normal((nb, n, n)) * (rng.random((1, n, n)) < 0.3)
        i = np.arange(n)
        dense[:, i, i] = np.abs(dense).sum(axis=2) + 1.0
        dense *= 10.0 ** rng.integers(-6, 7, size=(nb, n, 1))
        m = BatchCsr.from_dense(dense)
        x = rng.standard_normal((nb, n))
        y = m.apply(x)
        ref = np.einsum("bij,bj->bi", dense, x)
        rel = np.abs(y - ref) / np.maximum(np.abs(ref), 1e-300)
        assert rel.max() < 1e-12

    def test_out_parameter(self, rng, csr_batch):
        x = rng.standard_normal((csr_batch.num_batch, csr_batch.num_cols))
        out = np.empty((csr_batch.num_batch, csr_batch.num_rows))
        assert csr_batch.apply(x, out=out) is out

    def test_rejects_bad_vector(self, csr_batch):
        with pytest.raises(DimensionMismatch):
            csr_batch.apply(np.zeros((1, csr_batch.num_cols)))


class TestAccessors:
    def test_diagonal(self, csr_batch, dense_batch):
        diag = csr_batch.diagonal()
        expected = np.einsum("bii->bi", dense_batch)
        np.testing.assert_allclose(diag, expected)

    def test_diagonal_missing_entries_zero(self):
        m = tiny_csr()  # row 2 has no diagonal entry
        assert m.diagonal()[0, 2] == 5.0  # (2,2) stored as 'e'
        m2 = BatchCsr(3, [0, 1, 2, 3], [1, 2, 0], [[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(m2.diagonal(), [[0.0, 0.0, 0.0]])

    def test_copy_shares_pattern_copies_values(self):
        m = tiny_csr()
        c = m.copy()
        assert c.col_idxs is m.col_idxs
        c.values[0, 0] = 99.0
        assert m.values[0, 0] != 99.0
