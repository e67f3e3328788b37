"""Tests for the BatchEll format (padded rows, coalescing-friendly layout)."""

import numpy as np
import pytest

from repro.core import (
    PAD_COL,
    BatchEll,
    DimensionMismatch,
    InvalidFormatError,
)


def tiny_ell() -> BatchEll:
    """2 systems, 3x3, max 2 nnz/row; row 1 padded."""
    col_idxs = np.array([[0, 1, 0], [1, PAD_COL, 2]], dtype=np.int32)
    values = np.array(
        [
            [[1.0, 3.0, 4.0], [2.0, 0.0, 5.0]],
            [[10.0, 30.0, 40.0], [20.0, 0.0, 50.0]],
        ]
    )
    return BatchEll(3, col_idxs, values)


class TestConstruction:
    def test_attributes(self):
        m = tiny_ell()
        assert m.num_batch == 2
        assert m.num_rows == 3
        assert m.num_cols == 3
        assert m.max_nnz_row == 2
        assert m.nnz_per_system == 5
        assert m.stored_per_system == 6
        assert m.padding_fraction() == pytest.approx(1.0 / 6.0)

    def test_storage_accounting_matches_paper_formula(self):
        m = tiny_ell()
        # num_matrices*stored*8 + stored*4 (Fig. 3 formula, padded).
        assert m.storage_bytes() == 2 * 6 * 8 + 6 * 4

    def test_rejects_nonzero_padding_values(self):
        col_idxs = np.array([[0], [PAD_COL]], dtype=np.int32)
        values = np.ones((1, 2, 1))
        with pytest.raises(InvalidFormatError):
            BatchEll(1, col_idxs, values)

    def test_rejects_out_of_range_columns(self):
        col_idxs = np.array([[0], [5]], dtype=np.int32)
        values = np.ones((1, 2, 1))
        with pytest.raises(InvalidFormatError):
            BatchEll(3, col_idxs, values)

    def test_rejects_repeated_column(self):
        """Two slots of one row naming the same column: apply() would sum
        them while every entry-based view keeps one."""
        col_idxs = np.array([[0, 1], [0, PAD_COL]], dtype=np.int32)
        values = np.array([[[1.0, 5.0], [2.0, 0.0]]])
        with pytest.raises(InvalidFormatError, match="row 0 stores column 0"):
            BatchEll(2, col_idxs, values)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            BatchEll(3, np.zeros((2, 3), dtype=np.int32), np.zeros((1, 3, 2)))

    def test_values_layout_rows_contiguous(self):
        """The row axis must be the innermost (contiguous) one — the NumPy
        rendition of the paper's column-major coalesced layout."""
        m = tiny_ell()
        assert m.values.strides[2] == m.values.itemsize


class TestFromDense:
    def test_roundtrip(self, dense_batch):
        m = BatchEll.from_dense(dense_batch)
        for k in range(m.num_batch):
            np.testing.assert_array_equal(m.entry_dense(k), dense_batch[k])

    def test_max_nnz_row_is_longest_row(self, dense_batch):
        m = BatchEll.from_dense(dense_batch)
        per_row = (np.abs(dense_batch) > 0).any(axis=0).sum(axis=1)
        assert m.max_nnz_row == per_row.max()

    def test_padding_is_clean(self, dense_batch):
        m = BatchEll.from_dense(dense_batch)
        pad = m.col_idxs == PAD_COL
        assert np.all(m.values[:, pad] == 0.0)


class TestApply:
    def test_matches_dense(self, rng, ell_batch, dense_batch):
        x = rng.standard_normal((ell_batch.num_batch, ell_batch.num_cols))
        y = ell_batch.apply(x)
        expected = np.einsum("bij,bj->bi", dense_batch, x)
        np.testing.assert_allclose(y, expected, rtol=1e-12, atol=1e-12)

    def test_padding_does_not_contribute(self):
        m = tiny_ell()
        x = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        y = m.apply(x)
        np.testing.assert_allclose(y[0], [1.0 + 2.0, 3.0, 4.0 + 5.0])

    def test_gather_indices_cached_at_construction(self):
        """Padded columns are pre-clamped once, not per apply call."""
        m = tiny_ell()
        cached = m._gather_cols
        m.apply(np.ones((2, 3)))
        assert m._gather_cols is cached
        np.testing.assert_array_equal(cached, np.maximum(m.col_idxs, 0))

    def test_out_parameter_reset(self, rng, ell_batch):
        x = rng.standard_normal((ell_batch.num_batch, ell_batch.num_cols))
        out = np.full((ell_batch.num_batch, ell_batch.num_rows), 7.0)
        ell_batch.apply(x, out=out)
        np.testing.assert_allclose(out, ell_batch.apply(x))

    def test_rejects_bad_vector(self, ell_batch):
        with pytest.raises(DimensionMismatch):
            ell_batch.apply(np.zeros((ell_batch.num_batch, 1)))


class TestAccessors:
    def test_diagonal(self, ell_batch, dense_batch):
        np.testing.assert_allclose(
            ell_batch.diagonal(), np.einsum("bii->bi", dense_batch)
        )

    def test_copy_is_independent(self):
        m = tiny_ell()
        c = m.copy()
        c.values[0, 0, 0] = 99.0
        assert m.values[0, 0, 0] != 99.0
