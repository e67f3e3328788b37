"""Tests for the BatchDia format (shared diagonal offsets, gather-free SpMV)."""

import numpy as np
import pytest

from repro.core import (
    AbsoluteResidual,
    BatchBicgstab,
    BatchCsr,
    BatchDia,
    DimensionMismatch,
    InvalidFormatError,
    to_format,
)
from repro.core.compaction import COMPACT_MIN_BATCH


def tiny_dia() -> BatchDia:
    """2 systems, 3x3, diagonals {-1, 0, 2}; fringe positions are zero."""
    offsets = np.array([-1, 0, 2])
    values = np.array(
        [
            [[0.0, 6.0, 7.0], [1.0, 2.0, 3.0], [4.0, 0.0, 0.0]],
            [[0.0, 60.0, 70.0], [10.0, 20.0, 30.0], [40.0, 0.0, 0.0]],
        ]
    )
    return BatchDia(3, offsets, values)


@pytest.fixture
def dia_batch(csr_batch) -> BatchDia:
    return to_format(csr_batch, "dia")


class TestConstruction:
    def test_attributes(self):
        m = tiny_dia()
        assert m.num_batch == 2
        assert m.num_rows == 3
        assert m.num_cols == 3
        assert m.num_diags == 3
        # Bands: offset -1 covers rows 1..2, offset 0 rows 0..2, offset 2
        # row 0 only -> 2 + 3 + 1 in-band positions.
        assert m.nnz_per_system == 6
        assert m.stored_per_system == 9
        assert m.padding_fraction() == pytest.approx(3.0 / 9.0)

    def test_storage_accounting(self):
        m = tiny_dia()
        # Padded bands + the shared offsets (Fig. 3 style accounting).
        assert m.storage_bytes() == m.values.nbytes + m.offsets.nbytes
        assert m.values.nbytes == 2 * 9 * 8

    def test_rejects_unsorted_offsets(self):
        with pytest.raises(InvalidFormatError):
            BatchDia(3, np.array([0, 0]), np.zeros((1, 2, 3)))
        with pytest.raises(InvalidFormatError):
            BatchDia(3, np.array([1, -1]), np.zeros((1, 2, 3)))

    def test_rejects_out_of_range_offsets(self):
        with pytest.raises(InvalidFormatError):
            BatchDia(3, np.array([3]), np.zeros((1, 1, 3)))
        with pytest.raises(InvalidFormatError):
            BatchDia(3, np.array([-3]), np.zeros((1, 1, 3)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            BatchDia(3, np.array([0, 1]), np.zeros((1, 3, 3)))

    def test_rejects_nonzero_fringe(self):
        values = np.ones((1, 1, 3))  # offset 1: row 2 is fringe
        with pytest.raises(InvalidFormatError):
            BatchDia(3, np.array([1]), values)

    def test_rejects_empty_offsets(self):
        with pytest.raises(InvalidFormatError):
            BatchDia(3, np.zeros(0, dtype=np.int64), np.zeros((1, 0, 3)))


class TestFromDense:
    def test_roundtrip(self, dense_batch):
        m = BatchDia.from_dense(dense_batch)
        for k in range(m.num_batch):
            np.testing.assert_array_equal(m.entry_dense(k), dense_batch[k])

    def test_offsets_are_union_of_diagonals(self, dense_batch):
        m = BatchDia.from_dense(dense_batch)
        rows, cols = np.nonzero((np.abs(dense_batch) > 0).any(axis=0))
        np.testing.assert_array_equal(m.offsets, np.unique(cols - rows))

    def test_fringe_is_clean(self, dense_batch):
        m = BatchDia.from_dense(dense_batch)
        assert np.all(m.values[:, m.fringe_mask()] == 0.0)

    def test_all_zero_batch(self):
        m = BatchDia.from_dense(np.zeros((2, 4, 4)))
        assert m.num_diags == 1
        np.testing.assert_array_equal(m.entry_dense(0), np.zeros((4, 4)))


class TestApply:
    def test_matches_dense(self, rng, dia_batch, dense_batch):
        x = rng.standard_normal((dia_batch.num_batch, dia_batch.num_cols))
        y = dia_batch.apply(x)
        expected = np.einsum("bij,bj->bi", dense_batch, x)
        np.testing.assert_allclose(y, expected, rtol=1e-12, atol=1e-12)

    def test_matches_csr(self, rng, dia_batch, csr_batch):
        x = rng.standard_normal((csr_batch.num_batch, csr_batch.num_cols))
        np.testing.assert_allclose(
            dia_batch.apply(x), csr_batch.apply(x), rtol=1e-13, atol=1e-13
        )

    def test_tiny_by_hand(self):
        m = tiny_dia()
        x = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        y = m.apply(x)
        # A[0] = [[1,0,4],[6,2,0],[0,7,3]] from the three bands.
        np.testing.assert_allclose(y[0], [1.0 + 4.0, 6.0 + 2.0, 7.0 + 3.0])

    def test_out_parameter_reset(self, rng, dia_batch):
        x = rng.standard_normal((dia_batch.num_batch, dia_batch.num_cols))
        out = np.full((dia_batch.num_batch, dia_batch.num_rows), 7.0)
        dia_batch.apply(x, out=out)
        np.testing.assert_array_equal(out, dia_batch.apply(x))

    def test_apply_allocates_no_batch_temporaries(self, rng):
        """After warm-up the SpMV allocates no batch-sized arrays — only
        NumPy's constant-size (64 kB per operand) ufunc iteration buffers,
        which do not grow with the batch."""
        import tracemalloc

        nb, n = 64, 2000  # one batch vector = 1 MB
        values = rng.standard_normal((nb, 3, n))
        values[:, 0, 0] = 0.0  # fringe of the subdiagonal
        values[:, 2, -1] = 0.0  # fringe of the superdiagonal
        m = BatchDia(n, np.array([-1, 0, 1]), values)
        x = rng.standard_normal((nb, n))
        out = np.empty((nb, n))
        m.apply(x, out=out)  # warm up the lazy scratch
        tracemalloc.start()
        m.apply(x, out=out)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < nb * n * 8 // 2  # far below one (nb, n) temporary

    def test_rejects_bad_vector(self, dia_batch):
        with pytest.raises(DimensionMismatch):
            dia_batch.apply(np.zeros((dia_batch.num_batch, 1)))


class TestAccessors:
    def test_diagonal(self, dia_batch, dense_batch):
        np.testing.assert_array_equal(
            dia_batch.diagonal(), np.einsum("bii->bi", dense_batch)
        )

    def test_diagonal_without_offset_zero(self):
        m = BatchDia(3, np.array([1]), np.array([[[5.0, 6.0, 0.0]]]))
        np.testing.assert_array_equal(m.diagonal(), np.zeros((1, 3)))

    def test_copy_is_independent(self):
        m = tiny_dia()
        c = m.copy()
        c.values[0, 1, 0] = 99.0
        assert m.values[0, 1, 0] != 99.0

    def test_take_batch_matches_csr(self, rng, dia_batch, csr_batch):
        idx = np.array([4, 1])
        sub_dia = dia_batch.take_batch(idx)
        sub_csr = csr_batch.take_batch(idx)
        assert sub_dia.num_batch == 2
        assert sub_dia.offsets is dia_batch.offsets  # shared metadata
        x = rng.standard_normal((2, dia_batch.num_cols))
        np.testing.assert_allclose(
            sub_dia.apply(x), sub_csr.apply(x), rtol=1e-13, atol=1e-13
        )

    def test_take_batch_boolean_mask(self, dia_batch):
        mask = np.zeros(dia_batch.num_batch, dtype=bool)
        mask[[0, 3]] = True
        sub = dia_batch.take_batch(mask)
        assert sub.num_batch == 2
        np.testing.assert_array_equal(sub.values[1], dia_batch.values[3])


class TestXgcStencil:
    """DIA on the exact collision pattern: short boundary rows mean some
    diagonals are only partially filled (stored zeros, not fringe)."""

    @pytest.fixture(scope="class")
    def stencil_pair(self, paper_stencil):
        from repro.xgc import CollisionCoefficients

        co = CollisionCoefficients.uniform(
            2, nu=1.0, vt2=1.0, eta=0.3, dt=0.1, u_par=0.2
        )
        csr = paper_stencil.assemble(co)
        return csr, to_format(csr, "dia")

    def test_nine_diagonals(self, stencil_pair):
        _, dia = stencil_pair
        assert dia.num_diags == 9
        nx = 32  # nv_par of the paper grid
        np.testing.assert_array_equal(
            dia.offsets,
            [-nx - 1, -nx, -nx + 1, -1, 0, 1, nx - 1, nx, nx + 1],
        )

    def test_boundary_holes_widen_pattern(self, stencil_pair):
        csr, dia = stencil_pair
        # Boundary rows drop stencil legs, so the in-band DIA pattern is a
        # strict superset of the CSR pattern (filled with stored zeros) —
        # while the fringe itself stays small.
        assert dia.nnz_per_system > csr.nnz_per_system
        assert dia.padding_fraction() < 0.05

    def test_spmv_parity(self, rng, stencil_pair):
        csr, dia = stencil_pair
        x = rng.standard_normal((2, csr.num_cols))
        ref = csr.apply(x)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(
            dia.apply(x), ref, rtol=0, atol=1e-13 * scale
        )

    def test_diagonal_and_take_batch_exact(self, stencil_pair):
        csr, dia = stencil_pair
        np.testing.assert_array_equal(dia.diagonal(), csr.diagonal())
        np.testing.assert_array_equal(
            dia.take_batch([1]).diagonal(), csr.take_batch([1]).diagonal()
        )


class TestCompaction:
    def test_solver_compaction_identical_on_dia(self, dense_batch):
        """BatchCompactor goes through take_batch only, so a compacted DIA
        solve must reproduce the uncompacted one bit-for-bit."""
        dia = BatchDia.from_dense(dense_batch)
        b = np.ones((dia.num_batch, dia.num_rows))
        crit = AbsoluteResidual(1e-10)
        plain = BatchBicgstab(
            criterion=crit, max_iter=200, compact_threshold=None
        ).solve(dia, b)
        solver = BatchBicgstab(
            criterion=crit, max_iter=200, compact_threshold=1.0
        )
        compacted = solver.solve(dia, b)
        assert dia.num_batch > COMPACT_MIN_BATCH
        assert solver.last_compaction_events > 0
        np.testing.assert_array_equal(plain.iterations, compacted.iterations)
        np.testing.assert_array_equal(plain.x, compacted.x)

    def test_dia_solve_matches_csr_iterations(self, dense_batch):
        dia = BatchDia.from_dense(dense_batch)
        csr = BatchCsr.from_dense(dense_batch)
        b = np.ones((dia.num_batch, dia.num_rows))
        solver = BatchBicgstab(criterion=AbsoluteResidual(1e-10), max_iter=200)
        res_dia = solver.solve(dia, b)
        res_csr = solver.solve(csr, b)
        np.testing.assert_array_equal(res_dia.iterations, res_csr.iterations)
        np.testing.assert_allclose(res_dia.x, res_csr.x, rtol=1e-10, atol=1e-12)
