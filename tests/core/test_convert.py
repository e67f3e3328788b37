"""Format-conversion tests, including property-based roundtrips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import BatchCsr, BatchDense, BatchDia, to_format


@pytest.fixture
def dia_batch(csr_batch):
    return to_format(csr_batch, "dia")


class TestPairwise:
    def test_csr_to_ell_values(self, csr_batch, dense_batch):
        ell = to_format(csr_batch, "ell")
        for k in range(ell.num_batch):
            np.testing.assert_array_equal(ell.entry_dense(k), dense_batch[k])

    def test_ell_to_csr_roundtrip(self, csr_batch):
        back = to_format(to_format(csr_batch, "ell"), "csr")
        np.testing.assert_array_equal(back.row_ptrs, csr_batch.row_ptrs)
        np.testing.assert_array_equal(back.col_idxs, csr_batch.col_idxs)
        np.testing.assert_allclose(back.values, csr_batch.values)

    def test_csr_to_dense(self, csr_batch, dense_batch):
        np.testing.assert_array_equal(to_format(csr_batch, "dense").values, dense_batch)

    def test_ell_to_dense(self, ell_batch, dense_batch):
        np.testing.assert_array_equal(to_format(ell_batch, "dense").values, dense_batch)

    def test_dense_to_csr_to_ell_chain(self, dense_batch):
        d = BatchDense(dense_batch)
        chain = to_format(to_format(d, "csr"), "ell")
        for k in range(d.num_batch):
            np.testing.assert_array_equal(chain.entry_dense(k), dense_batch[k])

    def test_dense_to_ell_direct(self, dense_batch):
        e = to_format(BatchDense(dense_batch), "ell")
        for k in range(e.num_batch):
            np.testing.assert_array_equal(e.entry_dense(k), dense_batch[k])

    def test_csr_to_dia_values(self, csr_batch, dense_batch):
        dia = to_format(csr_batch, "dia")
        for k in range(dia.num_batch):
            np.testing.assert_array_equal(dia.entry_dense(k), dense_batch[k])

    def test_ell_to_dia_matches_csr_to_dia(self, csr_batch, ell_batch):
        via_csr = to_format(csr_batch, "dia")
        via_ell = to_format(ell_batch, "dia")
        np.testing.assert_array_equal(via_ell.offsets, via_csr.offsets)
        np.testing.assert_array_equal(via_ell.values, via_csr.values)

    def test_dia_to_csr_widens_to_in_band_pattern(self, csr_batch, dense_batch):
        """DIA -> CSR reports the full in-band pattern (stored zeros
        included), so the pattern may widen — the values must not."""
        back = to_format(to_format(csr_batch, "dia"), "csr")
        assert back.nnz_per_system >= csr_batch.nnz_per_system
        for k in range(back.num_batch):
            np.testing.assert_array_equal(back.entry_dense(k), dense_batch[k])

    def test_dia_to_ell_entries(self, dia_batch, dense_batch):
        ell = to_format(dia_batch, "ell")
        for k in range(ell.num_batch):
            np.testing.assert_array_equal(ell.entry_dense(k), dense_batch[k])

    def test_dense_to_dia_roundtrip(self, dense_batch):
        dia = to_format(BatchDense(dense_batch), "dia")
        for k in range(dia.num_batch):
            np.testing.assert_array_equal(dia.entry_dense(k), dense_batch[k])


class TestToFormat:
    @pytest.mark.parametrize("target", ["csr", "ell", "dia", "dense"])
    def test_identity_returns_same_object(self, csr_batch, ell_batch, dia_batch,
                                          dense_fmt_batch, target):
        src = {"csr": csr_batch, "ell": ell_batch, "dia": dia_batch,
               "dense": dense_fmt_batch}[target]
        assert to_format(src, target) is src

    @pytest.mark.parametrize("src_name", ["csr", "ell", "dia", "dense"])
    @pytest.mark.parametrize("dst_name", ["csr", "ell", "dia", "dense"])
    def test_all_pairs_preserve_values(
        self, csr_batch, ell_batch, dia_batch, dense_fmt_batch, dense_batch,
        src_name, dst_name
    ):
        src = {"csr": csr_batch, "ell": ell_batch, "dia": dia_batch,
               "dense": dense_fmt_batch}[src_name]
        dst = to_format(src, dst_name)
        assert dst.format_name == dst_name
        for k in range(dst.num_batch):
            np.testing.assert_array_equal(dst.entry_dense(k), dense_batch[k])

    def test_unknown_format_raises(self, csr_batch):
        with pytest.raises(ValueError, match="no conversion"):
            to_format(csr_batch, "coo")


@st.composite
def sparse_batches(draw):
    """Random shared-pattern batches as dense arrays (nonzero entries)."""
    nb = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 12))
    pattern = draw(
        hnp.arrays(np.bool_, (n, m), elements=st.booleans())
    )
    vals = draw(
        hnp.arrays(
            np.float64,
            (nb, n, m),
            elements=st.floats(
                min_value=0.5, max_value=100.0, allow_nan=False
            ),
        )
    )
    return vals * pattern


class TestPropertyBased:
    @given(dense=sparse_batches())
    @settings(max_examples=60, deadline=None)
    def test_dense_csr_dense_roundtrip(self, dense):
        m = BatchCsr.from_dense(dense)
        np.testing.assert_array_equal(to_format(m, "dense").values, dense)

    @given(dense=sparse_batches())
    @settings(max_examples=60, deadline=None)
    def test_csr_ell_agree_on_spmv(self, dense):
        csr = BatchCsr.from_dense(dense)
        ell = to_format(csr, "ell")
        rng = np.random.default_rng(0)
        x = rng.standard_normal((csr.num_batch, csr.num_cols))
        np.testing.assert_allclose(
            csr.apply(x), ell.apply(x), rtol=1e-12, atol=1e-12
        )

    @given(dense=sparse_batches())
    @settings(max_examples=60, deadline=None)
    def test_ell_csr_ell_preserves_entries(self, dense):
        ell = to_format(BatchDense(dense), "ell")
        back = to_format(to_format(ell, "csr"), "ell")
        for k in range(ell.num_batch):
            np.testing.assert_array_equal(
                back.entry_dense(k), ell.entry_dense(k)
            )

    @given(dense=sparse_batches())
    @settings(max_examples=60, deadline=None)
    def test_dense_dia_dense_roundtrip(self, dense):
        m = BatchDia.from_dense(dense)
        np.testing.assert_array_equal(to_format(m, "dense").values, dense)

    @given(dense=sparse_batches())
    @settings(max_examples=60, deadline=None)
    def test_csr_dia_agree_on_spmv(self, dense):
        csr = BatchCsr.from_dense(dense)
        dia = to_format(csr, "dia")
        rng = np.random.default_rng(0)
        x = rng.standard_normal((csr.num_batch, csr.num_cols))
        np.testing.assert_allclose(
            csr.apply(x), dia.apply(x), rtol=1e-12, atol=1e-12
        )

    @given(dense=sparse_batches())
    @settings(max_examples=60, deadline=None)
    def test_dia_csr_dia_preserves_entries(self, dense):
        """DIA -> CSR -> DIA is stable: the widened in-band pattern is a
        fixed point, so bands and offsets round-trip exactly."""
        dia = BatchDia.from_dense(dense)
        back = to_format(to_format(dia, "csr"), "dia")
        np.testing.assert_array_equal(back.offsets, dia.offsets)
        np.testing.assert_array_equal(back.values, dia.values)

    @given(dense=sparse_batches())
    @settings(max_examples=40, deadline=None)
    def test_storage_ordering(self, dense):
        """Sparse formats never use more value storage than dense payload
        (per Fig. 3, when the pattern is genuinely sparse the values
        dominate and sharing the pattern amortises the metadata)."""
        d = BatchDense(dense)
        csr = to_format(d, "csr")
        assert csr.values.nbytes <= d.values.nbytes
