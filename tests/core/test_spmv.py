"""Tests for the batch-matrix contract and the residual helper."""

import numpy as np
import pytest

from repro.core import BatchCsr, BatchMatrix, BatchTridiag, residual, to_format

FORMATS = ("csr", "ell", "dia", "dense")

#: Every built-in format in both precisions, plus the tridiagonal layout,
#: which converts to the formats but is not one of them (float64 only).
CONTRACT_CASES = [
    (fmt, dtype) for fmt in FORMATS for dtype in ("float64", "float32")
] + [("tridiag", "float64")]


class TestDispatch:
    @pytest.mark.parametrize("fmt", ["csr", "ell", "dense"])
    def test_protocol_conformance(self, fmt, csr_batch, ell_batch, dense_fmt_batch):
        m = {"csr": csr_batch, "ell": ell_batch, "dense": dense_fmt_batch}[fmt]
        assert isinstance(m, BatchMatrix)
        assert m.format_name == fmt

    def test_all_formats_agree(self, rng, csr_batch, ell_batch, dense_fmt_batch):
        x = rng.standard_normal((csr_batch.num_batch, csr_batch.num_cols))
        y_csr = csr_batch.apply(x)
        np.testing.assert_allclose(ell_batch.apply(x), y_csr, rtol=1e-12)
        np.testing.assert_allclose(dense_fmt_batch.apply(x), y_csr, rtol=1e-12)

    def test_residual(self, rng, csr_batch):
        nb, n = csr_batch.num_batch, csr_batch.num_rows
        x = rng.standard_normal((nb, n))
        b = rng.standard_normal((nb, n))
        r = residual(csr_batch, x, b)
        np.testing.assert_allclose(r, b - csr_batch.apply(x), rtol=1e-12)

    def test_residual_zero_for_exact_solution(self, rng, csr_batch):
        x = rng.standard_normal((csr_batch.num_batch, csr_batch.num_rows))
        b = csr_batch.apply(x)
        r = residual(csr_batch, x, b)
        assert np.abs(r).max() < 1e-10


@pytest.mark.parametrize(
    "fmt,dtype", CONTRACT_CASES, ids=[f"{f}-{d}" for f, d in CONTRACT_CASES]
)
def test_format_contract(rng, dense_batch, fmt, dtype):
    """The shared-pattern contract every format inherits from BatchMatrix.

    Derived batches share the pattern arrays by identity, storage is values
    plus pattern, and ``to_format`` round-trips through every target with
    dtype, entries and SpMV results exactly preserved.
    """
    csr = BatchCsr.from_dense(dense_batch).astype(dtype)
    if fmt == "tridiag":
        i = np.arange(csr.num_rows - 1)
        src = BatchTridiag(
            dense_batch[:, i + 1, i], csr.diagonal(), dense_batch[:, i, i + 1]
        )
        home = "dia"  # tridiag is a source only; compare in its DIA image
    else:
        src, home = to_format(csr, fmt), fmt
    ref = to_format(src, home)

    sel = np.array([4, 1, 3])
    mask = np.isin(np.arange(ref.num_batch), sel)
    slab = np.empty((ref.num_batch,) + ref.values.shape[1:], dtype=ref.dtype)
    other = np.float32 if ref.dtype == np.float64 else np.float64
    for derived in (
        ref.with_values(2.0 * ref.values),
        ref.astype(other),
        ref.take_batch(sel),
        ref.take_batch(mask),
        ref.take_batch(sel, values_out=slab),
    ):
        assert type(derived) is type(ref)
        assert len(derived.pattern) == len(ref.pattern)
        assert all(a is b for a, b in zip(derived.pattern, ref.pattern))
    assert ref.storage_bytes() == ref.values.nbytes + sum(
        p.nbytes for p in ref.pattern
    )

    x = rng.standard_normal((ref.num_batch, ref.num_cols)).astype(ref.dtype)
    for target in FORMATS:
        there = to_format(src, target)
        back = to_format(there, home)
        assert there.format_name == target
        assert there.dtype == back.dtype == ref.dtype
        for k in range(ref.num_batch):
            np.testing.assert_array_equal(there.entry_dense(k), ref.entry_dense(k))
            np.testing.assert_array_equal(back.entry_dense(k), ref.entry_dense(k))
        # DIA stores whole diagonals, so a CSR/ELL pattern with holes in its
        # bands comes back widened by explicit zeros; every other round trip
        # returns the very same batch.
        if target == "dia" and home in ("csr", "ell"):
            assert back.nnz_per_system > ref.nnz_per_system
            continue
        for a, b in zip(back.pattern, ref.pattern, strict=True):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(back.values, ref.values)
        np.testing.assert_array_equal(back.apply(x), ref.apply(x))
