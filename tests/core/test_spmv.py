"""Tests for the batch-matrix contract and the residual helper."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import (
    BatchCsr,
    BatchDense,
    BatchDia,
    BatchEll,
    BatchMatrix,
    BatchTridiag,
    DimensionMismatch,
    residual,
    to_format,
)

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


def constructor_built(m, values):
    """``m``'s pattern with ``values``, built (and validated) by its
    format's constructor."""
    if m.format_name == "csr":
        return BatchCsr(m.num_cols, m.row_ptrs, m.col_idxs, values)
    if m.format_name == "ell":
        return BatchEll(m.num_cols, m.col_idxs, values)
    if m.format_name == "dia":
        return BatchDia(m.num_cols, m.offsets, values)
    return BatchDense(values)


class TestWithValues:
    """``with_values``: one implementation for every format."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_shares_pattern_and_everything_derived(self, rng, csr_batch, fmt, dtype):
        ref = to_format(csr_batch, fmt).astype(dtype)
        x = rng.standard_normal((ref.num_batch, ref.num_cols)).astype(dtype)
        ref.apply(x)  # ELL and DIA build their SpMV scratch
        values = (3.0 * ref.values[:4]).astype(dtype)
        derived = ref.with_values(values)
        assert type(derived) is type(ref)
        assert derived.values is values
        assert (derived.num_batch, derived.num_rows, derived.num_cols) == (
            4, ref.num_rows, ref.num_cols,
        )
        assert all(a is b for a, b in zip(derived.pattern, ref.pattern, strict=True))
        for name in set(vars(ref)) - {"_values", "_shape", "_work"}:
            assert vars(derived)[name] is vars(ref)[name], name
        assert derived._work is None  # scratch is never shared

        built = constructor_built(ref, values)
        for probe in (x[:4], -x[:4]):
            assert derived.apply(probe).tobytes() == built.apply(probe).tobytes()

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_other_values_raise(self, csr_batch, fmt):
        ref = to_format(csr_batch, fmt)
        v = ref.values
        for bad in (
            v[..., :-1],                  # another per-system shape
            v[0],                         # batch axis missing
            v[..., None],                 # one axis too many
            v.astype(np.int64),           # not a float value array
            v.astype(np.float16),
            v.tolist(),
        ):
            with pytest.raises(DimensionMismatch):
                ref.with_values(bad)

    def test_dia_rejects_a_shorter_band(self, paper_app):
        """A 500-row band on the 992-row pattern used to build a 500x992
        matrix silently."""
        dia, _ = paper_app.build_matrices()
        assert dia.format_name == "dia" and dia.num_rows == 992
        with pytest.raises(DimensionMismatch, match="992"):
            dia.with_values(np.zeros((3, dia.num_diags, 500)))

    def test_dia_shard_views_apply_concurrently(self, paper_app):
        """Shard views of one matrix, as ``PicardStepper._solve`` builds
        them, applied at once on more threads than cores, each equal their
        serial product on every pass."""
        dia, f = paper_app.build_matrices()
        reps = 6  # 24 systems: 4 shards of 6, one DIA tile each
        values = np.concatenate([dia.values * (1.0 + 0.01 * k) for k in range(reps)])
        matrix = dia.with_values(values)
        x = np.concatenate([f * (1.0 - 0.02 * k) for k in range(reps)])
        matrix.apply(x)
        bounds = [(0, 6), (6, 12), (12, 18), (18, 24)]
        shards = [matrix.with_values(matrix.values[lo:hi]) for lo, hi in bounds]
        serial = [
            constructor_built(dia, values[lo:hi]).apply(x[lo:hi]) for lo, hi in bounds
        ]
        start = threading.Barrier(len(shards))

        def run(k):
            lo, hi = bounds[k]
            out = np.empty_like(serial[k])
            start.wait(timeout=30)
            for _ in range(50):
                shards[k].apply(x[lo:hi], out=out)
                if out.tobytes() != serial[k].tobytes():
                    return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(shards)) as pool:
                futures = [pool.submit(run, k) for k in range(len(shards))]
                assert [fut.result(timeout=60) for fut in futures] == [True] * 4
        finally:
            sys.setswitchinterval(interval)
