"""Property-based pins on the format layer (hypothesis-generated batches).

The escalation ladder leans hard on format plumbing: ``take_batch``
gathers unhealthy sub-batches, ``to_format`` feeds the direct rung, and
every re-solve runs SpMV on the gathered copy.  These properties pin the
invariants that make that safe for *arbitrary* shared-pattern batches,
in both working precisions:

* format round-trips are bit-exact (conversion never rounds),
* ``take_batch`` composes like fancy indexing (gather of a gather),
* every sparse SpMV agrees with the dense GEMV reference to the working
  precision's resolution,
* the batch-tiled ELL/DIA kernels are bit-identical to the same product
  computed one system at a time, at every batch size around the tile.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BatchCsr, BatchDia, to_format
from repro.core import types as core_types

FORMATS = ("csr", "ell", "dia", "dense")
TILED_FORMATS = ("ell", "dia")


def tile_batch_sizes(tile: int) -> tuple[int, ...]:
    """Batch sizes straddling the tile: 1, tile-1, tile, tile+1, 2*tile+3."""
    return tuple(sorted({1, max(tile - 1, 1), tile, tile + 1, 2 * tile + 3}))


@contextmanager
def l2_budget(nbytes: int):
    """Temporarily shrink the SpMV tile budget so small batches span tiles."""
    saved = core_types.L2_TILE_BYTES
    core_types.L2_TILE_BYTES = nbytes
    try:
        yield
    finally:
        core_types.L2_TILE_BYTES = saved


def tile_rows(m) -> int:
    """Rows per system that ``m``'s SpMV tile budget counts."""
    return 2 * m.num_diags + 2 if m.format_name == "dia" else 4


def kernel_tile(m) -> int:
    """Systems per tile of ``m``'s SpMV at the current budget."""
    itemsize = m.dtype.itemsize
    if m.format_name == "dia":
        return core_types.dia_tile(m.num_diags, m.num_rows, itemsize)
    return core_types.batch_tile(m.num_rows, itemsize)


def per_system_reference(m, x) -> np.ndarray:
    """The untiled textbook ELL/DIA product, one system at a time.

    Accumulates from +0.0 in slot (ELL) or diagonal (DIA) order, and DIA
    skips every diagonal's fringe rows.
    """
    out = np.zeros((m.num_batch, m.num_rows), dtype=m.dtype)
    for s in range(m.num_batch):
        if m.format_name == "ell":
            cols = np.maximum(m.col_idxs, 0)
            for k in range(m.max_nnz_row):
                out[s] += m.values[s, k] * x[s, cols[k]]
        else:
            for k, d in enumerate(m.offsets.tolist()):
                lo, hi = max(0, -d), min(m.num_rows, m.num_cols - d)
                if lo < hi:
                    out[s, lo:hi] += m.values[s, k, lo:hi] * x[s, lo + d : hi + d]
    return out


def assert_tiled_apply_matches_per_system(m, x, supplied_out: bool) -> None:
    """``m.apply`` equals the per-system reference bit for bit (signed
    zeros included)."""
    nb, n = m.num_batch, m.num_rows
    out = np.full((nb, n), np.nan, dtype=m.dtype) if supplied_out else None
    got = m.apply(x, out=out)
    if supplied_out:
        assert got is out
    assert got.dtype == m.dtype
    bits = np.uint64 if m.dtype == np.float64 else np.uint32
    ref = per_system_reference(m, x)
    np.testing.assert_array_equal(got.view(bits), ref.view(bits))


def random_batch(seed: int, nb: int, n: int, density: float, dtype) -> np.ndarray:
    """Dense value array with a shared sparsity pattern and full diagonal."""
    rng = np.random.default_rng(seed)
    pattern = rng.random((1, n, n)) < density
    vals = rng.standard_normal((nb, n, n)) * pattern
    i = np.arange(n)
    vals[:, i, i] = rng.standard_normal((nb, n)) + 3.0
    return vals.astype(dtype)


batch_params = dict(
    seed=st.integers(0, 2**20),
    nb=st.integers(1, 5),
    n=st.integers(2, 20),
    density=st.floats(0.05, 0.7),
    dtype=st.sampled_from([np.float64, np.float32]),
)


class TestFormatRoundTrips:
    @given(fmt=st.sampled_from([f for f in FORMATS if f != "dense"]), **batch_params)
    @settings(max_examples=80, deadline=None)
    def test_dense_round_trip_bit_exact(self, fmt, seed, nb, n, density, dtype):
        """csr -> fmt -> dense reproduces every stored value bit-for-bit,
        in either working precision."""
        dense = random_batch(seed, nb, n, density, dtype)
        csr = BatchCsr.from_dense(dense)
        converted = to_format(csr, fmt)
        assert converted.values.dtype == dtype
        np.testing.assert_array_equal(to_format(converted, "dense").values, dense)

    @given(
        src=st.sampled_from(FORMATS),
        dst=st.sampled_from(FORMATS),
        **batch_params,
    )
    @settings(max_examples=80, deadline=None)
    def test_pairwise_conversion_bit_exact(self, src, dst, seed, nb, n, density, dtype):
        """Any conversion chain src -> dst -> csr is bit-exact: conversion
        moves values, it never performs arithmetic on them."""
        dense = random_batch(seed, nb, n, density, dtype)
        csr = BatchCsr.from_dense(dense)
        chained = to_format(to_format(csr, src), dst)
        back = to_format(chained, "csr")
        np.testing.assert_array_equal(to_format(back, "dense").values, dense)
        assert back.values.dtype == dtype

    @given(**batch_params)
    @settings(max_examples=40, deadline=None)
    def test_diagonal_consistent_across_formats(self, seed, nb, n, density, dtype):
        dense = random_batch(seed, nb, n, density, dtype)
        csr = BatchCsr.from_dense(dense)
        i = np.arange(n)
        expected = dense[:, i, i]
        for fmt in FORMATS:
            np.testing.assert_array_equal(to_format(csr, fmt).diagonal(), expected)


class TestTakeBatch:
    @given(
        fmt=st.sampled_from(FORMATS),
        data=st.data(),
        **batch_params,
    )
    @settings(max_examples=60, deadline=None)
    def test_take_batch_composes(self, fmt, data, seed, nb, n, density, dtype):
        """take_batch(i) . take_batch(j) == take_batch(i[j]) — the gather
        of a gather is a gather, exactly like numpy fancy indexing.  The
        escalation ladder relies on this when a rung's sub-batch is
        gathered again for the one-at-a-time singular fallback."""
        dense = random_batch(seed, nb, n, density, dtype)
        m = to_format(BatchCsr.from_dense(dense), fmt)
        outer = np.array(
            data.draw(st.lists(st.integers(0, nb - 1), min_size=1, max_size=6))
        )
        inner = np.array(
            data.draw(
                st.lists(st.integers(0, len(outer) - 1), min_size=1, max_size=6)
            )
        )
        two_step = m.take_batch(outer).take_batch(inner)
        one_step = m.take_batch(outer[inner])
        np.testing.assert_array_equal(two_step.values, one_step.values)
        np.testing.assert_array_equal(
            to_format(two_step, "dense").values, dense[outer[inner]]
        )

    @given(fmt=st.sampled_from(FORMATS), **batch_params)
    @settings(max_examples=40, deadline=None)
    def test_take_batch_copies_values(self, fmt, seed, nb, n, density, dtype):
        """The gathered copy owns its values: mutating it never writes
        through to the source batch (the fault injector depends on it)."""
        dense = random_batch(seed, nb, n, density, dtype)
        m = to_format(BatchCsr.from_dense(dense), fmt)
        before = m.values.copy()
        sub = m.take_batch(np.arange(nb))
        sub.values[:] = -7.0
        np.testing.assert_array_equal(m.values, before)


class TestSpmvAgainstDense:
    @given(fmt=st.sampled_from(FORMATS), **batch_params)
    @settings(max_examples=80, deadline=None)
    def test_spmv_matches_dense_gemv(self, fmt, seed, nb, n, density, dtype):
        """Every format's SpMV agrees with the dense matmul reference to
        the working precision's resolution."""
        dense = random_batch(seed, nb, n, density, dtype)
        m = to_format(BatchCsr.from_dense(dense), fmt)
        rng = np.random.default_rng(seed + 1)
        x = rng.standard_normal((nb, n)).astype(dtype)
        ref = np.einsum(
            "kij,kj->ki", dense.astype(np.float64), x.astype(np.float64)
        )
        got = m.apply(x)
        scale = np.abs(dense.astype(np.float64)).sum(axis=2).max() * max(
            np.abs(x).max(), 1.0
        )
        tol = np.finfo(dtype).eps * n * 8 * max(scale, 1.0)
        assert np.max(np.abs(got.astype(np.float64) - ref)) <= tol

    @given(**batch_params)
    @settings(max_examples=40, deadline=None)
    def test_all_formats_agree_pairwise_fp64(self, seed, nb, n, density, dtype):
        """In fp64 the four SpMV kernels agree with each other far tighter
        than with the reference: same values, same per-row accumulation
        scale."""
        dense = random_batch(seed, nb, n, density, np.float64)
        csr = BatchCsr.from_dense(dense)
        rng = np.random.default_rng(seed + 2)
        x = rng.standard_normal((nb, n))
        results = {fmt: to_format(csr, fmt).apply(x) for fmt in FORMATS}
        ref = results["dense"]
        for fmt in ("csr", "ell", "dia"):
            np.testing.assert_allclose(results[fmt], ref, rtol=1e-13, atol=1e-13)


class TestTiledSpmv:
    """ELL and DIA walk the batch in cache-sized tiles; every row is still
    computed independently, so tiling must never change a bit."""

    @given(
        fmt=st.sampled_from(TILED_FORMATS),
        tile=st.integers(1, 4),
        size_pick=st.integers(0, 4),
        supplied_out=st.booleans(),
        seed=batch_params["seed"],
        n=batch_params["n"],
        density=batch_params["density"],
        dtype=batch_params["dtype"],
    )
    @settings(max_examples=80, deadline=None)
    def test_tiled_apply_bit_equal_per_system(
        self, fmt, tile, size_pick, supplied_out, seed, n, density, dtype
    ):
        """Small budgets make tiles of 1-4 systems; batch sizes straddle
        them (1, tile-1, tile, tile+1, 2*tile+3)."""
        sizes = tile_batch_sizes(tile)
        nb = sizes[min(size_pick, len(sizes) - 1)]
        dense = random_batch(seed, nb, n, density, dtype)
        m = to_format(BatchCsr.from_dense(dense), fmt)
        rng = np.random.default_rng(seed + 3)
        x = rng.standard_normal((nb, n)).astype(dtype)
        # Signed zeros in x make all-zero products whose sign a different
        # accumulation order would expose.
        x[rng.random(x.shape) < 0.3] = -0.0
        with l2_budget(tile * tile_rows(m) * n * np.dtype(dtype).itemsize):
            assert kernel_tile(m) == tile
            assert_tiled_apply_matches_per_system(m, x, supplied_out)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "offsets, grid, sizes",
        [
            ([0], (1, 1, 0), (1, 2, 5)),
            ([-1, 0, 1], (1, 3, 0), (2, 3, 5)),
            ([-5, -4, -3, -1, 0, 1, 3, 4, 5], (3, 3, 4), (6, 7, 12)),
        ],
        ids=["one-diagonal", "tridiagonal", "3x3-stencil"],
    )
    def test_grid_offsets_bit_equal_per_system(self, offsets, grid, sizes, dtype):
        """Offset sets ``offsets[0] + step * g + r`` take the one-multiply
        path, at small n and at batch sizes straddling a 2-system tile.

        System 0 reads ``x = -0.0`` through positive values, so every
        in-band product is ``-0.0``, the first diagonal's included: the
        sum must still start from ``+0.0`` like the per-system loop."""
        rng = np.random.default_rng(len(offsets))
        itemsize = np.dtype(dtype).itemsize
        for n in sizes:
            for nb in tile_batch_sizes(2):
                bands = rng.standard_normal((nb, len(offsets), n)).astype(dtype)
                bands[0] = np.abs(bands[0]) + 0.5
                m = BatchDia(n, np.array(offsets), bands, check=False)
                bands[:, m.fringe_mask()] = 0.0
                assert m._grid == grid
                x = rng.standard_normal((nb, n)).astype(dtype)
                x[rng.random(x.shape) < 0.3] = -0.0
                x[0] = -0.0
                with l2_budget(2 * tile_rows(m) * n * itemsize):
                    assert kernel_tile(m) == 2
                    assert_tiled_apply_matches_per_system(m, x, supplied_out=False)

    @pytest.mark.parametrize("supplied_out", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("fmt", TILED_FORMATS)
    def test_paper_size_tiles_at_the_real_budget(self, fmt, dtype, supplied_out):
        """At n = 992 with the shipped budget (ELL: 33 fp64 / 66 fp32
        systems per tile; DIA: 6 / 13), on a 9-diagonal stencil whose
        boundary rows are padded."""
        n = 992
        rng = np.random.default_rng(2022)
        offsets = np.array([-33, -32, -31, -1, 0, 1, 31, 32, 33])
        probe = BatchDia(n, offsets, np.zeros((1, offsets.size, n), dtype=dtype))
        tile = kernel_tile(probe if fmt == "dia" else to_format(probe, fmt))
        assert tile == {
            ("ell", np.float64): 33, ("ell", np.float32): 66,
            ("dia", np.float64): 6, ("dia", np.float32): 13,
        }[fmt, dtype]
        for nb in tile_batch_sizes(tile):
            bands = rng.standard_normal((nb, offsets.size, n)).astype(dtype)
            dia = BatchDia(n, offsets, bands, check=False)
            bands[:, dia.fringe_mask()] = 0.0
            m = dia if fmt == "dia" else to_format(dia, fmt)
            x = rng.standard_normal((nb, n)).astype(dtype)
            assert_tiled_apply_matches_per_system(m, x, supplied_out)
            if fmt == "dia":
                # The kernel sized its scratch, and so its tiles, to this.
                assert m._grid == (3, 3, 32)
                assert m._work[0].shape[0] == min(nb, tile)
