"""Tests for the fused, allocation-free batched BLAS-1 helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    axpby,
    batch_dot,
    batch_norm2,
    fused_dots,
    fused_update,
    masked_assign,
    masked_axpy,
    masked_fill,
    pipelined_cg_update,
)

NB, N = 7, 13


@pytest.fixture
def arrays(rng):
    return {
        "x": rng.standard_normal((NB, N)),
        "y": rng.standard_normal((NB, N)),
        "v": rng.standard_normal((NB, N)),
        "alpha": rng.standard_normal(NB),
        "beta": rng.standard_normal(NB),
        "omega": rng.standard_normal(NB),
        "mask": rng.random(NB) < 0.5,
        "work": np.empty((NB, N)),
    }


class TestMaskedAssign:
    def test_matches_where(self, arrays):
        a = arrays
        expected = np.where(a["mask"][:, None], a["x"], a["y"])
        out = masked_assign(a["y"].copy(), a["x"], a["mask"])
        np.testing.assert_array_equal(out, expected)

    def test_in_place_and_untouched_rows(self, arrays):
        a = arrays
        dst = a["y"].copy()
        ret = masked_assign(dst, a["x"], a["mask"])
        assert ret is dst
        np.testing.assert_array_equal(dst[~a["mask"]], a["y"][~a["mask"]])

    def test_per_system_scalars(self, arrays):
        a = arrays
        dst = a["alpha"].copy()
        masked_assign(dst, a["beta"], a["mask"])
        np.testing.assert_array_equal(
            dst, np.where(a["mask"], a["beta"], a["alpha"])
        )


class TestMaskedFill:
    def test_matches_where(self, arrays):
        a = arrays
        dst = a["y"].copy()
        masked_fill(dst, 3.5, a["mask"])
        np.testing.assert_array_equal(
            dst, np.where(a["mask"][:, None], 3.5, a["y"])
        )


class TestMaskedAxpy:
    def test_matches_reference(self, arrays):
        a = arrays
        expected = a["y"] + np.where(
            a["mask"][:, None], a["alpha"][:, None] * a["x"], 0.0
        )
        out = masked_axpy(
            a["y"].copy(), a["alpha"], a["x"], mask=a["mask"], work=a["work"]
        )
        np.testing.assert_array_equal(out, expected)

    def test_unmasked(self, arrays):
        a = arrays
        out = masked_axpy(a["y"].copy(), a["alpha"], a["x"], work=a["work"])
        np.testing.assert_array_equal(out, a["y"] + a["alpha"][:, None] * a["x"])

    def test_scalar_alpha(self, arrays):
        a = arrays
        out = masked_axpy(a["y"].copy(), 0.25, a["x"], work=a["work"])
        np.testing.assert_array_equal(out, a["y"] + 0.25 * a["x"])

    def test_allocates_nothing_with_work(self, rng):
        import tracemalloc

        nb, n = 64, 512  # big enough that one batch vector dwarfs bookkeeping
        x = rng.standard_normal((nb, n))
        y = rng.standard_normal((nb, n))
        work = np.empty_like(x)
        alpha = rng.standard_normal(nb)
        mask = rng.random(nb) < 0.5
        masked_axpy(y, alpha, x, mask=mask, work=work)
        tracemalloc.start()
        masked_axpy(y, alpha, x, mask=mask, work=work)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Bookkeeping-size allocations only (mask reshape etc.), no batch
        # vector (nb * n * 8 bytes) temporaries.
        assert peak < nb * n * 8


class TestAxpby:
    def test_matches_reference(self, arrays):
        a = arrays
        expected = a["alpha"][:, None] * a["x"] + a["beta"][:, None] * a["y"]
        out = axpby(a["alpha"], a["x"], a["beta"], a["y"], work=a["work"])
        np.testing.assert_array_equal(out, expected)

    def test_out_aliases_x(self, arrays):
        a = arrays
        expected = a["alpha"][:, None] * a["x"] + a["beta"][:, None] * a["y"]
        x = a["x"].copy()
        ret = axpby(a["alpha"], x, a["beta"], a["y"], out=x, work=a["work"])
        assert ret is x
        np.testing.assert_array_equal(x, expected)

    def test_out_aliases_y(self, arrays):
        a = arrays
        expected = a["alpha"][:, None] * a["x"] + a["beta"][:, None] * a["y"]
        y = a["y"].copy()
        ret = axpby(a["alpha"], a["x"], a["beta"], y, out=y, work=a["work"])
        assert ret is y
        np.testing.assert_array_equal(y, expected)

    def test_x_is_y(self, arrays):
        a = arrays
        x = a["x"].copy()
        expected = (a["alpha"] + a["beta"])[:, None] * a["x"]
        out = axpby(a["alpha"], x, a["beta"], x, out=x, work=a["work"])
        np.testing.assert_allclose(out, expected, rtol=1e-14)


class TestFusedUpdate:
    def test_matches_bicgstab_direction_update(self, arrays):
        a = arrays
        expected = a["x"] + a["beta"][:, None] * (
            a["y"] - a["omega"][:, None] * a["v"]
        )
        p = a["y"].copy()
        ret = fused_update(p, a["x"], a["beta"], a["omega"], a["v"], work=a["work"])
        assert ret is p
        np.testing.assert_allclose(p, expected, rtol=1e-14)

    def test_zero_beta_resets_direction(self, arrays):
        a = arrays
        p = a["y"].copy()
        fused_update(p, a["x"], 0.0, a["omega"], a["v"], work=a["work"])
        np.testing.assert_array_equal(p, a["x"])


class TestReductionAccumulateDtype:
    def test_dot_and_norm2_accumulate_dtype(self, rng):
        """fp32 vectors reduced in fp64: the result carries the
        accumulation dtype and matches the fp64 einsum bit for bit."""
        a = rng.standard_normal((NB, N)).astype(np.float32)
        b = rng.standard_normal((NB, N)).astype(np.float32)
        dot = batch_dot(a, b, dtype=np.float64)
        assert dot.dtype == np.float64
        np.testing.assert_array_equal(
            dot, np.einsum("bi,bi->b", a, b, dtype=np.float64)
        )
        norm = batch_norm2(a, dtype=np.float64)
        assert norm.dtype == np.float64
        np.testing.assert_array_equal(
            norm, np.sqrt(np.einsum("bi,bi->b", a, a, dtype=np.float64))
        )
        assert batch_dot(a, b).dtype == np.float32


class TestFusedDots:
    """The fused reduction round must be bit-identical to separate dots —
    the schedule layer counts it as ONE sync but the numerics must not
    move (golden solver outputs depend on it)."""

    @given(
        seed=st.integers(0, 2**20),
        nb=st.integers(1, 6),
        n=st.integers(1, 40),
        k=st.integers(1, 5),
        scale=st.floats(1e-8, 1e8),
    )
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_to_separate_batch_dots(self, seed, nb, n, k, scale):
        rng = np.random.default_rng(seed)
        pairs = [
            (rng.standard_normal((nb, n)) * scale, rng.standard_normal((nb, n)))
            for _ in range(k)
        ]
        fused = fused_dots(*pairs)
        assert fused.shape == (k, nb)
        for row, (a, b) in zip(fused, pairs):
            np.testing.assert_array_equal(row, batch_dot(a, b))

    @given(seed=st.integers(0, 2**20), nb=st.integers(1, 6), n=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_fp32_operands_fp64_accumulation(self, seed, nb, n):
        """The mixed-precision path: fp32 vectors, fp64 reduction."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((nb, n)).astype(np.float32)
        b = rng.standard_normal((nb, n)).astype(np.float32)
        fused = fused_dots((a, b), (b, b), dtype=np.float64)
        np.testing.assert_array_equal(fused[0], batch_dot(a, b, dtype=np.float64))
        np.testing.assert_array_equal(fused[1], batch_dot(b, b, dtype=np.float64))

    def test_out_buffer_reused(self, rng):
        a = rng.standard_normal((NB, N))
        b = rng.standard_normal((NB, N))
        out = np.empty((2, NB))
        ret = fused_dots((a, b), (a, a), out=out)
        assert ret is out
        np.testing.assert_array_equal(out[1], batch_dot(a, a))

    def test_shape_errors(self, rng):
        a = rng.standard_normal((NB, N))
        with pytest.raises(ValueError, match="at least one"):
            fused_dots()
        with pytest.raises(ValueError, match="differ in shape"):
            fused_dots((a, a[:, :-1]))
        with pytest.raises(ValueError, match="expected"):
            fused_dots((a, a), out=np.empty((2, NB)))


class TestPipelinedCgUpdate:
    def reference(self, a, alpha, beta):
        p = a["u"] + beta[:, None] * a["p"]
        s = a["w"] + beta[:, None] * a["s"]
        x = a["x"] + alpha[:, None] * p
        r = a["r"] - alpha[:, None] * s
        return p, s, x, r

    @pytest.fixture
    def vectors(self, rng):
        return {k: rng.standard_normal((NB, N))
                for k in ("p", "s", "u", "w", "x", "r")}

    def test_matches_chronopoulos_gear_recurrences(self, vectors, rng):
        alpha = rng.standard_normal(NB)
        beta = rng.standard_normal(NB)
        exp_p, exp_s, exp_x, exp_r = self.reference(vectors, alpha, beta)
        v = {k: a.copy() for k, a in vectors.items()}
        pipelined_cg_update(
            v["p"], v["s"], v["u"], v["w"], v["x"], v["r"],
            alpha, beta, work=np.empty((NB, N)),
        )
        np.testing.assert_array_equal(v["p"], exp_p)
        np.testing.assert_array_equal(v["s"], exp_s)
        np.testing.assert_array_equal(v["x"], exp_x)
        np.testing.assert_array_equal(v["r"], exp_r)

    def test_zero_coefficients_freeze_x_and_r(self, vectors, rng):
        """Frozen systems are masked by zeroed alpha (beta still rebuilds
        the direction, which is harmless for a converged lane)."""
        alpha = rng.standard_normal(NB)
        beta = rng.standard_normal(NB)
        frozen = rng.random(NB) < 0.5
        alpha[frozen] = 0.0
        v = {k: a.copy() for k, a in vectors.items()}
        pipelined_cg_update(
            v["p"], v["s"], v["u"], v["w"], v["x"], v["r"],
            alpha, beta, work=np.empty((NB, N)),
        )
        np.testing.assert_array_equal(v["x"][frozen], vectors["x"][frozen])
        np.testing.assert_array_equal(v["r"][frozen], vectors["r"][frozen])

    def test_allocates_nothing(self, rng):
        import tracemalloc

        nb, n = 64, 512
        v = {k: rng.standard_normal((nb, n))
             for k in ("p", "s", "u", "w", "x", "r")}
        alpha = rng.standard_normal(nb)
        beta = rng.standard_normal(nb)
        work = np.empty((nb, n))
        args = (v["p"], v["s"], v["u"], v["w"], v["x"], v["r"])
        pipelined_cg_update(*args, alpha, beta, work=work)
        tracemalloc.start()
        pipelined_cg_update(*args, alpha, beta, work=work)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < nb * n * 8
