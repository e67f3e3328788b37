"""Tests for the validation helpers."""

import numpy as np
import pytest

from repro.core import BatchDia
from repro.utils.validation import (
    as_index_array,
    check_in,
    check_non_negative,
    check_positive,
    check_shape,
)


class TestScalarChecks:
    def test_check_positive(self):
        assert check_positive(1.5, "x") == 1.5
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive(0, "x")

    def test_check_non_negative(self):
        assert check_non_negative(0.0, "y") == 0.0
        with pytest.raises(ValueError):
            check_non_negative(-1e-9, "y")

    def test_check_in(self):
        assert check_in("a", ("a", "b"), "opt") == "a"
        with pytest.raises(ValueError, match="opt must be one of"):
            check_in("c", ("a", "b"), "opt")


class TestArrayChecks:
    def test_as_index_converts(self):
        out = as_index_array([0, 1, 2], "idx")
        assert out.dtype == np.int32

    def test_as_index_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            as_index_array([2**40], "idx")

    def test_as_index_returns_int32_input_as_is(self):
        idx = np.arange(6, dtype=np.int32).reshape(2, 3)
        assert as_index_array(idx, "idx", ndim=2) is idx
        with pytest.raises(ValueError, match="idx must have 1 dimensions"):
            as_index_array(idx, "idx", ndim=1)
        # A strided int32 view is copied into a contiguous one.
        strided = as_index_array(idx[:, ::2], "idx", ndim=2)
        assert strided.flags.c_contiguous
        np.testing.assert_array_equal(strided, [[0, 2], [3, 5]])

    @pytest.mark.parametrize("dtype", [np.int64, np.int16, np.float64, np.float32])
    def test_as_index_accepts_integers_and_integral_floats(self, dtype):
        out = as_index_array(np.array([-1, 0, 7], dtype=dtype), "offsets")
        assert out.dtype == np.int32
        np.testing.assert_array_equal(out, [-1, 0, 7])

    @pytest.mark.parametrize(
        "bad", [[-1.0, 0.0, 1.5], [0.0, np.nan], [np.inf, 1.0], [-np.inf]]
    )
    def test_as_index_rejects_fractional_and_non_finite(self, bad):
        with pytest.raises(ValueError, match="offsets must hold integers"):
            as_index_array(np.array(bad), "offsets")

    def test_dia_rejects_fractional_offsets(self):
        with pytest.raises(ValueError, match="offsets must hold integers"):
            BatchDia(4, [-1.0, 0.0, 1.5], np.zeros((1, 3, 4)))
        m = BatchDia(4, [-1.0, 0.0, 1.0], np.zeros((1, 3, 4)))
        np.testing.assert_array_equal(m.offsets, [-1, 0, 1])

    def test_check_shape(self):
        a = np.zeros((2, 3))
        assert check_shape(a, (2, 3), "a") is a
        with pytest.raises(ValueError):
            check_shape(a, (3, 2), "a")
