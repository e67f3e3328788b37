"""Tests for the validation helpers."""

import numpy as np
import pytest

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

    def test_check_shape(self):
        a = np.zeros((2, 3))
        assert check_shape(a, (2, 3), "a") is a
        with pytest.raises(ValueError):
            check_shape(a, (3, 2), "a")
