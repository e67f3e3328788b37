"""Tests for the per-system stopping criteria."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AbsoluteResidual,
    CombinedCriterion,
    RelativeResidual,
)


class TestAbsolute:
    def test_paper_default_threshold(self):
        c = AbsoluteResidual()
        assert c.tol == 1e-10

    def test_check_per_system(self):
        c = AbsoluteResidual(1e-6)
        c.initialize(np.ones(3), np.ones(3))
        mask = c.check(np.array([1e-7, 1e-6, 1e-5]))
        np.testing.assert_array_equal(mask, [True, False, False])

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            AbsoluteResidual(-1.0)


class TestRelative:
    def test_scales_with_initial_residual(self):
        c = RelativeResidual(0.1)
        c.initialize(np.ones(2), np.array([10.0, 2.0]))
        mask = c.check(np.array([0.5, 0.5]))
        np.testing.assert_array_equal(mask, [True, False])

    def test_zero_initial_residual_converges_immediately(self):
        c = RelativeResidual(1e-8)
        c.initialize(np.ones(1), np.zeros(1))
        assert c.check(np.zeros(1))[0]

    def test_check_before_init_raises(self):
        with pytest.raises(RuntimeError):
            RelativeResidual().check(np.ones(1))


class TestCombined:
    def test_or_semantics(self):
        c = CombinedCriterion(AbsoluteResidual(1e-10), RelativeResidual(0.5))
        c.initialize(np.ones(3), np.array([1.0, 1.0, 1.0]))
        # 0.4 passes relative (0.5), 1e-11 passes absolute, 0.9 passes none.
        mask = c.check(np.array([0.4, 1e-11, 0.9]))
        np.testing.assert_array_equal(mask, [True, True, False])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CombinedCriterion()


class TestProperties:
    @given(
        tol=st.floats(1e-14, 1.0),
        norms=st.lists(st.floats(0, 1e3), min_size=1, max_size=16),
    )
    @settings(max_examples=80, deadline=None)
    def test_absolute_monotone(self, tol, norms):
        """Shrinking every residual can only grow the converged set."""
        norms = np.array(norms)
        c = AbsoluteResidual(tol)
        c.initialize(np.ones_like(norms), norms)
        before = c.check(norms)
        after = c.check(norms / 2.0)
        assert np.all(after | ~before == True)  # noqa: E712  (before => after)

    @given(
        factor=st.floats(1e-12, 0.99),
        init=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=16),
    )
    @settings(max_examples=80, deadline=None)
    def test_relative_invariant_under_scaling(self, factor, init):
        """Relative criterion decisions are invariant to a global rescale
        of the problem."""
        init = np.array(init)
        c1 = RelativeResidual(factor)
        c1.initialize(init, init)
        c2 = RelativeResidual(factor)
        c2.initialize(init * 7.0, init * 7.0)
        test_norms = init * factor * 1.5
        np.testing.assert_array_equal(
            c1.check(test_norms), c2.check(test_norms * 7.0)
        )
