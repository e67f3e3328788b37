"""Tests for the CPU (dgbsv) baseline cost model."""

import pytest

from repro.gpu import SKYLAKE_NODE, estimate_cpu_dgbsv


class TestDgbsvModel:
    def test_rounds_are_ceil(self):
        est = estimate_cpu_dgbsv(SKYLAKE_NODE, 992, 33, 33, 39)
        assert est.rounds == 2  # 39 systems over 38 cores

    def test_single_round_flat(self):
        """Within one round the makespan doesn't depend on the count."""
        t1 = estimate_cpu_dgbsv(SKYLAKE_NODE, 992, 33, 33, 1).total_time_s
        t38 = estimate_cpu_dgbsv(SKYLAKE_NODE, 992, 33, 33, 38).total_time_s
        assert t1 == pytest.approx(t38)

    def test_per_system_plausible_milliseconds(self):
        """One dgbsv at n=992, kl=ku=33 lands in the 0.1-10 ms range —
        the plausibility anchor for the whole Fig. 6 scale."""
        est = estimate_cpu_dgbsv(SKYLAKE_NODE, 992, 33, 33, 1)
        assert 1e-4 < est.per_system_s < 1e-2

    def test_scales_with_bandwidth_squared(self):
        narrow = estimate_cpu_dgbsv(SKYLAKE_NODE, 992, 5, 5, 38)
        wide = estimate_cpu_dgbsv(SKYLAKE_NODE, 992, 50, 50, 38)
        ratio = wide.per_system_s / narrow.per_system_s
        assert 50 < ratio < 150  # ~ (kl*(kl+ku+1)) ratio ~ 92

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            estimate_cpu_dgbsv(SKYLAKE_NODE, 992, 33, 33, 0)
