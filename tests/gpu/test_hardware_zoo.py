"""Pins for the hardware zoo beyond Table I (H100, MI250X, PVC).

Four families:

* **construction invariants** — the :class:`GpuSpec` ``__post_init__``
  validation rejects malformed specs, and the ``subgroup_width`` sentinel
  resolves to the warp size;
* **catalog monotonicity** — the zoo entries relate to the Table I trio
  the way the silicon does (H100 outruns A100 on every headline number,
  CDNA2 keeps CDNA's LDS and wavefront geometry, ...);
* **subgroup billing** — SIMD16 compilation on PVC pays extra
  barrier-separated reduction phases; every CUDA/HIP target bills exactly
  the warp-width phase count (scale exactly 1.0, preserving the Table I
  timings bit for bit);
* **tuner coverage** — ``tune_for_matrix`` returns a valid decision on
  every GPU x scenario cell: each model collision operator's matrix and
  the XGC proxy-app matrix, on every GPU of the catalog.
"""

import dataclasses

import numpy as np
import pytest

from repro.gpu import (
    A100,
    GPUS,
    H100,
    MI100,
    MI250X,
    PVC,
    TABLE1_GPUS,
    V100,
    GpuSpec,
    estimate_iterative_solve,
    reduction_phase_count,
    reduction_round_scale,
    tune_for_matrix,
)
from repro.xgc import OPERATOR_SCENARIOS, CollisionProxyApp, ProxyAppConfig

ZOO = (H100, MI250X, PVC)

#: The operator-zoo scenarios plus the XGC proxy-app matrix.
SCENARIOS = tuple(sorted((*OPERATOR_SCENARIOS, "xgc")))


def spec_kwargs(**overrides):
    base = dict(
        name="test",
        peak_fp64_tflops=10.0,
        mem_bw_gbs=1000.0,
        l1_shared_per_cu_kib=128,
        l2_mib=8.0,
        num_cus=100,
        warp_size=32,
        max_shared_per_block_kib=96,
        scheduling="flexible",
    )
    base.update(overrides)
    return base


class TestSpecInvariants:
    def test_zoo_members_and_ordering(self):
        assert GPUS == TABLE1_GPUS + ZOO
        assert len({hw.name for hw in GPUS}) == len(GPUS)

    @pytest.mark.parametrize("hw", GPUS, ids=lambda h: h.name)
    def test_catalog_entries_are_self_consistent(self, hw):
        assert hw.max_shared_per_block_kib <= hw.l1_shared_per_cu_kib
        assert hw.shared_budget_per_block() >= 1
        assert hw.peak_fp64_per_cu > 0
        assert hw.subgroup_width <= hw.warp_size

    @pytest.mark.parametrize(
        "bad",
        [
            dict(peak_fp64_tflops=0.0),
            dict(mem_bw_gbs=-1.0),
            dict(l2_mib=0.0),
            dict(num_cus=0),
            dict(target_blocks_per_cu=0),
            dict(warp_size=48),
            dict(max_shared_per_block_kib=256),  # exceeds l1_shared
            dict(bw_efficiency=0.0),
            dict(fp64_efficiency=1.5),
            dict(scheduling="greedy"),
            dict(subgroup_width=24),  # not a power of two
            dict(subgroup_width=64),  # wider than the warp
        ],
        ids=lambda d: next(iter(d.items()))[0] + "=" + str(next(iter(d.values()))),
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            GpuSpec(**spec_kwargs(**bad))

    def test_subgroup_sentinel_resolves_to_warp(self):
        hw = GpuSpec(**spec_kwargs())
        assert hw.subgroup_width == hw.warp_size
        hw64 = GpuSpec(**spec_kwargs(warp_size=64))
        assert hw64.subgroup_width == 64

    def test_pvc_subgroup_is_narrower_than_warp(self):
        assert PVC.subgroup_width == 16
        assert PVC.warp_size == 32

    def test_specs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            H100.mem_bw_gbs = 0.0


class TestCatalogMonotonicity:
    def test_h100_dominates_a100(self):
        """Hopper improves on Ampere along every headline axis."""
        assert H100.mem_bw_gbs >= A100.mem_bw_gbs
        assert H100.peak_fp64_tflops >= A100.peak_fp64_tflops
        assert H100.num_cus >= A100.num_cus
        assert H100.l1_shared_per_cu_kib >= A100.l1_shared_per_cu_kib
        assert H100.sync_latency_us <= A100.sync_latency_us

    def test_mi250x_keeps_cdna_geometry(self):
        """CDNA2 (one GCD) keeps the MI100's LDS size, wavefront width,
        wave dispatch and achieved-bandwidth fraction."""
        assert MI250X.warp_size == MI100.warp_size == 64
        assert MI250X.max_shared_per_block_kib == MI100.max_shared_per_block_kib
        assert MI250X.scheduling == MI100.scheduling == "wave"
        assert MI250X.bw_efficiency == MI100.bw_efficiency
        assert MI250X.target_blocks_per_cu == 1
        assert MI250X.peak_fp64_tflops > MI100.peak_fp64_tflops

    def test_zoo_orders_by_bandwidth(self):
        """The zoo's headline bandwidths top the Table I trio."""
        assert min(hw.mem_bw_gbs for hw in ZOO) >= max(
            hw.mem_bw_gbs for hw in (V100, MI100)
        )


class TestSubgroupBilling:
    def test_phase_count_is_ceil_log(self):
        assert reduction_phase_count(992, 32) == 2
        assert reduction_phase_count(992, 16) == 3
        assert reduction_phase_count(1024, 32) == 2
        assert reduction_phase_count(32, 32) == 1
        assert reduction_phase_count(1, 32) == 1  # never less than one phase

    def test_phase_count_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            reduction_phase_count(0, 32)
        with pytest.raises(ValueError):
            reduction_phase_count(992, 1)

    @pytest.mark.parametrize(
        "hw", [h for h in GPUS if h is not PVC], ids=lambda h: h.name
    )
    def test_cuda_hip_targets_bill_exactly_one(self, hw):
        """subgroup == warp must scale sync billing by exactly 1.0 — the
        Table I timings (and the n=992 golden pins) stay bit-identical."""
        for lanes in (31, 64, 992, 1024):
            assert reduction_round_scale(hw, lanes) == 1.0

    def test_pvc_pays_extra_phases_at_paper_size(self):
        assert reduction_round_scale(PVC, 992) == pytest.approx(1.5)
        # Small systems fit one subgroup tree either way.
        assert reduction_round_scale(PVC, 16) == 1.0

    def test_pvc_sync_billing_visible_in_timing(self):
        """The SIMD16 penalty reaches the timing model: a PVC clone with
        warp-wide subgroups spends strictly less time in sync."""
        wide = dataclasses.replace(PVC, subgroup_width=0)
        its = np.full(960, 32)
        slow = estimate_iterative_solve(PVC, "ell", 992, 8740, its,
                                        stored_nnz=10912)
        fast = estimate_iterative_solve(wide, "ell", 992, 8740, its,
                                        stored_nnz=10912)
        assert slow.sync_s > fast.sync_s
        assert slow.sync_s == pytest.approx(1.5 * fast.sync_s)

    def test_h100_fastest_of_the_zoo(self):
        """At paper-size batches the H100's bandwidth + cheap sync win."""
        its = np.full(960, 32)
        times = {
            hw.name: estimate_iterative_solve(
                hw, "ell", 992, 8740, its, stored_nnz=10912
            ).total_time_s
            for hw in GPUS
        }
        assert times["H100"] == min(times.values())


class TestTunerCoverage:
    @pytest.fixture(scope="class")
    def scenario_matrices(self):
        matrices = {
            name: scenario.build(num_nodes=2)[0].matrix("dia")
            for name, scenario in OPERATOR_SCENARIOS.items()
        }
        app = CollisionProxyApp(ProxyAppConfig(num_mesh_nodes=2))
        matrices["xgc"] = app.build_matrices()[0]
        return matrices

    @pytest.mark.parametrize("hw", GPUS, ids=lambda h: h.name)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_gpu_scenario_cell_tunes(self, hw, scenario, scenario_matrices):
        decision = tune_for_matrix(hw, scenario_matrices[scenario])
        assert decision.fmt in ("csr", "ell", "dia")
        assert decision.threads_per_block >= hw.warp_size
        assert decision.threads_per_block % hw.warp_size == 0
