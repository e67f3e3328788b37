"""Policy pins: distillation wins, JSON round-trip, hand-rule fallback."""

import json
import re

import pytest

from repro.gpu import GPUS, H100, V100, tune_for_matrix
from repro.gpu.tuning import decision_for_config
from repro.tune import (
    CostModelEnv,
    PolicyEntry,
    TuneConfig,
    TuningPolicy,
    baseline_config,
    distill_policy,
    exhaustive_best,
    tridiag_operator_scenario,
    xgc_scenario,
)

SC = xgc_scenario()
GPU_BY_NAME = {hw.name: hw for hw in GPUS}


@pytest.fixture(scope="module")
def policy():
    return distill_policy(GPUS, SC, (16, 960))


@pytest.fixture(scope="module")
def matrix():
    from repro.xgc import CollisionProxyApp, ProxyAppConfig

    app = CollisionProxyApp(ProxyAppConfig(num_mesh_nodes=8))
    m, _ = app.build_matrices()
    return m


class TestDistillation:
    def test_covers_every_cell(self, policy):
        assert len(policy) == len(GPUS) * 2
        for hw in GPUS:
            for nb in (16, 960):
                assert policy.lookup(hw.name, SC.num_rows, nb, "xgc")

    def test_never_worse_than_hand_rules(self, policy):
        for entry in policy.entries.values():
            assert entry.cost <= entry.baseline_cost

    def test_cost_is_the_exhaustive_argmin(self, policy):
        for entry in policy.entries.values():
            env = CostModelEnv(GPU_BY_NAME[entry.hardware], SC,
                               entry.num_batch)
            _, best_cost = exhaustive_best(env)
            assert entry.cost == best_cost
            assert entry.cost <= entry.baseline_cost

    def test_cost_tie_keeps_the_hand_rule_config(self):
        """Where the argmin only ties the hand rules, the policy keeps the
        hand-rule config instead of a cost-tied residency target."""
        sc = tridiag_operator_scenario("dougherty")
        base = baseline_config(H100, sc, 16)
        best, best_cost = exhaustive_best(CostModelEnv(H100, sc, 16))
        assert best != base
        entry, = distill_policy([H100], sc, (16,)).entries.values()
        assert entry.cost == best_cost == entry.baseline_cost
        assert entry.config == base

    def test_deterministic(self, policy):
        again = distill_policy(GPUS, SC, (16, 960))
        assert again.to_dict() == policy.to_dict()

    def test_baseline_config_maps_hand_rules(self):
        base = baseline_config(V100, SC, 960)
        assert base.fmt == "dia"  # the pattern-driven hand-rule choice
        assert base.precision == "fp64"
        assert base.target_blocks_per_cu == V100.target_blocks_per_cu
        assert base.compaction_threshold == 0.0


class TestSerialization:
    def test_json_round_trip_identical(self, policy, tmp_path):
        path = tmp_path / "best_configs.json"
        policy.save(path)
        reloaded = TuningPolicy.load(path)
        assert reloaded.to_dict() == policy.to_dict()
        raw = json.loads(path.read_text())
        assert raw["format"] == "repro-tuning-policy-v1"

    def test_entry_round_trip(self, policy):
        for entry in policy.entries.values():
            assert PolicyEntry.from_dict(entry.to_dict()) == entry

    def test_key_format(self):
        assert (TuningPolicy.key_for("V100", 992, 960, "xgc")
                == "V100|n992|b960|xgc")


def _one_cell_file(matrix, tmp_path, edit):
    """Write a one-cell policy for ``matrix``'s V100 cell after ``edit``."""
    policy = TuningPolicy()
    policy.add(PolicyEntry(
        hardware="V100", num_rows=matrix.num_rows,
        num_batch=matrix.num_batch, scenario="xgc",
        config=TuneConfig("bicgstab", "dia", "fp64"),
        cost=1.0, baseline_cost=1.0,
    ))
    data = policy.to_dict()
    key, = data["entries"]
    edit(data, key)
    path = tmp_path / "best_configs.json"
    path.write_text(json.dumps(data))
    return path, key


class TestPolicyFileValidation:
    """A policy file is outside input: a bad one raises, naming the cell,
    instead of silently configuring the kernel."""

    @pytest.mark.parametrize("field, value", [
        ("fmt", "coo"),
        ("solver", "richardson"),
        ("compaction_threshold", 7.5),
    ])
    def test_config_outside_the_space_rejected(self, matrix, tmp_path,
                                               field, value):
        def edit(data, key):
            data["entries"][key]["config"][field] = value

        path, key = _one_cell_file(matrix, tmp_path, edit)
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            tune_for_matrix(V100, matrix, policy=str(path))

    def test_wrong_format_tag_rejected(self, matrix, tmp_path):
        def edit(data, key):
            data["format"] = "repro-tuning-policy-v0"

        path, _ = _one_cell_file(matrix, tmp_path, edit)
        with pytest.raises(ValueError, match="format tag"):
            tune_for_matrix(V100, matrix, policy=str(path))

    def test_entry_under_another_cells_key_rejected(self, matrix, tmp_path):
        def edit(data, key):
            data["entries"] = {"V100|n992|b7|xgc": data["entries"][key]}

        path, _ = _one_cell_file(matrix, tmp_path, edit)
        with pytest.raises(ValueError, match=re.escape("V100|n992|b7|xgc")):
            TuningPolicy.load(path)


class TestTuneForMatrixIntegration:
    def test_no_policy_is_bit_identical(self, matrix):
        """policy=None must not perturb the golden hand-rule path."""
        assert (tune_for_matrix(V100, matrix)
                == tune_for_matrix(V100, matrix, policy=None))

    def test_policy_hit_applies_searched_config(self, policy, matrix):
        d = tune_for_matrix(V100, matrix, policy=policy)
        config = policy.lookup(V100.name, matrix.num_rows,
                               matrix.num_batch, "xgc")
        assert d == decision_for_config(
            V100, config, matrix.num_rows,
            provenance=f"policy entry for V100, n={matrix.num_rows}, "
                       f"batch={matrix.num_batch}, scenario='xgc'")
        assert d.solver_variant == config.solver
        assert d.fmt == config.fmt
        assert "policy" in d.rationale

    def test_policy_miss_falls_back_to_hand_rules(self, policy, matrix):
        miss = tune_for_matrix(V100, matrix, policy=policy,
                               scenario="unknown-scenario")
        assert miss == tune_for_matrix(V100, matrix)

    def test_policy_path_argument(self, policy, matrix, tmp_path):
        path = tmp_path / "best_configs.json"
        policy.save(path)
        assert (tune_for_matrix(V100, matrix, policy=str(path))
                == tune_for_matrix(V100, matrix, policy=policy))


class TestDecisionForConfig:
    def test_respects_residency_target(self):
        roomy = decision_for_config(
            V100, TuneConfig("bicgstab", "ell", "fp64",
                             target_blocks_per_cu=1), 992)
        tight = decision_for_config(
            V100, TuneConfig("bicgstab", "ell", "fp64",
                             target_blocks_per_cu=4), 992)
        assert roomy.storage.num_shared >= tight.storage.num_shared
        assert (roomy.storage.shared_bytes_used
                > tight.storage.shared_bytes_used)

    def test_precision_doubles_vector_capacity(self):
        fp64 = decision_for_config(
            V100, TuneConfig("gmres", "ell", "fp64", gmres_restart=30), 992)
        fp32 = decision_for_config(
            V100, TuneConfig("gmres", "ell", "mixed", gmres_restart=30), 992)
        assert fp32.storage.num_shared >= fp64.storage.num_shared
