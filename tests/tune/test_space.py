"""Configuration-space pins: validity masks, enumeration, round-trips."""

import pytest

from repro.tune import ConfigSpace, TuneConfig, space_for_scenario, xgc_scenario
from repro.tune.space import CANONICAL_RESTART

SPACE = space_for_scenario(xgc_scenario())


class TestTuneConfig:
    def test_frozen_and_hashable(self):
        c = TuneConfig("bicgstab", "ell", "fp64")
        with pytest.raises(Exception):
            c.fmt = "csr"
        assert len({c, TuneConfig("bicgstab", "ell", "fp64")}) == 1

    def test_value_bytes_follows_precision(self):
        assert TuneConfig("cgs", "csr", "fp64").value_bytes == 8
        assert TuneConfig("cgs", "csr", "fp32").value_bytes == 4
        assert TuneConfig("cgs", "csr", "mixed").value_bytes == 4

    def test_dict_round_trip(self):
        for config in SPACE.enumerate():
            again = TuneConfig.from_dict(config.to_dict())
            assert again == config
            assert hash(again) == hash(config)

    def test_to_dict_is_json_plain(self):
        import json

        for config in list(SPACE.enumerate())[:5]:
            assert json.loads(json.dumps(config.to_dict())) == config.to_dict()


class TestConfigSpace:
    def test_size_matches_enumeration(self):
        configs = list(SPACE.enumerate())
        assert len(configs) == SPACE.size()
        assert len(set(configs)) == SPACE.size()

    def test_enumerated_configs_are_valid(self):
        assert all(SPACE.is_valid(c) for c in SPACE.enumerate())

    def test_non_gmres_restart_is_canonical(self):
        for config in SPACE.enumerate():
            if "gmres" not in config.solver:
                assert config.gmres_restart == CANONICAL_RESTART

    def test_invalid_points_rejected(self):
        assert not SPACE.is_valid(TuneConfig("bicgstab", "ell", "fp32"))
        assert not SPACE.is_valid(
            TuneConfig("bicgstab", "ell", "fp64", gmres_restart=10))
        assert not SPACE.is_valid(
            TuneConfig("cg", "ell", "fp64"))  # not in scenario mask
        assert not SPACE.is_valid(
            TuneConfig("bicgstab", "ell", "fp64", target_blocks_per_cu=7))

    def test_unknown_names_raise_at_construction(self):
        with pytest.raises(ValueError):
            ConfigSpace(solvers=("nope",))
        with pytest.raises(ValueError):
            ConfigSpace(precisions=("fp16",))
        with pytest.raises(ValueError):
            ConfigSpace(formats=("coo",))
