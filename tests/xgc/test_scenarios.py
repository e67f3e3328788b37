"""Tests for the predefined proxy-app scenarios (incl. multi-ion)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.xgc import (
    CARBON,
    DEUTERON,
    ELECTRON,
    TRITON,
    CollisionProxyApp,
    PicardOptions,
    VelocityGrid,
    electron_only,
    multi_ion,
    single_ion,
)


@pytest.fixture(scope="module")
def fast_grid():
    return VelocityGrid(nv_par=10, nv_perp=9)


class TestSpeciesConstants:
    def test_mass_ordering(self):
        assert ELECTRON.mass < DEUTERON.mass < TRITON.mass < CARBON.mass

    def test_triton_deuteron_ratio(self):
        assert TRITON.mass / DEUTERON.mass == pytest.approx(1.5, rel=0.01)

    def test_carbon_charge(self):
        assert CARBON.charge == 6.0


class TestScenarioFactories:
    def test_single_ion_matches_paper(self):
        cfg = single_ion()
        assert cfg.species == (ELECTRON, DEUTERON)
        assert cfg.num_batch == 16

    def test_multi_ion_batch_size(self):
        cfg = multi_ion(num_mesh_nodes=3)
        assert len(cfg.species) == 4
        assert cfg.num_batch == 12

    def test_electron_only(self):
        cfg = electron_only(num_mesh_nodes=5)
        assert cfg.species == (ELECTRON,)
        assert cfg.num_batch == 5

    def test_overrides_forwarded(self, fast_grid):
        cfg = single_ion(num_mesh_nodes=2, grid=fast_grid, dt=0.01)
        assert cfg.grid is fast_grid
        assert cfg.dt == 0.01


class TestMultiIonPhysics:
    @pytest.fixture(scope="class")
    def run(self, fast_grid):
        app = CollisionProxyApp(multi_ion(num_mesh_nodes=2, grid=fast_grid))
        return app, app.run(1)

    def test_all_species_converge(self, run):
        app, res = run
        assert bool(res.step_results[0].converged.all())
        assert res.step_results[0].conservation.all_ok

    def test_difficulty_ordered_by_collisionality(self, run):
        """Lighter species collide harder (nu ~ 1/sqrt(m)): iteration
        counts must be non-increasing along e-, D, T, C at every node."""
        app, res = run
        first = res.step_results[0].linear_iterations[0]
        per_node = first.reshape(2, 4)  # nodes x species
        for node in per_node:
            assert node[0] >= node[1] >= node[2] >= node[3]

    def test_heavy_impurity_nearly_trivial(self, run):
        """Carbon's nu is ~150x below the electron's: its systems are
        near-identity and converge almost immediately."""
        app, res = run
        carbon = res.step_results[0].linear_iterations[:, 3::4]
        assert carbon.max() <= 4

    def test_batch_shares_one_pattern(self, run):
        """All four species' systems live in one batch with one shared
        index array — the storage-sharing point of the batched formats."""
        app, _ = run
        ell = replace(app.config, picard=PicardOptions(matrix_format="ell"))
        matrix, _ = CollisionProxyApp(ell).build_matrices()
        assert matrix.num_batch == 8
        assert matrix.col_idxs.ndim == 2  # one ELL pattern, not per-system
        assert matrix.values.shape[0] == 8  # values per system
