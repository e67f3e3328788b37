"""Tests for the end-to-end collision proxy app."""

import numpy as np
import pytest

from repro.xgc import (
    CollisionProxyApp,
    PicardOptions,
    ProxyAppConfig,
    VelocityGrid,
    moments,
)


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = ProxyAppConfig()
        assert cfg.grid.num_cells == 992
        assert len(cfg.species) == 2  # one ion species + electrons
        assert cfg.picard.num_iterations == 5
        assert cfg.picard.linear_tol == 1e-10
        assert cfg.num_batch == cfg.num_mesh_nodes * 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            ProxyAppConfig(num_mesh_nodes=0)
        with pytest.raises(ValueError):
            ProxyAppConfig(dt=0.0)
        with pytest.raises(ValueError):
            ProxyAppConfig(species=())


class TestInitialState:
    def test_shape_and_positivity(self, small_app):
        f = small_app.initial_state()
        assert f.shape == (small_app.config.num_batch,
                           small_app.config.grid.num_cells)
        assert np.all(f > 0)

    def test_profiles_vary_across_nodes(self, small_app):
        f = small_app.initial_state()
        ns = len(small_app.config.species)
        mom = moments(small_app.config.grid, f[::ns])  # electrons of each node
        assert np.ptp(mom.density) > 0.01
        assert np.ptp(mom.temperature) > 0.01

    def test_deterministic_under_seed(self):
        g = VelocityGrid(nv_par=8, nv_perp=7)
        a = CollisionProxyApp(ProxyAppConfig(num_mesh_nodes=3, grid=g, seed=7))
        b = CollisionProxyApp(ProxyAppConfig(num_mesh_nodes=3, grid=g, seed=7))
        np.testing.assert_array_equal(a.initial_state(), b.initial_state())

    def test_masses_interleaved(self, small_app):
        m = small_app.masses
        ns = len(small_app.config.species)
        assert m.shape[0] == small_app.config.num_batch
        np.testing.assert_array_equal(m[:ns], [s.mass for s in
                                               small_app.config.species])
        np.testing.assert_array_equal(m[ns: 2 * ns], m[:ns])


class TestRun:
    def test_single_step(self, small_app):
        res = small_app.run(1)
        assert len(res.step_results) == 1
        step = res.step_results[0]
        assert bool(step.converged.all())
        assert step.conservation.all_ok

    def test_iterations_by_species(self, small_app):
        res = small_app.run(1)
        by = res.linear_iterations_by_species(small_app.config)
        assert set(by) == {"electron", "deuteron"}
        assert by["electron"].shape == (1, 5)
        # Electrons are the hard systems.
        assert by["electron"][0, 0] > by["deuteron"][0, 0]

    def test_build_matrices(self, small_app):
        m, f = small_app.build_matrices()
        assert m.num_batch == small_app.config.num_batch
        assert m.num_rows == small_app.config.grid.num_cells
        assert m.format_name == "dia"  # the default: DIA, as the tuner picks
        assert f.shape == (m.num_batch, m.num_rows)

    def test_build_matrices_owns_its_values(self, small_app):
        """Running the app never overwrites a matrix handed out earlier,
        and two calls share no memory."""
        m, _ = small_app.build_matrices()
        kept = m.values.copy()
        small_app.run(1)
        np.testing.assert_array_equal(m.values, kept)
        m2, _ = small_app.build_matrices()
        assert not np.shares_memory(m.values, m2.values)

    def test_build_matrices_csr_option(self):
        g = VelocityGrid(nv_par=8, nv_perp=7)
        app = CollisionProxyApp(ProxyAppConfig(
            num_mesh_nodes=2, grid=g,
            picard=PicardOptions(matrix_format="csr"),
        ))
        m, _ = app.build_matrices()
        assert m.format_name == "csr"


class TestPaperScale:
    def test_paper_iteration_counts(self, paper_step_result, paper_app):
        """Table III reproduction: warm-started electron counts ~30 falling
        to <15; ion counts single-digit falling toward ~0."""
        _, step = paper_step_result
        ns = len(paper_app.config.species)
        e = step.linear_iterations[:, 0::ns].mean(axis=1)
        ion = step.linear_iterations[:, 1::ns].mean(axis=1)
        assert 25 <= e[0] <= 40
        assert e[-1] < 0.6 * e[0]
        assert np.all(np.diff(e) <= 1)  # decaying (allow plateau)
        assert ion[0] <= 8
        assert np.all(ion <= e)

    def test_paper_conservation(self, paper_step_result):
        _, step = paper_step_result
        assert step.conservation.all_ok
        worst = step.conservation.worst()
        assert worst["density"] < 1e-12
        assert worst["momentum"] < 1e-12
        assert worst["energy"] < 1e-12
