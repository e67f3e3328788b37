"""Tests for the collision-operator coefficient evaluation."""

import numpy as np
import pytest

from repro.xgc import (
    DEUTERON,
    ELECTRON,
    CollisionCoefficients,
    linearized_coefficients,
    linearized_coefficients_masses,
    maxwellian,
)


class TestCollisionCoefficients:
    def test_uniform_constructor(self):
        co = CollisionCoefficients.uniform(3, nu=2.0, vt2=1.5, dt=0.1)
        assert co.num_batch == 3
        np.testing.assert_array_equal(co.nu, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(co.vt2, [1.5, 1.5, 1.5])

    @pytest.mark.parametrize("field,val", [
        ("nu", 0.0), ("vt2", -1.0), ("dt", 0.0),
    ])
    def test_positive_fields_enforced(self, field, val):
        kw = dict(nu=1.0, vt2=1.0, u_par=0.0, eta=0.1, dt=0.1)
        kw[field] = val
        with pytest.raises(ValueError):
            CollisionCoefficients(**{
                k: np.array([v]) for k, v in kw.items()
            })

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            CollisionCoefficients.uniform(1, nu=1.0, eta=-0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CollisionCoefficients(
                nu=np.ones(2), vt2=np.ones(3), u_par=np.zeros(2),
                eta=np.zeros(2), dt=np.ones(2),
            )


class TestLinearizedCoefficients:
    def test_maxwellian_gives_expected_moments(self, small_grid):
        f = maxwellian(small_grid, density=1.0, temperature=1.0)
        co = linearized_coefficients(
            small_grid, ELECTRON, f, dt=0.1, kurtosis_gamma=0.0
        )
        assert co.num_batch == 1
        assert co.vt2[0] == pytest.approx(1.0, rel=0.1)
        assert co.u_par[0] == pytest.approx(0.0, abs=1e-10)
        assert co.dt[0] == 0.1

    def test_species_mass_only_scales_nu(self, small_grid):
        f = maxwellian(small_grid, 1.0, 1.0, 0.3)
        ce = linearized_coefficients(small_grid, ELECTRON, f, dt=0.1)
        ci = linearized_coefficients(small_grid, DEUTERON, f, dt=0.1)
        assert ce.nu[0] / ci.nu[0] == pytest.approx(np.sqrt(DEUTERON.mass))
        np.testing.assert_allclose(ce.vt2, ci.vt2)
        np.testing.assert_allclose(ce.u_par, ci.u_par)

    def test_kurtosis_factor_is_one_for_maxwellian(self, small_grid):
        """A Maxwellian has the reference kurtosis, so the shape factor
        must be ~1 regardless of gamma."""
        f = maxwellian(small_grid, 1.0, 1.0)
        c0 = linearized_coefficients(small_grid, ELECTRON, f, dt=0.1,
                                     kurtosis_gamma=0.0)
        c2 = linearized_coefficients(small_grid, ELECTRON, f, dt=0.1,
                                     kurtosis_gamma=2.0)
        assert c2.nu[0] == pytest.approx(c0.nu[0], rel=0.05)

    def test_kurtosis_boosts_nu_for_mixtures(self, small_grid):
        """A two-temperature mixture has excess kurtosis -> nu grows with
        gamma — the nonlinearity driving Table III's gradual decay."""
        f = 0.6 * maxwellian(small_grid, 1.0, 0.6) + 0.4 * maxwellian(
            small_grid, 1.0, 2.5
        )
        c0 = linearized_coefficients(small_grid, ELECTRON, f, dt=0.1,
                                     kurtosis_gamma=0.0)
        c2 = linearized_coefficients(small_grid, ELECTRON, f, dt=0.1,
                                     kurtosis_gamma=2.0)
        assert c2.nu[0] > 1.2 * c0.nu[0]

    def test_masses_variant_matches_per_species(self, small_grid):
        f = maxwellian(small_grid, 1.0, 1.2, 0.2)
        batch = np.stack([f, f])
        mixed = linearized_coefficients_masses(
            small_grid, np.array([ELECTRON.mass, DEUTERON.mass]), batch, dt=0.1
        )
        ce = linearized_coefficients(small_grid, ELECTRON, f, dt=0.1)
        ci = linearized_coefficients(small_grid, DEUTERON, f, dt=0.1)
        assert mixed.nu[0] == pytest.approx(ce.nu[0])
        assert mixed.nu[1] == pytest.approx(ci.nu[0])

    def test_density_scaling(self, small_grid):
        f1 = maxwellian(small_grid, 1.0, 1.0)
        f2 = maxwellian(small_grid, 2.0, 1.0)
        c1 = linearized_coefficients(small_grid, ELECTRON, f1, dt=0.1,
                                     kurtosis_gamma=0.0)
        c2 = linearized_coefficients(small_grid, ELECTRON, f2, dt=0.1,
                                     kurtosis_gamma=0.0)
        assert c2.nu[0] == pytest.approx(2.0 * c1.nu[0], rel=1e-10)

    def test_invalid_inputs(self, small_grid):
        f = maxwellian(small_grid, 1.0, 1.0)
        with pytest.raises(ValueError):
            linearized_coefficients(small_grid, ELECTRON, f, dt=0.1, nu_ref=0.0)
        with pytest.raises(ValueError):
            linearized_coefficients(small_grid, ELECTRON, f, dt=0.1, eta=-1.0)
        with pytest.raises(ValueError):
            linearized_coefficients_masses(
                small_grid, np.array([-1.0]), f[None], dt=0.1
            )
