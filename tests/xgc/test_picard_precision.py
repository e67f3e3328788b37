"""Mixed-precision Picard stepping and the assembly structure caches.

The precision option must not change the physics: iteration trajectories,
conservation, and the accepted state agree with the fp64 run to refinement
tolerance.  The structure-caching satellites (shared ELL pattern, reused
assembly values buffer) must be exact no-ops numerically.
"""

import numpy as np
import pytest

from repro.xgc import (
    DEUTERON,
    ELECTRON,
    PicardOptions,
    PicardStepper,
    maxwellian,
)
from repro.xgc.collision import linearized_coefficients


def _f0(grid, nodes=2):
    f = 0.7 * maxwellian(grid, 1.0, 0.8, -0.5) + 0.3 * maxwellian(
        grid, 1.0, 2.5, 1.5
    )
    return np.tile(f, (2 * nodes, 1))


def _masses(nodes=2):
    return np.tile([ELECTRON.mass, DEUTERON.mass], nodes)


class TestAssemblyStructureCaching:
    def test_assemble_ell_matches_legacy_conversion(self, small_grid, small_stencil):
        from repro.core.convert import to_format

        f = _f0(small_grid, nodes=1)
        coeffs = linearized_coefficients(small_grid, DEUTERON, f, dt=0.05)
        direct = small_stencil.assemble_ell(coeffs)
        via_csr = to_format(small_stencil.assemble(coeffs), "ell")
        np.testing.assert_array_equal(direct.col_idxs, via_csr.col_idxs)
        np.testing.assert_array_equal(direct.values, via_csr.values)

    def test_ell_pattern_shared_across_assemblies(self, small_grid, small_stencil):
        f = _f0(small_grid, nodes=1)
        c1 = linearized_coefficients(small_grid, DEUTERON, f, dt=0.05)
        c2 = linearized_coefficients(small_grid, DEUTERON, 1.1 * f, dt=0.05)
        m1 = small_stencil.assemble_ell(c1)
        m2 = small_stencil.assemble_ell(c2)
        assert m1.col_idxs is m2.col_idxs  # one pattern per grid, ever

    @pytest.mark.parametrize("fmt", ["csr", "ell", "dia"])
    def test_assemble_out_buffer_reused_and_exact(self, small_grid, small_stencil, fmt):
        f = _f0(small_grid, nodes=1)
        coeffs = linearized_coefficients(small_grid, DEUTERON, f, dt=0.05)
        method = {
            "csr": small_stencil.assemble,
            "ell": small_stencil.assemble_ell,
            "dia": small_stencil.assemble_dia,
        }[fmt]
        fresh = method(coeffs)
        buf = np.empty_like(fresh.values)
        reused = method(coeffs, out=buf)
        assert reused.values is buf
        np.testing.assert_array_equal(reused.values, fresh.values)

    def test_stepper_reuses_assembly_buffer(self, small_grid, small_stencil):
        stepper = PicardStepper(small_grid, _masses(1), stencil=small_stencil)
        f = _f0(small_grid, nodes=1)
        m1 = stepper.assemble(f, dt=0.05)
        m2 = stepper.assemble(1.05 * f, dt=0.05)
        assert m2.values is m1.values  # second assembly landed in the buffer


class TestPicardPrecision:
    def test_precision_option_validation(self):
        with pytest.raises(ValueError):
            PicardOptions(precision="fp16")

    @pytest.mark.parametrize("precision", ["mixed", "fp32"])
    def test_low_precision_step_matches_fp64(self, small_grid, small_stencil, precision):
        f0 = _f0(small_grid)
        gold = PicardStepper(
            small_grid, _masses(), stencil=small_stencil
        ).step(f0, dt=0.05)
        low = PicardStepper(
            small_grid,
            _masses(),
            stencil=small_stencil,
            options=PicardOptions(precision=precision),
        ).step(f0, dt=0.05)
        assert bool(low.converged.all())
        # Refinement recovered fp64-level solutions: the accepted states
        # agree far below the conservation acceptance threshold (1e-7).
        assert np.abs(low.f_new - gold.f_new).max() < 1e-9
        # Picard contraction is unchanged.
        assert len(low.picard_updates) == len(gold.picard_updates)
        np.testing.assert_allclose(
            low.picard_updates, gold.picard_updates, rtol=1e-3
        )

    def test_mixed_precision_conserves_moments(self, small_grid, small_stencil):
        f0 = _f0(small_grid)
        res = PicardStepper(
            small_grid,
            _masses(),
            stencil=small_stencil,
            options=PicardOptions(precision="mixed"),
        ).step(f0, dt=0.05)
        rep = res.conservation
        assert abs(rep.density_drift).max() < 1e-12
        assert abs(rep.momentum_drift).max() < 1e-12
        assert abs(rep.energy_drift).max() < 1e-12

    def test_fp64_option_is_bit_identical_to_default(self, small_grid, small_stencil):
        f0 = _f0(small_grid)
        default = PicardStepper(
            small_grid, _masses(), stencil=small_stencil
        ).step(f0, dt=0.05)
        explicit = PicardStepper(
            small_grid,
            _masses(),
            stencil=small_stencil,
            options=PicardOptions(precision="fp64"),
        ).step(f0, dt=0.05)
        np.testing.assert_array_equal(default.f_new, explicit.f_new)
        np.testing.assert_array_equal(
            default.linear_iterations, explicit.linear_iterations
        )

    def test_mixed_solver_is_refinement(self, small_grid, small_stencil):
        from repro.core.solvers import RefinementSolver

        stepper = PicardStepper(
            small_grid,
            _masses(1),
            stencil=small_stencil,
            options=PicardOptions(precision="mixed"),
        )
        assert isinstance(stepper._solver, RefinementSolver)
        assert stepper._solver.inner.precision.name == "mixed"
