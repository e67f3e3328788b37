"""Property and golden pins for the 1-D operator zoo.

Three families:

* **assembly properties** (hypothesis) — for randomly drawn batches the
  weighted part generators are exactly symmetric and negative-semidefinite
  up to rounding, the operator conserves density by construction (zero
  weighted column sums), the shared equilibrium is an exact discrete fixed
  point, and every solver-facing format materialises the same matrix;
* **reference agreement** — the batched Thomas direct path matches
  ``scipy.linalg.solve_banded`` to 1e-12, and the iterative solvers match
  it across the tridiag/dia/csr paths and the fp64/fp32/mixed precision
  policies at each policy's reachable tolerance;
* **golden pins** — every predefined scenario x solver cell reproduces
  the recorded first-Picard-step iteration counts, residual norms (hex,
  bit-exact) and solution checksums, mirroring
  ``golden_solvers_n992.json``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AbsoluteResidual, make_solver, to_format
from repro.xgc import (
    OPERATOR_SCENARIOS,
    CollisionOperator1D,
    ParallelVelocityGrid,
    check_conservation,
    dougherty_operator,
    grid_maxwellian,
    grid_moments,
    landau_coupled_operator,
    lenard_bernstein_operator,
    run_operator_scenario,
)
from repro.xgc.scenarios import LANDAU_MIX

GOLDEN = Path(__file__).parent.parent / "data" / "golden_operators.json"

GRID = ParallelVelocityGrid(nv=48, v_max=6.0)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def random_dougherty(seed, nb=5, grid=GRID):
    """A Dougherty operator on a perturbed random-moment batch."""
    rng = np.random.default_rng(seed)
    density = 0.5 + 1.5 * rng.random(nb)
    u = 0.8 * rng.standard_normal(nb)
    vt2 = 0.5 + 1.5 * rng.random(nb)
    f0 = grid_maxwellian(grid, density, u, vt2)
    f0 = f0 * (1.0 + 0.05 * rng.random((nb, grid.nv)))
    dt = 0.02 + 0.2 * rng.random(nb)
    return dougherty_operator(grid, f0, nu=1.0, dt=dt), f0


def banded_reference(op, b):
    """Per-system ``scipy.linalg.solve_banded`` on the assembled bands."""
    dl, d, du = op.bands()
    nb, n = d.shape
    out = np.empty_like(np.atleast_2d(b))
    ab = np.zeros((3, n))
    for k in range(nb):
        ab[0, 1:] = du[k]
        ab[1, :] = d[k]
        ab[2, :-1] = dl[k]
        out[k] = scipy.linalg.solve_banded((1, 1), ab, b[k])
    return out


class TestGridAndMoments:
    def test_grid_invariants(self):
        assert GRID.num_cells == GRID.nv
        assert GRID.cell_volumes().sum() == pytest.approx(2 * GRID.v_max)
        v, vperp = GRID.flat_coords()
        assert np.all(vperp == 0.0)
        np.testing.assert_allclose(v, -v[::-1], atol=1e-14)

    def test_bad_grids_rejected(self):
        with pytest.raises(ValueError):
            ParallelVelocityGrid(nv=2)
        with pytest.raises(ValueError):
            ParallelVelocityGrid(v_max=-1.0)

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_maxwellian_moments_round_trip(self, seed):
        """grid_moments inverts grid_maxwellian to quadrature accuracy."""
        rng = np.random.default_rng(seed)
        density = 0.5 + 1.5 * rng.random(4)
        # Keep the support well inside [-v_max, v_max]: at u <= 0.5 and
        # vt <= 1 the truncated tail mass is ~4e-8, so the midpoint-rule
        # moments invert the construction to quadrature accuracy.
        u = rng.uniform(-0.5, 0.5, 4)
        vt2 = 0.5 + 0.5 * rng.random(4)
        n, u_out, vt2_out = grid_moments(GRID, grid_maxwellian(GRID, density, u, vt2))
        np.testing.assert_allclose(n, density, rtol=1e-6)
        np.testing.assert_allclose(u_out, u, atol=1e-6)
        np.testing.assert_allclose(vt2_out, vt2, rtol=1e-5)

    def test_degenerate_moments_rejected(self):
        with pytest.raises(ValueError, match="vt2"):
            grid_maxwellian(GRID, [1.0], [0.0], [-1.0])
        with pytest.raises(ValueError, match="density"):
            grid_moments(GRID, -np.ones((1, GRID.nv)))


class TestAssemblyProperties:
    """The discrete H-theorem structure, pinned on random batches."""

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_part_generators_symmetric_nsd(self, seed):
        """B_p = w diag(vol) L_p diag(feq) is exactly symmetric and NSD
        up to rounding — including the zero-flux boundary rows."""
        op, _ = random_dougherty(seed)
        gen = op.part_generators()
        np.testing.assert_array_equal(gen, np.swapaxes(gen, -1, -2))
        eigs = np.linalg.eigvalsh(gen.reshape(-1, op.num_rows, op.num_rows))
        assert eigs.max() <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_density_conserved_by_construction(self, seed):
        """Weighted column sums of A = I - M vanish to rounding: the
        backward-Euler step redistributes density, never creates it."""
        op, _ = random_dougherty(seed)
        a = np.eye(op.num_rows)[None] - op.dense()
        col_sums = a.sum(axis=1)
        assert np.abs(col_sums).max() <= 1e-11 * np.abs(a).max()

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_equilibrium_is_exact_fixed_point(self, seed):
        """M feq = feq: the geometric-mean face weight makes the shared
        Maxwellian an exact discrete equilibrium, not just O(h^2)."""
        rng = np.random.default_rng(seed)
        nb = 4
        vt2 = 0.5 + 1.5 * rng.random(nb)
        op = lenard_bernstein_operator(
            GRID, nu=1.0, vt2=vt2, dt=0.1, num_batch=nb
        )
        feq = op.equilibria[:, 0, :]
        resid = op.tridiag().apply(feq) - feq
        assert np.abs(resid).max() <= 1e-13 * np.abs(feq).max()

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_formats_materialise_identically(self, seed):
        """tridiag / dia / csr / dense assemblies are the same matrix."""
        op, _ = random_dougherty(seed)
        ref = op.dense()
        dl, d, du = op.tridiag().bands()
        idx = np.arange(op.num_rows)
        np.testing.assert_array_equal(ref[:, idx, idx], d)
        np.testing.assert_array_equal(ref[:, idx[1:], idx[:-1]], dl)
        np.testing.assert_array_equal(ref[:, idx[:-1], idx[1:]], du)
        np.testing.assert_array_equal(
            to_format(op.dia(), "dense").values, ref
        )
        np.testing.assert_array_equal(
            to_format(op.matrix("csr"), "dense").values, ref
        )

    def test_bad_assemblies_rejected(self):
        nb = 2
        feq = grid_maxwellian(GRID, np.ones(nb), np.zeros(nb), np.ones(nb))
        with pytest.raises(ValueError, match="non-negative"):
            CollisionOperator1D(GRID, -np.ones((nb, 1)), feq[:, None, :])
        with pytest.raises(ValueError, match="positive"):
            CollisionOperator1D(GRID, np.ones((nb, 1)), 0.0 * feq[:, None, :])
        with pytest.raises(ValueError, match="shape"):
            CollisionOperator1D(GRID, np.ones((nb, 2)), feq[:, None, :])


def _tridiag_csr(tri):
    from repro.core.convert import tridiag_to_dia

    return to_format(tridiag_to_dia(tri), "csr")


def _landau_case(seed, nodes=2):
    rng = np.random.default_rng(20220157 + seed)
    ns = len(LANDAU_MIX)
    masses = np.array([s.mass for s in LANDAU_MIX])
    grid = ParallelVelocityGrid(nv=48, v_max=6.0)
    density = 1.0 + 0.2 * rng.random((nodes, ns))
    u0 = 0.3 * rng.standard_normal((nodes, ns))
    t0 = (1.0 + 0.3 * rng.random((nodes, ns))) / masses
    f0 = grid_maxwellian(
        grid, density.ravel(), u0.ravel(), t0.ravel()
    ).reshape(nodes, ns, grid.nv)
    return landau_coupled_operator(grid, f0, LANDAU_MIX, nu0=1.0, dt=0.05), f0


class TestAgainstSolveBanded:
    """The batched direct path against scipy, then the iterative solvers
    against the direct path across formats and precision policies."""

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_thomas_matches_solve_banded(self, seed):
        op, f0 = random_dougherty(seed)
        res = op.solve_direct(f0)
        assert res.converged.all()
        ref = banded_reference(op, f0)
        assert np.abs(res.x - ref).max() <= 1e-12

    @pytest.mark.parametrize("fmt", ["tridiag", "dia", "csr"])
    @pytest.mark.parametrize("name", ["bicgstab", "pipelined_bicgstab", "gmres"])
    def test_iterative_fp64_matches_reference(self, name, fmt):
        op, f0 = random_dougherty(7)
        ref = banded_reference(op, f0)
        matrix = op.matrix(fmt)
        if fmt == "tridiag":
            matrix = _tridiag_csr(matrix)  # iterative kernels take sparse formats
        res = make_solver(
            name, preconditioner="jacobi",
            criterion=AbsoluteResidual(1e-12), max_iter=2000,
        ).solve(matrix, f0)
        assert res.converged.all()
        np.testing.assert_allclose(res.x, ref, rtol=1e-9, atol=1e-11)

    def test_fp32_policy_reaches_single_accuracy(self):
        op, f0 = random_dougherty(11)
        ref = banded_reference(op, f0)
        m32 = op.matrix("dia").astype(np.float32)
        res = make_solver(
            "bicgstab", preconditioner="jacobi",
            criterion=AbsoluteResidual(1e-4), max_iter=2000,
        ).solve(m32, f0.astype(np.float32))
        assert res.x.dtype == np.float32
        assert res.converged.all()
        np.testing.assert_allclose(res.x, ref, rtol=5e-3, atol=5e-4)

    def test_mixed_policy_reaches_tighter_than_fp32(self):
        """fp64 accumulation buys residuals below the pure-fp32 floor
        (the fp32 matvec still bounds it near 1e-7 absolute)."""
        op, f0 = random_dougherty(11)
        ref = banded_reference(op, f0)
        res = make_solver(
            "bicgstab", preconditioner="jacobi",
            criterion=AbsoluteResidual(1e-6), max_iter=2000,
            precision="mixed",
        ).solve(op.matrix("dia"), f0)
        assert res.converged.all()
        res32 = make_solver(
            "bicgstab", preconditioner="jacobi",
            criterion=AbsoluteResidual(1e-4), max_iter=2000,
        ).solve(op.matrix("dia").astype(np.float32), f0.astype(np.float32))
        assert res.residual_norms.max() < res32.residual_norms.max()
        np.testing.assert_allclose(res.x, ref, rtol=1e-4, atol=1e-6)


class TestScenarioConservation:
    """Every predefined scenario stays inside its conservation envelope."""

    @pytest.mark.parametrize("name", sorted(OPERATOR_SCENARIOS))
    def test_direct_step_conserves(self, name):
        outcome = run_operator_scenario(name)
        assert outcome.ok
        # Density is the hard gate and is exact for the FV scheme.
        assert outcome.report.density_drift.max() <= 1e-12

    @pytest.mark.parametrize("name", sorted(OPERATOR_SCENARIOS))
    @pytest.mark.parametrize("solver", ["bicgstab", "gmres"])
    def test_iterative_step_conserves(self, name, solver):
        outcome = run_operator_scenario(
            name, solver=solver, fmt="dia", tolerance=1e-12
        )
        assert outcome.ok
        assert outcome.report.density_drift.max() <= 1e-9

    def test_landau_exchanges_but_conserves_totals(self):
        """The coupling moves momentum/energy between species (per-species
        moments drift) while the node totals stay within the envelope."""
        op, f0 = _landau_case(1)
        flat = f0.reshape(-1, op.num_rows)
        res = op.solve_direct(flat)
        per_species = check_conservation(op.grid, flat, res.x)
        scenario = OPERATOR_SCENARIOS["landau"]
        report = scenario.check(op, flat, res.x)
        assert scenario.conserves(report)
        # The per-species energy drift exceeds the coupled total drift:
        # that gap is the exchanged energy.
        assert per_species.energy_drift.max() > report.energy_drift.max()

    def test_registry_is_covered(self):
        """Every predefined scenario appears in the golden file — adding a
        scenario without pinning it fails here."""
        with open(GOLDEN) as fh:
            golden = json.load(fh)
        assert set(golden["scenarios"]) == set(OPERATOR_SCENARIOS)


class TestGoldenOperators:
    """Bit-exact regression pins, mirroring ``golden_solvers_n992.json``."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN) as fh:
            return json.load(fh)

    @pytest.mark.parametrize("name", sorted(OPERATOR_SCENARIOS))
    @pytest.mark.parametrize(
        "solver", ["thomas", "bicgstab", "pipelined_bicgstab", "cgs", "gmres"]
    )
    def test_bit_identical_to_pin(self, golden, name, solver):
        meta = golden["meta"]
        kwargs = {}
        if solver != "thomas":
            kwargs = dict(
                fmt=meta["fmt"],
                tolerance=meta["tolerance"],
                max_iter=meta["max_iter"],
            )
        outcome = run_operator_scenario(
            name, solver=solver, seed=meta["seed"], **kwargs
        )
        ref = golden["scenarios"][name][solver]
        res = outcome.result
        assert np.asarray(res.iterations).tolist() == ref["iterations"]
        assert np.asarray(res.converged).tolist() == ref["converged"]
        assert [float(v).hex() for v in res.residual_norms] == (
            ref["residual_norms_hex"]
        )
        digest = hashlib.blake2b(
            np.ascontiguousarray(res.x).tobytes(), digest_size=16
        ).hexdigest()
        assert digest == ref["x_blake2b"]
        assert outcome.ok == ref["ok"]
