"""Tests for the simulated multi-rank proxy-app execution."""

import numpy as np
import pytest

from repro.core.faults import HEALTH_DTYPE, SolverHealth
from repro.dist import run_distributed
from repro.dist.partition import partition_batch
from repro.dist.runner import DistributedRun, RankResult
from repro.gpu import V100, estimate_iterative_solve
from repro.xgc import (
    CollisionStencil,
    PicardOptions,
    PicardStepper,
    VelocityGrid,
    maxwellian,
)
from repro.xgc.species import DEUTERON, ELECTRON


@pytest.fixture(scope="module")
def setup():
    grid = VelocityGrid(nv_par=10, nv_perp=9)
    stencil = CollisionStencil(grid)
    masses = np.tile([ELECTRON.mass, DEUTERON.mass], 4)
    f0 = np.tile(
        0.7 * maxwellian(grid, 1.0, 0.8, -0.4)
        + 0.3 * maxwellian(grid, 1.0, 2.0, 1.0),
        (8, 1),
    )

    def factory(idx):
        return PicardStepper(grid, masses[idx], stencil=stencil)

    return grid, masses, f0, factory


class TestRunDistributed:
    def test_matches_single_rank_numerics(self, setup):
        """Decomposition must not change the physics: the gathered result
        equals the single-rank result (independent systems)."""
        grid, masses, f0, factory = setup
        single = run_distributed(factory, f0, 0.05, 1)
        multi = run_distributed(factory, f0, 0.05, 4)
        np.testing.assert_allclose(
            multi.gather_f(), single.gather_f(), rtol=1e-12, atol=1e-14
        )
        np.testing.assert_array_equal(multi.gather_health(), single.gather_health())

    def test_cyclic_scheme_same_result(self, setup):
        grid, masses, f0, factory = setup
        block = run_distributed(factory, f0, 0.05, 3, scheme="block")
        cyc = run_distributed(factory, f0, 0.05, 3, scheme="cyclic")
        np.testing.assert_allclose(
            block.gather_f(), cyc.gather_f(), rtol=1e-12, atol=1e-14
        )

    def test_parallel_timing_summary(self, setup):
        grid, masses, f0, factory = setup
        run = run_distributed(factory, f0, 0.05, 4)
        assert run.makespan_s > 0
        assert run.total_work_s >= run.makespan_s
        assert 0 < run.parallel_efficiency <= 1.0

    def test_more_ranks_never_slower(self, setup):
        """Below GPU saturation the makespan is launch-bound and flat in
        the rank count; it must never grow."""
        grid, masses, f0, factory = setup
        r1 = run_distributed(factory, f0, 0.05, 1)
        r4 = run_distributed(factory, f0, 0.05, 4)
        assert r4.makespan_s <= r1.makespan_s + 1e-12
        # Sub-saturation decomposition wastes device time: aggregate rank
        # time grows with the rank count (each rank pays the same
        # iteration-bound block time for its slice).
        assert r4.total_work_s >= r1.total_work_s

    def test_empty_ranks_tolerated(self, setup):
        grid, masses, f0, factory = setup
        run = run_distributed(factory, f0, 0.05, 16)  # 8 systems, 16 ranks
        assert run.makespan_s > 0
        assert run.gather_f().shape == f0.shape
        # Empty ranks report no health codes, and every system one.
        assert [r.health.size for r in run.rank_results] == [1] * 8 + [0] * 8
        assert run.health_counts() == {"converged": 8}


class TestPricing:
    @pytest.mark.parametrize("solver", ["bicgstab", "gmres"])
    def test_rank_priced_from_its_stepper(self, setup, solver):
        """A rank's solves are priced with its stepper's stencil (90 rows,
        700 non-zeros, at most 9 per row), matrix format and solver."""
        grid, masses, f0, _ = setup
        options = PicardOptions(solver=solver)
        run = run_distributed(
            lambda idx: PicardStepper(grid, masses[idx], options=options),
            f0, 0.05, 1,
        )
        (rank,) = run.rank_results
        expected = sum(
            estimate_iterative_solve(
                V100, options.matrix_format, 90, 700, its,
                stored_nnz=810, solver=solver,
            ).total_time_s
            for its in rank.linear_iterations
        )
        assert rank.modelled_time_s == pytest.approx(expected, rel=1e-12)


class TestHealthCounts:
    def test_merges_every_ranks_codes(self):
        part = partition_batch(6, 3, scheme="block")
        codes = [
            [SolverHealth.CONVERGED, SolverHealth.DIVERGED],
            [SolverHealth.CONVERGED, SolverHealth.NON_FINITE],
            [SolverHealth.STAGNATED, SolverHealth.CONVERGED],
        ]
        run = DistributedRun(partition=part, rank_results=[
            RankResult(rank, np.zeros((2, 4)), np.zeros((1, 2)), 1.0,
                       np.array(health, dtype=HEALTH_DTYPE))
            for rank, health in enumerate(codes)
        ])
        assert run.health_counts() == {
            "converged": 3, "stagnated": 1, "diverged": 1, "non_finite": 1,
        }
        assert run.worst_health == SolverHealth.NON_FINITE
