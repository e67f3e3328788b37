"""Evaluation-harness pins: pricing validity, memoization, consistency."""

import numpy as np
import pytest

from repro.core import AbsoluteResidual, make_solver
from repro.experiments.common import paper_app
from repro.gpu import V100, estimate_iterative_solve
from repro.tune import (
    CostModelEnv,
    TuneConfig,
    exhaustive_best,
    space_for_scenario,
    xgc_scenario,
)
from repro.tune.env import OPERATOR_ITERATIONS, XGC_ITERATIONS
from repro.xgc import OPERATOR_SCENARIOS

SC = xgc_scenario()
SPACE = space_for_scenario(SC)


class TestTuneScenario:
    def test_frozen_and_hashable(self):
        assert SC == xgc_scenario()
        assert hash(SC) == hash(xgc_scenario())
        with pytest.raises(Exception):
            SC.num_rows = 1

    def test_iteration_lookup(self):
        assert SC.iteration_count("bicgstab") > 0
        with pytest.raises(ValueError):
            SC.iteration_count("richardson")

    def test_stored_entries_per_format(self):
        assert SC.stored_entries("ell") == 8928
        assert SC.stored_entries("dia") == 8928
        assert SC.stored_entries("csr") is None


class TestCostModelEnv:
    def test_every_valid_config_prices_finite_positive(self):
        env = CostModelEnv(V100, SC, 960)
        for config in SPACE.enumerate():
            cost = env.evaluate(config)
            assert np.isfinite(cost) and cost > 0.0

    def test_memoization_counts_misses_once(self):
        env = CostModelEnv(V100, SC, 960)
        config = next(SPACE.enumerate())
        first = env.evaluate(config)
        assert env.evaluations == 1
        assert env.evaluate(config) == first
        assert env.evaluations == 1

    def test_pricing_matches_cost_model_directly(self):
        """The env charges exactly estimate_iterative_solve's numbers."""
        env = CostModelEnv(V100, SC, 960)
        config = TuneConfig("bicgstab", "ell", "fp64")
        iters = np.full(960, SC.iteration_count("bicgstab"))
        direct = estimate_iterative_solve(
            V100, "ell", SC.num_rows, SC.nnz, iters,
            stored_nnz=SC.stored_entries("ell"), solver="bicgstab",
            value_bytes=8,
            shared_budget_bytes=V100.shared_budget_per_block(2),
        )
        assert env.evaluate(config) == direct.total_time_s

    def test_mixed_precision_charges_refinement_overhead(self):
        """Mixed must pay extra iterations, not get fp32 traffic free."""
        env = CostModelEnv(V100, SC, 960)
        fp64 = TuneConfig("bicgstab", "ell", "fp64")
        mixed = TuneConfig("bicgstab", "ell", "mixed")
        iters = SC.iteration_count("bicgstab") * SC.mixed_iteration_overhead
        direct = estimate_iterative_solve(
            V100, "ell", SC.num_rows, SC.nnz, np.full(960, iters),
            stored_nnz=SC.stored_entries("ell"), solver="bicgstab",
            value_bytes=4,
            shared_budget_bytes=V100.shared_budget_per_block(2),
        )
        assert env.evaluate(mixed) == direct.total_time_s
        assert env.evaluate(mixed) != env.evaluate(fp64)

    def test_compaction_threshold_is_priced_as_overhead(self):
        """Uniform convergence -> compaction is pure cost, never a win."""
        env = CostModelEnv(V100, SC, 960)
        off = TuneConfig("bicgstab", "ell", "fp64")
        on = TuneConfig("bicgstab", "ell", "fp64",
                        compaction_threshold=0.5)
        assert env.evaluate(on) > env.evaluate(off)

    def test_exhaustive_best_is_true_argmin(self):
        env = CostModelEnv(V100, SC, 960)
        best, best_cost = exhaustive_best(env)
        costs = [env.evaluate(c) for c in SPACE.enumerate()]
        assert best_cost == min(costs)
        assert env.evaluate(best) == best_cost

    def test_deterministic_across_environments(self):
        a = CostModelEnv(V100, SC, 256)
        b = CostModelEnv(V100, SC, 256)
        for config in list(SPACE.enumerate())[:20]:
            assert a.evaluate(config) == b.evaluate(config)


def _live_mean_iterations(solver, matrix, rhs):
    res = make_solver(
        solver, preconditioner="jacobi",
        criterion=AbsoluteResidual(1e-10), max_iter=500,
    ).solve(matrix, rhs)
    return float(np.mean(res.iterations))


class TestPinnedIterations:
    """The pinned convergence inputs stay within 0.05 of live solves.

    Zero guess, Jacobi, |r| <= 1e-10, 500 iterations max — the settings
    the pins were measured with.  Some pins are one-decimal roundings
    (XGC CGS 31.625, GMRES 37.9375; Landau BiCGSTAB 16.917).
    """

    def test_xgc(self):
        matrix, rhs = paper_app(8).build_matrices()
        for solver, pinned in XGC_ITERATIONS:
            live = _live_mean_iterations(solver, matrix, rhs)
            assert live == pytest.approx(pinned, abs=0.05), solver

    @pytest.mark.parametrize("name", sorted(OPERATOR_ITERATIONS))
    def test_operator(self, name):
        op, f0 = OPERATOR_SCENARIOS[name].build()
        matrix = op.matrix("csr")
        for solver, pinned in OPERATOR_ITERATIONS[name]:
            live = _live_mean_iterations(solver, matrix, f0)
            assert live == pytest.approx(pinned, abs=0.05), solver
