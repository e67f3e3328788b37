"""Tests for the §IV-D shared-memory planner and the host workspace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SolverWorkspace, VectorSpec, plan_storage
from repro.core.solvers.schedule import GMRES_RESTART, solver_schedule

KIB = 1024


class TestVectorSpecs:
    def test_bicgstab_has_nine_vectors_four_spmv(self):
        """Algorithm 1: 9 vectors total, 4 of them SpMV operands."""
        specs = solver_schedule("bicgstab").vectors
        assert len(specs) == 9
        assert sum(1 for s in specs if s.role == "spmv") == 4

    def test_gmres_scales_with_restart(self):
        specs = solver_schedule("gmres").vectors
        assert len(specs) == GMRES_RESTART + 3  # m + 1 basis + r + x

    def test_unknown_solver(self):
        with pytest.raises(ValueError):
            solver_schedule("chebyshev")

    def test_invalid_role(self):
        with pytest.raises(ValueError):
            VectorSpec("v", "scratch")


class TestPlanStorage:
    def test_paper_v100_outcome(self):
        """Paper, §IV-D: on the V100 (48 KiB/block budget for n = 992) the
        planner puts 6 of BiCGStab's 9 vectors in shared memory."""
        cfg = plan_storage(solver_schedule("bicgstab").vectors, 992, 48 * KIB)
        assert cfg.num_shared == 6
        assert cfg.num_global == 3
        assert cfg.vector_bytes == 992 * 8

    def test_spmv_vectors_placed_first(self):
        cfg = plan_storage(solver_schedule("bicgstab").vectors, 992, 4 * 992 * 8)
        assert set(cfg.shared_vectors) == {"p_hat", "v", "s_hat", "t"}

    def test_zero_budget_spills_everything(self):
        cfg = plan_storage(solver_schedule("bicgstab").vectors, 100, 0)
        assert cfg.num_shared == 0
        assert cfg.num_global == 9
        assert cfg.shared_bytes_used == 0

    def test_large_budget_keeps_everything(self):
        cfg = plan_storage(solver_schedule("bicgstab").vectors, 100, 10**9)
        assert cfg.num_global == 0
        assert cfg.shared_bytes_used == 9 * 100 * 8

    def test_invalid_inputs(self):
        specs = solver_schedule("cg").vectors
        with pytest.raises(ValueError):
            plan_storage(specs, 0, 1024)
        with pytest.raises(ValueError):
            plan_storage(specs, 10, -1)

    @given(
        n=st.integers(1, 4096),
        budget_vectors=st.integers(0, 12),
    )
    @settings(max_examples=100, deadline=None)
    def test_planner_invariants(self, n, budget_vectors):
        """Budget never exceeded; vector partition is exact; placement is
        monotone in the budget."""
        specs = solver_schedule("bicgstab").vectors
        budget = budget_vectors * n * 8
        cfg = plan_storage(specs, n, budget)
        assert cfg.shared_bytes_used <= budget
        assert cfg.num_shared + cfg.num_global == len(specs)
        assert cfg.num_shared == min(budget_vectors, len(specs))
        bigger = plan_storage(specs, n, budget + n * 8)
        assert bigger.num_shared >= cfg.num_shared


class TestSolverWorkspace:
    def test_vectors_are_reused(self):
        ws = SolverWorkspace(3, 10)
        a = ws.vector("r")
        b = ws.vector("r")
        assert a is b
        assert ws.allocated_vectors == 1

    def test_zero_flag_clears(self):
        ws = SolverWorkspace(2, 4)
        v = ws.vector("p")
        v[...] = 7.0
        v2 = ws.vector("p", zero=True)
        assert v2 is v
        assert np.all(v2 == 0.0)

    def test_scalars(self):
        ws = SolverWorkspace(4, 2)
        s = ws.scalar("alpha", fill=1.0)
        np.testing.assert_array_equal(s, np.ones(4))
        s2 = ws.scalar("alpha")
        assert s2 is s

    def test_matches(self):
        ws = SolverWorkspace(3, 10)
        assert ws.matches(3, 10)
        assert not ws.matches(3, 11)

    def test_allocated_bytes(self):
        ws = SolverWorkspace(2, 8)
        ws.vector("a")
        ws.scalar("s")
        assert ws.allocated_bytes() == 2 * 8 * 8 + 2 * 8

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            SolverWorkspace(0, 5)
