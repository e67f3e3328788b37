"""Tests for ``value_bytes`` precision threading through the GPU model.

fp32 storage (4-byte values) must halve the modelled value traffic, double
the shared-memory vector capacity — changing actual placement decisions —
and lower the estimated solve time on every modelled GPU and format.
"""

import numpy as np
import pytest

from repro.core.solvers.schedule import solver_schedule
from repro.gpu.hardware import A100, GPUS, MI100, V100
from repro.gpu.kernel import (
    iteration_work,
    setup_work,
    spmv_work,
    storage_for_solver,
)
from repro.gpu.timing import estimate_iterative_solve, estimate_spmv
from repro.gpu.tuning import tune_batched_solver, tune_for_matrix

N992, NNZ, STORED = 992, 8832, 8928


class TestKernelWorkScaling:
    @pytest.mark.parametrize("fmt", ["csr", "ell", "dia", "dense"])
    def test_spmv_value_traffic_halves(self, fmt):
        w64 = spmv_work(N992, NNZ, fmt, stored_nnz=STORED if fmt != "csr" else None)
        w32 = spmv_work(
            N992, NNZ, fmt,
            stored_nnz=STORED if fmt != "csr" else None,
            value_bytes=4,
        )
        assert w32.matrix_bytes == w64.matrix_bytes / 2
        assert w32.vector_bytes == w64.vector_bytes / 2
        # Index metadata is precision-independent, as are the flops.
        assert w32.index_bytes == w64.index_bytes
        assert w32.flops == w64.flops

    def test_iteration_work_scales_value_streams(self):
        schedule = solver_schedule("bicgstab")
        # A zero budget spills every vector, so spill traffic is visible.
        storage = storage_for_solver("bicgstab", N992, 0)
        w64 = iteration_work(schedule, N992, NNZ, "ell", storage, stored_nnz=STORED)
        w32 = iteration_work(
            schedule, N992, NNZ, "ell", storage, stored_nnz=STORED, value_bytes=4
        )
        assert w32.matrix_bytes == w64.matrix_bytes / 2
        assert w32.vector_bytes == w64.vector_bytes / 2
        assert w32.flops == w64.flops

    def test_setup_work_scales_rhs(self):
        schedule = solver_schedule("bicgstab")
        s64 = setup_work(schedule, N992, NNZ, "ell", stored_nnz=STORED)
        s32 = setup_work(
            schedule, N992, NNZ, "ell", stored_nnz=STORED, value_bytes=4
        )
        assert s32.rhs_bytes == s64.rhs_bytes / 2
        assert s32.matrix_bytes == s64.matrix_bytes / 2


class TestPlacementChanges:
    def test_v100_bicgstab_places_all_vectors_at_fp32(self):
        """The paper's V100 result: 6 of 9 BiCGStab vectors fit in shared
        memory at fp64.  At fp32 the halved vectors all fit — a genuinely
        different configurator decision."""
        budget = V100.shared_budget_per_block()
        s64 = storage_for_solver("bicgstab", N992, budget)
        s32 = storage_for_solver("bicgstab", N992, budget, value_bytes=4)
        assert s64.num_shared == 6 and s64.num_global == 3
        assert s32.num_shared == 9 and s32.num_global == 0
        assert s32.vector_bytes == s64.vector_bytes / 2

    @pytest.mark.parametrize("hw", GPUS, ids=lambda h: h.name)
    def test_fp32_never_places_fewer_vectors(self, hw):
        for solver in ("bicgstab", "cg", "cgs", "gmres", "richardson"):
            budget = hw.shared_budget_per_block()
            s64 = storage_for_solver(solver, N992, budget)
            s32 = storage_for_solver(solver, N992, budget, value_bytes=4)
            assert s32.num_shared >= s64.num_shared, (hw.name, solver)

    def test_tuner_shared_plan_tracks_value_bytes(self):
        d64 = tune_batched_solver(V100, N992, 4, 9)
        d32 = tune_batched_solver(V100, N992, 4, 9, value_bytes=4)
        assert d32.storage.num_shared > d64.storage.num_shared

    def test_tune_for_matrix_infers_fp32_from_dtype(self, csr_batch_n992):
        d64 = tune_for_matrix(V100, csr_batch_n992, solver="bicgstab")
        d32 = tune_for_matrix(
            V100, csr_batch_n992.astype(np.float32), solver="bicgstab"
        )
        assert d64.storage.vector_bytes == N992 * 8
        assert d32.storage.vector_bytes == N992 * 4
        assert d32.storage.num_shared > d64.storage.num_shared
        # Format choice is precision-independent for the stencil pattern.
        assert d32.fmt == d64.fmt == "dia"


@pytest.fixture(scope="module")
def csr_batch_n992():
    from repro.xgc import DEUTERON, CollisionStencil, VelocityGrid, maxwellian
    from repro.xgc.collision import linearized_coefficients

    grid = VelocityGrid()
    stencil = CollisionStencil(grid)
    f = np.tile(maxwellian(grid, 1.0, 1.0, 0.0), (2, 1))
    coeffs = linearized_coefficients(grid, DEUTERON, f, dt=0.05)
    return stencil.assemble(coeffs)


class TestTimingScaling:
    @pytest.mark.parametrize("hw", GPUS, ids=lambda h: h.name)
    @pytest.mark.parametrize("fmt", ["csr", "ell", "dia"])
    def test_fp32_solve_estimate_is_faster(self, hw, fmt):
        iters = np.full(1000, 20.0)
        stored = None if fmt == "csr" else STORED
        t64 = estimate_iterative_solve(
            hw, fmt, N992, NNZ, iters, stored_nnz=stored
        ).total_time_s
        t32 = estimate_iterative_solve(
            hw, fmt, N992, NNZ, iters, stored_nnz=stored, value_bytes=4
        ).total_time_s
        assert t32 < t64

    @pytest.mark.parametrize("hw", [V100, A100, MI100], ids=lambda h: h.name)
    def test_fp32_spmv_estimate_is_faster(self, hw):
        t64 = estimate_spmv(hw, "ell", N992, NNZ, 1000, stored_nnz=STORED)
        t32 = estimate_spmv(
            hw, "ell", N992, NNZ, 1000, stored_nnz=STORED, value_bytes=4
        )
        assert t32.total_time_s < t64.total_time_s
