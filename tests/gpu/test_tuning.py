"""Tests for the automatic tuning strategy (paper contribution #3)."""

import pytest

from repro.core import BatchCsr
from repro.core.solvers.schedule import GMRES_RESTART
from repro.gpu import (
    A100,
    GPUS,
    MI100,
    V100,
    choose_solver_variant,
    tune_batched_solver,
    tune_for_matrix,
)
from repro.gpu.tuning import FUSED_ROW_LIMIT, MAX_THREADS_PER_BLOCK

import numpy as np


class TestFormatChoice:
    def test_xgc_matrices_select_dia(self, paper_app):
        """Inspecting the paper's matrices reveals the 9-diagonal stencil
        structure, so the pattern-aware entry point upgrades the choice
        from ELL to the gather-free DIA format on every GPU."""
        matrix, _ = paper_app.build_matrices()
        for hw in (V100, A100, MI100):
            d = tune_for_matrix(hw, matrix)
            assert d.fmt == "dia"
            assert "9 constant diagonals" in d.rationale["format"]
            assert "working_set" in d.rationale

    def test_uniform_rows_select_ell(self):
        """Without diagonal information the policy is unchanged: ELL for
        near-uniform rows (dimension-only callers never see DIA)."""
        d = tune_batched_solver(V100, 1000, 9, 9)
        assert d.fmt == "ell"
        assert "near-uniform" in d.rationale["format"]

    def test_compact_diagonal_pattern_selects_dia(self):
        d = tune_batched_solver(
            V100, 1000, 9, 9, num_diags=9, dia_padding_fraction=0.04
        )
        assert d.fmt == "dia"

    def test_too_many_diagonals_fall_back_to_ell(self):
        d = tune_batched_solver(
            V100, 1000, 9, 9, num_diags=200, dia_padding_fraction=0.04
        )
        assert d.fmt == "ell"

    def test_excessive_fringe_padding_rejects_dia(self):
        d = tune_batched_solver(
            V100, 1000, 9, 9, num_diags=9, dia_padding_fraction=0.8
        )
        assert d.fmt == "ell"

    def test_invalid_dia_padding(self):
        with pytest.raises(ValueError):
            tune_batched_solver(
                V100, 10, 1, 2, num_diags=3, dia_padding_fraction=1.5
            )

    def test_wildly_irregular_rows_select_csr(self):
        d = tune_batched_solver(V100, 1000, 1, 200)
        assert d.fmt == "csr"

    def test_exact_padding_overrides_worst_case(self):
        """min/max alone says 1-4/9 = 56% padding (CSR); the true
        distribution says 4% (ELL)."""
        worst = tune_batched_solver(V100, 992, 4, 9)
        exact = tune_batched_solver(V100, 992, 4, 9, padding_fraction=0.04)
        assert worst.fmt == "csr"
        assert exact.fmt == "ell"

    def test_invalid_padding(self):
        with pytest.raises(ValueError):
            tune_batched_solver(V100, 10, 1, 2, padding_fraction=1.5)


class TestThreadSizing:
    def test_threads_proportional_to_rows(self):
        d = tune_batched_solver(V100, 992, 9, 9)
        assert d.threads_per_block == 992  # 31 warps exactly
        assert d.rows_per_thread == 1

    def test_warp_granularity(self):
        d = tune_batched_solver(V100, 100, 5, 5)
        assert d.threads_per_block == 128  # 100 -> 4 warps
        d64 = tune_batched_solver(MI100, 100, 5, 5)
        assert d64.threads_per_block == 128  # 2 wavefronts of 64

    def test_large_systems_fold_rows(self):
        d = tune_batched_solver(A100, 5000, 9, 9)
        assert d.threads_per_block <= MAX_THREADS_PER_BLOCK
        assert d.rows_per_thread == 5
        assert d.rows_per_thread * d.threads_per_block >= 5000

    def test_tiny_system(self):
        d = tune_batched_solver(V100, 3, 2, 2)
        assert d.threads_per_block == 32  # one warp minimum


class TestSharedMemory:
    def test_paper_v100_placement(self):
        d = tune_batched_solver(V100, 992, 9, 9)
        assert d.storage.num_shared == 6
        assert d.occupancy.blocks_per_cu == 2

    def test_mi100_full_lds(self):
        d = tune_batched_solver(MI100, 992, 9, 9)
        assert d.storage.num_shared == 8
        assert d.occupancy.blocks_per_cu == 1

    def test_huge_system_spills_everything(self):
        d = tune_batched_solver(V100, 200_000, 9, 9)
        assert d.storage.num_shared == 0
        assert "spill" in d.rationale["shared"]

    def test_gmres_vectors_accounted(self):
        d = tune_batched_solver(V100, 992, 9, 9, solver="gmres")
        # 30+1 basis vectors + r + x: only a few fit in 48 KiB.
        assert d.storage.num_vectors == 33
        assert d.storage.num_shared == 6

    def test_gmres_restart_threads_through_matrix_path(self, paper_app):
        matrix, _ = paper_app.build_matrices()
        d = tune_for_matrix(V100, matrix, solver="gmres")
        assert d.storage.num_vectors == GMRES_RESTART + 3


class TestKernelPath:
    def test_small_systems_fuse(self):
        assert tune_batched_solver(V100, 992, 9, 9).fused_kernel

    def test_large_systems_use_component_kernels(self):
        d = tune_batched_solver(V100, FUSED_ROW_LIMIT + 1, 9, 9)
        assert not d.fused_kernel


class TestSolverVariant:
    """The sync-aware classic-vs-pipelined choice (n=992 stencil sizes)."""

    N, NNZ, STORED = 992, 8832, 8928

    def choose(self, hw, nb, solver="cg"):
        return choose_solver_variant(
            hw, "ell", self.N, self.NNZ, nb,
            solver=solver, stored_nnz=self.STORED,
        )

    def test_small_batch_selects_pipelined_cg_everywhere(self):
        for hw in GPUS:
            name, why = self.choose(hw, 120)
            assert name == "pipelined_cg", hw.name
            assert "reduction" in why

    def test_large_batch_reverts_to_classic_cg(self):
        """The residual-replacement SpMVs scale with the batch while the
        sync savings do not: classic CG wins back the big batches."""
        name, why = self.choose(V100, 3840)
        assert name == "cg"
        assert "batch" in why

    def test_bicgstab_pipelined_at_every_batch(self):
        """No replacement cycle, same vector set: collapsing 5 rounds to
        2 is a pure win in the model."""
        for nb in (120, 3840):
            name, _ = self.choose(A100, nb, solver="bicgstab")
            assert name == "pipelined_bicgstab"

    def test_non_variant_solver_unchanged(self):
        name, why = self.choose(V100, 120, solver="gmres")
        assert name == "gmres"
        assert "no pipelined variant" in why

    def test_tune_for_matrix_picks_pipelined_at_small_batch(self, paper_app):
        matrix, _ = paper_app.build_matrices()
        d = tune_for_matrix(V100, matrix, solver="bicgstab")
        assert d.solver_variant == "pipelined_bicgstab"
        assert "solver_variant" in d.rationale
        # Storage is planned for the chosen variant's vector set.
        assert d.storage.num_vectors >= 9

    def test_tune_batched_solver_without_batch_size_skips_variant(self):
        d = tune_batched_solver(V100, 992, 9, 9)
        assert d.solver_variant is None
        assert "solver_variant" not in d.rationale

    def test_explicit_large_batch_keeps_classic_cg(self):
        d = tune_batched_solver(V100, 992, 9, 9, solver="cg", num_batch=3840)
        assert d.solver_variant == "cg"


class TestTuneForMatrix:
    def test_reads_pattern_from_matrix(self, rng):
        n = 64
        dense = rng.standard_normal((2, n, n)) * (rng.random((1, n, n)) < 0.1)
        dense += np.eye(n) * (np.abs(dense).sum(axis=2, keepdims=True) + 1)
        m = BatchCsr.from_dense(dense)
        d = tune_for_matrix(A100, m)
        assert d.fmt in ("csr", "ell", "dia")
        assert d.threads_per_block >= 64

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            tune_batched_solver(V100, 0, 1, 1)
        with pytest.raises(ValueError):
            tune_batched_solver(V100, 10, 5, 2)


class TestVariantEstimates:
    """The shared per-variant pricing surface (fig6 + chooser)."""

    N, NNZ, STORED = 992, 8832, 8928

    def test_scalar_iterations_expand_to_batch(self):
        from repro.gpu import variant_estimates

        ests = variant_estimates(
            V100, "ell", self.N, self.NNZ,
            {"cg": 32.0, "pipelined_cg": 32.0},
            num_batch=120, stored_nnz=self.STORED,
        )
        assert set(ests) == {"cg", "pipelined_cg"}
        for est in ests.values():
            assert est.block_times_s.shape == (120,)
            assert est.total_time_s > 0

    def test_scalar_without_batch_raises(self):
        from repro.gpu import variant_estimates

        with pytest.raises(ValueError):
            variant_estimates(V100, "ell", self.N, self.NNZ, {"cg": 32.0})

    def test_chooser_reads_these_numbers(self):
        """choose_solver_variant's winner is variant_estimates' argmin."""
        from repro.gpu import variant_estimates

        for nb in (120, 3840):
            ests = variant_estimates(
                V100, "ell", self.N, self.NNZ,
                {"cg": 32.0, "pipelined_cg": 32.0},
                num_batch=nb, stored_nnz=self.STORED,
            )
            modeled = min(ests, key=lambda s: ests[s].total_time_s)
            chosen, _ = choose_solver_variant(
                V100, "ell", self.N, self.NNZ, nb,
                solver="cg", stored_nnz=self.STORED,
            )
            assert chosen == modeled


class TestDecisionValueSemantics:
    """TuningDecision is a hashable value object."""

    def test_hashable_and_equal(self, paper_app):
        matrix, _ = paper_app.build_matrices()
        a = tune_for_matrix(V100, matrix)
        b = tune_for_matrix(V100, matrix)
        assert a == b
        assert len({a, b}) == 1
