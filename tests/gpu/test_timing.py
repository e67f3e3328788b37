"""Tests for the end-to-end solve-time model — the Fig. 6/7 claims."""

import numpy as np
import pytest

from repro.core.solvers.schedule import GMRES_RESTART
from repro.gpu import (
    A100,
    GPUS,
    MI100,
    SKYLAKE_NODE,
    TABLE1_GPUS,
    V100,
    estimate_cpu_dgbsv,
    estimate_direct_qr,
    estimate_iterative_solve,
    estimate_spmv,
)

N, NNZ, STORED_ELL = 992, 8554, 9 * 992
KL = KU = 33


def mixed_iterations(nb, e=32, i=4):
    """Alternating electron/ion iteration counts (the paper's batches)."""
    return np.tile([e, i], nb // 2 + 1)[:nb]


class TestIterativeSolveModel:
    def test_ell_faster_than_csr_everywhere(self):
        """Fig. 6: 'BatchEll is significantly faster' on all GPUs."""
        its = mixed_iterations(960)
        for hw in GPUS:
            t_csr = estimate_iterative_solve(hw, "csr", N, NNZ, its).total_time_s
            t_ell = estimate_iterative_solve(
                hw, "ell", N, NNZ, its, stored_nnz=STORED_ELL
            ).total_time_s
            assert t_ell < t_csr, hw.name

    def test_a100_fastest_gpu(self):
        # Fastest of the paper's Table I trio; the hardware-zoo H100
        # overtakes it, which TestHardwareZoo pins separately.
        its = mixed_iterations(960)
        times = {
            hw.name: estimate_iterative_solve(
                hw, "ell", N, NNZ, its, stored_nnz=STORED_ELL
            ).total_time_s
            for hw in TABLE1_GPUS
        }
        assert times["A100"] == min(times.values())

    def test_total_time_grows_with_batch(self):
        t_prev = 0.0
        for nb in (120, 480, 1920):
            t = estimate_iterative_solve(
                A100, "ell", N, NNZ, mixed_iterations(nb), stored_nnz=STORED_ELL
            ).total_time_s
            assert t > t_prev
            t_prev = t

    def test_per_entry_time_decreases_with_batch(self):
        """Fig. 6 right panel: amortisation saturates the GPU."""
        small = estimate_iterative_solve(
            V100, "ell", N, NNZ, mixed_iterations(60), stored_nnz=STORED_ELL
        )
        large = estimate_iterative_solve(
            V100, "ell", N, NNZ, mixed_iterations(3840), stored_nnz=STORED_ELL
        )
        assert large.per_entry_time_s < small.per_entry_time_s

    def test_mi100_staircase_at_120(self):
        """Fig. 6: 'discrete jumps at multiples of 120'."""
        def t(nb):
            return estimate_iterative_solve(
                MI100, "ell", N, NNZ, mixed_iterations(nb),
                stored_nnz=STORED_ELL,
            ).total_time_s

        flat = t(239) - t(125)  # within one wave band
        jump = t(125) - t(119)  # crossing the 120 boundary
        assert jump > 5 * max(flat, 1e-12)

    def test_v100_smooth_no_staircase(self):
        def t(nb):
            return estimate_iterative_solve(
                V100, "ell", N, NNZ, mixed_iterations(nb),
                stored_nnz=STORED_ELL,
            ).total_time_s

        jump = t(161) - t(159)  # crossing the 160-slot boundary
        assert jump < 0.2 * t(159)

    def test_iterations_drive_time(self):
        fast = estimate_iterative_solve(
            A100, "ell", N, NNZ, np.full(960, 5), stored_nnz=STORED_ELL
        ).total_time_s
        slow = estimate_iterative_solve(
            A100, "ell", N, NNZ, np.full(960, 35), stored_nnz=STORED_ELL
        ).total_time_s
        assert slow > 3 * fast

    def test_storage_config_in_estimate(self):
        est = estimate_iterative_solve(
            V100, "ell", N, NNZ, mixed_iterations(240), stored_nnz=STORED_ELL
        )
        assert est.storage.num_shared == 6  # the paper's V100 outcome
        est_mi = estimate_iterative_solve(
            MI100, "ell", N, NNZ, mixed_iterations(240), stored_nnz=STORED_ELL
        )
        assert est_mi.storage.num_shared == 8  # full 64 KiB LDS


class TestSolverSpecificEstimates:
    """Regression: solver="cg" (etc.) must charge that solver's schedule,
    not silently fall back to BiCGSTAB's operation counts."""

    SOLVERS = ("bicgstab", "cg", "cgs", "gmres", "richardson")

    def test_each_solver_gets_its_own_cost(self):
        its = mixed_iterations(240)
        times = {
            s: estimate_iterative_solve(
                A100, "ell", N, NNZ, its, stored_nnz=STORED_ELL, solver=s
            ).total_time_s
            for s in self.SOLVERS
        }
        assert len(set(times.values())) == len(self.SOLVERS), times

    def test_cg_iteration_cheaper_than_bicgstab(self):
        """One SpMV per iteration vs two: at equal iteration counts the
        modelled CG solve must come in under BiCGSTAB."""
        its = mixed_iterations(240)
        t_cg = estimate_iterative_solve(
            A100, "ell", N, NNZ, its, stored_nnz=STORED_ELL, solver="cg"
        ).total_time_s
        t_bi = estimate_iterative_solve(
            A100, "ell", N, NNZ, its, stored_nnz=STORED_ELL, solver="bicgstab"
        ).total_time_s
        assert t_cg < t_bi

    def test_unknown_solver_raises(self):
        with pytest.raises(ValueError, match="unknown solver"):
            estimate_iterative_solve(
                A100, "ell", N, NNZ, mixed_iterations(60),
                stored_nnz=STORED_ELL, solver="jacobi-sweep",
            )

    def test_gmres_restart_sizes_storage(self):
        est = estimate_iterative_solve(
            A100, "ell", N, NNZ, mixed_iterations(60), stored_nnz=STORED_ELL,
            solver="gmres",
        )
        # GMRES_RESTART + 1 basis vectors, r and x.
        assert est.storage.num_vectors == GMRES_RESTART + 3


class TestSyncAwareBilling:
    """The pipelined claim: reduction rounds are a per-iteration latency
    the batch size cannot amortize, so collapsing them must show up."""

    def test_sync_time_populated(self):
        est = estimate_iterative_solve(
            A100, "ell", N, NNZ, mixed_iterations(240), stored_nnz=STORED_ELL
        )
        assert est.sync_s > 0.0
        assert est.total_time_s > est.sync_s

    def test_pipelined_bicgstab_cheaper_at_equal_iterations(self):
        """Same iteration counts, 5 -> 2 reduction rounds: the pipelined
        estimate must win on every GPU (it touches the same vectors)."""
        its = mixed_iterations(240)
        for hw in GPUS:
            t_classic = estimate_iterative_solve(
                hw, "ell", N, NNZ, its, stored_nnz=STORED_ELL,
                solver="bicgstab",
            ).total_time_s
            t_pipe = estimate_iterative_solve(
                hw, "ell", N, NNZ, its, stored_nnz=STORED_ELL,
                solver="pipelined_bicgstab",
            ).total_time_s
            assert t_pipe < t_classic, hw.name

    def test_sync_cost_constant_in_batch(self):
        """The sync term prices iteration-rate latency, not throughput:
        it must not grow with the batch (same max iteration count)."""
        small = estimate_iterative_solve(
            V100, "ell", N, NNZ, mixed_iterations(120), stored_nnz=STORED_ELL
        )
        large = estimate_iterative_solve(
            V100, "ell", N, NNZ, mixed_iterations(3840), stored_nnz=STORED_ELL
        )
        assert small.sync_s == large.sync_s

    def test_pipelined_cg_crossover_exists(self):
        """Pipelined CG pays periodic residual-replacement SpMVs for its
        single reduction round; with enough systems the extra bandwidth
        outgrows the constant sync savings — the modelled crossover the
        tuner exploits."""
        its_small = np.full(120, 32.0)
        its_large = np.full(3840, 32.0)
        def t(solver, its):
            return estimate_iterative_solve(
                V100, "ell", N, NNZ, its, stored_nnz=STORED_ELL, solver=solver
            ).total_time_s
        assert t("pipelined_cg", its_small) < t("cg", its_small)
        assert t("pipelined_cg", its_large) > t("cg", its_large)

    def test_fused_solve_pays_one_launch(self):
        """The whole solve is one fused kernel: one launch, whatever the
        solver and however many iterations it runs."""
        for solver in ("bicgstab", "gmres", "richardson"):
            est = estimate_iterative_solve(
                A100, "ell", N, NNZ, mixed_iterations(240),
                stored_nnz=STORED_ELL, solver=solver,
            )
            assert est.launch_s == A100.launch_overhead_us * 1e-6


class TestBaselineModels:
    def test_qr_not_competitive(self):
        """Fig. 6: the batched direct QR is ~10-30x slower than BiCGSTAB
        with CSR on the same (V100) hardware."""
        nb = 1920
        t_qr = estimate_direct_qr(V100, N, KL, KU, nb).total_time_s
        t_csr = estimate_iterative_solve(
            V100, "csr", N, NNZ, mixed_iterations(nb)
        ).total_time_s
        assert 8 <= t_qr / t_csr <= 40

    def test_cpu_beats_mi100_csr(self):
        """Fig. 6: 'It [Skylake dgbsv] outperforms ... our batched
        BiCGStab with BatchCsr format on the MI100 GPU'."""
        nb = 1920
        t_cpu = estimate_cpu_dgbsv(SKYLAKE_NODE, N, KL, KU, nb).total_time_s
        t_mi_csr = estimate_iterative_solve(
            MI100, "csr", N, NNZ, mixed_iterations(nb)
        ).total_time_s
        assert t_cpu < t_mi_csr

    def test_cpu_beats_v100_qr(self):
        nb = 1920
        t_cpu = estimate_cpu_dgbsv(SKYLAKE_NODE, N, KL, KU, nb).total_time_s
        t_qr = estimate_direct_qr(V100, N, KL, KU, nb).total_time_s
        assert t_cpu < t_qr

    def test_nvidia_csr_beats_cpu(self):
        """Fig. 6: 'batched BiCGStab with BatchCsr on NVIDIA GPUs is able
        to outperform dgbsv on Skylake'."""
        nb = 1920
        t_cpu = estimate_cpu_dgbsv(SKYLAKE_NODE, N, KL, KU, nb).total_time_s
        for hw in (V100, A100):
            t = estimate_iterative_solve(
                hw, "csr", N, NNZ, mixed_iterations(nb)
            ).total_time_s
            assert t < t_cpu, hw.name

    def test_all_ell_gpus_beat_cpu_by_4x_to_25x(self):
        """Fig. 9 band: ELL-format GPU solves are several times faster
        than the CPU baseline."""
        nb = 1920
        t_cpu = estimate_cpu_dgbsv(SKYLAKE_NODE, N, KL, KU, nb).total_time_s
        for hw in GPUS:
            t = estimate_iterative_solve(
                hw, "ell", N, NNZ, mixed_iterations(nb), stored_nnz=STORED_ELL
            ).total_time_s
            assert 3.0 < t_cpu / t < 30.0, hw.name

    def test_cpu_scales_with_rounds(self):
        t38 = estimate_cpu_dgbsv(SKYLAKE_NODE, N, KL, KU, 38)
        t76 = estimate_cpu_dgbsv(SKYLAKE_NODE, N, KL, KU, 76)
        assert t76.total_time_s == pytest.approx(2 * t38.total_time_s)
        assert t38.rounds == 1 and t76.rounds == 2


class TestSpmvModel:
    def test_ell_spmv_faster_on_a100(self):
        """Fig. 7: ELL is the superior SpMV format on the A100."""
        for nb in (120, 960, 3840):
            t_csr = estimate_spmv(A100, "csr", N, NNZ, nb).total_time_s
            t_ell = estimate_spmv(
                A100, "ell", N, NNZ, nb, stored_nnz=STORED_ELL
            ).total_time_s
            assert t_ell < t_csr

    def test_spmv_time_increases_with_batch(self):
        t1 = estimate_spmv(A100, "ell", N, NNZ, 240).total_time_s
        t2 = estimate_spmv(A100, "ell", N, NNZ, 2400).total_time_s
        assert t2 > t1

    def test_spmv_much_cheaper_than_solve(self):
        nb = 960
        t_spmv = estimate_spmv(
            A100, "ell", N, NNZ, nb, stored_nnz=STORED_ELL
        ).total_time_s
        t_solve = estimate_iterative_solve(
            A100, "ell", N, NNZ, mixed_iterations(nb), stored_nnz=STORED_ELL
        ).total_time_s
        assert t_solve > 5 * t_spmv
