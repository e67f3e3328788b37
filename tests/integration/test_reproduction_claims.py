"""The paper's qualitative claims, each as one executable assertion.

This module is the machine-checkable half of EXPERIMENTS.md: every claim
the reproduction stands on — one test per claim, named after the paper
artefact it comes from.  Claims about an artefact assert on the data its
:mod:`repro.experiments` generator returns, so what ``python -m repro
reproduce`` writes is what is checked.
"""

import functools

import numpy as np
import pytest

from repro.core import AbsoluteResidual, BatchBicgstab
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import BATCH_SIZES
from repro.experiments.studies import TOLERANCES
from repro.gpu import (
    GPUS,
    MI100,
    SKYLAKE_NODE,
    TABLE1_GPUS,
    V100,
    estimate_cpu_dgbsv,
    estimate_direct_qr,
    estimate_iterative_solve,
)


@functools.cache
def artefact(name):
    """The data of one regenerated artefact (each generator runs once)."""
    return ALL_EXPERIMENTS[name]().data


@pytest.fixture(scope="module")
def xgc_problem(paper_app):
    matrix, f = paper_app.build_matrices()
    solver = BatchBicgstab(
        preconditioner="jacobi", criterion=AbsoluteResidual(1e-10),
        max_iter=500,
    )
    res = solver.solve(matrix, f)
    return paper_app, matrix, f, res


class TestSectionII:
    def test_fig1_cpu_solver_is_the_bottleneck(self):
        data = artefact("fig1")
        s = data["cpu"]
        assert 40 <= s["cpu_percent"] <= 56  # paper: ~48%
        assert 58 <= s["solve_percent_of_cpu"] <= 74  # paper: ~66%
        assert 5 <= s["transfer_percent"] <= 15  # paper: ~9%
        # Moving the solver to the GPU shortens the loop.
        assert data["gpu_total_ms"] < s["total_ms"]

    def test_fig2_spectra(self):
        data = artefact("fig2")
        se, si = data["electron"], data["ion"]
        assert si.real_spread < 3  # ions clustered near 1
        assert se.real_spread > 10 * si.real_spread  # electrons spread
        assert si.real_min > 0.9 and se.real_min > 0.9  # well-conditioned
        # "well-conditioned enough to take good advantage of iterative
        # solvers"
        assert data["condition_number"]["ion"] < 10
        assert data["condition_number"]["electron"] < 1e4

    def test_dense_gpu_lu_loses_to_banded_cpu(self):
        """'using dense solvers on the GPU is not enough to beat the gain
        obtained from exploiting the banded nature of the matrix on the
        CPU' — while the batched sparse solver does beat it."""
        data = artefact("motivation_dense")
        for nb, t_dense, t_cpu, t_sparse in data["rows"]:
            assert t_dense > t_cpu, nb
            assert t_sparse < t_cpu, nb
        # It loses on cost, not on correctness.
        assert data["dense_lu_converged"]
        assert data["dense_lu_residual"] < 1e-9

    def test_blockdiag_alternative_is_worse(self):
        data = artefact("ablation_blockdiag")
        assert (
            data["monolithic_total_iterations"]
            > data["batched_total_iterations"]
        )
        # The assembled system duplicates the shared pattern per block.
        assert (
            data["assembled_index_bytes"]
            == data["num_batch"] * data["shared_index_bytes"]
        )
        # Solving through it is wasteful, not wrong.
        assert data["assembled_converged"]
        np.testing.assert_allclose(
            data["assembled_x"], data["batched_x"], rtol=1e-5, atol=1e-8
        )


class TestSectionIII:
    def test_related_tridiag_thomas_exact_and_leaner(self):
        """On true tridiagonal batches the specialised direct kernel is
        exact in one sweep and needs no index metadata."""
        data = artefact("related_tridiag")
        np.testing.assert_allclose(
            data["thomas_x"], data["x_true"], rtol=1e-8, atol=1e-10
        )
        assert data["thomas_residual"] < 1e-9
        assert data["bicgstab_converged"]
        assert data["thomas_storage_bytes"] < data["csr_storage_bytes"]


class TestSectionIV:
    def test_fig4_pattern(self):
        data = artefact("fig4")
        hist = data["nnz_histogram"]
        assert sum(hist.values()) == 992  # rows
        assert max(hist) == 9  # nonzeros per row
        assert hist[9] == 870  # interior rows
        st = data["storage_bytes"]
        # Fig 3: both sparse formats are orders of magnitude below dense;
        # ELL trades a few percent of padding for the coalesced layout.
        assert st["csr"] < 0.02 * st["dense"]
        assert st["ell"] < 0.02 * st["dense"]
        assert st["ell"] < 1.1 * st["csr"]

    def test_shared_memory_placement_v100(self):
        est = estimate_iterative_solve(
            V100, "ell", 992, 8554, np.full(160, 20), stored_nnz=9 * 992
        )
        assert est.storage.num_shared == 6  # "6 vectors in local shared"
        assert est.storage.num_global == 3  # "remaining 3 in global"

    def test_shared_memory_policy_beats_zero_budget(self):
        """The §IV-D policy point of every GPU beats placing all vectors
        in global memory, and on the V100 it is '6 of 9 vectors'."""
        data = artefact("ablation_shmem")
        assert data["policy"]["V100"][0] == 6
        for hw in GPUS:
            assert data["policy"][hw.name][1] < data["zero_budget"][hw.name], \
                hw.name

    def test_tuner_picks_dia_and_it_wins(self):
        """The tuner upgrades the paper's ELL choice to gather-free DIA on
        every GPU, and the pick beats both formats the paper studies."""
        data = artefact("ablation_tuning")
        for hw in GPUS:
            d, t = data["decisions"][hw.name], data["times"][hw.name]
            assert d.fmt == "dia", hw.name
            assert d.fused_kernel
            assert d.storage.num_shared >= 4  # at least the SpMV vectors
            assert t["dia"] < t["csr"] and t["dia"] < t["ell"], hw.name


class TestSectionV:
    NB = 1920

    def iters(self, res):
        return np.tile(res.iterations, self.NB // res.iterations.size + 1)[: self.NB]

    def test_fig6_direct_qr_uncompetitive(self, xgc_problem):
        *_, res = xgc_problem
        t_qr = estimate_direct_qr(V100, 992, 33, 33, self.NB).total_time_s
        t_it = estimate_iterative_solve(
            V100, "csr", 992, 8554, self.iters(res)
        ).total_time_s
        assert 8 <= t_qr / t_it <= 40  # paper: "10 to 30 times"

    def test_fig6_skylake_beats_mi100_csr_and_v100_qr(self, xgc_problem):
        *_, res = xgc_problem
        t_cpu = estimate_cpu_dgbsv(SKYLAKE_NODE, 992, 33, 33, self.NB).total_time_s
        t_mi = estimate_iterative_solve(
            MI100, "csr", 992, 8554, self.iters(res)
        ).total_time_s
        t_qr = estimate_direct_qr(V100, 992, 33, 33, self.NB).total_time_s
        assert t_cpu < t_mi
        assert t_cpu < t_qr

    def test_fig6_nvidia_beats_skylake_ell_significantly(self, xgc_problem):
        *_, res = xgc_problem
        t_cpu = estimate_cpu_dgbsv(SKYLAKE_NODE, 992, 33, 33, self.NB).total_time_s
        for hw in GPUS:
            t_ell = estimate_iterative_solve(
                hw, "ell", 992, 8554, self.iters(res), stored_nnz=9 * 992
            ).total_time_s
            assert t_ell < t_cpu / 2, hw.name

    def test_fig6_mi100_staircase(self, xgc_problem):
        *_, res = xgc_problem

        def t(nb):
            its = np.tile(res.iterations, nb // res.iterations.size + 1)[:nb]
            return estimate_iterative_solve(
                MI100, "ell", 992, 8554, its, stored_nnz=9 * 992
            ).total_time_s

        assert t(121) > 1.4 * t(119)  # jump crossing 120
        assert t(239) < 1.1 * t(125)  # flat inside the band

    def test_fig6_orderings(self):
        data = artefact("fig6")
        rows = data["series"]
        big = rows[3840]
        assert big["A100-ell"] == min(big.values())
        assert big["Skylake-dgbsv"] < big["MI100-csr"]
        assert big["Skylake-dgbsv"] < big["V100-qr"]
        for hw in TABLE1_GPUS:
            assert big[f"{hw.name}-ell"] < big[f"{hw.name}-csr"]
            assert big[f"{hw.name}-ell"] < big["Skylake-dgbsv"]
        # Per-entry time decreases with batch size (right panel trend).
        for name in ("A100-ell", "V100-ell", "MI100-ell"):
            per_entry = [rows[nb][name] / nb for nb in BATCH_SIZES]
            assert per_entry[-1] < per_entry[0]
        # Each solver's schedule produces its own modelled cost.
        per_solver = data["per_solver"]
        assert len(set(per_solver.values())) == len(per_solver)

    def test_fig7_ell_spmv_beats_csr(self):
        for nb, t_csr, t_ell in artefact("fig7")["series"]:
            assert t_ell < t_csr, nb

    def test_table2_warp_use_ordering(self, xgc_problem):
        *_, res = xgc_problem
        for hw in GPUS:
            u = {}
            for fmt, st in (("csr", None), ("ell", 9 * 992)):
                u[fmt] = estimate_iterative_solve(
                    hw, fmt, 992, 8554, res.iterations, stored_nnz=st
                ).warp_utilization
            assert u["ell"] > u["csr"], hw.name
            assert u["ell"] > 0.9

    def test_table2_profiler_metrics(self):
        by_key = {(m.platform, m.fmt): m for m in artefact("table2")["rows"]}
        # ELL uses warps far better than CSR everywhere and sits in the
        # 94-100 band; MI100 CSR is the worst row.
        for hw in TABLE1_GPUS:
            ell, csr = by_key[(hw.name, "ELL")], by_key[(hw.name, "CSR")]
            assert ell.warp_utilization > csr.warp_utilization
            assert ell.warp_utilization > 90
        csr_use = {hw.name: by_key[(hw.name, "CSR")].warp_utilization
                   for hw in TABLE1_GPUS}
        assert csr_use["MI100"] == min(csr_use.values())
        # A100 cache hierarchy dominates V100's (Table II L2 columns).
        assert by_key[("A100", "ELL")].l2_hit_rate > \
            by_key[("V100", "ELL")].l2_hit_rate
        # rocprof reported no L1 column for MI100.
        assert by_key[("MI100", "CSR")].l1_hit_rate is None

    def test_table3_iteration_decay(self):
        data = artefact("table3")
        e, ion = data["electron"], data["ion"]
        # Paper: e 30,28,20,16,12 / ion 5,4,3,2,2 — shape assertions.
        assert 25 <= e[0] <= 40 and e[-1] < e[0] * 0.6
        assert np.all(np.diff(e) <= 1)  # decaying (allow plateau)
        assert ion[0] <= 8 and ion[-1] <= ion[0]
        assert np.all(e >= ion)
        # Every system passes the paper's 1e-7 density acceptance test.
        assert data["conservation"]["density"] <= 1e-7

    def test_table3_zero_guess_flat(self):
        """Without the warm start the electron counts stay flat across
        the Picard loop: the control behind Table III."""
        e = artefact("table3")["electron_zero_guess"]
        assert float(e.max() - e.min()) <= 6.0

    def test_fig8_warm_start_speedups(self):
        speedups = artefact("fig8")["speedups"]
        # The warm start always wins, on both formats, at every batch size.
        for fmt in ("csr", "ell"):
            assert all(s > 1.1 for _, s in speedups[fmt]), fmt
        # Speedups are O(1-3x): a constant factor, not orders of magnitude.
        assert max(s for _, s in speedups["ell"]) < 3.5

    def test_fig9_gpu_speedups(self):
        combined = artefact("fig9")["combined"]
        # Every GPU beats the CPU baseline by a solid factor at scale
        # (paper band: 4x to ~9x; the model spans ~4-25x, see
        # EXPERIMENTS.md).
        final = {name: series[-1][1] for name, series in combined.items()}
        for hw in TABLE1_GPUS:
            assert final[hw.name] > 3.5, hw.name
        assert final["MI100"] == min(final.values())
        assert final["A100"] == max(final.values())

    def test_fig9_ion_speedup_largest(self):
        """'the speedup for the ion systems is the largest, because they
        need few iterations'."""
        by_species = artefact("fig9")["v100_by_species"]
        s_ion, s_e = dict(by_species["ion"]), dict(by_species["electron"])
        for nb in BATCH_SIZES:
            assert s_ion[nb] > s_e[nb], nb
        assert s_ion[1920] / s_e[1920] > 1.5

    def test_tolerance_1e10_is_the_loosest_safe_setting(self):
        """'Conservation ... to a pre-decided threshold (1e-7) was met with
        a minimum tolerance of 1e-10'."""
        rows = artefact("tolerance_study")["rows"]
        # Tighter tolerance costs more iterations, monotonically.
        totals = [rows[tol]["iterations"] for tol in TOLERANCES]
        assert totals == sorted(totals)
        # 1e-10 reproduces the reference step; 1e-4 visibly does not.
        assert rows[1e-10]["error"] < 1e-8
        assert rows[1e-4]["error"] > 100 * rows[1e-10]["error"]
        # The FV scheme conserves density only as exactly as the linear
        # systems are solved: a loose tolerance leaks density past the
        # 1e-7 threshold, a tight one stays well under.
        assert rows[1e-4]["density_drift"] > 1e-7
        for tol in (1e-10, 1e-12):
            assert rows[tol]["density_drift"] < 1e-7
