"""Tests for the kernel operation-count models."""

import pytest

from repro.core.solvers.schedule import (
    GMRES_RESTART,
    iterative_solver_names,
    solver_schedule,
)
from repro.gpu import (
    banded_lu_work,
    banded_qr_work,
    iteration_work,
    setup_work,
    spmv_work,
    storage_for_solver,
)


class TestSpmvWork:
    def test_flops_two_per_nonzero(self):
        w = spmv_work(100, 900, "csr")
        assert w.flops == 1800

    def test_ell_padding_counts(self):
        w = spmv_work(100, 850, "ell", stored_nnz=900)
        assert w.flops == 1800  # padded entries are computed too
        assert w.matrix_bytes == 900 * 8

    def test_index_bytes_by_format(self):
        csr = spmv_work(100, 900, "csr")
        ell = spmv_work(100, 900, "ell")
        assert csr.index_bytes == (900 + 101) * 4
        assert ell.index_bytes == 900 * 4

    def test_dia_reads_offsets_only(self):
        """DIA's index metadata is one offset per stored diagonal — not one
        column index per stored entry."""
        w = spmv_work(100, 850, "dia", stored_nnz=900)
        assert w.index_bytes == 9 * 4  # 900 stored / 100 rows = 9 diagonals
        assert w.flops == 2 * 900  # fringe padding is computed like ELL's
        assert w.matrix_bytes == 900 * 8

    def test_dia_traffic_lowest_on_stencil(self):
        """On the paper's pattern DIA moves strictly the least bytes."""
        csr = spmv_work(992, 8554, "csr")
        ell = spmv_work(992, 8554, "ell", stored_nnz=8928)
        dia = spmv_work(992, 8554, "dia", stored_nnz=8928)
        assert dia.index_bytes == 9 * 4
        assert dia.total_bytes < ell.total_bytes
        assert dia.total_bytes < csr.total_bytes

    def test_dense_has_no_index_traffic(self):
        w = spmv_work(50, 0, "dense")
        assert w.index_bytes == 0
        assert w.flops == 2 * 50 * 50

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            spmv_work(10, 20, "coo")

    def test_add_and_scale(self):
        a = spmv_work(10, 50, "csr")
        b = a + a
        assert b.flops == 2 * a.flops
        assert b.total_bytes == 2 * a.total_bytes
        c = a.scaled(3.0)
        assert c.matrix_bytes == 3 * a.matrix_bytes


class TestIterationWork:
    def test_two_spmvs_per_bicgstab_iteration(self):
        storage = storage_for_solver("bicgstab", 992, 10**9)  # all shared
        w = iteration_work(solver_schedule("bicgstab"), 992, 8928, "ell", storage)
        spmv = spmv_work(992, 8928, "ell")
        assert w.matrix_bytes == 2 * spmv.matrix_bytes
        assert w.flops > 2 * spmv.flops  # plus the vector ops

    def test_spilled_vectors_cost_traffic(self):
        sched = solver_schedule("bicgstab")
        all_shared = storage_for_solver("bicgstab", 992, 10**9)
        none_shared = storage_for_solver("bicgstab", 992, 0)
        w_fast = iteration_work(sched, 992, 8928, "ell", all_shared)
        w_slow = iteration_work(sched, 992, 8928, "ell", none_shared)
        assert w_fast.vector_bytes == 0
        assert w_slow.vector_bytes > 0
        assert w_slow.flops == w_fast.flops  # traffic differs, not work

    def test_spill_traffic_uses_declared_touches(self):
        """Fully spilled, the traffic is exactly the schedule's touch sum."""
        sched = solver_schedule("bicgstab")
        none_shared = storage_for_solver("bicgstab", 992, 0)
        w = iteration_work(sched, 992, 8928, "ell", none_shared)
        touches = sum(v.touches for v in sched.vectors)
        assert w.vector_bytes == pytest.approx(touches * 992 * 8)

    def test_cg_does_fewer_spmvs_than_bicgstab(self):
        cg = iteration_work(
            solver_schedule("cg"), 992, 8928, "ell",
            storage_for_solver("cg", 992, 10**9),
        )
        bi = iteration_work(
            solver_schedule("bicgstab"), 992, 8928, "ell",
            storage_for_solver("bicgstab", 992, 10**9),
        )
        assert cg.matrix_bytes == bi.matrix_bytes / 2
        assert cg.flops < bi.flops

    def test_gmres_restart_amortises_cycle_work(self):
        """The two cycle-boundary SpMVs (starting and boundary residual)
        are spread over the GMRES_RESTART iterations of a cycle."""
        storage = storage_for_solver("gmres", 992, 10**9)
        w = iteration_work(solver_schedule("gmres"), 992, 8928, "ell", storage)
        spmv = spmv_work(992, 8928, "ell")
        assert w.matrix_bytes == pytest.approx(
            (1.0 + 2.0 / GMRES_RESTART) * spmv.matrix_bytes
        )

    def test_setup_includes_rhs(self):
        w = setup_work(solver_schedule("bicgstab"), 992, 8928, "ell")
        assert w.rhs_bytes == 2 * 992 * 8

    def test_setup_differs_per_solver(self):
        bi = setup_work(solver_schedule("bicgstab"), 992, 8928, "ell")
        cg = setup_work(solver_schedule("cg"), 992, 8928, "ell")
        assert cg.flops > bi.flops  # CG primes z = M^-1 r and rz = r.z

    @pytest.mark.parametrize("name", iterative_solver_names())
    def test_every_apply_billed_as_jacobi(self, name):
        """Each preconditioner apply costs Jacobi's n flops, per iteration
        and in the priming phase."""
        n, nnz = 992, 8928
        sched = solver_schedule(name)
        spmv = spmv_work(n, nnz, "ell")
        w = iteration_work(
            sched, n, nnz, "ell", storage_for_solver(name, n, 10**9)
        )
        vector_ops = (
            sched.amortized("dots") + sched.amortized("norms")
            + sched.amortized("axpys")
        )
        expected = (
            sched.amortized("spmvs") * spmv.flops
            + vector_ops * 2 * n
            + sched.amortized("precond_applies") * n
        )
        assert w.flops == pytest.approx(expected, rel=1e-12)

        setup = setup_work(sched, n, nnz, "ell")
        setup_vector_ops = sched.setup_dots + sched.setup_norms + sched.setup_axpys
        assert setup.flops == pytest.approx(
            sched.setup_spmvs * spmv.flops
            + setup_vector_ops * 2 * n
            + sched.setup_precond_applies * n,
            rel=1e-12,
        )


class TestDirectWork:
    def test_lu_flops_standard_count(self):
        n, kl, ku = 992, 33, 33
        w = banded_lu_work(n, kl, ku)
        assert w.flops == pytest.approx(
            2 * n * kl * (kl + ku + 1) + 2 * n * (2 * kl + ku)
        )

    def test_qr_costs_more_than_lu(self):
        """Givens QR does ~3x the flops of LU on the same band."""
        lu = banded_lu_work(992, 33, 33)
        qr = banded_qr_work(992, 33, 33)
        assert qr.flops > 2 * lu.flops

    def test_work_scales_linearly_in_n(self):
        w1 = banded_lu_work(500, 10, 10)
        w2 = banded_lu_work(1000, 10, 10)
        assert w2.flops == pytest.approx(2 * w1.flops)

    def test_direct_dwarfs_iterative_for_wide_bands(self):
        """The Fig. 6 argument: ~35 BiCGSTAB iterations cost far fewer
        flops than one exact banded factorisation at kl = ku = 33."""
        storage = storage_for_solver("bicgstab", 992, 10**9)
        it = iteration_work(solver_schedule("bicgstab"), 992, 8928, "ell", storage)
        qr = banded_qr_work(992, 33, 33)
        assert qr.flops > 35 * it.flops
