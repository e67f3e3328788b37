"""Integration: proxy app -> batched solve -> performance model pipeline."""

import numpy as np
import pytest

from repro.core import (
    AbsoluteResidual,
    BatchBandedLu,
    BatchBicgstab,
    to_format,
)
from repro.gpu import (
    A100,
    GPUS,
    TABLE1_GPUS,
    SKYLAKE_NODE,
    estimate_cpu_dgbsv,
    estimate_iterative_solve,
)
from repro.xgc import CollisionProxyApp, PicardOptions, ProxyAppConfig


class TestSolverAgreementOnXgcMatrices:
    """All solution paths agree on the actual collision matrices."""

    @pytest.fixture(scope="class")
    def problem(self, request):
        # The paper's ELL: test_solve_then_model prices its stored slots.
        app = CollisionProxyApp(ProxyAppConfig(
            num_mesh_nodes=2, picard=PicardOptions(matrix_format="ell"),
        ))
        matrix, f = app.build_matrices()
        return app, matrix, f

    def test_iterative_matches_direct(self, problem):
        app, matrix, f = problem
        it = BatchBicgstab(
            preconditioner="jacobi", criterion=AbsoluteResidual(1e-10),
            max_iter=500,
        ).solve(matrix, f)
        direct = BatchBandedLu().solve(to_format(matrix, "csr"), f)
        assert it.all_converged
        np.testing.assert_allclose(it.x, direct.x, rtol=1e-6, atol=1e-9)

    def test_formats_agree(self, problem):
        app, matrix, f = problem
        csr = to_format(matrix, "csr")
        s = BatchBicgstab(
            preconditioner="jacobi", criterion=AbsoluteResidual(1e-10),
            max_iter=500,
        )
        r_ell = s.solve(matrix, f)
        r_csr = s.solve(csr, f)
        assert r_ell.all_converged and r_csr.all_converged
        np.testing.assert_allclose(r_ell.x, r_csr.x, rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(r_ell.iterations, r_csr.iterations)

    def test_solve_then_model(self, problem):
        """The full pipeline the benchmarks run: real iterations feed the
        timing model and produce a finite, ordered estimate."""
        app, matrix, f = problem
        res = BatchBicgstab(
            preconditioner="jacobi", criterion=AbsoluteResidual(1e-10),
            max_iter=500,
        ).solve(matrix, f)
        # Tile the measured counts to a device-saturating batch, as the
        # paper's larger batch sizes do.
        iters = np.tile(res.iterations, 480)
        times = {}
        for hw in GPUS:
            est = estimate_iterative_solve(
                hw, "ell", matrix.num_rows,
                app.stencil.nnz, iters,
                stored_nnz=matrix.max_nnz_row * matrix.num_rows,
            )
            assert est.total_time_s > 0
            times[hw.name] = est.total_time_s
        # A100 leads the paper's Table I trio; the zoo's H100 leads overall.
        assert times["A100"] == min(times[hw.name] for hw in TABLE1_GPUS)
        assert times["H100"] == min(times.values())


class TestPicardWithAllSolverPieces:
    def test_tolerance_ladder_conservation(self):
        """The paper's tolerance study: 1e-10 passes the conservation
        test; a sloppy tolerance degrades the Picard solution."""
        cfg_tight = ProxyAppConfig(num_mesh_nodes=1)
        app = CollisionProxyApp(cfg_tight)
        res = app.run(1)
        assert res.step_results[0].conservation.all_ok

        from repro.xgc import PicardOptions

        cfg_loose = ProxyAppConfig(
            num_mesh_nodes=1,
            picard=PicardOptions(linear_tol=1e-2, conservation_fix=False),
        )
        app_loose = CollisionProxyApp(cfg_loose)
        res_loose = app_loose.run(1)
        # The loose solve produces a visibly different (worse) update.
        diff = np.abs(res.f_final - res_loose.f_final).max()
        assert diff > 1e-8

    def test_warm_start_speedup_band(self):
        """Fig. 8 on the A100: warm starting the Picard linear solves is a
        clear win; the modelled speedup lands in a plausible band around
        the paper's 1.2-1.6x (our Picard contracts faster, see
        EXPERIMENTS.md)."""
        from repro.xgc import PicardOptions

        f0 = None
        total = {}
        for warm in (True, False):
            app = CollisionProxyApp(ProxyAppConfig(
                num_mesh_nodes=2, picard=PicardOptions(warm_start=warm),
            ))
            if f0 is None:
                f0 = app.initial_state()
            res = app.stepper.step(f0, app.config.dt)
            t = 0.0
            for iters in res.linear_iterations:
                t += estimate_iterative_solve(
                    A100, "ell", 992, app.stencil.nnz,
                    np.tile(iters, 60),
                    stored_nnz=9 * 992,
                ).total_time_s
            total[warm] = t
        speedup = total[False] / total[True]
        assert 1.2 <= speedup <= 3.0

    def test_fig9_speedup_band(self):
        """Fig. 9: 5-Picard-loop GPU (ELL, warm) speedups over the Skylake
        dgbsv baseline land between ~4x and ~25x across GPUs."""
        app = CollisionProxyApp(ProxyAppConfig(num_mesh_nodes=2))
        res = app.run(1)
        step = res.step_results[0]
        nb = 960
        cpu = 5 * estimate_cpu_dgbsv(SKYLAKE_NODE, 992, 33, 33, nb).total_time_s
        for hw in GPUS:
            t = 0.0
            for iters in step.linear_iterations:
                t += estimate_iterative_solve(
                    hw, "ell", 992, app.stencil.nnz,
                    np.tile(iters, nb // iters.size + 1)[:nb],
                    stored_nnz=9 * 992,
                ).total_time_s
            assert 3.0 < cpu / t < 40.0, hw.name
