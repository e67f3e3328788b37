"""Tests for the backward-Euler + Picard time stepper."""

import contextlib
import faulthandler
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.faults import SolverHealth
from repro.utils import FaultInjector, FaultSpec
from repro.xgc import (
    DEUTERON,
    ELECTRON,
    PicardOptions,
    PicardStepper,
    maxwellian,
    moments,
    picard,
)


def mixed_masses(nodes=1):
    return np.tile([ELECTRON.mass, DEUTERON.mass], nodes)


def off_equilibrium(grid):
    return 0.7 * maxwellian(grid, 1.0, 0.8, -0.5) + 0.3 * maxwellian(
        grid, 1.0, 2.5, 1.5
    )


class TestPicardStep:
    def test_runs_five_iterations_by_default(self, small_grid, small_stencil):
        stepper = PicardStepper(small_grid, mixed_masses(), stencil=small_stencil)
        f0 = np.tile(off_equilibrium(small_grid), (2, 1))
        res = stepper.step(f0, dt=0.05)
        assert res.linear_iterations.shape == (5, 2)
        assert bool(res.converged.all())

    def test_picard_updates_decay(self, small_grid, small_stencil):
        """The Picard iteration contracts: updates shrink monotonically."""
        stepper = PicardStepper(small_grid, mixed_masses(), stencil=small_stencil)
        f0 = np.tile(off_equilibrium(small_grid), (2, 1))
        res = stepper.step(f0, dt=0.05)
        ups = res.picard_updates
        assert all(ups[i + 1] < ups[i] for i in range(len(ups) - 1))

    def test_warm_start_reduces_iterations(self, small_grid, small_stencil):
        f0 = np.tile(off_equilibrium(small_grid), (2, 1))
        warm = PicardStepper(
            small_grid, mixed_masses(), stencil=small_stencil,
            options=PicardOptions(warm_start=True),
        ).step(f0, dt=0.05)
        cold = PicardStepper(
            small_grid, mixed_masses(), stencil=small_stencil,
            options=PicardOptions(warm_start=False),
        ).step(f0, dt=0.05)
        assert warm.total_linear_iterations.sum() < cold.total_linear_iterations.sum()
        # Same physics either way.
        np.testing.assert_allclose(warm.f_new, cold.f_new, rtol=1e-6, atol=1e-10)

    def test_warm_start_iterations_decay_across_picard(
        self, small_grid, small_stencil
    ):
        """Table III shape: warm-started electron counts fall with the
        Picard index."""
        stepper = PicardStepper(small_grid, mixed_masses(), stencil=small_stencil)
        f0 = np.tile(off_equilibrium(small_grid), (2, 1))
        res = stepper.step(f0, dt=0.05)
        e_iters = res.linear_iterations[:, 0]
        assert e_iters[-1] < e_iters[0]

    def test_electrons_harder_than_ions(self, small_grid, small_stencil):
        stepper = PicardStepper(
            small_grid, mixed_masses(), stencil=small_stencil,
            options=PicardOptions(warm_start=False),
        )
        f0 = np.tile(off_equilibrium(small_grid), (2, 1))
        res = stepper.step(f0, dt=0.05)
        assert res.linear_iterations[0, 0] > 2 * res.linear_iterations[0, 1]

    def test_density_conserved_to_paper_threshold(self, small_grid, small_stencil):
        stepper = PicardStepper(small_grid, mixed_masses(), stencil=small_stencil)
        f0 = np.tile(off_equilibrium(small_grid), (2, 1))
        res = stepper.step(f0, dt=0.05)
        assert res.conservation.all_ok  # density drift < 1e-7
        assert res.conservation.density_drift.max() < 1e-9

    def test_relaxes_toward_maxwellian(self, small_grid, small_stencil):
        """Many steps drive the distribution toward its own Maxwellian
        (temperature anisotropy/kurtosis decays)."""
        stepper = PicardStepper(
            small_grid, np.array([ELECTRON.mass]), stencil=small_stencil
        )
        f = off_equilibrium(small_grid)[None]
        mom0 = moments(small_grid, f)
        f_final, _ = stepper.run(f, dt=0.2, num_steps=25)
        mom = moments(small_grid, f_final)
        target = maxwellian(
            small_grid,
            density=float(mom.density[0]),
            temperature=float(mom.temperature[0]),
            mean_v_par=float(mom.mean_v_par[0]),
        )
        rel = np.linalg.norm(f_final[0] - target) / np.linalg.norm(target)
        rel0 = np.linalg.norm(f[0] - maxwellian(
            small_grid,
            density=float(mom0.density[0]),
            temperature=float(mom0.temperature[0]),
            mean_v_par=float(mom0.mean_v_par[0]),
        )) / np.linalg.norm(target)
        assert rel < 0.2 * rel0

    def test_picard_tol_early_exit(self, small_grid, small_stencil):
        stepper = PicardStepper(
            small_grid, mixed_masses(), stencil=small_stencil,
            options=PicardOptions(num_iterations=10, picard_tol=1e-5),
        )
        f0 = np.tile(off_equilibrium(small_grid), (2, 1))
        res = stepper.step(f0, dt=0.05)
        assert res.linear_iterations.shape[0] < 10

    def test_all_matrix_formats_agree(self, small_grid, small_stencil):
        """CSR, ELL and gather-free DIA run the same Picard step: same
        physics and, system by system, the same linear iteration counts."""
        f0 = np.tile(off_equilibrium(small_grid), (2, 1))
        results = {
            fmt: PicardStepper(
                small_grid, mixed_masses(), stencil=small_stencil,
                options=PicardOptions(matrix_format=fmt),
            ).step(f0, dt=0.05)
            for fmt in ("csr", "ell", "dia")
        }
        ref = results["csr"]
        for fmt in ("ell", "dia"):
            res = results[fmt]
            np.testing.assert_allclose(res.f_new, ref.f_new, rtol=1e-8,
                                       atol=1e-12)
            np.testing.assert_array_equal(
                res.linear_iterations, ref.linear_iterations
            )

    def test_shape_validation(self, small_grid, small_stencil):
        stepper = PicardStepper(small_grid, mixed_masses(), stencil=small_stencil)
        with pytest.raises(ValueError):
            stepper.step(np.zeros((3, small_grid.num_cells)), dt=0.05)
        with pytest.raises(ValueError):
            stepper.step(
                np.zeros((2, small_grid.num_cells)), dt=-0.1
            )

    def test_options_validation(self):
        with pytest.raises(ValueError):
            PicardOptions(num_iterations=0)
        with pytest.raises(ValueError):
            PicardOptions(matrix_format="coo")
        with pytest.raises(ValueError):
            PicardOptions(linear_tol=0.0)

    def test_run_multiple_steps(self, small_grid, small_stencil):
        stepper = PicardStepper(small_grid, mixed_masses(), stencil=small_stencil)
        f0 = np.tile(off_equilibrium(small_grid), (2, 1))
        f_final, results = stepper.run(f0, dt=0.05, num_steps=3)
        assert len(results) == 3
        assert f_final.shape == f0.shape
        # Later steps are closer to equilibrium -> fewer solver iterations.
        assert (
            results[-1].total_linear_iterations.sum()
            <= results[0].total_linear_iterations.sum()
        )


# -- sharded linear solves -----------------------------------------------------


def varied_batch(grid, num_batch):
    """``num_batch`` distinct off-equilibrium states (one per system)."""
    return np.stack([
        0.7 * maxwellian(grid, 1.0, 0.8 + 0.1 * k, -0.5)
        + 0.3 * maxwellian(grid, 1.0, 2.5, 1.5 - 0.2 * k)
        for k in range(num_batch)
    ])


def step_in_child(grid, masses, f0):
    """One Picard step of a fresh stepper: module-level, so a process pool
    can run it.  Returns the step's results and the stepper's shard count."""
    stepper = PicardStepper(grid, masses)
    result = stepper.step(f0, 0.05)
    return result.f_new, result.linear_iterations, result.health, len(stepper._shards)


@contextlib.contextmanager
def hang_guard(seconds=300):
    """Abort the run with every thread's traceback instead of hanging."""
    faulthandler.dump_traceback_later(seconds, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def two_shards(monkeypatch):
    """Two usable cores and one-system SpMV tiles: a batch of six or more
    splits into two shards of at least MIN_SHARD_TILES systems."""
    monkeypatch.setattr(picard, "_usable_cores", lambda: 2)
    monkeypatch.setattr(picard, "batch_tile", lambda num_rows, itemsize: 1)


class TestShardPlan:
    @pytest.mark.parametrize("num_batch, bounds", [
        (16, [(0, 16)]),
        (128, [(0, 128)]),
        (240, [(0, 120), (120, 240)]),
    ])
    def test_two_cores_at_paper_size(self, monkeypatch, num_batch, bounds):
        monkeypatch.setattr(picard, "_usable_cores", lambda: 2)
        assert picard._shard_bounds(num_batch, 992) == bounds

    def test_one_core_is_one_shard(self, monkeypatch):
        monkeypatch.setattr(picard, "_usable_cores", lambda: 1)
        assert picard._shard_bounds(240, 992) == [(0, 240)]


class TestShardedStep:
    NB = 6

    def step(self, grid, stencil, **options):
        stepper = PicardStepper(grid, mixed_masses(self.NB // 2), stencil=stencil,
                                options=PicardOptions(**options))
        return stepper, stepper.step(varied_batch(grid, self.NB), dt=0.05)

    @staticmethod
    def assert_same(a, b):
        np.testing.assert_array_equal(a.f_new, b.f_new)
        np.testing.assert_array_equal(a.linear_iterations, b.linear_iterations)
        np.testing.assert_array_equal(a.converged, b.converged)
        np.testing.assert_array_equal(a.health, b.health)
        assert a.picard_updates == b.picard_updates

    @pytest.mark.parametrize("warm_start", [True, False])
    def test_bit_identical_to_one_shard(
        self, small_grid, small_stencil, monkeypatch, warm_start
    ):
        serial_stepper, serial = self.step(small_grid, small_stencil,
                                           warm_start=warm_start)
        assert len(serial_stepper._shards) == 1
        monkeypatch.setattr(picard, "_usable_cores", lambda: 2)
        monkeypatch.setattr(picard, "batch_tile", lambda num_rows, itemsize: 1)
        sharded_stepper, sharded = self.step(small_grid, small_stencil,
                                             warm_start=warm_start)
        assert [s[:2] for s in sharded_stepper._shards] == [(0, 3), (3, 6)]
        # Iteration counts differ across systems, so the shards did real,
        # uneven work.
        assert len(np.unique(serial.linear_iterations[0])) > 1
        self.assert_same(sharded, serial)

    def test_many_shards_under_frequent_thread_switches(
        self, small_grid, small_stencil, monkeypatch
    ):
        """Four shards on two cores, the interpreter switching threads every
        10 us: a state shared between shards would show as changed bits."""
        nb = 12
        masses, f0 = mixed_masses(nb // 2), varied_batch(small_grid, nb)
        serial = PicardStepper(small_grid, masses, stencil=small_stencil).step(f0, 0.05)
        monkeypatch.setattr(picard, "_usable_cores", lambda: 4)
        monkeypatch.setattr(picard, "batch_tile", lambda num_rows, itemsize: 1)
        monkeypatch.setattr(picard, "_POOL", None)  # a fresh pool of three threads
        stepper = PicardStepper(small_grid, masses, stencil=small_stencil)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with hang_guard():
                sharded = stepper.step(f0, 0.05)
        finally:
            sys.setswitchinterval(interval)
            if picard._POOL is not None:
                picard._POOL.shutdown()
        assert len(stepper._shards) == 4
        self.assert_same(sharded, serial)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fault_in_shard_one_is_isolated_and_rescued(
        self, small_grid, small_stencil, two_shards
    ):
        inj = FaultInjector([FaultSpec("nan_guess", system=4, rows=(0, 1))])
        _, clean = self.step(small_grid, small_stencil, escalation=True)
        _, hurt = self.step(small_grid, small_stencil, escalation=True,
                            fault_injector=inj)
        # Shard 0 (systems 0-2) never sees the fault.
        np.testing.assert_array_equal(hurt.f_new[:3], clean.f_new[:3])
        np.testing.assert_array_equal(hurt.linear_iterations[:, :3],
                                      clean.linear_iterations[:, :3])
        # The poisoned warm start of system 4 is rescued by the ladder.
        assert hurt.converged.all()
        assert (hurt.health == SolverHealth.CONVERGED).all()
        np.testing.assert_allclose(hurt.f_new[4], clean.f_new[4], rtol=1e-6, atol=1e-10)

    @pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
    def test_forked_child_shards_and_matches_parent(self, small_grid, two_shards):
        masses, f0 = mixed_masses(self.NB // 2), varied_batch(small_grid, self.NB)
        # A sharded step here first, so the forked child inherits a live
        # shard pool whose threads did not survive the fork.
        stepper = PicardStepper(small_grid, masses)
        parent = stepper.step(f0, 0.05)
        assert len(stepper._shards) == 2
        # Fork, multiprocessing's default start method on Linux before
        # Python 3.14; a child stuck on the inherited pool would hang the
        # run, so fail instead.
        with hang_guard(), ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            f_new, iterations, health, shards = pool.submit(
                step_in_child, small_grid, masses, f0
            ).result()
        assert shards == 2
        np.testing.assert_array_equal(f_new, parent.f_new)
        np.testing.assert_array_equal(iterations, parent.linear_iterations)
        np.testing.assert_array_equal(health, parent.health)
