"""Conformance tests: declared operation schedules vs executed kernels.

Every batch kernel in the solvers runs masked, never skipped, so the
operation count of a solve is fully determined by its control flow
(:class:`~repro.core.solvers.schedule.OpStats`).  These tests instrument
real solves and assert the measured counts equal the totals the declared
:class:`~repro.core.solvers.schedule.OpSchedule` predicts — exactly, not
approximately — so the GPU model and shared-memory configurator can trust
the declarations.  The golden-parity class pins the refactored solvers to
the seed implementation's bit-exact results on the paper's 992-row
stencil batch.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import BatchCsr, make_solver, to_format
from repro.core.faults import SolverHealth
from repro.core.solvers.schedule import (
    GMRES_RESTART,
    CountingMatrix,
    iterative_solver_names,
    measure_op_counts,
    solver_schedule,
)
from repro.core.stop import AbsoluteResidual

SOLVERS = ("bicgstab", "cg", "cgs", "gmres", "pipelined_bicgstab",
           "pipelined_cg", "richardson")
# Solvers present in the golden file (frozen with the seed implementation;
# the pipelined variants postdate it and are pinned differentially instead).
GOLDEN_SOLVERS = ("bicgstab", "cg", "cgs", "gmres", "richardson")
SPD_ONLY = ("cg", "pipelined_cg")

GOLDEN = Path(__file__).parent.parent / "data" / "golden_solvers_n992.json"


def build_solver(name, tol=1e-10, max_iter=60, **kwargs):
    return make_solver(
        name, preconditioner="jacobi", criterion=AbsoluteResidual(tol),
        max_iter=max_iter, **kwargs,
    )


def make_batch(num_batch=6, n=40, *, seed=20220157, spd=False, stagger=False,
               dominance=1.0):
    """Well-conditioned batch with a shared pattern.

    ``spd`` symmetrises for CG; ``stagger`` makes the second half of the
    batch nearly diagonal so systems converge at very different speeds
    (exercises verify/freeze and compaction paths).  The default
    ``dominance`` makes the batch diagonally dominant; 0.4 weakens the
    diagonal so the hard half needs more than one GMRES restart cycle.
    """
    rng = np.random.default_rng(seed)
    pattern = rng.random((1, n, n)) < 0.15
    vals = rng.standard_normal((num_batch, n, n)) * pattern
    if spd:
        vals = vals + np.swapaxes(vals, 1, 2)
    if stagger:
        vals[num_batch // 2:] *= 0.01
    row_sums = np.abs(vals).sum(axis=2, keepdims=True)
    eye = np.eye(n)[None, :, :]
    vals = vals * (1 - eye) + eye * (dominance * row_sums + 1.0)
    return BatchCsr.from_dense(vals)


def staggered_batch(name):
    """The staggered batch of ``name``'s conformance cases: SPD for the
    SPD-only solvers, and weakly dominant for GMRES so that it crosses
    restart boundaries."""
    return make_batch(
        num_batch=12, stagger=True, spd=(name in SPD_ONLY),
        dominance=0.4 if name == "gmres" else 1.0,
    )


def rhs_for(matrix, *, seed=7):
    rng = np.random.default_rng(seed)
    x_true = rng.standard_normal((matrix.num_batch, matrix.num_rows))
    return matrix.apply(x_true)


def assert_conformant(solver, counts, stats):
    expected = solver.op_schedule().expected_counts(stats)
    measured = counts.as_dict()
    assert measured == pytest.approx(expected, abs=0), (
        f"{solver.name}: measured {measured} != declared {expected} "
        f"(stats {stats})"
    )


class TestRegistry:
    def test_names_cover_the_factory(self):
        assert iterative_solver_names() == SOLVERS

    def test_unknown_solver_raises(self):
        with pytest.raises(ValueError, match="unknown solver"):
            solver_schedule("chebyshev")

    def test_workspace_specs_are_the_schedule_vectors(self):
        """The host solvers allocate exactly the vectors their schedule
        declares (GMRES keeps its basis in one array of its own)."""
        for name in SOLVERS:
            solver = build_solver(name)
            matrix = make_batch(spd=(name in SPD_ONLY))
            solver.solve(matrix, rhs_for(matrix))
            declared = set(solver_schedule(name).workspace_names())
            if name == "gmres":
                declared = {"x", "r", "gmres_work", "gmres_upd"}
            assert set(solver._workspace._vectors) == declared, name

    def test_solver_objects_report_their_schedule(self):
        for name in SOLVERS:
            assert build_solver(name).op_schedule().solver == name
        gm = build_solver("gmres")
        assert gm.op_schedule().cycle_length == GMRES_RESTART
        # GMRES_RESTART + 1 basis vectors, r and x.
        assert len(gm.op_schedule().vectors) == GMRES_RESTART + 3

    def test_schedules_have_positive_touches(self):
        for name in SOLVERS:
            for spec in solver_schedule(name).vectors:
                assert spec.touches > 0.0

    def test_registry_is_memoized(self):
        """Every GPU-model estimate (and so every batch the service bills)
        looks its schedule up; repeated lookups share one instance."""
        for name in iterative_solver_names():
            assert solver_schedule(name) is solver_schedule(name)


class TestSyncAccounting:
    """The pipelined reorganisation's whole point, pinned exactly: per
    steady-state iteration, reduction-round (sync) and dots-only round
    counts of the pipelined variants vs their classic counterparts."""

    def test_pipelined_cg_single_round(self):
        classic = solver_schedule("cg")
        pipelined = solver_schedule("pipelined_cg")
        assert pipelined.dot_rounds == 1.0
        assert classic.dot_rounds == 2.0
        assert pipelined.syncs == 1.0
        # Classic CG: p.Ap round, ||r|| round, r.z round.
        assert classic.syncs == 3.0

    def test_pipelined_bicgstab_two_rounds(self):
        classic = solver_schedule("bicgstab")
        pipelined = solver_schedule("pipelined_bicgstab")
        assert pipelined.syncs == 2.0
        # Classic hot loop after fusing (t.s, t.t): rho, alpha-den, ||s||,
        # omega pair, ||r|| — five rounds (six in the unfused textbook
        # formulation, where the omega dots are separate).
        assert classic.syncs == 5.0
        assert pipelined.syncs < classic.syncs

    def test_syncs_bound_dot_and_norm_rounds(self):
        """Each sync is at least one reduction round; a schedule can never
        declare more dots+norms rounds than syncs, nor fewer rounds than
        the fused accounting implies (dots can share a round, norms and
        bare dots cannot exceed the declared total)."""
        for name in SOLVERS:
            sched = solver_schedule(name)
            assert sched.syncs >= sched.dot_rounds
            assert sched.syncs <= sched.dots + sched.norms
            assert sched.dot_rounds <= sched.dots

    @pytest.mark.parametrize(
        "name,rounds", [("cg", 3.0), ("pipelined_cg", 1.0),
                        ("bicgstab", 5.0), ("pipelined_bicgstab", 2.0)]
    )
    def test_measured_marginal_rounds_per_iteration(self, name, rounds):
        """Measured reduction rounds (a fused_dots call = one round,
        regardless of how many dots it carries): one extra trip costs
        exactly the declared per-iteration sync count.  Trip counts are
        chosen off the pipelined-CG replacement period so the marginal
        trip is a plain one."""
        matrix = make_batch(spd=(name in SPD_ONLY))
        b = rhs_for(matrix)
        c5, s5, _ = measure_op_counts(
            build_solver(name, tol=1e-30, max_iter=5), matrix, b
        )
        c6, s6, _ = measure_op_counts(
            build_solver(name, tol=1e-30, max_iter=6), matrix, b
        )
        assert (s5.trips, s6.trips) == (5, 6)
        assert c6.syncs - c5.syncs == rounds


class TestConformance:
    """Measured kernel invocations equal the declared totals, exactly."""

    @pytest.mark.parametrize("name", SOLVERS)
    def test_fixed_trip_count_exact(self, name):
        """Unreachable tolerance: every solver runs all max_iter trips."""
        matrix = make_batch(spd=(name in SPD_ONLY))
        solver = build_solver(name, tol=1e-30, max_iter=7)
        counts, stats, result = measure_op_counts(solver, matrix, rhs_for(matrix))
        assert stats.trips == 7
        assert not result.converged.any()
        assert_conformant(solver, counts, stats)

    @pytest.mark.parametrize("name", SOLVERS)
    def test_convergent_run_exact(self, name):
        """Early exit, verify-and-freeze, and the skipped tail are all
        predicted by the schedule."""
        matrix = make_batch(spd=(name in SPD_ONLY))
        solver = build_solver(name, tol=1e-10, max_iter=300)
        counts, stats, result = measure_op_counts(solver, matrix, rhs_for(matrix))
        assert result.converged.all()
        assert_conformant(solver, counts, stats)

    @pytest.mark.parametrize("name", SOLVERS)
    def test_staggered_convergence_exact(self, name):
        """Systems freezing at very different iterations (repeated verify
        events) keep the counts exact."""
        matrix = staggered_batch(name)
        solver = build_solver(name, tol=1e-10, max_iter=300, compact_threshold=None)
        counts, stats, result = measure_op_counts(solver, matrix, rhs_for(matrix))
        assert result.converged.all()
        assert result.iterations.min() < result.iterations.max()
        if name == "gmres":
            assert len(stats.cycle_steps) >= 2
        assert_conformant(solver, counts, stats)

    @pytest.mark.parametrize("name", SOLVERS)
    def test_compaction_preserves_counts_and_results(self, name):
        """Active-batch compaction changes kernel *sizes*, never kernel
        *counts* — and stays bit-identical per system."""
        matrix = staggered_batch(name)
        b = rhs_for(matrix)
        plain = build_solver(name, max_iter=300, compact_threshold=None)
        compacting = build_solver(name, max_iter=300, compact_threshold=0.5)
        c0, s0, r0 = measure_op_counts(plain, matrix, b)
        c1, s1, r1 = measure_op_counts(compacting, matrix, b)
        assert compacting.last_compaction_events > 0
        if name == "gmres":
            assert len(s1.cycle_steps) >= 2
        assert c0.as_dict() == c1.as_dict()
        assert np.array_equal(r0.iterations, r1.iterations)
        assert np.array_equal(r0.converged, r1.converged)
        assert np.array_equal(r0.x, r1.x)
        assert np.array_equal(r0.residual_norms, r1.residual_norms)
        assert_conformant(compacting, c1, s1)

    def test_instrumentation_is_transparent(self):
        """measure_op_counts must not perturb the numerics."""
        matrix = make_batch()
        b = rhs_for(matrix)
        solver = build_solver("bicgstab", max_iter=300)
        _, _, instrumented = measure_op_counts(solver, matrix, b)
        bare = build_solver("bicgstab", max_iter=300).solve(matrix, b)
        assert np.array_equal(instrumented.x, bare.x)
        assert np.array_equal(instrumented.iterations, bare.iterations)
        assert np.array_equal(instrumented.residual_norms, bare.residual_norms)


class TestCountingMatrix:
    @pytest.mark.parametrize("fmt", ["csr", "ell", "dia", "dense"])
    def test_take_batch_forwards_values_out(self, fmt):
        """The compactor gathers into its slab through the wrapper: the
        sub-batch lands in ``values_out`` and its SpMVs stay counted."""
        matrix = to_format(make_batch(), fmt)
        counted = CountingMatrix(matrix)
        buf = np.empty((4,) + matrix.values.shape[1:])
        sub = counted.take_batch(np.array([3, 1]), values_out=buf)
        assert np.shares_memory(sub.values, buf)
        x = np.random.default_rng(3).standard_normal((2, matrix.num_cols))
        np.testing.assert_array_equal(
            sub.apply(x), matrix.take_batch(np.array([3, 1])).apply(x)
        )
        assert counted.counts.spmvs == 1


class FalseFlagOnce(AbsoluteResidual):
    """Absolute criterion that fires falsely, once, for one system.

    The first time the victim's checked norm drops below ``loose`` while it
    is still above ``tol``, the victim is reported converged.  The flag
    survives compaction: ``restrict`` remaps the victim's position and the
    one-shot state is shared with every restricted view.
    """

    def __init__(self, tol, victim, loose, state=None):
        super().__init__(tol)
        self.victim = victim
        self.loose = loose
        self.state = state if state is not None else {"fired": 0}

    def check(self, res_norms):
        hit = super().check(res_norms)
        v = self.victim
        if (
            v is not None
            and not self.state["fired"]
            and not hit[v]
            and res_norms[v] < self.loose
        ):
            hit = hit.copy()
            hit[v] = True
            self.state["fired"] += 1
        return hit

    def restrict(self, indices):
        idx = np.asarray(indices)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        pos = np.flatnonzero(idx == self.victim) if self.victim is not None else []
        return FalseFlagOnce(
            self.tol, int(pos[0]) if len(pos) else None, self.loose, self.state
        )


class TestCandidateOnlyVerification:
    """Verify events compute the true residual of the candidates only.  A
    false convergence flag must be caught and restarted, while every other
    system — including a NaN-poisoned bystander — is untouched, and each
    event still costs exactly one SpMV."""

    VICTIM = 1
    BYSTANDER = 4
    VERIFIED = ("bicgstab", "cgs", "pipelined_cg", "pipelined_bicgstab")

    @pytest.mark.parametrize("compact", [None, 0.5])
    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    @pytest.mark.parametrize("name", VERIFIED)
    def test_false_flag_restarts_only_the_victim(self, name, fmt, compact):
        spd = name in SPD_ONLY
        matrix = to_format(make_batch(num_batch=12, stagger=True, spd=spd), fmt)
        b = rhs_for(matrix)
        b_nan = b.copy()
        b_nan[self.BYSTANDER, 3] = np.nan

        def solve(criterion, rhs):
            solver = make_solver(
                name, preconditioner="jacobi", criterion=criterion,
                max_iter=300, compact_threshold=compact,
            )
            counts, stats, result = measure_op_counts(solver, matrix, rhs)
            assert_conformant(solver, counts, stats)
            return stats, result

        flag = FalseFlagOnce(1e-10, self.VICTIM, loose=1e-4)
        s_flag, r_flag = solve(flag, b_nan)
        _, r_plain = solve(AbsoluteResidual(1e-10), b)

        assert flag.state["fired"] == 1
        assert s_flag.restart_events >= 1
        assert r_flag.converged[self.VICTIM]
        assert r_flag.residual_norms[self.VICTIM] < 1e-10

        assert not r_flag.converged[self.BYSTANDER]
        assert r_flag.health[self.BYSTANDER] == SolverHealth.NON_FINITE

        others = np.ones(matrix.num_batch, dtype=bool)
        others[[self.VICTIM, self.BYSTANDER]] = False
        assert r_flag.converged[others].all()
        for field in ("x", "iterations", "residual_norms", "converged"):
            np.testing.assert_array_equal(
                getattr(r_flag, field)[others], getattr(r_plain, field)[others]
            )


class TestGoldenParity:
    """The refactored solvers reproduce the seed implementation bit for bit
    on the paper's n = 992 XGC stencil batch."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN) as fh:
            return json.load(fh)

    @pytest.fixture(scope="class")
    def problem(self, paper_app):
        return paper_app.build_matrices()

    @pytest.mark.parametrize("name", GOLDEN_SOLVERS)
    def test_bit_identical_to_seed(self, name, golden, problem):
        meta = golden["meta"]
        # The pin was taken at the solver constants of today: GMRES cycles
        # of GMRES_RESTART steps and undamped Richardson.
        assert meta["gmres_restart"] == GMRES_RESTART
        assert meta["richardson_relaxation"] == 1.0
        matrix, f = problem
        solver = make_solver(
            name,
            preconditioner=meta["preconditioner"],
            criterion=AbsoluteResidual(meta["tol"]),
            max_iter=meta["max_iter"],
        )
        counts, stats, result = measure_op_counts(solver, matrix, f)
        ref = golden["solvers"][name]
        assert result.iterations.tolist() == ref["iterations"]
        assert result.converged.tolist() == ref["converged"]
        assert [v.hex() for v in result.residual_norms] == (
            ref["residual_norms_hex"]
        )
        assert_conformant(solver, counts, stats)
