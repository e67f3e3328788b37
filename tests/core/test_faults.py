"""Breakdown taxonomy and escalation recovery, one pin per health state.

Each test triggers exactly one :class:`~repro.core.SolverHealth` state with
a deterministic :class:`~repro.utils.FaultInjector` spec, checks the driver
classifies it, and (where the fault is recoverable) proves the escalation
ladder brings the system back under the tolerance while the rest of the
batch stays untouched.  The module closes with the acceptance test on the
paper's 992-row collision stencil and the Picard / dist plumbing.
"""

import numpy as np
import pytest

from repro.core import (
    AbsoluteResidual,
    BatchCsr,
    BatchRichardson,
    EscalationSolver,
    InvalidFormatError,
    SolverHealth,
    derive_health,
    health_counts,
    make_solver,
    summarize_health,
    to_format,
    worst_health,
)
from repro.core.faults import STAGNATION_WINDOW
from repro.utils import FaultInjector, FaultSpec
from repro.xgc.picard import PicardOptions, PicardStepper

TOL = 1e-10
SYS = 2  # the system every spec in this module corrupts


def coupled_batch(rng, nb=6, n=20):
    """Diagonally dominant with guaranteed (0,1)/(1,0) coupling."""
    pattern = rng.random((1, n, n)) < 0.25
    vals = rng.standard_normal((nb, n, n)) * pattern
    vals[:, 0, 1] += 0.5
    vals[:, 1, 0] += 0.5
    i = np.arange(n)
    vals[:, i, i] = np.abs(vals).sum(axis=2) + 1.0
    return BatchCsr.from_dense(vals)


def diagonal_batch(rng, nb=6, n=16):
    """Pure-diagonal batch, entries in (0.6, 1.4): identity-preconditioned
    Richardson contracts on every healthy system (|1 - a| < 1).  The
    corrupted entry is exactly 1.0 so ``scale_diag`` sets it exactly."""
    vals = rng.uniform(0.6, 1.4, (nb, n))
    vals[SYS, 0] = 1.0
    return BatchCsr(
        n, np.arange(n + 1, dtype=np.int64), np.arange(n, dtype=np.int64), vals
    )


def solver(name="bicgstab", **kw):
    kw.setdefault("preconditioner", "identity")
    kw.setdefault("criterion", AbsoluteResidual(TOL))
    kw.setdefault("max_iter", 2000)
    return make_solver(name, **kw)


def assert_rescued(esc, res, matrix, b, system=SYS):
    """The injected system was recovered to tolerance, by a rung > 0."""
    assert res.converged[system]
    assert res.health[system] == SolverHealth.CONVERGED
    assert esc.last_report.rescued_by[system] > 0
    true_res = np.linalg.norm(b[system] - matrix.apply(res.x)[system])
    assert true_res <= 10 * TOL


class TestTaxonomy:
    """The health vocabulary itself."""

    def test_ordering_worst_last(self):
        """Codes are ordered best -> worst so np.maximum aggregates."""
        assert SolverHealth.CONVERGED < SolverHealth.ITERATING
        assert SolverHealth.ITERATING < SolverHealth.STAGNATED
        assert SolverHealth.STAGNATED < SolverHealth.DIVERGED
        assert SolverHealth.DIVERGED < SolverHealth.BREAKDOWN_RHO
        assert SolverHealth.BREAKDOWN_RHO < SolverHealth.BREAKDOWN_OMEGA
        assert SolverHealth.BREAKDOWN_OMEGA < SolverHealth.NON_FINITE

    def test_worst_health_folds(self):
        a = np.array([0, 1, 0], dtype=np.int8)
        b = np.array([0, 0, 6], dtype=np.int8)
        np.testing.assert_array_equal(worst_health(a, b), [0, 1, 6])

    def test_health_counts_and_summary(self):
        h = np.array([0, 0, 4, 6], dtype=np.int8)
        assert health_counts(h) == {"converged": 2, "breakdown_rho": 1,
                                    "non_finite": 1}
        assert "breakdown_rho" in summarize_health(h)

    @pytest.mark.parametrize("shape", [(0,), (257,), (6, 40), (0, 3)])
    def test_health_counts_equal_per_state_count(self, shape):
        """The one-pass histogram equals a per-state count_nonzero tally."""
        h = np.random.default_rng(7).integers(
            0, len(SolverHealth), size=shape
        ).astype(np.int8)
        want = {}
        for state in SolverHealth:
            n = int(np.count_nonzero(h == state))
            if n:
                want[state.name.lower()] = n
        assert health_counts(h) == want
        assert list(health_counts(h)) == list(want)  # best-to-worst order

    def test_derive_health(self):
        conv = np.array([True, False, False])
        norms = np.array([1e-12, 1.0, np.nan])
        np.testing.assert_array_equal(
            derive_health(conv, norms),
            [SolverHealth.CONVERGED, SolverHealth.ITERATING,
             SolverHealth.NON_FINITE],
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestStateReachabilityAndRecovery:
    """One pin per state: the injector reaches it, escalation recovers it."""

    def test_converged_drop(self, rng):
        """`drop` zeroes matrix and rhs: satisfied by x = 0 at entry."""
        m = coupled_batch(rng)
        b = rng.standard_normal((6, 20))
        inj = FaultInjector([FaultSpec("drop", system=SYS)])
        res = solver().solve(inj.corrupt_matrix(m), inj.corrupt_rhs(b))
        assert res.health[SYS] == SolverHealth.CONVERGED
        np.testing.assert_array_equal(res.x[SYS], 0.0)

    def test_iterating_capped_primary_rescued(self, rng):
        """A starved primary (max_iter=2) leaves systems ITERATING; the
        GMRES rung finishes the job."""
        m = coupled_batch(rng)
        b = rng.standard_normal((6, 20))
        res_primary = solver(max_iter=2).solve(m, b)
        assert (res_primary.health == SolverHealth.ITERATING).all()

        esc = EscalationSolver(
            solver(max_iter=2),
            preconditioner="identity", criterion=AbsoluteResidual(TOL),
            max_iter=2000,
        )
        res = esc.solve(m, b)
        assert res.converged.all()
        assert (esc.last_report.rescued_by == 1).all()

    def test_stagnated_scale_diag_rescued(self, rng):
        """Diagonal entry at exactly 2: the Richardson error component
        flips sign forever, the residual norm never improves, and the
        stagnation window (STAGNATION_WINDOW trips) fires.  GMRES solves
        the (trivially nonsingular) system in one cycle."""
        m = diagonal_batch(rng)
        b = rng.standard_normal((6, 16))
        inj = FaultInjector([FaultSpec("scale_diag", system=SYS, rows=(0,),
                                       factor=2.0)])
        mc = inj.corrupt_matrix(m)
        primary = BatchRichardson(
            preconditioner="identity", criterion=AbsoluteResidual(TOL),
            max_iter=300,
        )
        res_p = primary.solve(mc, b)
        assert res_p.health[SYS] == SolverHealth.STAGNATED
        assert health_counts(res_p.health) == {"converged": 5, "stagnated": 1}
        # Halted by the guard, not by the iteration cap.
        assert STAGNATION_WINDOW < res_p.iterations[SYS] < 300

        esc = EscalationSolver(
            BatchRichardson(
                preconditioner="identity", criterion=AbsoluteResidual(TOL),
                max_iter=300,
            ),
            preconditioner="identity", criterion=AbsoluteResidual(TOL),
            max_iter=500,
        )
        res = esc.solve(mc, b)
        assert_rescued(esc, res, mc, b)

    def test_diverged_scale_diag_rescued(self, rng):
        """Diagonal entry at 4: the Richardson error triples every sweep
        and crosses the divergence guard deterministically."""
        m = diagonal_batch(rng)
        b = rng.standard_normal((6, 16))
        inj = FaultInjector([FaultSpec("scale_diag", system=SYS, rows=(0,),
                                       factor=4.0)])
        mc = inj.corrupt_matrix(m)
        primary = BatchRichardson(
            preconditioner="identity", criterion=AbsoluteResidual(TOL),
            max_iter=300,
        )
        res_p = primary.solve(mc, b)
        assert res_p.health[SYS] == SolverHealth.DIVERGED

        esc = EscalationSolver(
            BatchRichardson(
                preconditioner="identity", criterion=AbsoluteResidual(TOL),
                max_iter=300,
            ),
            preconditioner="identity", criterion=AbsoluteResidual(TOL),
            max_iter=500,
        )
        res = esc.solve(mc, b)
        assert_rescued(esc, res, mc, b)

    def test_breakdown_rho_rotation_rescued(self, rng):
        """The rotation block makes BiCGSTAB's alpha denominator exactly
        zero at iteration 0 — serendipitous BiCG breakdown on demand."""
        m = coupled_batch(rng)
        b = rng.standard_normal((6, 20))
        inj = FaultInjector([FaultSpec("breakdown", system=SYS)])
        mc, bc = inj.corrupt_matrix(m), inj.corrupt_rhs(b)
        res_p = solver().solve(mc, bc)
        assert res_p.health[SYS] == SolverHealth.BREAKDOWN_RHO
        assert res_p.iterations[SYS] == 1  # halted during the first trip

        esc = solver("escalation")
        res = esc.solve(mc, bc)
        assert_rescued(esc, res, mc, bc)

    def test_breakdown_omega_underflow_rescued(self, rng):
        """Scaling a whole system by 1e-170 underflows t.t to exact zero
        in the omega update — the omega-family breakdown."""
        m = coupled_batch(rng)
        b = rng.standard_normal((6, 20))
        inj = FaultInjector([FaultSpec("scale_system", system=SYS,
                                       factor=1e-170)])
        mc = inj.corrupt_matrix(m)
        res_p = solver().solve(mc, b)
        assert res_p.health[SYS] == SolverHealth.BREAKDOWN_OMEGA

        esc = solver("escalation")
        res = esc.solve(mc, b)
        assert_rescued(esc, res, mc, b)

    def test_non_finite_guess_rescued(self, rng):
        """A NaN warm start poisons the lane, but the operator is intact:
        the first rung's fresh zero-guess re-solve recovers it."""
        m = coupled_batch(rng)
        b = rng.standard_normal((6, 20))
        x0 = np.zeros_like(b)
        inj = FaultInjector([FaultSpec("nan_guess", system=SYS, rows=(0, 1))])
        x0c = inj.corrupt_guess(x0)
        res_p = solver().solve(m, b, x0=x0c)
        assert res_p.health[SYS] == SolverHealth.NON_FINITE
        assert res_p.iterations[SYS] == 0  # flagged at entry, not iterated

        esc = solver("escalation")
        res = esc.solve(m, b, x0=x0c)
        assert_rescued(esc, res, m, b)

    def test_non_finite_matrix_stays_unrecovered(self, rng):
        """A NaN *operator* is unrecoverable by re-solving; escalation
        must say so truthfully instead of claiming convergence."""
        m = coupled_batch(rng)
        b = rng.standard_normal((6, 20))
        inj = FaultInjector([FaultSpec("nan", system=SYS, rows=(3,))])
        mc = inj.corrupt_matrix(m)
        esc = solver("escalation")
        res = esc.solve(mc, b)
        assert not res.converged[SYS]
        assert res.health[SYS] == SolverHealth.NON_FINITE
        assert esc.last_report.rescued_by[SYS] == -1
        assert esc.last_report.num_unrecovered == 1
        # The rest of the batch still converged normally.
        assert res.converged.sum() == 5

    def test_zero_pivot_rejected_by_jacobi(self, rng):
        """Jacobi cannot precondition a zero diagonal; the contract is a
        loud InvalidFormatError at generation, not silent NaNs."""
        m = coupled_batch(rng)
        inj = FaultInjector([FaultSpec("zero_pivot", system=SYS, rows=(0,))])
        mc = inj.corrupt_matrix(m)
        s = solver(preconditioner="jacobi")
        with pytest.raises(InvalidFormatError):
            s.solve(mc, rng.standard_normal((6, 20)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestEscalationMachinery:
    def test_healthy_batch_no_rung_attempts(self, rng):
        """Zero unhealthy systems: the ladder is never climbed and the
        report says so — the basis of the <=5%% overhead gate."""
        m = coupled_batch(rng)
        b = rng.standard_normal((6, 20))
        esc = solver("escalation")
        res = esc.solve(m, b)
        assert res.converged.all()
        assert esc.last_report.rung_attempts == []
        assert esc.last_report.num_rescued == 0
        assert (esc.last_report.rescued_by == 0).all()

    def test_rung_billing_feeds_gpu_model(self, rng):
        """rung_billing() plugs straight into gpu.kernel.escalation_work
        and yields strictly positive re-solve work."""
        from repro.gpu import escalation_work

        m = coupled_batch(rng)
        b = rng.standard_normal((6, 20))
        inj = FaultInjector([FaultSpec("breakdown", system=SYS)])
        esc = solver("escalation")
        esc.solve(inj.corrupt_matrix(m), inj.corrupt_rhs(b))
        billing = esc.last_report.rung_billing()
        assert billing, "a rescue must be billed"
        nnz = m.values.shape[1]
        work = escalation_work(20, nnz, "csr", billing)
        assert work.flops > 0
        assert work.matrix_bytes > 0
        # An empty ladder bills nothing.
        assert escalation_work(20, nnz, "csr", []).flops == 0.0

    def test_fault_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("typo", system=0)
        with pytest.raises(ValueError):
            FaultSpec("nan", system=-1)
        with pytest.raises(IndexError):
            FaultInjector([FaultSpec("drop", system=99)]).corrupt_rhs(
                np.zeros((2, 4))
            )

    @pytest.mark.parametrize("fmt", ["csr", "ell", "dia", "dense"])
    def test_injection_format_equivalent(self, rng, fmt):
        """The same spec corrupts the same logical entries in every
        storage format."""
        m = coupled_batch(rng)
        spec = FaultSpec("scale_row", system=SYS, rows=(0, 3), factor=7.0)
        ref = to_format(
            FaultInjector([spec]).corrupt_matrix(m), "dense"
        ).values
        got = to_format(
            FaultInjector([spec]).corrupt_matrix(to_format(m, fmt)), "dense"
        ).values
        np.testing.assert_array_equal(got, ref)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestPaperStencilAcceptance:
    """The issue's acceptance bar, on the real 992-row collision matrix."""

    def test_escalation_recovers_faulted_systems_healthy_bit_identical(
        self, paper_grid
    ):
        from repro.xgc.maxwellian import maxwellian

        nb = 4
        stepper = PicardStepper(
            paper_grid, np.ones(nb),
            options=PicardOptions(matrix_format="ell"),
        )
        f = np.stack([
            maxwellian(paper_grid, temperature=1.0 + 0.1 * k) for k in range(nb)
        ])
        matrix = stepper.assemble(f, dt=1e-3)
        b = f.copy()

        inj = FaultInjector([
            FaultSpec("breakdown", system=1),
            FaultSpec("scale_system", system=2, factor=1e-170),
            FaultSpec("nan_guess", system=3, rows=(0, 7)),
        ])
        mc = inj.corrupt_matrix(matrix)
        bc = inj.corrupt_rhs(b)
        x0 = inj.corrupt_guess(np.zeros_like(b))

        plain = solver()
        res_plain = plain.solve(mc, bc, x0=x0)
        faulted = np.array([1, 2, 3])
        assert not res_plain.converged[faulted].any()
        assert res_plain.converged[0]

        esc = solver("escalation")
        res = esc.solve(mc, bc, x0=x0)
        # Every injected breakdown / non-finite system recovered to tol...
        assert res.converged.all()
        true_res = np.linalg.norm(bc - mc.apply(res.x), axis=1)
        assert np.all(true_res[faulted] <= 10 * TOL)
        assert (esc.last_report.rescued_by[faulted] > 0).all()
        # ...and the healthy system is bit-identical to the plain path.
        np.testing.assert_array_equal(res.x[0], res_plain.x[0])
        assert res.residual_norms[0] == res_plain.residual_norms[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestPicardIntegration:
    def test_picard_fault_injection_and_escalation(self, small_grid):
        from repro.xgc.maxwellian import maxwellian

        nb = 3
        f0 = np.stack([
            maxwellian(small_grid, temperature=1.0 + 0.2 * k) for k in range(nb)
        ])
        inj = FaultInjector([FaultSpec("nan_guess", system=1, rows=(0, 1))])

        base = dict(num_iterations=2)
        plain = PicardStepper(small_grid, np.ones(nb),
                              options=PicardOptions(**base))
        res_plain = plain.step(f0, 1e-3)
        assert (res_plain.health == SolverHealth.CONVERGED).all()

        hurt = PicardStepper(small_grid, np.ones(nb),
                             options=PicardOptions(**base, fault_injector=inj))
        res_hurt = hurt.step(f0, 1e-3)
        assert res_hurt.health[1] == SolverHealth.NON_FINITE
        assert not res_hurt.converged[1]

        saved = PicardStepper(
            small_grid, np.ones(nb),
            options=PicardOptions(**base, fault_injector=inj, escalation=True),
        )
        res_saved = saved.step(f0, 1e-3)
        assert res_saved.converged.all()
        assert (res_saved.health == SolverHealth.CONVERGED).all()

    def test_picard_escalation_off_bit_identical(self, small_grid):
        """Escalation around a healthy Picard run changes no bits."""
        from repro.xgc.maxwellian import maxwellian

        nb = 2
        f0 = np.stack([
            maxwellian(small_grid, temperature=1.0 + 0.3 * k) for k in range(nb)
        ])
        r0 = PicardStepper(small_grid, np.ones(nb),
                           options=PicardOptions(num_iterations=2)).step(f0, 1e-3)
        r1 = PicardStepper(
            small_grid, np.ones(nb),
            options=PicardOptions(num_iterations=2, escalation=True),
        ).step(f0, 1e-3)
        np.testing.assert_array_equal(r0.f_new, r1.f_new)
        np.testing.assert_array_equal(
            r0.linear_iterations, r1.linear_iterations
        )
