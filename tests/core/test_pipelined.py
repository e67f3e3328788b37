"""Pins for the pipelined solver pair on the paper's n = 992 stencil.

Three families:

* **stencil differential** — pipelined BiCGSTAB on the real collision
  batch (and pipelined CG on the SPD surrogate) reproduces the scipy
  reference solutions in every matrix format, and agrees with its
  classic counterpart within the tolerance both promise;
* **residual replacement** — the Chronopoulos-Gear recurrences are
  re-anchored to the true residual every ``REPLACEMENT_PERIOD`` trips,
  and the driver records that work (the honest cost the GPU crossover
  model charges);
* **health reachability** — the pipelined variants inherit the shared
  driver's guards: capped budgets report ITERATING, poisoned operands
  report NON_FINITE without iterating, degenerate reductions report
  BREAKDOWN, and the escalation ladder accepts a pipelined primary.
"""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from repro.core import (
    AbsoluteResidual,
    BatchCsr,
    EscalationSolver,
    SolverHealth,
    make_solver,
    to_format,
)
from repro.core.solvers.schedule import REPLACEMENT_PERIOD, measure_op_counts
from repro.experiments.common import paper_app, spd_stencil_batch
from repro.utils import FaultInjector, FaultSpec

TOL = 1e-10
FORMATS = ("csr", "ell", "dia", "dense")


@pytest.fixture(scope="module")
def collision():
    """The n=992 collision batch (4 systems) with scipy reference."""
    matrix, f = paper_app(2).build_matrices()
    csr = to_format(matrix, "csr")
    return csr, f, scipy_reference(csr, f)


@pytest.fixture(scope="module")
def spd():
    """SPD surrogate on the same stencil (CG theory) with reference."""
    csr, f = spd_stencil_batch()
    return csr, f, scipy_reference(csr, f)


def scipy_reference(csr, b):
    dense = np.array(to_format(csr, "dense").values, dtype=np.float64)
    out = np.empty_like(b)
    for k in range(dense.shape[0]):
        out[k] = scipy.sparse.linalg.spsolve(
            scipy.sparse.csr_matrix(dense[k]), b[k]
        )
    return out


def build(name, **kw):
    kw.setdefault("preconditioner", "jacobi")
    kw.setdefault("criterion", AbsoluteResidual(TOL))
    kw.setdefault("max_iter", 500)
    return make_solver(name, **kw)


class TestStencilDifferential:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_pipelined_bicgstab_matches_scipy(self, collision, fmt):
        csr, f, ref = collision
        res = build("pipelined_bicgstab").solve(to_format(csr, fmt), f)
        assert res.converged.all()
        np.testing.assert_allclose(res.x, ref, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_pipelined_cg_matches_scipy(self, spd, fmt):
        csr, f, ref = spd
        res = build("pipelined_cg").solve(to_format(csr, fmt), f)
        assert res.converged.all()
        np.testing.assert_allclose(res.x, ref, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("family,fixture", [
        ("bicgstab", "collision"), ("cg", "spd"),
    ])
    def test_pipelined_matches_classic(self, family, fixture, request):
        """Same stencil, same tolerance: the pipelined variant must land
        on the classic solution and spend a comparable iteration budget
        (the 1.2x acceptance bound of the benchmark gate)."""
        csr, f, _ = request.getfixturevalue(fixture)
        classic = build(family).solve(csr, f)
        pipe = build(f"pipelined_{family}").solve(csr, f)
        assert classic.converged.all() and pipe.converged.all()
        np.testing.assert_allclose(pipe.x, classic.x, rtol=1e-6, atol=1e-8)
        assert (pipe.iterations <= np.ceil(1.2 * classic.iterations)).all()


class TestResidualReplacement:
    def test_cycles_recorded_on_long_solve(self, spd):
        csr, f, _ = spd
        solver = build("pipelined_cg")
        counts, stats, res = measure_op_counts(solver, csr, f)
        assert res.converged.all()
        assert stats.trips > REPLACEMENT_PERIOD  # the pin is meaningful
        assert len(stats.cycle_steps) == stats.trips // REPLACEMENT_PERIOD
        assert all(s == REPLACEMENT_PERIOD for s in stats.cycle_steps)

    def test_no_cycles_on_short_solve(self, spd):
        csr, f, _ = spd
        solver = build("pipelined_cg", max_iter=REPLACEMENT_PERIOD - 1)
        _, stats, res = measure_op_counts(solver, csr, f)
        assert not res.converged.all()
        assert stats.cycle_steps == []
        assert (res.health >= SolverHealth.ITERATING).any()


def spd_small(rng, nb=6, n=24):
    """Small dominant SPD batch (identity preconditioner converges)."""
    pattern = rng.random((1, n, n)) < 0.25
    vals = rng.standard_normal((nb, n, n)) * pattern
    vals = vals + np.swapaxes(vals, 1, 2)
    i = np.arange(n)
    vals[:, i, i] = np.abs(vals).sum(axis=2) + 1.0
    return BatchCsr.from_dense(vals)


def coupled_small(rng, nb=6, n=20):
    """Small dominant nonsymmetric batch for the BiCGSTAB variant."""
    pattern = rng.random((1, n, n)) < 0.25
    vals = rng.standard_normal((nb, n, n)) * pattern
    vals[:, 0, 1] += 0.5
    vals[:, 1, 0] += 0.5
    i = np.arange(n)
    vals[:, i, i] = np.abs(vals).sum(axis=2) + 1.0
    return BatchCsr.from_dense(vals)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestHealthReachability:
    SYS = 2

    def solver(self, name, **kw):
        kw.setdefault("preconditioner", "identity")
        kw.setdefault("criterion", AbsoluteResidual(TOL))
        kw.setdefault("max_iter", 2000)
        return make_solver(name, **kw)

    @pytest.mark.parametrize("name,builder", [
        ("pipelined_bicgstab", coupled_small), ("pipelined_cg", spd_small),
    ])
    def test_iterating_when_capped(self, rng, name, builder):
        m = builder(rng)
        b = rng.standard_normal((m.num_batch, m.num_rows))
        res = self.solver(name, max_iter=2).solve(m, b)
        assert (res.health == SolverHealth.ITERATING).all()
        assert not res.converged.any()

    @pytest.mark.parametrize("name,builder", [
        ("pipelined_bicgstab", coupled_small), ("pipelined_cg", spd_small),
    ])
    def test_non_finite_guess_flagged_at_entry(self, rng, name, builder):
        m = builder(rng)
        b = rng.standard_normal((m.num_batch, m.num_rows))
        inj = FaultInjector([FaultSpec("nan_guess", system=self.SYS,
                                       rows=(0, 1))])
        res = self.solver(name).solve(m, b, x0=inj.corrupt_guess(
            np.zeros_like(b)))
        assert res.health[self.SYS] == SolverHealth.NON_FINITE
        assert res.iterations[self.SYS] == 0
        assert res.converged.sum() == m.num_batch - 1

    @pytest.mark.parametrize("name,builder", [
        ("pipelined_bicgstab", coupled_small), ("pipelined_cg", spd_small),
    ])
    def test_non_finite_matrix_isolated(self, rng, name, builder):
        m = builder(rng)
        b = rng.standard_normal((m.num_batch, m.num_rows))
        inj = FaultInjector([FaultSpec("nan", system=self.SYS, rows=(3,))])
        res = self.solver(name).solve(inj.corrupt_matrix(m), b)
        assert res.health[self.SYS] == SolverHealth.NON_FINITE
        assert not res.converged[self.SYS]
        assert res.converged.sum() == m.num_batch - 1

    def test_pipelined_cg_drop_converged_at_entry(self, rng):
        """`drop` zeroes one system entirely: satisfied by x = 0."""
        m = spd_small(rng)
        b = rng.standard_normal((m.num_batch, m.num_rows))
        inj = FaultInjector([FaultSpec("drop", system=self.SYS)])
        res = self.solver("pipelined_cg").solve(
            inj.corrupt_matrix(m), inj.corrupt_rhs(b))
        assert res.health[self.SYS] == SolverHealth.CONVERGED
        np.testing.assert_array_equal(res.x[self.SYS], 0.0)

    def test_pipelined_cg_gamma_breakdown(self, rng):
        """An indefinite diagonal lane with r = (1, 1, 0, ...) against
        diag = (1, -1, 1, ...): the Jacobi-preconditioned residual carries
        exactly zero descent information (gamma = r . M^-1 r = 0) while
        ||r|| stays finite — the CG breakdown the guard must flag instead
        of dividing by zero."""
        nb, n = 6, 16
        diag = rng.uniform(0.6, 1.4, (nb, n))
        diag[self.SYS] = 1.0
        diag[self.SYS, 1] = -1.0
        m = BatchCsr(n, np.arange(n + 1, dtype=np.int64),
                     np.arange(n, dtype=np.int64), diag)
        b = rng.standard_normal((nb, n))
        b[self.SYS] = 0.0
        b[self.SYS, :2] = 1.0
        res = self.solver("pipelined_cg",
                          preconditioner="jacobi").solve(m, b)
        assert res.health[self.SYS] == SolverHealth.BREAKDOWN_RHO
        assert not res.converged[self.SYS]
        assert res.converged.sum() == nb - 1

    @pytest.mark.parametrize("name,builder", [
        ("pipelined_bicgstab", coupled_small), ("pipelined_cg", spd_small),
    ])
    def test_escalation_accepts_pipelined_primary(self, rng, name, builder):
        """A starved pipelined primary leaves lanes ITERATING; the GMRES
        rung finishes them — the ladder composes with the new solvers."""
        m = builder(rng)
        b = rng.standard_normal((m.num_batch, m.num_rows))
        esc = EscalationSolver(
            self.solver(name, max_iter=2),
            preconditioner="identity", criterion=AbsoluteResidual(TOL),
            max_iter=2000,
        )
        res = esc.solve(m, b)
        assert res.converged.all()
        assert (esc.last_report.rescued_by == 1).all()
