"""Differential tests: the batched solvers against scipy/numpy references.

Two families of pins:

* **reference agreement** — every registered iterative solver (and the
  escalation ladder) reproduces ``numpy.linalg.solve`` /
  ``scipy.sparse.linalg.spsolve`` solutions on diagonally dominant and on
  indefinite batches, to the tolerance its criterion promises;
* **blast-radius isolation** — corrupting one system of a batch leaves
  every *other* system's solution bit-identical to the uncorrupted run.
  The whole robustness layer is built on this: health detection, lane
  deactivation and escalation gathers must never perturb healthy lanes;
* **operator batches** — the same two families on the tridiagonal
  operator-zoo systems (:mod:`repro.xgc.operators`): every registered
  solver against scipy on a Dougherty batch, CG on the symmetrised SPD
  form, and fault injection with health attribution on an operator batch.
"""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from repro.core import (
    AbsoluteResidual,
    BatchCsr,
    SolverHealth,
    make_solver,
    to_format,
)
from repro.core.solvers import _SOLVERS
from repro.utils import FaultInjector, FaultSpec

TOL = 1e-10
# Solvers whose convergence theory covers nonsymmetric dominant systems.
GENERAL_SOLVERS = ["bicgstab", "pipelined_bicgstab", "cgs", "gmres",
                   "richardson", "refinement", "escalation"]


def dominant_dense(rng, nb=6, n=28, density=0.25, spd=False):
    pattern = rng.random((1, n, n)) < density
    vals = rng.standard_normal((nb, n, n)) * pattern
    if spd:
        vals = vals + np.swapaxes(vals, 1, 2)
    # The "breakdown" fault rewrites the (0,1)/(1,0) entries, which must
    # exist in the shared pattern — any neighbour-coupled stencil has them.
    vals[:, 0, 1] += 0.5
    vals[:, 1, 0] += 0.5
    i = np.arange(n)
    off = np.abs(vals).sum(axis=2)
    vals[:, i, i] = off + 1.0
    return vals


def contraction_dense(rng, nb=6, n=28, density=0.25):
    """diag = 1, small off-diagonals (row sums < 0.5): every iterative
    solver converges with the *identity* preconditioner, which the
    blast-radius tests need (Jacobi would reject some corruptions — zero
    or NaN diagonals — at generation, before the solver ever runs)."""
    pattern = rng.random((1, n, n)) < density
    vals = rng.standard_normal((nb, n, n)) * pattern
    vals[:, 0, 1] += 0.5
    vals[:, 1, 0] += 0.5
    i = np.arange(n)
    vals[:, i, i] = 0.0
    row_sums = np.abs(vals).sum(axis=2, keepdims=True)
    vals *= 0.4 / np.maximum(row_sums, 1e-30)
    vals[:, i, i] = 1.0
    return vals


def indefinite_dense(rng, nb=5, n=24):
    """Symmetric indefinite batch: dominant magnitudes, alternating-sign
    diagonal — eigenvalues on both sides of zero."""
    vals = dominant_dense(rng, nb=nb, n=n, density=0.2, spd=True)
    i = np.arange(n)
    signs = np.where(i % 2 == 0, 1.0, -1.0)
    vals[:, i, i] *= signs
    return vals


def reference_solutions(dense, b):
    """Per-system scipy spsolve (sparse path) cross-checked against
    numpy.linalg.solve; returns the scipy solutions."""
    out = np.empty_like(b)
    for k in range(dense.shape[0]):
        sp = scipy.sparse.csr_matrix(dense[k])
        out[k] = scipy.sparse.linalg.spsolve(sp, b[k])
        ref = np.linalg.solve(dense[k], b[k])
        np.testing.assert_allclose(out[k], ref, rtol=1e-9, atol=1e-11)
    return out


def build(name):
    kwargs = dict(preconditioner="jacobi", criterion=AbsoluteResidual(TOL),
                  max_iter=4000)
    if name == "refinement":
        kwargs = dict(preconditioner="jacobi", criterion=AbsoluteResidual(TOL))
    if name == "escalation":
        kwargs = dict(preconditioner="jacobi", criterion=AbsoluteResidual(TOL),
                      max_iter=4000)
    return make_solver(name, **kwargs)


class TestAgainstReferences:
    def test_registry_is_covered(self):
        """Every registered solver name appears in one of the suites below
        — a new registration without a differential pin fails here."""
        assert set(_SOLVERS) == set(GENERAL_SOLVERS) | {"cg", "pipelined_cg"}

    @pytest.mark.parametrize("name", GENERAL_SOLVERS)
    @pytest.mark.parametrize("fmt", ["csr", "ell", "dia"])
    def test_dominant_batch_matches_scipy(self, rng, name, fmt):
        dense = dominant_dense(rng)
        b = rng.standard_normal(dense.shape[:2])
        ref = reference_solutions(dense, b)
        m = to_format(BatchCsr.from_dense(dense), fmt)
        res = build(name).solve(m, b)
        assert res.converged.all()
        np.testing.assert_allclose(res.x, ref, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("name", ["cg", "pipelined_cg"])
    def test_cg_spd_batch_matches_scipy(self, rng, name):
        dense = dominant_dense(rng, spd=True)
        b = rng.standard_normal(dense.shape[:2])
        ref = reference_solutions(dense, b)
        res = build(name).solve(BatchCsr.from_dense(dense), b)
        assert res.converged.all()
        np.testing.assert_allclose(res.x, ref, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("name", ["gmres", "escalation"])
    def test_indefinite_batch_matches_scipy(self, rng, name):
        """Indefinite spectra break CG's theory and can stall BiCGSTAB;
        GMRES — and therefore the escalation ladder — still matches the
        direct reference."""
        dense = indefinite_dense(rng)
        b = rng.standard_normal(dense.shape[:2])
        ref = reference_solutions(dense, b)
        res = build(name).solve(BatchCsr.from_dense(dense), b)
        assert res.converged.all()
        np.testing.assert_allclose(res.x, ref, rtol=1e-5, atol=1e-7)

    def test_escalation_indefinite_ladder_attribution(self, rng):
        """On an indefinite batch the escalation result reports *which*
        rung produced each accepted solution (0 = primary BiCGSTAB,
        >0 = rescued up the ladder) — and they sum to the whole batch."""
        dense = indefinite_dense(rng)
        b = rng.standard_normal(dense.shape[:2])
        solver = build("escalation")
        res = solver.solve(BatchCsr.from_dense(dense), b)
        assert res.converged.all()
        report = solver.last_report
        assert report.rescued_by.min() >= 0
        assert (report.rescued_by == 0).sum() + report.num_rescued == dense.shape[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestBlastRadiusIsolation:
    """One corrupted system must not move any healthy system's bits."""

    KINDS = [
        FaultSpec("nan", system=2, rows=(3,)),
        FaultSpec("inf", system=2, rows=(0, 5)),
        FaultSpec("scale_system", system=2, factor=1e-170),
        FaultSpec("breakdown", system=2),
        FaultSpec("drop", system=2),
    ]

    @pytest.mark.parametrize("spec", KINDS, ids=lambda s: s.kind)
    @pytest.mark.parametrize(
        "name", ["bicgstab", "pipelined_bicgstab", "gmres", "cgs", "richardson"]
    )
    def test_healthy_lanes_bit_identical(self, rng, name, spec):
        dense = contraction_dense(rng)
        b = rng.standard_normal(dense.shape[:2])
        m = BatchCsr.from_dense(dense)
        # Identity preconditioner: Jacobi's entry validation would reject
        # some corruptions at generate() before the solver ever runs.
        clean = make_solver(name, preconditioner="identity",
                            criterion=AbsoluteResidual(TOL), max_iter=4000)
        res_clean = clean.solve(m, b)

        inj = FaultInjector([spec])
        dirty = make_solver(name, preconditioner="identity",
                            criterion=AbsoluteResidual(TOL), max_iter=4000)
        res_dirty = dirty.solve(inj.corrupt_matrix(m), inj.corrupt_rhs(b))

        healthy = np.ones(dense.shape[0], dtype=bool)
        healthy[spec.system] = False
        np.testing.assert_array_equal(
            res_dirty.x[healthy], res_clean.x[healthy]
        )
        np.testing.assert_array_equal(
            res_dirty.residual_norms[healthy], res_clean.residual_norms[healthy]
        )
        assert res_dirty.converged[healthy].all()
        assert res_dirty.health is not None
        assert (res_dirty.health[healthy] == SolverHealth.CONVERGED).all()

    def test_escalation_healthy_lanes_bit_identical_to_plain(self, rng):
        """The acceptance property at module scale: escalating a batch
        with one broken system leaves every healthy lane bit-identical to
        the plain, non-escalating solve."""
        dense = contraction_dense(rng)
        b = rng.standard_normal(dense.shape[:2])
        m = BatchCsr.from_dense(dense)
        plain = make_solver("bicgstab", preconditioner="identity",
                            criterion=AbsoluteResidual(TOL), max_iter=4000)
        res_plain = plain.solve(m, b)

        inj = FaultInjector([FaultSpec("breakdown", system=1)])
        esc = make_solver("escalation", preconditioner="identity",
                          criterion=AbsoluteResidual(TOL), max_iter=4000)
        res_esc = esc.solve(inj.corrupt_matrix(m), inj.corrupt_rhs(b))

        healthy = np.ones(dense.shape[0], dtype=bool)
        healthy[1] = False
        np.testing.assert_array_equal(res_esc.x[healthy], res_plain.x[healthy])
        assert res_esc.converged.all()  # the broken system was rescued
        assert esc.last_report.rescued_by[1] > 0


# -- operator-zoo batches ---------------------------------------------------

def operator_batch(seed=3, nb=6, dt=0.05):
    """A Dougherty operator batch (tridiagonal, diagonally dominant
    M-matrices) with its pre-step distributions as right-hand sides."""
    from repro.xgc.operators import (
        ParallelVelocityGrid,
        dougherty_operator,
        grid_maxwellian,
    )

    grid = ParallelVelocityGrid(nv=32, v_max=6.0)
    rng = np.random.default_rng(seed)
    density = 1.0 + 0.3 * rng.random(nb)
    u0 = 0.3 * rng.standard_normal(nb)
    t0 = 1.0 + 0.3 * rng.random(nb)
    f0 = grid_maxwellian(grid, density, u0, t0)
    f0 = f0 * (1.0 + 0.05 * rng.random((nb, grid.nv)))
    return dougherty_operator(grid, f0, nu=1.0, dt=dt), f0


class TestOperatorBatches:
    """The differential pins on the tridiagonal operator-zoo systems."""

    @pytest.mark.parametrize("name", GENERAL_SOLVERS)
    def test_operator_batch_matches_scipy(self, name):
        op, f0 = operator_batch()
        ref = reference_solutions(op.dense(), f0)
        res = build(name).solve(op.matrix("csr"), f0)
        assert res.converged.all()
        np.testing.assert_allclose(res.x, ref, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("name", ["cg", "pipelined_cg"])
    def test_cg_on_symmetrized_operator(self, name):
        """CG's theory needs SPD: the diagonal similarity ``S^-1 M S`` that
        symmetrises the tridiagonal operator qualifies, and the
        back-transformed solution matches scipy."""
        op, f0 = operator_batch()
        dense = op.dense()
        ref = reference_solutions(dense, f0)
        # (S^-1 M S)[i, j] = M[i, j] s_j / s_i is symmetric when
        # (s_{i+1} / s_i)^2 = M[i+1, i] / M[i, i+1]; s peaks at 1, so the
        # absolute criterion on y = x / s is at least as tight as on x.
        lower = np.diagonal(dense, -1, axis1=1, axis2=2)
        upper = np.diagonal(dense, 1, axis1=1, axis2=2)
        scale = np.cumprod(
            np.concatenate([np.ones((len(dense), 1)), np.sqrt(lower / upper)],
                           axis=1),
            axis=1,
        )
        scale /= scale.max(axis=1, keepdims=True)
        sym = dense * scale[:, None, :] / scale[:, :, None]
        sym = 0.5 * (sym + np.swapaxes(sym, 1, 2))  # exact symmetry
        assert np.linalg.eigvalsh(sym).min() > 0
        res = build(name).solve(BatchCsr.from_dense(sym), f0 / scale)
        assert res.converged.all()
        np.testing.assert_allclose(scale * res.x, ref, rtol=1e-6, atol=1e-8)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec("nan", system=2, rows=(3,)),
            FaultSpec("breakdown", system=2),
        ],
        ids=lambda s: s.kind,
    )
    def test_operator_blast_radius_and_health(self, spec):
        """Corrupting one operator system flags that lane's health and
        leaves every other lane bit-identical — the robustness layer is
        reachable from the operator-zoo path, not just random batches."""
        op, f0 = operator_batch()
        m = to_format(op.matrix("dia"), "csr")
        clean = make_solver("bicgstab", preconditioner="identity",
                            criterion=AbsoluteResidual(TOL), max_iter=4000)
        res_clean = clean.solve(m, f0)
        assert res_clean.converged.all()

        inj = FaultInjector([spec])
        dirty = make_solver("bicgstab", preconditioner="identity",
                            criterion=AbsoluteResidual(TOL), max_iter=4000)
        res_dirty = dirty.solve(inj.corrupt_matrix(m), inj.corrupt_rhs(f0))

        healthy = np.ones(op.num_batch, dtype=bool)
        healthy[spec.system] = False
        np.testing.assert_array_equal(res_dirty.x[healthy], res_clean.x[healthy])
        assert res_dirty.health is not None
        assert (res_dirty.health[healthy] == SolverHealth.CONVERGED).all()
        assert res_dirty.health[spec.system] != SolverHealth.CONVERGED
