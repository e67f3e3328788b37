"""Cross-product sweep: every iterative solver x preconditioner x format.

The paper's composability argument ("different combinations of
preconditioners, solver, and stopping criteria" via templating) as one
parametrised test: every sensible combination must solve the same batch.
"""

import numpy as np
import pytest

from repro.core import (
    AbsoluteResidual,
    RelativeResidual,
    make_preconditioner,
    make_solver,
    to_format,
)

SOLVERS = ["bicgstab", "cgs", "gmres", "richardson"]
PRECONDITIONERS = ["identity", "jacobi"]
FORMATS = ["csr", "ell", "dense"]


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(77)
    nb, n = 4, 24
    dense = rng.standard_normal((nb, n, n)) * (rng.random((1, n, n)) < 0.25)
    i = np.arange(n)
    dense[:, i, i] = np.abs(dense).sum(axis=2) + 1.0
    from repro.core import BatchCsr

    m = BatchCsr.from_dense(dense)
    x_true = rng.standard_normal((nb, n))
    return m, x_true, m.apply(x_true)


@pytest.mark.parametrize("precond", PRECONDITIONERS)
@pytest.mark.parametrize("solver_name", SOLVERS)
def test_solver_preconditioner_grid(problem, solver_name, precond):
    if solver_name == "richardson" and precond == "identity":
        pytest.skip(
            "unpreconditioned Richardson requires ||I - A|| < 1, which a "
            "strongly diagonally dominant matrix violates by construction"
        )
    m, x_true, b = problem
    s = make_solver(
        solver_name,
        preconditioner=make_preconditioner(precond),
        criterion=AbsoluteResidual(1e-10),
        max_iter=3000,
    )
    res = s.solve(m, b)
    assert res.all_converged, f"{solver_name}+{precond}"
    np.testing.assert_allclose(res.x, x_true, atol=1e-7)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("solver_name", SOLVERS)
def test_solver_format_grid(problem, solver_name, fmt):
    m, x_true, b = problem
    s = make_solver(
        solver_name,
        preconditioner="jacobi",
        criterion=RelativeResidual(1e-11),
        max_iter=3000,
    )
    res = s.solve(to_format(m, fmt), b)
    assert res.all_converged, f"{solver_name}+{fmt}"
    np.testing.assert_allclose(res.x, x_true, atol=1e-7)


@pytest.mark.parametrize("solver_name", SOLVERS)
def test_formats_give_identical_iteration_counts(problem, solver_name):
    """The format changes the layout, not the arithmetic: iteration counts
    must agree exactly between CSR and ELL."""
    m, _, b = problem
    counts = {}
    for fmt in ("csr", "ell"):
        s = make_solver(
            solver_name, preconditioner="jacobi",
            criterion=AbsoluteResidual(1e-10), max_iter=3000,
        )
        counts[fmt] = s.solve(to_format(m, fmt), b).iterations
    np.testing.assert_array_equal(counts["csr"], counts["ell"])
