"""Host (NumPy) array-path conformance.

Two contracts:

1. **The fused BLAS-1 primitives match their formulas**: each returns (or
   updates in place) its destination and agrees with the plain broadcast
   statement it replaces.
2. **The fp64 path is bit-identical** to the seed implementation when the
   caller supplies its own ``SolverWorkspace`` — the golden n = 992 pin
   passes through the explicit-workspace entry point too.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.core import (
    fused_update,
    make_solver,
    masked_assign,
    masked_axpy,
    masked_fill,
    pipelined_cg_update,
)
from repro.core.stop import AbsoluteResidual
from repro.core.workspace import SolverWorkspace

GOLDEN = pathlib.Path(__file__).parent.parent / "data" / "golden_solvers_n992.json"


# -- primitive conformance -------------------------------------------------

class TestNumpyPrimitives:
    """Each primitive matches the raw NumPy statement it replaced."""

    def setup_method(self):
        self.rng = np.random.default_rng(20220157)

    def vec(self, shape=(5, 7)):
        return self.rng.standard_normal(shape)

    def test_masked_assign_fill_axpy(self):
        dst, src = self.vec(), self.vec()
        mask = np.array([True, False, True, False, True])
        ref = np.where(mask[:, None], src, dst)
        got = masked_assign(dst.copy(), src, mask)
        assert np.array_equal(got, ref)
        got = masked_fill(dst.copy(), 9.0, mask)
        assert np.array_equal(got, np.where(mask[:, None], 9.0, dst))
        alpha = self.rng.standard_normal(5)
        y = dst.copy()
        got = masked_axpy(y, alpha, src, mask=mask)
        assert got is y
        assert np.array_equal(got, np.where(mask[:, None],
                                            dst + alpha[:, None] * src, dst))

    def test_fused_update_matches_formula(self):
        p, r, v = self.vec(), self.vec(), self.vec()
        beta = self.rng.standard_normal(5)
        omega = self.rng.standard_normal(5)
        ref = r + beta[:, None] * (p - omega[:, None] * v)
        out = p.copy()
        got = fused_update(out, r, beta, omega, v, work=np.empty_like(p))
        assert got is out
        assert np.allclose(got, ref, rtol=0, atol=1e-15)

    def test_pipelined_cg_update_matches_formula(self):
        p, s, u, w, x, r = (self.vec() for _ in range(6))
        alpha = self.rng.standard_normal(5)
        beta = self.rng.standard_normal(5)
        p2 = beta[:, None] * p + u
        s2 = beta[:, None] * s + w
        x2 = x + alpha[:, None] * p2
        r2 = r - alpha[:, None] * s2
        gp, gs, gx, gr = p.copy(), s.copy(), x.copy(), r.copy()
        pipelined_cg_update(gp, gs, u, w, gx, gr, alpha, beta,
                            work=np.empty_like(p))
        for got, ref in ((gp, p2), (gs, s2), (gx, x2), (gr, r2)):
            assert np.allclose(got, ref, rtol=0, atol=1e-14)


# -- fp64 golden parity with a caller-owned workspace ----------------------

class TestGoldenParityExplicitBackend:
    """The golden n=992 pin passes when the caller hands the solver its
    own workspace instead of letting it allocate one."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN) as fh:
            return json.load(fh)

    @pytest.fixture(scope="class")
    def problem(self, paper_app):
        return paper_app.build_matrices()

    @pytest.mark.parametrize("name", ("bicgstab", "gmres"))
    def test_bit_identical(self, name, golden, problem):
        meta = golden["meta"]
        matrix, f = problem
        extra = {"restart": meta["gmres_restart"]} if name == "gmres" else {}
        solver = make_solver(
            name,
            preconditioner=meta["preconditioner"],
            criterion=AbsoluteResidual(meta["tol"]),
            max_iter=meta["max_iter"],
            **extra,
        )
        ws = SolverWorkspace(matrix.num_batch, matrix.num_rows)
        result = solver.solve(matrix, f, workspace=ws)
        ref = golden["solvers"][name]
        assert result.iterations.tolist() == ref["iterations"]
        assert result.converged.tolist() == ref["converged"]
        assert [v.hex() for v in result.residual_norms] == (
            ref["residual_norms_hex"]
        )
