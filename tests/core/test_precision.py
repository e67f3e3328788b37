"""Tests for the precision-policy layer.

Covers the policy resolver, dtype parametricity of the four batch formats
and every conversion, dtype stability through the iterative solvers (no
silent upcast mid-iteration), the mixed policy's fp64 reductions, exact
fp64 bit-identity against the default path, the iterative-refinement
wrapper, and the allocation-reuse plumbing (``take_batch`` scratch and the
compactor's double-buffered slabs).
"""

import numpy as np
import pytest

from repro.core import BatchCsr, BatchDense, BatchEll, to_format
from repro.core.batch_dia import BatchDia
from repro.core.compaction import BatchCompactor
from repro.core.precision import (
    FP32,
    FP64,
    MIXED,
    PrecisionPolicy,
    policy_for_dtype,
    precision_policy,
)
from repro.core.solvers import (
    BatchBicgstab,
    BatchCg,
    BatchCgs,
    BatchGmres,
    BatchRichardson,
    RefinementSolver,
    make_solver,
)
from repro.core.stop import AbsoluteResidual, RelativeResidual
from repro.core.workspace import SolverWorkspace

from ..conftest import make_random_batch


class TestPolicyResolver:
    def test_named_policies(self):
        assert precision_policy("fp64") is FP64
        assert precision_policy("fp32") is FP32
        assert precision_policy("mixed") is MIXED

    def test_policy_passthrough(self):
        assert precision_policy(MIXED) is MIXED

    def test_dtype_like(self):
        assert precision_policy(np.float64) is FP64
        assert precision_policy(np.float32) is FP32
        assert precision_policy(np.dtype("float32")) is FP32

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="precision"):
            precision_policy("fp16")

    def test_policy_for_dtype(self):
        assert policy_for_dtype(np.float64) is FP64
        assert policy_for_dtype(np.float32) is FP32
        with pytest.raises(ValueError):
            policy_for_dtype(np.int32)

    def test_value_bytes(self):
        assert FP64.value_bytes == 8
        assert FP32.value_bytes == 4
        assert MIXED.value_bytes == 4  # storage is what streams

    def test_mixed_accumulates_in_double(self):
        assert MIXED.storage_dtype == np.float32
        assert MIXED.accumulate_dtype == np.float64
        assert not MIXED.is_double and not FP32.is_double and FP64.is_double

    def test_policies_are_frozen(self):
        with pytest.raises(AttributeError):
            FP32.name = "other"
        assert isinstance(FP32, PrecisionPolicy)


#: Every (source, target) pair of distinct built-in formats.
_PAIRS = [
    (src, dst)
    for src in ("csr", "ell", "dia", "dense")
    for dst in ("csr", "ell", "dia", "dense")
    if src != dst
]


class TestFormatDtypes:
    @pytest.fixture
    def f32_csr(self, dense_batch) -> BatchCsr:
        return BatchCsr.from_dense(dense_batch).astype(np.float32)

    def test_constructor_preserves_float32(self, dense_batch):
        for fmt in ("csr", "ell", "dia", "dense"):
            m = to_format(BatchCsr.from_dense(dense_batch), fmt)
            m32 = m.astype(np.float32)
            assert m32.dtype == np.float32
            assert m32.values.dtype == np.float32

    def test_astype_is_identity_when_same_dtype(self, csr_batch):
        assert csr_batch.astype(np.float64) is csr_batch

    def test_astype_shares_pattern_arrays(self, csr_batch):
        m32 = csr_batch.astype(np.float32)
        assert m32.row_ptrs is csr_batch.row_ptrs
        assert m32.col_idxs is csr_batch.col_idxs
        ell = to_format(csr_batch, "ell")
        assert ell.astype(np.float32).col_idxs is ell.col_idxs
        dia = to_format(csr_batch, "dia")
        assert dia.astype(np.float32).offsets is dia.offsets

    def test_integer_input_normalizes_to_float64(self):
        dense = BatchDense(np.arange(8).reshape(2, 2, 2))
        assert dense.dtype == np.float64

    def test_apply_follows_matrix_dtype(self, f32_csr, rng):
        x = rng.standard_normal((f32_csr.num_batch, f32_csr.num_cols)).astype(
            np.float32
        )
        for fmt in ("csr", "ell", "dia", "dense"):
            y = to_format(f32_csr, fmt).apply(x)
            assert y.dtype == np.float32, fmt

    @pytest.mark.parametrize(
        "fmt,target", _PAIRS, ids=[f"{s}_to_{t}-{s}" for s, t in _PAIRS]
    )
    def test_converters_preserve_dtype(self, dense_batch, fmt, target):
        src = to_format(BatchCsr.from_dense(dense_batch), fmt)
        for dtype in (np.float64, np.float32):
            out = to_format(src.astype(dtype), target)
            assert out.dtype == dtype
            np.testing.assert_allclose(
                out.entry_dense(0).astype(np.float64), src.entry_dense(0),
                rtol=1e-6,
            )

    def test_round_trip_float32_exact(self, f32_csr):
        # f32 -> ell -> csr touches no arithmetic, only layout.
        back = to_format(to_format(f32_csr, "ell"), "csr")
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back.values, f32_csr.values)
        # Through DIA the padded fringe widens the pattern but the dense
        # materialisation is still exactly the float32 input.
        dense = to_format(to_format(to_format(f32_csr, "ell"), "dia"), "dense")
        assert dense.dtype == np.float32
        np.testing.assert_array_equal(
            dense.values[0], f32_csr.entry_dense(0)
        )


class TestTakeBatchScratch:
    @pytest.mark.parametrize("fmt", ["csr", "ell", "dia", "dense"])
    def test_values_out_matches_plain_gather(self, csr_batch, fmt):
        m = to_format(csr_batch, fmt)
        sel = np.array([4, 1, 3])
        scratch = np.empty((m.num_batch,) + m.values.shape[1:], dtype=m.dtype)
        sub = m.take_batch(sel, values_out=scratch)
        ref = m.take_batch(sel)
        np.testing.assert_array_equal(sub.values, ref.values)
        assert sub.values.base is scratch  # gathered into the caller's slab

    def test_values_out_accepts_bool_mask(self, csr_batch):
        mask = np.zeros(csr_batch.num_batch, dtype=bool)
        mask[[0, 5]] = True
        scratch = np.empty_like(csr_batch.values)
        sub = csr_batch.take_batch(mask, values_out=scratch)
        np.testing.assert_array_equal(sub.values, csr_batch.take_batch(mask).values)


class TestSolverDtypeStability:
    """No silent upcast: fp32/mixed solves keep fp32 vectors throughout."""

    def _solve(self, dense, solver_cls, precision, **kw):
        spd = solver_cls in (BatchCg,)
        matrix = BatchCsr.from_dense(dense)
        rng = np.random.default_rng(7)
        b = rng.standard_normal((matrix.num_batch, matrix.num_rows))
        solver = solver_cls(
            preconditioner="jacobi",
            criterion=AbsoluteResidual(1e-4),
            precision=precision,
            **kw,
        )
        return solver, solver.solve(matrix, b)

    @pytest.mark.parametrize(
        "solver_cls",
        [BatchBicgstab, BatchCg, BatchCgs, BatchGmres, BatchRichardson],
    )
    @pytest.mark.parametrize("precision", ["fp32", "mixed"])
    def test_solution_stays_float32(self, solver_cls, precision, rng):
        dense = make_random_batch(rng, spd=solver_cls is BatchCg)
        solver, res = self._solve(dense, solver_cls, precision)
        assert res.x.dtype == np.float32
        # The cached workspace allocated fp32 vectors, never fp64.
        ws = solver._workspace
        assert ws.dtype == np.float32
        for arr in ws._vectors.values():
            assert arr.dtype == np.float32

    def test_mixed_keeps_double_scalars(self, rng):
        dense = make_random_batch(rng)
        solver, _ = self._solve(dense, BatchBicgstab, "mixed")
        ws = solver._workspace
        assert ws.scalar_dtype == np.float64
        for arr in ws._scalars.values():
            assert arr.dtype == np.float64

    def test_fp32_scalars_stay_single(self, rng):
        dense = make_random_batch(rng)
        solver, _ = self._solve(dense, BatchBicgstab, "fp32")
        assert solver._workspace.scalar_dtype == np.float32

    def test_fp32_matrix_infers_policy(self, rng):
        dense = make_random_batch(rng)
        matrix = BatchCsr.from_dense(dense).astype(np.float32)
        b = rng.standard_normal((matrix.num_batch, matrix.num_rows))
        solver = BatchBicgstab(
            preconditioner="jacobi", criterion=AbsoluteResidual(1e-4)
        )
        res = solver.solve(matrix, b)
        assert res.x.dtype == np.float32
        assert solver._active_policy.name == "fp32"

    def test_explicit_fp64_policy_matches_default(self, rng):
        dense = make_random_batch(rng)
        matrix = BatchCsr.from_dense(dense)
        b = np.random.default_rng(3).standard_normal(
            (matrix.num_batch, matrix.num_rows)
        )
        default = BatchBicgstab(preconditioner="jacobi").solve(matrix, b)
        explicit = BatchBicgstab(preconditioner="jacobi", precision="fp64").solve(
            matrix, b
        )
        np.testing.assert_array_equal(default.x, explicit.x)
        np.testing.assert_array_equal(default.iterations, explicit.iterations)
        np.testing.assert_array_equal(
            default.residual_norms, explicit.residual_norms
        )

    def test_mixed_converges_tighter_than_fp32(self, rng):
        """fp64 accumulation buys tighter reachable residuals than pure fp32."""
        dense = make_random_batch(rng, n=80)
        matrix = BatchCsr.from_dense(dense)
        b = np.random.default_rng(5).standard_normal(
            (matrix.num_batch, matrix.num_rows)
        )
        tol = 5e-5
        mixed = BatchBicgstab(
            preconditioner="jacobi",
            criterion=AbsoluteResidual(tol),
            precision="mixed",
        ).solve(matrix, b)
        assert mixed.all_converged
        # The reductions really ran in double precision.
        assert mixed.residual_norms.dtype == np.float64

    def test_workspace_dtype_mismatch_rejected(self, rng):
        dense = make_random_batch(rng)
        matrix = BatchCsr.from_dense(dense)
        b = rng.standard_normal((matrix.num_batch, matrix.num_rows))
        ws64 = SolverWorkspace(matrix.num_batch, matrix.num_rows)
        solver = BatchBicgstab(precision="fp32", criterion=AbsoluteResidual(1e-3))
        with pytest.raises(Exception, match="workspace"):
            solver.solve(matrix, b, workspace=ws64)


class TestRefinementSolver:
    def test_recovers_double_accuracy(self, rng):
        dense = make_random_batch(rng)
        matrix = BatchCsr.from_dense(dense)
        b = rng.standard_normal((matrix.num_batch, matrix.num_rows))
        solver = RefinementSolver(preconditioner="jacobi")
        res = solver.solve(matrix, b)
        assert res.all_converged
        assert res.residual_norms.max() < 1e-10  # fp64-level from fp32 sweeps
        assert res.x.dtype == np.float64
        assert solver.last_outer_iterations >= 1

    def test_matches_pure_fp64_solution(self, rng):
        dense = make_random_batch(rng)
        matrix = BatchCsr.from_dense(dense)
        b = rng.standard_normal((matrix.num_batch, matrix.num_rows))
        refined = RefinementSolver(preconditioner="jacobi").solve(matrix, b)
        gold = BatchBicgstab(preconditioner="jacobi").solve(matrix, b)
        np.testing.assert_allclose(refined.x, gold.x, atol=1e-9)

    def test_iterations_accumulate_inner_counts(self, rng):
        dense = make_random_batch(rng)
        matrix = BatchCsr.from_dense(dense)
        b = rng.standard_normal((matrix.num_batch, matrix.num_rows))
        res = RefinementSolver(preconditioner="jacobi").solve(matrix, b)
        assert res.iterations.dtype == np.int64
        assert (res.iterations > 0).all()

    def test_low_matrix_cached_across_same_pattern_solves(self, rng):
        dense = make_random_batch(rng)
        matrix = BatchCsr.from_dense(dense)
        b = rng.standard_normal((matrix.num_batch, matrix.num_rows))
        solver = RefinementSolver(preconditioner="jacobi")
        solver.solve(matrix, b)
        low = solver._low_matrix
        assert low is not None and low.dtype == np.float32
        # Same pattern, refreshed values: the cached copy is reused.
        refreshed = BatchCsr(
            matrix.num_cols,
            matrix.row_ptrs,
            matrix.col_idxs,
            matrix.values * 1.25,
            check=False,
        )
        res = solver.solve(refreshed, b)
        assert solver._low_matrix is low
        assert res.all_converged
        np.testing.assert_allclose(
            low.values, (matrix.values * 1.25).astype(np.float32)
        )

    def test_fp32_inner_policy(self, rng):
        dense = make_random_batch(rng)
        matrix = BatchCsr.from_dense(dense)
        b = rng.standard_normal((matrix.num_batch, matrix.num_rows))
        solver = RefinementSolver(precision="fp32", preconditioner="jacobi")
        assert solver.precision is FP32
        assert solver.solve(matrix, b).all_converged

    def test_custom_inner_solver(self, rng):
        dense = make_random_batch(rng, spd=True)
        matrix = BatchCsr.from_dense(dense)
        b = rng.standard_normal((matrix.num_batch, matrix.num_rows))
        inner = BatchCg(
            preconditioner="jacobi",
            criterion=RelativeResidual(1e-3),
            precision="mixed",
        )
        res = RefinementSolver(inner).solve(matrix, b)
        assert res.all_converged and res.residual_norms.max() < 1e-10

    def test_make_solver_registration(self):
        solver = make_solver("refinement", preconditioner="jacobi")
        assert isinstance(solver, RefinementSolver)
        assert solver.name == "refinement"

    def test_reuses_external_workspace(self, rng):
        dense = make_random_batch(rng)
        matrix = BatchCsr.from_dense(dense)
        b = rng.standard_normal((matrix.num_batch, matrix.num_rows))
        ws = SolverWorkspace(matrix.num_batch, matrix.num_rows)
        solver = RefinementSolver(preconditioner="jacobi")
        res = solver.solve(matrix, b, workspace=ws)
        assert res.all_converged
        assert ws.allocated_vectors >= 2  # x and r live in the arena


class TestCompactorSlabs:
    def _event(self, comp, active, matrix, b, precond, arrays, x_full):
        packed = comp.compact(active, matrix, b, precond, arrays, x_full)
        assert packed is not None
        return packed

    def test_slabs_reused_across_events(self, csr_batch, rng):
        from repro.core.preconditioners import JacobiPreconditioner

        nb, n = csr_batch.num_batch, csr_batch.num_rows
        b = rng.standard_normal((nb, n))
        x_full = np.zeros((nb, n))
        precond = JacobiPreconditioner().generate(csr_batch)
        comp = BatchCompactor(AbsoluteResidual(1e-10), threshold=1.0)

        active = np.ones(nb, dtype=bool)
        active[0] = False
        v = rng.standard_normal((nb, n))
        m1, b1, p1, a1 = self._event(
            comp, active, csr_batch, b, precond, {"x": x_full, "v": v}, x_full
        )
        slab_v1 = a1["v"].base
        assert slab_v1 is not None  # gathered into a preallocated slab

        active2 = np.ones(b1.shape[0], dtype=bool)
        active2[0] = False
        m2, b2, p2, a2 = self._event(comp, active2, m1, b1, p1, a1, x_full)
        # Alternating slab sets: event 3 must land in event 1's buffers.
        active3 = np.ones(b2.shape[0], dtype=bool)
        active3[0] = False
        m3, b3, p3, a3 = self._event(comp, active3, m2, b2, p2, a2, x_full)
        assert a3["v"].base is slab_v1
        assert comp.num_events == 3

    def test_gather_values_unchanged(self, csr_batch, rng):
        """The slab path is bit-identical to plain fancy indexing."""
        from repro.core.preconditioners import JacobiPreconditioner

        nb, n = csr_batch.num_batch, csr_batch.num_rows
        b = rng.standard_normal((nb, n))
        x_full = rng.standard_normal((nb, n))
        v = rng.standard_normal((nb, n))
        s = rng.standard_normal(nb)
        precond = JacobiPreconditioner().generate(csr_batch)
        comp = BatchCompactor(AbsoluteResidual(1e-10), threshold=1.0)
        active = np.array([True, False, True, False, True, False])
        sel = np.flatnonzero(active)
        m1, b1, _, a1 = comp.compact(
            active, csr_batch, b, precond,
            {"x": x_full.copy(), "v": v, "s": s}, x_full,
        )
        np.testing.assert_array_equal(m1.values, csr_batch.values[sel])
        np.testing.assert_array_equal(b1, b[sel])
        np.testing.assert_array_equal(a1["x"], x_full[sel])
        np.testing.assert_array_equal(a1["v"], v[sel])
        np.testing.assert_array_equal(a1["s"], s[sel])
        assert comp.num_events == 1
