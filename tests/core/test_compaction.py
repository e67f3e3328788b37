"""Tests for active-batch compaction: bit-identical numerics + zero-alloc.

The contract under test is the strong one the solvers advertise: per-system
iteration counts, residual norms and solutions are **bit-identical** with
compaction on or off, for every iterative solver, because gathering systems
changes which rows exist — never what any row computes.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    AbsoluteResidual,
    BatchBicgstab,
    BatchCg,
    BatchCgs,
    BatchCompactor,
    BatchCsr,
    BatchGmres,
    BatchPreconditioner,
    BatchRichardson,
    RelativeResidual,
    SolverWorkspace,
    StoppingCriterion,
    to_format,
)
from repro.core.compaction import COMPACT_MIN_BATCH

NB, N, NUM_HARD = 12, 40, 4


def make_batch(rng, *, spd=False, dominance=1.0):
    """Random batch (shared pattern, per-system values), diagonally
    dominant at the default ``dominance``; 0.4 makes GMRES need more than
    one restart cycle."""
    pattern = rng.random((1, N, N)) < 0.15
    vals = rng.standard_normal((NB, N, N)) * pattern
    if spd:
        vals = vals + np.swapaxes(vals, 1, 2)
    row_sums = np.abs(vals).sum(axis=2, keepdims=True)
    eye = np.eye(N)[None, :, :]
    return vals * (1 - eye) + eye * (dominance * row_sums + 1.0)


def late_picard_problem(rng, **batch):
    """A batch where most systems start converged (warm-start regime).

    The first ``NUM_HARD`` systems start from zero; the rest get the exact
    solution as initial guess, so the active fraction is 1/3 from iteration
    zero and compaction triggers immediately.
    """
    m = BatchCsr.from_dense(make_batch(rng, **batch))
    x_true = rng.standard_normal((NB, N))
    b = m.apply(x_true)
    x0 = x_true.copy()
    x0[:NUM_HARD] = 0.0
    return m, b, x0


#: name -> (class, solver kwargs, make_batch kwargs).  GMRES compacts only
#: at restart boundaries, so its batch needs more than one cycle.
SOLVERS = {
    "bicgstab": (BatchBicgstab, {}, {}),
    "cg": (BatchCg, {}, {"spd": True}),
    "cgs": (BatchCgs, {}, {}),
    "gmres": (BatchGmres, {}, {"dominance": 0.4}),
    "richardson": (BatchRichardson, {"max_iter": 2000}, {}),
}


def assert_gmres_cycles(name, solver):
    """The GMRES cases must reach a restart boundary to test anything."""
    if name == "gmres":
        assert len(solver.last_op_stats.cycle_steps) >= 2


def solve_pair(cls, extra, m, b, x0, **kw):
    """The same solve with compaction off and on; returns both results."""
    base = dict(
        preconditioner="jacobi", criterion=AbsoluteResidual(1e-10), max_iter=500
    )
    base.update(extra)
    base.update(kw)
    off = cls(compact_threshold=None, **base).solve(m, b, x0=x0)
    on_solver = cls(compact_threshold=0.5, **base)
    on = on_solver.solve(m, b, x0=x0)
    return off, on, on_solver


def assert_bit_identical(off, on):
    np.testing.assert_array_equal(off.iterations, on.iterations)
    np.testing.assert_array_equal(off.residual_norms, on.residual_norms)
    np.testing.assert_array_equal(off.x, on.x)
    np.testing.assert_array_equal(off.converged, on.converged)


class TestBitIdenticalAcrossSolvers:
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    @pytest.mark.parametrize("fmt", ["csr", "ell", "dense"])
    def test_warm_start_regime(self, rng, name, fmt):
        cls, extra, batch = SOLVERS[name]
        m, b, x0 = late_picard_problem(rng, **batch)
        m = to_format(m, fmt)
        off, on, solver = solve_pair(cls, extra, m, b, x0)
        assert off.all_converged
        assert solver.last_compaction_events >= 1
        assert_gmres_cycles(name, solver)
        assert_bit_identical(off, on)

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_cold_start_staggered_convergence(self, rng, name):
        """No warm start: systems converge at different iterations, so the
        batch compacts (possibly repeatedly) mid-solve."""
        cls, extra, batch = SOLVERS[name]
        m = BatchCsr.from_dense(make_batch(rng, **batch))
        b = rng.standard_normal((NB, N))
        off, on, solver = solve_pair(cls, extra, m, b, None)
        assert off.all_converged
        assert_gmres_cycles(name, solver)
        assert_bit_identical(off, on)

    def test_repeated_compaction_events(self, rng):
        """Staggered warm starts force more than one gather."""
        m, b, x0 = late_picard_problem(rng)
        # Warm systems stay converged; hard systems converge one after the
        # other, re-triggering the threshold as the active set halves.
        off, on, solver = solve_pair(BatchBicgstab, {}, m, b, x0)
        assert solver.last_compaction_events >= 1
        assert_bit_identical(off, on)

    @pytest.mark.parametrize("precond", ["identity"])
    def test_restrictable_preconditioners(self, rng, precond):
        m, b, x0 = late_picard_problem(rng)
        off, on, solver = solve_pair(
            BatchBicgstab, {}, m, b, x0, preconditioner=precond
        )
        assert off.all_converged
        assert solver.last_compaction_events >= 1
        assert_bit_identical(off, on)

    def test_relative_criterion(self, rng):
        m, b, x0 = late_picard_problem(rng)
        # Relative thresholds are frozen at iteration 0 and must travel
        # with the gathered systems.
        off, on, solver = solve_pair(
            BatchBicgstab, {}, m, b, None, criterion=RelativeResidual(1e-9)
        )
        assert off.all_converged
        assert_bit_identical(off, on)


class TestGracefulDegradation:
    def test_unrestrictable_criterion_disables_compaction(self, rng):
        class Opaque(StoppingCriterion):
            # No restrict() override: the base class returns None.
            def check(self, res_norms):
                return res_norms < 1e-10

        m, b, x0 = late_picard_problem(rng)
        solver = BatchBicgstab(
            preconditioner="jacobi", criterion=Opaque(), compact_threshold=0.5
        )
        res = solver.solve(m, b, x0=x0)
        assert res.all_converged
        assert solver.last_compaction_events == 0

        reference = BatchBicgstab(
            preconditioner="jacobi", criterion=Opaque(), compact_threshold=None
        ).solve(m, b, x0=x0)
        assert_bit_identical(reference, res)

    def test_unrestrictable_preconditioner_disables_compaction(self, rng):
        class Opaque(BatchPreconditioner):
            # No restrict() override: the base class returns None.
            def generate(self, matrix):
                self._inv_diag = 1.0 / matrix.diagonal()
                return self

            def apply(self, r, out=None):
                return np.multiply(r, self._inv_diag, out=out)

        m, b, x0 = late_picard_problem(rng)
        solver = BatchBicgstab(preconditioner=Opaque(), compact_threshold=0.5)
        res = solver.solve(m, b, x0=x0)
        assert res.all_converged
        assert solver.last_compaction_events == 0

        reference = BatchBicgstab(
            preconditioner=Opaque(), compact_threshold=None
        ).solve(m, b, x0=x0)
        assert_bit_identical(reference, res)

    def test_format_without_take_batch(self, rng):
        """Formats lacking take_batch() run uncompacted, not broken."""

        class NoGather:
            """Minimal batch-matrix facade hiding take_batch()."""

            def __init__(self, inner):
                self._inner = inner

            @property
            def shape(self):
                return self._inner.shape

            def apply(self, v, out=None):
                return self._inner.apply(v, out=out)

        m, b, x0 = late_picard_problem(rng)
        wrapped = NoGather(m)
        assert not hasattr(wrapped, "take_batch")
        solver = BatchBicgstab(preconditioner="identity", compact_threshold=0.5)
        res = solver.solve(wrapped, b, x0=x0)
        assert res.all_converged
        assert solver.last_compaction_events == 0


class TestCompactorUnit:
    def test_should_compact_threshold(self):
        comp = BatchCompactor(AbsoluteResidual(1e-10), threshold=0.5)
        active = np.zeros(10, dtype=bool)
        active[:5] = True
        assert comp.should_compact(active)
        active[:6] = True
        assert not comp.should_compact(active)

    def test_no_compaction_below_min_batch(self):
        comp = BatchCompactor(AbsoluteResidual(1e-10), threshold=0.5)
        active = np.zeros(COMPACT_MIN_BATCH, dtype=bool)
        active[0] = True
        assert not comp.should_compact(active)
        # One system more and the same single straggler is gathered.
        assert comp.should_compact(np.append(active, False))

    def test_none_threshold_disables(self):
        comp = BatchCompactor(AbsoluteResidual(1e-10), threshold=None)
        active = np.array([True] + [False] * 9)
        assert not comp.should_compact(active)

    def test_all_converged_never_compacts(self):
        comp = BatchCompactor(AbsoluteResidual(1e-10), threshold=0.5)
        assert not comp.should_compact(np.zeros(10, dtype=bool))

    def test_global_indices_chain_across_events(self, rng):
        m, b, _ = late_picard_problem(rng)
        comp = BatchCompactor(AbsoluteResidual(1e-10), threshold=1.0)
        x_full = rng.standard_normal((NB, N))
        x = x_full
        active = np.ones(NB, dtype=bool)
        active[[0, 5, 11]] = False
        precond = BatchBicgstab(preconditioner="jacobi").preconditioner.generate(m)
        m2, b2, _, arrays = comp.compact(active, m, b, precond, {"x": x}, x_full)
        x2 = arrays["x"]
        np.testing.assert_array_equal(comp.indices, np.flatnonzero(active))
        assert m2.num_batch == b2.shape[0] == x2.shape[0] == NB - 3
        # Second-level compaction: indices compose to global ids.
        sub_active = np.zeros(NB - 3, dtype=bool)
        sub_active[[0, 2]] = True
        expected_global = comp.indices[[0, 2]]
        comp.compact(sub_active, m2, b2, precond, {"x": x2}, x_full)
        np.testing.assert_array_equal(comp.indices, expected_global)
        np.testing.assert_array_equal(b2[sub_active], b[expected_global])
        assert comp.num_events == 2


class TestTakeBatch:
    @pytest.mark.parametrize("fmt", ["csr", "ell", "dense"])
    def test_gathered_apply_matches_slices(self, rng, csr_batch, fmt):
        m = to_format(csr_batch, fmt)
        idx = np.array([4, 1, 3])
        sub = m.take_batch(idx)
        v = rng.standard_normal((csr_batch.num_batch, csr_batch.num_rows))
        np.testing.assert_array_equal(sub.apply(v[idx]), m.apply(v)[idx])

    def test_take_batch_copies_values(self, csr_batch):
        sub = csr_batch.take_batch(np.array([0, 1]))
        sub.values[...] = 0.0
        assert not np.any(csr_batch.values[:2] == 0.0)

    def test_values_out_is_a_view_of_out(self, csr_batch):
        """The compactor's slab gather: ``values_out`` receives the
        selected systems in place, and a boolean mask selects the same
        systems as the equivalent index array."""
        idx = np.array([4, 1, 3])
        mask = np.zeros(csr_batch.num_batch, dtype=bool)
        mask[idx] = True
        for fmt in ("csr", "ell", "dia", "dense"):
            m = to_format(csr_batch, fmt)
            out = np.empty_like(m.values)
            sub = m.take_batch(idx, values_out=out)
            assert sub.values.base is out
            np.testing.assert_array_equal(sub.values, m.values[idx])
            by_mask = m.take_batch(mask, values_out=np.empty_like(m.values))
            np.testing.assert_array_equal(by_mask.values, m.values[mask])


class TestWorkspaceZeroAlloc:
    def test_no_workspace_allocations_after_first_solve(self, rng):
        """The arena never grows once every named vector exists."""
        m, b, x0 = late_picard_problem(rng)
        ws = SolverWorkspace(NB, N)
        solver = BatchBicgstab(
            preconditioner="jacobi", compact_threshold=None
        )
        solver.solve(m, b, x0=x0, workspace=ws)
        vectors_after_first = ws.allocated_vectors
        bytes_after_first = ws.allocated_bytes()

        tracemalloc.start()
        solver.solve(m, b, x0=x0, workspace=ws)
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()

        assert ws.allocated_vectors == vectors_after_first
        assert ws.allocated_bytes() == bytes_after_first
        ws_allocs = snapshot.filter_traces(
            [tracemalloc.Filter(True, "*workspace.py")]
        ).statistics("lineno")
        assert sum(s.size for s in ws_allocs) == 0

    def test_compaction_slabs_reused_across_solves(self, rng):
        """A compacting solve gathers into the arena's slabs from the
        previous solve instead of allocating new ones."""
        m, b, x0 = late_picard_problem(rng)
        ws = SolverWorkspace(NB, N)
        solver = BatchBicgstab(preconditioner="jacobi")
        first = solver.solve(m, b, x0=x0, workspace=ws)
        assert solver.last_compaction_events > 0
        slabs = [dict(store) for store in ws.compaction_slabs]
        assert slabs[0]
        bytes_after_first = ws.allocated_bytes()

        second = solver.solve(m, b, x0=x0, workspace=ws)
        assert solver.last_compaction_events > 0
        for before, after in zip(slabs, ws.compaction_slabs):
            assert after.keys() == before.keys()
            assert all(after[k] is before[k] for k in before)
        assert ws.allocated_bytes() == bytes_after_first
        np.testing.assert_array_equal(second.x, first.x)
        np.testing.assert_array_equal(second.iterations, first.iterations)

    def test_shared_workspace_across_solvers(self, rng):
        """One arena serves different solver types on the same batch shape."""
        m, b, x0 = late_picard_problem(rng)
        ws = SolverWorkspace(NB, N)
        r1 = BatchBicgstab(preconditioner="jacobi").solve(
            m, b, x0=x0, workspace=ws
        )
        r2 = BatchCgs(preconditioner="jacobi").solve(m, b, x0=x0, workspace=ws)
        assert r1.all_converged and r2.all_converged

    def test_workspace_shape_mismatch_raises(self, rng):
        from repro.core import DimensionMismatch

        m, b, x0 = late_picard_problem(rng)
        with pytest.raises(DimensionMismatch):
            BatchBicgstab().solve(m, b, workspace=SolverWorkspace(NB + 1, N))
