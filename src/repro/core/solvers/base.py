"""Common machinery for the batched iterative solvers.

Every iterative solver in this package follows the paper's fused-kernel
design translated to NumPy:

* the whole solve — all components, all iterations — runs inside one Python
  call (one "kernel launch"),
* every system in the batch is monitored **individually**: a per-system
  ``active`` mask freezes converged systems so they stop updating (and stop
  being perturbed — the paper notes that over-iterating converged systems
  can diverge them),
* per-system scalars are guarded with :func:`safe_divide` so frozen or
  degenerate systems never produce NaNs that would poison the batch,
* preconditioner, stopping criterion, and logger are pluggable components,
  mirroring the C++ template parameters of the CUDA kernel.
"""

from __future__ import annotations

import numpy as np

from ...utils.validation import as_value_array, check_positive
from ..batch_dense import batch_norm2
from ..compaction import BatchCompactor
from ..faults import HEALTH_DTYPE, HealthOptions, SolverHealth
from ..logging_ import BatchLogger
from ..precision import FP64, PrecisionPolicy, policy_for_dtype, precision_policy
from ..preconditioners import (
    BatchPreconditioner,
    IdentityPreconditioner,
    make_preconditioner,
)
from ..spmv import residual
from ..stop import AbsoluteResidual, StoppingCriterion
from ..types import DTYPE, BatchShape, DimensionMismatch, SolveResult
from ..workspace import SolverWorkspace
from .schedule import OpSchedule, OpStats, solver_schedule

__all__ = [
    "BatchedIterativeSolver",
    "IterationDriver",
    "SolveState",
    "STOP",
    "safe_divide",
]

#: Sentinel a loop body returns to stop iterating mid-trip (every system
#: froze before the iteration tail — the driver records the skipped tail).
STOP = object()


def safe_divide(
    num: np.ndarray, den: np.ndarray, active: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-system division that returns 0 where inactive or singular.

    ``num / den`` is evaluated only for systems that are still active *and*
    have a finite non-zero denominator; everywhere else the result is 0,
    which turns the subsequent vector updates into no-ops for frozen
    systems.  The finiteness guard matters: ``NaN != 0.0`` is True, so
    without it a NaN denominator (e.g. from an Inf-poisoned SpMV) would
    slip past the zero check and silently propagate NaN into every
    downstream update of that system.
    """
    ok = active & (den != 0.0) & np.isfinite(den)
    if out is None:
        out = np.zeros_like(num)
    else:
        out[...] = 0.0
    np.divide(num, den, out=out, where=ok)
    return out


class BatchedIterativeSolver:
    """Base class: component wiring + the per-system monitoring loop helpers.

    Parameters
    ----------
    preconditioner:
        A :class:`~repro.core.preconditioners.BatchPreconditioner` instance,
        a factory name (``"jacobi"``, ``"identity"``, ...), or None for the
        identity.
    criterion:
        A :class:`~repro.core.stop.StoppingCriterion`; defaults to the
        paper's absolute residual threshold of 1e-10.
    max_iter:
        Iteration cap per system.
    logger:
        Optional :class:`~repro.core.logging_.BatchLogger`; one is created
        internally when omitted.
    compact_threshold:
        Active-batch compaction trigger: once the active fraction of the
        batch drops to this value or below, the still-active systems are
        gathered into a compact sub-batch and iterated alone (results are
        scattered back on exit).  Per-system numerics are bit-identical
        either way.  ``None`` disables compaction.
    compact_min_batch:
        Never compact batches at or below this size.
    precision:
        Precision policy for the solve: ``"fp64"`` (the default paper
        configuration), ``"fp32"``, ``"mixed"`` (fp32 storage/compute,
        fp64 dot/norm accumulation), or a
        :class:`~repro.core.precision.PrecisionPolicy`.  ``None`` infers
        the policy from the matrix's value dtype at solve time, so fp64
        matrices run the unchanged (bit-identical) double path and fp32
        matrices run pure single.  An explicit policy casts the matrix
        and right-hand side to its storage dtype on entry.
    health:
        :class:`~repro.core.faults.HealthOptions` tuning the driver's
        per-system health guards (non-finite / divergence / stagnation
        detection); defaults to :class:`HealthOptions()
        <repro.core.faults.HealthOptions>`.  Detected-unhealthy systems
        are frozen with a :class:`~repro.core.faults.SolverHealth` code in
        ``SolveResult.health`` instead of silently burning iterations.
    """

    name = "abstract"

    def __init__(
        self,
        preconditioner: BatchPreconditioner | str | None = None,
        criterion: StoppingCriterion | None = None,
        max_iter: int = 500,
        logger: BatchLogger | None = None,
        compact_threshold: float | None = 0.5,
        compact_min_batch: int = 4,
        precision: PrecisionPolicy | str | None = None,
        health: HealthOptions | None = None,
    ) -> None:
        if isinstance(preconditioner, str):
            preconditioner = make_preconditioner(preconditioner)
        self.preconditioner = preconditioner or IdentityPreconditioner()
        self.criterion = criterion or AbsoluteResidual(1e-10)
        self.max_iter = int(check_positive(max_iter, "max_iter"))
        self.logger = logger or BatchLogger()
        if compact_threshold is not None and not 0.0 < compact_threshold <= 1.0:
            raise ValueError(
                f"compact_threshold must lie in (0, 1] or be None, "
                f"got {compact_threshold}"
            )
        self.compact_threshold = compact_threshold
        self.compact_min_batch = int(check_positive(compact_min_batch, "compact_min_batch"))
        self.precision = None if precision is None else precision_policy(precision)
        self.health_options = health or HealthOptions()
        #: Policy of the solve in flight (set by :meth:`solve`).
        self._active_policy: PrecisionPolicy = self.precision or FP64
        self._workspace: SolverWorkspace | None = None
        self._last_compactor: BatchCompactor | None = None
        self.last_op_stats: OpStats | None = None
        #: Per-system :class:`~repro.core.faults.SolverHealth` codes of the
        #: most recent solve (set by the iteration driver).
        self.last_health: np.ndarray | None = None

    # -- subclass hooks ------------------------------------------------------

    def op_schedule(self) -> OpSchedule:
        """The declared operation schedule of this solver.

        One source of truth shared by the host iteration driver (vector
        allocation), the GPU performance model, and the shared-memory
        configurator.  Parameterised solvers (GMRES) override this to
        thread their configuration into the registry lookup.
        """
        return solver_schedule(self.name)

    def _iterate(
        self,
        matrix,
        b: np.ndarray,
        x: np.ndarray,
        precond: BatchPreconditioner,
        ws: SolverWorkspace,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run the iteration; return (final per-system residual norms,
        per-system converged mask).  ``x`` is updated in place."""
        raise NotImplementedError

    # -- public API -----------------------------------------------------------

    def solve(
        self,
        matrix,
        b: np.ndarray,
        x0: np.ndarray | None = None,
        *,
        workspace: SolverWorkspace | None = None,
    ) -> SolveResult:
        """Solve ``A[k] x[k] = b[k]`` for every system in the batch.

        Parameters
        ----------
        matrix:
            Any batch-matrix format (CSR / ELL / dense).
        b:
            Right-hand sides, shape ``(num_batch, num_rows)``.
        x0:
            Optional initial guesses (same shape); zero when omitted.  The
            array is not modified.
        workspace:
            Optional externally owned :class:`~repro.core.workspace.
            SolverWorkspace` to run the solve in.  A driver performing many
            solves of the same batch shape (e.g. the Picard loop) threads
            one arena through all of them so no batch vector is ever
            reallocated; when omitted the solver keeps its own cached
            workspace, which is equally allocation-free across same-shape
            solves.

        Returns
        -------
        :class:`~repro.core.types.SolveResult` with per-system iteration
        counts, residual norms and convergence flags.
        """
        shape: BatchShape = matrix.shape
        shape.require_square()
        policy = self._resolve_policy(matrix)
        self._active_policy = policy
        if getattr(matrix, "dtype", DTYPE) != policy.storage_dtype:
            matrix = matrix.astype(policy.storage_dtype)
        b = as_value_array(b, "b", ndim=2, dtype=policy.storage_dtype)
        shape.compatible_vector(b, "b")

        if workspace is not None:
            if not workspace.matches(
                shape.num_batch, shape.num_rows, policy.storage_dtype
            ):
                raise DimensionMismatch(
                    f"workspace is sized ({workspace.num_batch}, "
                    f"{workspace.num_rows}, {workspace.dtype}) but the batch "
                    f"needs ({shape.num_batch}, {shape.num_rows}, "
                    f"{policy.storage_dtype})"
                )
            ws = workspace
        else:
            ws = self._get_workspace(shape.num_batch, shape.num_rows, policy)
        x = ws.vector("x")
        if x0 is None:
            x[...] = 0.0
        else:
            x0 = as_value_array(x0, "x0", ndim=2, dtype=policy.storage_dtype)
            shape.compatible_vector(x0, "x0")
            x[...] = x0

        precond = self.preconditioner.generate(matrix)
        self.logger.initialize(shape.num_batch)
        self.last_health = None

        res_norms, converged = self._iterate(matrix, b, x, precond, ws)

        return SolveResult(
            x=x.copy(),
            iterations=self.logger.iterations.copy(),
            residual_norms=res_norms.copy(),
            converged=converged.copy(),
            solver=self.name,
            format=getattr(matrix, "format_name", "unknown"),
            residual_history=(
                list(self.logger.history) if self.logger.record_history else None
            ),
            health=(
                None if self.last_health is None else self.last_health.copy()
            ),
        )

    # -- shared helpers ---------------------------------------------------------

    def _resolve_policy(self, matrix) -> PrecisionPolicy:
        """The policy governing one solve: explicit, or matrix-inferred."""
        if self.precision is not None:
            return self.precision
        return policy_for_dtype(getattr(matrix, "dtype", DTYPE))

    def _get_workspace(
        self, num_batch: int, num_rows: int, policy: PrecisionPolicy
    ) -> SolverWorkspace:
        """Reuse the cached workspace when dimensions match (zero-alloc path)."""
        ws = self._workspace
        if ws is None or not ws.matches(num_batch, num_rows, policy.storage_dtype):
            ws = SolverWorkspace(
                num_batch,
                num_rows,
                dtype=policy.storage_dtype,
                scalar_dtype=policy.accumulate_dtype,
            )
            self._workspace = ws
        return ws

    def _compactor(self, matrix, precond) -> BatchCompactor:
        """Build the active-batch compactor for one solve.

        Compaction is armed only when the format can gather sub-batches
        (``take_batch``); unknown criteria/preconditioners disarm it lazily
        inside :meth:`BatchCompactor.compact` via their ``restrict`` hooks.
        """
        comp = BatchCompactor(
            self.criterion,
            threshold=self.compact_threshold,
            min_batch=self.compact_min_batch,
            enabled=hasattr(matrix, "take_batch"),
        )
        self._last_compactor = comp
        return comp

    @property
    def last_compaction_events(self) -> int:
        """Number of compaction events during the most recent solve."""
        return 0 if self._last_compactor is None else self._last_compactor.num_events

    def _init_monitor(
        self, matrix, b: np.ndarray, x: np.ndarray, r: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Compute the initial residual into ``r`` and prime the criterion.

        Returns ``(res_norms, converged)`` for iteration 0 — systems whose
        initial guess already satisfies the criterion start out frozen with
        an iteration count of zero.
        """
        acc = self._active_policy.accumulate_dtype
        residual(matrix, x, b, out=r)
        res_norms = batch_norm2(r, dtype=acc)
        self.criterion.initialize(batch_norm2(b, dtype=acc), res_norms)
        converged = self.criterion.check(res_norms)
        # Iteration count 0 for systems converged on entry (already the
        # logger's initial state); just record their final norms.
        if np.any(converged):
            self.logger.log_iteration(-1, res_norms, converged)
        return res_norms, converged


class SolveState:
    """Named arrays of one batched solve, rebound wholesale on compaction.

    Attributes are the solver's registered vectors and per-system scalars
    plus ``matrix``, ``b``, ``x``, ``precond``, and the ``active`` mask.
    Keeping them on one object lets the iteration driver's compaction step
    gather *every* registered array and rebind the attributes in place, so
    solver recurrences written against ``st.<name>`` never hold a stale
    full-size reference.
    """

    def __init__(self, matrix, b, x, precond) -> None:
        self.matrix = matrix
        self.b = b
        self.x = x
        self.precond = precond
        self.active: np.ndarray | None = None
        self._vector_names: list[str] = []
        self._scalar_names: list[str] = []

    def register_vector(self, name: str, arr: np.ndarray) -> np.ndarray:
        """Expose ``arr`` as ``self.<name>`` and include it in compaction."""
        self._vector_names.append(name)
        setattr(self, name, arr)
        return arr

    def register_scalar(self, name: str, arr: np.ndarray) -> np.ndarray:
        """Expose a per-system scalar array and include it in compaction."""
        self._scalar_names.append(name)
        setattr(self, name, arr)
        return arr

    def vectors(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, n) for n in self._vector_names)

    def scalars(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, n) for n in self._scalar_names)

    def rebind(self, vectors, scalars) -> None:
        for name, arr in zip(self._vector_names, vectors):
            setattr(self, name, arr)
        for name, arr in zip(self._scalar_names, scalars):
            setattr(self, name, arr)


class IterationDriver:
    """The shared monitoring loop of the batched iterative solvers.

    Owns everything the five ``_iterate`` bodies used to duplicate:
    workspace allocation from the solver's declared
    :class:`~repro.core.solvers.schedule.OpSchedule`, initial-residual
    priming, the per-system ``active`` mask, full-size ``converged`` /
    ``final_norms`` bookkeeping, active-batch compaction (gather + state
    rebinding), convergence logging, true-residual verify-and-freeze with
    restart, finalisation, and the :class:`~repro.core.solvers.schedule.
    OpStats` control-flow record the conformance suite checks against the
    schedule.  A solver's ``_iterate`` builds a driver, registers any
    extra per-system scalars, and supplies only its recurrence as the
    loop body.
    """

    def __init__(
        self,
        solver: BatchedIterativeSolver,
        matrix,
        b: np.ndarray,
        x: np.ndarray,
        precond: BatchPreconditioner,
        ws: SolverWorkspace,
        *,
        vector_names: tuple[str, ...] | None = None,
        zero: tuple[str, ...] = (),
    ) -> None:
        self.solver = solver
        st = SolveState(matrix, b, x, precond)
        # Reduction (dot/norm) accumulation dtype of the active precision
        # policy; solver bodies pass it to batch_dot/batch_norm2 so mixed
        # precision keeps fp64 reductions over fp32 vectors.
        st.acc_dtype = solver._active_policy.accumulate_dtype
        if vector_names is None:
            schedule = solver.op_schedule()
            vector_names = tuple(
                n for n in schedule.workspace_names() if n != "x"
            )
        for name in vector_names:
            st.register_vector(name, ws.vector(name, zero=name in zero))
        st.register_vector("x", x)
        self.state = st

        # Every iterative solver names its residual vector "r".
        res_norms, converged = solver._init_monitor(matrix, b, x, st.r)
        st.active = ~converged
        self.initial_norms = res_norms
        #: Full-size converged flags and final norms; under compaction the
        #: compactor scatters local results into them by global index.
        self.converged = converged
        self.final_norms = res_norms.copy()
        self.comp = solver._compactor(matrix, precond)
        self.logger = solver.logger
        self.stats = OpStats()
        solver.last_op_stats = self.stats
        self._x_full = x
        # Per-system health bookkeeping (full batch size, like `converged`).
        # Guards fire only on norms recorded through update_norms, so a
        # healthy solve's arithmetic is untouched — the guards read norms
        # the solver already computed.
        nb_full = converged.size
        self.health = np.full(nb_full, SolverHealth.ITERATING, dtype=HEALTH_DTYPE)
        self._best_norms = np.where(
            np.isfinite(res_norms), res_norms, np.inf
        ).astype(np.float64)
        self._improve_trip = np.zeros(nb_full, dtype=np.int64)
        solver.last_health = self.health
        # Classify systems that are already poisoned at entry (NaN/Inf in
        # the initial residual) before the loop body ever touches them.
        self._check_health(res_norms, st.active)

    @property
    def criterion(self):
        """The (possibly restricted) stopping criterion to check against."""
        return self.comp.criterion

    # -- the loop ------------------------------------------------------------

    def run(self, body) -> tuple[np.ndarray, np.ndarray]:
        """Drive ``body(state, it)`` for up to ``max_iter`` trips.

        The body returns :data:`STOP` to end the solve mid-trip (all
        systems froze before the iteration tail).  Compaction is attempted
        at the top of every trip; the returned arrays are the full-size
        ``(final_norms, converged)`` pair ``_iterate`` must produce.
        """
        st = self.state
        for it in range(self.solver.max_iter):
            if not np.any(st.active):
                break
            self.maybe_compact()
            self.stats.trips += 1
            if body(st, it) is STOP:
                self.stats.tail_skipped = True
                break
        return self.finish()

    def maybe_compact(self) -> bool:
        """Gather the active sub-batch when worthwhile; rebind all state."""
        st = self.state
        if not self.comp.should_compact(st.active):
            return False
        vectors = st.vectors()
        scalars = st.scalars()
        # x travels through the compactor's dedicated slot, not the
        # generic vector tuple (it must scatter into x_full on exit).
        packed = self.comp.compact(
            st.active, st.matrix, st.b, self._x_full, st.x, st.precond,
            vectors=vectors[:-1], scalars=scalars,
        )
        if packed is None:
            return False
        (st.matrix, st.b, x, st.precond, st.active,
         new_vectors, new_scalars) = packed
        st.rebind(new_vectors + (x,), new_scalars)
        return True

    def finish(self) -> tuple[np.ndarray, np.ndarray]:
        """Scatter back the compact iterate and close out the logger."""
        self.comp.finalize(self._x_full, self.state.x)
        self.logger.finalize(self.final_norms, ~self.converged, self.solver.max_iter)
        self.health[self.converged] = SolverHealth.CONVERGED
        return self.final_norms, self.converged

    # -- per-trip helpers -----------------------------------------------------

    def update_norms(self, norms: np.ndarray, mask: np.ndarray) -> None:
        """Record current residual norms into the full-size bookkeeping.

        Also runs the vectorised health guards on the recorded norms:
        non-finite, diverged, and stagnated systems are flagged in
        :attr:`health` and deactivated so they stop iterating (their last
        recorded norms stay in ``final_norms``).
        """
        self.comp.update_norms(self.final_norms, norms, mask)
        self._check_health(norms, mask)

    def _check_health(self, norms: np.ndarray, mask: np.ndarray) -> None:
        """Vectorised NaN/Inf, divergence, and stagnation guards."""
        opts = self.solver.health_options
        if not opts.enabled or not np.any(mask):
            return
        vals = norms[mask]
        idx = self.comp.global_indices(mask)
        code = np.zeros(vals.shape, dtype=HEALTH_DTYPE)

        bad = ~np.isfinite(vals)
        code[bad] = SolverHealth.NON_FINITE

        diverged = ~bad & (
            vals > opts.divergence_factor * self.initial_norms[idx]
        )
        code[diverged] = SolverHealth.DIVERGED
        bad |= diverged

        if opts.stagnation_window:
            trip = self.stats.trips
            best = self._best_norms[idx]
            improved = vals < (1.0 - opts.stagnation_rtol) * best
            self._best_norms[idx] = np.minimum(best, np.where(bad, best, vals))
            self._improve_trip[idx[improved]] = trip
            stalled = ~bad & (trip - self._improve_trip[idx] >= opts.stagnation_window)
            code[stalled] = SolverHealth.STAGNATED
            bad |= stalled

        if np.any(bad):
            self.health[idx[bad]] = code[bad]
            self.logger.log_halted(idx[bad], self.stats.trips)
            bad_local = np.zeros(mask.shape, dtype=bool)
            bad_local[mask] = bad
            self.state.active &= ~bad_local

    def flag_unhealthy(self, local_mask: np.ndarray, state: SolverHealth) -> None:
        """Record a solver-detected breakdown and freeze the systems.

        Solver bodies call this the moment a defining recurrence scalar
        (``rho``, the ``alpha`` denominator, ``omega``) is exactly zero or
        non-finite for an active system — before the poisoned value can
        propagate through the vector updates.
        """
        if not self.solver.health_options.enabled or not np.any(local_mask):
            return
        idx = self.comp.global_indices(local_mask)
        self.health[idx] = state
        self.logger.log_halted(idx, self.stats.trips)
        self.state.active &= ~local_mask

    def log_history(self) -> None:
        self.logger.log_history(self.final_norms)

    def freeze(self, it: int, norms: np.ndarray, newly: np.ndarray) -> None:
        """Log, mark, and deactivate systems whose criterion fired.

        The unverified path (CG, Richardson): the recursive residual is
        trusted as-is.
        """
        self.comp.log_converged(self.logger, it, norms, newly)
        self.comp.mark_converged(self.converged, newly)
        self.state.active &= ~newly

    def verify_and_freeze(self, it: int, candidates: np.ndarray, restart=None):
        """Confirm candidate convergences against the true residual.

        Confirmed systems are logged and frozen.  Systems whose recursive
        residual drifted are *restarted* through the solver-supplied
        ``restart(state, true_r, restarted)`` callback (rebuilding their
        Krylov state from the true residual) and keep iterating.  Returns
        the ``(confirmed, restarted)`` masks.
        """
        st = self.state
        self.stats.verify_events += 1
        true_r = st.true_r
        residual(st.matrix, st.x, st.b, out=true_r)
        true_norms = batch_norm2(true_r, dtype=st.acc_dtype)
        confirmed = candidates & self.comp.criterion.check(true_norms)
        if np.any(confirmed):
            self.comp.update_norms(self.final_norms, true_norms, confirmed)
            self.comp.log_converged(self.logger, it, true_norms, confirmed)
            self.comp.mark_converged(self.converged, confirmed)
            st.active &= ~confirmed
        restarted = candidates & ~confirmed
        if np.any(restarted):
            self.stats.restart_events += 1
            restart(st, true_r, restarted)
            self.comp.update_norms(self.final_norms, true_norms, restarted)
        return confirmed, restarted
