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
* preconditioner and stopping criterion are pluggable components,
  mirroring the C++ template parameters of the CUDA kernel, and the
  :class:`IterationDriver` keeps the per-system record (iteration count,
  final residual, health) that the kernel's batched logger keeps.
"""

from __future__ import annotations

import numpy as np

from ...utils.validation import as_value_array, check_positive
from ..batch_dense import batch_norm2
from ..compaction import BatchCompactor
from ..faults import (
    DIVERGENCE_FACTOR,
    HEALTH_DTYPE,
    STAGNATION_RTOL,
    STAGNATION_WINDOW,
    SolverHealth,
)
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
    "bind_arena",
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
    record_history:
        When True, every solve stores each trip's per-system residual norms
        in ``SolveResult.residual_history`` (O(iterations x num_batch)
        memory).  Off by default.
    compact_threshold:
        Active-batch compaction trigger: once the active fraction of the
        batch drops to this value or below, the still-active systems are
        gathered into a compact sub-batch and iterated alone (results are
        scattered back on exit).  Per-system numerics are bit-identical
        either way.  ``None`` disables compaction.  Batches of at most
        :data:`~repro.core.compaction.COMPACT_MIN_BATCH` systems are never
        compacted.
    precision:
        Precision policy for the solve: ``"fp64"`` (the default paper
        configuration), ``"fp32"``, ``"mixed"`` (fp32 storage/compute,
        fp64 dot/norm accumulation), or a
        :class:`~repro.core.precision.PrecisionPolicy`.  ``None`` infers
        the policy from the matrix's value dtype at solve time, so fp64
        matrices run the unchanged (bit-identical) double path and fp32
        matrices run pure single.  An explicit policy casts the matrix
        and right-hand side to its storage dtype on entry.

    The driver's per-system health guards (non-finite / divergence /
    stagnation detection, thresholds in :mod:`repro.core.faults`) freeze
    detected-unhealthy systems with a
    :class:`~repro.core.faults.SolverHealth` code in ``SolveResult.health``
    instead of letting them burn iterations.
    """

    name = "abstract"

    def __init__(
        self,
        preconditioner: BatchPreconditioner | str | None = None,
        criterion: StoppingCriterion | None = None,
        max_iter: int = 500,
        record_history: bool = False,
        compact_threshold: float | None = 0.5,
        precision: PrecisionPolicy | str | None = None,
    ) -> None:
        if isinstance(preconditioner, str):
            preconditioner = make_preconditioner(preconditioner)
        self.preconditioner = preconditioner or IdentityPreconditioner()
        self.criterion = criterion or AbsoluteResidual(1e-10)
        self.max_iter = int(check_positive(max_iter, "max_iter"))
        self.record_history = bool(record_history)
        if compact_threshold is not None and not 0.0 < compact_threshold <= 1.0:
            raise ValueError(
                f"compact_threshold must lie in (0, 1] or be None, "
                f"got {compact_threshold}"
            )
        self.compact_threshold = compact_threshold
        self.precision = None if precision is None else precision_policy(precision)
        #: Policy of the solve in flight (set by :meth:`solve`).
        self._active_policy: PrecisionPolicy = self.precision or FP64
        self._workspace: SolverWorkspace | None = None
        #: Control-flow record and compaction count of the most recent solve.
        self.last_op_stats: OpStats | None = None
        self.last_compaction_events = 0

    # -- subclass hooks ------------------------------------------------------

    def op_schedule(self) -> OpSchedule:
        """The declared operation schedule of this solver.

        One source of truth shared by the host iteration driver (vector
        allocation), the GPU performance model, and the shared-memory
        configurator.
        """
        return solver_schedule(self.name)

    def _iterate(
        self,
        matrix,
        b: np.ndarray,
        x: np.ndarray,
        precond: BatchPreconditioner,
        ws: SolverWorkspace,
    ) -> IterationDriver:
        """Run the iteration; return the finished :class:`IterationDriver`
        holding the per-system results.  ``x`` is updated in place."""
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
            Any batch-matrix format (CSR / ELL / DIA / dense).
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
        policy = self._resolve_policy(matrix)
        self._active_policy = policy
        b, ws, x = bind_arena(
            self, matrix, b, x0, workspace,
            dtype=policy.storage_dtype, scalar_dtype=policy.accumulate_dtype,
        )
        if getattr(matrix, "dtype", DTYPE) != policy.storage_dtype:
            matrix = matrix.astype(policy.storage_dtype)

        precond = self.preconditioner.generate(matrix)
        drv = self._iterate(matrix, b, x, precond, ws)
        self.last_op_stats = drv.stats
        self.last_compaction_events = drv.comp.num_events

        # The IterationDriver's arrays are new for every solve; only x
        # lives in the (reused) workspace.
        return SolveResult(
            x=x.copy(),
            iterations=drv.iterations,
            residual_norms=drv.final_norms,
            converged=drv.converged,
            solver=self.name,
            format=getattr(matrix, "format_name", "unknown"),
            residual_history=drv.history,
            health=drv.health,
        )

    # -- shared helpers ---------------------------------------------------------

    def _resolve_policy(self, matrix) -> PrecisionPolicy:
        """The policy governing one solve: explicit, or matrix-inferred."""
        if self.precision is not None:
            return self.precision
        return policy_for_dtype(getattr(matrix, "dtype", DTYPE))


def bind_arena(
    owner,
    matrix,
    b: np.ndarray,
    x0: np.ndarray | None,
    workspace: SolverWorkspace | None,
    *,
    dtype=None,
    scalar_dtype=None,
) -> tuple[np.ndarray, SolverWorkspace, np.ndarray]:
    """The front door of a solve: check its inputs, bind its arena, load ``x0``.

    ``b`` and ``x0`` must be batch vectors of the square ``matrix``; both
    are converted to ``dtype`` (``None`` keeps each one's float dtype).  The
    arena is ``workspace``, which must fit, or else ``owner._workspace``,
    rebuilt in ``b``'s dtype (scalars in ``scalar_dtype``) when the batch
    changes.  Returns ``(b, ws, x)`` with ``x0`` (or zeros) in ``x``.
    """
    shape: BatchShape = matrix.shape
    shape.require_square()
    b = as_value_array(b, "b", ndim=2, dtype=dtype)
    shape.compatible_vector(b, "b")
    num_batch, num_rows = shape.num_batch, shape.num_rows
    if workspace is not None:
        if not workspace.matches(num_batch, num_rows, b.dtype):
            raise DimensionMismatch(
                f"workspace is sized ({workspace.num_batch}, "
                f"{workspace.num_rows}, {workspace.dtype}) but the batch "
                f"needs ({num_batch}, {num_rows}, {b.dtype})"
            )
        ws = workspace
    else:
        ws = owner._workspace
        if ws is None or not ws.matches(num_batch, num_rows, b.dtype):
            ws = SolverWorkspace(
                num_batch, num_rows, dtype=b.dtype, scalar_dtype=scalar_dtype
            )
            owner._workspace = ws
    x = ws.vector("x")
    if x0 is None:
        x[...] = 0.0
    else:
        x0 = as_value_array(x0, "x0", ndim=2, dtype=dtype)
        shape.compatible_vector(x0, "x0")
        x[...] = x0
    return b, ws, x


class SolveState:
    """Named arrays of one batched solve, rebound wholesale on compaction.

    Attributes are ``matrix``, ``b``, ``precond``, the ``active`` mask, and
    every registered per-system array: the solver's vectors, ``x``, and its
    recurrence scalars.  Keeping them on one object lets the iteration
    driver's compaction step gather *every* registered array and rebind the
    attributes in place, so solver recurrences written against
    ``st.<name>`` never hold a stale full-size reference.
    """

    def __init__(self, matrix, b, precond) -> None:
        self.matrix = matrix
        self.b = b
        self.precond = precond
        self.active: np.ndarray | None = None
        self._names: list[str] = []

    def register(self, name: str, arr: np.ndarray) -> np.ndarray:
        """Expose ``arr`` as ``self.<name>`` and include it in compaction."""
        self._names.append(name)
        setattr(self, name, arr)
        return arr

    def arrays(self) -> dict[str, np.ndarray]:
        """The registered arrays, by name."""
        return {name: getattr(self, name) for name in self._names}


class IterationDriver:
    """The shared monitoring loop of the batched iterative solvers.

    Owns everything the ``_iterate`` bodies used to duplicate: workspace
    allocation from the solver's declared
    :class:`~repro.core.solvers.schedule.OpSchedule`, initial-residual
    priming, the per-system ``active`` mask, active-batch compaction
    (gather + state rebinding), true-residual verify-and-freeze with
    restart, finalisation, and the :class:`~repro.core.solvers.schedule.
    OpStats` control-flow record the conformance suite checks against the
    schedule.  A solver's ``_iterate`` builds a driver, registers any
    extra per-system scalars, supplies only its recurrence as the loop
    body, and returns the finished driver.  Bodies freeze systems only
    through :meth:`guard` and :meth:`settle`; GMRES, which runs its own
    cycle loop, calls the recording methods directly.

    It is the only writer of the per-system results, which it
    holds at full batch size, indexed by original batch position (under
    compaction it writes through the compactor's index map):
    :attr:`iterations`, :attr:`converged`, :attr:`final_norms`,
    :attr:`health`, and :attr:`history` (a list of per-trip residual-norm
    snapshots when the solver records history, otherwise ``None``).
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
        st = SolveState(matrix, b, precond)
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
            st.register(name, ws.vector(name, zero=name in zero))
        st.register("x", x)
        self.state = st

        # Initial residual (every iterative solver names its residual
        # vector "r") and criterion priming.  Systems whose initial guess
        # already satisfies the criterion start out frozen with an
        # iteration count of zero.
        residual(matrix, x, b, out=st.r)
        res_norms = batch_norm2(st.r, dtype=st.acc_dtype)
        solver.criterion.initialize(batch_norm2(b, dtype=st.acc_dtype), res_norms)
        converged = solver.criterion.check(res_norms)
        st.active = ~converged
        self.initial_norms = res_norms
        nb_full = converged.size
        self.iterations = np.zeros(nb_full, dtype=np.int64)
        self.converged = converged
        self.final_norms = res_norms.copy()
        self.health = np.full(nb_full, SolverHealth.ITERATING, dtype=HEALTH_DTYPE)
        self.history: list[np.ndarray] | None = [] if solver.record_history else None
        # Compaction is armed only when the format can gather sub-batches
        # (``take_batch``); unknown criteria/preconditioners disarm it
        # lazily inside BatchCompactor.compact via their ``restrict`` hooks.
        self.comp = BatchCompactor(
            solver.criterion,
            threshold=solver.compact_threshold,
            enabled=hasattr(matrix, "take_batch"),
            slabs=ws.compaction_slabs,
        )
        self.stats = OpStats()
        self._x_full = x
        # Health-guard state.  Guards fire only on norms recorded through
        # update_norms, so a healthy solve's arithmetic is untouched — the
        # guards read norms the solver already computed.
        self._best_norms = np.where(
            np.isfinite(res_norms), res_norms, np.inf
        ).astype(np.float64)
        self._improve_trip = np.zeros(nb_full, dtype=np.int64)
        # Classify systems that are already poisoned at entry (NaN/Inf in
        # the initial residual) before the loop body ever touches them.
        self._check_health(res_norms, st.active)

    @property
    def criterion(self):
        """The (possibly restricted) stopping criterion to check against."""
        return self.comp.criterion

    # -- the loop ------------------------------------------------------------

    def run(self, body) -> IterationDriver:
        """Drive ``body(state, it)`` for up to ``max_iter`` trips.

        The body returns :data:`STOP` to end the solve mid-trip (all
        systems froze before the iteration tail).  Compaction is attempted
        at the top of every trip; returns the finished driver, which
        ``_iterate`` must return.
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
        packed = self.comp.compact(
            st.active, st.matrix, st.b, st.precond, st.arrays(), self._x_full
        )
        if packed is None:
            return False
        st.matrix, st.b, st.precond, arrays = packed
        for name, arr in arrays.items():
            setattr(st, name, arr)
        st.active = np.ones(st.b.shape[0], dtype=bool)
        return True

    def finish(self) -> IterationDriver:
        """Scatter back the compact iterate and close out the results.

        Systems that neither converged nor were halted by a health guard
        are billed ``max_iter``; halted ones keep the trip count recorded
        when they were deactivated.
        """
        self.comp.finalize(self._x_full, self.state.x)
        capped = ~self.converged & (self.health == SolverHealth.ITERATING)
        self.iterations[capped] = self.solver.max_iter
        self.health[self.converged] = SolverHealth.CONVERGED
        return self

    # -- per-trip helpers -----------------------------------------------------

    def _scatter(self, full: np.ndarray, local: np.ndarray, mask: np.ndarray) -> None:
        """``full[sys] = local[sys]`` for the masked local systems."""
        idx = self.comp.indices
        if idx is None:
            np.copyto(full, local, where=mask)
        else:
            full[idx[mask]] = local[mask]

    def update_norms(self, norms: np.ndarray, mask: np.ndarray) -> None:
        """Record current residual norms into :attr:`final_norms`.

        Also runs the vectorised health guards on the recorded norms:
        non-finite, diverged, and stagnated systems are flagged in
        :attr:`health` and deactivated so they stop iterating (their last
        recorded norms stay in ``final_norms``).
        """
        self._scatter(self.final_norms, norms, mask)
        self._check_health(norms, mask)

    def _check_health(self, norms: np.ndarray, mask: np.ndarray) -> None:
        """Vectorised NaN/Inf, divergence, and stagnation guards."""
        if not np.any(mask):
            return
        vals = norms[mask]
        idx = self.comp.global_indices(mask)
        code = np.zeros(vals.shape, dtype=HEALTH_DTYPE)

        bad = ~np.isfinite(vals)
        code[bad] = SolverHealth.NON_FINITE

        diverged = ~bad & (vals > DIVERGENCE_FACTOR * self.initial_norms[idx])
        code[diverged] = SolverHealth.DIVERGED
        bad |= diverged

        trip = self.stats.trips
        best = self._best_norms[idx]
        improved = vals < (1.0 - STAGNATION_RTOL) * best
        self._best_norms[idx] = np.minimum(best, np.where(bad, best, vals))
        self._improve_trip[idx[improved]] = trip
        stalled = ~bad & (trip - self._improve_trip[idx] >= STAGNATION_WINDOW)
        code[stalled] = SolverHealth.STAGNATED
        bad |= stalled

        if np.any(bad):
            bad_local = np.zeros(mask.shape, dtype=bool)
            bad_local[mask] = bad
            self._halt(bad_local, code[bad])

    def _halt(self, local_mask: np.ndarray, code) -> None:
        """Record health code and trip count of unconverged systems; freeze them.

        The trip count is what the systems actually ran: a system that
        breaks down at entry bills 0 iterations, not ``max_iter``.
        """
        idx = self.comp.global_indices(local_mask)
        self.health[idx] = code
        self.iterations[idx] = self.stats.trips
        self.state.active &= ~local_mask

    def flag_unhealthy(self, local_mask: np.ndarray, state: SolverHealth) -> None:
        """Record a solver-detected breakdown and freeze the systems."""
        if np.any(local_mask):
            self._halt(local_mask, state)

    def guard(
        self, cont: np.ndarray, code: SolverHealth, *scalars: np.ndarray
    ) -> bool:
        """Freeze the ``cont`` systems whose recurrence scalars broke down.

        Called as soon as a defining scalar (``rho``, the ``alpha``
        denominator, ``omega``'s dots) exists, before a poisoned value can
        reach the vector updates: a ``cont`` system with an exactly zero or
        non-finite scalar is halted with ``code`` and dropped from ``cont``
        in place.  Returns True when no system is left active (``STOP``).
        """
        first, *rest = scalars
        bad = (first == 0.0) | ~np.isfinite(first)
        for scalar in rest:
            bad |= (scalar == 0.0) | ~np.isfinite(scalar)
        broken = cont & bad
        if not np.any(broken):
            return False
        self._halt(broken, code)
        cont &= ~broken
        return not np.any(self.state.active)

    def log_history(
        self, norms: np.ndarray | None = None, mask: np.ndarray | None = None
    ) -> None:
        """Append a snapshot of :attr:`final_norms` when recording history.

        ``norms``/``mask`` overlay per-system estimates that are not final
        norms (GMRES's mid-cycle Arnoldi estimates) on the snapshot.
        """
        if self.history is None:
            return
        snap = self.final_norms.copy()
        if norms is not None:
            self._scatter(snap, norms, mask)
        self.history.append(snap)

    def log_converged(self, it: int, local_mask: np.ndarray) -> None:
        """Record ``it + 1`` (``it`` is the 0-based trip) as the masked
        systems' iteration count."""
        self.iterations[self.comp.global_indices(local_mask)] = it + 1

    def mark_converged(self, local_mask: np.ndarray) -> None:
        """Flag the masked systems converged and deactivate them."""
        self.converged[self.comp.global_indices(local_mask)] = True
        self.state.active &= ~local_mask

    def settle(
        self, it: int, norms: np.ndarray, cont: np.ndarray, restart=None, *,
        record: np.ndarray | None = None,
    ) -> np.ndarray:
        """Close trip ``it``: record its residual norms, freeze what converged.

        ``norms`` are recorded (and health-checked) for the ``record``
        systems, ``cont`` by default.  The ``cont`` systems they converge
        are trusted when ``restart`` is None (CG, Richardson), else
        confirmed by :meth:`verify_and_freeze`, which restarts the drifted
        ones.  Logs the history snapshot; returns the restarted mask.
        """
        self.update_norms(norms, cont if record is None else record)
        newly = cont & self.criterion.check(norms)
        restarted = np.zeros_like(newly)
        if np.any(newly):
            if restart is None:
                self.log_converged(it, newly)
                self.mark_converged(newly)
            else:
                restarted = self.verify_and_freeze(it, newly, restart)[1]
        self.log_history()
        return restarted

    def verify_and_freeze(self, it: int, candidates: np.ndarray, restart=None):
        """Confirm candidate convergences against the true residual.

        Confirmed systems are logged and frozen.  Systems whose recursive
        residual drifted are *restarted* through the solver-supplied
        ``restart(state, true_r, restarted)`` callback (rebuilding their
        Krylov state from the true residual) and keep iterating.  Returns
        the ``(confirmed, restarted)`` masks.

        Only the candidate rows of ``true_r`` are computed when the format
        can gather sub-batches (``take_batch``): the candidates' systems are
        gathered and their residual formed in one SpMV, then scattered back.
        Rows are computed independently, so the candidates' residuals are
        bit-identical to a full-batch pass; other rows of ``true_r`` are
        left stale (callbacks read restarted rows only) and their norms are
        infinite, so they can never confirm.  Either way each event costs
        exactly one SpMV and one norm, as the schedule declares.
        """
        st = self.state
        self.stats.verify_events += 1
        true_r = st.true_r
        sel = np.flatnonzero(candidates)
        if sel.size < candidates.size and hasattr(st.matrix, "take_batch"):
            r_sel = residual(st.matrix.take_batch(sel), st.x[sel], st.b[sel])
            true_r[sel] = r_sel
            sel_norms = batch_norm2(r_sel, dtype=st.acc_dtype)
            true_norms = np.full(candidates.shape, np.inf, dtype=sel_norms.dtype)
            true_norms[sel] = sel_norms
        else:
            residual(st.matrix, st.x, st.b, out=true_r)
            true_norms = batch_norm2(true_r, dtype=st.acc_dtype)
        confirmed = candidates & self.comp.criterion.check(true_norms)
        if np.any(confirmed):
            self._scatter(self.final_norms, true_norms, confirmed)
            self.log_converged(it, confirmed)
            self.mark_converged(confirmed)
        restarted = candidates & ~confirmed
        if np.any(restarted):
            self.stats.restart_events += 1
            restart(st, true_r, restarted)
            self._scatter(self.final_norms, true_norms, restarted)
        return confirmed, restarted
