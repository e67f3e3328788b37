"""Declarative per-solver operation schedules — one source of truth.

Every batched iterative solver in this package executes a fixed
per-iteration mix of kernels: SpMVs, preconditioner applications, dot
products, norms, and axpy-like vector updates, over a fixed set of named
auxiliary vectors.  Three consumers need that mix:

1. the **host solvers** themselves (which vectors to allocate from the
   :class:`~repro.core.workspace.SolverWorkspace`),
2. the **GPU performance model** (:mod:`repro.gpu.kernel` /
   :mod:`repro.gpu.timing` charge flops and traffic per declared op), and
3. the **shared-memory configurator** (:func:`~repro.core.workspace.
   plan_storage` places the declared vectors into the §IV-D budget).

Historically each consumer kept its own hand-maintained copy of the
BiCGSTAB numbers; this module replaces those copies with one declarative
:class:`OpSchedule` per solver, plus *conformance instrumentation*
(:class:`CountingMatrix`, :class:`CountingPreconditioner`,
:func:`measure_op_counts`) that asserts the schedule matches what the
solver actually executes — so host-vs-model drift is a test failure, not
a silent bias.

A key property of the host solvers makes exact conformance possible: all
batch kernels are *masked*, never skipped, so the operation count of a
solve depends only on control flow — loop trips, the mid-iteration early
exit, verify-and-freeze events, GMRES cycle lengths — all of which the
driver records in :class:`OpStats`.  :meth:`OpSchedule.expected_counts`
maps those stats to exact predicted totals.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..batch_dense import batch_dot as _batch_dot
from ..batch_dense import batch_norm2 as _batch_norm2
from ..workspace import VectorSpec

__all__ = [
    "OpSchedule",
    "OpStats",
    "OpCounts",
    "REPLACEMENT_PERIOD",
    "solver_schedule",
    "iterative_solver_names",
    "CountingMatrix",
    "CountingPreconditioner",
    "count_batch_ops",
    "measure_op_counts",
]

#: Operation kinds a schedule accounts for (batch-kernel invocations).
#: ``syncs`` counts *reduction rounds* — device-wide synchronization
#: points: one bare ``batch_dot``, one ``batch_norm2``, or one
#: ``fused_dots`` call (however many dot products it fuses) each cost
#: exactly one round.  The pipelined solvers exist to shrink this count.
_OPS = ("spmvs", "precond_applies", "dots", "norms", "syncs")


@dataclass
class OpStats:
    """Control-flow record of one batched solve (filled by the driver).

    Because every batch kernel runs masked rather than skipped, these few
    counters determine the solve's operation counts exactly.

    Attributes
    ----------
    trips:
        Loop trips executed (for GMRES: total Arnoldi steps).
    verify_events:
        True-residual verify-and-freeze evaluations (each costs one SpMV
        and one norm on top of the iteration body).
    restart_events:
        Verify events in which at least one system was restarted from the
        true residual (CGS pays one extra dot to reseed ``rho``).
    tail_skipped:
        Whether the final trip exited mid-body once every system froze,
        skipping the iteration tail (BiCGSTAB's second half, CG/CGS's
        direction update).
    cycle_steps:
        Arnoldi steps actually taken in each restart cycle (GMRES), or
        one entry per periodic residual-replacement event (pipelined CG
        recomputes ``r`` and ``s = A p`` every ``cycle_length`` trips) —
        either way ``cycles`` multiplies the schedule's ``cycle_*`` ops.
    """

    trips: int = 0
    verify_events: int = 0
    restart_events: int = 0
    tail_skipped: bool = False
    cycle_steps: list[int] = field(default_factory=list)

    @property
    def cycles(self) -> int:
        """Number of restart cycles executed (GMRES)."""
        return len(self.cycle_steps)


@dataclass(frozen=True)
class OpSchedule:
    """The declared operation mix of one batched iterative solver.

    Per-iteration fields count batch-kernel invocations in one full loop
    trip; ``setup_*`` fields cover the one-time priming phase (initial
    residual, criterion norms, first Krylov quantities); ``verify_*`` is
    the extra cost of one true-residual confirmation event; ``tail_*`` is
    the part of a trip skipped when the loop exits mid-body; ``cycle_*``
    are the per-restart-cycle extras of cyclic methods (GMRES), amortised
    over ``cycle_length`` iterations in the steady-state model.

    ``vectors`` is the modelled vector set fed to the §IV-D placement
    planner (each :class:`~repro.core.workspace.VectorSpec` carries its
    per-iteration ``touches`` for spill traffic); ``host_scratch`` names
    additional host-only workspace arrays that the NumPy implementation
    streams through but a fused kernel would keep in registers, so they
    are excluded from the placement model.
    """

    solver: str
    spmvs: float
    precond_applies: float
    dots: float
    norms: float
    axpys: float
    vectors: tuple[VectorSpec, ...]
    host_scratch: tuple[str, ...] = ()
    #: Reduction rounds (sync points) per iteration; see ``_OPS``.
    syncs: float = 0.0
    #: Rounds per iteration that carry dot products (the acceptance metric
    #: for the pipelined variants: pipelined CG fuses its two dots plus the
    #: residual norm into one round).
    dot_rounds: float = 0.0
    #: Kernel launches per iteration when the solve is *not* compiled into
    #: one fused kernel: every SpMV, preconditioner apply, reduction round,
    #: and fused vector-update group is its own launch.
    fused_groups: float = 0.0
    setup_fused_groups: float = 0.0
    setup_spmvs: float = 1.0
    setup_precond_applies: float = 0.0
    setup_dots: float = 0.0
    setup_norms: float = 2.0
    setup_axpys: float = 0.0
    setup_syncs: float = 0.0
    verify_spmvs: float = 0.0
    verify_precond_applies: float = 0.0
    verify_dots: float = 0.0
    verify_norms: float = 0.0
    verify_syncs: float = 0.0
    restart_spmvs: float = 0.0
    restart_precond_applies: float = 0.0
    restart_dots: float = 0.0
    restart_norms: float = 0.0
    restart_syncs: float = 0.0
    tail_spmvs: float = 0.0
    tail_precond_applies: float = 0.0
    tail_dots: float = 0.0
    tail_norms: float = 0.0
    tail_syncs: float = 0.0
    cycle_length: int | None = None
    cycle_spmvs: float = 0.0
    cycle_precond_applies: float = 0.0
    cycle_dots: float = 0.0
    cycle_norms: float = 0.0
    cycle_axpys: float = 0.0
    cycle_syncs: float = 0.0
    cycle_fused_groups: float = 0.0
    #: GMRES: dot count per Arnoldi step grows with the subspace (step j
    #: performs j+1 MGS dots); the flat ``dots`` field holds the cycle
    #: average and :meth:`expected_counts` uses the exact triangular sum.
    dots_grow_with_subspace: bool = False

    # -- model-facing views ---------------------------------------------------

    def amortized(self, op: str) -> float:
        """Steady-state per-iteration count of ``op``, cycle work folded in."""
        base = float(getattr(self, op))
        if self.cycle_length:
            base += getattr(self, f"cycle_{op}") / self.cycle_length
        return base

    @property
    def vector_names(self) -> tuple[str, ...]:
        """Names of the modelled (placement-planned) vectors."""
        return tuple(v.name for v in self.vectors)

    def workspace_names(self) -> tuple[str, ...]:
        """Workspace vectors the host solver allocates (includes scratch)."""
        return tuple(v.name for v in self.vectors) + self.host_scratch

    def spilled_touches(self, global_vectors) -> float:
        """Summed per-iteration touches of the vectors a placement spilled."""
        spilled = set(global_vectors)
        return float(sum(v.touches for v in self.vectors if v.name in spilled))

    # -- conformance ---------------------------------------------------------

    def expected_counts(self, stats: OpStats) -> dict[str, float]:
        """Exact operation totals for a solve with the given control flow."""
        trim = 1.0 if stats.tail_skipped else 0.0
        counts: dict[str, float] = {}
        for op in _OPS:
            counts[op] = (
                getattr(self, f"setup_{op}")
                + getattr(self, op) * stats.trips
                + getattr(self, f"cycle_{op}") * stats.cycles
                - getattr(self, f"tail_{op}") * trim
                + getattr(self, f"verify_{op}") * stats.verify_events
                + getattr(self, f"restart_{op}") * stats.restart_events
            )
        if self.dots_grow_with_subspace:
            # Step j of a cycle performs j+1 MGS dots: a cycle of s steps
            # does s(s+1)/2, replacing the flat per-trip average.  Every
            # GMRES reduction is its own unfused round, so the sync count
            # is exactly the dot count plus the norm count.
            counts["dots"] = self.setup_dots + sum(
                s * (s + 1) / 2.0 for s in stats.cycle_steps
            )
            counts["syncs"] = counts["dots"] + counts["norms"]
        return counts


def _bicgstab_schedule() -> OpSchedule:
    # Algorithm 1: 2 SpMVs + 2 precond applies + 4 dots + 2 norms + ~6
    # axpy-like updates per iteration over 9 vectors, each touched ~3x.
    v = [
        VectorSpec("p_hat", "spmv", touches=3.0),
        VectorSpec("v", "spmv", touches=3.0),
        VectorSpec("s_hat", "spmv", touches=3.0),
        VectorSpec("t", "spmv", touches=3.0),
        VectorSpec("r", "aux", touches=3.0),
        VectorSpec("r_hat", "aux", touches=3.0),
        VectorSpec("p", "aux", touches=3.0),
        VectorSpec("s", "aux", touches=3.0),
        VectorSpec("x", "aux", touches=3.0),
    ]
    return OpSchedule(
        solver="bicgstab",
        spmvs=2.0, precond_applies=2.0, dots=4.0, norms=2.0, axpys=6.0,
        # 5 reduction rounds: rho, the alpha denominator, ||s||, the fused
        # (t.s, t.t) pair (one round since the classic hot loop adopted
        # fused_dots), and ||r||.  The unfused textbook loop pays 6.
        syncs=5.0, dot_rounds=3.0,
        # Component-kernel launches per iteration: 2 SpMV + 2 precond + 5
        # reduction rounds + 4 fused vector-update kernels.
        fused_groups=13.0, setup_fused_groups=5.0,
        setup_spmvs=1.0, setup_norms=2.0, setup_syncs=2.0,
        verify_spmvs=1.0, verify_norms=1.0, verify_syncs=1.0,
        # The ||s|| early exit skips the second half-step entirely.
        tail_spmvs=1.0, tail_precond_applies=1.0, tail_dots=2.0, tail_norms=1.0,
        tail_syncs=2.0,
        vectors=tuple(v),
        host_scratch=("true_r", "work"),
    )


def _cg_schedule() -> OpSchedule:
    return OpSchedule(
        solver="cg",
        spmvs=1.0, precond_applies=1.0, dots=2.0, norms=1.0, axpys=3.0,
        # 3 rounds: p.Ap, ||r||, r.z — the classic CG synchronization cost
        # pipelined CG collapses to one.
        syncs=3.0, dot_rounds=2.0,
        # 1 SpMV + 1 precond + 3 reduction rounds + 3 vector updates.
        fused_groups=8.0, setup_fused_groups=6.0,
        setup_spmvs=1.0, setup_precond_applies=1.0, setup_dots=1.0,
        setup_norms=2.0, setup_syncs=3.0,
        # Convergence is checked before the direction update: the final
        # trip skips one precond apply and the rz dot.
        tail_precond_applies=1.0, tail_dots=1.0, tail_syncs=1.0,
        vectors=(
            VectorSpec("p", "spmv", touches=3.0),
            VectorSpec("w", "spmv", touches=2.0),
            VectorSpec("r", "aux", touches=3.0),
            VectorSpec("z", "aux", touches=2.0),
            VectorSpec("x", "aux", touches=1.0),
        ),
        host_scratch=("work",),
    )


def _cgs_schedule() -> OpSchedule:
    return OpSchedule(
        solver="cgs",
        # The hot loop fuses the residual norm (as r.r) and the rho dot
        # into one fused_dots round: 3 dots, no separate norm kernel, and
        # only 2 reduction rounds per iteration.
        spmvs=2.0, precond_applies=2.0, dots=3.0, norms=0.0, axpys=7.0,
        syncs=2.0, dot_rounds=2.0,
        # 2 SpMV + 2 precond + 2 reduction rounds + 7 vector updates.
        fused_groups=13.0, setup_fused_groups=7.0,
        setup_spmvs=1.0, setup_dots=1.0, setup_norms=2.0, setup_syncs=3.0,
        verify_spmvs=1.0, verify_norms=1.0, verify_syncs=1.0,
        # Restarted systems reseed rho from the true residual: one dot.
        restart_dots=1.0, restart_syncs=1.0,
        vectors=(
            VectorSpec("work", "spmv", touches=2.0),
            VectorSpec("v", "spmv", touches=2.0),
            VectorSpec("uq_hat", "spmv", touches=3.0),
            VectorSpec("r", "aux", touches=3.0),
            VectorSpec("r_hat", "aux", touches=2.0),
            VectorSpec("p", "aux", touches=2.0),
            VectorSpec("u", "aux", touches=2.0),
            VectorSpec("q", "aux", touches=3.0),
            VectorSpec("uq", "aux", touches=2.0),
            VectorSpec("x", "aux", touches=1.0),
        ),
        host_scratch=("scratch", "true_r"),
    )


def _richardson_schedule() -> OpSchedule:
    return OpSchedule(
        solver="richardson",
        spmvs=1.0, precond_applies=1.0, dots=0.0, norms=1.0, axpys=1.0,
        syncs=1.0, dot_rounds=0.0,
        fused_groups=4.0, setup_fused_groups=3.0,
        setup_spmvs=1.0, setup_norms=2.0, setup_syncs=2.0,
        vectors=(
            VectorSpec("z", "spmv", touches=2.0),
            VectorSpec("r", "aux", touches=2.0),
            VectorSpec("x", "aux", touches=2.0),
        ),
        host_scratch=("work",),
    )


def _gmres_schedule(restart: int) -> OpSchedule:
    m = int(restart)
    if m < 1:
        raise ValueError(f"gmres_restart must be >= 1, got {restart}")
    basis = tuple(VectorSpec(f"v{j}", "spmv", touches=2.0) for j in range(m + 1))
    return OpSchedule(
        solver="gmres",
        # Per Arnoldi step: 1 precond + 1 SpMV, (j+1) MGS dots — (m+1)/2 on
        # average over a full cycle — 1 norm, and the MGS/basis updates.
        spmvs=1.0, precond_applies=1.0, dots=(m + 1) / 2.0, norms=1.0,
        axpys=(m + 3) / 2.0,
        # Every MGS dot and norm is its own unfused reduction round (the
        # exact count is triangular; expected_counts pins syncs to
        # dots + norms).
        syncs=(m + 1) / 2.0 + 1.0, dot_rounds=(m + 1) / 2.0,
        fused_groups=float(m) + 5.0, setup_fused_groups=3.0,
        setup_spmvs=1.0, setup_norms=2.0, setup_syncs=2.0,
        # Per restart cycle: starting residual + norm, the solution update
        # through the preconditioner, and the boundary true residual + norm.
        cycle_length=m,
        cycle_spmvs=2.0, cycle_precond_applies=1.0, cycle_norms=2.0,
        cycle_axpys=float(m), cycle_syncs=2.0,
        # Restart boundary as component kernels: 2 SpMV + 1 precond + 2
        # reduction rounds + the Hessenberg solve / solution update pair.
        cycle_fused_groups=7.0,
        dots_grow_with_subspace=True,
        vectors=basis + (
            VectorSpec("r", "aux", touches=2.0),
            VectorSpec("x", "aux", touches=1.0),
        ),
        host_scratch=("gmres_work", "gmres_upd"),
    )


#: Pipelined solvers recompute their drifting recurrences from scratch
#: every this many iterations (residual replacement, Ghysels & Vanroose);
#: declared as the schedule's ``cycle_length`` so the GPU model amortises
#: the replacement kernels honestly.
REPLACEMENT_PERIOD = 8


def _pipelined_cg_schedule() -> OpSchedule:
    # Chronopoulos-Gear CG: the recurrence s = A p replaces nothing in
    # FLOP terms (still one SpMV per iteration, applied to u), but the
    # three reductions gamma = r.u, delta = w.u, and ||r||^2 = r.r fuse
    # into ONE round — versus classic CG's three.  The price: one extra
    # persistent vector (s), a heavier 4-way recurrence update, and a
    # residual-replacement pass (2 SpMVs) every REPLACEMENT_PERIOD trips
    # to curb recurrence drift.
    return OpSchedule(
        solver="pipelined_cg",
        spmvs=1.0, precond_applies=1.0, dots=3.0, norms=0.0, axpys=4.0,
        syncs=1.0, dot_rounds=1.0,
        # 1 SpMV + 1 precond + 1 fused reduction + 1 merged 4-way update.
        fused_groups=4.0, setup_fused_groups=6.0,
        setup_spmvs=2.0, setup_precond_applies=1.0, setup_dots=2.0,
        setup_norms=2.0, setup_syncs=3.0,
        verify_spmvs=1.0, verify_norms=1.0, verify_syncs=1.0,
        # Drifted systems rebuild u, w, gamma, alpha from the true
        # residual: one precond, one SpMV, one fused two-dot round.
        restart_spmvs=1.0, restart_precond_applies=1.0, restart_dots=2.0,
        restart_syncs=1.0,
        # Residual replacement: recompute r = b - A x and s = A p — as
        # component kernels, two SpMVs plus the b - A x subtraction.
        cycle_length=REPLACEMENT_PERIOD, cycle_spmvs=2.0,
        cycle_fused_groups=3.0,
        vectors=(
            VectorSpec("u", "spmv", touches=3.0),
            VectorSpec("w", "spmv", touches=3.0),
            VectorSpec("p", "aux", touches=3.0),
            VectorSpec("s", "aux", touches=3.0),
            VectorSpec("r", "aux", touches=3.0),
            VectorSpec("x", "aux", touches=2.0),
        ),
        host_scratch=("work", "scratch", "true_r"),
    )


def _pipelined_bicgstab_schedule() -> OpSchedule:
    # Same vector set and SpMV count as classic BiCGSTAB, but the six
    # reductions regroup into two rounds: r_hat.v alone (alpha must exist
    # before s can be formed), then a fused five-dot round (t.s, t.t,
    # r_hat.s, r_hat.t, s.s) from which omega, the rho recurrence
    # rho' = (r_hat.s) - omega (r_hat.t), and the residual norm
    # ||r||^2 = s.s - 2 omega t.s + omega^2 t.t all follow without
    # another pass.  The ||s|| mid-iteration early exit is given up —
    # it would cost a third round.
    v = [
        VectorSpec("p_hat", "spmv", touches=3.0),
        VectorSpec("v", "spmv", touches=3.0),
        VectorSpec("s_hat", "spmv", touches=3.0),
        VectorSpec("t", "spmv", touches=3.0),
        VectorSpec("r", "aux", touches=3.0),
        VectorSpec("r_hat", "aux", touches=3.0),
        VectorSpec("p", "aux", touches=3.0),
        VectorSpec("s", "aux", touches=3.0),
        VectorSpec("x", "aux", touches=3.0),
    ]
    return OpSchedule(
        solver="pipelined_bicgstab",
        spmvs=2.0, precond_applies=2.0, dots=6.0, norms=0.0, axpys=7.0,
        syncs=2.0, dot_rounds=2.0,
        # 2 SpMV + 2 precond + 2 reduction rounds + 4 vector updates.
        fused_groups=10.0, setup_fused_groups=5.0,
        setup_spmvs=1.0, setup_dots=1.0, setup_norms=2.0, setup_syncs=3.0,
        verify_spmvs=1.0, verify_norms=1.0, verify_syncs=1.0,
        # Drifted systems reseed the rho recurrence from the true residual.
        restart_dots=1.0, restart_syncs=1.0,
        vectors=tuple(v),
        host_scratch=("true_r", "work"),
    )


_FIXED_SCHEDULES = {
    "bicgstab": _bicgstab_schedule,
    "cg": _cg_schedule,
    "cgs": _cgs_schedule,
    "pipelined_bicgstab": _pipelined_bicgstab_schedule,
    "pipelined_cg": _pipelined_cg_schedule,
    "richardson": _richardson_schedule,
}


def iterative_solver_names() -> tuple[str, ...]:
    """Names of all iterative solvers with a declared schedule."""
    return tuple(sorted([*_FIXED_SCHEDULES, "gmres"]))


@lru_cache(maxsize=None)
def solver_schedule(solver: str, *, gmres_restart: int = 30) -> OpSchedule:
    """The declared :class:`OpSchedule` of a named solver.

    GMRES is parameterised by its restart length ``m``: the basis holds
    ``m + 1`` SpMV-operand vectors and the cycle work amortises over ``m``
    iterations.  Unknown names raise ``ValueError`` — the GPU model must
    never silently fall back to BiCGSTAB's numbers.

    Schedules are frozen value objects, so the registry is memoized:
    repeated lookups (the autotuning gym prices thousands of configs, each
    needing a schedule) return the same shared instance instead of
    rebuilding the dataclass every call.
    """
    if solver == "gmres":
        return _gmres_schedule(gmres_restart)
    try:
        return _FIXED_SCHEDULES[solver]()
    except KeyError:
        raise ValueError(
            f"unknown solver {solver!r}; choices: {sorted(_FIXED_SCHEDULES) + ['gmres']}"
        ) from None


# -- conformance instrumentation ---------------------------------------------


@dataclass
class OpCounts:
    """Measured batch-kernel invocation counts of one instrumented solve.

    ``dots`` counts individual dot products (a ``fused_dots`` call adds
    one per fused pair); ``syncs`` counts reduction *rounds* — a fused
    call adds exactly one, however many dots it carries.
    """

    spmvs: int = 0
    precond_applies: int = 0
    dots: int = 0
    norms: int = 0
    syncs: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "spmvs": self.spmvs,
            "precond_applies": self.precond_applies,
            "dots": self.dots,
            "norms": self.norms,
            "syncs": self.syncs,
        }


class CountingMatrix:
    """Transparent batch-matrix wrapper that counts SpMV invocations.

    ``apply`` and ``advanced_apply`` increment the shared counter (the
    residual helper routes through ``apply``, so true-residual checks are
    counted too); ``take_batch`` returns a counting wrapper around the
    gathered sub-batch sharing the same counter, so compaction does not
    lose events.  Every other attribute forwards to the wrapped matrix.
    """

    def __init__(self, inner, counts: OpCounts | None = None) -> None:
        self._inner = inner
        self.counts = counts if counts is not None else OpCounts()

    @property
    def shape(self):
        return self._inner.shape

    @property
    def format_name(self):
        return self._inner.format_name

    def apply(self, x, out=None):
        self.counts.spmvs += 1
        return self._inner.apply(x, out=out)

    def advanced_apply(self, alpha, x, beta, y, out=None):
        self.counts.spmvs += 1
        return self._inner.advanced_apply(alpha, x, beta, y, out=out)

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name == "take_batch":
            counts = self.counts

            def take_batch(indices, **kwargs):
                return CountingMatrix(attr(indices, **kwargs), counts)

            return take_batch
        return attr


class CountingPreconditioner:
    """Transparent preconditioner wrapper that counts ``apply`` calls.

    ``restrict`` (compaction) returns a counting wrapper sharing the same
    counter; ``generate`` unwraps counting matrices so the inner
    preconditioner's setup (e.g. Jacobi diagonal extraction) is not billed
    as solve-phase SpMV work.
    """

    def __init__(self, inner, counts: OpCounts | None = None) -> None:
        self._inner = inner
        self.counts = counts if counts is not None else OpCounts()

    @property
    def name(self):
        return self._inner.name

    def generate(self, matrix):
        if isinstance(matrix, CountingMatrix):
            matrix = matrix._inner
        self._inner = self._inner.generate(matrix)
        return self

    def apply(self, r, out=None):
        self.counts.precond_applies += 1
        return self._inner.apply(r, out=out)

    def restrict(self, indices):
        sub = self._inner.restrict(indices)
        if sub is None:
            return None
        return CountingPreconditioner(sub, self.counts)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@contextmanager
def count_batch_ops(counts: OpCounts):
    """Count reduction kernels (``batch_dot`` / ``batch_norm2`` /
    ``fused_dots``) invoked by the solvers.

    The solver modules import these reductions by name, so counting works
    by temporarily rebinding the module attributes; the originals are
    restored on exit even if the solve raises.  Each call is one sync
    round; a fused call contributes ``k`` dots but a single round.
    """
    from ..blas import fused_dots as _fused_dots
    from . import (
        base,
        bicgstab,
        cg,
        cgs,
        gmres,
        pipelined_bicgstab,
        pipelined_cg,
        richardson,
    )

    def counting_dot(a, b, out=None, *, dtype=None):
        counts.dots += 1
        counts.syncs += 1
        return _batch_dot(a, b, out, dtype=dtype)

    def counting_norm2(a, out=None, *, dtype=None):
        counts.norms += 1
        counts.syncs += 1
        return _batch_norm2(a, out, dtype=dtype)

    def counting_fused_dots(*pairs, out=None, dtype=None):
        counts.dots += len(pairs)
        counts.syncs += 1
        return _fused_dots(*pairs, out=out, dtype=dtype)

    saved = []
    modules = (
        base, bicgstab, cg, cgs, gmres, pipelined_bicgstab, pipelined_cg,
        richardson,
    )
    replacements = (
        ("batch_dot", counting_dot),
        ("batch_norm2", counting_norm2),
        ("fused_dots", counting_fused_dots),
    )
    for mod in modules:
        for name, repl in replacements:
            if hasattr(mod, name):
                saved.append((mod, name, getattr(mod, name)))
                setattr(mod, name, repl)
    try:
        yield counts
    finally:
        for mod, name, orig in saved:
            setattr(mod, name, orig)


def measure_op_counts(solver, matrix, b, x0=None, *, workspace=None):
    """Run one fully instrumented solve and return its measured op counts.

    Returns ``(counts, stats, result)``: the measured :class:`OpCounts`,
    the driver's :class:`OpStats` control-flow record, and the normal
    :class:`~repro.core.types.SolveResult`.  The instrumentation is
    transparent — the result is bit-identical to an uninstrumented solve.
    """
    counts = OpCounts()
    counting_matrix = CountingMatrix(matrix, counts)
    original = solver.preconditioner
    solver.preconditioner = CountingPreconditioner(original, counts)
    try:
        with count_batch_ops(counts):
            result = solver.solve(counting_matrix, b, x0, workspace=workspace)
    finally:
        solver.preconditioner = original
    return counts, solver.last_op_stats, result
