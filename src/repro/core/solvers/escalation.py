"""Escalation recovery: re-solve only the unhealthy systems, up a ladder.

The per-system health taxonomy (:mod:`repro.core.faults`) tells us *which*
systems of a batch broke down and *how*; this module acts on it.  The
:class:`EscalationSolver` first runs its primary solver over the full batch
— healthy systems therefore follow the exact same instruction stream as
the non-escalating path and finish **bit-identical** — then gathers the
unhealthy remainder into a compact sub-batch (the same ``take_batch``
gather :class:`~repro.core.compaction.BatchCompactor` uses) and re-solves
it with progressively stronger methods, a fixed ladder above the primary:

    primary (BiCGSTAB by default)  →  GMRES  →  fp64 iterative refinement
    →  banded direct

Every rung starts its re-solves from a **zero guess** — a corrupted warm
start (NaN-poisoned Picard iterate) is one of the faults escalation exists
to recover from, so no rung ever inherits the previous rung's iterate.
Rung results are accepted only if they meet the escalation-level stopping
criterion on the rung's own residual norms (direct solvers report
``converged=True`` unconditionally, so their results are *validated*, not
trusted).  The report records which rung rescued each system, and its
:meth:`~EscalationReport.rung_billing` feeds the GPU model's
:func:`~repro.gpu.kernel.escalation_work` so recovery work is charged
through the same :class:`~repro.core.solvers.schedule.OpSchedule`
machinery as the primary solve.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from ...utils.validation import check_positive
from ..batch_dense import batch_norm2
from ..convert import to_format
from ..faults import HEALTH_DTYPE, SolverHealth, health_counts
from ..stop import AbsoluteResidual, StoppingCriterion
from ..types import SolveResult
from .base import BatchedIterativeSolver
from .bicgstab import BatchBicgstab
from .direct_banded import BatchBandedLu, SingularBatchError
from .gmres import BatchGmres
from .refinement import RefinementSolver

__all__ = ["EscalationSolver", "EscalationReport", "RungAttempt"]


@dataclass
class RungAttempt:
    """One rung's re-solve attempt over the then-unhealthy sub-batch."""

    rung: int
    solver: str
    attempted: int
    rescued: int
    total_iterations: int


@dataclass
class EscalationReport:
    """Everything one escalated solve recorded about its recovery work.

    ``rescued_by[k]`` is 0 when the primary solver converged system ``k``,
    the 1-based rung index that rescued it otherwise, and -1 when no rung
    recovered it.
    """

    ladder: tuple[str, ...]
    rescued_by: np.ndarray
    health_before: np.ndarray
    health_after: np.ndarray
    rung_attempts: list[RungAttempt] = field(default_factory=list)

    @property
    def num_rescued(self) -> int:
        """Systems recovered by any rung above the primary."""
        return int(np.count_nonzero(self.rescued_by > 0))

    @property
    def num_unrecovered(self) -> int:
        return int(np.count_nonzero(self.rescued_by < 0))

    def rung_billing(self) -> list[tuple[str, int, int]]:
        """``(solver_name, total_iterations, num_systems)`` per attempted
        rung — the input :func:`repro.gpu.kernel.escalation_work` expects."""
        return [
            (a.solver, a.total_iterations, a.attempted)
            for a in self.rung_attempts
            if a.attempted
        ]

    def summary(self) -> str:
        lines = [
            f"escalation over {self.rescued_by.size} systems: "
            f"{health_counts(self.health_before)} -> "
            f"{health_counts(self.health_after)}"
        ]
        for a in self.rung_attempts:
            lines.append(
                f"  rung {a.rung} ({a.solver}): rescued {a.rescued}/"
                f"{a.attempted} ({a.total_iterations} iterations)"
            )
        return "\n".join(lines)


class EscalationSolver:
    """Primary solve plus health-driven re-solve ladder.

    Parameters
    ----------
    primary:
        The solver run over the full batch (used as-is).  When omitted, a
        :class:`~repro.core.solvers.bicgstab.BatchBicgstab` is built from
        ``preconditioner`` / ``criterion`` / ``max_iter``.  The rungs above
        it are fixed: GMRES, pure-fp64 iterative refinement, then banded LU
        with a per-system singular fallback; each re-solves only the
        still-unhealthy systems.
    preconditioner / max_iter:
        Configuration of the internally built iterative rungs.
    criterion:
        The escalation-level stopping criterion; each built rung gets its
        own deep copy, and *every* rung's results (including the direct
        rung's) are validated against it before being accepted.  Defaults
        to the paper's ``AbsoluteResidual(1e-10)``.
    """

    name = "escalation"

    def __init__(
        self,
        primary=None,
        *,
        preconditioner=None,
        criterion: StoppingCriterion | None = None,
        max_iter: int = 500,
    ) -> None:
        self.criterion = criterion or AbsoluteResidual(1e-10)
        self.max_iter = int(check_positive(max_iter, "max_iter"))
        if primary is None:
            primary = BatchBicgstab(
                preconditioner=preconditioner,
                criterion=copy.deepcopy(self.criterion),
                max_iter=self.max_iter,
            )
        self.rungs = (
            primary,
            BatchGmres(
                preconditioner=preconditioner,
                criterion=copy.deepcopy(self.criterion),
                max_iter=self.max_iter,
            ),
            RefinementSolver(
                preconditioner=preconditioner,
                criterion=copy.deepcopy(self.criterion),
                precision="fp64",
                inner_max_iter=self.max_iter,
            ),
            BatchBandedLu(),
        )
        self.ladder = tuple(r.name for r in self.rungs)
        #: :class:`EscalationReport` of the most recent solve.
        self.last_report: EscalationReport | None = None

    # -- public API -----------------------------------------------------------

    def solve(
        self,
        matrix,
        b: np.ndarray,
        x0: np.ndarray | None = None,
        *,
        workspace=None,
    ) -> SolveResult:
        """Solve the batch; escalate whatever the primary left unhealthy."""
        primary = self.rungs[0]
        if workspace is not None and isinstance(
            primary, (BatchedIterativeSolver, RefinementSolver)
        ):
            res = primary.solve(matrix, b, x0, workspace=workspace)
        else:
            res = primary.solve(matrix, b, x0)

        health_before = res.health.copy()
        health = health_before.copy()
        x = res.x.copy()
        iterations = res.iterations.copy()
        norms = res.residual_norms.copy()
        need = ~res.converged.copy()
        rescued_by = np.where(res.converged, 0, -1).astype(np.int16)
        attempts: list[RungAttempt] = []

        b = np.asarray(b)
        gatherable = matrix if hasattr(matrix, "take_batch") else to_format(matrix, "csr")

        for rung_idx, rung in enumerate(self.rungs[1:], start=1):
            if not np.any(need):
                break
            idx = np.flatnonzero(need)
            sub_matrix = gatherable.take_batch(idx)
            sub_b = np.ascontiguousarray(b[idx])
            rung_res = self._solve_rung(rung, sub_matrix, sub_b)
            ok = self._accept(rung_res, sub_b)
            gidx = idx[ok]
            if gidx.size:
                x[gidx] = rung_res.x[ok]
                norms[gidx] = rung_res.residual_norms[ok]
                health[gidx] = SolverHealth.CONVERGED
                rescued_by[gidx] = rung_idx
                need[gidx] = False
            # Attempted work is billed on every attempted system, rescued
            # or not — the GPU pays for the re-solve either way.
            iterations[idx] += rung_res.iterations
            attempts.append(
                RungAttempt(
                    rung=rung_idx,
                    solver=rung.name,
                    attempted=int(idx.size),
                    rescued=int(gidx.size),
                    total_iterations=int(rung_res.iterations.sum()),
                )
            )

        converged = ~need
        self.last_report = EscalationReport(
            ladder=self.ladder,
            rescued_by=rescued_by,
            health_before=health_before,
            health_after=health.astype(HEALTH_DTYPE),
            rung_attempts=attempts,
        )
        return SolveResult(
            x=x,
            iterations=iterations,
            residual_norms=norms,
            converged=converged,
            solver=self.name,
            format=getattr(matrix, "format_name", "unknown"),
            health=health,
        )

    # -- rung execution -------------------------------------------------------

    def _solve_rung(self, rung, sub_matrix, sub_b: np.ndarray) -> SolveResult:
        """Run one rung from a zero guess; singular direct systems fall
        back to one-at-a-time solves so one singular system cannot veto
        the rest of the sub-batch."""
        try:
            with np.errstate(all="ignore"):
                return rung.solve(sub_matrix, sub_b)
        except SingularBatchError:
            return self._solve_one_by_one(rung, sub_matrix, sub_b)

    @staticmethod
    def _solve_one_by_one(rung, sub_matrix, sub_b: np.ndarray) -> SolveResult:
        nb, n = sub_b.shape
        x = np.zeros((nb, n), dtype=np.float64)
        iterations = np.zeros(nb, dtype=np.int64)
        norms = batch_norm2(sub_b)  # zero-guess residual for failed systems
        converged = np.zeros(nb, dtype=bool)
        for k in range(nb):
            one = np.array([k])
            try:
                with np.errstate(all="ignore"):
                    res_k = rung.solve(sub_matrix.take_batch(one), sub_b[one])
            except SingularBatchError:
                continue
            x[k] = res_k.x[0]
            iterations[k] = res_k.iterations[0]
            norms[k] = res_k.residual_norms[0]
            converged[k] = res_k.converged[0]
        return SolveResult(
            x=x,
            iterations=iterations,
            residual_norms=norms,
            converged=converged,
            solver=rung.name,
            format=getattr(sub_matrix, "format_name", "unknown"),
        )

    def _accept(self, rung_res: SolveResult, sub_b: np.ndarray) -> np.ndarray:
        """Validate rung results against the escalation-level criterion."""
        crit = copy.deepcopy(self.criterion)
        bnorm = batch_norm2(sub_b)
        # Zero-guess semantics: the initial residual of a rung solve is b
        # itself, which is what relative criteria scale against.
        crit.initialize(bnorm, bnorm)
        norms = rung_res.residual_norms
        return rung_res.converged & np.isfinite(norms) & crit.check(norms)
