"""The solver service: admission -> fair scheduling -> coalescing -> dispatch.

:class:`SolverService` wires the service layers into two long-running
coroutines on one asyncio loop, all timed by the shared
:class:`~repro.service.clock.VirtualClock`:

* the **scheduler loop** parks on one future -- the virtual-clock timer of
  the coalescer's next flush, or a bare future when nothing is pending --
  which the admission queue resolves early on a new admission; awake, it
  drains the queue in weighted-fair order into the coalescer and forwards
  due batches to the dispatch backlog;
* the **dispatch loop** executes backlogged batches one at a time through
  the :class:`~repro.service.dispatcher.Dispatcher` — the virtual node is
  a serial resource, exactly like a busy GPU stream.  A batch whose solve
  raises is re-run request by request, so only the request at fault
  fails, with the error its solve raised.

``submit()`` is the tenant-facing entry point: it applies the QoS
admission verdict (admit / degrade / shed) against the service's total
backlog, stamps the request, and returns an awaitable
:class:`~repro.service.queue.SolveTicket`.  Everything downstream of
admission preserves *request order within a batch*: results scatter back
through per-request slices of the batch axis, so tickets resolve with
their own systems no matter which systems converged first inside the
kernel.
"""

from __future__ import annotations

import asyncio
from collections import Counter, deque
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.faults import health_counts
from ..core.solvers.schedule import solver_schedule
from ..core.spmv import BatchMatrix
from ..dist.multi_gpu import GpuNode, SUMMIT_NODE
from ..utils.validation import as_value_array, check_non_negative, check_shape
from .clock import VirtualClock
from .coalescer import CoalescePolicy, Coalescer, compat_key
from .dispatcher import DispatchReport, Dispatcher
from .qos import DEGRADE, SHED, FairScheduler, QosPolicy
from .queue import AdmissionQueue, SolveRequest, SolveTicket, TicketResult

__all__ = ["ServiceReport", "SolverService"]


@dataclass
class ServiceReport:
    """Aggregate metrics of one service run (all times virtual seconds)."""

    submitted: int = 0
    admitted: int = 0
    degraded: int = 0
    shed: int = 0
    completed: int = 0
    completed_systems: int = 0
    deadline_misses: int = 0
    batches: int = 0
    compaction_events: int = 0
    device_busy_s: float = 0.0
    first_submit: float = float("inf")
    last_finish: float = 0.0
    latencies: list = field(default_factory=list)
    queue_delays: list = field(default_factory=list)
    batch_sizes: list = field(default_factory=list)
    flush_reasons: Counter = field(default_factory=Counter)
    tenant_completed: Counter = field(default_factory=Counter)
    tenant_shed: Counter = field(default_factory=Counter)
    tenant_health: dict = field(default_factory=dict)
    #: Tickets failed with the error their own solve raised, in total, per
    #: tenant and per exception class name.
    failed: int = 0
    tenant_failed: Counter = field(default_factory=Counter)
    failure_types: Counter = field(default_factory=Counter)

    @property
    def makespan_s(self) -> float:
        """First submission to last completion."""
        if self.completed == 0:
            return 0.0
        return self.last_finish - self.first_submit

    @property
    def throughput(self) -> float:
        """Completed systems per virtual second of makespan."""
        span = self.makespan_s
        return self.completed_systems / span if span > 0 else 0.0

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of completed requests that missed their deadline."""
        return self.deadline_misses / self.completed if self.completed else 0.0

    @property
    def mean_batch_size(self) -> float:
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "degraded": self.degraded,
            "shed": self.shed,
            "completed": self.completed,
            "completed_systems": self.completed_systems,
            "deadline_misses": self.deadline_misses,
            "deadline_miss_rate": self.deadline_miss_rate,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "compaction_events": self.compaction_events,
            "device_busy_s": self.device_busy_s,
            "makespan_s": self.makespan_s,
            "throughput_systems_per_s": self.throughput,
            "flush_reasons": dict(self.flush_reasons),
            "tenant_completed": dict(self.tenant_completed),
            "tenant_shed": dict(self.tenant_shed),
            "tenant_health": {t: dict(c) for t, c in self.tenant_health.items()},
            "failed": self.failed,
            "tenant_failed": dict(self.tenant_failed),
            "failure_types": dict(self.failure_types),
        }


class SolverService:
    """Async solver-as-a-service front end over the batched solvers.

    Parameters
    ----------
    clock:
        Virtual clock shared with the traffic source (one is created when
        omitted).
    qos:
        Admission/fairness/deadline policy.
    coalesce:
        Batching policy (``CoalescePolicy(naive=True)`` gives the
        per-request baseline).
    node, num_ranks:
        Simulated execution target passed to the dispatcher.
    max_iter:
        Solver iteration cap.
    """

    def __init__(
        self,
        *,
        clock: VirtualClock | None = None,
        qos: QosPolicy | None = None,
        coalesce: CoalescePolicy | None = None,
        node: GpuNode = SUMMIT_NODE,
        num_ranks: int = 1,
        max_iter: int = 500,
    ) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self.qos = qos if qos is not None else QosPolicy()
        policy = coalesce if coalesce is not None else CoalescePolicy()
        self.scheduler = FairScheduler(self.qos.weights())
        self.queue = AdmissionQueue(capacity=self.qos.capacity)
        self.dispatcher = Dispatcher(
            self.clock,
            node=node,
            num_ranks=num_ranks,
            max_iter=max_iter,
            degraded_precision=self.qos.degraded_precision,
        )
        self.coalescer = Coalescer(
            policy,
            node.gpu,
            deadline_headroom_s=self.qos.deadline_headroom_s,
            service_estimate=self.dispatcher.estimate_service_time,
        )
        self.report = ServiceReport()
        self._backlog: deque = deque()
        self._dispatch_wake: asyncio.Event | None = None
        self._inflight = 0  # requests flushed but not yet completed
        self._next_request_id = 0
        self._tasks: list[asyncio.Task] = []
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def _ensure_running(self) -> None:
        if self._tasks or self._closed:
            return
        self._dispatch_wake = asyncio.Event()
        self._tasks = [
            asyncio.ensure_future(self._scheduler_loop()),
            asyncio.ensure_future(self._dispatch_loop()),
        ]

    def close(self) -> None:
        """Cancel the service loops (pending tickets are rejected)."""
        self._closed = True
        for task in self._tasks:
            task.cancel()
        self._tasks = []

    # -- submission ----------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests admitted but not yet completed (the backpressure signal)."""
        return len(self.queue) + self.coalescer.pending_requests + self._inflight

    def submit(self, request: SolveRequest) -> SolveTicket:
        """Admit (or degrade, or shed) one request; returns its ticket.

        A matrix that is not a square :class:`~repro.core.spmv.BatchMatrix`
        (``TypeError`` / ``ValueError``), a malformed right-hand side, an
        unknown solver or a negative/NaN tolerance (``ValueError``) raises
        here, on the caller: admitted, it would only fail inside the
        service loops and leave every other tenant's ticket unresolved.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        if not isinstance(request.matrix, BatchMatrix):
            raise TypeError(
                "matrix must be a BatchMatrix (csr, ell, dia or dense), got "
                f"{type(request.matrix).__name__}"
            )
        request.matrix.shape.require_square()
        b = np.asarray(request.b)
        as_value_array(b, "b", ndim=2, dtype=b.dtype)
        check_shape(b, (request.matrix.num_batch, request.matrix.num_rows), "b")
        solver_schedule(request.solver)
        check_non_negative(request.tolerance, "tolerance")
        self._ensure_running()
        now = self.clock.now
        request.request_id = self._next_request_id
        self._next_request_id += 1
        request.submit_time = now
        request.deadline = self.qos.deadline_for(
            request.tenant, now, request.deadline
        )
        self.report.submitted += 1
        self.report.first_submit = min(self.report.first_submit, now)

        ticket = SolveTicket(request)
        verdict = self.qos.admission(
            self.pending, allow_degrade=request.allow_degrade
        )
        if verdict == SHED:
            self.report.shed += 1
            self.report.tenant_shed[request.tenant] += 1
            ticket.reject(
                f"request {request.request_id} shed: service backlog "
                f"{self.pending} at capacity {self.qos.capacity}"
            )
            return ticket
        if verdict == DEGRADE:
            request.degraded = True
            self.report.degraded += 1
        self.report.admitted += 1
        self.queue.put(request, ticket)
        return ticket

    def direct_solve(self, request: SolveRequest):
        """The reference solve the service path must match bit-for-bit.

        Runs the request alone, immediately, with exactly the solver
        configuration its coalescing group would use (same variant choice,
        criterion, preconditioner and compaction threshold).
        """
        key = compat_key(request)
        variant = self.coalescer.solver_variant(key, request.matrix)
        solver = self.dispatcher.solver_for(key, variant)
        return solver.solve(request.matrix, request.b)

    # -- service loops -------------------------------------------------------

    async def _scheduler_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if not len(self.queue):
                # Park on one future: the next flush's timer, or a bare
                # future when nothing is pending; a put resolves it early.
                when = self.coalescer.next_flush_time()
                await self.queue.park(
                    loop.create_future() if when is None
                    else self.clock.sleep_until(when)
                )
            now = self.clock.now
            batches = []
            for request, ticket in self.queue.drain(self.scheduler):
                batches.extend(self.coalescer.add(request, ticket, now))
            batches.extend(self.coalescer.due(now))
            for batch in batches:
                self._inflight += len(batch.requests)
                self._backlog.append(batch)
            if batches:
                self._dispatch_wake.set()

    async def _dispatch_loop(self) -> None:
        while True:
            await self._dispatch_wake.wait()
            self._dispatch_wake.clear()
            while self._backlog:
                batch = self._backlog.popleft()
                try:
                    report = await self.dispatcher.execute(batch)
                except Exception as exc:
                    self._isolate_failure(batch, exc)
                    continue
                self._complete(batch, report)

    def _isolate_failure(self, batch, exc: Exception) -> None:
        """Re-run a failed batch request by request, failing only the culprit.

        Systems are independent and the solver variant is cached per key,
        so a healthy request re-run alone is bit-identical to
        :meth:`direct_solve`.
        """
        if len(batch.requests) == 1:
            self._inflight -= 1
            self.report.failed += 1
            self.report.tenant_failed[batch.requests[0].tenant] += 1
            self.report.failure_types[type(exc).__name__] += 1
            batch.tickets[0].fail(exc)
            return
        self._backlog.extendleft(
            replace(batch, requests=[request], tickets=[ticket])
            for request, ticket in reversed(
                list(zip(batch.requests, batch.tickets))
            )
        )

    # -- completion ----------------------------------------------------------

    def _complete(self, batch, report: DispatchReport) -> None:
        result = report.result
        finish = report.finish_time
        self.report.batches += 1
        self.report.batch_sizes.append(
            sum(r.num_systems for r in batch.requests)
        )
        self.report.flush_reasons[batch.flush_reason] += 1
        self.report.compaction_events += report.compaction_events
        self.report.device_busy_s += report.modelled_time_s
        self.report.last_finish = max(self.report.last_finish, finish)

        for request, ticket, sl in zip(
            batch.requests, batch.tickets, report.slices
        ):
            health = result.health[sl]
            counts = health_counts(health)
            tenant_tally = self.report.tenant_health.setdefault(
                request.tenant, Counter()
            )
            tenant_tally.update(counts)
            missed = (
                request.deadline is not None and finish > request.deadline
            )
            if missed:
                self.report.deadline_misses += 1
            self._inflight -= 1
            self.report.completed += 1
            self.report.completed_systems += request.num_systems
            self.report.tenant_completed[request.tenant] += 1
            outcome = TicketResult(
                x=result.x[sl],
                iterations=result.iterations[sl],
                residual_norms=result.residual_norms[sl],
                converged=result.converged[sl],
                health=health,
                health_counts=counts,
                tenant_health_counts=dict(tenant_tally),
                submit_time=request.submit_time,
                dispatch_time=report.dispatch_time,
                finish_time=finish,
                deadline=request.deadline,
                deadline_missed=missed,
                degraded=request.degraded,
                batch_id=report.batch_id,
                batch_size=int(result.x.shape[0]),
                num_ranks=report.num_ranks,
            )
            self.report.latencies.append(outcome.latency)
            self.report.queue_delays.append(outcome.queue_delay)
            ticket.fulfill(outcome)
