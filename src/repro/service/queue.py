"""Admission queue of the solver service: requests, tickets, backpressure.

Tenants submit :class:`SolveRequest`\\ s — a batch-matrix handle, right-hand
sides, a tolerance, an optional deadline and a tenant id — and receive a
:class:`SolveTicket` they can ``await``.  The :class:`AdmissionQueue` is the
bounded buffer between the tenants and the scheduler: per-tenant FIFO lanes
preserve each tenant's submission order, while the QoS layer's weighted
fair scheduler decides which lane drains next.  The queue never drops
requests itself — shedding and degradation are *admission* decisions taken
by :class:`repro.service.qos.QosPolicy` before a request enters.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AdmissionQueue",
    "RequestShed",
    "SolveRequest",
    "SolveTicket",
    "TicketResult",
]


class RequestShed(RuntimeError):
    """Raised when awaiting a ticket the QoS layer refused to admit."""


@dataclass
class SolveRequest:
    """One tenant's solve request.

    Attributes
    ----------
    matrix:
        Any batch-matrix format (CSR / ELL / DIA / dense) holding the
        request's ``num_systems`` systems.
    b:
        Right-hand sides, shape ``(num_systems, num_rows)``.
    tenant:
        Tenant id for fairness, deadlines and health aggregation.
    tolerance:
        Absolute residual tolerance of the solve (part of the coalescing
        compatibility key — systems in one hardware batch share one
        stopping criterion, exactly as a direct ``solve()`` would).
    solver:
        Requested solver family; the coalescer may substitute the
        pipelined sibling when :func:`repro.gpu.tuning.tune_for_matrix`
        prices it cheaper at the coalescing batch size.
    deadline:
        Absolute virtual-time deadline in seconds, or ``None`` for the
        tenant's default (QoS policy).
    allow_degrade:
        Whether the QoS layer may serve this request on the degraded
        fp32/refinement precision ladder under overload.
    request_id, submit_time, degraded:
        Filled in by the service at admission.
    """

    matrix: object
    b: np.ndarray
    tenant: str = "default"
    tolerance: float = 1e-10
    solver: str = "bicgstab"
    deadline: float | None = None
    allow_degrade: bool = True
    request_id: int = -1
    submit_time: float = math.nan
    degraded: bool = False

    @property
    def num_systems(self) -> int:
        """Systems in this request's batch."""
        return int(self.b.shape[0])

    @property
    def num_rows(self) -> int:
        """Rows per system."""
        return int(self.b.shape[1])


@dataclass
class TicketResult:
    """What a fulfilled :class:`SolveTicket` resolves to.

    Solution arrays are the request's slice of the coalesced batch solve —
    bit-identical to a direct ``solve()`` of the same systems for
    non-degraded requests.  Timing fields are virtual seconds.
    """

    x: np.ndarray
    iterations: np.ndarray
    residual_norms: np.ndarray
    converged: np.ndarray
    health: np.ndarray
    health_counts: dict
    #: Aggregated health histogram of *all* systems this request's tenant
    #: has completed so far (this request included) — the service-level
    #: analogue of :meth:`repro.dist.DistributedRun.health_counts`.
    tenant_health_counts: dict
    submit_time: float
    dispatch_time: float
    finish_time: float
    deadline: float | None
    deadline_missed: bool
    degraded: bool
    batch_id: int
    batch_size: int
    num_ranks: int

    @property
    def latency(self) -> float:
        """Virtual seconds from submission to result delivery."""
        return self.finish_time - self.submit_time

    @property
    def queue_delay(self) -> float:
        """Virtual seconds the request waited before its batch dispatched."""
        return self.dispatch_time - self.submit_time


class SolveTicket:
    """Awaitable handle for a submitted request."""

    def __init__(self, request: SolveRequest) -> None:
        self.request = request
        self._future: asyncio.Future = asyncio.get_running_loop().create_future()

    @property
    def done(self) -> bool:
        return self._future.done()

    @property
    def shed(self) -> bool:
        """Whether the QoS layer refused this request."""
        return (
            self._future.done()
            and self._future.exception() is not None
            and isinstance(self._future.exception(), RequestShed)
        )

    def fulfill(self, result: TicketResult) -> None:
        if not self._future.done():
            self._future.set_result(result)

    def reject(self, reason: str) -> None:
        if not self._future.done():
            self._future.set_exception(RequestShed(reason))

    def fail(self, exc: BaseException) -> None:
        """Resolve with the error the request's own solve raised."""
        if not self._future.done():
            self._future.set_exception(exc)

    async def result(self) -> TicketResult:
        """Await the solve outcome; raises :class:`RequestShed` if refused,
        or the error the request's own solve raised."""
        return await self._future

    async def result_or_none(self) -> TicketResult | None:
        """Await the outcome, mapping a shed request to ``None``."""
        try:
            return await self._future
        except RequestShed:
            return None


@dataclass
class AdmissionQueue:
    """Bounded multi-tenant FIFO feeding the scheduler.

    Attributes
    ----------
    capacity:
        Maximum queued *requests* across all tenants (the QoS layer sheds
        above it; the queue itself raises if overfilled, as a safety net).
    """

    capacity: int = 256
    _lanes: dict[str, deque] = field(default_factory=dict)
    _size: int = 0
    #: The future the scheduler is parked on (see :meth:`park`).
    _waiter: asyncio.Future | None = field(default=None, init=False, repr=False)

    def __len__(self) -> int:
        return self._size

    @property
    def tenants_waiting(self) -> tuple[str, ...]:
        """Tenants with at least one queued request (insertion order)."""
        return tuple(t for t, lane in self._lanes.items() if lane)

    def put(self, request: SolveRequest, ticket: SolveTicket) -> None:
        """Enqueue an admitted request (QoS checks happen before this)."""
        if self._size >= self.capacity:
            raise OverflowError(
                f"admission queue over capacity ({self.capacity}); the QoS "
                "layer should have shed this request"
            )
        self._lanes.setdefault(request.tenant, deque()).append((request, ticket))
        self._size += 1
        waiter, self._waiter = self._waiter, None
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def park(self, waiter: asyncio.Future) -> asyncio.Future:
        """Park the scheduler on ``waiter``; the next :meth:`put` resolves it.

        ``waiter`` is the scheduler's flush timer (a
        :meth:`~repro.service.clock.VirtualClock.sleep_until` future) or a
        bare future when no flush is pending, so one future wakes the
        scheduler on whichever comes first.  Returns ``waiter``.
        """
        self._waiter = waiter
        return waiter

    def pop_tenant(self, tenant: str) -> tuple[SolveRequest, SolveTicket]:
        """Dequeue the oldest request of one tenant's lane."""
        item = self._lanes[tenant].popleft()
        self._size -= 1
        return item

    def drain(self, scheduler) -> list[tuple[SolveRequest, SolveTicket]]:
        """Dequeue everything, ordered by the weighted fair ``scheduler``.

        The scheduler's :meth:`~repro.service.qos.FairScheduler.pick` is
        consulted once per request, so an overloaded tenant cannot starve a
        light one even inside a single drain.
        """
        out = []
        while self._size:
            tenant = scheduler.pick(self.tenants_waiting)
            item = self.pop_tenant(tenant)
            scheduler.charge(tenant, item[0].num_systems)
            out.append(item)
        return out
