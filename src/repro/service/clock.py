"""Deterministic virtual time for the asyncio solver service.

The service's latency and throughput numbers come from the *modelled* GPU
wall-clock, not the host's — a batch that the cost model bills at 1.1 ms
occupies the simulated device for exactly 1.1 ms of virtual time.  To keep
every schedule decision reproducible (an acceptance criterion: identical
traffic seeds must produce identical dispatch traces), no coroutine in the
service ever touches the host clock.  All waiting goes through
:class:`VirtualClock`:

* :meth:`VirtualClock.sleep` / :meth:`sleep_until` park a coroutine on a
  timer heap ordered by ``(time, sequence)`` — ties resolve in creation
  order, never by wall-clock races;
* :meth:`VirtualClock.drive` is the single place time advances: it lets
  every runnable coroutine run until the event loop is quiescent, then pops
  the earliest timer and jumps ``now`` forward to it.

Within one event-loop pass CPython's asyncio is already deterministic (a
FIFO ready queue); the virtual clock removes the only remaining sources of
nondeterminism — real timers and wall-clock reads — so the whole service
simulation is a pure function of its inputs and seeds.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools

__all__ = ["VirtualClock"]

#: Drain passes used when the running loop does not expose its ready queue
#: (non-CPython event loops); each pass lets one scheduling round run.
_DRAIN_FALLBACK_PASSES = 64


class VirtualClock:
    """A discrete-event virtual clock driving an asyncio simulation.

    Parameters
    ----------
    start:
        Initial virtual time in seconds.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._timers: list[tuple[float, int, asyncio.Future]] = []
        self._seq = itertools.count()

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- waiting -------------------------------------------------------------

    def sleep_until(self, when: float) -> asyncio.Future:
        """A future that resolves when virtual time reaches ``when``.

        Times in the past resolve at the *current* time on the next drive
        step (the clock never runs backwards).  The owner may cancel the
        future or resolve it early (a waiter woken by other work); a timer
        that is already done when popped is skipped without advancing
        ``now``.
        """
        fut = asyncio.get_running_loop().create_future()
        heapq.heappush(
            self._timers, (max(float(when), self._now), next(self._seq), fut)
        )
        return fut

    def sleep(self, delay: float) -> asyncio.Future:
        """A future that resolves ``delay`` virtual seconds from now."""
        return self.sleep_until(self._now + max(float(delay), 0.0))

    # -- driving -------------------------------------------------------------

    async def _drain(self) -> None:
        """Yield until every runnable coroutine has run to its next await.

        CPython's event loop exposes its ready queue as ``loop._ready``;
        when present the drain is exact (loop until no callback other than
        this coroutine's own wake-up is pending).  Otherwise a fixed number
        of scheduling passes is used — still deterministic, since the pass
        count depends only on program state.
        """
        loop = asyncio.get_running_loop()
        ready = getattr(loop, "_ready", None)
        if ready is None:
            for _ in range(_DRAIN_FALLBACK_PASSES):
                await asyncio.sleep(0)
            return
        while True:
            await asyncio.sleep(0)
            if not ready:
                return

    async def drive(self, stop: "asyncio.Future | asyncio.Task"):
        """Advance virtual time until ``stop`` completes; return its result.

        The driver alternates two phases: drain (every runnable coroutine
        runs until blocked) and fire (the earliest pending timer resolves
        and ``now`` jumps to it).  Firing one timer at a time keeps
        simultaneous timers ordered by creation sequence; timers already
        done (cancelled or resolved early) are dropped unfired.

        Raises ``RuntimeError`` when the simulation deadlocks: ``stop`` is
        still pending but no timer remains to wake anything up.
        """
        stop = asyncio.ensure_future(stop)
        while True:
            await self._drain()
            if stop.done():
                return stop.result()
            while self._timers and self._timers[0][2].done():
                heapq.heappop(self._timers)
            if not self._timers:
                stop.cancel()
                await self._drain()
                raise RuntimeError(
                    "virtual clock deadlock: the stop condition is pending "
                    "but no timers remain — some coroutine is waiting on an "
                    "event that nothing will ever set"
                )
            when, _, fut = heapq.heappop(self._timers)
            self._now = max(self._now, when)
            fut.set_result(None)
