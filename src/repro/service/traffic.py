"""Seeded traffic generation and the synchronous simulation entry point.

Two arrival processes drive the service benchmarks, both pure functions of
their seed:

* ``"poisson"`` — memoryless arrivals at a constant mean rate, the
  standard open-loop load model;
* ``"bursty"`` — a two-state Markov-modulated Poisson process (MMPP):
  the source alternates between a quiet state and a burst state with
  exponentially distributed dwell times, stressing the coalescer's
  max-wait/max-batch trade far harder than a constant rate does.

The workload itself is a family of diagonally-dominant tridiagonal systems
(shared ELL pattern, per-request values) — small enough that thousands of
requests solve in seconds of host time, while the *modelled* GPU cost per
batch is nearly batch-size independent, which is precisely the regime where
coalescing pays.

:func:`serve_traffic` is the synchronous wrapper: it builds the virtual
clock, the service and the open-loop client, and drives the whole
simulation to completion with :meth:`~repro.service.clock.VirtualClock.drive`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.batch_ell import PAD_COL, BatchEll
from ..core.types import INDEX_DTYPE
from .clock import VirtualClock
from .coalescer import CoalescePolicy
from .qos import QosPolicy
from .queue import SolveRequest, TicketResult
from .service import ServiceReport, SolverService

__all__ = [
    "TrafficPattern",
    "WorkloadSpec",
    "arrival_times",
    "make_request",
    "run_traffic",
    "serve_traffic",
    "tridiag_template",
]


@dataclass(frozen=True)
class TrafficPattern:
    """A seeded arrival process.

    Attributes
    ----------
    kind:
        ``"poisson"`` or ``"bursty"`` (two-state MMPP).
    rate_hz:
        Mean arrival rate (the quiet-state rate for ``"bursty"``).
    duration_s:
        Length of the arrival window in virtual seconds.
    burst_rate_hz:
        Burst-state arrival rate (``"bursty"`` only).
    mean_dwell_s:
        Mean dwell time in each MMPP state (``"bursty"`` only).
    seed:
        Seed of the arrival process (request contents use ``seed + 1``).
    """

    kind: str = "poisson"
    rate_hz: float = 20_000.0
    duration_s: float = 0.05
    burst_rate_hz: float = 80_000.0
    mean_dwell_s: float = 5e-3
    seed: int = 2022

    def __post_init__(self) -> None:
        if self.kind not in ("poisson", "bursty"):
            raise ValueError(f"unknown traffic kind {self.kind!r}")
        if self.rate_hz <= 0 or self.duration_s <= 0:
            raise ValueError("rate_hz and duration_s must be positive")


def arrival_times(pattern: TrafficPattern) -> np.ndarray:
    """Sorted virtual-time arrival instants of one traffic realisation."""
    rng = np.random.default_rng(pattern.seed)
    out = []
    t = 0.0
    if pattern.kind == "poisson":
        while True:
            t += rng.exponential(1.0 / pattern.rate_hz)
            if t >= pattern.duration_s:
                break
            out.append(t)
    else:
        rate = pattern.rate_hz
        state_end = rng.exponential(pattern.mean_dwell_s)
        while t < pattern.duration_s:
            gap = rng.exponential(1.0 / rate)
            if t + gap >= state_end:
                # Jump to the state boundary and toggle quiet <-> burst;
                # the memoryless property makes discarding the gap exact.
                t = state_end
                rate = (
                    pattern.burst_rate_hz
                    if rate == pattern.rate_hz
                    else pattern.rate_hz
                )
                state_end = t + rng.exponential(pattern.mean_dwell_s)
                continue
            t += gap
            if t < pattern.duration_s:
                out.append(t)
    return np.asarray(out, dtype=np.float64)


def tridiag_template(num_rows: int) -> np.ndarray:
    """Shared ELL column indices of the tridiagonal pattern, ``(3, n)``."""
    n = int(num_rows)
    rows = np.arange(n)
    col_idxs = np.stack([rows - 1, rows, rows + 1]).astype(INDEX_DTYPE)
    col_idxs[0, 0] = PAD_COL
    col_idxs[2, n - 1] = PAD_COL
    return col_idxs


@dataclass(frozen=True)
class WorkloadSpec:
    """What each arriving request asks for.

    Attributes
    ----------
    num_rows:
        System size of the tridiagonal workload.
    systems_choices:
        Candidate per-request batch sizes, sampled uniformly.
    tolerance, solver:
        Solve configuration (part of the coalescing key).
    tenants:
        ``(name, share)`` pairs; each arrival picks a tenant with
        probability proportional to its share.
    """

    num_rows: int = 128
    systems_choices: tuple[int, ...] = (1,)
    tolerance: float = 1e-8
    solver: str = "bicgstab"
    tenants: tuple[tuple[str, float], ...] = (("default", 1.0),)


#: Template cache so every generated request shares the same index array
#: (keeps the pattern-fingerprint cache hot; correctness only needs equal
#: *contents*).
_TEMPLATES: dict[int, np.ndarray] = {}


def make_request(
    rng: np.random.Generator, spec: WorkloadSpec, tenant: str
) -> SolveRequest:
    """One random diagonally-dominant tridiagonal request."""
    n = spec.num_rows
    col_idxs = _TEMPLATES.get(n)
    if col_idxs is None:
        col_idxs = _TEMPLATES[n] = tridiag_template(n)
    # The same draw as ``rng.choice(spec.systems_choices)``, without its
    # per-call array conversion.
    choices = spec.systems_choices
    num_systems = int(choices[rng.integers(0, len(choices))])
    values = np.zeros((num_systems, 3, n))
    off = rng.uniform(-1.0, 1.0, size=(num_systems, 2, n))
    values[:, 0, 1:] = off[:, 0, 1:]
    values[:, 2, :-1] = off[:, 1, :-1]
    values[:, 1, :] = 4.0 + rng.uniform(0.0, 1.0, size=(num_systems, n))
    matrix = BatchEll(n, col_idxs, values, check=False)
    b = rng.standard_normal((num_systems, n))
    return SolveRequest(
        matrix=matrix,
        b=b,
        tenant=tenant,
        tolerance=spec.tolerance,
        solver=spec.solver,
    )


async def run_traffic(
    service: SolverService,
    pattern: TrafficPattern,
    spec: WorkloadSpec | None = None,
) -> list[TicketResult | None]:
    """Open-loop client: submit one request per arrival, await all results.

    Returns results in submission order (``None`` for shed requests).
    """
    spec = spec if spec is not None else WorkloadSpec()
    rng = np.random.default_rng(pattern.seed + 1)
    names = [name for name, _ in spec.tenants]
    shares = np.asarray([share for _, share in spec.tenants], dtype=np.float64)
    # ``rng.choice(len(names), p=shares / shares.sum())`` draws one uniform
    # and bisects this normalised CDF; doing it here skips its per-call
    # checks of ``p``.
    cdf = (shares / shares.sum()).cumsum()
    cdf /= cdf[-1]
    tickets = []
    for t in arrival_times(pattern):
        await service.clock.sleep_until(t)
        tenant = names[int(cdf.searchsorted(rng.random(), side="right"))]
        tickets.append(service.submit(make_request(rng, spec, tenant)))
    return [await ticket.result_or_none() for ticket in tickets]


@dataclass
class TrafficRun:
    """Outcome of one complete simulated service run."""

    report: ServiceReport
    results: list = field(default_factory=list)


def serve_traffic(
    pattern: TrafficPattern,
    spec: WorkloadSpec | None = None,
    *,
    qos: QosPolicy | None = None,
    coalesce: CoalescePolicy | None = None,
    num_ranks: int = 1,
    max_iter: int = 500,
) -> TrafficRun:
    """Run one traffic realisation against a fresh service, synchronously.

    Builds clock + service + client inside a private event loop and drives
    virtual time until every ticket is resolved.  Deterministic: the same
    arguments produce the same report and the same results, bit for bit.
    """
    import asyncio

    run: TrafficRun | None = None

    async def _main() -> None:
        nonlocal run
        clock = VirtualClock()
        service = SolverService(
            clock=clock,
            qos=qos,
            coalesce=coalesce,
            num_ranks=num_ranks,
            max_iter=max_iter,
        )
        try:
            results = await clock.drive(run_traffic(service, pattern, spec))
        finally:
            service.close()
        run = TrafficRun(report=service.report, results=results)

    # The coroutine returns None on purpose: asyncio.Runner formats the
    # finished main task's repr (result included) when it restores the
    # SIGINT handler, and the repr of a run holding every result array
    # costs seconds.
    asyncio.run(_main())
    return run
