"""Shared helpers for the solver-service suite.

Everything async in these tests runs inside a private event loop driven by
the virtual clock: ``drive(coro)`` builds the loop, runs the coroutine to
completion under :meth:`VirtualClock.drive`, and returns its result.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.service import (
    CoalescePolicy,
    QosPolicy,
    SolveRequest,
    TenantSpec,
    TrafficPattern,
    VirtualClock,
    WorkloadSpec,
    serve_traffic,
    tridiag_template,
)
from repro.core.batch_ell import BatchEll


def drive(make_coro):
    """Run ``make_coro(clock)`` to completion on a fresh virtual clock."""

    async def _main():
        clock = VirtualClock()
        return await clock.drive(make_coro(clock))

    return asyncio.run(_main())


def tridiag_request(
    rng: np.random.Generator,
    *,
    num_systems: int = 1,
    num_rows: int = 32,
    tenant: str = "default",
    tolerance: float = 1e-8,
    easy: bool = False,
    **kwargs,
) -> SolveRequest:
    """A diagonally-dominant tridiagonal request; ``easy=True`` makes the
    systems near-identity so they converge in very few iterations (the
    straggler-compaction tests mix easy and hard requests)."""
    n = num_rows
    col_idxs = tridiag_template(n)
    values = np.zeros((num_systems, 3, n))
    if easy:
        values[:, 1, :] = 1.0 + 1e-3 * rng.random((num_systems, n))
    else:
        values[:, 0, 1:] = rng.uniform(-1.0, 1.0, (num_systems, n - 1))
        values[:, 2, :-1] = rng.uniform(-1.0, 1.0, (num_systems, n - 1))
        values[:, 1, :] = 4.0 + rng.uniform(0.0, 1.0, (num_systems, n))
    matrix = BatchEll(n, col_idxs, values, check=False)
    b = rng.standard_normal((num_systems, n))
    return SolveRequest(matrix=matrix, b=b, tenant=tenant,
                        tolerance=tolerance, **kwargs)


def serve_e2e_mix(seed: int, duration_s: float = 0.005):
    """``serve_traffic`` on the end-to-end benchmark's service mix: Poisson
    at 20 kHz, n = 128, one or two systems per request, tenants weighted
    3:1 with 10 ms / 50 ms deadlines, batches of up to 64 systems."""
    return serve_traffic(
        TrafficPattern("poisson", rate_hz=20_000, duration_s=duration_s,
                       seed=seed),
        WorkloadSpec(num_rows=128, systems_choices=(1, 2),
                     tenants=(("interactive", 3.0), ("batch", 1.0))),
        qos=QosPolicy(capacity=4096, tenants=(
            TenantSpec("interactive", weight=3.0, deadline_s=10e-3),
            TenantSpec("batch", weight=1.0, deadline_s=50e-3),
        )),
        coalesce=CoalescePolicy(max_batch=64, max_wait_s=2e-3),
    )


@pytest.fixture
def srng() -> np.random.Generator:
    """Deterministic RNG for service-test problem generation."""
    return np.random.default_rng(991)
