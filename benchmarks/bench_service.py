"""Benchmark and acceptance gates of the solver service.

Four phases, each a gate:

* **High load** — a seeded Poisson arrival storm well above the naive
  (one-request-per-dispatch) capacity, run twice: dynamic coalescing vs
  naive dispatch.  On the modelled GPU a 64-system batch costs barely more
  than a 1-system one (launch + reduction-sync overheads dominate at this
  size), so coalescing must deliver at least ``--min-speedup`` (CI: 5x)
  the naive throughput.
* **Nominal load** — arrivals the service can absorb, with per-tenant
  deadlines: the deadline-miss rate must stay below ``--max-miss-rate``
  (CI: 1%).  Latency p50/p95/p99 are reported via the shared
  ``percentiles`` schema.
* **Parity** — the golden n=992 collision-stencil batch submitted through
  the full service path (coalesced with sibling requests) must produce
  solutions **bit-identical** to a direct ``solve()`` of each request.
* **Determinism** — re-running the high-load coalesced phase with the
  same seed must reproduce the report and every solution bit-for-bit.

A bursty (Markov-modulated) phase is reported for information — it
stresses the max-wait/max-batch trade — but not gated.

Writes ``BENCH_service.json`` at the repo root.

Run standalone (CI service gate)::

    PYTHONPATH=src python benchmarks/bench_service.py --quick
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys

import numpy as np

from timing import percentiles

from repro.service import (
    CoalescePolicy,
    QosPolicy,
    SolveRequest,
    SolverService,
    TenantSpec,
    TrafficPattern,
    VirtualClock,
    WorkloadSpec,
    serve_traffic,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def summarize(run) -> dict:
    """One traffic run as a JSON block: service report + latency tails."""
    out = run.report.to_dict()
    out["latency_stats"] = percentiles(run.report.latencies)
    out["queue_delay_stats"] = percentiles(run.report.queue_delays)
    return out


def bench_high_load(rate_hz: float, duration_s: float, seed: int):
    """Coalesced vs naive dispatch under a saturating Poisson storm."""
    pattern = TrafficPattern(kind="poisson", rate_hz=rate_hz,
                             duration_s=duration_s, seed=seed)
    spec = WorkloadSpec(num_rows=128, systems_choices=(1, 2))
    qos = QosPolicy(capacity=1_000_000)  # pure throughput: shed nothing
    coalesced = serve_traffic(
        pattern, spec, qos=qos,
        coalesce=CoalescePolicy(max_batch=64, max_wait_s=2e-3),
    )
    naive = serve_traffic(
        pattern, spec, qos=qos, coalesce=CoalescePolicy(naive=True)
    )
    ratio = (
        coalesced.report.throughput / naive.report.throughput
        if naive.report.throughput
        else float("inf")
    )
    return coalesced, naive, {
        "pattern": {"kind": "poisson", "rate_hz": rate_hz,
                    "duration_s": duration_s, "seed": seed},
        "coalesced": summarize(coalesced),
        "naive": summarize(naive),
        "throughput_ratio": ratio,
    }


def bench_nominal_load(rate_hz: float, duration_s: float, seed: int):
    """Absorbable load with per-tenant deadlines and 3:1 fair weights."""
    pattern = TrafficPattern(kind="poisson", rate_hz=rate_hz,
                             duration_s=duration_s, seed=seed + 1)
    spec = WorkloadSpec(
        num_rows=128,
        systems_choices=(1, 2),
        tenants=(("interactive", 3.0), ("batch", 1.0)),
    )
    qos = QosPolicy(
        capacity=4096,
        tenants=(
            TenantSpec("interactive", weight=3.0, deadline_s=10e-3),
            TenantSpec("batch", weight=1.0, deadline_s=50e-3),
        ),
    )
    run = serve_traffic(
        pattern, spec, qos=qos,
        coalesce=CoalescePolicy(max_batch=64, max_wait_s=2e-3),
    )
    block = summarize(run)
    block["pattern"] = {"kind": "poisson", "rate_hz": rate_hz,
                       "duration_s": duration_s, "seed": seed + 1}
    return run, block


def bench_bursty(rate_hz: float, duration_s: float, seed: int):
    """Markov-modulated arrivals (informative: coalescer under bursts)."""
    pattern = TrafficPattern(
        kind="bursty", rate_hz=rate_hz, burst_rate_hz=8 * rate_hz,
        mean_dwell_s=duration_s / 8, duration_s=duration_s, seed=seed + 2,
    )
    spec = WorkloadSpec(num_rows=128, systems_choices=(1, 2))
    run = serve_traffic(
        pattern, spec, qos=QosPolicy(capacity=1_000_000),
        coalesce=CoalescePolicy(max_batch=64, max_wait_s=2e-3),
    )
    block = summarize(run)
    block["pattern"] = {"kind": "bursty", "rate_hz": rate_hz,
                       "burst_rate_hz": 8 * rate_hz,
                       "duration_s": duration_s, "seed": seed + 2}
    return run, block


def bench_parity(num_mesh_nodes: int, tol: float = 1e-10) -> dict:
    """Golden-batch parity: service path vs direct solve, bit for bit."""
    from repro.xgc import CollisionProxyApp, ProxyAppConfig

    app = CollisionProxyApp(ProxyAppConfig(num_mesh_nodes=num_mesh_nodes))
    matrix, f = app.build_matrices()
    rng = np.random.default_rng(5)
    requests = [
        SolveRequest(matrix=matrix, b=f, tolerance=tol),
        SolveRequest(matrix=matrix, b=f * 1.5, tolerance=tol),
        SolveRequest(matrix=matrix,
                     b=f + 0.1 * rng.standard_normal(f.shape),
                     tolerance=tol),
    ]

    async def _main():
        clock = VirtualClock()
        service = SolverService(
            clock=clock,
            qos=QosPolicy(capacity=1024),
            coalesce=CoalescePolicy(max_batch=64, max_wait_s=1e-3),
        )

        async def client():
            tickets = [service.submit(r) for r in requests]
            return [await t.result() for t in tickets]

        try:
            results = await clock.drive(client())
        finally:
            service.close()
        return service, results

    service, results = asyncio.run(_main())
    coalesced_into_one = len({r.batch_id for r in results}) == 1
    identical = []
    for request, ticket_result in zip(requests, results):
        direct = service.direct_solve(request)
        identical.append(
            np.array_equal(direct.x, ticket_result.x)
            and np.array_equal(direct.iterations, ticket_result.iterations)
            and np.array_equal(direct.residual_norms,
                               ticket_result.residual_norms)
        )
    return {
        "num_rows": int(matrix.num_rows),
        "num_requests": len(requests),
        "systems_per_request": int(f.shape[0]),
        "coalesced_into_one_batch": coalesced_into_one,
        "per_request_identical": [bool(v) for v in identical],
        "bit_identical": bool(all(identical)) and coalesced_into_one,
    }


def bench_determinism(rate_hz: float, duration_s: float, seed: int) -> dict:
    """Same seed twice: reports and every solution must match exactly."""
    pattern = TrafficPattern(kind="poisson", rate_hz=rate_hz,
                             duration_s=duration_s, seed=seed)
    spec = WorkloadSpec(num_rows=128, systems_choices=(1, 2))
    kwargs = dict(
        qos=QosPolicy(capacity=1_000_000),
        coalesce=CoalescePolicy(max_batch=64, max_wait_s=2e-3),
    )
    a = serve_traffic(pattern, spec, **kwargs)
    b = serve_traffic(pattern, spec, **kwargs)
    reports_equal = a.report.to_dict() == b.report.to_dict()
    solutions_equal = len(a.results) == len(b.results) and all(
        (ra is None) == (rb is None)
        and (ra is None or np.array_equal(ra.x, rb.x))
        for ra, rb in zip(a.results, b.results)
    )
    schedule_equal = [r.batch_id for r in a.results if r] == [
        r.batch_id for r in b.results if r
    ]
    return {
        "reports_equal": reports_equal,
        "solutions_equal": solutions_equal,
        "schedule_equal": schedule_equal,
        "deterministic": reports_equal and solutions_equal and schedule_equal,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="smaller traffic volumes (CI gate)")
    ap.add_argument("--min-speedup", type=float, default=5.0,
                    help="fail below this coalesced/naive throughput ratio")
    ap.add_argument("--max-miss-rate", type=float, default=0.01,
                    help="fail above this nominal-load deadline-miss rate")
    ap.add_argument("--seed", type=int, default=2022)
    ap.add_argument("--output", type=pathlib.Path,
                    default=REPO_ROOT / "BENCH_service.json")
    args = ap.parse_args(argv)

    if args.quick:
        high = dict(rate_hz=120_000.0, duration_s=5e-3)
        nominal = dict(rate_hz=2_000.0, duration_s=20e-3)
        mesh_nodes = 2
    else:
        high = dict(rate_hz=200_000.0, duration_s=10e-3)
        nominal = dict(rate_hz=2_000.0, duration_s=50e-3)
        mesh_nodes = 2

    coalesced, naive, high_block = bench_high_load(seed=args.seed, **high)
    nominal_run, nominal_block = bench_nominal_load(seed=args.seed, **nominal)
    _, bursty_block = bench_bursty(seed=args.seed, **high)
    parity = bench_parity(mesh_nodes)
    determinism = bench_determinism(seed=args.seed, **high)

    ratio = high_block["throughput_ratio"]
    miss_rate = nominal_run.report.deadline_miss_rate
    gates = {
        "throughput_ratio": ratio,
        "min_speedup": args.min_speedup,
        "throughput_ok": ratio >= args.min_speedup,
        "deadline_miss_rate": miss_rate,
        "max_miss_rate": args.max_miss_rate,
        "deadlines_ok": miss_rate < args.max_miss_rate,
        "parity_ok": parity["bit_identical"],
        "determinism_ok": determinism["deterministic"],
    }
    report = {
        "benchmark": "solver_service",
        "config": {"quick": bool(args.quick), "seed": args.seed,
                   "high_load": high, "nominal_load": nominal},
        "high_load": high_block,
        "nominal_load": nominal_block,
        "bursty": bursty_block,
        "parity": parity,
        "determinism": determinism,
        "gates": gates,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    creport, nreport = coalesced.report, naive.report
    lat = percentiles(nominal_run.report.latencies)
    print(f"high load ({high['rate_hz']:.0f}/s Poisson, "
          f"{high['duration_s'] * 1e3:.0f} ms window):")
    print(f"  coalesced: {creport.throughput:10.0f} systems/s  "
          f"({creport.batches} batches, mean size "
          f"{creport.mean_batch_size:.1f})")
    print(f"  naive:     {nreport.throughput:10.0f} systems/s  "
          f"({nreport.batches} batches)")
    print(f"  ratio:     {ratio:10.1f}x   (gate: >= {args.min_speedup:.0f}x)")
    print(f"nominal load: miss rate {miss_rate:.2%} over "
          f"{nominal_run.report.completed} requests "
          f"(gate: < {args.max_miss_rate:.0%})")
    print(f"  latency p50/p95/p99: {lat['p50'] * 1e3:.2f} / "
          f"{lat['p95'] * 1e3:.2f} / {lat['p99'] * 1e3:.2f} ms")
    print(f"parity: n={parity['num_rows']} golden batch bit-identical: "
          f"{parity['bit_identical']}")
    print(f"determinism: {determinism['deterministic']}")
    print(f"  report: {args.output}")

    failed = [name for name in ("throughput_ok", "deadlines_ok", "parity_ok",
                                "determinism_ok") if not gates[name]]
    if failed:
        print(f"FAIL: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
