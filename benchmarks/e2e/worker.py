"""One benchmark workload in one fresh process.

``run.py`` starts this script once per workload run, plus
``run.SETUP_SAMPLES`` times with ``--setup-only`` for the other set-up
samples.  It prints one JSON object
on stdout; diagnostics go to stderr.

Phases: set-up (import the package and build the program objects and
inputs, timed), one warm-up call, untraced repeats until ``--seconds`` is
spent (at least ``MIN_REPEATS``).  With ``--trace 1`` half of the seconds
go to untraced repeats and half to traced ones, and the spans of the last
traced repeat are written under ``results/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import numpy  # noqa: F401  (imported before the set-up clock: not the program's cost)

import common
import workloads

#: Per-repeat counts that must be identical in every traced repeat.
EXACT_COUNTS = (
    "core.spmv.calls", "core.spmv.rows", "core.solvers.verify.events",
    "core.solvers.verify.rows", "core.solvers.verify.systems",
    "core.solvers.verify.confirmed", "core.compaction.events",
    "core.compaction.rows_gathered", "core.solvers.iterations",
    "core.blas.reduce_calls", "core.blas.update_calls", "harness.spans",
)


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def keep_going(walls: list[float], budget_s: float, minimum: int) -> bool:
    """Another repeat fits the budget (or the minimum is not reached yet)."""
    return len(walls) < minimum or sum(walls) + statistics.median(walls) <= budget_s


def repeat(wl, first: list[bytes], budget_s: float, problems: list[str]) -> list[float]:
    walls = []
    while keep_going(walls, budget_s, common.MIN_REPEATS):
        out, dt = timed(wl.call)
        walls.append(dt)
        if wl.outputs(out) != first:
            problems.append(f"repeat {len(walls)} differs from the warm-up result")
        del out
    return walls


def aggregate(per_repeat: list[dict], traced: list[float], untraced: list[float],
              first_s: float, problems: list[str]) -> dict:
    """Per-layer metrics of a traced run: per-repeat means, ratios of totals."""
    n = len(per_repeat)
    total = {k: sum(r[k] for r in per_repeat) for k in per_repeat[0]}
    out = {k: v / n for k, v in total.items()}
    for key in EXACT_COUNTS:
        if len({r[key] for r in per_repeat}) != 1:
            problems.append(f"{key} differs between traced repeats")
        out[key] = per_repeat[0][key]
    for i, r in enumerate(per_repeat, 1):
        wall = r["harness.wall_s"]
        gap = r["harness.span_self_sum_s"] + r["harness.unattributed_s"] - wall
        if abs(gap) > 0.01 * wall:
            problems.append(f"traced repeat {i}: self times miss the wall time by {gap:.3e} s")
        if r["harness.unattributed_s"] > 0.05 * wall:
            problems.append(f"traced repeat {i}: unattributed time above 5% of wall")
    spmv_s = total["core.spmv.self_s"]
    systems = total["core.solvers.verify.systems"]
    out["core.spmv.gbps_computed"] = total["core.spmv.bytes"] / spmv_s / 1e9
    out["core.spmv.verify_frac"] = total["core.spmv.verify_s"] / spmv_s
    out["core.solvers.verify.useful_frac"] = (
        total["core.solvers.verify.confirmed"] / systems if systems else 0.0
    )
    base = statistics.median(untraced)
    out["harness.trace_overhead_frac"] = statistics.median(traced) / base - 1.0
    out["harness.warmup_extra_s"] = first_s - base
    return out


def traced_phase(wl, args, first, untraced, first_s, problems) -> dict:
    import trace

    tracer = trace.Tracer()
    walls, per_repeat = [], []
    with trace.installed(tracer):
        while keep_going(walls, args.seconds / 2, common.MIN_TRACED_REPEATS):
            tracer.reset()
            out, dt = timed(wl.call)
            walls.append(dt)
            per_repeat.append(trace.repeat_metrics(tracer, dt))
            if wl.outputs(out) != first:
                problems.append(
                    f"traced repeat {len(walls)} differs from the untraced result"
                )
            del out
    common.RESULTS.mkdir(parents=True, exist_ok=True)
    name = args.workload
    trace.write_trace(
        tracer,
        common.RESULTS / f"trace_{name}.json",
        common.RESULTS / f"trace_{name}.chrome.json",
        {"workload": name, "seed": args.seed, "repeat": len(walls),
         "wall_s": walls[-1]},
    )
    layers = aggregate(per_repeat, walls, untraced, first_s, problems)
    layers["harness.traced_walls_s"] = walls
    return layers


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=common.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    wl = workloads.build(args.workload, args.seed, smoke=args.smoke)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result, first_s = timed(wl.call)
    first = wl.outputs(result)
    problems = wl.check(result)
    work, attempted, failed = wl.accounting(result)
    report = {
        "setup_s": setup_s,
        "first_s": first_s,
        "work": work,
        "attempted": attempted,
        "failed": failed,
        "model": wl.model(result),
        "extra": wl.extra(result),
    }
    del result

    budget = args.seconds / 2 if args.trace else args.seconds
    walls = repeat(wl, first, budget, problems)
    report["walls_s"] = walls
    report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        report["layers"] = traced_phase(wl, args, first, walls, first_s, problems)
    report["problems"] = problems
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
