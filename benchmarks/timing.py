"""Host wall-clock helpers shared by the benchmark gate scripts.

``best_of`` is the one timing loop the gates use (a warm-up call, then
best of the repeats); ``percentiles`` is the one summary schema their
``BENCH_*.json`` reports use for a distribution of samples.
"""

from __future__ import annotations

import time

import numpy as np


def best_of(fn, repeats: int, *, inner: int = 1):
    """Time ``fn()`` after one warm-up call (which allocates lazy scratch).

    Each of the ``repeats`` samples is the mean of ``inner`` back-to-back
    calls.  Returns ``(best, samples, result)``: the fastest sample in
    seconds, every sample, and the last call's return value.
    """
    result = fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            result = fn()
        samples.append((time.perf_counter() - t0) / inner)
    return min(samples), samples, result


def percentiles(samples, *, unit: str = "s") -> dict:
    """Tail-latency summary of a sample list, with a stable JSON schema.

    Returns ``{"count", "unit", "mean", "p50", "p95", "p99", "max"}`` —
    the shape every benchmark report uses for latency/time distributions,
    so downstream tooling can read any ``BENCH_*.json`` the same way.
    Empty input yields zeros (count 0) rather than NaNs, keeping the JSON
    finite.
    """
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        return {"count": 0, "unit": unit, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
    return {
        "count": int(arr.size),
        "unit": unit,
        "mean": float(arr.mean()),
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
        "max": float(arr.max()),
    }
