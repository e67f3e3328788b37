"""Paths, metric conventions and statistics shared by the e2e benchmark scripts."""

from __future__ import annotations

import json
import pathlib
import statistics

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"

#: Workload names, in the order a full run executes them.
WORKLOADS = (
    "picard_b240_warm",
    "picard_b240_cold",
    "picard_b16_warm",
    "service_poisson",
)

#: Fewest timed repeats a run takes, however short ``--seconds`` is.
MIN_REPEATS = 3
#: Fewest traced repeats a ``--trace 1`` run takes.
MIN_TRACED_REPEATS = 2

DEFAULT_SEED = 2022
HELD_OUT_SEED = 7


def load_spec() -> dict:
    """The benchmark definition at the repository root."""
    return json.loads(SPEC_PATH.read_text())


def clock_of(name: str) -> str:
    """``"model"`` for metrics on the modelled-GPU/virtual clock, else ``"host"``."""
    return "model" if name.rsplit(".", 1)[-1].startswith("model_") else "host"


def unit_of(name: str) -> str:
    """The unit a metric name implies, for results-file metrics BENCHMARK.json does not list."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("solves_per_s"):
        return "solves/s"
    if "gbps" in leaf:
        return "GB/s"
    if leaf.endswith("_mib"):
        return "MiB"
    if leaf.endswith("_pct"):
        return "%"
    if leaf.endswith("_ms"):
        return "ms"
    if leaf.endswith("_s"):
        return "s"
    if leaf.endswith("_frac"):
        return "ratio"
    return "count"


def summarize(samples: list[float]) -> dict:
    """Median, quartiles, count and the samples of one metric."""
    values = [float(v) for v in samples]
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"value": med, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def rel_iqr(entry: dict) -> float:
    """Inter-quartile range as a share of the median (0 for a zero median)."""
    return (entry["q3"] - entry["q1"]) / abs(entry["value"]) if entry["value"] else 0.0
