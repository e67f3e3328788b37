"""Self-test of the end-to-end benchmark harness on ``--smoke`` sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import common
import trace
import workloads

assert trace.__file__.startswith(str(common.HERE)), "stdlib trace shadows the tracer"

RUN = [sys.executable, str(common.HERE / "run.py"), "--smoke"]


def _run(*args, cwd=common.ROOT):
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.fixture(scope="module")
def spec():
    return common.load_spec()


@pytest.mark.parametrize("traced", [0, 1])
def test_every_listed_metric_is_printed_with_its_unit(tmp_path, spec, traced):
    proc = _run("--trace", str(traced), "--out", str(tmp_path / "r.json"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    for m in listed:
        rows =[ln for ln in lines[:-1] if ln.split()[:1] == [m["name"]]]
        assert len(rows) == len(common.WORKLOADS), m["name"]
        assert all(ln.split()[2] == m["unit"] for ln in rows), rows
        for w in common.WORKLOADS:
            entry = summary["metrics"][f"{w}.{m['name']}"]
            assert entry["unit"] == m["unit"]
            assert isinstance(entry["value"], (int, float))
    results = json.loads((tmp_path / "r.json").read_text())
    assert set(results["workloads"]) == set(common.WORKLOADS)


def test_traced_run_restores_callables_and_matches_untraced():
    originals = [(o, a, trace._original(o, a)) for o, a, *_ in trace.targets()]
    for name in common.WORKLOADS:
        wl = workloads.build(name, common.HELD_OUT_SEED, smoke=True)
        plain = wl.outputs(wl.call())
        tracer = trace.Tracer()
        with trace.installed(tracer):
            assert all(trace._original(o, a) is not f for o, a, f in originals)
            start = time.perf_counter()
            traced = wl.outputs(wl.call())
            wall = time.perf_counter() - start
        assert all(trace._original(o, a) is f for o, a, f in originals), name
        assert traced == plain, name
        m = trace.repeat_metrics(tracer, wall)
        assert m["core.spmv.calls"] > 0 and m["core.solvers.iterations"] > 0
        assert m["harness.span_self_sum_s"] + m["harness.unattributed_s"] == pytest.approx(
            wall, rel=1e-9)


def test_installed_restores_on_error():
    originals = [(o, a, trace._original(o, a)) for o, a, *_ in trace.targets()]
    with pytest.raises(RuntimeError):
        with trace.installed(trace.Tracer()):
            raise RuntimeError("boom")
    assert all(trace._original(o, a) is f for o, a, f in originals)


def _results(metric: str = "", factor: float = 1.0, spread: float = 0.01,
             seed: int = common.DEFAULT_SEED, seconds: float = 20.0) -> dict:
    """Synthetic results: every metric at 100 except ``metric`` at ``100 * factor``.

    Host metrics spread 1% by default, model metrics not at all.
    """
    metrics = {}
    for m in common.load_spec()["end_to_end"]:
        noise = 0.0 if common.clock_of(m["name"]) == "model" else 0.01
        value, s = (100.0 * factor, spread) if m["name"] == metric else (100.0, noise)
        samples = [value * (1 - s), value, value * (1 + s)]
        metrics[m["name"]] = {**common.summarize(samples), "unit": m["unit"]}
    return {"seed": seed, "seconds": seconds, "smoke": False, "trace": False,
            "workloads": {"picard_b16_warm": {"end_to_end": metrics}}}


def _compare(tmp_path, base: dict, new: dict):
    paths = tmp_path / "base.json", tmp_path / "new.json"
    for path, res in zip(paths, (base, new)):
        path.write_text(json.dumps(res))
    return subprocess.run([sys.executable, str(common.HERE / "compare.py"), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize(
    "metric, factor, spread, new_seed, verdict",
    [
        # A 20% regression is flagged on every metric whose bound is below 20%.
        ("model_system_solves_per_s", 0.8, 0.0, common.HELD_OUT_SEED, "regressed"),
        ("model_latency_p50_ms", 1.2, 0.0, common.HELD_OUT_SEED, "regressed"),
        ("peak_rss_mib", 1.2, 0.01, common.DEFAULT_SEED, "regressed"),
        # Same seed: a model metric is held to SAME_SEED_MODEL_BOUND, not the seed spread.
        ("model_system_solves_per_s", 0.99, 0.0, common.DEFAULT_SEED, "regressed"),
        ("model_latency_p50_ms", 1.01, 0.0, common.DEFAULT_SEED, "regressed"),
        ("model_latency_p50_ms", 1.01, 0.0, common.HELD_OUT_SEED, "within"),
        ("host_system_solves_per_s", 0.7, 0.01, common.DEFAULT_SEED, "regressed"),
        ("host_system_solves_per_s", 0.99, 0.01, common.DEFAULT_SEED, "within"),
        ("host_system_solves_per_s", 0.8, 0.5, common.DEFAULT_SEED, "unresolved"),
    ],
)
def test_compare_flags_a_regression(tmp_path, metric, factor, spread, new_seed, verdict):
    proc = _compare(tmp_path, _results(), _results(metric, factor, spread, seed=new_seed))
    rows = [ln for ln in proc.stdout.splitlines() if ln.startswith("picard_b16_warm")]
    assert len(rows) == len(common.load_spec()["end_to_end"])
    for row in rows:
        expected = [verdict] if row.split()[1] == metric else ["within", "="]
        assert row.split()[-len(expected):] == expected, row
    assert proc.returncode == (1 if verdict == "regressed" else 0)


def test_compare_refuses_runs_of_different_length(tmp_path):
    proc = _compare(tmp_path, _results(), _results(seconds=5.0))
    assert proc.returncode == 2
    assert "seconds" in proc.stderr and "picard_b16_warm" not in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(common.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(common.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "picard_b16_warm"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
