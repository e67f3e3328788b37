"""End-to-end benchmark: Picard time steps and solver-service traffic.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME[,NAME...]] [--seed 2022]
        [--seconds S] [--trace [0|1]] [--out PATH] [--smoke]

Each workload runs in fresh worker processes, one at a time, with the BLAS
and OpenMP thread counts set to the number of usable cores.  Every process
of one run reads its bytecode from the same fresh cache directory
(``PYTHONPYCACHEPREFIX``), never from ``__pycache__`` directories a test
run may have left in the sources.  Extra worker processes only set up: the
first fills the cache and is discarded; ``setup_s`` is the median of
``SETUP_SAMPLES`` fresh set-ups (the other set-up-only processes and the
main worker).  The main worker warms up once, then times repeats on
identical inputs for ``--seconds`` seconds (``run_seconds`` of
BENCHMARK.json unless given) and checks every result (see
``workloads.py``).

Every end-to-end metric is printed by name with its unit, clock and sample
count; ``--trace 1`` prints the per-layer metrics of a separate traced
phase instead, and writes span files under ``benchmarks/e2e/results/``.
The full results go to ``--out`` as JSON.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
(with several workloads, metric names are prefixed ``<workload>.``).
Exit status: 0 when every check passed, 1 when a check failed or a worker
crashed, 2 when the repository's sources or BENCHMARK.json are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

import common
import hostinfo
from common import HERE, RESULTS, ROOT, SPEC_PATH, SRC

#: Fresh set-ups in the median of ``setup_s``: the main worker and all but
#: the first set-up-only process.  With twelve the quartiles stay clear of
#: the two slowest samples; with five, one stray slow process moved them.
SETUP_SAMPLES = 12
#: Wall-clock allowance for all worker processes of one workload.
WORKLOAD_TIME_LIMIT_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def child_env(nproc: int, pycache: pathlib.Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in hostinfo.THREAD_VARS:
        env[var] = str(nproc)
    return env


def call_child(script: str, args: list[str], env: dict, deadline: float) -> dict:
    """Run one child process to completion; return its last stdout line as JSON."""
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *args],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{script} {' '.join(args)}: timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{script} {' '.join(args)}: exit status {proc.returncode}")
    return json.loads(lines[-1])


def throughput(work: float, walls: list[float]) -> dict:
    """Work over the median repeat wall time; quartiles mirror the wall quartiles."""
    w = common.summarize(walls)
    return {"value": work / w["value"], "q1": work / w["q3"], "q3": work / w["q1"],
            "n": w["n"], "samples": [work / t for t in walls]}


def run_workload(name: str, args, env: dict, units: dict, copy: dict | None) -> dict:
    deadline = time.monotonic() + WORKLOAD_TIME_LIMIT_S
    base = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        base.append("--smoke")
    setups = [
        call_child("worker.py", base + ["--setup-only"], env, deadline)["setup_s"]
        for _ in range(SETUP_SAMPLES)
    ][1:]  # the first process compiles the bytecode cache (and may be cold): a warm-up
    w = call_child(
        "worker.py",
        base + ["--trace", str(args.trace)],
        env, deadline,
    )
    setups.append(w["setup_s"])

    e2e = {
        "host_system_solves_per_s": throughput(w["work"], w["walls_s"]),
        "setup_s": common.summarize(setups),
        "peak_rss_mib": common.summarize([w["peak_rss_mib"]]),
        **{k: common.summarize([v]) for k, v in w["model"].items()},
    }
    for key, entry in e2e.items():
        entry.update(unit=units[key], clock=common.clock_of(key))
    layers = None
    if args.trace:
        layers = dict(w["layers"])
        layers["host.copy_gbps"] = copy["copy_gbps"]
        layers["core.spmv.roof_frac"] = layers["core.spmv.gbps_computed"] / copy["copy_gbps"]
    return {
        "correct": not w["problems"],
        "problems": w["problems"],
        "work": w["work"],
        "attempted": w["attempted"],
        "failed": w["failed"],
        "first_s": w["first_s"],
        "walls_s": w["walls_s"],
        "setup_samples_s": setups,
        "end_to_end": e2e,
        "extra": w["extra"],
        "per_layer": layers,
    }


def print_workload(name: str, res: dict, units: dict) -> None:
    print(f"== {name}: {'correct' if res['correct'] else 'INCORRECT'}; "
          f"attempted {res['attempted']}, failed {res['failed']}")
    for problem in res["problems"]:
        print(f"   problem: {problem}")
    for key, e in res["end_to_end"].items():
        spread = f", IQR {100 * common.rel_iqr(e):.2f}%" if e["n"] > 1 else ""
        print(f"   {key:28s} {e['value']:14.6g} {e['unit']:9s} "
              f"[{e['clock']} clock; n={e['n']}{spread}]")
    for key, value in sorted(res["extra"].items()):
        unit = units.get(key) or common.unit_of(key)
        print(f"   {key:28s} {value:14.6g} {unit:9s} [{common.clock_of(key)} clock]")
    for key, value in sorted((res["per_layer"] or {}).items()):
        if isinstance(value, (int, float)):
            unit = units.get(key) or common.unit_of(key)
            print(f"   {key:36s} {value:14.6g} {unit:9s} [{common.clock_of(key)} clock; traced]")


def metric_line(spec: dict, results: dict, trace: bool) -> dict:
    """The last output line: every BENCHMARK.json metric of this mode."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    prefix = len(results) > 1
    metrics = {}
    for name, res in results.items():
        for m in listed:
            source = res["per_layer"] if trace else res["end_to_end"]
            value = source[m["name"]]
            value = value["value"] if isinstance(value, dict) else value
            metrics[f"{name}.{m['name']}" if prefix else m["name"]] = {
                "value": value, "unit": m["unit"],
            }
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def parse_args(argv, spec: dict):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default=",".join(common.WORKLOADS),
                   help="comma-separated workload names (default: all)")
    p.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                   help="measured seconds per workload (default: run_seconds)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="1: report the per-layer metrics of a traced phase")
    p.add_argument("--out", type=pathlib.Path, default=RESULTS / "latest.json")
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and the fewest repeats, for the harness self-test")
    args = p.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0
    args.workloads = args.workload.split(",")
    unknown = sorted(set(args.workloads) - set(common.WORKLOADS))
    if unknown:
        p.error(f"unknown workloads {unknown}; choose from {list(common.WORKLOADS)}")
    return args


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"run.py: needs {SRC / 'repro'} and {SPEC_PATH}", file=sys.stderr)
        return 2
    spec = common.load_spec()
    args = parse_args(argv, spec)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    nproc = len(os.sched_getaffinity(0))
    RESULTS.mkdir(parents=True, exist_ok=True)
    pycache = pathlib.Path(tempfile.mkdtemp(prefix="pycache-", dir=RESULTS))
    env = child_env(nproc, pycache)
    host = hostinfo.fingerprint(nproc, env)
    results = {}
    try:
        copy = None
        if args.trace:
            copy = call_child("hostinfo.py", [], env, time.monotonic() + 60.0)
            host.update(copy)
        for name in args.workloads:
            results[name] = run_workload(name, args, env, units, copy)
            print_workload(name, results[name], units)
    except WorkerFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(pycache, ignore_errors=True)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "host": host,
        "workloads": results,
    }, indent=1))
    line = metric_line(spec, results, bool(args.trace))
    print(f"results written to {args.out}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
