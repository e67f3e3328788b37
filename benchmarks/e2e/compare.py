"""Compare two results files of ``run.py`` against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

Prints one row per (workload, end-to-end metric) with each side's median,
IQR (as a share of the median) and sample count, the change (positive
means NEW is worse) and a verdict:

* ``within``     -- NEW is no worse than BASE by more than the bound;
* ``regressed``  -- NEW is worse than BASE by more than the bound;
* ``unresolved`` -- either side's IQR is wider than the bound, so the
  change cannot be told from noise (unless every NEW sample beats every
  BASE sample).

A model-clock metric is an exact function of the inputs and the numerics.
Its bound in BENCHMARK.json covers the spread between seeds, for compares
of runs made with different seeds.  When both files share one seed the
bound is ``SAME_SEED_MODEL_BOUND`` instead, so that a numerics change that
costs iterations shows.  ``=`` marks medians that are bit-identical, as
model-clock metrics of the same seed and numerics are.

Both files must come from runs with the same ``--seconds``, ``--smoke``
and ``--trace``; otherwise nothing is compared (exit status 2).  Exit
status 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

#: Bound of a model-clock metric when both sides ran with the same seed.
SAME_SEED_MODEL_BOUND = 1e-3
#: Run settings that must match for two results files to be comparable.
MATCHING_SETTINGS = ("seconds", "smoke", "trace")


def worse_by(base: float, new: float, better: str) -> float:
    """Relative change of ``new`` against ``base``; positive means worse."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    change = worse_by(a["value"], b["value"], better)
    a_samples = a.get("samples", [a["value"]])
    b_samples = b.get("samples", [b["value"]])
    if better == "lower":
        b_beats_all = max(b_samples) < min(a_samples)
    else:
        b_beats_all = min(b_samples) > max(a_samples)
    if max(common.rel_iqr(a), common.rel_iqr(b)) > bound and not b_beats_all:
        return "unresolved", change
    return ("regressed" if change > bound else "within"), change


def compare(base: dict, new: dict, spec: dict) -> list[dict]:
    same_seed = base["seed"] == new["seed"]
    rows = []
    for workload, a_res in base["workloads"].items():
        b_res = new["workloads"].get(workload)
        if b_res is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = a_res["end_to_end"][name], b_res["end_to_end"][name]
            bound = metric["bound"]
            if same_seed and common.clock_of(name) == "model":
                bound = SAME_SEED_MODEL_BOUND
            status, change = verdict(a, b, metric["better"], bound)
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "base": a, "new": b, "change": change, "bound": bound,
                "status": status, "identical": a["value"] == b["value"],
            })
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args(argv)
    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    differ = [k for k in MATCHING_SETTINGS if base[k] != new[k]]
    if differ:
        print(f"compare.py: the runs differ in {', '.join(differ)}; rerun one side",
              file=sys.stderr)
        return 2
    rows = compare(base, new, common.load_spec())
    print(f"{'workload':18s} {'metric':26s} {'base':>12s} {'iqr':>6s} {'n':>3s} "
          f"{'new':>12s} {'iqr':>6s} {'n':>3s} {'worse':>8s} {'bound':>6s}  verdict")
    for r in rows:
        a, b = r["base"], r["new"]
        print(f"{r['workload']:18s} {r['metric']:26s} "
              f"{a['value']:12.6g} {100 * common.rel_iqr(a):5.1f}% {a['n']:3d} "
              f"{b['value']:12.6g} {100 * common.rel_iqr(b):5.1f}% {b['n']:3d} "
              f"{100 * r['change']:+7.2f}% {100 * r['bound']:5.1f}%  "
              f"{r['status']}{' =' if r['identical'] else ''}")
    regressed = [r for r in rows if r["status"] == "regressed"]
    unresolved = [r for r in rows if r["status"] == "unresolved"]
    print(f"{len(rows)} rows: {len(regressed)} regressed, {len(unresolved)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
