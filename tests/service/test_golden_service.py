"""Bit-exact pin of the service path, ticket by ticket.

``tests/data/golden_service.json`` records two ``serve_traffic`` workloads:

* ``mix_seed2022`` / ``mix_seed7`` -- the end-to-end benchmark's service
  mix (Poisson at 20 kHz, n = 128, one or two systems per request, 3:1
  tenants with 10 ms / 50 ms deadlines) over a 5 ms window;
* ``overload`` -- bursty arrivals into a 96-request capacity with a 0.5
  degrade watermark, so requests are degraded and shed, and batches flush
  both when full and under deadline pressure.

Per ticket the pin holds the iterations, residual norms and submit /
dispatch / finish times as float hex (the ``golden_solvers_n992.json``
convention), the batch id, the degraded flag and a sha256 of ``x``; a shed
ticket is ``null``.  The report pin is ``ServiceReport.to_dict()``; keys
added to the report later are not part of it.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.service import (
    CoalescePolicy,
    QosPolicy,
    TenantSpec,
    TrafficPattern,
    WorkloadSpec,
    serve_traffic,
)

from .conftest import serve_e2e_mix

GOLDEN = pathlib.Path(__file__).parent.parent / "data" / "golden_service.json"


def _overload():
    tenants = (("interactive", 3.0), ("batch", 1.0))
    return serve_traffic(
        TrafficPattern("bursty", rate_hz=20_000, burst_rate_hz=120_000,
                       duration_s=0.01, mean_dwell_s=2e-3),
        WorkloadSpec(num_rows=64, systems_choices=(1, 2, 3), tenants=tenants),
        qos=QosPolicy(
            capacity=96,
            degrade_watermark=0.5,
            tenants=(
                TenantSpec("interactive", weight=3.0, deadline_s=2e-3),
                TenantSpec("batch", weight=1.0, deadline_s=10e-3),
            ),
        ),
        coalesce=CoalescePolicy(max_batch=16, max_wait_s=1e-3),
        num_ranks=3,
    )


WORKLOADS = {
    "mix_seed2022": lambda: serve_e2e_mix(2022),
    "mix_seed7": lambda: serve_e2e_mix(7),
    "overload": _overload,
}


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values).ravel()]


def ticket_pin(result) -> dict | None:
    """The pinned fields of one ticket's outcome (``None`` when shed)."""
    if result is None:
        return None
    return {
        "iterations": np.asarray(result.iterations).tolist(),
        "residual_norms_hex": _hex(result.residual_norms),
        "times_hex": _hex(
            (result.submit_time, result.dispatch_time, result.finish_time)
        ),
        "batch_id": result.batch_id,
        "degraded": result.degraded,
        "x_sha256": hashlib.sha256(
            np.ascontiguousarray(result.x).tobytes()
        ).hexdigest(),
    }


def run_pin(run) -> dict:
    """The pin of one traffic run: every ticket plus the report."""
    return {
        "tickets": [ticket_pin(r) for r in run.results],
        "report": run.report.to_dict(),
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_service_bit_identical_to_pin(golden, name):
    ref = golden[name]
    got = run_pin(WORKLOADS[name]())
    assert len(got["tickets"]) == len(ref["tickets"])
    for i, (mine, pinned) in enumerate(zip(got["tickets"], ref["tickets"])):
        assert mine == pinned, f"ticket {i}"
    # Round-trip through JSON so floats and counters compare as stored.
    report = json.loads(json.dumps(got["report"]))
    assert {k: report[k] for k in ref["report"]} == ref["report"]


def test_overload_pin_exercises_backpressure(golden):
    """The overload pin covers degrade, shed and both early flushes."""
    report = golden["overload"]["report"]
    assert report["degraded"] > 0 and report["shed"] > 0
    assert report["flush_reasons"]["batch-full"] > 0
    assert report["flush_reasons"]["deadline-pressure"] > 0
    assert any(t is not None and t["degraded"]
               for t in golden["overload"]["tickets"])
