"""Tests for the seeded traffic generator and the synchronous harness."""

import numpy as np
import pytest

from repro.service import (
    CoalescePolicy,
    QosPolicy,
    TrafficPattern,
    WorkloadSpec,
    arrival_times,
    dispatcher,
    make_request,
    serve_traffic,
    tridiag_template,
    traffic,
)

from .conftest import serve_e2e_mix


class TestArrivalTimes:
    def test_deterministic_per_seed(self):
        p = TrafficPattern(rate_hz=10_000.0, duration_s=0.01, seed=3)
        np.testing.assert_array_equal(arrival_times(p), arrival_times(p))

    def test_seeds_differ(self):
        a = TrafficPattern(rate_hz=10_000.0, duration_s=0.01, seed=3)
        b = TrafficPattern(rate_hz=10_000.0, duration_s=0.01, seed=4)
        assert not np.array_equal(arrival_times(a), arrival_times(b))

    def test_sorted_and_inside_window(self):
        p = TrafficPattern(rate_hz=50_000.0, duration_s=0.02, seed=0)
        times = arrival_times(p)
        assert (np.diff(times) >= 0).all()
        assert times[0] > 0.0
        assert times[-1] < 0.02

    def test_poisson_rate_roughly_matches(self):
        p = TrafficPattern(rate_hz=20_000.0, duration_s=0.1, seed=1)
        n = arrival_times(p).size
        assert 1600 <= n <= 2400  # 2000 expected, generous CI band

    def test_bursty_exceeds_quiet_rate(self):
        quiet = TrafficPattern(kind="poisson", rate_hz=5_000.0,
                               duration_s=0.1, seed=5)
        bursty = TrafficPattern(kind="bursty", rate_hz=5_000.0,
                                burst_rate_hz=50_000.0, mean_dwell_s=0.01,
                                duration_s=0.1, seed=5)
        assert arrival_times(bursty).size > 1.5 * arrival_times(quiet).size

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            TrafficPattern(kind="uniform")


class TestWorkload:
    def test_template_pattern(self):
        t = tridiag_template(5)
        assert t.shape == (3, 5)
        assert t[0, 0] == -1 and t[2, 4] == -1  # padded corners
        np.testing.assert_array_equal(t[1], np.arange(5))

    def test_requests_are_diagonally_dominant(self):
        rng = np.random.default_rng(0)
        spec = WorkloadSpec(num_rows=64, systems_choices=(2,))
        req = make_request(rng, spec, "t")
        vals = req.matrix.values
        diag = np.abs(vals[:, 1, :])
        off = np.abs(vals[:, 0, :]) + np.abs(vals[:, 2, :])
        assert (diag > off).all()
        assert req.num_systems == 2
        assert req.tenant == "t"

    def test_requests_share_one_pattern_object(self):
        rng = np.random.default_rng(0)
        spec = WorkloadSpec(num_rows=64)
        a = make_request(rng, spec, "t")
        b = make_request(rng, spec, "t")
        assert a.matrix.col_idxs is b.matrix.col_idxs


class TestRandomDraws:
    """``run_traffic`` and ``make_request`` draw tenants and sizes without
    ``rng.choice``; the draws must stay the values ``rng.choice`` gives,
    because replays of the traffic (the end-to-end benchmark's checks)
    still regenerate the requests with ``rng.choice``."""

    def test_tenant_draw_equals_choice_with_p(self):
        shares = np.asarray([3.0, 1.0, 0.5])
        shares = shares / shares.sum()
        cdf = shares.cumsum()
        cdf /= cdf[-1]
        ref, new = np.random.default_rng(2023), np.random.default_rng(2023)
        want = [int(ref.choice(len(shares), p=shares)) for _ in range(10_000)]
        got = [int(cdf.searchsorted(new.random(), side="right"))
               for _ in range(10_000)]
        assert got == want
        assert ref.random() == new.random()  # streams still in step

    def test_size_draw_equals_choice(self):
        choices = (1, 2, 3, 5)
        ref, new = np.random.default_rng(2023), np.random.default_rng(2023)
        want = [int(ref.choice(choices)) for _ in range(10_000)]
        got = [int(choices[new.integers(0, len(choices))])
               for _ in range(10_000)]
        assert got == want
        assert ref.random() == new.random()


class TestServeTraffic:
    def test_each_deadline_estimate_priced_once(self, monkeypatch):
        """Deadline pressure prices each (key, variant, num_systems) once
        per dispatcher; the only other GPU-model calls bill the batches
        (one rank: one call per batch)."""
        calls = []
        triples = set()
        real_solve = dispatcher.estimate_iterative_solve
        real_estimate = dispatcher.Dispatcher.estimate_service_time

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return real_solve(*args, **kwargs)

        def recording_estimate(self, key, variant, num_systems, *args):
            triples.add((key, variant, num_systems))
            return real_estimate(self, key, variant, num_systems, *args)

        monkeypatch.setattr(dispatcher, "estimate_iterative_solve",
                            counting_solve)
        monkeypatch.setattr(dispatcher.Dispatcher, "estimate_service_time",
                            recording_estimate)
        run = serve_e2e_mix(2022)
        assert run.report.batches > 0 and triples
        assert len(calls) <= run.report.batches + len(triples)

    def test_all_requests_served_under_light_load(self):
        run = serve_traffic(
            TrafficPattern(rate_hz=5_000.0, duration_s=4e-3, seed=9),
            WorkloadSpec(num_rows=32),
            qos=QosPolicy(capacity=10_000),
        )
        assert run.report.submitted > 0
        assert run.report.completed == run.report.submitted
        assert run.report.shed == 0
        assert all(r is not None and r.converged.all() for r in run.results)

    def test_coalescing_outperforms_naive_under_load(self):
        """The tentpole claim at test scale: grouped dispatch beats
        per-request dispatch on modelled throughput."""
        pattern = TrafficPattern(rate_hz=60_000.0, duration_s=4e-3, seed=12)
        spec = WorkloadSpec(num_rows=32)
        qos = QosPolicy(capacity=100_000)
        coalesced = serve_traffic(
            pattern, spec, qos=qos,
            coalesce=CoalescePolicy(max_batch=64, max_wait_s=2e-3),
        )
        naive = serve_traffic(pattern, spec, qos=qos,
                              coalesce=CoalescePolicy(naive=True))
        assert coalesced.report.throughput > 2.0 * naive.report.throughput
        assert coalesced.report.batches < naive.report.batches

    def test_results_in_submission_order(self):
        run = serve_traffic(
            TrafficPattern(rate_hz=20_000.0, duration_s=2e-3, seed=4),
            WorkloadSpec(num_rows=32),
        )
        submit_times = [r.submit_time for r in run.results if r is not None]
        assert submit_times == sorted(submit_times)

    def test_run_is_never_formatted(self, monkeypatch):
        """The event loop must not format the finished run: on Python 3.11+
        asyncio.Runner formats the main task's repr (result included) when
        it restores SIGINT, which for a run holding every result array cost
        seconds.  Calls are counted rather than raised on, because reprlib
        swallows exceptions from __repr__."""
        calls = []
        original = traffic.TrafficRun.__repr__

        def counting_repr(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(traffic.TrafficRun, "__repr__", counting_repr)
        run = serve_traffic(
            TrafficPattern(rate_hz=20_000.0, duration_s=2e-3, seed=4),
            WorkloadSpec(num_rows=32),
        )
        assert isinstance(run, traffic.TrafficRun)
        assert run.report.completed == run.report.submitted
        assert len(calls) == 0
