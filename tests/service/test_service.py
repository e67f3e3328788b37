"""End-to-end tests of the solver service: parity, QoS, determinism."""

import numpy as np
import pytest

from repro.core import BatchCsr, BatchTridiag, InvalidFormatError
from repro.service import (
    CoalescePolicy,
    QosPolicy,
    RequestShed,
    SolverService,
    TenantSpec,
    TrafficPattern,
    WorkloadSpec,
    serve_traffic,
)

from .conftest import drive, tridiag_request


def run_service(make_client, **service_kwargs):
    """Drive ``make_client(service)`` against a fresh service; returns
    ``(client result, service)``."""

    async def main(clock):
        service = SolverService(clock=clock, **service_kwargs)
        try:
            result = await make_client(service)
        finally:
            service.close()
        return result, service

    return drive(main)


class TestParity:
    def test_coalesced_results_bit_identical_to_direct_solve(self, srng):
        """The core numerical guarantee: riding a shared batch changes
        nothing about a request's own systems."""
        requests = [
            tridiag_request(srng, num_systems=k) for k in (2, 1, 3, 2)
        ]

        async def client(service):
            tickets = [service.submit(r) for r in requests]
            return [await t.result() for t in tickets]

        results, service = run_service(
            client,
            coalesce=CoalescePolicy(max_batch=16, max_wait_s=1e-3),
        )
        assert len({r.batch_id for r in results}) == 1  # one shared batch
        for request, res in zip(requests, results):
            direct = service.direct_solve(request)
            np.testing.assert_array_equal(res.x, direct.x)
            np.testing.assert_array_equal(res.iterations, direct.iterations)
            np.testing.assert_array_equal(
                res.residual_norms, direct.residual_norms
            )
            assert res.converged.all()

    def test_results_delivered_in_request_order(self, srng):
        """Each ticket gets its own systems back, keyed by submission
        order, not by which systems finished first inside the kernel."""
        requests = [tridiag_request(srng) for _ in range(5)]

        async def client(service):
            tickets = [service.submit(r) for r in requests]
            return [await t.result() for t in tickets]

        results, _ = run_service(client)
        for request, res in zip(requests, results):
            residual = request.b - request.matrix.apply(res.x)
            assert np.linalg.norm(residual) < 1e-6


class TestStragglerCompaction:
    def test_mixed_difficulty_batch_triggers_compaction(self, srng):
        """Easy systems converge in a couple of iterations; once >= half
        the batch is done the solver's BatchCompactor re-batches the
        stragglers — the service reports those events."""
        requests = [
            tridiag_request(srng, num_systems=4, easy=True),
            tridiag_request(srng, num_systems=2, easy=False),
        ]

        async def client(service):
            tickets = [service.submit(r) for r in requests]
            return [await t.result() for t in tickets]

        results, service = run_service(client)
        assert all(r.converged.all() for r in results)
        assert service.report.compaction_events > 0
        assert service.dispatcher.compaction_events > 0


class TestBackpressure:
    def test_shedding_at_capacity(self, srng):
        requests = [tridiag_request(srng, allow_degrade=False)
                    for _ in range(8)]

        async def client(service):
            tickets = [service.submit(r) for r in requests]
            return [await t.result_or_none() for t in tickets]

        results, service = run_service(
            client, qos=QosPolicy(capacity=4, degrade_watermark=1.0)
        )
        assert results.count(None) == 4  # the overflow was shed
        assert service.report.shed == 4
        assert service.report.completed == 4

    def test_shed_ticket_raises_on_result(self, srng):
        async def client(service):
            first = service.submit(tridiag_request(srng))
            second = service.submit(tridiag_request(srng))
            with pytest.raises(RequestShed):
                await second.result()
            return await first.result()

        result, _ = run_service(client, qos=QosPolicy(capacity=1))
        assert result.converged.all()

    def test_degrade_between_watermark_and_capacity(self, srng):
        requests = [tridiag_request(srng) for _ in range(8)]

        async def client(service):
            tickets = [service.submit(r) for r in requests]
            return [await t.result() for t in tickets]

        results, service = run_service(
            client, qos=QosPolicy(capacity=100, degrade_watermark=0.05)
        )
        degraded = [r for r in results if r.degraded]
        assert degraded  # watermark of 5 requests was crossed
        assert service.report.degraded == len(degraded)
        # The refinement ladder still verifies the fp64 tolerance.
        for request, res in zip(requests, results):
            residual = request.b - request.matrix.apply(res.x)
            assert np.linalg.norm(residual) < 1e-5
            assert res.converged.all()

    def test_degrade_requires_consent(self, srng):
        requests = [tridiag_request(srng, allow_degrade=False)
                    for _ in range(6)]

        async def client(service):
            tickets = [service.submit(r) for r in requests]
            return [await t.result() for t in tickets]

        results, _ = run_service(
            client, qos=QosPolicy(capacity=100, degrade_watermark=0.05)
        )
        assert not any(r.degraded for r in results)


class TestDeadlines:
    def test_impossible_deadline_recorded_as_miss(self, srng):
        request = tridiag_request(srng, deadline=1e-12)

        async def client(service):
            return await service.submit(request).result()

        result, service = run_service(client)
        assert result.deadline_missed
        assert service.report.deadline_misses == 1
        assert result.converged.all()  # missed, but still solved

    def test_generous_deadline_met(self, srng):
        request = tridiag_request(srng, tenant="rt")

        async def client(service):
            return await service.submit(request).result()

        result, service = run_service(
            client,
            qos=QosPolicy(tenants=(TenantSpec("rt", deadline_s=1.0),)),
        )
        assert result.deadline == pytest.approx(1.0)
        assert not result.deadline_missed
        assert service.report.deadline_miss_rate == 0.0

    def test_deadline_pressure_cuts_the_wait_short(self, srng):
        """With a 100 ms max-wait but a 5 ms deadline, the coalescer must
        flush on deadline pressure, not sit out the full wait."""
        request = tridiag_request(srng, deadline=5e-3)

        async def client(service):
            return await service.submit(request).result()

        result, service = run_service(
            client,
            coalesce=CoalescePolicy(max_batch=64, max_wait_s=0.1),
        )
        assert not result.deadline_missed
        assert service.report.flush_reasons.get("deadline-pressure", 0) == 1


class TestTenantAccounting:
    def test_per_tenant_health_counts_accumulate(self, srng):
        requests = [
            tridiag_request(srng, tenant="a", num_systems=2),
            tridiag_request(srng, tenant="b"),
            tridiag_request(srng, tenant="a", num_systems=3),
        ]

        async def client(service):
            tickets = [service.submit(r) for r in requests]
            return [await t.result() for t in tickets]

        results, service = run_service(client)
        # The last "a" result carries the tenant's full running tally.
        a_results = [r for req, r in zip(requests, results)
                     if req.tenant == "a"]
        assert a_results[-1].tenant_health_counts == {"converged": 5}
        assert service.report.tenant_health["a"] == {"converged": 5}
        assert service.report.tenant_health["b"] == {"converged": 1}

    def test_weighted_fairness_prioritises_heavy_tenant(self, srng):
        """Under a backlog, the weight-4 tenant's requests dispatch ahead
        of the weight-1 tenant's (stride order in the drain)."""
        heavy = [tridiag_request(srng, tenant="heavy") for _ in range(4)]
        light = [tridiag_request(srng, tenant="light") for _ in range(4)]

        async def client(service):
            tickets = [service.submit(r) for r in light + heavy]
            return [await t.result() for t in tickets]

        results, _ = run_service(
            client,
            qos=QosPolicy(tenants=(
                TenantSpec("heavy", weight=4.0),
                TenantSpec("light", weight=1.0),
            )),
            # One request per batch so dispatch order is observable.
            coalesce=CoalescePolicy(max_batch=1, max_wait_s=1e-3),
        )
        light_res = results[: len(light)]
        heavy_res = results[len(light):]
        mean_heavy = np.mean([r.finish_time for r in heavy_res])
        mean_light = np.mean([r.finish_time for r in light_res])
        assert mean_heavy < mean_light


class TestDeterminism:
    def test_same_seed_same_everything(self):
        pattern = TrafficPattern(kind="poisson", rate_hz=30_000.0,
                                 duration_s=3e-3, seed=11)
        spec = WorkloadSpec(num_rows=32, systems_choices=(1, 2))
        kwargs = dict(qos=QosPolicy(capacity=10_000),
                      coalesce=CoalescePolicy(max_batch=16, max_wait_s=1e-3))
        a = serve_traffic(pattern, spec, **kwargs)
        b = serve_traffic(pattern, spec, **kwargs)
        assert a.report.to_dict() == b.report.to_dict()
        assert len(a.results) == len(b.results) > 0
        for ra, rb in zip(a.results, b.results):
            np.testing.assert_array_equal(ra.x, rb.x)
            assert ra.batch_id == rb.batch_id
            assert ra.finish_time == rb.finish_time

    def test_different_seeds_differ(self):
        spec = WorkloadSpec(num_rows=32)
        a = serve_traffic(TrafficPattern(rate_hz=30_000.0, duration_s=3e-3,
                                         seed=1), spec)
        b = serve_traffic(TrafficPattern(rate_hz=30_000.0, duration_s=3e-3,
                                         seed=2), spec)
        assert a.report.to_dict() != b.report.to_dict()


class TestServiceLifecycle:
    def test_submit_after_close_rejected(self, srng):
        async def client(service):
            return await service.submit(tridiag_request(srng)).result()

        result, service = run_service(client)
        assert result.converged.all()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(tridiag_request(srng))


class TestFailureIsolation:
    def test_raising_request_fails_alone(self, srng):
        """A request that passes submit but whose solve raises (a zero on
        one system's diagonal makes Jacobi raise) fails on its own ticket.
        The healthy requests coalesced with it still resolve bit-identical
        to their direct solves, and nothing is left pending."""
        healthy = [tridiag_request(srng), tridiag_request(srng, num_systems=2)]
        poison = tridiag_request(srng)
        poison.matrix.values[0, 1, 5] = 0.0

        async def client(service):
            tickets = [
                service.submit(r) for r in (healthy[0], poison, healthy[1])
            ]
            results = [await tickets[0].result(), await tickets[2].result()]
            with pytest.raises(InvalidFormatError):
                await tickets[1].result()
            return results

        results, service = run_service(
            client, coalesce=CoalescePolicy(max_batch=16, max_wait_s=1e-3)
        )
        assert service.pending == 0
        report = service.report
        assert report.failed == 1
        assert report.failure_types == {"InvalidFormatError": 1}
        assert report.tenant_failed == {"default": 1}
        assert report.to_dict()["failure_types"] == {"InvalidFormatError": 1}
        assert report.completed == 2 and report.submitted == 3
        for request, result in zip(healthy, results):
            direct = service.direct_solve(request)
            np.testing.assert_array_equal(result.x, direct.x)
            np.testing.assert_array_equal(result.iterations, direct.iterations)
            np.testing.assert_array_equal(
                result.residual_norms, direct.residual_norms
            )


class TestSubmitValidation:
    @pytest.mark.parametrize(
        "bad_b",
        [
            np.ones((1, 31)),  # one row short of the n=32 matrix
            np.ones((2, 32)),  # more right-hand sides than systems
            np.ones(32),  # 1-D
            np.ones((1, 32), dtype=np.int64),  # not a float dtype
        ],
        ids=["short_row", "extra_system", "one_dim", "int_dtype"],
    )
    def test_bad_rhs_rejected_on_caller_healthy_request_unaffected(
        self, srng, bad_b
    ):
        """A malformed ``b`` raises at submit instead of failing inside
        the shared batch, and the request next to it still resolves
        bit-identical to its direct solve."""
        self._check_rejected_next_to_healthy(srng, "b", bad_b, "b")

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("solver", "nope", "unknown solver"),
            ("tolerance", -1e-10, "tolerance"),
            ("tolerance", float("nan"), "tolerance"),
        ],
        ids=["unknown_solver", "negative_tolerance", "nan_tolerance"],
    )
    def test_bad_solver_or_tolerance_rejected_on_caller_healthy_request_unaffected(
        self, srng, field, value, match
    ):
        """An unknown solver or a negative/NaN tolerance raises at submit
        instead of killing a service loop, so other tenants' tickets still
        resolve bit-identical to their direct solves."""
        self._check_rejected_next_to_healthy(srng, field, value, match)

    @pytest.mark.parametrize(
        "matrix, error, match",
        [
            (
                BatchTridiag(np.zeros((1, 31)), np.full((1, 32), 4.0),
                             np.zeros((1, 31))),
                TypeError,
                "BatchMatrix",
            ),
            (
                BatchCsr(40, np.arange(33), np.arange(32), np.ones((1, 32))),
                ValueError,
                "square",
            ),
        ],
        ids=["tridiag", "non_square"],
    )
    def test_bad_matrix_rejected_on_caller_healthy_request_unaffected(
        self, srng, matrix, error, match
    ):
        """A matrix the service cannot coalesce (not a BatchMatrix) or
        solve (32x40, with a right-hand side that fits its rows) raises at
        submit instead of killing the scheduler or dispatch loop."""
        self._check_rejected_next_to_healthy(srng, "matrix", matrix, match, error)

    @staticmethod
    def _check_rejected_next_to_healthy(srng, field, value, match, error=ValueError):
        healthy = tridiag_request(srng)
        bad = tridiag_request(srng)
        setattr(bad, field, value)

        async def client(service):
            ticket = service.submit(healthy)
            with pytest.raises(error, match=match):
                service.submit(bad)
            assert bad.request_id == -1
            assert service.report.submitted == 1
            return await ticket.result()

        result, service = run_service(
            client, coalesce=CoalescePolicy(max_batch=16, max_wait_s=1e-3)
        )
        direct = service.direct_solve(healthy)
        np.testing.assert_array_equal(result.x, direct.x)
        np.testing.assert_array_equal(result.iterations, direct.iterations)
        np.testing.assert_array_equal(
            result.residual_norms, direct.residual_norms
        )
