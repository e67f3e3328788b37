"""Tests for the QoS layer: fair scheduling, admission, deadlines."""

import asyncio

import pytest

from repro.service import (
    ADMIT,
    DEGRADE,
    SHED,
    AdmissionQueue,
    FairScheduler,
    QosPolicy,
    SolveTicket,
    TenantSpec,
)

from .conftest import drive, tridiag_request


class TestFairScheduler:
    def test_weighted_shares_under_contention(self):
        """Weight 3 vs weight 1: picks split 3:1 over a long horizon."""
        sched = FairScheduler({"heavy": 3.0, "light": 1.0})
        picks = {"heavy": 0, "light": 0}
        for _ in range(40):
            t = sched.pick(("heavy", "light"))
            picks[t] += 1
            sched.charge(t)
        assert picks["heavy"] == 30
        assert picks["light"] == 10

    def test_ties_break_lexicographically(self):
        sched = FairScheduler()
        assert sched.pick(("b", "a")) == "a"

    def test_idle_tenant_cannot_hoard_credit(self):
        """A tenant that sat idle re-enters at the current virtual time:
        it gets at most a brief advantage, not one pick per idle charge."""
        sched = FairScheduler()
        for _ in range(100):
            sched.charge("busy")
        # "returner" was never charged; its pass is clamped to vtime.
        picks = []
        for _ in range(6):
            t = sched.pick(("busy", "returner"))
            picks.append(t)
            sched.charge(t)
        # Fair alternation, not 100 consecutive "returner" picks.
        assert picks.count("returner") <= 4
        assert "busy" in picks

    def test_unknown_tenant_defaults_to_weight_one(self):
        sched = FairScheduler({"a": 2.0})
        assert sched.weight("nobody") == 1.0


class TestQosPolicyAdmission:
    def test_verdict_ladder(self):
        qos = QosPolicy(capacity=100, degrade_watermark=0.75)
        assert qos.admission(0) == ADMIT
        assert qos.admission(74) == ADMIT
        assert qos.admission(75) == DEGRADE
        assert qos.admission(99) == DEGRADE
        assert qos.admission(100) == SHED
        assert qos.admission(5000) == SHED

    def test_degrade_requires_request_consent(self):
        qos = QosPolicy(capacity=100, degrade_watermark=0.75)
        assert qos.admission(80, allow_degrade=False) == ADMIT
        assert qos.admission(100, allow_degrade=False) == SHED

    def test_watermark_one_disables_degradation(self):
        qos = QosPolicy(capacity=10, degrade_watermark=1.0)
        assert qos.admission(9) == ADMIT
        assert qos.admission(10) == SHED

    def test_deadline_resolution(self):
        qos = QosPolicy(tenants=(TenantSpec("rt", deadline_s=0.5),))
        assert qos.deadline_for("rt", 1.0, None) == 1.5
        assert qos.deadline_for("rt", 1.0, 9.0) == 9.0  # explicit wins
        assert qos.deadline_for("other", 1.0, None) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantSpec("x", weight=0.0)
        with pytest.raises(ValueError):
            TenantSpec("x", deadline_s=-1.0)
        with pytest.raises(ValueError):
            QosPolicy(capacity=0)
        with pytest.raises(ValueError):
            QosPolicy(degrade_watermark=0.0)


class TestAdmissionQueue:
    def test_fair_drain_interleaves_tenants(self, srng):
        def run():
            async def main(clock):
                q = AdmissionQueue(capacity=16)
                sched = FairScheduler({"a": 1.0, "b": 1.0})
                for tenant in ("a", "a", "a", "b", "b", "b"):
                    req = tridiag_request(srng, tenant=tenant)
                    q.put(req, SolveTicket(req))
                return [req.tenant for req, _ in q.drain(sched)]

            return drive(main)

        assert run() == ["a", "b", "a", "b", "a", "b"]

    def test_per_tenant_fifo_preserved(self, srng):
        def run():
            async def main(clock):
                q = AdmissionQueue(capacity=16)
                sched = FairScheduler()
                reqs = [tridiag_request(srng, tenant="t") for _ in range(4)]
                for i, req in enumerate(reqs):
                    req.request_id = i
                    q.put(req, SolveTicket(req))
                return [req.request_id for req, _ in q.drain(sched)]

            return drive(main)

        assert run() == [0, 1, 2, 3]

    def test_overflow_raises(self, srng):
        async def main(clock):
            q = AdmissionQueue(capacity=1)
            req = tridiag_request(srng)
            q.put(req, SolveTicket(req))
            req2 = tridiag_request(srng)
            with pytest.raises(OverflowError):
                q.put(req2, SolveTicket(req2))
            return True

        assert drive(main)

    def test_wake_event_set_on_put(self, srng):
        """The scheduler parks on its flush timer; a put wakes it early,
        at the current virtual time."""
        async def main(clock):
            q = AdmissionQueue()
            timer = q.park(clock.sleep_until(5.0))
            await clock.sleep(1.0)
            assert not timer.done()
            req = tridiag_request(srng)
            q.put(req, SolveTicket(req))
            assert timer.done()
            await timer
            woke = clock.now
            req2 = tridiag_request(srng)
            q.put(req2, SolveTicket(req2))  # nothing parked: no-op wake
            return woke, len(q)

        assert drive(main) == (1.0, 2)
