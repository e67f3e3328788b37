"""Tests for compatibility keys, batch concatenation and flush policy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import to_format
from repro.gpu.hardware import V100
from repro.service import (
    CoalescePolicy,
    Coalescer,
    SolveTicket,
    compat_key,
    concat_requests,
)

from .conftest import drive, tridiag_request


def make_coalescer(**kwargs):
    policy = CoalescePolicy(
        max_batch=kwargs.pop("max_batch", 4),
        max_wait_s=kwargs.pop("max_wait_s", 1e-3),
        naive=kwargs.pop("naive", False),
    )
    return Coalescer(policy, V100, **kwargs)


class TestCompatKey:
    def test_same_pattern_same_key(self, srng):
        a = tridiag_request(srng, num_rows=32)
        b = tridiag_request(srng, num_rows=32)
        assert compat_key(a) == compat_key(b)

    def test_system_size_separates(self, srng):
        a = tridiag_request(srng, num_rows=32)
        b = tridiag_request(srng, num_rows=64)
        assert compat_key(a) != compat_key(b)

    def test_tolerance_separates(self, srng):
        a = tridiag_request(srng, tolerance=1e-8)
        b = tridiag_request(srng, tolerance=1e-10)
        assert compat_key(a) != compat_key(b)

    def test_solver_separates(self, srng):
        a = tridiag_request(srng)
        b = tridiag_request(srng, solver="cg")
        assert compat_key(a) != compat_key(b)

    def test_degraded_separates(self, srng):
        a = tridiag_request(srng)
        b = tridiag_request(srng)
        b.degraded = True
        assert compat_key(a) != compat_key(b)

    def test_format_separates(self, srng):
        a = tridiag_request(srng)
        b = tridiag_request(srng)
        b.matrix = to_format(b.matrix, "csr")
        assert compat_key(a) != compat_key(b)

    def test_pattern_contents_decide_not_object_identity(self, srng):
        """Two distinct index arrays with equal contents share a key."""
        a = tridiag_request(srng)
        b = tridiag_request(srng)
        cls = type(b.matrix)
        b.matrix = cls(
            b.matrix.num_cols,
            b.matrix.col_idxs.copy(),
            b.matrix.values,
            check=False,
        )
        assert compat_key(a) == compat_key(b)


class TestConcatRequests:
    def test_slices_are_in_request_order(self, srng):
        reqs = [
            tridiag_request(srng, num_systems=k) for k in (2, 1, 3)
        ]
        matrix, b, slices = concat_requests(reqs)
        assert matrix.num_batch == 6
        assert slices == [slice(0, 2), slice(2, 3), slice(3, 6)]
        for req, sl in zip(reqs, slices):
            np.testing.assert_array_equal(b[sl], req.b)
            np.testing.assert_array_equal(
                matrix.values[sl], req.matrix.values
            )

    def test_concatenated_batch_shares_pattern(self, srng):
        reqs = [tridiag_request(srng), tridiag_request(srng)]
        matrix, _, _ = concat_requests(reqs)
        np.testing.assert_array_equal(
            matrix.col_idxs, reqs[0].matrix.col_idxs
        )


class TestFlushPolicy:
    def test_flush_at_max_batch(self, srng):
        def scenario():
            async def main(clock):
                co = make_coalescer(max_batch=4)
                flushed = []
                for _ in range(6):
                    req = tridiag_request(srng)
                    flushed += co.add(req, SolveTicket(req), clock.now)
                return flushed, co.pending_requests

            return drive(main)

        flushed, pending = scenario()
        assert len(flushed) == 1
        assert flushed[0].flush_reason == "batch-full"
        assert flushed[0].num_systems == 4
        assert pending == 2  # remainder stays grouped

    def test_flush_on_max_wait(self, srng):
        def scenario():
            async def main(clock):
                co = make_coalescer(max_batch=64, max_wait_s=1e-3)
                req = tridiag_request(srng)
                assert co.add(req, SolveTicket(req), clock.now) == []
                assert co.due(clock.now) == []
                assert co.next_flush_time() == pytest.approx(1e-3)
                await clock.sleep(2e-3)
                return co.due(clock.now)

            return drive(main)

        batches = scenario()
        assert len(batches) == 1
        assert batches[0].flush_reason == "max-wait"

    def test_deadline_pressure_flushes_early(self, srng):
        def scenario():
            async def main(clock):
                co = make_coalescer(
                    max_batch=64,
                    max_wait_s=10.0,
                    deadline_headroom_s=1e-3,
                    service_estimate=lambda key, variant, n: 2e-3,
                )
                req = tridiag_request(srng, deadline=0.01)
                co.add(req, SolveTicket(req), clock.now)
                # Trigger = deadline - headroom - estimate = 7 ms.
                assert co.next_flush_time() == pytest.approx(7e-3)
                assert co.due(6.9e-3) == []
                return co.due(7.1e-3)

            return drive(main)

        batches = scenario()
        assert len(batches) == 1
        assert batches[0].flush_reason == "deadline-pressure"

    def test_naive_mode_flushes_every_request_alone(self, srng):
        def scenario():
            async def main(clock):
                co = make_coalescer(naive=True)
                out = []
                for _ in range(3):
                    req = tridiag_request(srng)
                    out += co.add(req, SolveTicket(req), clock.now)
                return out

            return drive(main)

        batches = scenario()
        assert [b.flush_reason for b in batches] == ["naive"] * 3
        assert all(len(b.requests) == 1 for b in batches)

    def test_incompatible_requests_never_share_a_batch(self, srng):
        def scenario():
            async def main(clock):
                co = make_coalescer(max_batch=2)
                out = []
                for tol in (1e-8, 1e-10, 1e-8, 1e-10):
                    req = tridiag_request(srng, tolerance=tol)
                    out += co.add(req, SolveTicket(req), clock.now)
                return out

            return drive(main)

        batches = scenario()
        assert len(batches) == 2
        for batch in batches:
            tols = {r.tolerance for r in batch.requests}
            assert len(tols) == 1

    def test_oversized_request_flushes_alone(self, srng):
        """A request bigger than max_batch still goes through (one batch)."""
        def scenario():
            async def main(clock):
                co = make_coalescer(max_batch=2)
                req = tridiag_request(srng, num_systems=5)
                return co.add(req, SolveTicket(req), clock.now)

            return drive(main)

        batches = scenario()
        assert len(batches) == 1
        assert batches[0].num_systems == 5


class TestSolverVariant:
    def test_variant_cached_per_key(self, srng):
        def scenario():
            async def main(clock):
                co = make_coalescer()
                req = tridiag_request(srng)
                key = compat_key(req)
                v1 = co.solver_variant(key, req.matrix)
                v2 = co.solver_variant(key, req.matrix)
                return v1, v2

            return drive(main)

        v1, v2 = scenario()
        assert v1 == v2
        assert v1 in ("bicgstab", "pipelined_bicgstab")

    def test_degraded_key_uses_refinement_ladder(self, srng):
        def scenario():
            async def main(clock):
                co = make_coalescer()
                req = tridiag_request(srng)
                req.degraded = True
                return co.solver_variant(compat_key(req), req.matrix)

            return drive(main)

        assert scenario() == "refinement"


#: One coalescer step: ``("add", key, systems, relative deadline, dt)`` files
#: a request ``dt`` after the previous step; ``("due", dt)`` flushes.
_STEP = st.one_of(
    st.tuples(
        st.just("add"),
        st.integers(0, 2),
        st.integers(1, 3),
        st.one_of(st.none(), st.floats(0.0, 4e-3)),
        st.floats(0.0, 5e-4),
    ),
    st.tuples(st.just("due"), st.floats(0.0, 2e-3)),
)


class TestRunningGroupState:
    """Each group's running ``num_systems``, tightest deadline and deadline
    trigger always equal the values recounted from its entries."""

    @staticmethod
    def estimate(key, variant, num_systems):
        return 1e-4 * num_systems + (5e-5 if key.degraded else 0.0)

    @staticmethod
    def recount(co, group):
        systems = sum(r.num_systems for r, _ in group.entries)
        deadlines = [r.deadline for r, _ in group.entries
                     if r.deadline is not None]
        deadline = min(deadlines) if deadlines else None
        trigger = None
        if deadline is not None:
            variant = co.solver_variant(group.key, group.entries[0][0].matrix)
            trigger = (deadline - co.deadline_headroom_s
                       - TestRunningGroupState.estimate(group.key, variant,
                                                        systems))
        return systems, deadline, trigger

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(_STEP, max_size=40))
    def test_running_state_matches_recount(self, steps):
        rng = np.random.default_rng(0)

        async def main(clock):
            co = make_coalescer(
                max_batch=6, max_wait_s=1e-3, deadline_headroom_s=2e-4,
                service_estimate=self.estimate,
            )
            now = 0.0
            for step in steps:
                now += step[-1]
                if step[0] == "add":
                    _, key, systems, rel_deadline, _ = step
                    req = tridiag_request(
                        rng, num_rows=8, num_systems=systems,
                        tolerance=(1e-8, 1e-6, 1e-8)[key],
                        degraded=key == 2,
                        deadline=(None if rel_deadline is None
                                  else now + rel_deadline),
                    )
                    co.add(req, SolveTicket(req), now)
                else:
                    co.due(now)
                times = []
                for group in co._groups.values():
                    assert group.entries
                    systems, deadline, trigger = self.recount(co, group)
                    assert group.num_systems == systems
                    assert group.deadline == deadline
                    assert group.trigger == trigger
                    times.append(group.oldest_arrival + co.policy.max_wait_s)
                    if trigger is not None:
                        times.append(trigger)
                assert co.next_flush_time() == (min(times) if times else None)

        drive(main)
