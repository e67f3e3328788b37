"""Tests for the deterministic virtual clock."""

import asyncio

import pytest

from repro.service import VirtualClock

from .conftest import drive


class TestVirtualClock:
    def test_sleep_advances_virtual_time_only(self):
        async def main(clock):
            assert clock.now == 0.0
            await clock.sleep(1.5)
            return clock.now

        assert drive(main) == 1.5

    def test_timers_fire_in_time_order(self):
        async def main(clock):
            order = []

            async def at(t, tag):
                await clock.sleep_until(t)
                order.append((tag, clock.now))

            await asyncio.gather(at(3.0, "c"), at(1.0, "a"), at(2.0, "b"))
            return order

        assert drive(main) == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_simultaneous_timers_fire_in_creation_order(self):
        async def main(clock):
            order = []

            async def at(tag):
                await clock.sleep_until(5.0)
                order.append(tag)

            await asyncio.gather(at("first"), at("second"), at("third"))
            return order

        assert drive(main) == ["first", "second", "third"]

    def test_past_deadline_fires_without_rewinding(self):
        async def main(clock):
            await clock.sleep(2.0)
            await clock.sleep_until(1.0)  # already in the past
            return clock.now

        assert drive(main) == 2.0

    def test_deadlock_detected(self):
        async def main(clock):
            await asyncio.get_running_loop().create_future()  # never set

        with pytest.raises(RuntimeError, match="deadlock"):
            drive(main)

    def test_event_wakes_before_timeout(self):
        """A parked timer resolved early by other work (the event) wakes
        its waiter at the current time; the stale heap entry is skipped
        when popped."""
        async def main(clock):
            timer = clock.sleep_until(10.0)

            async def resolver():
                await clock.sleep(1.0)
                timer.set_result(None)

            task = asyncio.ensure_future(resolver())
            await timer
            woke = clock.now
            await task
            await clock.sleep_until(20.0)  # pops past the stale 10.0 entry
            return woke, clock.now

        assert drive(main) == (1.0, 20.0)

    def test_timeout_wakes_without_event(self):
        """A parked timer nothing resolves early fires at its own time; a
        waker arriving later finds it done and leaves it alone."""
        async def main(clock):
            timer = clock.sleep_until(2.5)

            async def late_waker():
                await clock.sleep(5.0)
                return timer.done()

            task = asyncio.ensure_future(late_waker())
            await timer
            woke = clock.now
            return woke, await task, clock.now

        assert drive(main) == (2.5, True, 5.0)

    def test_done_timer_is_skipped_without_advancing_time(self):
        """A timer resolved early is dropped unfired: with only such
        timers left the clock reports a deadlock and ``now`` stays put."""
        clock = VirtualClock()

        async def main():
            timer = clock.sleep_until(2.5)
            timer.set_result(None)
            await timer
            await asyncio.get_running_loop().create_future()  # never set

        with pytest.raises(RuntimeError, match="deadlock"):
            asyncio.run(clock.drive(main()))
        assert clock.now == 0.0

    def test_cancelled_timers_are_skipped(self):
        async def main(clock):
            fut = clock.sleep_until(1.0)
            fut.cancel()
            await clock.sleep_until(2.0)
            return clock.now

        assert drive(main) == 2.0

    def test_nested_wakeups_drain_before_time_advances(self):
        """Work scheduled by a timer callback runs before the next timer."""
        async def main(clock):
            log = []

            async def chained():
                await clock.sleep_until(1.0)
                log.append(("wake", clock.now))
                await asyncio.sleep(0)  # stays at t=1
                log.append(("still", clock.now))

            async def later():
                await clock.sleep_until(1.0 + 1e-9)
                log.append(("later", clock.now))

            await asyncio.gather(chained(), later())
            return log

        log = drive(main)
        assert [tag for tag, _ in log] == ["wake", "still", "later"]
