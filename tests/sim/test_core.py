"""Unit tests for the event queue and simulation clock."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0


def test_clock_custom_start():
    assert Simulator(start_time=100).now == 100


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(50, fired.append, "late")
    sim.schedule(10, fired.append, "early")
    sim.schedule(30, fired.append, "mid")
    sim.run()
    assert fired == ["early", "mid", "late"]
    assert sim.now == 50


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(5, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(42, fired.append, "x")
    sim.run()
    assert fired == ["x"] and sim.now == 42


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    handle = sim.schedule(10, fired.append, "no")
    sim.schedule(5, fired.append, "yes")
    handle.cancel()
    sim.run()
    assert fired == ["yes"]


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    handle = sim.schedule(1, lambda: None)
    sim.run()
    handle.cancel()  # must not raise


def test_run_until_stops_clock():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "a")
    sim.schedule(100, fired.append, "b")
    sim.run(until=50)
    assert fired == ["a"]
    assert sim.now == 50
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_fires_events_at_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(50, fired.append, "edge")
    sim.run(until=50)
    assert fired == ["edge"]


def test_run_until_advances_clock_when_queue_empty():
    sim = Simulator()
    sim.run(until=1000)
    assert sim.now == 1000


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 30


def test_max_events_guard():
    sim = Simulator()

    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=100)


def test_max_events_fires_exactly_the_budget():
    # Regression: the guard used to fire max_events + 1 callbacks
    # before raising.
    sim = Simulator()
    fired = []

    def forever():
        fired.append(sim.now)
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=100)
    assert len(fired) == 100


def test_max_events_no_raise_when_queue_drains_at_budget():
    # Exactly max_events pending: the run completes normally.
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(i, fired.append, i)
    sim.run(max_events=5)
    assert fired == [0, 1, 2, 3, 4]


def test_max_events_ignores_cancelled_events():
    # A cancelled event at the budget boundary must not trigger the
    # guard — only genuinely pending work counts.
    sim = Simulator()
    fired = []
    for i in range(3):
        sim.schedule(i, fired.append, i)
    sim.schedule(10, fired.append, 99).cancel()
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


class TestObserverHook:
    class Recording:
        def __init__(self):
            self.times = []

        def on_event(self, sim, handle):
            self.times.append(sim.now)
            handle.callback(*handle.args)

    def test_observer_sees_every_event_and_dispatches(self):
        sim = Simulator()
        observer = self.Recording()
        sim.set_observer(observer)
        fired = []
        sim.schedule(5, fired.append, "a")
        sim.schedule(2, fired.append, "b")
        sim.run()
        assert fired == ["b", "a"]
        assert observer.times == [2, 5]

    def test_clear_observer_restores_plain_dispatch(self):
        sim = Simulator()
        observer = self.Recording()
        sim.set_observer(observer)
        sim.schedule(1, lambda: None)
        sim.run()
        sim.clear_observer()
        sim.schedule(2, lambda: None)
        sim.run()
        assert len(observer.times) == 1

    def test_observer_does_not_change_timing_or_order(self):
        def run(observed):
            sim = Simulator()
            if observed:
                sim.set_observer(self.Recording())
            fired = []

            def chain(n):
                fired.append((sim.now, n))
                if n < 5:
                    sim.schedule(7, chain, n + 1)

            sim.schedule(0, chain, 0)
            sim.run()
            return fired, sim.now, sim.events_processed

        assert run(observed=True) == run(observed=False)


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False


def test_peek_skips_cancelled():
    sim = Simulator()
    h = sim.schedule(5, lambda: None)
    sim.schedule(9, lambda: None)
    h.cancel()
    assert sim.peek() == 9


def test_peek_empty_is_none():
    assert Simulator().peek() is None


def test_run_not_reentrant():
    sim = Simulator()
    err = {}

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            err["exc"] = exc

    sim.schedule(1, reenter)
    sim.run()
    assert "exc" in err


def test_events_processed_counter():
    sim = Simulator()
    for i in range(7):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_processed == 7


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
def test_property_fire_order_is_sorted_stable(delays):
    """Whatever the schedule order, firing order is (time, insertion) sorted."""
    sim = Simulator()
    fired = []
    for idx, delay in enumerate(delays):
        sim.schedule(delay, fired.append, (delay, idx))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=1000), st.booleans()),
        min_size=1,
        max_size=100,
    )
)
def test_property_cancelled_events_never_fire(entries):
    sim = Simulator()
    fired = []
    handles = []
    for idx, (delay, cancel) in enumerate(entries):
        handles.append((sim.schedule(delay, fired.append, idx), cancel))
    for handle, cancel in handles:
        if cancel:
            handle.cancel()
    sim.run()
    expected = {i for i, (_, cancel) in enumerate(entries) if not cancel}
    assert set(fired) == expected


# ----------------------------------------------------------------------
# Kernel internals: _pop_live, the same-time FIFO fast path, late
# cancels, and lazy-deletion compaction.
# ----------------------------------------------------------------------
class TestPopLive:
    def test_pops_in_fire_order(self):
        sim = Simulator()
        a = sim.schedule(5, lambda: None)
        b = sim.schedule(3, lambda: None)
        c = sim.schedule(3, lambda: None)
        assert sim._pop_live() is b
        assert sim._pop_live() is c
        assert sim._pop_live() is a
        assert sim._pop_live() is None

    def test_skips_cancelled_heads(self):
        sim = Simulator()
        a = sim.schedule(1, lambda: None)
        b = sim.schedule(2, lambda: None)
        a.cancel()
        assert sim._pop_live() is b
        assert sim._pop_live() is None

    def test_same_time_heap_entry_wins_over_fifo(self):
        # A zero-delay schedule lands in the FIFO; an entry already in
        # the heap for the same instant is older and must pop first.
        sim = Simulator()
        heap_first = sim.schedule(4, lambda: None)
        sim.run(until=3)  # advance the clock below t=4
        sim.now = 4  # reach t=4 without firing heap_first
        fifo_second = sim.schedule(0, lambda: None)
        assert sim._pop_live() is heap_first
        assert sim._pop_live() is fifo_second

    def test_pop_live_matches_peek_live(self):
        sim = Simulator()
        sim.schedule(7, lambda: None)
        sim.schedule(0, lambda: None)
        peeked = sim._peek_live()
        assert sim._pop_live() is peeked


class TestSameTimeFifoFastPath:
    def test_zero_delay_bypasses_heap(self):
        sim = Simulator()
        sim.schedule(0, lambda: None)
        assert len(sim._heap) == 0
        assert len(sim._fifo) == 1

    def test_schedule_at_now_bypasses_heap(self):
        sim = Simulator(start_time=10)
        sim.schedule_at(10, lambda: None)
        assert len(sim._heap) == 0
        assert len(sim._fifo) == 1

    def test_cascading_zero_delays_fire_in_order(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                sim.schedule(0, chain, n + 1)

        sim.schedule(3, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sim.now == 3

    def test_interleaved_zero_and_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1, fired.append, "late")

        def at_zero():
            fired.append("first")
            sim.schedule(0, fired.append, "second")

        sim.schedule(0, at_zero)
        sim.run()
        assert fired == ["first", "second", "late"]


class TestHandlePool:
    """Fired handles are never reused, so a late cancel is a no-op."""

    def test_retained_handle_never_recycled(self):
        sim = Simulator()
        fired = []
        kept = sim.schedule(1, fired.append, "a")
        sim.run()
        kept.cancel()  # late, after firing
        assert sim._cancelled_pending == 0
        fresh = sim.schedule(1, fired.append, "b")
        assert fresh is not kept
        assert not fresh.cancelled

    def test_late_cancel_after_reuse_does_not_kill_new_event(self):
        # The dangerous sequence: fire handle A, user keeps a reference
        # and cancels late.  The cancel must not hit a later event.
        sim = Simulator()
        fired = []
        kept = sim.schedule(1, fired.append, "a")
        sim.run()
        kept.cancel()  # late, after firing
        fresh = sim.schedule(1, fired.append, "b")
        assert fresh is not kept
        sim.run()
        assert fired == ["a", "b"]


class TestLazyCompaction:
    def test_mass_cancel_compacts_heap(self):
        from repro.sim.core import _COMPACT_MIN

        sim = Simulator()
        handles = [sim.schedule(i + 1, lambda: None) for i in range(4 * _COMPACT_MIN)]
        for i, handle in enumerate(handles):
            if i % 4:
                handle.cancel()
        # Cancelled entries outnumber live ones -> compaction kicked in.
        assert len(sim._heap) < len(handles)
        assert sim._cancelled_pending < _COMPACT_MIN
        sim.run()
        assert sim.events_processed == len(handles) // 4

    def test_compaction_preserves_order(self):
        from repro.sim.core import _COMPACT_MIN

        sim = Simulator()
        fired = []
        keep = []
        for i in range(4 * _COMPACT_MIN):
            handle = sim.schedule(i + 1, fired.append, i)
            if i % 4:
                handle.cancel()
            else:
                keep.append(i)
        sim.run()
        assert fired == keep

    def test_counter_resets_after_compact(self):
        sim = Simulator()
        handles = [sim.schedule(i + 1, lambda: None) for i in range(300)]
        for handle in handles:
            handle.cancel()
        assert sim._cancelled_pending < len(handles)
