"""Kernel contracts that the hot-path shortcuts must keep.

A process sleeping on an anonymous ``Timeout`` is resumed straight from
the timeout's handle, and a free MSHR/resource slot is taken without a
waitable.  Neither shortcut may change what a caller can observe: event
order, timeout values, kill semantics, occupancy statistics, or
snapshot/restore identity.
"""

import random

from repro.config import CpuConfig
from repro.errors import ProcessKilled
from repro.node.cpu import MemoryWindow
from repro.obs.metrics import LogHistogram
from repro.sim import AllOf, AnyOf, Resource, Simulator, Timeout


# ----------------------------------------------------------------------
# (a) Event order: fast-path sleepers, same-time callbacks, FIFO entries
# ----------------------------------------------------------------------
class TestSleepOrder:
    def test_interleaving_matches_reference_order(self):
        # Hand-traced reference: heap entries at t=5 fire by seq (the two
        # callbacks, then the sleeper scheduled after them); FIFO entries
        # made at t=5 follow in scheduling order.
        sim = Simulator()
        log = []

        def sleeper():
            yield Timeout(sim, 5)
            log.append(("P", sim.now))
            sim.schedule(0, log.append, ("fifo-from-P", sim.now))
            yield Timeout(sim, 0)
            log.append(("P-after-zero", sim.now))
            yield Timeout(sim, 3, "v")
            log.append(("P-late", sim.now))

        def early():
            log.append(("cb-early", sim.now))

        def late():
            log.append(("cb-late", sim.now))
            sim.schedule(0, log.append, ("fifo-from-cb", sim.now))

        sim.schedule(5, early)
        sim.process(sleeper())
        sim.schedule(5, late)
        sim.schedule(8, log.append, ("cb-8", 8))
        sim.run()
        assert log == [
            ("cb-early", 5),
            ("cb-late", 5),
            ("P", 5),
            ("fifo-from-cb", 5),
            ("fifo-from-P", 5),
            ("P-after-zero", 5),
            ("cb-8", 8),
            ("P-late", 8),
        ]

    @staticmethod
    def _storm(held: bool, seed: int):
        """Sleepers and callbacks on shared instants; returns the log.

        With ``held`` every sleeper keeps its Timeout in a local, which
        forces the ordinary waitable path; otherwise the Timeout is
        anonymous and takes the direct-resume path.
        """
        rng = random.Random(seed)
        sim = Simulator()
        log = []

        def sleeper(name, delays):
            for i, delay in enumerate(delays):
                if held:
                    timeout = Timeout(sim, delay, i)
                    value = yield timeout
                    assert timeout.triggered
                else:
                    value = yield Timeout(sim, delay, i)
                log.append((sim.now, name, value))
                if delay % 3 == 0:
                    sim.schedule(0, log.append, (sim.now, name, "fifo"))

        def callback(tag):
            log.append((sim.now, "cb", tag))
            if tag % 2:
                sim.schedule(0, log.append, (sim.now, "cb-fifo", tag))

        for p in range(6):
            delays = [rng.choice((0, 1, 2, 3, 6)) for _ in range(20)]
            sim.process(sleeper(f"p{p}", delays))
        for tag in range(60):
            sim.schedule(rng.randrange(0, 40), callback, tag)
        sim.run()
        return log, sim.events_processed

    def test_direct_resume_orders_like_waitable_path(self):
        for seed in range(5):
            fast, fast_events = self._storm(held=False, seed=seed)
            slow, slow_events = self._storm(held=True, seed=seed)
            assert fast == slow
            assert fast_events == slow_events


# ----------------------------------------------------------------------
# (b) A Timeout somebody else can see keeps full waitable semantics
# ----------------------------------------------------------------------
class TestObservableTimeout:
    def test_held_timeout_triggers_with_value(self):
        sim = Simulator()
        seen = []

        def proc():
            timeout = Timeout(sim, 7, "payload")
            value = yield timeout
            seen.append((value, timeout.triggered, timeout.value, sim.now))

        sim.process(proc())
        sim.run()
        assert seen == [("payload", True, "payload", 7)]

    def test_anyof_and_allof_children_trigger(self):
        sim = Simulator()
        seen = []

        def proc():
            idx, value = yield AnyOf(sim, [Timeout(sim, 9, "slow"), Timeout(sim, 4, "fast")])
            seen.append((idx, value, sim.now))
            values = yield AllOf(sim, [Timeout(sim, 2, "a"), Timeout(sim, 5, "b")])
            seen.append((values, sim.now))

        sim.process(proc())
        sim.run()
        assert seen == [(1, "fast", 4), (["a", "b"], 9)]

    def test_anonymous_timeout_with_callback_still_triggers(self):
        # Nothing but the callback list refers to the timeout, so only
        # the "no callbacks" condition keeps it off the direct path.
        sim = Simulator()
        fired = []

        def watched(timeout):
            timeout.add_callback(lambda t: fired.append((t.value, sim.now)))
            return timeout

        def proc():
            value = yield watched(Timeout(sim, 3, "x"))
            fired.append(("resumed", value))

        sim.process(proc())
        sim.run()
        assert fired == [("x", 3), ("resumed", "x")]


# ----------------------------------------------------------------------
# (c) Killing a process during a fast-path sleep
# ----------------------------------------------------------------------
class TestKillDuringSleep:
    def test_kill_fails_once_and_never_resumes(self):
        sim = Simulator()
        resumed = []
        failures = []

        def sleeper():
            yield Timeout(sim, 10)
            resumed.append(sim.now)

        proc = sim.process(sleeper())
        proc.add_callback(lambda p: failures.append((type(p._exc), sim.now)))  # noqa: SLF001
        sim.schedule(5, proc.kill, "stop")
        sim.run()
        assert failures == [(ProcessKilled, 5)]
        assert resumed == []
        assert not proc.alive
        # The orphaned wake-up still fired at t=10, as a no-op.
        assert sim.now == 10


# ----------------------------------------------------------------------
# (d) try_acquire records exactly what acquire records
# ----------------------------------------------------------------------
def _drive_window(fast: bool):
    sim = Simulator()
    window = MemoryWindow(sim, CpuConfig(max_outstanding_misses=3))

    def txn(start, hold):
        yield Timeout(sim, start)
        if not (fast and window.try_acquire()):
            yield window.acquire()
        yield Timeout(sim, hold)
        window.release()

    rng = random.Random(11)
    for _ in range(40):
        sim.process(txn(rng.randrange(0, 200), rng.randrange(1, 60)))
    sim.run()
    return window, sim


def _drive_resource(fast: bool):
    sim = Simulator()
    res = Resource(sim, 2)
    order = []

    def user(name, start, hold):
        yield Timeout(sim, start)
        if not (fast and res.try_acquire()):
            yield res.acquire()
        order.append((sim.now, name))
        yield Timeout(sim, hold)
        res.release()

    rng = random.Random(5)
    for i in range(30):
        sim.process(user(i, rng.randrange(0, 100), rng.randrange(1, 40)))
    sim.run(until=400)
    return res, order


class TestTryAcquire:
    def test_window_statistics_match_acquire(self):
        fast, fast_sim = _drive_window(fast=True)
        slow, slow_sim = _drive_window(fast=False)
        assert fast.wait_hist.count > 0 and slow.wait_hist.count > 0
        assert fast.wait_hist.to_dict() == slow.wait_hist.to_dict()
        assert fast.peak_occupancy == slow.peak_occupancy == 3
        assert fast.utilization() == slow.utilization()
        assert fast_sim.now == slow_sim.now

    def test_resource_grants_and_utilization_match_acquire(self):
        fast, fast_order = _drive_resource(fast=True)
        slow, slow_order = _drive_resource(fast=False)
        assert fast_order == slow_order
        assert fast.utilization() == slow.utilization() > 0

    def test_uncontended_statistics_are_exact(self):
        sim = Simulator()
        window = MemoryWindow(sim, CpuConfig(max_outstanding_misses=4))

        def txn(start, hold):
            yield Timeout(sim, start)
            assert window.try_acquire()
            yield Timeout(sim, hold)
            window.release()

        sim.process(txn(0, 10))
        sim.process(txn(5, 10))
        sim.run(until=20)
        assert window.peak_occupancy == 2
        zeros = LogHistogram()
        zeros.record(0, n=2)
        assert window.wait_hist.to_dict() == zeros.to_dict()
        # One slot over [0, 5), two over [5, 10), one over [10, 15):
        # 20 slot-ps out of 4 slots x 20 ps.
        assert window.utilization() == 20 / (4 * 20)

    def test_full_resource_refuses_without_side_effects(self):
        sim = Simulator()
        res = Resource(sim, 1)
        assert res.try_acquire()
        assert not res.try_acquire()
        assert res.in_use == 1
        res.release()
        assert res.in_use == 0


# ----------------------------------------------------------------------
# (e) Snapshot/restore across cancelled tuple-heap entries
# ----------------------------------------------------------------------
def _append(log, tag):
    """Module-level (picklable) event callback."""
    log.append(tag)


class TestSnapshotWithCancelled:
    def test_restore_continues_bit_identically(self):
        sim1 = Simulator()
        log1 = []
        rng = random.Random(3)
        handles = [sim1.schedule(rng.randrange(1, 500), _append, log1, i) for i in range(200)]
        for handle in handles[::3]:
            handle.cancel()
        sim1.run(until=150)
        handles[1].cancel()  # late cancels too, some already fired
        handles[-1].cancel()
        sim1.schedule(0, _append, log1, "fifo")
        blob = sim1.snapshot(roots={"log": log1})
        # Cancelled entries are still queued lazily at snapshot time.
        assert any(entry[2].cancelled for entry in sim1._heap)  # noqa: SLF001

        sim2 = Simulator()
        log2 = sim2.restore(blob)["log"]
        assert all(not entry[2].cancelled for entry in sim2._heap)  # noqa: SLF001
        for sim, log in ((sim1, log1), (sim2, log2)):
            sim.schedule(25, _append, log, "post")
            sim.run()
        assert log2 == log1
        assert sim2.now == sim1.now
        assert sim2.events_processed == sim1.events_processed
        assert sim2.snapshot() == sim1.snapshot()
