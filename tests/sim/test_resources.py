"""Unit tests for Store and Resource."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Resource, Simulator, Store, Timeout


def test_store_put_get_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for i in range(5):
            yield store.put(i)
            yield Timeout(sim, 1)

    def consumer():
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    times = []

    def consumer():
        item = yield store.get()
        times.append((sim.now, item))

    def producer():
        yield Timeout(sim, 42)
        yield store.put("x")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert times == [(42, "x")]


def test_store_put_blocks_when_full():
    sim = Simulator()
    store = Store(sim, capacity=2)
    log = []

    def producer():
        for i in range(4):
            yield store.put(i)
            log.append(("put", i, sim.now))

    def consumer():
        yield Timeout(sim, 100)
        for _ in range(4):
            item = yield store.get()
            log.append(("got", item, sim.now))
            yield Timeout(sim, 10)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    puts = [(i, t) for op, i, t in log if op == "put"]
    # First two puts at t=0 (buffer room), third when first get frees a slot.
    assert puts[0] == (0, 0) and puts[1] == (1, 0)
    assert puts[2] == (2, 100)
    assert puts[3] == (3, 110)


def test_store_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Store(sim, capacity=0)


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    ok, item = store.try_get()
    assert not ok and item is None
    store.put("a")
    sim.run()
    ok, item = store.try_get()
    assert ok and item == "a"


def test_store_len_and_full():
    sim = Simulator()
    store = Store(sim, capacity=1)
    assert not store.full and len(store) == 0
    store.put(1)
    assert store.full and len(store) == 1


def test_resource_acquire_release_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(idx, hold):
        token = yield res.acquire()
        order.append((idx, sim.now))
        yield Timeout(sim, hold)
        res.release(token)

    for i in range(3):
        sim.process(worker(i, 10))
    sim.run()
    assert order == [(0, 0), (1, 10), (2, 20)]


def test_resource_capacity_gt_one():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    order = []

    def worker(idx):
        token = yield res.acquire()
        order.append((idx, sim.now))
        yield Timeout(sim, 10)
        res.release(token)

    for i in range(4):
        sim.process(worker(i))
    sim.run()
    assert order == [(0, 0), (1, 0), (2, 10), (3, 10)]


def test_resource_release_below_zero_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_counts():
    sim = Simulator()
    res = Resource(sim, capacity=3)
    res.acquire()
    res.acquire()
    sim.run()
    assert res.in_use == 2 and res.available == 1


def test_resource_utilization():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        token = yield res.acquire()
        yield Timeout(sim, 50)
        res.release(token)
        yield Timeout(sim, 50)

    sim.process(worker())
    sim.run()
    assert res.utilization() == pytest.approx(0.5)


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=40))
def test_property_store_conservation_and_order(items):
    """Every item put is got exactly once, in FIFO order."""
    sim = Simulator()
    store = Store(sim, capacity=3)
    got = []

    def producer():
        for it in items:
            yield store.put(it)

    def consumer():
        for _ in items:
            value = yield store.get()
            got.append(value)
            yield Timeout(sim, 1)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == list(items)


@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=30),
)
def test_property_resource_never_oversubscribed(capacity, holds):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    max_seen = [0]

    def worker(hold):
        token = yield res.acquire()
        max_seen[0] = max(max_seen[0], res.in_use)
        yield Timeout(sim, hold)
        res.release(token)

    for hold in holds:
        sim.process(worker(hold))
    sim.run()
    assert max_seen[0] <= capacity
    assert res.in_use == 0
