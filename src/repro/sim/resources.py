"""Shared resources for simulated processes: stores and semaphores.

:class:`Store`
    A FIFO buffer of items with optional capacity.  ``put``/``get``
    return waitables, so producers block when full and consumers block
    when empty — this is the building block for AXI-stream channels and
    NIC queues.

:class:`Resource`
    A counting semaphore with FIFO grant order, used for memory-bus
    slots, MSHR entries and similar bounded resources.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import SimulationError
from repro.sim.core import Simulator
from repro.sim.process import Waitable

__all__ = ["Store", "Resource"]


class _PutRequest(Waitable):
    __slots__ = ("item",)

    def __init__(self, sim: Simulator, item: Any) -> None:
        super().__init__(sim)
        self.item = item


class Store:
    """FIFO item buffer with optional bounded capacity.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity:
        Maximum number of buffered items; ``None`` means unbounded.

    Notes
    -----
    Matching is strict FIFO on both sides: the oldest blocked ``put``
    completes first, and the oldest blocked ``get`` receives the oldest
    item.  All completions happen synchronously at the current simulated
    time (zero-delay hand-off), which models a combinational queue slot;
    timing is added by the modules around the store.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = "") -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"Store capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Waitable] = deque()
        self._putters: Deque[_PutRequest] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        """True when the buffer holds ``capacity`` items."""
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Waitable:
        """Offer *item*; the returned waitable triggers when accepted."""
        req = _PutRequest(self.sim, item)
        self._putters.append(req)
        self._settle()
        return req

    def get(self) -> Waitable:
        """Request an item; the waitable's value is the received item."""
        req = Waitable(self.sim)
        self._getters.append(req)
        self._settle()
        return req

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        self._settle()
        if self._items:
            item = self._items.popleft()
            self._settle()
            return True, item
        return False, None

    def _settle(self) -> None:
        # Move blocked puts into the buffer while room remains, then
        # satisfy blocked gets from the buffer, repeating until stable.
        moved = True
        while moved:
            moved = False
            while self._putters and not self.full:
                put_req = self._putters.popleft()
                self._items.append(put_req.item)
                put_req.trigger(None)
                moved = True
            while self._getters and self._items:
                get_req = self._getters.popleft()
                get_req.trigger(self._items.popleft())
                moved = True


class Resource:
    """Counting semaphore with FIFO grants.

    ``acquire()`` returns a waitable that triggers once a slot is held;
    its value is an opaque token to pass back to ``release``.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"Resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Waitable] = deque()
        # occupancy statistics
        self._busy_time = 0
        self._last_change = sim.now

    @property
    def in_use(self) -> int:
        """Number of slots currently held."""
        return self._in_use

    @property
    def available(self) -> int:
        """Number of free slots."""
        return self.capacity - self._in_use

    def try_acquire(self) -> bool:
        """Take a free slot at once; False (nothing taken) when full.

        The synchronous twin of :meth:`acquire` for callers that can
        skip the waitable when a slot is free.  Waiters only exist
        while every slot is held, so FIFO grant order is unaffected.
        """
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            return True
        return False

    def acquire(self, req: Optional[Waitable] = None) -> Waitable:
        """Wait for a slot; the waitable value is a release token.

        *req* is the waitable to trigger with the slot (a fresh
        :class:`Waitable` when omitted); a subclass can note the grant
        in its own ``trigger``.
        """
        if req is None:
            req = Waitable(self.sim)
        if self.try_acquire():
            req.trigger(self)
        else:
            self._waiters.append(req)
        return req

    def release(self, _token: Any = None) -> None:
        """Free a slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"Resource {self.name!r} released below zero")
        if self._waiters:
            # Hand the slot directly to the next waiter; occupancy is
            # unchanged, so no accounting update is needed.
            self._waiters.popleft().trigger(self)
        else:
            self._account()
            self._in_use -= 1

    def _account(self) -> None:
        now = self.sim.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    def utilization(self) -> float:
        """Mean fraction of capacity held since simulation start."""
        self._account()
        elapsed = self.sim.now
        if elapsed <= 0:
            return 0.0
        return self._busy_time / (elapsed * self.capacity)
