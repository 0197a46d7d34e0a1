"""CPU-side miss handling: the outstanding-request window.

A POWER9 core tracks in-flight cache misses in miss-status holding
registers (MSHRs); the node-wide window bounds how many remote
cache-line transactions can be outstanding simultaneously.  This bound
is what makes the system a *closed* queueing network, and — by
Little's law — what produces the constant bandwidth-delay product the
paper measures (Fig. 3): ``BDP = window x line_bytes``.
"""

from __future__ import annotations

from typing import Any

from repro.config import CpuConfig
from repro.obs import LogHistogram
from repro.sim import Resource, Simulator, Waitable

__all__ = ["MemoryWindow"]


class MemoryWindow:
    """Bounded window of outstanding memory transactions.

    Thin wrapper over :class:`~repro.sim.Resource` with occupancy
    statistics; shared by every workload instance on the node, as the
    hardware window is.  Besides peak occupancy, the window keeps a
    log-bucketed histogram of MSHR acquisition waits (simulated ps) —
    the "how long were misses stalled behind a full window" signal the
    observability report reads.
    """

    def __init__(self, sim: Simulator, config: CpuConfig, name: str = "mshr") -> None:
        self.sim = sim
        self.config = config
        self._slots = Resource(sim, config.max_outstanding_misses, name=name)
        self.peak_occupancy = 0
        self.wait_hist = LogHistogram()

    @property
    def capacity(self) -> int:
        """Maximum outstanding transactions (W)."""
        return self._slots.capacity

    @property
    def outstanding(self) -> int:
        """Transactions currently in flight."""
        return self._slots.in_use

    def try_acquire(self) -> bool:
        """Claim a free slot without waiting; False when the window is full."""
        if not self._slots.try_acquire():
            return False
        self._granted(0)
        return True

    def acquire(self) -> Waitable:
        """Claim a window slot (blocks the caller when the window is full)."""
        return self._slots.acquire(_SlotGrant(self))

    def _granted(self, wait: int) -> None:
        if self._slots.in_use > self.peak_occupancy:
            self.peak_occupancy = self._slots.in_use
        self.wait_hist.record(wait)

    def release(self) -> None:
        """Return a slot when the transaction's response arrives."""
        self._slots.release()

    def utilization(self) -> float:
        """Mean occupied fraction of the window since simulation start."""
        return self._slots.utilization()


class _SlotGrant(Waitable):
    """One window acquire: the freed slot is handed to its waiter by
    :meth:`trigger`, which records the wait first — no callback per
    grant."""

    __slots__ = ("window", "requested_at")

    def __init__(self, window: MemoryWindow) -> None:
        super().__init__(window.sim)
        self.window = window
        self.requested_at = window.sim.now

    def trigger(self, value: Any = None) -> None:
        self.window._granted(self.sim.now - self.requested_at)
        Waitable.trigger(self, value)
