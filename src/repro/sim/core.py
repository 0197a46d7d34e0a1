"""Event queue and simulation clock.

The kernel is callback-based at the bottom: :class:`Simulator` keeps
one binary heap of ``(time, seq, handle)`` tuples and fires each
:class:`EventHandle`'s callback at its scheduled time.  Processes and
waitables (:mod:`repro.sim.process`) are built on top of this primitive.

Determinism: events scheduled for the same simulated time fire in the
order they were scheduled (the monotonically increasing sequence number
breaks ties), so runs are exactly reproducible.  ``(time, seq)`` is
unique per event, so ``heapq`` orders the tuples by their first two
fields, in C, and never compares two handles.

The hot path, all invisible to callers:

* **Same-time FIFO** — an event scheduled for the *current* instant
  (``delay == 0``) goes to a plain deque instead of the heap.  Ordering
  is preserved because every heap entry at time ``t`` was necessarily
  pushed while ``now < t`` (a same-time schedule never reaches the
  heap), so heap entries at the current time always carry smaller
  sequence numbers than deque entries and are drained first.
* **Plain clock** — :attr:`Simulator.now` is an ordinary attribute that
  only the dispatch loop (and :meth:`Simulator.restore`) writes.
* **Direct resume** — a process sleeping on an anonymous
  :class:`~repro.sim.process.Timeout` has the timeout's scheduled handle
  re-pointed at the process itself, so the wake-up is one callback with
  the timeout's own ``(time, seq)`` (see ``Process._resume``).
* **Lazy-deletion compaction** — ``cancel()`` marks the handle and the
  loop drops it when popped; when cancelled entries exceed half the
  queue (and a minimum count), the heap is rebuilt without them so a
  cancel-heavy workload cannot grow the heap unboundedly.
"""

from __future__ import annotations

import io
import pickle
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Mapping, Optional

from repro.errors import CheckpointError, SimulationError
from repro.units import Duration, Time

__all__ = ["EventHandle", "Simulator"]

#: Compaction triggers once at least this many cancelled entries are
#: pending *and* they outnumber the live entries.
_COMPACT_MIN = 64


def _bad_pid(pid: Any) -> None:
    """Reject persistent ids other than the kernel placeholder."""
    raise CheckpointError(f"unknown persistent id {pid!r} in simulator snapshot")


class EventHandle:
    """A scheduled callback that can be cancelled before it fires."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: Time,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        # Backref for cancellation accounting; cleared when the handle
        # fires so post-fire cancels don't skew the compaction counter.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing (no-op if already fired)."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so cancelled events don't pin objects while
        # they sit in the heap waiting to be popped.
        self.callback = _noop
        self.args = ()
        sim = self._sim
        if sim is not None:
            sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time}, seq={self.seq}, {state})"


def _noop(*_args: Any) -> None:
    return None


class Simulator:
    """Discrete-event simulator with an integer-picosecond clock.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock (picoseconds).

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5, fired.append, 'a')
    >>> _ = sim.schedule(3, fired.append, 'b')
    >>> sim.run()
    5
    >>> fired
    ['b', 'a']
    >>> sim.now
    5
    """

    def __init__(self, start_time: Time = 0) -> None:
        #: Current simulated time in picoseconds.  Read freely; only the
        #: dispatch loop and :meth:`restore` write it.
        self.now: Time = start_time
        #: Future events as ``(time, seq, handle)`` tuples.
        self._heap: list[tuple[Time, int, EventHandle]] = []
        #: Events scheduled for the current instant (the same-time fast
        #: path).  Invariant: every entry's time equals ``now`` — the
        #: clock cannot advance while the deque is non-empty because
        #: its entries are always the most urgent work.
        self._fifo: deque[EventHandle] = deque()
        self._seq: int = 0
        self._cancelled_pending = 0
        self._running = False
        self._event_count = 0
        self._observer: Optional[Any] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of events fired so far (diagnostics)."""
        return self._event_count

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def set_observer(self, observer: Any) -> None:
        """Install an event observer (see :mod:`repro.obs`).

        The observer's ``on_event(sim, handle)`` is called *instead of*
        the plain ``handle.callback(*handle.args)`` dispatch and must
        invoke the callback itself.  Observers may time callbacks and
        read simulator state but must never schedule events — the
        kernel stays deterministic only because observation is
        read-only.  With no observer installed (the default), dispatch
        is a single ``is None`` check per event.
        """
        self._observer = observer

    def clear_observer(self) -> None:
        """Remove the installed observer (no-op when none is set)."""
        self._observer = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: Duration, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule *callback(*args)* to fire ``delay`` ps from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        time = self.now + delay
        handle = EventHandle(time, seq, callback, args, self)
        if delay:
            heappush(self._heap, (time, seq, handle))
        else:
            self._fifo.append(handle)
        return handle

    def schedule_at(
        self, time: Time, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule *callback(*args)* at absolute simulated time *time*."""
        now = self.now
        if time < now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={now}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, self)
        if time > now:
            heappush(self._heap, (time, seq, handle))
        else:
            self._fifo.append(handle)
        return handle

    # ------------------------------------------------------------------
    # Queue maintenance (lazy deletion)
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Bookkeeping hook invoked by :meth:`EventHandle.cancel`."""
        self._cancelled_pending += 1
        pending = len(self._heap) + len(self._fifo)
        if (
            self._cancelled_pending >= _COMPACT_MIN
            and self._cancelled_pending * 2 >= pending
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the queues without their cancelled entries.

        Mutates the containers in place so hot loops holding local
        aliases keep seeing the live objects.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapify(heap)
        fifo = self._fifo
        if fifo:
            live = [h for h in fifo if not h.cancelled]
            fifo.clear()
            fifo.extend(live)
        self._cancelled_pending = 0

    def _peek_live(self) -> Optional[EventHandle]:
        """The next live handle (pruning cancelled heads), or None.

        The returned handle is *not* removed.  When both queues hold
        events at the same time the heap entry wins: heap entries at a
        given time are always older (smaller ``seq``) than same-time
        FIFO entries, which only accumulate once the clock has reached
        that time.
        """
        heap = self._heap
        fifo = self._fifo
        head: Optional[EventHandle] = None
        while heap:
            head = heap[0][2]
            if not head.cancelled:
                break
            heappop(heap)
            self._cancelled_pending -= 1
            head = None
        while fifo:
            front = fifo[0]
            if not front.cancelled:
                if head is None or front.time < head.time:
                    head = front
                break
            fifo.popleft()
            self._cancelled_pending -= 1
        return head

    def _pop_live(self) -> Optional[EventHandle]:
        """Remove and return the next live handle, or None if drained."""
        handle = self._peek_live()
        if handle is None:
            return None
        fifo = self._fifo
        if fifo and fifo[0] is handle:
            fifo.popleft()
        else:
            heappop(self._heap)
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next event.  Returns False if none remain."""
        handle = self._pop_live()
        if handle is None:
            return False
        if handle.time < self.now:  # pragma: no cover - defensive
            raise SimulationError("event heap yielded an event in the past")
        self.now = handle.time
        self._event_count += 1
        handle._sim = None
        observer = self._observer
        if observer is None:
            handle.callback(*handle.args)
        else:
            observer.on_event(self, handle)
        return True

    def run(
        self,
        until: Optional[Time] = None,
        max_events: Optional[int] = None,
    ) -> Time:
        """Run until the event queue drains, or *until* / *max_events*.

        Parameters
        ----------
        until:
            Absolute simulated time at which to stop.  Events scheduled
            exactly at *until* are still fired; the clock never exceeds
            *until* on return unless an event fired at a later time was
            already due.
        max_events:
            Safety valve; at most this many events fire, and
            :class:`SimulationError` is raised if more remain after.

        Returns
        -------
        Time
            The simulated clock at exit.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        # The dispatch loop is the hottest path in the whole simulator:
        # everything is bound to locals and the next-event selection is
        # inlined rather than routed through step()/_pop_live().
        fired = 0
        budget = -1 if max_events is None else max_events
        heap = self._heap
        fifo = self._fifo
        try:
            while True:
                # -- select the next live handle ------------------------
                # Same-time heap entries are older (smaller seq) than
                # FIFO entries and fire first; see _peek_live.
                if heap and (not fifo or heap[0][0] <= self.now):
                    time, _, handle = heap[0]
                    if handle.cancelled:
                        heappop(heap)
                        self._cancelled_pending -= 1
                        continue
                    from_fifo = False
                elif fifo:
                    handle = fifo[0]
                    if handle.cancelled:
                        fifo.popleft()
                        self._cancelled_pending -= 1
                        continue
                    time = handle.time
                    from_fifo = True
                else:
                    if until is not None and until > self.now:
                        self.now = until
                    break
                if until is not None and time > until:
                    self.now = until
                    break
                # Check the budget before firing: exactly max_events
                # events run, and the error means a further event was
                # genuinely pending (a drained queue never raises).
                if fired == budget:
                    raise SimulationError(
                        f"exceeded max_events={max_events} (runaway simulation?)"
                    )
                if from_fifo:
                    fifo.popleft()
                else:
                    heappop(heap)
                # -- dispatch ------------------------------------------
                self.now = time
                self._event_count += 1
                handle._sim = None
                observer = self._observer
                if observer is None:
                    handle.callback(*handle.args)
                else:
                    observer.on_event(self, handle)
                fired += 1
        finally:
            self._running = False
        return self.now

    def peek(self) -> Optional[Time]:
        """Time of the next pending event, or None if the queue is empty."""
        handle = self._peek_live()
        return handle.time if handle is not None else None

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def snapshot(self, roots: Optional[Mapping[str, Any]] = None) -> bytes:
        """Capture the kernel state as an opaque, self-contained blob.

        The blob holds the clock, the sequence counter, the event
        tally, and a deep copy (via pickle) of every *live* scheduled
        event — callback, arguments, and the object graph they reach.
        Cancelled entries are dropped; they are unobservable.  *roots*
        optionally names extra objects to capture in the same pickle
        (sharing identity with the event graph), so a caller can
        recover its model references after :meth:`restore` — which
        returns them.

        Restore-then-run is bit-identical to never snapshotting: the
        ``(time, seq)`` pairs that define dispatch order are preserved
        exactly, and ``_seq`` continues from its saved value.

        Raises :class:`~repro.errors.CheckpointError` when the event
        queue holds unpicklable state — most commonly a generator-based
        :class:`~repro.sim.process.Process` mid-execution (Python
        generators cannot be serialized); checkpoint at a quiescent
        point (between :meth:`run` calls with no live processes) or
        model long-lived actors as :class:`Snapshotable` components.
        """
        if self._running:
            raise CheckpointError("cannot snapshot while run() is active")
        entries: list[tuple[str, Time, int, Callable[..., None], tuple[Any, ...]]] = []
        future = [entry[2] for entry in self._heap]
        for where, handles in (("heap", future), ("fifo", list(self._fifo))):
            for handle in handles:
                if not handle.cancelled:
                    entries.append(
                        (where, handle.time, handle.seq, handle.callback, handle.args)
                    )
        # (time, seq) is a total order, so sorting makes the serialized
        # form canonical without changing dispatch order.
        entries.sort(key=lambda e: (e[1], e[2]))
        state = {
            "now": self.now,
            "seq": self._seq,
            "event_count": self._event_count,
            "entries": entries,
            "roots": dict(roots) if roots is not None else None,
        }
        try:
            return self._dumps(state)
        except Exception as exc:
            raise CheckpointError(self._describe_pickle_failure(entries, exc)) from exc

    def _dumps(self, state: Any) -> bytes:
        """Pickle *state* with this kernel mapped to a persistent id.

        Model objects (callback state machines such as
        :class:`~repro.core.resilience.failover.EvacuationReplayer`)
        hold a reference to their simulator; serializing that reference
        by value would hand the restored objects an orphan kernel whose
        queue nobody drains.  A persistent id makes the kernel a
        placeholder in the stream, re-bound by :meth:`restore` to the
        *restoring* simulator.
        """
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.persistent_id = lambda obj: "kernel" if obj is self else None
        pickler.dump(state)
        return buffer.getvalue()

    def _describe_pickle_failure(self, entries, exc: Exception) -> str:
        """Name the first unpicklable scheduled callback, for the error."""
        for where, time, seq, callback, args in entries:
            try:
                self._dumps((callback, args))
            except Exception:
                return (
                    f"event queue is not snapshotable: callback {callback!r} "
                    f"(t={time}, seq={seq}, {where}) does not pickle — "
                    "generator-based processes cannot be checkpointed "
                    f"mid-execution ({exc})"
                )
        return f"simulator state does not pickle: {exc}"

    def restore(self, blob: bytes) -> Optional[dict[str, Any]]:
        """Replace this simulator's state with a :meth:`snapshot` blob.

        Returns the restored *roots* mapping captured at snapshot time
        (or None).  The event queue is rebuilt from the blob's deep
        copy, so objects reachable only through pre-snapshot references
        are no longer part of the simulation — re-wire through the
        returned roots.  The installed observer is kept (observation is
        host-side and never part of simulated state).
        """
        if self._running:
            raise CheckpointError("cannot restore while run() is active")
        try:
            unpickler = pickle.Unpickler(io.BytesIO(blob))
            unpickler.persistent_load = (
                lambda pid: self if pid == "kernel" else _bad_pid(pid)
            )
            state = unpickler.load()
            now, seq = state["now"], state["seq"]
            event_count, entries = state["event_count"], state["entries"]
        except Exception as exc:
            raise CheckpointError(f"unreadable simulator snapshot: {exc}") from exc
        heap: list[tuple[Time, int, EventHandle]] = []
        fifo: list[EventHandle] = []
        for where, time, eseq, callback, args in entries:
            handle = EventHandle(time, eseq, callback, tuple(args), self)
            if where == "heap":
                heap.append((time, eseq, handle))
            else:
                fifo.append(handle)
        self.now = now
        self._seq = seq
        self._event_count = event_count
        heapify(heap)
        self._heap[:] = heap
        self._fifo.clear()
        self._fifo.extend(fifo)
        self._cancelled_pending = 0
        return state.get("roots")

    # Convenience wiring for processes (implemented in process.py; imported
    # lazily to avoid a module cycle).
    def process(self, generator: Any, name: str = "") -> "Any":
        """Start a generator as a simulated :class:`~repro.sim.process.Process`."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    def timeout(self, delay: Duration) -> "Any":
        """Create a :class:`~repro.sim.process.Timeout` waitable."""
        from repro.sim.process import Timeout

        return Timeout(self, delay)
