"""Generator-based simulated processes and waitables.

A *process* is a Python generator driven by the kernel.  Each ``yield``
hands the kernel a :class:`Waitable`; the process resumes (with the
waitable's value sent back in) once the waitable triggers.

Waitables
---------
:class:`Signal`
    One-shot event triggered explicitly by other code.
:class:`Timeout`
    Triggers after a fixed simulated delay.
:class:`Process`
    Itself a waitable — yielding a process joins it and receives its
    return value.
:class:`AnyOf` / :class:`AllOf`
    Combinators over several waitables.

Failure propagation: calling :meth:`Waitable.fail` (or a process raising)
re-raises the exception inside every waiter, at the waiter's next resume
point.  :meth:`Process.kill` throws :class:`~repro.errors.ProcessKilled`
into the generator.
"""

from __future__ import annotations

import sys
from typing import Any, Generator, Iterable, Optional

from repro.errors import ProcessKilled, SimulationError
from repro.sim.core import Simulator
from repro.units import Duration

__all__ = ["Waitable", "Signal", "Timeout", "Process", "AnyOf", "AllOf"]

_PENDING = object()

#: ``sys.getrefcount`` of a yielded :class:`Timeout` that nobody else
#: holds: ``Process._resume``'s local, the call's own argument, and the
#: bound ``_fire`` method in the timeout's scheduled handle.
_ANONYMOUS = 3


class Waitable:
    """Base class: something a process can ``yield`` on.

    A waitable triggers at most once, with either a value or an
    exception; all registered callbacks then fire in registration order.
    """

    __slots__ = ("sim", "_value", "_exc", "_callbacks")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        self._callbacks: list[Any] = []

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the waitable has a value or an exception."""
        return self._value is not _PENDING or self._exc is not None

    @property
    def ok(self) -> bool:
        """True if triggered successfully (no exception)."""
        return self._value is not _PENDING and self._exc is None

    @property
    def value(self) -> Any:
        """The trigger value; raises if not yet triggered or failed."""
        if self._exc is not None:
            raise self._exc
        if self._value is _PENDING:
            raise SimulationError("waitable has not triggered yet")
        return self._value

    # -- triggering ------------------------------------------------------
    def trigger(self, value: Any = None) -> None:
        """Complete successfully with *value* and wake all waiters."""
        if self.triggered:
            raise SimulationError(f"{self!r} triggered twice")
        self._value = value
        self._dispatch()

    def fail(self, exc: BaseException) -> None:
        """Complete exceptionally; waiters see *exc* re-raised."""
        if self.triggered:
            raise SimulationError(f"{self!r} triggered twice")
        self._exc = exc
        self._dispatch()

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    # -- waiting ----------------------------------------------------------
    def add_callback(self, callback: Any) -> None:
        """Invoke *callback(self)* when triggered (immediately if already)."""
        if self.triggered:
            callback(self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"{type(self).__name__}({state})"


class Signal(Waitable):
    """A one-shot event triggered explicitly by simulation code."""

    __slots__ = ()


class Timeout(Waitable):
    """Triggers ``delay`` picoseconds after creation."""

    __slots__ = ("delay", "_handle")

    def __init__(self, sim: Simulator, delay: Duration, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        # Waitable.__init__, inlined: every sleep builds one of these.
        self.sim = sim
        self._value = _PENDING
        self._exc = None
        self._callbacks = []
        self.delay = delay
        self._handle = sim.schedule(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        self._handle = None
        self.trigger(value)

    def cancel(self) -> None:
        """Cancel the pending timeout (no effect if already fired)."""
        if self._handle is not None and not self.triggered:
            self._handle.cancel()


class Process(Waitable):
    """A running simulated process wrapping a generator.

    The process starts immediately (its first segment runs via an event
    scheduled at the current time).  Yield values must be
    :class:`Waitable` instances.  The generator's ``return`` value
    becomes the process's trigger value, so ``result = yield child``
    both joins *child* and fetches its result.

    A freshly yielded :class:`Timeout` that nothing else can observe —
    pending, no callbacks, no other reference — is never triggered:
    its already-scheduled handle is re-pointed to resume the process
    directly, keeping the timeout's ``(time, seq)`` and so the event
    order.  A timeout that is joined or kept in a variable takes the
    ordinary waitable path.
    """

    __slots__ = ("name", "_gen", "_alive")

    def __init__(
        self, sim: Simulator, generator: Generator[Waitable, Any, Any], name: str = ""
    ) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        self.name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        self._alive = True
        sim.schedule(0, self._resume, None, None)

    # -- lifecycle --------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return self._alive

    def kill(self, reason: str = "killed") -> None:
        """Throw :class:`ProcessKilled` into the process at once."""
        if not self._alive:
            return
        self.sim.schedule(0, self._resume, None, ProcessKilled(reason))

    # -- kernel plumbing ---------------------------------------------------
    def _on_child(self, child: Waitable) -> None:
        if not self._alive:
            return
        if child._exc is not None:
            self._resume(None, child._exc)
        else:
            self._resume(child._value, None)

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if not self._alive:
            return
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self._alive = False
            self.trigger(stop.value)
            return
        except ProcessKilled as killed:
            self._alive = False
            self.fail(killed)
            return
        except Exception as err:
            self._alive = False
            self.fail(err)
            return
        if type(target) is Timeout:
            if (
                target._value is _PENDING
                and target._exc is None
                and not target._callbacks
                and sys.getrefcount(target) == _ANONYMOUS
            ):
                handle = target._handle
                handle.callback = self._resume
                handle.args = (handle.args[0], None)
                return
        elif not isinstance(target, Waitable):
            self._alive = False
            bad = SimulationError(
                f"process {self.name!r} yielded {target!r}; expected a Waitable"
            )
            self.fail(bad)
            return
        target.add_callback(self._on_child)


class AnyOf(Waitable):
    """Triggers when the first of *waitables* triggers.

    The value is a ``(index, value)`` pair identifying the winner.  A
    failing child fails the combinator.
    """

    __slots__ = ("_done",)

    def __init__(self, sim: Simulator, waitables: Iterable[Waitable]) -> None:
        super().__init__(sim)
        self._done = False
        children = list(waitables)
        if not children:
            raise SimulationError("AnyOf requires at least one waitable")
        for idx, child in enumerate(children):
            child.add_callback(self._make_cb(idx))

    def _make_cb(self, idx: int) -> Any:
        def cb(child: Waitable) -> None:
            if self._done:
                return
            self._done = True
            if child._exc is not None:
                self.fail(child._exc)
            else:
                self.trigger((idx, child._value))

        return cb


class AllOf(Waitable):
    """Triggers when every one of *waitables* has triggered.

    The value is the list of child values in input order.
    """

    __slots__ = ("_remaining", "_values", "_failed")

    def __init__(self, sim: Simulator, waitables: Iterable[Waitable]) -> None:
        super().__init__(sim)
        children = list(waitables)
        self._remaining = len(children)
        self._values: list[Any] = [None] * len(children)
        self._failed = False
        if not children:
            self.trigger([])
            return
        for idx, child in enumerate(children):
            child.add_callback(self._make_cb(idx))

    def _make_cb(self, idx: int) -> Any:
        def cb(child: Waitable) -> None:
            if self._failed:
                return
            if child._exc is not None:
                self._failed = True
                self.fail(child._exc)
                return
            self._values[idx] = child._value
            self._remaining -= 1
            if self._remaining == 0:
                self.trigger(self._values)

        return cb
