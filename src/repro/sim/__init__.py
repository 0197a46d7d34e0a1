"""Discrete-event simulation kernel.

A small, deterministic, generator-based DES kernel in the style of
SimPy, specialized for this project:

* integer-picosecond simulated time (:mod:`repro.units`),
* heap-scheduled events with stable FIFO tie-breaking,
* processes written as Python generators that ``yield`` waitables
  (:class:`Timeout`, :class:`Signal`, another :class:`Process`,
  :class:`~repro.sim.resources.Store` operations, ...),
* named, reproducible RNG streams (:mod:`repro.sim.rng`),
* statistics recording and the per-run transaction record
  (:mod:`repro.sim.trace`).
"""

from repro.sim.core import EventHandle, Simulator
from repro.sim.eventlog import EventLog, LogEntry
from repro.sim.process import AllOf, AnyOf, Process, Signal, Timeout, Waitable
from repro.sim.resources import Resource, Store
from repro.sim.rng import RngStreams
from repro.sim.trace import SampleSeries, StatRecorder

__all__ = [
    "Simulator",
    "EventHandle",
    "Process",
    "Waitable",
    "Signal",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Resource",
    "Store",
    "RngStreams",
    "StatRecorder",
    "SampleSeries",
    "EventLog",
    "LogEntry",
]
