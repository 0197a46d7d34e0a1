"""Durable artifacts and simulation checkpoints (``repro.resilience``).

The in-simulation fault machinery (:mod:`repro.net.faults`,
:mod:`repro.core.resilience`) models *link* failures; this package
holds the two host-side guarantees the simulator itself relies on:

:mod:`repro.resilience.atomicio`
    Atomic result writes (tmp + fsync + ``os.replace``) shared by every
    artifact writer in the repository (simlint rule SIM007 keeps it
    that way).

:mod:`repro.resilience.checkpoint`
    Versioned simulation checkpoints: the :class:`Snapshotable`
    protocol, plus save/restore of the kernel blob from
    :meth:`repro.sim.core.Simulator.snapshot` together with full
    per-stream RNG state.  Restore-then-run is bit-identical to an
    uninterrupted run.
"""

from repro.resilience.atomicio import atomic_write_json, atomic_write_text
from repro.resilience.checkpoint import (
    Checkpoint,
    Snapshotable,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "atomic_write_json",
    "atomic_write_text",
    "Checkpoint",
    "Snapshotable",
    "load_checkpoint",
    "save_checkpoint",
]
