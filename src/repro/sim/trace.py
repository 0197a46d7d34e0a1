"""Statistics recording for simulation components.

:class:`SampleSeries`
    A growable array of scalar samples (e.g. per-request latencies) with
    percentile/mean reductions done vectorized in NumPy at read time.
:class:`StatRecorder`
    One run's counters plus its transaction record: one append-only
    ``array('q')`` row per completed remote transaction, from which the
    latency series, the summary, the metrics histograms and the trace
    are all derived when read.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.obs.metrics import DEFAULT_PERCENTILES, LogHistogram, percentile_key
from repro.obs.tracer import RECORD_COLUMNS

__all__ = ["SampleSeries", "StatRecorder"]


class SampleSeries:
    """Append-only scalar samples with vectorized reductions.

    Samples are buffered in a Python list and materialized into a NumPy
    array lazily — appends are O(1) and reductions are vectorized, per
    the project's HPC style guides.  A series built from a *values*
    array is a read-only snapshot of it.
    """

    __slots__ = ("name", "_buf", "_arr")

    def __init__(self, name: str = "", values: Optional[np.ndarray] = None) -> None:
        self.name = name
        self._buf = [] if values is None else values
        self._arr: Optional[np.ndarray] = values

    def add(self, value: float) -> None:
        """Record one sample."""
        self._buf.append(value)
        self._arr = None

    def extend(self, values: Iterable[float]) -> None:
        """Record many samples."""
        self._buf.extend(values)
        self._arr = None

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def values(self) -> np.ndarray:
        """All samples as a float64 array (cached until next append)."""
        if self._arr is None:
            self._arr = np.asarray(self._buf, dtype=np.float64)
        return self._arr

    def mean(self) -> float:
        """Arithmetic mean (NaN when empty)."""
        return float(self.values.mean()) if len(self) else float("nan")

    def sum(self) -> float:
        """Sum of samples."""
        return float(self.values.sum()) if len(self) else 0.0

    def percentile(self, q: float) -> float:
        """The *q*-th percentile (0-100)."""
        if not len(self):
            return float("nan")
        return float(np.percentile(self.values, q))

    def max(self) -> float:
        """Largest sample (NaN when empty)."""
        return float(self.values.max()) if len(self) else float("nan")

    def min(self) -> float:
        """Smallest sample (NaN when empty)."""
        return float(self.values.min()) if len(self) else float("nan")


class StatRecorder:
    """One run's counters and transaction record.

    Each completed non-probe remote transaction appends one row to
    :attr:`rows`, a flat ``array('q')`` holding the first :attr:`width`
    of :data:`~repro.obs.tracer.RECORD_COLUMNS`: ``(t_request, issue,
    complete)`` unobserved, every column when observed, so the trace,
    attribution and metrics can be derived later.  The
    ``remote.transactions``/``remote.payload_bytes`` counters and the
    ``remote.latency_ps`` series are read off the rows.
    """

    def __init__(self, observed: bool = False, payload_bytes: int = 0) -> None:
        self.width = len(RECORD_COLUMNS) if observed else 3
        self.rows = array("q")
        self.payload_bytes = payload_bytes
        self._counters: Dict[str, float] = {}

    def __len__(self) -> int:
        """Recorded transactions."""
        return len(self.rows) // self.width

    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment counter *name* by *amount*."""
        self._counters[name] = self._counters.get(name, 0.0) + amount

    @property
    def counters(self) -> Dict[str, float]:
        """Every counter, including the two the record implies."""
        out = dict(self._counters)
        n = len(self)
        if n:
            out["remote.transactions"] = float(n)
            out["remote.payload_bytes"] = float(n * self.payload_bytes)
        return out

    def column(self, name: str) -> np.ndarray:
        """Column *name* of every row, as a fresh int64 array."""
        return np.frombuffer(
            self.rows[RECORD_COLUMNS.index(name) :: self.width], dtype=np.int64
        )

    def table(self) -> Dict[str, np.ndarray]:
        """Every column, by name."""
        return {name: self.column(name) for name in RECORD_COLUMNS[: self.width]}

    def get_series(self, name: str) -> SampleSeries:
        """Sample series *name* (empty unless it is ``remote.latency_ps``).

        The latency series is a snapshot of the rows, in completion
        order.
        """
        if name != "remote.latency_ps" or not len(self):
            return SampleSeries(name)
        latency = self.column("complete") - self.column("issue")
        return SampleSeries(name, latency.astype(np.float64))

    def summary(self, percentiles: Optional[Sequence[float]] = None) -> Dict[str, float]:
        """Flat dict of counters plus the latency series' reductions.

        ``remote.latency_ps`` contributes ``.mean``/``.count``/``.max``
        (exact) and tail percentiles (default ``.p50``/``.p95``/
        ``.p99``, named by :func:`repro.obs.metrics.percentile_key`)
        from a log-bucketed histogram — the paper's comparisons (Clio,
        DRackSim) report tails, not just means.
        """
        pcts = DEFAULT_PERCENTILES if percentiles is None else percentiles
        out: Dict[str, float] = self.counters
        name = "remote.latency_ps"
        series = self.get_series(name)
        if len(series):
            hist = LogHistogram()
            hist.record_all(series.values)
            out[f"{name}.mean"] = series.mean()
            out[f"{name}.count"] = float(len(series))
            for p in pcts:
                out[f"{name}.{percentile_key(p)}"] = hist.percentile(p)
            out[f"{name}.max"] = hist.max
        return out
