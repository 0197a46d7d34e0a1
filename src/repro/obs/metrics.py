"""Metric primitives: log-bucketed histograms, counters, gauges.

:class:`LogHistogram` answers "what is p99?" without storing every
sample: values land in geometrically spaced buckets (a configurable
number per octave), so memory is O(dynamic range) and quantiles carry a
bounded relative error of ``2**(1/buckets_per_octave) - 1`` (~9% at the
default 8 buckets/octave).  Exact ``count``/``sum``/``min``/``max`` are
tracked on the side, so means and extremes are not approximated.

:class:`MetricsRegistry` is the per-run registry the observability
layer writes into: counters (monotonic), gauges (last value wins), and
named histograms.  Everything here is pure bookkeeping over plain
numbers — no simulator imports, no wall clock, no RNG — so recording is
deterministic and the module can be used from any layer.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "LogHistogram",
    "MetricsRegistry",
    "quantile_table",
    "percentile_key",
    "DEFAULT_PERCENTILES",
    "SUMMARY_PERCENTILES",
]

#: Percentile set reports render by default (plus mean and max).
DEFAULT_PERCENTILES: Tuple[float, ...] = (50.0, 95.0, 99.0)

#: Percentile set flat summaries carry (report/StatRecorder agree on it).
SUMMARY_PERCENTILES: Tuple[float, ...] = (50.0, 95.0, 99.0, 99.9)


def percentile_key(p: float) -> str:
    """Summary-dict key for percentile *p*: ``p50``, ``p95``, ``p999``…

    The shared naming convention: every summary producer
    (:meth:`LogHistogram.summary`,
    :meth:`repro.sim.trace.StatRecorder.summary`, ``repro obs
    report``) derives its keys through this helper so the same
    percentile always lands under the same name.
    """
    return "p" + f"{p:g}".replace(".", "")


class LogHistogram:
    """Log-bucketed histogram with bounded-relative-error quantiles.

    Parameters
    ----------
    min_value:
        Lower edge of the first bucket; positive samples below it (and
        zero/negative samples) are counted in an underflow bucket and
        reported as ``min_value`` by quantile reads (their exact
        minimum is still tracked in :attr:`min`).
    buckets_per_octave:
        Resolution: buckets per doubling of value.
    """

    __slots__ = (
        "min_value",
        "buckets_per_octave",
        "_buckets",
        "_underflow",
        "count",
        "sum",
        "min",
        "max",
    )

    def __init__(self, min_value: float = 1.0, buckets_per_octave: int = 8) -> None:
        if min_value <= 0:
            raise ValueError(f"min_value must be positive, got {min_value}")
        if buckets_per_octave < 1:
            raise ValueError(f"buckets_per_octave must be >= 1, got {buckets_per_octave}")
        self.min_value = float(min_value)
        self.buckets_per_octave = int(buckets_per_octave)
        self._buckets: Dict[int, int] = {}
        self._underflow = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    # ------------------------------------------------------------------
    def record(self, value: float, n: int = 1) -> None:
        """Record *value* (*n* occurrences)."""
        value = float(value)
        self.count += n
        self.sum += value * n
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value < self.min_value:
            self._underflow += n
            return
        idx = int(math.floor(math.log2(value / self.min_value) * self.buckets_per_octave))
        self._buckets[idx] = self._buckets.get(idx, 0) + n

    def record_all(self, values) -> None:
        """Record every element of the array *values*.

        Each distinct value is recorded once with its count, which
        leaves the buckets, and for integer samples the exact sum,
        identical to recording the elements one by one.
        """
        distinct, counts = np.unique(values, return_counts=True)
        for value, n in zip(distinct.tolist(), counts.tolist()):
            self.record(value, n)

    def merge(self, other: "LogHistogram") -> None:
        """Fold *other*'s samples into this histogram (same geometry only)."""
        if (other.min_value, other.buckets_per_octave) != (
            self.min_value,
            self.buckets_per_octave,
        ):
            raise ValueError("cannot merge histograms with different bucket geometry")
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._underflow += other._underflow
        for idx, n in other._buckets.items():
            self._buckets[idx] = self._buckets.get(idx, 0) + n

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.count

    def mean(self) -> float:
        """Exact arithmetic mean (NaN when empty)."""
        return self.sum / self.count if self.count else float("nan")

    def _bucket_mid(self, idx: int) -> float:
        # Geometric midpoint of the bucket [min_value*2^(i/b), min_value*2^((i+1)/b)).
        return self.min_value * 2.0 ** ((idx + 0.5) / self.buckets_per_octave)

    def quantile(self, q: float) -> float:
        """Approximate the *q*-quantile (0 <= q <= 1) from bucket counts."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        rank = q * (self.count - 1)
        cum = self._underflow
        if rank < cum:
            return self.min
        for idx in sorted(self._buckets):
            cum += self._buckets[idx]
            if rank < cum:
                # Clamp to the exact extremes so p0/p100 are never
                # outside the observed range.
                return min(max(self._bucket_mid(idx), self.min), self.max)
        return self.max

    def percentile(self, p: float) -> float:
        """Approximate the *p*-th percentile (0-100)."""
        return self.quantile(p / 100.0)

    def buckets(self) -> Iterator[Tuple[float, float, int]]:
        """Yield ``(lo, hi, count)`` for each non-empty bucket, ascending."""
        b = self.buckets_per_octave
        if self._underflow:
            yield (0.0, self.min_value, self._underflow)
        for idx in sorted(self._buckets):
            lo = self.min_value * 2.0 ** (idx / b)
            hi = self.min_value * 2.0 ** ((idx + 1) / b)
            yield (lo, hi, self._buckets[idx])

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable state (exact round-trip via :meth:`from_dict`)."""
        return {
            "min_value": self.min_value,
            "buckets_per_octave": self.buckets_per_octave,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "underflow": self._underflow,
            "buckets": {str(idx): n for idx, n in sorted(self._buckets.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LogHistogram":
        """Rebuild a histogram serialized by :meth:`to_dict`."""
        hist = cls(
            min_value=data["min_value"],
            buckets_per_octave=data["buckets_per_octave"],
        )
        hist.count = int(data["count"])
        hist.sum = float(data["sum"])
        hist.min = math.inf if data["min"] is None else float(data["min"])
        hist.max = -math.inf if data["max"] is None else float(data["max"])
        hist._underflow = int(data["underflow"])
        hist._buckets = {int(idx): int(n) for idx, n in data["buckets"].items()}
        return hist

    def summary(self, percentiles: Optional[Sequence[float]] = None) -> Dict[str, float]:
        """Common reductions in one dict (mean, extremes, percentiles).

        *percentiles* defaults to :data:`SUMMARY_PERCENTILES`
        (p50/p95/p99/p999); keys follow :func:`percentile_key`.
        """
        if self.count == 0:
            return {"count": 0}
        pcts = SUMMARY_PERCENTILES if percentiles is None else percentiles
        out = {
            "count": self.count,
            "mean": self.mean(),
            "min": self.min,
            "max": self.max,
        }
        for p in pcts:
            out[percentile_key(p)] = self.percentile(p)
        return out


class MetricsRegistry:
    """Named counters, gauges and histograms for one observed run."""

    def __init__(self, histogram_min_value: float = 1.0, buckets_per_octave: int = 8) -> None:
        self._hist_min = histogram_min_value
        self._hist_bpo = buckets_per_octave
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, LogHistogram] = {}

    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment counter *name* by *amount*."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value* (last write wins)."""
        self.gauges[name] = float(value)

    def histogram(self, name: str) -> LogHistogram:
        """Return (creating if needed) histogram *name*."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = LogHistogram(
                min_value=self._hist_min, buckets_per_octave=self._hist_bpo
            )
        return hist

    def observe(self, name: str, value: float) -> None:
        """Record *value* into histogram *name*."""
        self.histogram(name).record(value)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-serializable view of every metric (histograms summarized)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: hist.summary() for name, hist in sorted(self.histograms.items())
            },
        }

    def dump(self) -> dict:
        """Full-fidelity serialization (histograms with buckets)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: hist.to_dict() for name, hist in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_dump(cls, data: dict) -> "MetricsRegistry":
        """Rebuild a registry serialized by :meth:`dump`."""
        reg = cls()
        reg.counters = {str(k): float(v) for k, v in data.get("counters", {}).items()}
        reg.gauges = {str(k): float(v) for k, v in data.get("gauges", {}).items()}
        reg.histograms = {
            str(k): LogHistogram.from_dict(v) for k, v in data.get("histograms", {}).items()
        }
        return reg


def quantile_table(
    histograms: Dict[str, LogHistogram],
    percentiles: Optional[List[float]] = None,
) -> List[Tuple]:
    """Rows of ``(name, count, mean, p...s, max)`` for report rendering."""
    pcts = percentiles if percentiles is not None else list(DEFAULT_PERCENTILES)
    rows: List[Tuple] = []
    for name, hist in sorted(histograms.items()):
        if hist.count == 0:
            continue
        rows.append(
            (name, hist.count, hist.mean())
            + tuple(hist.percentile(p) for p in pcts)
            + (hist.max,)
        )
    return rows
