"""Unit tests for RNG streams and statistics recording."""

import math

import numpy as np
import pytest

from repro.obs.metrics import LogHistogram
from repro.obs.tracer import RECORD_COLUMNS
from repro.sim import RngStreams, SampleSeries, StatRecorder


class TestRngStreams:
    def test_same_seed_same_stream(self):
        a = RngStreams(7).get("x")
        b = RngStreams(7).get("x")
        assert list(a.random(5)) == list(b.random(5))

    def test_different_names_differ(self):
        streams = RngStreams(7)
        assert list(streams.get("x").random(5)) != list(streams.get("y").random(5))

    def test_different_seeds_differ(self):
        assert list(RngStreams(1).get("x").random(5)) != list(
            RngStreams(2).get("x").random(5)
        )

    def test_get_is_cached_fresh_is_not(self):
        streams = RngStreams(7)
        first = streams.get("x").random()
        second = streams.get("x").random()
        assert first != second  # same generator advances
        assert streams.fresh("x").random() == first  # fresh restarts

    def test_spawn_namespacing(self):
        root = RngStreams(7)
        view = root.spawn("a")
        assert view.fresh("b").random() == root.fresh("a.b").random()

    def test_nested_spawn(self):
        root = RngStreams(7)
        assert (
            root.spawn("a").spawn("b").fresh("c").random()
            == root.fresh("a.b.c").random()
        )


class TestSampleSeries:
    def test_empty_stats_are_nan(self):
        s = SampleSeries()
        assert math.isnan(s.mean()) and math.isnan(s.percentile(50))
        assert math.isnan(s.max()) and math.isnan(s.min())
        assert s.sum() == 0.0

    def test_basic_reductions(self):
        s = SampleSeries()
        s.extend([1, 2, 3, 4])
        assert s.mean() == 2.5
        assert s.sum() == 10
        assert s.min() == 1 and s.max() == 4
        assert s.percentile(50) == 2.5
        assert len(s) == 4

    def test_cache_invalidation_on_append(self):
        s = SampleSeries()
        s.add(1.0)
        assert s.mean() == 1.0
        s.add(3.0)
        assert s.mean() == 2.0

    def test_values_array_dtype(self):
        s = SampleSeries()
        s.extend(range(10))
        assert s.values.dtype == np.float64


def _recorder(latencies, **kwargs) -> StatRecorder:
    """A recorder holding one transaction row per latency."""
    rec = StatRecorder(**kwargs)
    for i, latency in enumerate(latencies):
        rec.rows.extend((i, i, i + latency))
    return rec


class TestStatRecorder:
    def test_counters(self):
        rec = StatRecorder()
        rec.count("reads")
        rec.count("reads", 2)
        assert rec.counters["reads"] == 3

    def test_samples_and_summary(self):
        rec = _recorder([10, 20], payload_bytes=128)
        summary = rec.summary()
        assert summary["remote.latency_ps.mean"] == 15.0
        assert summary["remote.latency_ps.count"] == 2
        assert summary["remote.transactions"] == 2
        assert summary["remote.payload_bytes"] == 256

    def test_summary_reports_tail_percentiles(self):
        rec = _recorder(range(1, 1001))
        summary = rec.summary()
        assert summary["remote.latency_ps.max"] == 1000.0  # exact
        # Histogram-backed percentiles: bounded relative error (~9%).
        assert summary["remote.latency_ps.p50"] == pytest.approx(500.0, rel=0.10)
        assert summary["remote.latency_ps.p95"] == pytest.approx(950.0, rel=0.10)
        assert summary["remote.latency_ps.p99"] == pytest.approx(990.0, rel=0.10)

    def test_summary_percentiles_match_shadow_histogram(self):
        """The summary's percentiles are a LogHistogram's over the rows."""
        rec = _recorder([5, 50, 500])
        hist = LogHistogram()
        for v in (5.0, 50.0, 500.0):
            hist.record(v)
        summary = rec.summary()
        assert summary["remote.latency_ps.p50"] == hist.percentile(50)
        assert summary["remote.latency_ps.p99"] == hist.percentile(99)

    def test_get_series_creates_empty(self):
        rec = StatRecorder()
        assert len(rec.get_series("nothing")) == 0
        assert len(rec.get_series("remote.latency_ps")) == 0
        assert "remote.transactions" not in rec.counters

    def test_latency_series_in_completion_order(self):
        rec = _recorder([30, 10, 20])
        assert rec.get_series("remote.latency_ps").values.tolist() == [30.0, 10.0, 20.0]
        assert rec.column("complete").tolist() == [30, 11, 22]

    def test_observed_rows_keep_every_column(self):
        rec = StatRecorder(observed=True)
        assert rec.width == len(RECORD_COLUMNS)
        rec.rows.extend(range(len(RECORD_COLUMNS)))
        assert len(rec) == 1
        assert {name: int(col[0]) for name, col in rec.table().items()} == {
            name: i for i, name in enumerate(RECORD_COLUMNS)
        }
