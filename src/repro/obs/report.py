"""Validate and summarize exported run artifacts.

`repro obs report` renders a run's health summary from the files a
traced run wrote: the Chrome/Perfetto trace JSON (``--trace-out``) and
optionally the metrics JSONL (``--metrics-out``).  Working from the
artifacts — not live objects — means the report can be produced on a
different machine, in CI, or long after the run.

:func:`validate_chrome_trace` doubles as the schema gate used by tests
and the CI smoke job: it checks the object form (``traceEvents`` list),
per-event required keys, known phase codes, and non-negative
timestamps/durations.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import render_table
from repro.obs.metrics import DEFAULT_PERCENTILES, LogHistogram, percentile_key

__all__ = ["validate_chrome_trace", "load_trace", "render_report"]

#: Trace-event phases the exporter emits (subset of the full spec).
_KNOWN_PHASES = {"X", "B", "E", "b", "e", "n", "i", "M", "C"}

_REQUIRED_KEYS = ("name", "ph", "pid", "tid")


def validate_chrome_trace(trace: object) -> List[str]:
    """Schema-check a parsed trace; returns a list of problems (empty = ok)."""
    errors: List[str] = []
    if not isinstance(trace, dict):
        return [f"top level must be an object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event {i}: not an object")
            continue
        for key in _REQUIRED_KEYS:
            if key not in event:
                errors.append(f"event {i}: missing required key {key!r}")
        ph = event.get("ph")
        if ph not in _KNOWN_PHASES:
            errors.append(f"event {i}: unknown phase {ph!r}")
            continue
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"event {i}: bad 'ts' {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"event {i}: complete event with bad 'dur' {dur!r}")
        if ph in ("b", "e", "n") and "id" not in event:
            errors.append(f"event {i}: async event without 'id'")
        if len(errors) >= 20:
            errors.append("... (truncated)")
            break
    return errors


def load_trace(path: str) -> dict:
    """Read and validate a trace file; raises ``ValueError`` on problems."""
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    errors = validate_chrome_trace(trace)
    if errors:
        raise ValueError(f"{path}: invalid Chrome trace: " + "; ".join(errors[:5]))
    return trace


# ----------------------------------------------------------------------
# Report building
# ----------------------------------------------------------------------
def _process_names(trace: dict) -> Dict[int, str]:
    names: Dict[int, str] = {}
    for event in trace["traceEvents"]:
        if event.get("ph") == "M" and event.get("name") == "process_name":
            names[event["pid"]] = event.get("args", {}).get("name", str(event["pid"]))
    return names


def _stage_histograms(trace: dict, cat: str = "stage") -> List[Tuple[str, LogHistogram]]:
    order: List[str] = []
    hists: Dict[str, LogHistogram] = {}
    for event in trace["traceEvents"]:
        if event.get("ph") != "X" or event.get("cat") != cat:
            continue
        name = event["name"]
        hist = hists.get(name)
        if hist is None:
            hist = hists[name] = LogHistogram(min_value=1e-6, buckets_per_octave=8)
            order.append(name)
        hist.record(event["dur"])  # microseconds
    return [(name, hists[name]) for name in order]


def _request_spans(trace: dict) -> Dict[Tuple[int, object], Tuple[float, float]]:
    starts: Dict[Tuple[int, object], float] = {}
    spans: Dict[Tuple[int, object], Tuple[float, float]] = {}
    for event in trace["traceEvents"]:
        if event.get("cat") != "request":
            continue
        key = (event["pid"], event.get("id"))
        if event["ph"] == "b":
            starts[key] = event["ts"]
        elif event["ph"] == "e" and key in starts:
            spans[key] = (starts[key], event["ts"])
    return spans


def _stage_sums_by_request(trace: dict, cat: str = "stage") -> Dict[Tuple[int, object], float]:
    sums: Dict[Tuple[int, object], float] = {}
    for event in trace["traceEvents"]:
        if event.get("ph") != "X" or event.get("cat") != cat:
            continue
        seq = event.get("args", {}).get("seq")
        if seq is None:
            continue
        key = (event["pid"], seq)
        sums[key] = sums.get(key, 0.0) + event["dur"]
    return sums


def decomposition_check(
    trace: dict, tolerance_us: float = 1e-3, cat: str = "stage"
) -> Tuple[int, int]:
    """``(checked, mismatched)`` requests whose stages fail to tile the span."""
    spans = _request_spans(trace)
    sums = _stage_sums_by_request(trace, cat=cat)
    checked = mismatched = 0
    for key, (start, end) in spans.items():
        total = sums.get(key)
        if total is None:
            continue
        checked += 1
        if abs(total - (end - start)) > tolerance_us:
            mismatched += 1
    return checked, mismatched


def render_report(
    trace: dict,
    metrics_rows: Optional[List[dict]] = None,
    metrics_summary: Optional[dict] = None,
    percentiles: Optional[Sequence[float]] = None,
) -> str:
    """Human-readable decomposition/health report for one traced run.

    *percentiles* selects the columns of every quantile table (default
    :data:`~repro.obs.metrics.DEFAULT_PERCENTILES`, i.e. p50/p95/p99;
    ``max`` is always appended), routed through the same
    :meth:`LogHistogram.summary` convention ``StatRecorder.summary``
    uses so the report and the recorded summaries agree.
    """
    pcts = list(DEFAULT_PERCENTILES if percentiles is None else percentiles)
    pct_cols = tuple(percentile_key(p) for p in pcts)
    sections: List[str] = []
    names = _process_names(trace)
    spans = _request_spans(trace)
    sections.append(
        f"runs: {len(names) or 1} ({', '.join(names[p] for p in sorted(names))})"
        if names
        else "runs: 1"
    )
    sections.append(f"requests traced: {len(spans)}")

    stages = _stage_histograms(trace)
    if stages:
        grand_total = sum(h.sum for _, h in stages)
        rows = [
            (name, hist.count, round(hist.mean(), 3))
            + tuple(round(hist.percentile(p), 3) for p in pcts)
            + (round(hist.sum / grand_total * 100, 1) if grand_total else 0.0,)
            for name, hist in stages
        ]
        sections.append("")
        sections.append(
            render_table(
                "per-stage latency decomposition (us)",
                ("stage", "count", "mean") + pct_cols + ("share_%",),
                rows,
            )
        )
        checked, mismatched = decomposition_check(trace)
        if checked:
            status = "OK" if mismatched == 0 else f"FAIL ({mismatched} mismatched)"
            sections.append(
                f"  stage-sum invariant: {status} over {checked} requests "
                "(stages tile the end-to-end span)"
            )

    blames = _stage_histograms(trace, cat="blame")
    if blames:
        grand_total = sum(h.sum for _, h in blames)
        rows = [
            (name, hist.count, round(hist.mean(), 3))
            + tuple(round(hist.percentile(p), 3) for p in pcts)
            + (round(hist.sum / grand_total * 100, 1) if grand_total else 0.0,)
            for name, hist in blames
        ]
        sections.append("")
        sections.append(
            render_table(
                "causal blame decomposition (us)",
                ("blame", "count", "mean") + pct_cols + ("share_%",),
                rows,
            )
        )
        checked, mismatched = decomposition_check(trace, cat="blame")
        if checked:
            status = "OK" if mismatched == 0 else f"FAIL ({mismatched} mismatched)"
            sections.append(
                f"  blame-sum invariant: {status} over {checked} requests "
                "(blame categories tile the end-to-end span)"
            )

    metadata = trace.get("metadata") or {}
    dropped = metadata.get("eventlog_dropped")
    bridged = metadata.get("eventlog_bridged")
    if bridged is not None or dropped is not None:
        sections.append(
            f"  event log: {bridged or 0} entries bridged as instants, "
            f"{dropped or 0} dropped at capacity"
        )

    if metrics_rows:
        runs = sorted({row.get("run") for row in metrics_rows if row.get("run")})
        sections.append("")
        sections.append(
            f"metrics timeline: {len(metrics_rows)} snapshots across "
            f"{len(runs) or 1} run(s)"
        )
        last = metrics_rows[-1]
        signals = [
            f"{key}={last[key]:.4g}"
            for key in sorted(last)
            if isinstance(last[key], (int, float)) and key not in ("tick_ps", "t_ps")
        ]
        if signals:
            sections.append(f"  last snapshot: {', '.join(signals)}")
    if metrics_summary and metrics_summary.get("histograms"):
        rows = []
        for name, data in sorted(metrics_summary["histograms"].items()):
            hist = LogHistogram.from_dict(data)
            if hist.count == 0:
                continue
            rows.append(
                (name, hist.count, round(hist.mean(), 1))
                + tuple(round(hist.percentile(p), 1) for p in pcts)
                + (round(hist.max, 1),)
            )
        if rows:
            sections.append("")
            sections.append(
                render_table(
                    "metric histograms",
                    ("metric", "count", "mean") + pct_cols + ("max",),
                    rows,
                )
            )
    if metrics_summary and metrics_summary.get("counters"):
        rows = [
            (name, round(value, 3))
            for name, value in sorted(metrics_summary["counters"].items())
        ]
        if rows:
            sections.append("")
            sections.append(render_table("counters", ("counter", "value"), rows))
    return "\n".join(sections)
