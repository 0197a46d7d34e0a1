"""Causal latency attribution over blame records.

Blame comes from two places.  Sites that fire on something other than
a completed transaction — ARQ retries, outages, fail-fast envelopes,
the structural NIC pipeline — record rows via
:meth:`~repro.obs.tracer.Tracer.add_blame`: compact ``(pid, seq,
category, start, end, resource)`` tuples whose category is one of
:data:`~repro.obs.tracer.BLAME_CATEGORIES` and whose ``resource``
carries the causal edge (what was waited on).  Completed transactions
are rows of each run's transaction record; extraction decomposes their
columns arithmetically (:func:`~repro.obs.tracer.datapath_blame_splits`)
and the tracer derives identical blame rows from them on demand.  Per
request the blame tiles ``[issue, complete]`` exactly, the same
invariant the stage decomposition obeys, so the breakdown here is an
*exact* accounting of end-to-end latency, not a sampling estimate.

This module turns those rows into:

* :func:`extract_attribution` — per-run critical-path extraction: one
  :class:`AttributionResult` per traced process with per-category
  LogHistograms, exact totals, and the blocking-resource ranking over
  the p99 latency tail;
* :func:`attribution_sidecar` / :func:`load_sidecar` — the JSON
  sidecar every experiment can emit per sweep point via
  ``--attrib-out``;
* :func:`render_attrib` — stacked ASCII blame decompositions
  (``repro obs attrib``);
* :func:`diff_attrib` — noise-aware cross-run comparison with a
  regression verdict (``repro obs diff``, the CI gate).

Everything operates on recorded data; nothing here touches the
simulator, so attribution is deterministic and replayable offline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import LogHistogram, MetricsRegistry
from repro.obs.tracer import (
    BLAME_CATEGORIES,
    PS_PER_US,
    ROW_ARQ,
    ROW_BLAMED,
    Tracer,
    datapath_blame_splits,
    derive_blame,
    derive_requests,
)

__all__ = [
    "BLAME_CATEGORIES",
    "WAIT_CATEGORIES",
    "TOLERANCE_PS",
    "RequestBlame",
    "AttributionResult",
    "extract_attribution",
    "attribution_sidecar",
    "write_sidecar",
    "load_sidecar",
    "render_attrib",
    "diff_attrib",
    "AttribDiff",
]

#: Blame categories that represent *waiting* (charged to a blocking
#: resource); ``service`` is the resource doing useful work.
WAIT_CATEGORIES = tuple(c for c in BLAME_CATEGORIES if c != "service")

#: Acceptance tolerance for the blame-sum invariant: 1e-3 µs.
TOLERANCE_PS = 1_000

#: One-letter legend for stacked bars, in vocabulary order.
CATEGORY_GLYPHS = {
    "injected_delay": "I",
    "queue_wait": "Q",
    "service": "S",
    "retry": "R",
    "backoff": "B",
    "contention": "C",
}

_LATENCY_KEYS = ("mean", "p50", "p95", "p99", "max")


@dataclass(slots=True)
class RequestBlame:
    """Exact blame breakdown of one traced request (picoseconds)."""

    pid: int
    seq: int
    start: int = 0
    end: int = 0
    by_category: Dict[str, int] = field(default_factory=dict)
    blocked_by: Dict[str, int] = field(default_factory=dict)

    @property
    def latency_ps(self) -> int:
        """End-to-end sojourn of the request."""
        return self.end - self.start

    @property
    def residual_ps(self) -> int:
        """Latency not covered by blame spans (0 when the tiling holds)."""
        return self.latency_ps - sum(self.by_category.values())


class AttributionResult:
    """Aggregated attribution for one traced run (one sweep point)."""

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.requests = 0
        self.mismatched = 0
        self.latency = LogHistogram(min_value=1.0, buckets_per_octave=8)
        self.categories: Dict[str, LogHistogram] = {
            cat: LogHistogram(min_value=1.0, buckets_per_octave=8)
            for cat in BLAME_CATEGORIES
        }
        self.totals_ps: Dict[str, int] = {cat: 0 for cat in BLAME_CATEGORIES}
        self.resources_ps: Dict[str, int] = {}
        self.tail_resources_ps: Dict[str, int] = {}

    @classmethod
    def build(
        cls,
        blames: Sequence[RequestBlame],
        label: str = "",
        tolerance_ps: int = TOLERANCE_PS,
    ) -> "AttributionResult":
        """Aggregate per-request breakdowns into one run-level result.

        The p99 tail ranking needs the latency distribution first, so
        this runs two passes: totals/histograms, then blocked-resource
        accumulation over requests at or above the p99 latency.
        """
        result = cls(label=label)
        result._fold_requests(
            ((rb.end - rb.start, rb.by_category, rb.blocked_by) for rb in blames),
            tolerance_ps,
        )
        return result

    def _fold_requests(self, rows, tolerance_ps: int = TOLERANCE_PS) -> None:
        """Fold ``(latency_ps, by_category, blocked_by)`` triples in.

        The shared aggregation core behind :meth:`build` and
        :func:`extract_attribution`; one triple per request.
        """
        totals = self.totals_ps
        resources = self.resources_ps
        # The simulator is deterministic, so per-request values repeat
        # heavily; histogram samples are counted per distinct value and
        # recorded in one batch below (~10x fewer record() calls).
        lat_counts: Dict[int, int] = {}
        cat_counts: Dict[Tuple[str, int], int] = {}
        requests = 0
        mismatched = 0
        # Requests that waited on anything, retained for the p99 pass.
        retained: List[Tuple[int, Dict[str, int]]] = []
        retain = retained.append
        for latency, by_category, blocked in rows:
            requests += 1
            lat_counts[latency] = lat_counts.get(latency, 0) + 1
            covered = 0
            # Categories with no span on this request stay absent from
            # its breakdown (and from the category histograms): the
            # distributions describe blame that occurred, totals still
            # cover every category.
            for cat, ps in by_category.items():
                totals[cat] += ps
                key = (cat, ps)
                cat_counts[key] = cat_counts.get(key, 0) + 1
                covered += ps
            if covered - latency > tolerance_ps or latency - covered > tolerance_ps:
                mismatched += 1
            if blocked:
                for resource, ps in blocked.items():
                    resources[resource] = resources.get(resource, 0) + ps
                retain((latency, blocked))
        self.requests += requests
        self.mismatched += mismatched
        latency_record = self.latency.record
        for latency, n in lat_counts.items():
            latency_record(latency, n)
        categories = self.categories
        for (cat, ps), n in cat_counts.items():
            categories[cat].record(ps, n)
        if requests:
            p99 = self.latency.percentile(99)
            tail = self.tail_resources_ps
            for latency, blocked in retained:
                if latency >= p99:
                    for resource, ps in blocked.items():
                        tail[resource] = tail.get(resource, 0) + ps

    def _fold_columns(self, cols) -> None:
        """Fold clean, blamed transaction rows (record columns by name).

        Arithmetically equivalent to :meth:`_fold_requests` over the
        blame rows the tracer derives from them: the category sums come
        straight from :func:`~repro.obs.tracer.datapath_blame_splits`
        and the wait resources of the borrower datapath are a fixed
        set, so the whole fold is a handful of array operations.  The
        tiling is exact by construction (service is defined as the
        remainder), so there is no mismatch to check.
        """
        inj, qf, qr, cont = datapath_blame_splits(cols)[:4]
        latency = cols["complete"] - cols["issue"]
        queued = qf + qr
        self.requests += len(latency)
        self.latency.record_all(latency)
        for cat, values in (
            ("service", latency - inj - queued - cont),
            ("injected_delay", inj),
            ("queue_wait", queued),
            ("contention", cont),
        ):
            self.totals_ps[cat] += int(values.sum())
            self.categories[cat].record_all(values[values != 0])
        waits = (
            ("delay.injector", inj),
            ("link.forward", qf),
            ("link.reverse", qr),
            ("lender.bus", cont),
        )
        tail = latency >= self.latency.percentile(99)
        for sums, select in ((self.resources_ps, None), (self.tail_resources_ps, tail)):
            for resource, values in waits:
                total = int((values if select is None else values[select]).sum())
                if total:
                    sums[resource] = sums.get(resource, 0) + total

    def top_resources(self, n: int = 5) -> List[Tuple[str, int]]:
        """Top blocking resources (blocked ps) among p99-tail requests."""
        ranked = sorted(self.tail_resources_ps.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(name, ps) for name, ps in ranked[:n] if ps > 0]

    def to_point(self) -> dict:
        """JSON-serializable sidecar point (times in microseconds)."""
        grand = sum(self.totals_ps.values())
        latency_us = {}
        if self.requests:
            latency_us = {
                "mean": self.latency.mean() / PS_PER_US,
                "p50": self.latency.percentile(50) / PS_PER_US,
                "p95": self.latency.percentile(95) / PS_PER_US,
                "p99": self.latency.percentile(99) / PS_PER_US,
                "max": self.latency.max / PS_PER_US,
            }
        return {
            "label": self.label,
            "requests": self.requests,
            "mismatched": self.mismatched,
            "latency_us": latency_us,
            "blame_total_us": {
                cat: self.totals_ps[cat] / PS_PER_US for cat in BLAME_CATEGORIES
            },
            "blame_share": {
                cat: (self.totals_ps[cat] / grand if grand else 0.0)
                for cat in BLAME_CATEGORIES
            },
            "blame_hist": {
                cat: self.categories[cat].to_dict() for cat in BLAME_CATEGORIES
            },
            "top_resources_p99": [
                {"resource": name, "blocked_us": ps / PS_PER_US}
                for name, ps in self.top_resources()
            ],
        }


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
def extract_attribution(
    tracer: Tracer, tolerance_ps: int = TOLERANCE_PS
) -> List[AttributionResult]:
    """Critical-path extraction: one result per traced process.

    A process whose blame is only clean transaction rows folds their
    record columns directly (:meth:`AttributionResult._fold_columns`).
    Every other process — explicit rows from the ARQ transport, an
    outage or the structural NIC, or ARQ transaction rows — has its
    blame rows grouped by ``(pid, seq)`` and joined with the request
    envelopes.  Requests without blame (e.g. fluid-mode points) are
    skipped, mirroring how ``stage_sum_check`` skips requests without
    stage spans.
    """
    rows = list(tracer.blame_rows)
    requests = list(tracer.live_requests)
    row_pids = {row[0] for row in rows}
    columns: Dict[int, dict] = {}
    for pid, record in tracer.records.items():
        cols = record.table()
        flags = cols["flags"] & (ROW_ARQ | ROW_BLAMED)
        if pid in row_pids or (flags == ROW_ARQ | ROW_BLAMED).any():
            rows += derive_blame(pid, cols, {})
            requests += derive_requests(pid, cols)
        else:
            blamed = flags == ROW_BLAMED
            if blamed.any():
                columns[pid] = {name: col[blamed] for name, col in cols.items()}
    per: Dict[Tuple[int, int], Tuple[Dict[str, int], Dict[str, int]]] = {}
    for pid, seq, cat, start, end, resource in rows:
        entry = per.get((pid, seq))
        if entry is None:
            entry = per[(pid, seq)] = ({}, {})
        by_category, blocked = entry
        dur = end - start
        by_category[cat] = by_category.get(cat, 0) + dur
        if cat != "service":
            blocked[resource] = blocked.get(resource, 0) + dur
    by_pid: Dict[int, List[Tuple[int, Dict[str, int], Dict[str, int]]]] = {}
    for pid, seq, start, end, _args in requests:
        entry = per.get((pid, seq))
        if entry is None:
            continue
        by_pid.setdefault(pid, []).append((end - start, entry[0], entry[1]))
    labels = tracer.processes
    results = []
    for pid in sorted(set(by_pid) | set(columns)):
        label = labels[pid - 1] if 0 < pid <= len(labels) else f"run {pid}"
        result = AttributionResult(label=label)
        if pid in columns:
            result._fold_columns(columns[pid])
        else:
            result._fold_requests(by_pid[pid], tolerance_ps=tolerance_ps)
        results.append(result)
    return results


# ----------------------------------------------------------------------
# Sidecar I/O
# ----------------------------------------------------------------------
def attribution_sidecar(
    tracer: Tracer,
    experiment: str = "",
    metrics: Optional[MetricsRegistry] = None,
    tolerance_ps: int = TOLERANCE_PS,
) -> dict:
    """The attribution sidecar document for one run/sweep."""
    sidecar = {
        "schema": 1,
        "kind": "repro-attrib",
        "experiment": experiment,
        "points": [
            result.to_point()
            for result in extract_attribution(tracer, tolerance_ps=tolerance_ps)
        ],
    }
    if metrics is not None:
        sidecar["metrics"] = {
            "counters": dict(sorted(metrics.counters.items())),
            "gauges": dict(sorted(metrics.gauges.items())),
        }
    return sidecar


def write_sidecar(sidecar: dict, path: str) -> str:
    """Atomically write an attribution sidecar JSON; returns the path."""
    from repro.resilience.atomicio import atomic_write_text

    atomic_write_text(path, json.dumps(sidecar, separators=(",", ":")) + "\n")
    return path


def load_sidecar(path: str) -> dict:
    """Read an attribution sidecar, validating its envelope."""
    with open(path, encoding="utf-8") as fh:
        sidecar = json.load(fh)
    if not isinstance(sidecar, dict) or sidecar.get("kind") != "repro-attrib":
        raise ValueError(f"{path}: not a repro-attrib sidecar")
    if not isinstance(sidecar.get("points"), list):
        raise ValueError(f"{path}: sidecar has no 'points' array")
    return sidecar


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _stacked_bar(shares: Dict[str, float], width: int) -> str:
    """Deterministic stacked bar: cumulative rounding sums to *width*."""
    bar = []
    cum = 0.0
    pos = 0
    for cat in BLAME_CATEGORIES:
        cum += shares.get(cat, 0.0)
        end = int(round(cum * width))
        bar.append(CATEGORY_GLYPHS[cat] * max(0, end - pos))
        pos = max(pos, end)
    return "".join(bar).ljust(width, ".")[:width]


def render_attrib(sidecar: dict, width: int = 50, top: int = 3) -> str:
    """Stacked blame decomposition per sweep point, as ASCII."""
    lines: List[str] = []
    experiment = sidecar.get("experiment") or "run"
    lines.append(f"{experiment}: latency attribution (share of end-to-end latency)")
    legend = "  ".join(
        f"{CATEGORY_GLYPHS[cat]}={cat}" for cat in BLAME_CATEGORIES
    )
    lines.append(f"legend: {legend}")
    points = sidecar.get("points", [])
    if not points:
        lines.append("  (no attributed requests — was the run traced with --attrib-out?)")
        return "\n".join(lines)
    label_w = max(len(p.get("label", "")) for p in points)
    for point in points:
        label = point.get("label", "")
        shares = point.get("blame_share", {})
        latency = point.get("latency_us", {})
        p99 = latency.get("p99")
        tail = f"  p99={p99:.3f}us" if p99 is not None else ""
        lines.append(
            f"  {label.ljust(label_w)} |{_stacked_bar(shares, width)}|"
            f" n={point.get('requests', 0)}{tail}"
        )
        blockers = point.get("top_resources_p99", [])[:top]
        if blockers:
            ranked = ", ".join(
                f"{b['resource']} ({b['blocked_us']:.3f}us)" for b in blockers
            )
            lines.append(f"  {' ' * label_w}  top blockers @p99: {ranked}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
@dataclass
class AttribDiff:
    """Outcome of comparing two attribution sidecars."""

    deltas: List[dict] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    regressed: bool = False
    identical: bool = True

    def category_deltas_us(self) -> Dict[str, float]:
        """Summed per-category blame delta (µs) across all paired points."""
        out = {cat: 0.0 for cat in BLAME_CATEGORIES}
        for record in self.deltas:
            metric = record["metric"]
            if metric.startswith("blame_total_us."):
                out[metric.split(".", 1)[1]] += record["delta"]
        return out

    def dominant_category(self) -> Optional[str]:
        """Category contributing the largest positive blame increase."""
        deltas = self.category_deltas_us()
        best = max(deltas.items(), key=lambda kv: kv[1])
        return best[0] if best[1] > 0 else None

    def render(self) -> str:
        lines: List[str] = []
        flagged = [d for d in self.deltas if d["flagged"]]
        for record in flagged:
            lines.append(
                "  {point}: {metric}  {a:.6g} -> {b:.6g}  ({delta:+.6g})".format(**record)
            )
        lines.extend(f"  {note}" for note in self.notes)
        if self.identical:
            lines.append("attribution diff: identical (all deltas exactly zero)")
        elif self.regressed:
            lines.append(
                f"attribution diff: REGRESSION — {len(flagged)} metric(s) beyond "
                "the noise threshold"
            )
        else:
            lines.append(
                f"attribution diff: ok ({len(flagged)} flagged delta(s), none regressive)"
            )
        return "\n".join(lines)


def _pair_points(a_points: List[dict], b_points: List[dict]) -> List[Tuple[dict, dict]]:
    """Pair sweep points by label when the label sets match, else by index."""
    a_labels = [p.get("label", "") for p in a_points]
    b_by_label = {p.get("label", ""): p for p in b_points}
    if len(b_by_label) == len(b_points) and set(a_labels) == set(b_by_label):
        return [(p, b_by_label[p.get("label", "")]) for p in a_points]
    return list(zip(a_points, b_points))


def diff_attrib(
    a: dict,
    b: dict,
    rel_tol: float = 0.05,
    abs_tol_us: float = 0.1,
) -> AttribDiff:
    """Compare two attribution sidecars with noise-aware thresholds.

    A delta is *flagged* when it exceeds ``max(abs_tol_us, rel_tol *
    |baseline|)``; a flagged latency or blame *increase* is a
    regression.  Two same-seed runs must come back ``identical`` —
    every compared value exactly equal — which CI asserts.
    """
    diff = AttribDiff()
    a_points = a.get("points", [])
    b_points = b.get("points", [])
    if len(a_points) != len(b_points):
        diff.notes.append(
            f"point count differs: {len(a_points)} vs {len(b_points)}"
        )
        diff.identical = False
        diff.regressed = True
    for pa, pb in _pair_points(a_points, b_points):
        label = pa.get("label", "") or pb.get("label", "")
        metrics: List[Tuple[str, float, float]] = []
        if pa.get("requests", 0) != pb.get("requests", 0):
            diff.identical = False
            diff.notes.append(
                f"{label}: request count differs "
                f"({pa.get('requests', 0)} vs {pb.get('requests', 0)})"
            )
        for key in _LATENCY_KEYS:
            va = pa.get("latency_us", {}).get(key)
            vb = pb.get("latency_us", {}).get(key)
            if va is not None and vb is not None:
                metrics.append((f"latency_us.{key}", va, vb))
        for cat in BLAME_CATEGORIES:
            va = pa.get("blame_total_us", {}).get(cat, 0.0)
            vb = pb.get("blame_total_us", {}).get(cat, 0.0)
            metrics.append((f"blame_total_us.{cat}", va, vb))
        for metric, va, vb in metrics:
            delta = vb - va
            if delta != 0.0:
                diff.identical = False
            flagged = abs(delta) > max(abs_tol_us, rel_tol * abs(va))
            if flagged and delta > 0:
                diff.regressed = True
            diff.deltas.append(
                {
                    "point": label,
                    "metric": metric,
                    "a": va,
                    "b": vb,
                    "delta": delta,
                    "flagged": flagged,
                }
            )
    ca = (a.get("metrics") or {}).get("counters", {})
    cb = (b.get("metrics") or {}).get("counters", {})
    for name in sorted(set(ca) | set(cb)):
        va, vb = ca.get(name, 0.0), cb.get(name, 0.0)
        if va != vb:
            diff.identical = False
            diff.notes.append(f"counter {name}: {va:g} -> {vb:g} ({vb - va:+g})")
    return diff
