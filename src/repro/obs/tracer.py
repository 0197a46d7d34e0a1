"""Span tracing with Chrome trace-event / Perfetto export.

The tracer records *what already happened*: components report spans
with explicit simulated start/end timestamps (picoseconds), which the
reservation-based datapath computes anyway.  Recording therefore never
schedules events, never reads the clock for timing decisions, and never
perturbs simulated results — the determinism tests pin this.

A completed remote transaction is one row of its run's transaction
record (:class:`repro.sim.trace.StatRecorder`, :data:`RECORD_COLUMNS`),
which the tracer holds by pid; its stage spans, request envelope and
blame are derived from the columns when read or exported.  Sites that
fire on anything else (phases, ARQ retries, outages, fail-fast, the
structural NIC) record live through ``add_span``/``add_blame``/
``add_request``.

Export is the Chrome trace-event JSON object format (`traceEvents`
plus free-form `metadata`), loadable by Perfetto (ui.perfetto.dev) and
``chrome://tracing``.  Simulated picoseconds are exported as fractional
microseconds, the unit the format expects.

Track model:

* one *process* per observed run (e.g. one PERIOD point of a sweep),
  named via :meth:`Tracer.begin_process`;
* one *thread* per pipeline stage or component track, numbered in the
  order the run first used it; complete (``"X"``) events carry
  per-stage spans;
* per-request async spans (``"b"``/``"e"``, id = request sequence
  number) tie a request's stages together end to end;
* :class:`~repro.sim.eventlog.EventLog` entries bridge in as instant
  (``"i"``) events via :func:`bridge_eventlog`.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "bridge_eventlog",
    "stage_sum_check",
    "blame_sum_check",
    "datapath_blame_splits",
    "BLAME_CATEGORIES",
    "PS_PER_US",
    "RECORD_COLUMNS",
    "ROW_ARQ",
    "ROW_BLAMED",
    "STAGE_BOUNDARIES",
    "STAGE_NAMES",
]

#: Simulated picoseconds per exported microsecond tick.
PS_PER_US = 1_000_000

#: Fixed blame vocabulary for causal attribution rows
#: (:meth:`Tracer.add_blame`).  Every instrumented wait/work interval is
#: charged to exactly one of these categories; anything else is a bug
#: (enforced at record time and by simlint rule SIM010).
BLAME_CATEGORIES = (
    "injected_delay",  # wait at the FPGA PERIOD gate (the injector made it)
    "queue_wait",      # queued for the bottleneck wire behind other packets
    "service",         # the resource was actively working on this request
    "retry",           # datapath time burned by a failed ARQ attempt
    "backoff",         # ARQ timer wait (RTO / NACK) before retransmit
    "contention",      # blocked by foreign traffic on a shared resource
)
_BLAME_SET = frozenset(BLAME_CATEGORIES)

#: Datapath stages of one clean remote transaction, in order.  They
#: tile ``[issue, complete]`` exactly, so the per-request span
#: decomposition sums to the reported end-to-end latency.
STAGE_NAMES = (
    "egress.pipeline",  # OpenCAPI host interface + router/NIC pipeline
    "egress.gate",      # delay injector (READY gating)
    "wire.request",     # mux + packetizer + link serialization, borrower->lender
    "lender.memory",    # window translation + lender bus/DRAM
    "wire.response",    # link serialization, lender->borrower
    "ingress.pipeline", # borrower NIC ingress + OpenCAPI return
)

#: The record columns bounding the :data:`STAGE_NAMES` stages.
STAGE_BOUNDARIES = (
    "issue", "valid_at", "grant", "arrive_lender", "t_mem", "arrive_back", "complete",
)

#: Columns of one transaction row.  Unobserved records keep the first
#: three.  ``-1`` is "none": blamed clean rows carry the resource-idle
#: snapshots taken before each reservation; ARQ rows stop at the
#: successful attempt's ``grant``.
RECORD_COLUMNS = (
    "t_request", "issue", "complete",
    "seq", "retries", "flags", "attempt_start",
    "valid_at", "grant", "arrive_lender", "t_mem", "arrive_back",
    "intrinsic_grant", "forward_busy", "mem_ready", "bus_busy", "reverse_busy",
)

#: ``flags`` bits: ARQ delivery; blame inputs recorded.
ROW_ARQ = 1
ROW_BLAMED = 2


class SpanRecord:
    """One completed span on a track (simulated-time picoseconds)."""

    __slots__ = ("name", "cat", "pid", "track", "start", "end", "args")

    def __init__(
        self,
        name: str,
        cat: str,
        pid: int,
        track: str,
        start: int,
        end: int,
        args: Optional[dict] = None,
    ) -> None:
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts ({end} < {start})")
        self.name = name
        self.cat = cat
        self.pid = pid
        self.track = track
        self.start = start
        self.end = end
        self.args = args

    @property
    def duration(self) -> int:
        """Span length in picoseconds."""
        return self.end - self.start


class Tracer:
    """Collects spans/instants and exports Chrome trace-event JSON."""

    enabled = True

    def __init__(self) -> None:
        # Entries recorded live, by sites that fire on something other
        # than a completed transaction.
        self.live_spans: List[SpanRecord] = []
        # (pid, seq, start, end, args)
        self.live_requests: List[Tuple[int, int, int, int, Optional[dict]]] = []
        # Causal blame rows: (pid, seq, category, start, end, resource).
        self.blame_rows: List[Tuple[int, int, str, int, int, str]] = []
        self.instants: List[Tuple[int, int, str, str, Optional[dict]]] = []
        #: The transaction record of each traced run, by pid.
        self.records: Dict[int, object] = {}
        # (pid, track) -> rank of the live track's first entry.
        self._marks: Dict[Tuple[int, str], int] = {}
        self._processes: List[str] = []
        self.metadata: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin_process(self, label: str, record=None) -> int:
        """Open a new top-level track group (one per observed run).

        *record* is the run's transaction record
        (:class:`~repro.sim.trace.StatRecorder`): its rows become this
        process's stage spans, request envelopes and blame.
        """
        self._processes.append(label)
        pid = len(self._processes)  # pids are 1-based
        if record is not None:
            self.records[pid] = record
        return pid

    @property
    def processes(self) -> Tuple[str, ...]:
        """Labels of opened processes, in pid order (pid = index + 1)."""
        return tuple(self._processes)

    def _mark(self, pid: int, track: str) -> None:
        """Note a live track's first use, ranked after the pid's rows so far."""
        if (pid, track) not in self._marks:
            record = self.records.get(pid)
            self._marks[(pid, track)] = 2 * len(record) if record is not None else 0

    def add_span(
        self,
        name: str,
        start: int,
        end: int,
        pid: int = 1,
        track: str = "datapath",
        cat: str = "stage",
        args: Optional[dict] = None,
    ) -> None:
        """Record a completed span with explicit simulated times (ps).

        Causal blame intervals have their own store and API: recording
        one through ``add_span(cat="blame")`` would hide it from
        attribution, so the call is rejected in favour of
        :meth:`add_blame`.
        """
        if cat == "blame":
            raise ValueError(
                "blame intervals do not go through add_span; use "
                "Tracer.add_blame so attribution and `repro obs diff` see them"
            )
        self.live_spans.append(SpanRecord(name, cat, pid, track, start, end, args))
        self._mark(pid, track)

    def add_blame(
        self,
        cat: str,
        start: int,
        end: int,
        pid: int = 1,
        seq: int = 0,
        resource: str = "",
    ) -> None:
        """Record one causal blame interval for request *seq* (ps).

        *cat* must come from :data:`BLAME_CATEGORIES` and *resource*
        must name what the request waited on (the causal edge), so
        every blame breakdown stays machine-comparable across runs —
        enforced here and statically by simlint rule SIM010.
        """
        if cat not in _BLAME_SET:
            raise ValueError(
                f"blame category {cat!r} outside the fixed vocabulary "
                f"{BLAME_CATEGORIES}"
            )
        if not resource:
            raise ValueError(
                f"blame interval {cat!r} is missing its 'resource' causal edge"
            )
        if end < start:
            raise ValueError(f"blame {cat!r} ends before it starts ({end} < {start})")
        self.blame_rows.append((pid, seq, cat, start, end, resource))
        self._mark(pid, "blame." + cat)

    def add_request(
        self,
        seq: int,
        start: int,
        end: int,
        pid: int = 1,
        args: Optional[dict] = None,
    ) -> None:
        """Record one request's end-to-end envelope as an async span."""
        if end < start:
            raise ValueError(f"request {seq} ends before it starts ({end} < {start})")
        self.live_requests.append((pid, seq, start, end, args))

    def add_instant(
        self,
        name: str,
        ts: int,
        pid: int = 1,
        cat: str = "event",
        args: Optional[dict] = None,
    ) -> None:
        """Record a zero-duration marker at simulated time *ts* (ps)."""
        self.instants.append((pid, ts, name, cat, args))

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def _gather(self):
        """``(spans, requests, blame, ranks)``: live entries plus those
        derived from the records; *ranks* as in :meth:`_track_tids`."""
        spans = list(self.live_spans)
        requests = list(self.live_requests)
        blame = list(self.blame_rows)
        ranks: Dict[Tuple[int, str], float] = {}
        for pid, record in self.records.items():
            cols = record.table()
            spans += derive_spans(pid, cols, ranks)
            requests += derive_requests(pid, cols)
            blame += derive_blame(pid, cols, ranks)
        return spans, requests, blame, ranks

    @property
    def spans(self) -> List[SpanRecord]:
        """Live spans, then the stage spans of every recorded transaction."""
        return self._gather()[0]

    @property
    def requests(self) -> List[Tuple[int, int, int, int, Optional[dict]]]:
        """Live request envelopes, then every recorded transaction's."""
        return self._gather()[1]

    @property
    def blame(self) -> List[Tuple[int, int, str, int, int, str]]:
        """Explicit blame rows, then those derived from the records."""
        return self._gather()[2]

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def stage_decomposition(self, cat: str = "stage") -> List[Tuple[str, dict]]:
        """Aggregate span durations per stage name, in first-seen order.

        Returns ``[(stage, {count, total_ps, mean_ps, p50_ps, p99_ps,
        max_ps, share}), ...]`` where ``share`` is the stage's fraction
        of the summed duration across all stages of category *cat*.
        """
        from repro.obs.metrics import LogHistogram

        order: List[str] = []
        hists: Dict[str, LogHistogram] = {}
        for span in self.spans:
            if span.cat != cat:
                continue
            hist = hists.get(span.name)
            if hist is None:
                hist = hists[span.name] = LogHistogram(min_value=1.0, buckets_per_octave=8)
                order.append(span.name)
            hist.record(span.duration)
        grand_total = sum(h.sum for h in hists.values()) or float("nan")
        out: List[Tuple[str, dict]] = []
        for name in order:
            hist = hists[name]
            out.append(
                (
                    name,
                    {
                        "count": hist.count,
                        "total_ps": hist.sum,
                        "mean_ps": hist.mean(),
                        "p50_ps": hist.percentile(50),
                        "p99_ps": hist.percentile(99),
                        "max_ps": hist.max,
                        "share": hist.sum / grand_total,
                    },
                )
            )
        return out

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _track_tids(self, ranks) -> Dict[Tuple[int, str], int]:
        """Number each pid's tracks: span tracks, then blame tracks.

        Tracks are numbered in the order the run first used them.  A
        live track first used when its pid's record held *k* rows ranks
        ``2k``; a track derived from row *r* ranks ``2r + 1``, between
        the live entries recorded before and after that transaction.
        Blame derived from clean rows ranks after every explicit row.
        """
        tids: Dict[Tuple[int, str], int] = {}
        per_pid: Dict[int, int] = {}
        ranked = list(self._marks.items()) + list(ranks.items())
        ranked.sort(key=lambda item: (item[0][1].startswith("blame."), item[1]))
        for key, _rank in ranked:
            if key not in tids:
                tids[key] = per_pid[key[0]] = per_pid.get(key[0], 0) + 1
        return tids

    def to_chrome_trace(self) -> dict:
        """The full trace as a Chrome trace-event JSON object."""
        spans, requests, blame, ranks = self._gather()
        events: List[dict] = []
        for pid, label in enumerate(self._processes, start=1):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": label},
                }
            )
        tids = self._track_tids(ranks)
        for (pid, track), tid in sorted(tids.items()):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        for span in spans:
            event = {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "pid": span.pid,
                "tid": tids[(span.pid, span.track)],
                "ts": span.start / PS_PER_US,
                "dur": span.duration / PS_PER_US,
            }
            if span.args:
                event["args"] = span.args
            events.append(event)
        for pid, seq, cat, start, end, resource in blame:
            events.append(
                {
                    "name": cat,
                    "cat": "blame",
                    "ph": "X",
                    "pid": pid,
                    "tid": tids[(pid, "blame." + cat)],
                    "ts": start / PS_PER_US,
                    "dur": (end - start) / PS_PER_US,
                    "args": {"seq": seq, "resource": resource},
                }
            )
        for pid, seq, start, end, args in requests:
            base = {
                "name": "request",
                "cat": "request",
                "id": seq,
                "pid": pid,
                "tid": 0,
            }
            begin = dict(base, ph="b", ts=start / PS_PER_US)
            finish = dict(base, ph="e", ts=end / PS_PER_US)
            if args:
                begin["args"] = args
            events.extend((begin, finish))
        for pid, ts, name, cat, args in self.instants:
            event = {
                "name": name,
                "cat": cat,
                "ph": "i",
                "s": "p",
                "pid": pid,
                "tid": 0,
                "ts": ts / PS_PER_US,
            }
            if args:
                event["args"] = args
            events.append(event)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "metadata": dict(self.metadata),
        }

    def write(self, path: str) -> str:
        """Write the Chrome trace JSON to *path* atomically; returns the path."""
        from repro.resilience.atomicio import atomic_write_text

        text = json.dumps(self.to_chrome_trace(), separators=(",", ":")) + "\n"
        atomic_write_text(path, text)
        return path


# ----------------------------------------------------------------------
# Derivation from transaction records
# ----------------------------------------------------------------------
def datapath_blame_splits(cols: Dict[str, np.ndarray]) -> Tuple[np.ndarray, ...]:
    """Wait decomposition of clean, blamed transaction rows.

    *cols* maps :data:`RECORD_COLUMNS` names to equal-length arrays.
    The idle snapshots say when each resource would have been free; a
    fabric wire stage fills the two link snapshots with ``depart +
    queueing summed over the route's hops``, so shared-port queueing
    lands in ``queue_wait`` as on the private link.  Each wait boundary
    is clamped into its enclosing segment, so the derived waits always
    fit inside ``[issue, complete]``.

    Returns ``(injected, queued_fwd, queued_rev, contended, wire_start,
    bus_start, rev_start, mem_ready)`` — the four wait durations plus
    the clamped wait-end boundaries row materialization needs.
    """
    grant = cols["grant"]
    arrive_lender = cols["arrive_lender"]
    t_mem = cols["t_mem"]
    mem_ready = cols["mem_ready"]
    mem_ready = np.where(
        mem_ready < arrive_lender,
        arrive_lender,
        np.where(mem_ready > t_mem, t_mem, mem_ready),
    )
    wire_start = np.minimum(np.maximum(cols["forward_busy"], grant), arrive_lender)
    bus_start = np.minimum(np.maximum(cols["bus_busy"], mem_ready), t_mem)
    rev_start = np.minimum(np.maximum(cols["reverse_busy"], t_mem), cols["arrive_back"])
    return (
        grant - cols["valid_at"],
        wire_start - grant,
        rev_start - t_mem,
        bus_start - mem_ready,
        wire_start,
        bus_start,
        rev_start,
        mem_ready,
    )


def _rows_flagged(cols: Dict[str, np.ndarray], flags: int) -> np.ndarray:
    """Indices of the rows whose ARQ and blamed flags equal *flags*."""
    return np.flatnonzero((cols["flags"] & (ROW_ARQ | ROW_BLAMED)) == flags)


def derive_requests(pid: int, cols: Dict[str, np.ndarray]) -> list:
    """Request envelopes of every recorded transaction."""
    return [
        (pid, seq, issue, complete, None)
        for seq, issue, complete in zip(
            cols["seq"].tolist(), cols["issue"].tolist(), cols["complete"].tolist()
        )
    ]


def derive_spans(pid: int, cols: Dict[str, np.ndarray], ranks: dict) -> list:
    """Window-wait and stage spans of the clean rows, in row order.

    Sets ``ranks[(pid, track)]`` to the rank of each track's first row.
    """
    clean = np.flatnonzero((cols["flags"] & ROW_ARQ) == 0)
    if not len(clean):
        return []
    waits = np.flatnonzero(cols["issue"][clean] > cols["t_request"][clean])
    if len(waits):
        ranks[(pid, "cpu.window")] = 2 * int(clean[waits[0]]) + 1
    for name in STAGE_NAMES:
        ranks[(pid, name)] = 2 * int(clean[0]) + 1
    bounds = [cols[name][clean].tolist() for name in STAGE_BOUNDARIES]
    spans: List[SpanRecord] = []
    append = spans.append
    stages = tuple(enumerate(STAGE_NAMES))
    for k, (seq, t_request) in enumerate(
        zip(cols["seq"][clean].tolist(), cols["t_request"][clean].tolist())
    ):
        args = {"seq": seq}
        issue = bounds[0][k]
        if issue > t_request:
            append(SpanRecord("cpu.window", "queue", pid, "cpu.window", t_request, issue, args))
        for i, name in stages:
            append(SpanRecord(name, "stage", pid, name, bounds[i][k], bounds[i + 1][k], args))
    return spans


def derive_blame(pid: int, cols: Dict[str, np.ndarray], ranks: dict) -> list:
    """Blame rows of the blamed rows; ranks each ``blame.<cat>`` track.

    Clean rows: the whole gate wait is ``injected_delay`` — the injector admits one
    transaction per PERIOD-grid slot, so even the backlog portion is
    latency the FPGA manufactured, exactly what the paper's
    STREAM-measured delay (~ WINDOW x PERIOD x t_cyc) reports.  The
    lender bus is the one in-envelope resource genuinely shared with
    foreign traffic (Fig. 7), so waiting for it is ``contention``; link
    waits are ordinary ``queue_wait`` for the bottleneck wire.
    Adjacent service segments merge into one row labelled with the
    resource of the largest constituent (three rows instead of seven
    when uncontended, same sums and tiling).  ARQ rows: the successful
    attempt's gate wait is ``injected_delay``, the rest one coarse
    ``service`` (the transport records failed attempts live).
    """
    rows: List[Tuple[int, int, str, int, int, str]] = []
    append = rows.append
    index = _rows_flagged(cols, ROW_BLAMED)
    if len(index):
        clean = {name: col[index] for name, col in cols.items()}
        splits = datapath_blame_splits(clean)
        for (
            seq, issue, valid_at, grant, arrive_lender, t_mem, arrive_back, complete,
            wire_start, bus_start, rev_start, mem_ready,
        ) in zip(
            *(clean[name].tolist() for name in ("seq",) + STAGE_BOUNDARIES),
            *(split.tolist() for split in splits[4:]),
        ):
            # Pending merged service run [run_start, run_end], labelled
            # with the resource of its largest constituent segment.
            run_start, run_end = issue, valid_at
            run_res, run_major = "nic.egress", valid_at - issue
            if grant > valid_at:
                if run_end > run_start:
                    append((pid, seq, "service", run_start, run_end, run_res))
                append((pid, seq, "injected_delay", valid_at, grant, "delay.injector"))
                run_start = run_end = grant
                run_major = 0
            if wire_start > grant:
                if run_end > run_start:
                    append((pid, seq, "service", run_start, run_end, run_res))
                append((pid, seq, "queue_wait", grant, wire_start, "link.forward"))
                run_start = run_end = wire_start
                run_major = 0
            d = arrive_lender - wire_start
            if d > run_major:
                run_major, run_res = d, "link.forward"
            d = mem_ready - arrive_lender
            if d > run_major:
                run_major, run_res = d, "lender.nic"
            run_end = mem_ready
            if bus_start > mem_ready:
                if run_end > run_start:
                    append((pid, seq, "service", run_start, run_end, run_res))
                append((pid, seq, "contention", mem_ready, bus_start, "lender.bus"))
                run_start = run_end = bus_start
                run_major = 0
            d = t_mem - bus_start
            if d > run_major:
                run_major, run_res = d, "lender.dram"
            run_end = t_mem
            if rev_start > t_mem:
                if run_end > run_start:
                    append((pid, seq, "service", run_start, run_end, run_res))
                append((pid, seq, "queue_wait", t_mem, rev_start, "link.reverse"))
                run_start = run_end = rev_start
                run_major = 0
            d = arrive_back - rev_start
            if d > run_major:
                run_major, run_res = d, "link.reverse"
            d = complete - arrive_back
            if d > run_major:
                run_major, run_res = d, "nic.ingress"
            run_end = complete
            if run_end > run_start:
                append((pid, seq, "service", run_start, run_end, run_res))
        for row in rows:
            ranks.setdefault((pid, "blame." + row[2]), math.inf)
    index = _rows_flagged(cols, ROW_ARQ | ROW_BLAMED)
    for r, seq, attempt_start, valid_at, grant, complete in zip(
        index.tolist(),
        *(
            cols[name][index].tolist()
            for name in ("seq", "attempt_start", "valid_at", "grant", "complete")
        ),
    ):
        valid_at = min(max(valid_at, attempt_start), complete)
        grant = min(max(grant, valid_at), complete)
        for cat, start, end, resource in (
            ("service", attempt_start, valid_at, "nic.egress"),
            ("injected_delay", valid_at, grant, "delay.injector"),
            ("service", grant, complete, "datapath.round_trip"),
        ):
            if end > start:
                append((pid, seq, cat, start, end, resource))
                ranks.setdefault((pid, "blame." + cat), 2 * r + 1)
    return rows


class NullTracer:
    """Zero-cost tracer: every recording call is a no-op."""

    enabled = False

    def begin_process(self, label: str) -> int:
        return 0

    def add_span(self, *args, **kwargs) -> None:
        return None

    def add_blame(self, *args, **kwargs) -> None:
        return None

    def add_request(self, *args, **kwargs) -> None:
        return None

    def add_instant(self, *args, **kwargs) -> None:
        return None

    def __len__(self) -> int:
        return 0


def bridge_eventlog(tracer: Tracer, log, pid: int = 1, limit: Optional[int] = None) -> int:
    """Mirror an :class:`~repro.sim.eventlog.EventLog` into the trace.

    Stored entries become instant events (category ``log.<category>``);
    the log's drop counter is surfaced in the trace metadata so a
    truncated log is visible in `repro obs report`.  Returns the number
    of entries bridged.
    """
    entries: Iterable = log.entries()
    if limit is not None:
        entries = list(entries)[-limit:]
    n = 0
    for entry in entries:
        tracer.add_instant(
            entry.message,
            entry.time,
            pid=pid,
            cat=f"log.{entry.category}",
            args={"seq": entry.sequence},
        )
        n += 1
    dropped = getattr(log, "dropped", 0)
    total = tracer.metadata.get("eventlog_dropped", 0)
    tracer.metadata["eventlog_dropped"] = int(total) + int(dropped)
    tracer.metadata["eventlog_bridged"] = int(tracer.metadata.get("eventlog_bridged", 0)) + n
    return n


def stage_sum_check(
    spans: Sequence[SpanRecord],
    requests: Sequence[Tuple[int, int, int, int, Optional[dict]]],
    cat: str = "stage",
) -> bool:
    """True when each request's stage spans sum to its envelope exactly.

    Used by tests and `repro obs report` to assert the decomposition
    invariant: per-request pipeline stages tile the end-to-end latency.
    """
    by_request: Dict[Tuple[int, int], int] = {}
    for span in spans:
        if span.cat != cat or not span.args or "seq" not in span.args:
            continue
        key = (span.pid, span.args["seq"])
        by_request[key] = by_request.get(key, 0) + span.duration
    for pid, seq, start, end, _args in requests:
        total = by_request.get((pid, seq))
        if total is not None and total != end - start:
            return False
    return True


def blame_sum_check(tracer: Tracer) -> bool:
    """True when each request's blame rows tile its envelope exactly.

    The attribution twin of :func:`stage_sum_check`: per-request blame
    categories must sum to the end-to-end latency, so no picosecond of
    a request's sojourn is ever unattributed or double-counted.
    Requests without blame rows (e.g. fluid-mode points) are skipped.
    """
    _spans, requests, blame, _ranks = tracer._gather()
    by_request: Dict[Tuple[int, int], int] = {}
    for pid, seq, _cat, start, end, _resource in blame:
        key = (pid, seq)
        by_request[key] = by_request.get(key, 0) + (end - start)
    for pid, seq, start, end, _args in requests:
        total = by_request.get((pid, seq))
        if total is not None and total != end - start:
            return False
    return True
