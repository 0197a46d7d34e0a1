"""Shared helpers for the benchmark harness.

The benches time; they do not judge simulated results.
``bench_experiments`` runs every registered experiment once under
``pytest-benchmark`` timing and prints its table (the experiments'
own checks are what ``repro run`` and tier-1 hold them to).  The
remaining benches time the simulator's hot paths, the attribution
overhead and the result cache, and assert only on host time.

Run with::

    pytest benchmarks/ --benchmark-only -s

Every bench additionally emits a machine-readable row into
``BENCH_perf.json`` at the repository root (name — the experiment id
for experiment timings — wall seconds, and, where the bench reports
them, events/s and cache hit rate), so CI can archive performance
history without parsing pytest output.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

from repro.experiments.base import ExperimentResult

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_perf.json"


def run_and_report(benchmark, runner) -> ExperimentResult:
    """Execute *runner* once under benchmark timing and report it.

    The result's check verdict is recorded, not asserted.
    """
    result: ExperimentResult = benchmark.pedantic(runner, rounds=1, iterations=1)
    print()
    print(result.render())
    benchmark.extra_info["experiment"] = result.experiment
    benchmark.extra_info["checks_passed"] = result.passed
    return result


def _bench_row(bench) -> Dict[str, Any]:
    """One BENCH_perf.json row from a pytest-benchmark Metadata record."""
    extra = dict(getattr(bench, "extra_info", {}) or {})
    wall_s = float(bench.stats.mean)
    name = extra.pop("experiment", bench.name)
    row: Dict[str, Any] = {"name": name, "wall_s": wall_s}
    events = extra.pop("events_per_iteration", None)
    if events is not None and wall_s > 0:
        row["events_per_s"] = float(events) / wall_s
    if "cache_hit_rate" in extra:
        row["cache_hit_rate"] = extra.pop("cache_hit_rate")
    if extra:
        row["extra"] = extra
    return row


def pytest_sessionfinish(session, exitstatus):
    """Merge this run's benchmark rows into BENCH_perf.json.

    Rows are keyed by experiment id (or bench name), so re-running a
    subset refreshes just those entries while the rest of the file's
    history is preserved.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    recorded: Dict[str, Dict[str, Any]] = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
            recorded = {row["name"]: row for row in data.get("rows", [])}
        except (ValueError, KeyError, TypeError):
            recorded = {}
    for bench in bench_session.benchmarks:
        try:
            row = _bench_row(bench)
        except (AttributeError, TypeError, ZeroDivisionError):
            continue
        recorded[row["name"]] = row
    payload = {
        "schema": 1,
        "rows": [recorded[name] for name in sorted(recorded)],
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
