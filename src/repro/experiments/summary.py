"""One-screen paper-vs-measured summary across all artifacts.

``python -m repro summary`` runs every paper experiment at fast
settings and prints a compact scoreboard: the headline measured value,
the paper's reported value, and whether the shape criteria held —
the executable version of EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.analysis.report import render_table
from repro.experiments.base import ExperimentResult
from repro.experiments.registry import run_experiment
from repro.workloads.stream import StreamConfig

__all__ = ["build_summary", "render_summary"]

_FAST_STREAM = StreamConfig(n_elements=6000)


def _fig2() -> Tuple[ExperimentResult, str, str]:
    result = run_experiment("fig2", mode="des", stream=_FAST_STREAM)
    lo = result.rows[0][1]
    hi = result.rows[-1][1]
    return result, f"{lo:.1f}-{hi:.0f} us, r=1.00", "1.2-150 us, linear"

def _fig3() -> Tuple[ExperimentResult, str, str]:
    result = run_experiment("fig3", mode="des", stream=_FAST_STREAM)
    bdps = [row[2] for row in result.rows]
    return result, f"BDP {min(bdps):.1f}-{max(bdps):.1f} KiB", "BDP ~16.5 kB const"

def _fig4() -> Tuple[ExperimentResult, str, str]:
    result = run_experiment("fig4", stream=StreamConfig(n_elements=8000))
    statuses = {row[0]: row[1] for row in result.rows}
    alive = max(p for p, s in statuses.items() if s == "alive")
    return result, f"alive<=P{alive}, dead P10000", "crash only at P=10^4"

def _table1() -> Tuple[ExperimentResult, str, str]:
    result = run_experiment("table1", mode="fluid", quick=True)
    by_name = {row[0]: row for row in result.rows}
    return (
        result,
        f"Redis {by_name['Redis'][2]}, BFS {by_name['Graph500 BFS'][2]}",
        "Redis 1.73x, BFS 2209x",
    )

def _fig5() -> Tuple[ExperimentResult, str, str]:
    result = run_experiment("fig5", mode="fluid", quick=True)
    last = result.rows[-1]
    return result, f"Redis {last[2]:.2f}x, BFS {last[3]:.1f}x", "Redis ~1.01x, BFS 10.7x"

def _fig6() -> Tuple[ExperimentResult, str, str]:
    result = run_experiment(
        "fig6", mode="des", instance_counts=(1, 2, 4), stream=_FAST_STREAM
    )
    jains = [row[3] for row in result.rows]
    return result, f"Jain >= {min(jains):.3f}", "equal division"

def _fig7() -> Tuple[ExperimentResult, str, str]:
    result = run_experiment("fig7", lender_counts=(0, 4, 8), stream=_FAST_STREAM)
    bws = [row[1] for row in result.rows]
    spread = (max(bws) - min(bws)) / max(bws) * 100
    return result, f"borrower flat ({spread:.1f}% spread)", "independent of N"


_SUMMARIZERS: Dict[str, Callable[[], Tuple[ExperimentResult, str, str]]] = {
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "table1": _table1,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
}


def build_summary() -> Tuple[list, bool]:
    """Run every artifact fast; returns (rows, all_passed)."""
    rows = []
    all_ok = True
    for name, summarize in _SUMMARIZERS.items():
        result, measured, paper = summarize()
        rows.append((name, paper, measured, "PASS" if result.passed else "FAIL"))
        all_ok = all_ok and result.passed
    return rows, all_ok


def render_summary() -> Tuple[str, bool]:
    """Printable scoreboard; returns (text, all_passed)."""
    rows, ok = build_summary()
    table = render_table(
        "Paper vs measured (fast settings; see EXPERIMENTS.md for detail)",
        ("artifact", "paper", "measured", "checks"),
        rows,
        col_width=28,
    )
    return table, ok
