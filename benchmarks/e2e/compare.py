"""``compare PARENT_DIR CHANGE_DIR``: the gain and no-regression rules.

Each directory holds result JSONs written by ``run --out`` on one
commit.  Runs of a workload are paired in start order.  Per (metric,
workload):

* improved -- at least 10 pairs, run alternately (the side that ran
  first alternates from pair to pair), the change wins at least 9 in 10
  of them (ties count for neither), and the medians differ in the
  better direction by more than the parent's interquartile range;
* regressed -- the change's median is worse than the parent's by more
  than the metric's bound from BENCHMARK.json;
* unresolved -- the parent's own spread (IQR over median) is wider than
  the bound, and not every change run beats every parent run;
* unchanged -- otherwise.

Digests and ``failed_frac`` are compared exactly: a different simulated
outcome for the same seed and scale, or more failed episodes, is a
regression whatever the timings say.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

__all__ = ["compare_dirs", "compare_workload", "metric_verdict"]

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_results(directory: Path) -> Dict[str, List[dict]]:
    """Untraced results per workload, in start order."""
    by_workload: Dict[str, List[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if data.get("kind") == "e2e-result" and not data["manifest"]["trace"]:
            by_workload[data["workload"]].append(data)
    for runs in by_workload.values():
        runs.sort(key=lambda r: r["manifest"]["started_at"])
    return by_workload


def _iqr(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def metric_verdict(
    parent: List[float], change: List[float], better: str, bound: float, alternating: bool
) -> Tuple[str, str]:
    """Verdict and a one-line reason for one (metric, workload)."""
    if len(parent) < 2 or len(change) < 2:
        return "unresolved", "fewer than 2 runs a side"
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    iqr = _iqr(parent)
    gain = sign * (cm - pm)  # > 0: the change is better
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    detail = f"{pm:.6g} -> {cm:.6g} ({(cm - pm) / pm:+.1%}), wins {wins}/{len(pairs)}, parent IQR {iqr:.3g}"
    if len(pairs) >= MIN_PAIRS and alternating and wins >= WIN_SHARE * len(pairs) and gain > iqr:
        return "improved", detail
    if -gain > bound * abs(pm):
        return "regressed", detail
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if iqr > bound * abs(pm) and not all_better:
        return "unresolved", detail + " (spread wider than bound)"
    return "unchanged", detail


def _alternating(parent: List[dict], change: List[dict]) -> bool:
    firsts = [
        p["manifest"]["started_at"] < c["manifest"]["started_at"] for p, c in zip(parent, change)
    ]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def _digests(runs: List[dict]) -> Dict[str, set]:
    out: Dict[str, set] = defaultdict(set)
    for r in runs:
        key = f"seed={r['manifest']['seed']} scale={r['manifest']['scale']:g}"
        out[key].add(json.dumps(r["digest"], sort_keys=True))
    return out


def compare_workload(parent: List[dict], change: List[dict], spec: dict) -> Tuple[str, List[str]]:
    """Row verdict for one workload and its per-metric lines."""
    lines = []
    verdicts = []
    alternating = _alternating(parent, change)
    if not alternating:
        lines.append("runs did not alternate sides; no gain can be claimed")
    pd, cd = _digests(parent), _digests(change)
    for key in sorted(pd.keys() & cd.keys()):
        if pd[key] != cd[key]:
            verdicts.append("regressed")
            lines.append(f"digest differs at {key}")
    p_failed = sum(r["failed"] for r in parent)
    c_failed = sum(r["failed"] for r in change)
    if c_failed != p_failed:
        lines.append(f"failed episodes differ: parent {p_failed}, change {c_failed}")
        if c_failed > p_failed:
            verdicts.append("regressed")
    for m in spec["end_to_end"]:
        name = m["name"]
        pv = [r["metrics"][name]["value"] for r in parent if name in r["metrics"]]
        cv = [r["metrics"][name]["value"] for r in change if name in r["metrics"]]
        verdict, detail = metric_verdict(pv, cv, m["better"], m["bound"], alternating)
        verdicts.append(verdict)
        lines.append(f"{name}: {verdict}: {detail}")
    for row in ("regressed", "improved", "unresolved"):
        if row in verdicts:
            return row, lines
    return "unchanged", lines


def compare_dirs(parent_dir: Path, change_dir: Path, spec: dict) -> int:
    """Print one row per workload; non-zero exit if any regressed."""
    parent, change = load_results(parent_dir), load_results(change_dir)
    names = [w["name"] for w in spec["workloads"] if w["name"] in parent and w["name"] in change]
    if not names:
        print("no workload has results on both sides")
        return 2
    regressed = False
    for name in names:
        verdict, lines = compare_workload(parent[name], change[name], spec)
        regressed |= verdict == "regressed"
        print(f"{name:<16s}{verdict}  ({len(parent[name])} parent / {len(change[name])} change runs)")
        for line in lines:
            print(f"    {line}")
    return 1 if regressed else 0
