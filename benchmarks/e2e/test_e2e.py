"""Perturbation tests for the end-to-end benchmark, at scale 0.02.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Slicing the measured phase, tracing it, and repeating it must not move
the simulated outcome; every metric BENCHMARK.json names must be
emitted with its unit; the named layers must cover the traced time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import HERE, ROOT
from benchmarks.e2e.cli import end_to_end, gate, load_spec, trace_metrics, with_units
from benchmarks.e2e.compare import metric_verdict
from benchmarks.e2e.episode import run_episode
from benchmarks.e2e.layers import LAYERS
from benchmarks.e2e.workloads import WORKLOADS

SCALE = 0.02
SEED = 1234
KINDS = {
    "sliced": {},
    "again": {},
    "single": {"sliced": False},
    "traced": {"trace": True},
}


@pytest.fixture(scope="module")
def episode():
    """``episode(workload, kind)``: run once per module, then reuse."""
    cache = {}

    def get(name: str, kind: str) -> dict:
        if (name, kind) not in cache:
            cache[name, kind] = run_episode(name, SEED, SCALE, **KINDS[kind])
        return cache[name, kind]

    return get


@pytest.mark.parametrize("name", WORKLOADS)
def test_sliced_run_matches_single_run(episode, name):
    sliced = episode(name, "sliced")
    assert len(sliced["slices"]) > 1
    assert sliced["digest"] == episode(name, "single")["digest"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracing_leaves_digest_unchanged(episode, name):
    assert episode(name, "traced")["digest"] == episode(name, "sliced")["digest"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_digest(episode, name):
    assert episode(name, "again")["digest"] == episode(name, "sliced")["digest"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_gate_passes_and_catches_a_wrong_digest(episode, name):
    eps = [dict(episode(name, "sliced")), dict(episode(name, "again"))]
    assert gate(name, SEED, SCALE, eps, {}) == []
    assert all(ep["ok"] for ep in eps)
    wrong = dict(eps[0]["digest"], end_ps=eps[0]["digest"]["end_ps"] + 1)
    expected = {f"{name}/seed={SEED}/scale={SCALE:g}": wrong}
    assert gate(name, SEED, SCALE, eps, expected)
    assert not any(ep["ok"] for ep in eps)


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(episode, name):
    spec = load_spec()
    untraced = dict(episode(name, "sliced"), ok=True)
    traced = dict(episode(name, "traced"), ok=True)
    for specs, values in (
        (spec["end_to_end"], end_to_end([untraced])),
        (spec["per_layer"], trace_metrics(untraced, traced)),
    ):
        emitted = with_units(values, specs)
        assert list(emitted) == [m["name"] for m in specs]
        assert all(emitted[m["name"]]["unit"] == m["unit"] for m in specs)
    assert all(v > 0 for v in end_to_end([untraced]).values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_named_layers_cover_traced_wall(episode, name):
    layers = episode(name, "traced")["layers"]
    covered = sum(layers[f"{layer}.share"] for layer in LAYERS if layer != "other")
    assert covered >= 0.95


def test_spec_lists_every_workload():
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_prints_the_result_line():
    out = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--workload", "stream-p4",
         "--scale", str(SCALE), "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 3
    units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--workload", "stream-p4"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_compare_rules():
    parent = [100.0 + (i % 3) for i in range(10)]
    assert metric_verdict(parent, [p * 1.2 for p in parent], "higher", 0.1, True)[0] == "improved"
    assert metric_verdict(parent, [p * 1.2 for p in parent], "higher", 0.1, False)[0] == "unchanged"
    assert metric_verdict(parent, [p * 0.8 for p in parent], "higher", 0.1, True)[0] == "regressed"
    assert metric_verdict(parent, [p * 1.2 for p in parent], "lower", 0.1, True)[0] == "regressed"
    noisy = [100.0, 60.0, 140.0, 80.0, 120.0] * 2
    assert metric_verdict(noisy, list(reversed(noisy)), "higher", 0.1, True)[0] == "unresolved"
    assert metric_verdict(parent, parent, "higher", 0.1, True)[0] == "unchanged"
