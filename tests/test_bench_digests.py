"""The benchmark's committed digests, gated in tier-1.

``benchmarks/e2e/expected.json`` pins the simulated outcome of each
benchmark workload (transaction count, end time, latency hash and
counters).  A datapath change that moves any of them changes what the
benchmark measures, so every workload is re-run here at the benchmark's
own seed and scale and must reproduce its committed entry exactly.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.e2e.cli import EXPECTED, digest_key
from benchmarks.e2e.episode import run_episode
from benchmarks.e2e.workloads import WORKLOADS

SEED = 1234
SCALE = 0.2


@pytest.mark.parametrize("name", WORKLOADS)
def test_digest_matches_committed(name):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    want = expected[digest_key(name, SEED, SCALE)]
    assert run_episode(name, SEED, SCALE)["digest"] == want


def test_stream_p4_sleeps_once_per_transaction():
    """Each clean transaction is one sleep; STREAM's per-line compute
    adds 0.8 events per transaction on top."""
    report = run_episode("stream-p4", SEED, 0.05)
    assert report["events"] / report["txns"] <= 1.9
