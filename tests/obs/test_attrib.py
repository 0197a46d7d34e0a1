"""Tests for causal latency attribution (blame spans, sidecars, diffs)."""

import json

import numpy as np
import pytest

from repro.calibration import paper_cluster_config
from repro.config import FaultConfig, TransportConfig
from repro.core.characterization import validation_sweep
from repro.node import ReliableThymesisFlowSystem
from repro.obs import Observability, blame_sum_check, diff_attrib, load_sidecar
from repro.obs.attrib import (
    TOLERANCE_PS,
    AttributionResult,
    RequestBlame,
    attribution_sidecar,
    extract_attribution,
    render_attrib,
    write_sidecar,
)
from repro.obs.tracer import (
    BLAME_CATEGORIES,
    ROW_BLAMED,
    Tracer,
    datapath_blame_splits,
    derive_blame,
    derive_requests,
)
from repro.sim import StatRecorder
from repro.workloads.stream import StreamConfig


def _traced_sweep(periods=(1, 32), seed=1234):
    obs = Observability(trace=True, attrib=True)
    validation_sweep(
        periods=periods, mode="des", stream=StreamConfig(n_elements=2_000), obs=obs
    )
    return obs


class TestBlameInvariant:
    def test_fig2_blame_tiles_every_request_exactly(self):
        obs = _traced_sweep()
        tracer = obs.tracer
        assert blame_sum_check(tracer)
        results = extract_attribution(tracer)
        assert len(results) == 2  # one per PERIOD point
        for result in results:
            assert result.requests > 0
            assert result.mismatched == 0

    def test_per_request_residual_under_tolerance(self):
        # The acceptance property: every request's blame categories sum
        # to its end-to-end latency within 1e-3 us (= 1000 ps).
        obs = _traced_sweep(periods=(4,))
        per = {}
        for pid, seq, _cat, start, end, _resource in obs.tracer.blame:
            key = (pid, seq)
            per[key] = per.get(key, 0) + (end - start)
        checked = 0
        for pid, seq, start, end, _args in obs.tracer.requests:
            total = per.get((pid, seq))
            if total is None:
                continue
            checked += 1
            assert abs(total - (end - start)) <= TOLERANCE_PS
        assert checked > 0

    def test_fig6_contended_run_keeps_the_invariant(self):
        from repro.experiments.fig6_mcbn import _mcbn_point

        obs = Observability(trace=True, attrib=True)
        _mcbn_point(4, 1, StreamConfig(n_elements=2_000), "des", obs=obs)
        assert blame_sum_check(obs.tracer)
        (result,) = extract_attribution(obs.tracer)
        assert result.label == "n=4"
        assert result.mismatched == 0
        # Four competing instances queue at the shared wire.
        assert result.totals_ps["queue_wait"] > 0

    def test_injected_delay_dominates_period_bump(self):
        def sidecar(period):
            obs = Observability(trace=True, attrib=True)
            validation_sweep(
                periods=(period,),
                mode="des",
                stream=StreamConfig(n_elements=2_000),
                obs=obs,
            )
            doc = attribution_sidecar(obs.tracer, experiment="fig2")
            for point in doc["points"]:
                point["label"] = "point"  # pair across PERIODs
            return doc

        diff = diff_attrib(sidecar(1), sidecar(200))
        assert diff.regressed
        assert diff.dominant_category() == "injected_delay"
        deltas = diff.category_deltas_us()
        others = sum(v for k, v in deltas.items() if k != "injected_delay")
        assert deltas["injected_delay"] > 10 * abs(others)


class TestVocabularyEnforcement:
    def test_unknown_category_rejected_at_record_time(self):
        tracer = Tracer()
        pid = tracer.begin_process("run")
        with pytest.raises(ValueError, match="outside the fixed vocabulary"):
            tracer.add_blame("gpu_wait", 0, 10, pid=pid, seq=0, resource="gpu")

    def test_missing_resource_edge_rejected(self):
        tracer = Tracer()
        pid = tracer.begin_process("run")
        with pytest.raises(ValueError, match="resource"):
            tracer.add_blame("service", 0, 10, pid=pid, seq=0)
        with pytest.raises(ValueError, match="resource"):
            tracer.add_blame("service", 0, 10, pid=pid, seq=0, resource="")

    def test_blame_spans_must_use_add_blame(self):
        tracer = Tracer()
        pid = tracer.begin_process("run")
        with pytest.raises(ValueError, match="add_blame"):
            tracer.add_span("service", 0, 10, pid, cat="blame")

    def test_every_category_accepted(self):
        tracer = Tracer()
        pid = tracer.begin_process("run")
        for i, cat in enumerate(BLAME_CATEGORIES):
            tracer.add_blame(cat, i * 10, i * 10 + 5, pid=pid, seq=i, resource="r")
        assert len(tracer.blame) == len(BLAME_CATEGORIES)
        # Rows materialize as Perfetto events on blame.<cat> tracks.
        trace = tracer.to_chrome_trace()
        blame_events = [e for e in trace["traceEvents"] if e.get("cat") == "blame"]
        assert {e["name"] for e in blame_events} == set(BLAME_CATEGORIES)
        assert all(e["args"]["resource"] == "r" for e in blame_events)


class TestReliableTransportBlame:
    def test_retry_and_backoff_spans_complete_the_tiling(self):
        fault = FaultConfig(loss_rate=0.05)
        config = (
            paper_cluster_config(seed=21)
            .with_fault(fault)
            .with_transport(TransportConfig(max_retries=6))
        )
        obs = Observability(trace=True, attrib=True)
        system = ReliableThymesisFlowSystem(config, obs=obs, faults_armed=False)
        system.attach_or_raise()
        system.arm_faults()
        base = config.remote_region_base

        def worker():
            for j in range(160):
                yield from system.remote_access(base + 128 * j, write=(j % 2 == 0))

        system.sim.process(worker(), name="w0")
        system.sim.run()
        assert system.transport.stats.retransmissions > 0
        tracer = obs.tracer
        assert blame_sum_check(tracer)
        cats = {row[2] for row in tracer.blame}
        assert "retry" in cats and "backoff" in cats
        (result,) = extract_attribution(tracer)
        assert result.mismatched == 0
        assert result.totals_ps["retry"] > 0
        assert result.totals_ps["backoff"] > 0


class TestSidecarAndDiff:
    def test_same_seed_runs_diff_identical(self):
        a = attribution_sidecar(_traced_sweep().tracer, experiment="fig2")
        b = attribution_sidecar(_traced_sweep().tracer, experiment="fig2")
        diff = diff_attrib(a, b)
        assert diff.identical and not diff.regressed
        assert all(d["delta"] == 0.0 for d in diff.deltas)
        assert "identical" in diff.render()

    def test_sidecar_round_trip_and_render(self, tmp_path):
        obs = _traced_sweep()
        doc = attribution_sidecar(
            obs.tracer, experiment="fig2", metrics=obs.metrics
        )
        path = write_sidecar(doc, str(tmp_path / "attrib.json"))
        loaded = load_sidecar(path)
        assert loaded == json.loads(json.dumps(doc))
        assert loaded["kind"] == "repro-attrib"
        assert loaded["metrics"]["counters"]
        text = render_attrib(loaded)
        assert "legend" in text
        for point in loaded["points"]:
            assert point["label"] in text
            assert point["mismatched"] == 0
            total = sum(point["blame_total_us"].values())
            assert total > 0

    def test_load_sidecar_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not-attrib.json"
        path.write_text('{"kind": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError, match="repro-attrib"):
            load_sidecar(str(path))

    def test_noise_threshold_tolerates_small_deltas(self):
        a = attribution_sidecar(_traced_sweep(periods=(4,)).tracer)
        b = json.loads(json.dumps(a))
        # +2% latency: within the 5% relative noise band -> not a regression.
        for key in b["points"][0]["latency_us"]:
            b["points"][0]["latency_us"][key] *= 1.02
        diff = diff_attrib(a, b)
        assert not diff.identical
        assert not diff.regressed
        # +60% latency: flagged and regressive.
        for key in b["points"][0]["latency_us"]:
            b["points"][0]["latency_us"][key] *= 1.6
        assert diff_attrib(a, b).regressed

    def test_point_count_mismatch_is_a_regression(self):
        a = attribution_sidecar(_traced_sweep().tracer)
        b = json.loads(json.dumps(a))
        del b["points"][1]
        diff = diff_attrib(a, b)
        assert diff.regressed and not diff.identical

    def test_improvement_is_not_a_regression(self):
        a = attribution_sidecar(_traced_sweep(periods=(32,)).tracer)
        b = json.loads(json.dumps(a))
        for key in b["points"][0]["latency_us"]:
            b["points"][0]["latency_us"][key] *= 0.5
        for cat in b["points"][0]["blame_total_us"]:
            b["points"][0]["blame_total_us"][cat] *= 0.5
        diff = diff_attrib(a, b)
        assert not diff.regressed
        assert not diff.identical


def _scalar_splits(row):
    """Per-row reference for :func:`datapath_blame_splits`."""
    valid_at, grant, arrive_lender, t_mem, arrive_back = (
        row["valid_at"], row["grant"], row["arrive_lender"], row["t_mem"], row["arrive_back"]
    )
    mem_ready = row["mem_ready"]
    if mem_ready < arrive_lender:
        mem_ready = arrive_lender
    elif mem_ready > t_mem:
        mem_ready = t_mem
    wire_start = min(max(row["forward_busy"], grant), arrive_lender)
    bus_start = min(max(row["bus_busy"], mem_ready), t_mem)
    rev_start = min(max(row["reverse_busy"], t_mem), arrive_back)
    return (
        grant - valid_at, wire_start - grant, rev_start - t_mem, bus_start - mem_ready,
        wire_start, bus_start, rev_start, mem_ready,
    )


def _random_clean_record(n=400, seed=5):
    """Blamed clean rows with ordered boundaries and snapshots that land
    before, inside and past the segments they are clamped into."""
    rng = np.random.default_rng(seed)
    record = StatRecorder(observed=True)
    for seq in range(n):
        steps = rng.integers(0, 5_000, size=7).cumsum()
        t_request = int(steps[0])
        bounds = [int(t_request + x) for x in rng.integers(0, 3_000, size=7).cumsum()]
        snaps = [int(b + d) for b, d in zip(bounds[1:6], rng.integers(-4_000, 4_000, size=5))]
        snaps[0] = -1 if seq % 7 == 0 else snaps[0]  # intrinsic grant unknown
        issue, valid_at, grant, arrive_lender, t_mem, arrive_back, complete = bounds
        record.rows.extend(
            (t_request, issue, complete, seq, 0, ROW_BLAMED, issue,
             valid_at, grant, arrive_lender, t_mem, arrive_back, *snaps)
        )
    return record


class TestRecordArithmetic:
    def test_vectorized_splits_match_scalar_reference(self):
        cols = _random_clean_record().table()
        splits = datapath_blame_splits(cols)
        for r in range(len(cols["seq"])):
            row = {name: int(col[r]) for name, col in cols.items()}
            assert tuple(int(s[r]) for s in splits) == _scalar_splits(row)

    def test_column_fold_matches_per_request_fold(self):
        cols = _random_clean_record().table()
        fast = AttributionResult()
        fast._fold_columns(cols)
        per = {}
        for pid, seq, cat, start, end, resource in derive_blame(1, cols, {}):
            by_category, blocked = per.setdefault(seq, ({}, {}))
            by_category[cat] = by_category.get(cat, 0) + end - start
            if cat != "service":
                blocked[resource] = blocked.get(resource, 0) + end - start
        slow = AttributionResult()
        slow._fold_requests(
            [(end - start, *per[seq]) for _pid, seq, start, end, _a in derive_requests(1, cols)]
        )
        assert fast.to_point() == slow.to_point()
        assert fast.resources_ps == slow.resources_ps
        assert fast.tail_resources_ps == slow.tail_resources_ps


class TestAggregation:
    def test_top_resources_ranked_by_blocked_time(self):
        blames = [
            RequestBlame(
                pid=1,
                seq=i,
                start=0,
                end=1_000_000,
                by_category={"queue_wait": 700_000, "service": 300_000},
                blocked_by={"link.forward": 500_000, "lender.bus": 200_000},
            )
            for i in range(10)
        ]
        result = AttributionResult.build(blames, label="x")
        top = result.top_resources()
        assert top[0][0] == "link.forward"
        assert top[0][1] > top[1][1]
        point = result.to_point()
        assert point["top_resources_p99"][0]["resource"] == "link.forward"
        assert point["requests"] == 10 and point["mismatched"] == 0

    def test_mismatched_counts_requests_outside_tolerance(self):
        rb = RequestBlame(
            pid=1, seq=0, start=0, end=1_000_000, by_category={"service": 10_000}
        )
        result = AttributionResult.build([rb])
        assert result.mismatched == 1
        assert rb.residual_ps == 990_000


class TestCliSurface:
    def _write_sidecars(self, tmp_path):
        a = attribution_sidecar(_traced_sweep(periods=(4,)).tracer, experiment="fig2")
        b = json.loads(json.dumps(a))
        pa = write_sidecar(a, str(tmp_path / "a.json"))
        pb = write_sidecar(b, str(tmp_path / "b.json"))
        return pa, pb, b

    def test_obs_attrib_renders_and_exits_zero(self, tmp_path, capsys):
        from repro.experiments.cli import main

        pa, _pb, _b = self._write_sidecars(tmp_path)
        assert main(["obs", "attrib", pa]) == 0
        out = capsys.readouterr().out
        assert "latency attribution" in out and "legend" in out

    def test_obs_diff_identical_exits_zero(self, tmp_path, capsys):
        from repro.experiments.cli import main

        pa, pb, _b = self._write_sidecars(tmp_path)
        assert main(["obs", "diff", pa, pb]) == 0
        assert "identical" in capsys.readouterr().out

    def test_obs_diff_regression_exits_nonzero(self, tmp_path, capsys):
        from repro.experiments.cli import main

        pa, pb, b = self._write_sidecars(tmp_path)
        for key in b["points"][0]["latency_us"]:
            b["points"][0]["latency_us"][key] *= 2.0
        write_sidecar(b, pb)
        assert main(["obs", "diff", pa, pb]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_run_attrib_out_writes_sidecar(self, tmp_path, capsys):
        from repro.experiments.cli import main

        path = str(tmp_path / "fig2.attrib.json")
        assert (
            main(["run", "fig2", "--quick", "--engine", "des", "--attrib-out", path]) == 0
        )
        doc = load_sidecar(path)
        assert doc["experiment"] == "fig2"
        assert len(doc["points"]) == 5  # one per QUICK_PERIODS point
        assert all(p["mismatched"] == 0 for p in doc["points"])
