"""Tests for the cadence-driven timeline sampler and its exporters."""

import csv
import json

import pytest

from repro.obs.timeline import TimelineSampler, load_metrics_jsonl


def _sampler_with_counter(cadence=100):
    sampler = TimelineSampler(cadence_ps=cadence)
    sampler.begin_run("run-A", start_ps=0)
    state = {"bytes": 0}
    sampler.add_probe("depth", lambda: 7)
    sampler.rate_probe("rate", lambda: state["bytes"], scale=1.0)
    return sampler, state


class TestTimelineSampler:
    def test_invalid_cadence(self):
        with pytest.raises(ValueError):
            TimelineSampler(cadence_ps=0)

    def test_no_sample_before_first_boundary(self):
        sampler, _ = _sampler_with_counter()
        sampler.maybe_sample(99)
        assert sampler.rows == []

    def test_sample_on_boundary_crossing(self):
        sampler, state = _sampler_with_counter()
        state["bytes"] = 50
        sampler.maybe_sample(100)
        assert len(sampler.rows) == 1
        row = sampler.rows[0]
        assert row["tick_ps"] == 100 and row["t_ps"] == 100 and row["dt_ps"] == 100
        assert row["depth"] == 7
        assert row["rate"] == pytest.approx(50 / 100)

    def test_idle_jump_emits_single_row_with_correct_rate(self):
        sampler, state = _sampler_with_counter()
        state["bytes"] = 1000
        sampler.maybe_sample(1050)  # jumps 10 boundaries at once
        assert len(sampler.rows) == 1
        row = sampler.rows[0]
        assert row["tick_ps"] == 1000 and row["dt_ps"] == 1000
        assert row["rate"] == pytest.approx(1000 / 1000)  # normalized by dt
        # Next boundary continues the cadence grid.
        sampler.maybe_sample(1100)
        assert sampler.rows[-1]["tick_ps"] == 1100

    def test_flush_run_takes_final_snapshot(self):
        sampler, _ = _sampler_with_counter()
        sampler.maybe_sample(100)
        sampler.flush_run(142)
        assert sampler.rows[-1]["t_ps"] == 142
        # After flushing, sampling is disarmed until the next begin_run.
        sampler.maybe_sample(10_000)
        assert len(sampler.rows) == 2

    def test_begin_run_resets_probes_and_phase(self):
        sampler, _ = _sampler_with_counter()
        sampler.maybe_sample(100)
        sampler.flush_run(100)
        sampler.begin_run("run-B", start_ps=5000)
        sampler.add_probe("other", lambda: 1)
        sampler.maybe_sample(5100)
        row = sampler.rows[-1]
        assert row["run"] == "run-B" and row["tick_ps"] == 5100
        assert "depth" not in row and row["other"] == 1


class TestExports:
    def _filled_sampler(self):
        sampler, state = _sampler_with_counter()
        for t in (100, 250, 400):
            state["bytes"] += 300
            sampler.maybe_sample(t)
        return sampler

    def test_jsonl_round_trip_equal(self, tmp_path):
        sampler = self._filled_sampler()
        summary = {"counters": {"tx": 3.0}}
        path = sampler.write_jsonl(str(tmp_path / "m.jsonl"), summary=summary)
        rows, loaded_summary = load_metrics_jsonl(path)
        assert rows == sampler.rows
        assert loaded_summary["counters"] == {"tx": 3.0}
        assert loaded_summary["kind"] == "summary"

    def test_jsonl_without_summary(self, tmp_path):
        path = self._filled_sampler().write_jsonl(str(tmp_path / "m.jsonl"))
        rows, summary = load_metrics_jsonl(path)
        assert len(rows) == 3 and summary is None

    def test_csv_round_trip_equal(self, tmp_path):
        sampler = self._filled_sampler()
        path = sampler.write_csv(str(tmp_path / "m.csv"))
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(sampler.rows)
        for got, want in zip(parsed, sampler.rows):
            for key, value in want.items():
                if isinstance(value, (int, float)):
                    assert float(got[key]) == pytest.approx(value)
                else:
                    assert got[key] == value

    def test_jsonl_rows_are_one_object_per_line(self, tmp_path):
        path = self._filled_sampler().write_jsonl(str(tmp_path / "m.jsonl"))
        with open(path) as fh:
            for line in fh:
                assert isinstance(json.loads(line), dict)


class TestSystemProbes:
    def test_arq_stage_probes_register(self):
        """An ARQ delivery stage is bound before obs wires the timeline,
        so its transport counters are sampled."""
        from repro.calibration import paper_cluster_config
        from repro.engine import AccessPhase, DesPhaseDriver, PhaseProgram
        from repro.node.reliable import ReliableThymesisFlowSystem
        from repro.obs import Observability

        obs = Observability(trace=False, metrics=True)
        system = ReliableThymesisFlowSystem(paper_cluster_config(period=1), obs=obs)
        system.attach_or_raise()
        program = PhaseProgram("burst").add(AccessPhase("stream", n_lines=500, concurrency=16))
        DesPhaseDriver(system, program).run_to_completion()
        obs.finish_system(system)
        assert obs.timeline.rows
        for row in obs.timeline.rows:
            assert "transport_retransmissions" in row
            assert "retransmit_buffer_occupancy" in row

    def test_injector_stall_probe_does_not_materialize_waits(self, monkeypatch):
        """The stall probe reads the injector's running wait sum, so a
        timeline row costs O(1), not a pass over every wait so far."""
        from repro.calibration import paper_cluster_config
        from repro.engine import AccessPhase, DesPhaseDriver, PhaseProgram
        from repro.node.cluster import ThymesisFlowSystem
        from repro.obs import Observability
        from repro.sim.trace import SampleSeries

        materialized = []
        values = SampleSeries.values

        def spy(series):
            materialized.append(series.name)
            return values.fget(series)

        monkeypatch.setattr(SampleSeries, "values", property(spy))
        obs = Observability(trace=False, metrics=True)
        system = ThymesisFlowSystem(paper_cluster_config(period=8), obs=obs)
        system.attach_or_raise()
        program = PhaseProgram("burst").add(AccessPhase("stream", n_lines=500, concurrency=16))
        DesPhaseDriver(system, program).run_to_completion()
        rows = obs.timeline.rows
        assert len(rows) > 1
        assert "injector.wait" not in materialized
        injector = system.injector
        assert injector.wait_sum_ps > 0
        assert injector.waits.mean() * len(injector.waits) == pytest.approx(injector.wait_sum_ps)
        stalled = sum(row["injector_stall_frac"] * row["dt_ps"] for row in rows)
        assert 0 < stalled <= injector.wait_sum_ps * (1 + 1e-9)
