"""Tests for the CLI entry point and CSV export/import."""

import pytest

from repro.analysis.export import read_result_csv, result_to_csv, write_result_csv
from repro.errors import ExperimentError
from repro.experiments import run_experiment
from repro.experiments.base import ExperimentResult
from repro.experiments.cli import main


class TestCli:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table1"):
            assert name in out

    def test_run_fig2_fluid(self, capsys):
        assert main(["run", "fig2", "--engine", "fluid"]) == 0
        out = capsys.readouterr().out
        assert "[fig2]" in out and "check PASS" in out

    def test_run_unknown_experiment_raises(self):
        with pytest.raises(ExperimentError):
            main(["run", "fig99"])

    def test_quick_flag_forwarded(self, capsys):
        assert main(["run", "table1", "--quick", "--engine", "fluid"]) == 0
        out = capsys.readouterr().out
        assert "Graph500 BFS" in out

    def test_plot_flag_renders_chart(self, capsys):
        assert main(["run", "fig2", "--engine", "fluid", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "PERIOD vs latency_us" in out and "log x" in out

    def test_csv_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "fig3.csv"
        assert main(["run", "fig3", "--engine", "fluid", "--csv", str(target)]) == 0
        assert target.exists()
        assert "# experiment: fig3" in target.read_text()

    def test_engine_flag_ignored_by_runner_without_mode(self, capsys):
        assert main(["run", "metastable", "--quick", "--engine", "fluid"]) == 0
        out = capsys.readouterr().out
        note = "(note: metastable does not support --engine; flag ignored)"
        assert note in out
        assert "fluid" not in out.replace(note, "")

    @pytest.mark.parametrize("command", (["run", "fig6"], ["all"]))
    def test_hybrid_engine_is_an_argparse_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--engine", "hybrid"])
        assert exc.value.code == 2
        assert "invalid choice: 'hybrid'" in capsys.readouterr().err

    def test_ablation_run_via_cli(self, capsys):
        assert main(["run", "ablation-wave"]) == 0
        out = capsys.readouterr().out
        assert "[ablation-wave]" in out and "check PASS" in out

    def test_workers_and_cache_flags(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["run", "fig2", "--quick", "--workers", "2", "--cache"]) == 0
        cold = capsys.readouterr().out
        assert "check PASS" in cold and "miss" in cold
        assert main(["run", "fig2", "--quick", "--cache"]) == 0
        warm = capsys.readouterr().out
        assert "hit rate 100%" in warm

    def test_no_cache_overrides_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert main(["run", "fig2", "--quick", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "check PASS" in out and "hit rate" not in out

    def test_cache_stats_and_clear_verbs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["run", "fig2", "--quick", "--cache"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--dir", str(tmp_path / "cache")]) == 0
        stats = capsys.readouterr().out
        assert "entries: 5" in stats
        assert main(["cache", "clear", "--dir", str(tmp_path / "cache")]) == 0
        assert "removed 5" in capsys.readouterr().out

    def test_exit_status_reflects_checks(self, capsys, monkeypatch):
        import repro.experiments.cli as cli_mod

        failing = ExperimentResult(
            experiment="fig2",
            title="t",
            columns=("a",),
            rows=[(1,)],
            checks={"always fails": False},
        )
        monkeypatch.setattr(cli_mod, "run_experiment", lambda name, **kw: failing)
        assert main(["run", "fig2"]) == 1
        assert "check FAIL" in capsys.readouterr().out


class TestCsvExport:
    def _result(self):
        return run_experiment("fig3", mode="fluid")

    def test_roundtrip(self, tmp_path):
        result = self._result()
        path = write_result_csv(result, tmp_path / "fig3.csv")
        metadata, columns, rows = read_result_csv(path)
        assert metadata["experiment"] == "fig3"
        assert metadata["checks_passed"] == "True"
        assert list(columns) == list(result.columns)
        assert len(rows) == len(result.rows)
        assert float(rows[0][1]) == pytest.approx(result.rows[0][1])
        assert len(metadata["checks"]) == len(result.checks)

    def test_csv_text_has_header_comments(self):
        text = result_to_csv(self._result())
        assert text.startswith("# experiment: fig3")
        assert "# check[PASS]:" in text

    def test_read_malformed_metadata(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# nonsense\n")
        with pytest.raises(ExperimentError):
            read_result_csv(bad)

    def test_read_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ExperimentError):
            read_result_csv(empty)


class TestSummary:
    def test_summary_scoreboard(self, capsys):
        assert main(["summary"]) == 0
        out = capsys.readouterr().out
        assert "Paper vs measured" in out
        for artifact in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table1"):
            assert artifact in out
        assert "FAIL" not in out
