"""Integration tests: every paper experiment runs and passes its checks.

These use reduced sizes / the fluid engine where the default would be
slow; the benchmark harness runs the full-size versions.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments import list_experiments, run_experiment
from repro.experiments.registry import get_experiment
from repro.workloads.stream import StreamConfig


class TestRegistry:
    def test_all_paper_artifacts_covered(self):
        from repro.experiments.registry import PAPER_ARTIFACTS

        names = {name for name, _ in list_experiments()}
        assert set(PAPER_ARTIFACTS) == {
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table1",
        }
        assert set(PAPER_ARTIFACTS) <= names

    def test_ablation_extensions_registered(self):
        names = {name for name, _ in list_experiments()}
        assert {
            "ablation-dist",
            "ablation-wave",
            "ablation-qos",
            "ablation-blackout",
            "ablation-pooling",
        } <= names

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            get_experiment("fig99")


class TestFig2:
    def test_fluid_checks_pass(self):
        result = run_experiment("fig2", mode="fluid")
        assert result.passed, result.failed_checks()
        assert result.columns == ("PERIOD", "latency_us")

    def test_des_small_checks_pass(self):
        result = run_experiment(
            "fig2", mode="des", stream=StreamConfig(n_elements=4000)
        )
        assert result.passed, result.failed_checks()


class TestFig3:
    def test_fluid_checks_pass(self):
        result = run_experiment("fig3", mode="fluid")
        assert result.passed, result.failed_checks()

    def test_des_small_checks_pass(self):
        result = run_experiment(
            "fig3", mode="des", stream=StreamConfig(n_elements=4000)
        )
        assert result.passed, result.failed_checks()
        # BDP column present and near 16 KiB
        bdp_kib = [row[2] for row in result.rows]
        assert all(10 < v < 22 for v in bdp_kib)


class TestFig4:
    def test_checks_pass(self):
        result = run_experiment("fig4", stream=StreamConfig(n_elements=8000))
        assert result.passed, result.failed_checks()
        statuses = {row[0]: row[1] for row in result.rows}
        assert statuses[10_000] == "FPGA not detected"
        assert statuses[1000] == "alive"


class TestTable1:
    def test_fluid_quick_checks_pass(self):
        result = run_experiment("table1", mode="fluid", quick=True)
        assert result.passed, result.failed_checks()
        workloads = [row[0] for row in result.rows]
        assert workloads == ["Redis", "Graph500 BFS", "Graph500 SSSP"]


class TestFig5:
    def test_fluid_quick_checks_pass(self):
        result = run_experiment("fig5", mode="fluid", quick=True)
        assert result.passed, result.failed_checks()
        assert result.columns[0] == "PERIOD"


#: fig6's fluid path must track DES within this relative tolerance on
#: per-instance and aggregate bandwidth at every quick point.  The
#: largest gap measured is 3.3% (n=2: 6.338 fluid vs 6.555 DES GB/s),
#: where DES's FIFO interleaving beats the fluid equal split.
FIG6_FLUID_VS_DES_REL_TOL = 0.05


class TestFig6:
    def test_des_small_checks_pass(self):
        # n_elements must be large enough that pipeline ramp-up is a
        # small fraction of each instance's run.
        result = run_experiment(
            "fig6",
            mode="des",
            instance_counts=(1, 2, 4),
            stream=StreamConfig(n_elements=6000),
        )
        assert result.passed, result.failed_checks()

    def test_fluid_mode(self):
        result = run_experiment("fig6", mode="fluid", instance_counts=(1, 2, 8))
        assert result.passed, result.failed_checks()

    def test_fluid_tracks_des_at_quick_points(self):
        des = run_experiment("fig6", mode="des", quick=True)
        fluid = run_experiment("fig6", mode="fluid", quick=True)
        assert [row[0] for row in fluid.rows] == [row[0] for row in des.rows]
        for d_row, f_row in zip(des.rows, fluid.rows):
            for col in (1, 2):  # per_instance_GB_s, aggregate_GB_s
                assert f_row[col] == pytest.approx(
                    d_row[col], rel=FIG6_FLUID_VS_DES_REL_TOL
                ), (des.columns[col], d_row[0])


class TestFig7:
    def test_des_small_checks_pass(self):
        result = run_experiment(
            "fig7",
            lender_counts=(0, 2, 8),
            stream=StreamConfig(n_elements=3000),
        )
        assert result.passed, result.failed_checks()

    def test_bus_utilization_grows_with_lender_load(self):
        result = run_experiment(
            "fig7",
            lender_counts=(0, 8),
            stream=StreamConfig(n_elements=3000),
        )
        utils = [row[2] for row in result.rows]
        assert utils[1] > utils[0]


class TestAblationExperiments:
    """The extension studies run and pass their checks at small sizes."""

    def test_distribution(self):
        result = run_experiment("ablation-dist", n_elements=8000)
        assert result.passed, result.failed_checks()

    def test_timevarying(self):
        result = run_experiment("ablation-wave", n_elements=8000)
        assert result.passed, result.failed_checks()

    def test_qos_priority(self):
        result = run_experiment("ablation-qos", bulk_lines=4000, probe_lines=15)
        assert result.passed, result.failed_checks()

    def test_blackout(self):
        from repro.units import milliseconds

        result = run_experiment(
            "ablation-blackout",
            durations=(milliseconds(1), milliseconds(64)),
        )
        assert result.passed, result.failed_checks()

    def test_pooling(self):
        result = run_experiment("ablation-pooling", counts=(1, 4), lines=2500)
        assert result.passed, result.failed_checks()


class TestRendering:
    def test_render_includes_checks(self):
        result = run_experiment("fig2", mode="fluid")
        text = result.render()
        assert "[fig2]" in text and "check PASS" in text
