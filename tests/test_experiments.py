"""Integration tests: every paper experiment runs and passes its checks.

These use reduced sizes / the fluid engine where the default would be
slow; the benchmark harness runs the full-size versions.
"""

import hashlib
import inspect
import json

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
            "ablation-allocation",
        } <= names

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            get_experiment("fig99")


#: sha256 of each id's quick ``ExperimentResult.to_dict()`` (canonical
#: JSON, see :func:`_result_sha256`): rows, checks and notes must stay
#: byte-identical across datapath refactors, not only pass their checks.
QUICK_RESULT_SHA256 = {
    "ablation-allocation": "5f9a9979783f3e020aa2c439e627d6cd5cbeb5cbfd8a3f86b1986811d7ba1de8",
    "ablation-blackout": "8d59be525f56d4531ee98425f4eea26ecc904abd69d03e21ae4ca4a158637770",
    "ablation-dist": "5135cf6bbc6e40961524e237ab48d9e8ecc87cd2715e83d6fe6a30ffc4c98718",
    "ablation-pooling": "7ec2d650d8c67e0a85068352c6522509bafc7a9f09c0a1ff374367af1dc42eb5",
    "ablation-qos": "b20e49319314ae607e6e6de0e45853954f25160546582bb8be1d9d4f9ff5f4cd",
    "ablation-wave": "d6e980837f28f82d8a6382fe5f54492222e0aa6bcad75e31aa4b834a62045eb3",
    "failover": "22aa4f84b0a69379c0ff2f290f259e3301395e9603d58b5c8a907b05c837068b",
    "fig2": "d61b5cf2b789095c6e5271d868933d1714f443aa8ce6b0df3f920210bc0e36f3",
    "fig3": "b4199bf07e71078b32d6b979cbc3ac357927bba3cef66506396cc56f675822cd",
    "fig4": "1ed3cdffe3fc8a609ef00c3a296e7b6210fc1195be64ef752707b284ea8a9479",
    "fig5": "12f24eb9bea93939c366e78d394a6a31c314a770b1f685027f9563ce439ddb79",
    "fig6": "57beb0ec03fed6ffb07260592cfc7237afa5161870a4a7177211c91a091cbce5",
    "fig7": "a5ec4ebe66b01786453ebd82ae0b85167b659d6e479a47905699356480789b24",
    "metastable": "d11a169ac1454a8f75e306b52b531e493bdd366d68a48ab4b43dc7aa8b564aa3",
    "table1": "1f208593e14a600a84d4427928862b9817fc103a0069aac84db871524cab4926",
}


def _result_sha256(result) -> str:
    """sha256 of *result*'s plain-data form as sorted, compact JSON."""
    text = json.dumps(
        result.to_dict(), sort_keys=True, separators=(",", ":"), default=lambda o: o.item()
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_registered_id_has_a_quick_digest():
    assert sorted(QUICK_RESULT_SHA256) == sorted(name for name, _ in list_experiments())


@pytest.mark.parametrize("name", [name for name, _ in list_experiments()])
def test_quick_config_passes_checks(name):
    """What ``repro all --quick`` runs: each id's quick size, its checks
    held and its result identical to the committed digest."""
    runner = get_experiment(name)
    quick = {"quick": True} if "quick" in inspect.signature(runner).parameters else {}
    result = runner(**quick)
    assert result.experiment == name
    assert result.passed, result.failed_checks()
    assert _result_sha256(result) == QUICK_RESULT_SHA256[name]


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
