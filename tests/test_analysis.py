"""Unit tests for analysis statistics, degradation and reporting."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    DegradationTable,
    bandwidth_delay_product,
    bdp_constancy,
    degradation_ratio,
    jain_fairness,
    linear_correlation,
    render_series,
    render_table,
)
from repro.analysis.report import format_ratio


class TestLinearCorrelation:
    def test_perfect_line(self):
        x = [1, 2, 3, 4]
        assert linear_correlation(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)

    def test_anticorrelation(self):
        assert linear_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_series_nan(self):
        assert math.isnan(linear_correlation([1, 2, 3], [5, 5, 5]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            linear_correlation([1], [1, 2])

    def test_extreme_magnitudes_stay_bounded(self):
        tiny = 3.672511400485559e-81  # squared sums underflow to subnormals
        assert linear_correlation([0.0, tiny], [tiny, 0.0]) == pytest.approx(-1.0)
        assert linear_correlation([1e300, -1e300], [1, 2]) == pytest.approx(-1.0)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50),
    )
    def test_property_bounded(self, xs):
        ys = list(reversed(xs))
        r = linear_correlation(xs, ys)
        assert math.isnan(r) or -1.0 - 1e-9 <= r <= 1.0 + 1e-9


class TestBdp:
    def test_product(self):
        bdp = bandwidth_delay_product([1e9], [1_000_000])  # 1 GB/s * 1 us
        assert bdp[0] == pytest.approx(1000.0)

    def test_constancy_flat(self):
        bw = np.asarray([4e9, 2e9, 1e9])
        lat = np.asarray([4e3, 8e3, 16e3])
        mean, dev = bdp_constancy(bw, lat)
        assert mean == pytest.approx(16.0)
        assert dev == pytest.approx(0.0)

    def test_constancy_deviation(self):
        mean, dev = bdp_constancy([1e9, 1e9], [1000, 2000])
        assert dev > 0.3


class TestJain:
    def test_equal_allocation(self):
        assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_hog(self):
        assert jain_fairness([1, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            jain_fairness([])

    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=30))
    def test_property_bounds(self, alloc):
        f = jain_fairness(alloc)
        assert 1.0 / len(alloc) - 1e-9 <= f <= 1.0 + 1e-9


class TestDegradation:
    def test_ratio(self):
        assert degradation_ratio(200.0, 100.0) == 2.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            degradation_ratio(1.0, 0.0)
        with pytest.raises(ValueError):
            degradation_ratio(-1.0, 1.0)

    def test_table_accumulates(self):
        table = DegradationTable(baseline_label="local")
        table.record("redis", "P1", 101.0, 100.0)
        table.record("redis", "P1000", 173.0, 100.0)
        table.record("bfs", "P1", 600.0, 100.0)
        assert table.ratio("redis", "P1000") == pytest.approx(1.73)
        assert table.points == ["P1", "P1000"]
        rows = dict((name, vals) for name, vals in table.as_rows())
        assert rows["redis"] == [pytest.approx(1.01), pytest.approx(1.73)]
        assert math.isnan(rows["bfs"][1])  # bfs P1000 never recorded
        assert table.workloads() == ["redis", "bfs"]


class TestReport:
    def test_format_ratio_styles(self):
        assert format_ratio(1.014) == "1.01x"
        assert format_ratio(10.66) == "10.7x"
        assert format_ratio(2209.4) == "2209x"
        assert format_ratio(float("nan")) == "-"

    def test_render_table(self):
        out = render_table("T", ["a", "b"], [(1, 2.5), ("x", float("nan"))])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert "2.500" in lines[3]
        assert "-" in lines[4]

    def test_render_table_separates_overflowing_cells(self):
        out = render_table(
            "T",
            ["n", "breaker_trips", "goodput_pre_Mtx_s"],
            [(10000, "FPGA not detected", 1)],
            col_width=14,
        )
        lines = out.splitlines()
        assert lines[1] == "             n breaker_trips goodput_pre_Mtx_s"
        assert lines[2] == "-" * len(lines[1])
        assert lines[3] == "         10000 FPGA not detected             1"

    def test_render_table_first_cell_overflows_without_padding(self):
        out = render_table("T", ["a"], [("x" * 20,)], col_width=14)
        assert out.splitlines()[3] == "x" * 20

    def test_render_series(self):
        out = render_series("S", "x", "y", [1, 2], [3, 4])
        assert "x" in out and "y" in out and "S" in out

    def test_large_and_tiny_floats_scientific(self):
        out = render_table("T", ["v"], [(1.5e7,), (1e-5,)])
        assert "e+07" in out and "e-05" in out
