"""Figure 7 bench: lender-side contention (MCLN) on the DES testbed.

Paper series: borrower STREAM bandwidth is independent of the number
of STREAM instances hammering the lender's local memory bus.
"""

from benchmarks.conftest import run_and_report
from repro.experiments import fig7_mcln


def test_fig7_mcln(benchmark):
    result = run_and_report(benchmark, fig7_mcln.run)
    bws = [row[1] for row in result.rows]
    benchmark.extra_info["borrower_gbs"] = bws
    benchmark.extra_info["variation"] = (max(bws) - min(bws)) / max(bws)
