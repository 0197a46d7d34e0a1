"""Wall time of every registered experiment at its default size.

One benchmark per ``python -m repro list`` id: each runs the experiment
once under pytest-benchmark timing and prints its table.  Whether the
result is right is the experiment's own checks' business (``repro run
<id>`` exits non-zero on a failed check, and tier-1 runs every quick
config); here ``checks_passed`` is only recorded next to the time.
"""

import pytest

from benchmarks.conftest import run_and_report
from repro.experiments import list_experiments
from repro.experiments.registry import get_experiment


@pytest.mark.parametrize("name", [name for name, _ in list_experiments()])
def test_experiment(benchmark, name):
    run_and_report(benchmark, get_experiment(name))
