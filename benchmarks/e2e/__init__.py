"""End-to-end benchmark of record for the DES simulator.

Five workloads drive the simulator through its public API, each in its
own child interpreter; the runner reports host-time end-to-end metrics,
a correctness gate over the simulated results, and (under cProfile) a
per-layer ledger of where host time goes.  See ``README.md`` here.

Run from the repository root::

    python -m benchmarks.e2e run [--workload NAME] [--seed N] [--scale S]
    python -m benchmarks.e2e trace [--workload NAME]
    python -m benchmarks.e2e compare PARENT_DIR CHANGE_DIR
    python -m benchmarks.e2e run --list
"""

from pathlib import Path

#: This package's directory and the repository root it sits in.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
