"""Ablation studies: the paper's future work and insights, quantified.

Each module regenerates one what-if study as an
:class:`~repro.experiments.base.ExperimentResult` (rows + shape
checks), callable from the CLI (``python -m repro run <id>``) and timed by
``benchmarks/bench_experiments.py``:

=======================  ====================================================
id                       question (paper section)
=======================  ====================================================
``ablation-dist``        distribution-driven injection at equal mean (§VII)
``ablation-wave``        delay varying within a run (§V limitation)
``ablation-qos``         NIC packet prioritization (§IV-D insight)
``ablation-blackout``    link failures behind the delay (§I framing)
``ablation-pooling``     memory pooling vs borrowing (§V discussion)
``ablation-allocation``  lender busyness as a placement signal (§IV-E)
=======================  ====================================================
"""

from repro.experiments.ablations import (  # noqa: F401  (registry imports)
    allocation,
    blackout,
    distribution,
    pooling,
    qos_priority,
    timevarying,
)

__all__ = [
    "distribution",
    "timevarying",
    "qos_priority",
    "blackout",
    "pooling",
    "allocation",
]
