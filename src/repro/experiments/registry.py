"""Experiment registry: id → runner (plus a parallel batch runner)."""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import ExperimentError
from repro.experiments import (
    failover,
    metastable,
    fig2_stream_latency,
    fig3_stream_bandwidth,
    fig4_resilience,
    fig5_app_degradation,
    fig6_mcbn,
    fig7_mcln,
    table1_high_delay,
)
from repro.experiments.ablations import (
    allocation,
    blackout,
    distribution,
    pooling,
    qos_priority,
    timevarying,
)
from repro.experiments.base import ExperimentResult

__all__ = ["get_experiment", "list_experiments", "run_experiment", "run_many"]

_REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {
    "fig2": fig2_stream_latency.run,
    "fig3": fig3_stream_bandwidth.run,
    "fig4": fig4_resilience.run,
    "fig5": fig5_app_degradation.run,
    "fig6": fig6_mcbn.run,
    "fig7": fig7_mcln.run,
    "table1": table1_high_delay.run,
    "ablation-dist": distribution.run,
    "ablation-wave": timevarying.run,
    "ablation-qos": qos_priority.run,
    "ablation-blackout": blackout.run,
    "ablation-pooling": pooling.run,
    "ablation-allocation": allocation.run,
    "failover": failover.run,
    "metastable": metastable.run,
}

_DESCRIPTIONS: Dict[str, str] = {
    "fig2": "STREAM latency vs delay injection PERIOD",
    "fig3": "STREAM bandwidth vs PERIOD; BDP constancy",
    "fig4": "Resilience under heavy delay (attach failure at PERIOD=1e4)",
    "fig5": "Application degradation vs vanilla ThymesisFlow",
    "fig6": "Borrower-side contention (MCBN): equal bandwidth division",
    "fig7": "Lender-side contention (MCLN): borrower bandwidth flat",
    "table1": "High-delay impact vs local memory (Redis / BFS / SSSP)",
    "ablation-dist": "Extension: distribution-driven injection at equal mean",
    "ablation-wave": "Extension: delay varying within a run (square wave)",
    "ablation-qos": "Extension: priority arbitration at the delay gate",
    "ablation-blackout": "Extension: link blackout survive/crash boundary",
    "ablation-pooling": "Extension: memory pooling vs borrowing bottleneck shift",
    "ablation-allocation": "Extension: lender busyness as a placement signal",
    "failover": "Extension: lender failure domains (health-checked failover)",
    "metastable": "Extension: metastable collapse vs overload-control ladder",
}

#: Experiments reproducing paper artifacts (vs extension studies).
PAPER_ARTIFACTS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table1")


def list_experiments() -> List[tuple[str, str]]:
    """All experiment ids with one-line descriptions."""
    return [(name, _DESCRIPTIONS[name]) for name in sorted(_REGISTRY)]


def get_experiment(name: str) -> Callable[..., ExperimentResult]:
    """Runner for experiment *name*."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise ExperimentError(
            f"unknown experiment {name!r}; available: {sorted(_REGISTRY)}"
        ) from exc


def run_experiment(name: str, **kwargs) -> ExperimentResult:
    """Run experiment *name* with runner-specific keyword options."""
    return get_experiment(name)(**kwargs)


def _run_as_dict(name: str, kwargs: Mapping) -> dict:
    """Worker-runnable wrapper: run *name*, return plain-data result fields."""
    return run_experiment(name, **dict(kwargs)).to_dict()


def _result_from_dict(data: Mapping) -> ExperimentResult:
    return ExperimentResult(
        experiment=data["experiment"],
        title=data["title"],
        columns=tuple(data["columns"]),
        rows=[tuple(row) for row in data["rows"]],
        checks=dict(data["checks"]),
        notes=data["notes"],
    )


def run_many(
    names: Sequence[str],
    per_experiment: Optional[Mapping[str, Mapping]] = None,
    workers: int = 1,
    cache=None,
    **kwargs,
) -> List[ExperimentResult]:
    """Run several experiments, optionally fanned over a process pool.

    Each experiment is one sweep point of the :mod:`repro.perf`
    executor: *workers* experiments run concurrently (each one runs its
    own internal sweep serially — one pool level, no nesting) and
    *cache* serves unchanged experiments straight from the
    content-addressed result cache.  ``**kwargs`` go to every runner
    (filtered to what each accepts); *per_experiment* adds per-name
    overrides.  Results come back in *names* order.
    """
    import inspect

    from repro.perf import PointTask, SweepExecutor

    tasks = []
    for name in names:
        runner_params = frozenset(inspect.signature(get_experiment(name)).parameters)
        merged = {k: v for k, v in kwargs.items() if k in runner_params}
        merged.update((per_experiment or {}).get(name, {}))
        tasks.append(
            PointTask(key=f"experiment/{name}", fn=_run_as_dict, kwargs={"name": name, "kwargs": merged})
        )
    outputs = SweepExecutor(workers=workers, cache=cache).map(tasks)
    return [_result_from_dict(data) for data in outputs]
