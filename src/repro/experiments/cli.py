"""Command-line entry point: regenerate any paper table/figure.

Usage::

    repro-experiments list
    repro-experiments run fig2 --engine des
    repro-experiments run fig2 --quick --trace-out run.trace.json \\
        --metrics-out metrics.jsonl --profile
    repro-experiments obs report run.trace.json --metrics metrics.jsonl
    repro-experiments run fig6 --workers 8 --cache
    repro-experiments all --engine fluid --workers 4
    repro-experiments cache stats
    python -m repro run table1
    python -m repro lint src/repro
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from typing import Optional, Sequence

from repro.experiments.registry import (
    get_experiment,
    list_experiments,
    run_experiment,
    run_many,
)

__all__ = ["main"]

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables/figures of 'Evaluating Hardware Memory "
            "Disaggregation under Delay and Contention' (IPPS 2022) on the "
            "simulated ThymesisFlow testbed."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", help="experiment id (fig2..fig7, table1, ablation-*)")
    run_p.add_argument(
        "--engine",
        choices=("des", "fluid"),
        default=None,
        help="engine (default: each experiment's native engine)",
    )
    run_p.add_argument("--quick", action="store_true", help="reduced problem sizes")
    run_p.add_argument(
        "--plot", action="store_true", help="render the figure as an ASCII chart"
    )
    run_p.add_argument(
        "--csv", metavar="PATH", default=None, help="also write the rows as CSV"
    )
    run_p.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write per-request span tracing as Chrome/Perfetto trace JSON",
    )
    run_p.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the metrics timeline (JSONL, or CSV if PATH ends in .csv)",
    )
    run_p.add_argument(
        "--attrib-out",
        metavar="PATH",
        default=None,
        help=(
            "write the causal latency-attribution sidecar JSON (per-point "
            "blame decomposition; implies span tracing)"
        ),
    )
    run_p.add_argument(
        "--profile",
        action="store_true",
        help="profile the event loop (wall clock) and print the hot-spot table",
    )
    run_p.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help="also write the profile as JSON (implies --profile)",
    )
    run_p.add_argument(
        "--loss",
        type=float,
        metavar="RATE",
        default=None,
        help=(
            "chaos mode: per-packet link loss rate anchoring the loss ladder "
            "(experiments that support it, e.g. fig4)"
        ),
    )
    run_p.add_argument(
        "--retries",
        type=int,
        metavar="N",
        default=None,
        help="retransmission budget of the reliable transport (with --loss)",
    )
    run_p.add_argument(
        "--degraded",
        action="store_true",
        help=(
            "on retry exhaustion, quarantine the remote window and serve from "
            "local memory instead of crashing the borrower (with --loss)"
        ),
    )
    _add_perf_arguments(run_p)

    obs_p = sub.add_parser("obs", help="inspect observability artifacts from a run")
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)
    report_p = obs_sub.add_parser(
        "report", help="render a run's latency-decomposition / health summary"
    )
    report_p.add_argument("trace", help="trace JSON written by run --trace-out")
    report_p.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="metrics JSONL written by run --metrics-out",
    )
    report_p.add_argument(
        "--percentiles",
        metavar="LIST",
        default=None,
        help=(
            "comma-separated percentile columns for every quantile table "
            "(default: 50,95,99; max is always appended)"
        ),
    )
    attrib_p = obs_sub.add_parser(
        "attrib", help="render a run's stacked blame decomposition per sweep point"
    )
    attrib_p.add_argument("sidecar", help="attribution JSON written by run --attrib-out")
    attrib_p.add_argument(
        "--top", type=int, metavar="N", default=3, help="blocking resources shown per point"
    )
    attrib_p.add_argument(
        "--width", type=int, metavar="COLS", default=50, help="stacked-bar width"
    )
    diff_p = obs_sub.add_parser(
        "diff",
        help=(
            "compare two attribution sidecars (noise-aware); exits non-zero "
            "when B regresses versus A"
        ),
    )
    diff_p.add_argument("a", help="baseline attribution sidecar JSON")
    diff_p.add_argument("b", help="candidate attribution sidecar JSON")
    diff_p.add_argument(
        "--rel-tol",
        type=float,
        metavar="FRAC",
        default=0.05,
        help="relative noise threshold per metric (default 0.05)",
    )
    diff_p.add_argument(
        "--abs-tol-us",
        type=float,
        metavar="US",
        default=0.1,
        help="absolute noise threshold in microseconds (default 0.1)",
    )

    all_p = sub.add_parser("all", help="run every experiment")
    all_p.add_argument("--engine", choices=("des", "fluid"), default=None)
    all_p.add_argument("--quick", action="store_true")
    _add_perf_arguments(all_p)

    cache_p = sub.add_parser("cache", help="inspect or clear the result cache")
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    for verb, help_text in (
        ("stats", "summarize the on-disk cache (entries, size, hit counters)"),
        ("clear", "delete every cached result"),
    ):
        verb_p = cache_sub.add_parser(verb, help=help_text)
        verb_p.add_argument(
            "--dir",
            metavar="PATH",
            default=None,
            help="cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
        )

    sub.add_parser(
        "summary", help="one-screen paper-vs-measured scoreboard (fast settings)"
    )

    from repro.tools.simlint.cli import add_lint_arguments
    from repro.tools.simlint.registry import rule_code_span

    lint_p = sub.add_parser(
        "lint",
        help=(
            "run simlint, the determinism & unit-safety analyzer "
            f"(rules {rule_code_span()}; --flow adds the whole-program pass)"
        ),
    )
    add_lint_arguments(lint_p)
    return parser


#: How to chart each figure: (x column, y column, log_x, log_y) for
#: scatter, or ("bar", label column, value column).
_PLOT_HINTS = {
    "fig2": ("scatter", 0, 1, True, True),
    "fig3": ("scatter", 0, 1, True, True),
    "fig5": ("scatter", 1, 3, False, False),
    "fig6": ("bar", 0, 1),
    "fig7": ("bar", 0, 1),
}


def _plot(result) -> None:
    hint = _PLOT_HINTS.get(result.experiment)
    if hint is None:
        print("  (no plot hint for this experiment)")
        return
    from repro.analysis.ascii_chart import bar_chart, scatter

    if hint[0] == "bar":
        _, label_col, value_col = hint
        print(
            bar_chart(
                [row[label_col] for row in result.rows],
                [float(row[value_col]) for row in result.rows],
                title=result.title,
                unit=f" {result.columns[value_col]}",
            )
        )
    else:
        _, x_col, y_col, log_x, log_y = hint
        print(
            scatter(
                [float(row[x_col]) for row in result.rows],
                [float(row[y_col]) for row in result.rows],
                title=result.title,
                log_x=log_x,
                log_y=log_y,
                x_label=str(result.columns[x_col]),
                y_label=str(result.columns[y_col]),
            )
        )
    print()


def _add_perf_arguments(parser: argparse.ArgumentParser) -> None:
    """``--workers`` / ``--cache`` / ``--no-cache`` (run and all)."""
    parser.add_argument(
        "--workers",
        type=int,
        metavar="N",
        default=1,
        help="fan independent sweep points over N worker processes "
        "(results are bit-identical to --workers 1)",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="serve unchanged sweep points from the content-addressed "
        "result cache (also enabled by REPRO_CACHE=1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache even if REPRO_CACHE=1",
    )


def _build_cache(args):
    """ResultCache per the --cache/--no-cache flags and REPRO_CACHE env."""
    enabled = args.cache or os.environ.get("REPRO_CACHE") == "1"
    if args.no_cache:
        enabled = False
    if not enabled:
        return None
    from repro.perf import ResultCache

    return ResultCache()


def _report_cache(cache) -> None:
    if cache is None:
        return
    stats = cache.stats
    print(
        f"  cache: {stats.hits} hit(s), {stats.misses} miss(es), "
        f"{stats.stores} store(s), {stats.invalidations} invalidation(s) "
        f"(hit rate {stats.hit_rate:.0%}) in {cache.root}"
    )
    cache.flush_stats()


def _cache_command(args) -> int:
    """``repro cache stats`` / ``repro cache clear``."""
    from repro.perf.cache import DEFAULT_ROOT, cache_stats, clear_cache

    root = args.dir or os.environ.get("REPRO_CACHE_DIR", DEFAULT_ROOT)
    if args.cache_command == "clear":
        removed = clear_cache(root)
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} from {root}")
        return 0
    stats = cache_stats(root)
    print(f"cache {stats['root']} (code fingerprint {stats['fingerprint']})")
    print(f"  entries: {stats['entries']} ({stats['bytes']} bytes, {stats['stale_entries']} stale)")
    if stats["by_task"]:
        print("  by task:")
        for task, count in stats["by_task"].items():
            print(f"    {task}: {count}")
    if stats["counters"]:
        totals = stats["counters"]
        print(
            "  lifetime counters: "
            + ", ".join(f"{k}={totals[k]}" for k in sorted(totals))
        )
    return 0


def _accepted_kwargs(name: str) -> frozenset:
    """Keyword arguments the experiment's runner actually accepts."""
    try:
        return frozenset(inspect.signature(get_experiment(name)).parameters)
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return frozenset()


def _engine_kwargs(name: str, engine: Optional[str], accepted: frozenset) -> dict:
    """``{"mode": engine}`` for runners that take one; a note otherwise."""
    if engine is None:
        return {}
    if "mode" in accepted:
        return {"mode": engine}
    print(f"  (note: {name} does not support --engine; flag ignored)")
    return {}


def _build_obs(args):
    """Observability bundle for the run flags, or None when all are off."""
    profile = bool(args.profile or args.profile_out)
    trace_out = args.trace_out
    metrics_out = args.metrics_out
    attrib_out = args.attrib_out
    if not (trace_out or metrics_out or attrib_out or profile):
        return None
    from repro.obs import Observability

    # Attribution rides on spans, so --attrib-out implies tracing; it
    # also wants the metrics mirror so the sidecar can embed counters.
    return Observability(
        trace=bool(trace_out or attrib_out),
        metrics=bool(metrics_out or attrib_out),
        profile=profile,
        attrib=bool(attrib_out),
    )


def _write_obs_artifacts(obs, args) -> None:
    if args.trace_out:
        print(f"  trace written to {obs.write_trace(args.trace_out)}")
    if args.metrics_out:
        print(f"  metrics written to {obs.write_metrics(args.metrics_out)}")
    if args.attrib_out:
        written = obs.write_attrib(args.attrib_out, experiment=args.experiment)
        print(f"  attribution written to {written}")
    if obs.profiler is not None:
        print()
        print(obs.profiler.render())
        if args.profile_out:
            from repro.resilience.atomicio import atomic_write_json

            atomic_write_json(args.profile_out, obs.profiler.to_dict(), indent=1)
            print(f"  profile written to {args.profile_out}")


def _run_one(
    name: str,
    engine: Optional[str],
    quick: bool,
    plot: bool = False,
    csv_path: Optional[str] = None,
    obs=None,
    chaos: Optional[dict] = None,
    workers: int = 1,
    cache=None,
) -> bool:
    accepted = _accepted_kwargs(name)
    kwargs = _engine_kwargs(name, engine, accepted)
    if quick and "quick" in accepted:
        kwargs["quick"] = quick
    if obs is not None:
        if "obs" in accepted:
            kwargs["obs"] = obs
        else:
            print(f"  (note: {name} does not support observability; flags ignored)")
    for key, value in (chaos or {}).items():
        if value is None or value is False:
            continue
        if key in accepted:
            kwargs[key] = value
        else:
            print(f"  (note: {name} does not support --{key}; flag ignored)")
    if workers != 1:
        if "workers" in accepted:
            kwargs["workers"] = workers
        else:
            print(f"  (note: {name} does not support --workers; flag ignored)")
    if cache is not None:
        if "cache" in accepted:
            kwargs["cache"] = cache
        else:
            print(f"  (note: {name} does not support --cache; flag ignored)")
    result = run_experiment(name, **kwargs)
    print(result.render())
    print()
    if plot:
        _plot(result)
    if csv_path:
        from repro.analysis.export import write_result_csv

        written = write_result_csv(result, csv_path)
        print(f"  rows written to {written}")
    return result.passed


def _parse_percentiles(spec: Optional[str]) -> Optional[list]:
    """``"50,95,99.9"`` -> ``[50.0, 95.0, 99.9]`` (None passes through)."""
    if spec is None:
        return None
    try:
        pcts = [float(p) for p in spec.split(",") if p.strip()]
    except ValueError:
        raise SystemExit(f"error: bad --percentiles {spec!r} (want e.g. 50,95,99)")
    if not pcts or not all(0.0 <= p <= 100.0 for p in pcts):
        raise SystemExit(f"error: bad --percentiles {spec!r} (values must be in [0, 100])")
    return pcts


def _obs_report(args) -> int:
    """`repro obs report`: validate artifacts and render the summary."""
    from repro.obs import load_metrics_jsonl, load_trace, render_report
    from repro.obs.report import decomposition_check

    try:
        trace = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = summary = None
    if args.metrics:
        try:
            rows, summary = load_metrics_jsonl(args.metrics)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(render_report(trace, rows, summary, percentiles=_parse_percentiles(args.percentiles)))
    _, stage_bad = decomposition_check(trace)
    _, blame_bad = decomposition_check(trace, cat="blame")
    return 1 if (stage_bad or blame_bad) else 0


def _obs_attrib(args) -> int:
    """`repro obs attrib`: render a sidecar's stacked blame decomposition."""
    from repro.obs import load_sidecar, render_attrib

    try:
        sidecar = load_sidecar(args.sidecar)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_attrib(sidecar, width=args.width, top=args.top))
    mismatched = sum(point.get("mismatched", 0) for point in sidecar["points"])
    return 1 if mismatched else 0


def _obs_diff(args) -> int:
    """`repro obs diff`: noise-aware comparison; non-zero on regression."""
    from repro.obs import diff_attrib, load_sidecar

    try:
        a = load_sidecar(args.a)
        b = load_sidecar(args.b)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    diff = diff_attrib(a, b, rel_tol=args.rel_tol, abs_tol_us=args.abs_tol_us)
    print(diff.render())
    return 1 if diff.regressed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit status."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name, description in list_experiments():
            print(f"{name:<20s} {description}")
        return 0
    if args.command == "run":
        obs = _build_obs(args)
        cache = _build_cache(args)
        chaos = {
            "loss": args.loss,
            "retries": args.retries,
            "degraded": args.degraded,
        }
        passed = _run_one(
            args.experiment,
            args.engine,
            args.quick,
            args.plot,
            args.csv,
            obs=obs,
            chaos=chaos,
            workers=args.workers,
            cache=cache,
        )
        _report_cache(cache)
        if obs is not None:
            _write_obs_artifacts(obs, args)
        return 0 if passed else 1
    if args.command == "obs":
        if args.obs_command == "attrib":
            return _obs_attrib(args)
        if args.obs_command == "diff":
            return _obs_diff(args)
        return _obs_report(args)
    if args.command == "cache":
        return _cache_command(args)
    if args.command == "lint":
        from repro.tools.simlint.cli import run_lint

        return run_lint(args)
    if args.command == "summary":
        from repro.experiments.summary import render_summary

        text, ok = render_summary()
        print(text)
        return 0 if ok else 1
    # all: fan whole experiments (figures and ablations alike) over the
    # sweep executor — each is one independent point.
    cache = _build_cache(args)
    names = [name for name, _ in list_experiments()]
    per_experiment = {}
    for name in names:
        accepted = _accepted_kwargs(name)
        kwargs = _engine_kwargs(name, args.engine, accepted)
        if args.quick and "quick" in accepted:
            kwargs["quick"] = True
        per_experiment[name] = kwargs
    results = run_many(
        names, per_experiment=per_experiment, workers=args.workers, cache=cache
    )
    ok = True
    for result in results:
        print(result.render())
        print()
        ok = result.passed and ok
    _report_cache(cache)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
