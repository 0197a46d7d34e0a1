"""Figure 4: system reliability under heavy (exponential) delay injection.

Paper observations reproduced and checked:
* at PERIOD = 1000 the stack remains functional and STREAM measures
  ~400 us average access time;
* at PERIOD = 10000 (per-transaction delay ~4 ms) the compute-side
  FPGA is no longer detected and the memory cannot be attached.

Chaos extension (``--loss``): instead of sweeping delay, sweep link
*loss* on the reliable-transport testbed
(:func:`repro.core.resilience.loss_resilience_sweep`) and report the
goodput/tail cost of retransmission plus the crash-or-degrade boundary
where the retry budget is beaten.  ``--degraded`` flips what happens
at that boundary (host crash vs local-fallback quarantine); the
boundary's *location* is a transport property and must not move.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.resilience import (
    default_loss_ladder,
    loss_resilience_sweep,
    resilience_sweep,
)
from repro.experiments.base import ExperimentResult
from repro.units import to_microseconds
from repro.workloads.stream import StreamConfig

__all__ = ["run"]

DEFAULT_PERIODS: tuple[int, ...] = (1, 10, 100, 1000, 10_000)

#: Outcome labels of the loss sweep (see repro.core.resilience.degradation).
_OK = "ok"
_CRASHED = "crashed"
_DEGRADED = "degraded"


def run(
    mode: str = "des",
    periods: Sequence[int] = DEFAULT_PERIODS,
    stream: StreamConfig | None = None,
    loss: Optional[float] = None,
    retries: int = 4,
    degraded: bool = False,
    quick: bool = False,
    obs=None,
    workers: int = 1,
    cache=None,
) -> ExperimentResult:
    """Regenerate the Figure 4 stress series (DES only — attach is stateful).

    With ``loss`` set, run the chaos extension instead: a loss-rate
    ladder anchored at *loss* under the given retransmission budget;
    ``workers``/``cache`` fan its levels over the sweep executor.  The
    delay sweep stays serial (a handful of attach attempts).
    """
    del mode  # the resilience path exists only in the DES engine
    if loss is not None:
        return _run_loss(
            loss,
            retries=retries,
            degraded=degraded,
            quick=quick,
            obs=obs,
            workers=workers,
            cache=cache,
        )
    if stream is None and quick:
        stream = StreamConfig(n_elements=1_000)
    report = resilience_sweep(periods=periods, stream=stream)
    rows = []
    for point in report.points:
        rows.append(
            (
                point.period,
                "alive" if point.attached else "FPGA not detected",
                round(point.latency_us, 2) if point.attached else "-",
            )
        )
    by_period = {p.period: p for p in report.points}
    p1000 = by_period.get(1000)
    p10000 = by_period.get(10_000)
    checks = {
        "system alive through PERIOD = 1000": all(
            p.attached for p in report.points if p.period <= 1000
        ),
        "STREAM latency ~400us at PERIOD = 1000": (
            p1000 is not None and p1000.attached and 300 <= p1000.latency_us <= 500
        ),
        "attach fails (detection timeout) at PERIOD = 10000": (
            p10000 is not None and not p10000.attached
        ),
    }
    return ExperimentResult(
        experiment="fig4",
        title="System reliability testing under heavy delay injection",
        columns=("PERIOD", "status", "latency_us"),
        rows=rows,
        checks=checks,
        notes=(
            "Failure mechanism: the attach handshake's per-transaction sojourn "
            "(window x PERIOD x t_cyc = 4 ms at PERIOD=10000) exceeds the "
            "2 ms detection watchdog, as in paper section IV-C."
        ),
    )


def _run_loss(
    loss: float,
    retries: int,
    degraded: bool,
    quick: bool,
    obs=None,
    workers: int = 1,
    cache=None,
) -> ExperimentResult:
    """The ``--loss`` chaos mode: loss ladder on the reliable testbed."""
    ladder = default_loss_ladder(loss)
    if quick:
        # Keep the endpoints (clean reference, requested rate, the two
        # extreme levels) and drop the intermediate decades.
        keep = {0.0, loss, 0.5, 0.9}
        ladder = tuple(level for level in ladder if level in keep)
    report = loss_resilience_sweep(
        ladder,
        retries=retries,
        degraded_mode=degraded,
        n_lines=1_200 if quick else 4_000,
        obs=obs,
        workers=workers,
        cache=cache,
    )
    rows = []
    for p in report.points:
        rows.append(
            (
                p.loss_rate,
                p.outcome,
                round(p.goodput_bytes_per_s / 1e6, 1) if p.survived else "-",
                round(to_microseconds(p.latency_p99_ps), 2)
                if p.latency_p99_ps == p.latency_p99_ps  # not NaN
                else "-",
                p.retransmissions,
                p.exhausted,
                round(to_microseconds(p.switchover_ps), 1)
                if p.switchover_ps is not None
                else "-",
            )
        )
    clean = report.clean_point()
    surviving = [p for p in report.points if p.outcome == _OK]
    goodputs = [p.goodput_bytes_per_s for p in surviving]
    lossy_ok = [p for p in surviving if p.loss_rate > 0]
    checks = {
        "clean reference needs no retransmissions": (
            clean is not None and clean.retransmissions == 0
        ),
        "losses are absorbed by retransmission": (
            not lossy_ok or all(p.retransmissions > 0 for p in lossy_ok)
        ),
        "goodput degrades monotonically with loss": all(
            earlier >= later * 0.99 for earlier, later in zip(goodputs, goodputs[1:])
        ),
        "tail latency inflates under loss": (
            clean is None
            or not lossy_ok
            or max(p.latency_p99_ps for p in lossy_ok) > clean.latency_p99_ps
        ),
    }
    if degraded:
        checks["extreme loss degrades to local fallback (no crash)"] = all(
            p.outcome != _CRASHED for p in report.points
        ) and any(p.outcome == _DEGRADED for p in report.points)
    else:
        checks["extreme loss crashes the borrower"] = any(
            p.outcome == _CRASHED for p in report.points
        )
    boundary = report.failure_boundary()
    return ExperimentResult(
        experiment="fig4",
        title=(
            "Chaos extension: reliability under link loss "
            f"(retries={retries}, {'degrade' if degraded else 'crash'} on exhaustion)"
        ),
        columns=(
            "loss_rate",
            "outcome",
            "goodput_MB_s",
            "p99_us",
            "retx",
            "exhausted",
            "switchover_us",
        ),
        rows=rows,
        checks=checks,
        notes=(
            f"Failure boundary at loss={boundary:g}: with an i.i.d. loss rate p "
            f"the budget of {retries} retransmissions dies with probability "
            f"p^{retries + 1}, so the boundary sits in the extreme-loss regime; "
            "Gilbert-Elliott bursts (FaultConfig.burst) beat the budget at far "
            "lower mean loss.  Toggling --degraded changes the outcome at the "
            "boundary (crash vs quarantine + local fallback), not its location."
        ),
    )
