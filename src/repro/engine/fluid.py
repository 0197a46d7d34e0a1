"""Fluid (analytic) engine: closed-form bottleneck and Little's-law solver.

For a phase of ``n`` line transactions with concurrency ``C``, unloaded
round-trip latency ``L0``, per-transaction serial think time ``z`` and
per-transaction bottleneck interval ``b`` (the slowest of: injector
gate, link direction, memory-bus share), the phase time is::

    T(phase) = compute + L0 + (n - 1) * max(b, (L0 + z) / C) + n * z

which reduces to the familiar limits: latency-bound ``n*(L0+z)/C`` for
large ``n`` with a fast gate, gate-bound ``n*b`` when the injector
dominates, and ``L0 + (n-1)*b`` for a small burst.  Steady-state
sojourn follows Little's law, ``T_sojourn = C_eff * max(b, (L0+z)/C)``,
which is what yields the paper's constant bandwidth-delay product.

Borrower-side contention (Fig. 6) gives each of N identical remote
flows an equal share of the gate and link
(:meth:`FluidEngine.contended_remote_engines`), the fluid counterpart
of the DES engine's FIFO interleaving; :func:`solve_max_min_shares` is
the general max-min fair allocation across flows.

All sweep APIs accept NumPy arrays of PERIOD values and evaluate
vectorized, per the project's HPC style guides.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from repro.config import ClusterConfig
from repro.engine.model import PathModel
from repro.engine.phases import AccessPhase, Location, PhaseProgram
from repro.errors import ConfigError
from repro.units import Duration

__all__ = [
    "FlowSpec",
    "solve_max_min_shares",
    "FluidEngine",
    "FluidRun",
]


@dataclass(frozen=True)
class FlowSpec:
    """One traffic flow competing for shared resources.

    Attributes
    ----------
    name:
        Flow identifier.
    demand:
        Offered rate in lines/s (the rate the flow would sustain with
        no contention).
    resources:
        Names of the shared resources the flow crosses.
    """

    name: str
    demand: float
    resources: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.demand < 0:
            raise ConfigError(f"flow demand must be >= 0, got {self.demand}")
        if not self.resources:
            raise ConfigError(f"flow {self.name!r} must cross at least one resource")


def solve_max_min_shares(
    flows: Sequence[FlowSpec], capacities: Mapping[str, float]
) -> Dict[str, float]:
    """Max-min fair allocation of resource capacity to flows.

    Classic progressive water-filling: repeatedly find the most
    constrained resource, give every unfrozen flow crossing it an equal
    share of its remaining capacity (never more than the flow's
    demand), freeze those flows, and subtract.  Demand-limited flows
    freeze at their demand first.

    Returns ``{flow name: allocated rate}``.
    """
    for flow in flows:
        for res in flow.resources:
            if res not in capacities:
                raise ConfigError(f"flow {flow.name!r} crosses unknown resource {res!r}")
    remaining = {r: float(c) for r, c in capacities.items()}
    alloc: Dict[str, float] = {}
    active = {f.name: f for f in flows}

    while active:
        # Fair share offered by each resource to its unfrozen flows.
        crossing: Dict[str, list[str]] = {}
        for name, flow in active.items():
            for res in flow.resources:
                crossing.setdefault(res, []).append(name)
        shares = {
            res: remaining[res] / len(names) for res, names in crossing.items()
        }
        # Each flow's candidate rate: min share over its resources,
        # capped by its demand.
        candidate = {
            name: min(
                min(shares[res] for res in flow.resources), flow.demand
            )
            for name, flow in active.items()
        }
        # Freeze the flow(s) with the smallest candidate — either
        # demand-limited or pinned by the tightest resource.
        floor = min(candidate.values())
        frozen = [name for name, rate in candidate.items() if rate <= floor + 1e-12]
        for name in frozen:
            flow = active.pop(name)
            rate = candidate[name]
            alloc[name] = rate
            for res in flow.resources:
                remaining[res] = max(0.0, remaining[res] - rate)
    return alloc


@dataclass(frozen=True)
class FluidRun:
    """Result of evaluating a program under the fluid engine."""

    program_name: str
    duration_ps: float
    remote_lines: int
    payload_bytes: float
    mean_sojourn_ps: float

    @property
    def bandwidth_bytes_per_s(self) -> float:
        """Payload bandwidth over the run."""
        if self.duration_ps <= 0:
            return 0.0
        return self.payload_bytes * 1e12 / self.duration_ps


class FluidEngine:
    """Analytic evaluation of phase programs against a configuration.

    Parameters
    ----------
    config:
        Testbed configuration; PERIOD sweeps re-derive the model via
        :meth:`with_period`.
    remote_share:
        Fraction (0, 1] of gate/link capacity available to this flow —
        used to model contention computed by
        :func:`solve_max_min_shares`.
    lender_bus_share:
        Fraction of the lender memory bus available to this flow.
    """

    def __init__(
        self,
        config: ClusterConfig,
        remote_share: float = 1.0,
        lender_bus_share: float = 1.0,
    ) -> None:
        if not 0 < remote_share <= 1 or not 0 < lender_bus_share <= 1:
            raise ConfigError("shares must be in (0, 1]")
        self.config = config
        self.model = PathModel.from_config(config)
        self.remote_share = remote_share
        self.lender_bus_share = lender_bus_share

    def with_period(self, period: int) -> "FluidEngine":
        """Same engine at a different injection PERIOD."""
        return FluidEngine(
            self.config.with_period(period),
            remote_share=self.remote_share,
            lender_bus_share=self.lender_bus_share,
        )

    # ------------------------------------------------------------------
    # Per-phase evaluation
    # ------------------------------------------------------------------
    def _remote_interval(self, write_fraction: float) -> float:
        m = self.model
        link = m.link_interval(write_fraction) / self.remote_share
        gate = m.gate_interval / self.remote_share
        bus = m.bus_interval / self.lender_bus_share
        return max(gate, link, bus)

    def phase_sojourn_ps(self, phase: AccessPhase) -> float:
        """Steady-state per-transaction sojourn during *phase*."""
        m = self.model
        if phase.location is Location.REMOTE:
            base, interval = m.base_latency, self._remote_interval(phase.write_fraction)
        else:
            base, interval = m.local_latency, m.local_bus_interval
        c_eff = min(phase.concurrency, m.window)
        z = phase.compute_ps_per_line
        per_txn = max(interval, (base + z) / c_eff)
        if phase.n_lines < c_eff:
            return float(base)
        return float(c_eff * per_txn)

    def phase_duration_ps(self, phase: AccessPhase) -> float:
        """Completion time of one phase (all repeats)."""
        m = self.model
        if phase.n_lines == 0:
            return float((phase.compute_ps) * phase.repeats)
        if phase.location is Location.REMOTE:
            base, interval = m.base_latency, self._remote_interval(phase.write_fraction)
        else:
            base, interval = m.local_latency, m.local_bus_interval
        c_eff = min(phase.concurrency, m.window)
        z = phase.compute_ps_per_line
        per_txn = max(interval, (base + z) / c_eff)
        one = phase.compute_ps + base + (phase.n_lines - 1) * per_txn + z
        return float(one * phase.repeats)

    # ------------------------------------------------------------------
    # Program evaluation
    # ------------------------------------------------------------------
    def run(self, program: PhaseProgram) -> FluidRun:
        """Evaluate a whole program; returns aggregate timing/bandwidth."""
        total = 0.0
        payload = 0.0
        weighted_sojourn = 0.0
        remote_lines = 0
        line = self.model.line_bytes
        for phase in program:
            total += self.phase_duration_ps(phase)
            payload += phase.total_lines * line
            if phase.location is Location.REMOTE:
                remote_lines += phase.total_lines
            weighted_sojourn += self.phase_sojourn_ps(phase) * phase.total_lines
        lines = max(1, program.total_lines)
        return FluidRun(
            program_name=program.name,
            duration_ps=total,
            remote_lines=remote_lines,
            payload_bytes=payload,
            mean_sojourn_ps=weighted_sojourn / lines,
        )

    # ------------------------------------------------------------------
    # Vectorized sweeps
    # ------------------------------------------------------------------
    def sweep_remote_steady_state(
        self,
        periods: Iterable[int],
        concurrency: int,
        write_fraction: float = 0.0,
        think_ps: Duration = 0,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sojourn/bandwidth/BDP across a PERIOD sweep, vectorized.

        Returns ``(sojourn_ps, bandwidth_bytes_per_s, bdp_bytes)``
        arrays aligned with *periods* — the quantities of the paper's
        Figures 2 and 3.
        """
        m = self.model
        periods_arr = np.asarray(list(periods), dtype=np.int64)
        if (periods_arr < 1).any():
            raise ConfigError("PERIOD values must be >= 1")
        t_cyc = self.config.borrower.nic.fpga.clock_period
        gate = periods_arr.astype(np.float64) * t_cyc / self.remote_share
        link = m.link_interval(write_fraction) / self.remote_share
        bus = m.bus_interval / self.lender_bus_share
        interval = np.maximum(gate, max(link, bus))
        c_eff = min(concurrency, m.window)
        per_txn = np.maximum(interval, (m.base_latency + think_ps) / c_eff)
        sojourn = c_eff * per_txn
        bandwidth = m.line_bytes * 1e12 / per_txn
        bdp = bandwidth * sojourn / 1e12
        return sojourn, bandwidth, bdp

    # ------------------------------------------------------------------
    # Contention helper (Fig. 6)
    # ------------------------------------------------------------------
    def contended_remote_engines(self, n_borrower_flows: int) -> "FluidEngine":
        """Engine view for one of N identical remote flows (MCBN)."""
        if n_borrower_flows < 1:
            raise ConfigError("need at least one flow")
        return FluidEngine(
            self.config,
            remote_share=self.remote_share / n_borrower_flows,
            lender_bus_share=self.lender_bus_share,
        )


def scaled_phase(phase: AccessPhase, factor: float) -> AccessPhase:
    """Utility: a copy of *phase* with line count scaled by *factor*."""
    return replace(phase, n_lines=max(1, round(phase.n_lines * factor)))
