"""DES phase driver: executes phase programs on a live testbed.

One :class:`DesPhaseDriver` instance drives one workload instance.
Several drivers can share a :class:`~repro.node.cluster.ThymesisFlowSystem`
— that is exactly how the contention experiments (MCBN/MCLN) are
built: their transactions interleave through the shared window, gate,
link and memory buses, and the fair division the paper observes
emerges from FIFO service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.engine.phases import AccessPhase, Location, PhaseProgram
from repro.errors import WorkloadError
from repro.node.cluster import ThymesisFlowSystem
from repro.sim import Process, SampleSeries, Signal, Timeout
from repro.units import Time

__all__ = ["InstanceResult", "DesPhaseDriver"]


@dataclass
class InstanceResult:
    """Measurements from one driven workload instance."""

    instance: str
    start_time: Time
    end_time: Time
    lines: int
    payload_bytes: int
    latencies: SampleSeries

    @property
    def duration_ps(self) -> int:
        """Wall (simulated) duration of the instance."""
        return self.end_time - self.start_time

    @property
    def bandwidth_bytes_per_s(self) -> float:
        """Payload bandwidth achieved by this instance."""
        if self.duration_ps <= 0:
            return 0.0
        return self.payload_bytes * 1e12 / self.duration_ps

    @property
    def mean_latency_ps(self) -> float:
        """Mean transaction sojourn observed by this instance."""
        return self.latencies.mean()


class DesPhaseDriver:
    """Drives one :class:`PhaseProgram` through the DES testbed.

    Parameters
    ----------
    system:
        The (attached) testbed.
    program:
        Phases to execute in order.
    instance:
        Label; also salts this instance's address offsets so multiple
        instances touch distinct lines.
    footprint_lines:
        Size of the address window this instance cycles through.
    """

    def __init__(
        self,
        system: ThymesisFlowSystem,
        program: PhaseProgram,
        instance: str = "w0",
        footprint_lines: int = 1 << 16,
        instance_index: int = 0,
        traffic_class=None,
    ) -> None:
        self.system = system
        self.program = program
        self.instance = instance
        self.footprint_lines = footprint_lines
        self.instance_index = instance_index
        self.traffic_class = traffic_class
        self.latencies = SampleSeries(f"{instance}.latency")
        self._lines = 0
        self._proc: Optional[Process] = None
        self.result: Optional[InstanceResult] = None
        if any(phase.location is Location.LENDER_LOCAL for phase in program):
            system.share_lender_bus()

    # ------------------------------------------------------------------
    def start(self) -> Process:
        """Launch the driver process (does not run the simulator)."""
        if self._proc is not None:
            raise WorkloadError(f"driver {self.instance!r} already started")
        self._proc = self.system.sim.process(self._run(), name=self.instance)
        return self._proc

    def run_to_completion(self) -> InstanceResult:
        """Start, run the simulator until this instance finishes."""
        proc = self.start()
        self.system.sim.run()
        if not proc.ok:
            _ = proc.value  # re-raise stored failure
        assert self.result is not None
        return self.result

    # ------------------------------------------------------------------
    def _addr_for(self, phase: AccessPhase, line_index: int) -> int:
        line_bytes = self.system.line_bytes
        slot = line_index % self.footprint_lines
        offset = (self.instance_index * self.footprint_lines + slot) * line_bytes
        if phase.location is Location.REMOTE:
            base = self.system.config.remote_region_base
            return base + offset % self.system.config.remote_region_bytes
        return offset  # local physical addresses start at 0

    def _run(self) -> Generator:
        sim = self.system.sim
        obs = self.system.obs
        pid = getattr(self.system, "_obs_pid", 1) or 1
        start = sim.now
        parked: List[Optional[Signal]] = []  # slot -> what its worker waits on
        for phase in self.program:
            for repeat in range(phase.repeats):
                phase_start = sim.now
                yield from self._run_phase(phase, parked)
                if obs.tracer.enabled:
                    obs.tracer.add_span(
                        f"{self.instance}.{phase.name}",
                        phase_start,
                        sim.now,
                        pid=pid,
                        track=f"workload.{self.instance}",
                        cat="phase",
                        args={"repeat": repeat},
                    )
        for park in parked:
            park.trigger(None)  # type: ignore[union-attr]  # no more phases
        end = sim.now
        self.result = InstanceResult(
            instance=self.instance,
            start_time=start,
            end_time=end,
            lines=self._lines,
            payload_bytes=self._lines * self.system.line_bytes,
            latencies=self.latencies,
        )
        if obs.enabled:
            obs.metrics.count(f"workload.{self.instance}.lines", self._lines)
            obs.tracer.add_instant(
                f"{self.instance}.done",
                end,
                pid=pid,
                cat="workload",
                args={"lines": self._lines},
            )
        return self.result

    def _run_phase(
        self, phase: AccessPhase, parked: List[Optional[Signal]]
    ) -> Generator:
        """Run one phase on ``min(concurrency, n_lines)`` worker slots.

        Workers live for the whole program.  After each phase a slot's
        worker parks on a fresh :class:`Signal`; the next phase wakes the
        parked slots in slot order with a zero-delay trigger — the same
        event a new process's start would be, so the event order is that
        of one process per slot per phase — and starts a process for each
        slot not yet filled.  The phase ends when its last worker finishes.
        """
        sim = self.system.sim
        if phase.compute_ps:
            yield Timeout(sim, phase.compute_ps)
        if phase.n_lines == 0:
            return
        n_workers = min(phase.concurrency, phase.n_lines)
        done = Signal(sim)
        task = (_PhaseWork(phase, n_workers), done)
        for park in parked[:n_workers]:
            sim.schedule(0, park.trigger, task)
        for slot in range(len(parked), n_workers):
            parked.append(None)  # the new worker parks when its phase ends
            sim.process(
                self._worker(slot, task, parked), name=f"{self.instance}.{slot}"
            )
        yield done

    def _worker(
        self, slot: int, task: Optional[tuple], parked: List[Optional[Signal]]
    ) -> Generator:
        sim = self.system.sim
        while task is not None:
            work, done = task
            phase = work.phase
            try:
                while work.next < phase.n_lines:
                    idx = work.next
                    work.next += 1
                    # Bresenham-style deterministic write mixing.
                    work.write_acc += phase.write_fraction
                    write = work.write_acc >= 1.0
                    if write:
                        work.write_acc -= 1.0
                    addr = self._addr_for(phase, idx)
                    if phase.location is Location.REMOTE:
                        result = yield from self.system.remote_access(
                            addr, write=write, traffic_class=self.traffic_class
                        )
                    elif phase.location is Location.LENDER_LOCAL:
                        result = yield from self.system.local_access(
                            self.system.lender, addr, write=write
                        )
                    else:
                        result = yield from self.system.local_access(
                            self.system.borrower, addr, write=write
                        )
                    self.latencies.add(result.latency)
                    self._lines += 1
                    if phase.compute_ps_per_line:
                        yield Timeout(sim, phase.compute_ps_per_line)
            except Exception as err:
                if not done.triggered:
                    done.fail(err)
                raise
            park = parked[slot] = Signal(sim)
            work.running -= 1
            if work.running == 0:
                done.trigger()
            task = yield park


class _PhaseWork:
    """Progress of one phase, shared by the workers running it."""

    __slots__ = ("phase", "next", "write_acc", "running")

    def __init__(self, phase: AccessPhase, running: int) -> None:
        self.phase = phase
        self.next = 0
        self.write_acc = 0.0
        self.running = running


def run_concurrent(
    system: ThymesisFlowSystem,
    programs: List[PhaseProgram],
    footprint_lines: int = 1 << 14,
) -> List[InstanceResult]:
    """Run several programs simultaneously on one testbed.

    Starts one driver per program at the same simulated instant, runs
    the simulator to completion, returns per-instance results in input
    order.  This is the harness primitive behind the contention
    experiments.
    """
    drivers = [
        DesPhaseDriver(
            system,
            prog,
            instance=f"w{idx}",
            footprint_lines=footprint_lines,
            instance_index=idx,
        )
        for idx, prog in enumerate(programs)
    ]
    procs = [d.start() for d in drivers]
    system.sim.run()
    for proc in procs:
        if not proc.ok:
            _ = proc.value
    return [d.result for d in drivers]  # type: ignore[misc]
