"""Exception hierarchy for the repro package."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "ProcessKilled",
    "ConfigError",
    "AddressError",
    "TranslationFault",
    "LinkDetectionTimeout",
    "AttachError",
    "AllocationError",
    "ProtocolError",
    "ChecksumError",
    "LinkCorruption",
    "RetryExhausted",
    "HostCrash",
    "OverloadError",
    "DeadlineExceeded",
    "RetryBudgetExhausted",
    "OverloadShed",
    "CircuitOpen",
    "WorkloadError",
    "ExperimentError",
    "CheckpointError",
]


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """The discrete-event kernel reached an inconsistent state."""


class ProcessKilled(ReproError):
    """Raised inside a simulated process that has been killed/interrupted."""


class ConfigError(ReproError, ValueError):
    """Invalid configuration value."""


class AddressError(ReproError, ValueError):
    """Address outside any mapped region."""


class TranslationFault(AddressError):
    """Borrower address has no mapping at the lender (NIC translation miss)."""


class LinkDetectionTimeout(ReproError):
    """The FPGA/link was not detected within the detection timeout.

    Mirrors the paper's observation that at ``PERIOD = 10000`` the
    ThymesisFlow compute-side FPGA "is no longer detected due to timeout
    and the disaggregated memory cannot be attached" (section IV-C).
    """


class AttachError(ReproError):
    """Remote memory hotplug/attach failed."""


class AllocationError(ReproError):
    """Control plane could not satisfy a reservation request."""


class ProtocolError(ReproError):
    """Malformed packet or AXI-stream protocol violation."""


class ChecksumError(ProtocolError):
    """Packet integrity check failed."""


class LinkCorruption(ProtocolError):
    """A packet was corrupted in flight (bit error on the wire).

    Raised at NIC ingress when integrity verification (header CRC or
    payload check) rejects a delivered packet; the reliable transport
    converts it into a NACK + retransmission instead of silent delivery.
    """


class RetryExhausted(ProtocolError):
    """The reliable transport gave up on a packet.

    The retransmission budget (``TransportConfig.max_retries``) was
    spent without an acknowledged delivery.  The borrower turns this
    into a :class:`HostCrash` (default) or a
    degraded-mode switchover when ``degraded_mode`` is enabled.

    ``attempts`` carries the per-attempt timing history — a tuple of
    ``(attempt, at_ps, cause)`` triples with ``cause`` one of
    ``"timeout"`` / ``"nack"`` — and ``gave_up_at`` the simulated time
    the sender stopped trying, so the metastable experiment and
    ``repro obs attrib`` can explain each give-up.
    """

    def __init__(self, message: str, attempts=(), gave_up_at=None) -> None:
        super().__init__(message)
        self.attempts = tuple(attempts)
        self.gave_up_at = gave_up_at


class HostCrash(ReproError):
    """The borrower host checkstopped on a dead remote window.

    Models the paper's crash mode: on POWER9/OpenCAPI a sufficiently
    long unanswered memory operation surfaces as a checkstop/machine
    check rather than an error return.
    """


class OverloadError(ProtocolError):
    """A transaction was failed fast by the overload-control layer.

    Subclasses identify which protection fired; ``blame_resource``
    names the resource blame rows are charged to (``overload.*``), so
    attribution sidecars show where fail-fast time went.  Like
    :class:`RetryExhausted`, ``attempts`` records the per-attempt
    history accumulated before the give-up.
    """

    blame_resource = "overload.control"

    def __init__(self, message: str, attempts=(), gave_up_at=None) -> None:
        super().__init__(message)
        self.attempts = tuple(attempts)
        self.gave_up_at = gave_up_at
        self.attempt_start = None  # blame envelope start, set by the sender


class DeadlineExceeded(OverloadError):
    """The transaction's absolute deadline expired before completion.

    Raised before queueing doomed work: each hop and retransmission
    checks the remaining budget and fails fast instead of consuming
    gate/link capacity on a response nobody will wait for.
    """

    blame_resource = "overload.deadline"


class RetryBudgetExhausted(OverloadError):
    """The per-(borrower, lender) retry budget is empty.

    Retransmissions are capped at a configured ratio of first-attempt
    traffic (token bucket); when the bucket runs dry the transaction
    fails fast rather than amplifying a retry storm.
    """

    blame_resource = "overload.retry_budget"


class OverloadShed(OverloadError):
    """Admission control shed the transaction (load shedding).

    The NIC gate or the lender memory bus judged its backlog beyond
    the policy's sojourn/depth target and rejected the work instead of
    queueing it.
    """

    blame_resource = "overload.shed"


class CircuitOpen(OverloadError):
    """The per-lender circuit breaker is open; the lender is not tried.

    Fail-fast at issue: no window slot, no gate grant, no wire traffic
    until the breaker's deterministic probe schedule half-opens it.
    """

    blame_resource = "overload.breaker"


class WorkloadError(ReproError):
    """Workload configuration or execution failure."""


class ExperimentError(ReproError):
    """Experiment harness failure (unknown experiment, bad sweep, ...)."""


class CheckpointError(ReproError):
    """Checkpoint/restore failure (unsnapshotable state, bad file, ...).

    Raised when a :meth:`~repro.sim.core.Simulator.snapshot` cannot
    capture the live state (e.g. an event callback that does not
    pickle, such as a generator-based process mid-execution), or when a
    checkpoint file fails its version/integrity validation on restore.
    """
