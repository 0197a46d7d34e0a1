"""Resilience assessment: delay stress, link/lender failures, lossy links."""

from repro.core.resilience.assessment import (
    ResiliencePoint,
    ResilienceReport,
    resilience_sweep,
)
from repro.core.resilience.degradation import (
    LossResiliencePoint,
    LossResilienceReport,
    default_loss_ladder,
    loss_resilience_sweep,
)
from repro.core.resilience.failover import (
    CrashBorrowerPolicy,
    EvacuationPolicy,
    EvacuationReplayer,
    FailoverPoint,
    FailoverPolicy,
    FailoverReport,
    GrayFailureDram,
    HealthParams,
    LenderFailureSchedule,
    LenderOutage,
    QuarantinePolicy,
    failover_sweep,
    policy_by_name,
)
from repro.core.resilience.failures import (
    HostCrash,
    LinkBlackout,
    LinkFailureSchedule,
    blackout_survival_sweep,
)

__all__ = [
    "LenderOutage",
    "LenderFailureSchedule",
    "HealthParams",
    "GrayFailureDram",
    "FailoverPolicy",
    "CrashBorrowerPolicy",
    "QuarantinePolicy",
    "EvacuationPolicy",
    "EvacuationReplayer",
    "FailoverPoint",
    "FailoverReport",
    "failover_sweep",
    "policy_by_name",
    "ResiliencePoint",
    "ResilienceReport",
    "resilience_sweep",
    "LinkFailureSchedule",
    "LinkBlackout",
    "HostCrash",
    "blackout_survival_sweep",
    "LossResiliencePoint",
    "LossResilienceReport",
    "default_loss_ladder",
    "loss_resilience_sweep",
]
