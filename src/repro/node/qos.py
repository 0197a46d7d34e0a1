"""QoS gate stage: priority arbitration at the delay gate.

:class:`PriorityGate` is a ``gate`` stage for
:class:`~repro.node.cluster.ThymesisFlowSystem`.  It swaps the vanilla
FIFO injector admission for the
:class:`~repro.nic.qos_gate.PriorityGateServer`, so latency-sensitive
transactions overtake waiting bulk traffic at every grant opportunity —
the "network packet prioritization" mechanism the paper's section IV-D
insight calls for.  The grant grid itself is unchanged: QoS reorders
*who* gets each opportunity, it does not create capacity.
"""

from __future__ import annotations

from typing import Generator

from repro.nic.mux import TrafficClass
from repro.nic.qos_gate import PriorityGateServer
from repro.sim import Timeout
from repro.units import Time

__all__ = ["PriorityGate"]


class PriorityGate:
    """Gate stage that arbitrates by traffic class.

    Parameters
    ----------
    admission:
        Optional overload-control policy
        (:class:`repro.core.overload.AdmissionPolicy`); when set, the
        gate sheds lowest-class work first under saturating load.
    """

    def __init__(self, admission=None) -> None:
        self.admission = admission

    def bind(self, system) -> None:
        """Build the gate server on the system's injector grid."""
        self.sim = system.sim
        self.server = PriorityGateServer(
            system.sim,
            interval=system.injector.interval_ps,
            name="nic.qos-gate",
            admission=self.admission,
        )

    def admit(self, valid_at: Time, traffic_class: TrafficClass) -> Generator:
        """Wait for a grant (generator returning the grant time)."""
        # A transaction enters the gate's waiting pool only once it is
        # actually VALID at the injector's input.
        if valid_at > self.sim.now:
            yield Timeout(self.sim, valid_at - self.sim.now)
        grant = yield self.server.request(traffic_class)
        return grant
