"""Network substrate: links, switches, fabrics, latency profiles."""

from repro.net.fabric import Fabric
from repro.net.faults import Delivery, FaultModel, FaultyChannel, GilbertElliott
from repro.net.latency import DatacenterLatencyProfile, named_profile
from repro.net.link import DuplexLink, SimplexChannel
from repro.net.switch import Switch

__all__ = [
    "SimplexChannel",
    "DuplexLink",
    "Delivery",
    "FaultModel",
    "FaultyChannel",
    "GilbertElliott",
    "Switch",
    "Fabric",
    "DatacenterLatencyProfile",
    "named_profile",
]
