"""Node and cluster composition: the end-to-end simulated testbed."""

from repro.node.cluster import AccessResult, ThymesisFlowSystem
from repro.node.cpu import MemoryWindow
from repro.node.multipair import BeyondRackDeployment, FabricWire, LenderFailover
from repro.node.node import Node
from repro.node.pool import MemoryPoolFabric, PoolConfig
from repro.node.qos import PriorityGate
from repro.node.reliable import ArqDelivery, ReliableThymesisFlowSystem

__all__ = [
    "MemoryWindow",
    "Node",
    "ThymesisFlowSystem",
    "AccessResult",
    "MemoryPoolFabric",
    "PoolConfig",
    "BeyondRackDeployment",
    "FabricWire",
    "LenderFailover",
    "PriorityGate",
    "ArqDelivery",
    "ReliableThymesisFlowSystem",
]
