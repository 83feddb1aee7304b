"""Network substrate: nodes, switched fabric, packetization, congestion."""

from .congestion import DcqcnState, Switch, SwitchPort
from .fabric import Fabric, Node, build_cluster
from .flow import FluidModel
from .packet import Reassembler, segment
from .transport import PacketModel, TransportModel

__all__ = [
    "DcqcnState",
    "Fabric",
    "FluidModel",
    "Node",
    "PacketModel",
    "Reassembler",
    "Switch",
    "SwitchPort",
    "TransportModel",
    "build_cluster",
    "segment",
]
