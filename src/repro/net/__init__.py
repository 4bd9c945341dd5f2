"""Network substrate: addresses, packets, links, nodes."""

from repro.net.address import AddressError, IPv4Address, Prefix
from repro.net.link import Interface, Link
from repro.net.node import Host, Node, NodeStats, ProcessingModel
from repro.net.packet import (
    IPV4_HEADER_BYTES,
    MPLS_SHIM_BYTES,
    IPHeader,
    MplsEntry,
    Packet,
    PacketError,
)

__all__ = [
    "AddressError", "IPv4Address", "Prefix",
    "Interface", "Link",
    "Host", "Node", "NodeStats", "ProcessingModel",
    "IPV4_HEADER_BYTES", "MPLS_SHIM_BYTES",
    "IPHeader", "MplsEntry", "Packet", "PacketError",
]
