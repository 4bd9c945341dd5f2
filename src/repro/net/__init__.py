"""Network substrate: addresses, packets, links, nodes."""

from repro._exports import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "address": ("AddressError", "IPv4Address", "Prefix"),
    "link": ("Interface", "Link"),
    "node": ("Host", "Node", "NodeStats", "ProcessingModel"),
    "packet": (
        "IPV4_HEADER_BYTES", "MPLS_SHIM_BYTES", "IPHeader", "MplsEntry", "Packet", "PacketError",
    ),
})
