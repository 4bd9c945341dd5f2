"""Packets and protocol headers.

A :class:`Packet` models one L3 datagram.  Its wire representation is

    [ MPLS shim * k ] [ IPv4 header ] [ payload ]

where the payload may itself be an encapsulated inner packet (IPsec ESP
tunnel mode, or a plain IP-in-IP overlay circuit).  Encapsulation is modeled
structurally with an ``inner`` reference plus an ``encap_overhead`` byte
count, which is exactly the information the QoS experiments need: byte
overhead on the wire, and *which headers an interior classifier can see*.

Crucially for claim C3 of the paper, an encrypted packet's ``inner`` headers
are flagged unreadable (``encrypted=True``): DiffServ classifiers in the
core then can only act on the *outer* header, which is how IPsec "erases any
hope one may have to control QoS" unless the DSCP was copied out before
encryption.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.net.address import IPv4Address

__all__ = [
    "IPV4_HEADER_BYTES",
    "MPLS_SHIM_BYTES",
    "IPHeader",
    "MplsEntry",
    "Packet",
    "PacketError",
]

IPV4_HEADER_BYTES = 20
MPLS_SHIM_BYTES = 4

_packet_ids = itertools.count()


class PacketError(RuntimeError):
    """Malformed packet operation (pop on empty stack, TTL underflow...)."""


@dataclass(slots=True)
class IPHeader:
    """IPv4 header fields the simulator cares about.

    ``dscp`` is the 6-bit DiffServ codepoint; ``proto`` is a free-form
    protocol tag (``"udp"``, ``"tcp"``, ``"esp"`` ...); ``src_port``/
    ``dst_port`` live here too since the 5-tuple classifier needs them and a
    separate L4 object buys nothing.
    """

    src: IPv4Address
    dst: IPv4Address
    dscp: int = 0
    ttl: int = 64
    proto: str = "udp"
    src_port: int = 0
    dst_port: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.dscp <= 63:
            raise PacketError(f"DSCP out of 6-bit range: {self.dscp}")

    def copy(self) -> "IPHeader":
        return IPHeader(
            self.src, self.dst, self.dscp, self.ttl, self.proto,
            self.src_port, self.dst_port,
        )


@dataclass(slots=True)
class MplsEntry:
    """One MPLS label-stack entry (RFC 3032 shim): label, EXP bits, TTL.

    The bottom-of-stack S bit is implicit — the entry at index 0 of the
    packet's ``mpls_stack`` is the bottom.
    """

    label: int
    exp: int = 0
    ttl: int = 64

    def __post_init__(self) -> None:
        if not 0 <= self.label <= 0xFFFFF:
            raise PacketError(f"label out of 20-bit range: {self.label}")
        if not 0 <= self.exp <= 7:
            raise PacketError(f"EXP out of 3-bit range: {self.exp}")


@dataclass(slots=True)
class Packet:
    """One simulated datagram.

    Attributes
    ----------
    ip:
        The outermost IPv4 header.
    payload_bytes:
        L4 payload size in bytes (not counting any header this object
        models explicitly).
    mpls_stack:
        Label stack; ``mpls_stack[-1]`` is the top entry the next LSR
        examines.  Empty list = unlabeled IP packet.
    flow:
        Opaque flow identifier used by metrics; survives encapsulation via
        ``innermost()``.
    seq:
        Per-flow sequence number assigned by the generator.
    inner:
        Encapsulated packet, if this one is a tunnel envelope.
    encrypted:
        When True, the ``inner`` headers are opaque to classifiers.
    encap_overhead:
        Extra wire bytes the encapsulation adds beyond the inner packet and
        this packet's own IP header (ESP header+IV+pad+ICV, etc.).
    created:
        Simulation time the *original* packet entered the network; copied
        through encapsulation so end-to-end delay is measured correctly.
    """

    ip: IPHeader
    payload_bytes: int = 0
    mpls_stack: list[MplsEntry] = field(default_factory=list)
    flow: Any = None
    seq: int = 0
    inner: Optional["Packet"] = None
    encrypted: bool = False
    encap_overhead: int = 0
    created: float = 0.0
    vc_id: int | None = None
    uid: int = field(default_factory=_packet_ids.__next__)
    hops: int = 0
    # Memoized CRC32 ECMP key (repro.dataplane.flow_hash).  Never
    # invalidated: the 5-tuple is immutable for the packet's lifetime.
    flow_hash_cache: int | None = field(default=None, repr=False, compare=False)
    # Memoized wire size; the label-stack mutators keep it in step by one
    # shim (the only post-construction size changes — payload/encap are
    # set at creation).
    _wire: int | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    @property
    def wire_bytes(self) -> int:
        """Total bytes this packet occupies on a link.

        Memoized: the size only changes on a label push/pop, which moves a
        warm memo by ``MPLS_SHIM_BYTES``.  Queues, shapers, meters and the
        transmitter ask several times per hop and read the memo directly —
        ``pkt._wire or pkt.wire_bytes`` — so a warm memo costs them no
        call.
        """
        w = self._wire
        if w is None:
            w = IPV4_HEADER_BYTES + MPLS_SHIM_BYTES * len(self.mpls_stack)
            inner = self.inner
            if inner is not None:
                w += inner.wire_bytes + self.encap_overhead
            else:
                w += self.payload_bytes + self.encap_overhead
            self._wire = w
        return w

    # ------------------------------------------------------------------
    # MPLS label-stack operations
    # ------------------------------------------------------------------
    @property
    def top_label(self) -> MplsEntry | None:
        """Top-of-stack entry, or None for unlabeled packets."""
        return self.mpls_stack[-1] if self.mpls_stack else None

    def push_label(self, label: int, exp: int = 0, ttl: int | None = None) -> MplsEntry:
        """Push a label; TTL defaults to the header below (RFC 3443 uniform model)."""
        if ttl is None:
            below = self.mpls_stack[-1].ttl if self.mpls_stack else self.ip.ttl
            ttl = below
        entry = MplsEntry(label, exp, ttl)
        self.mpls_stack.append(entry)
        w = self._wire
        if w is not None:
            self._wire = w + MPLS_SHIM_BYTES
        return entry

    def pop_label(self) -> MplsEntry:
        """Pop the top entry, propagating TTL down (uniform model)."""
        if not self.mpls_stack:
            raise PacketError("pop on empty label stack")
        entry = self.mpls_stack.pop()
        w = self._wire
        if w is not None:
            self._wire = w - MPLS_SHIM_BYTES
        if self.mpls_stack:
            self.mpls_stack[-1].ttl = entry.ttl
        else:
            self.ip.ttl = entry.ttl
        return entry

    def decrement_ttl(self) -> int:
        """Decrement the active TTL (top label if present, else IP).

        Returns the new TTL; the caller drops the packet when it hits 0.
        """
        if self.mpls_stack:
            self.mpls_stack[-1].ttl -= 1
            return self.mpls_stack[-1].ttl
        self.ip.ttl -= 1
        return self.ip.ttl

    # ------------------------------------------------------------------
    # Encapsulation
    # ------------------------------------------------------------------
    def innermost(self) -> "Packet":
        """Follow ``inner`` links to the original customer packet."""
        pkt = self
        while pkt.inner is not None:
            pkt = pkt.inner
        return pkt

    def classifiable_dscp(self) -> int:
        """DSCP available to an interior Behaviour-Aggregate classifier."""
        return self.ip.dscp

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lbl = (
            "+".join(str(e.label) for e in reversed(self.mpls_stack))
            if self.mpls_stack
            else "ip"
        )
        return (
            f"<Packet #{self.uid} flow={self.flow} seq={self.seq} {lbl} "
            f"{self.ip.src}->{self.ip.dst} dscp={self.ip.dscp} "
            f"{self.wire_bytes}B>"
        )
