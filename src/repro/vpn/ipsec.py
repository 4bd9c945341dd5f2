"""IPsec tunnel-overlay baseline (ESP tunnel mode + IKE cost model).

The second baseline the paper discusses (§2.3/§3): secure site-to-site
tunnels over a plain IP backbone.  Three properties matter for the
experiments and are modeled faithfully; actual cryptography is not (see
DESIGN.md substitutions):

* **Byte overhead** — ESP tunnel mode adds a new outer IPv4 header plus
  SPI/sequence, IV, padding to the cipher block, pad-length/next-header
  trailer, and the integrity check value.  :func:`esp_overhead_bytes`
  computes the exact per-packet cost for a given cipher geometry
  (defaults: 3DES-era 8-byte blocks + HMAC-96, selectable AES-style
  16/16).
* **CPU cost** — encrypt/decrypt time scales with packet bytes through
  ``ProcessingModel.crypto_bps`` ("performing security functions such as
  encryption ... are processor intensive").
* **Header hiding** — the encapsulated packet is ``encrypted=True``; inner
  DSCP/ports are invisible to every interior classifier.  Whether the
  gateway copies the inner DSCP to the outer header (RFC 2983 uniform
  model) is per-SA: with ``copy_dscp=False`` the backbone sees one
  featureless aggregate and QoS is erased — claim C3's exact mechanism.

IKE is modeled as a message-count + latency budget: IKEv1 main mode (6
messages) + quick mode (3 messages) at one RTT per round trip, after which
the SA is usable; packets arriving earlier are dropped and counted (the
real-world behaviour of most implementations before buffering tricks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.address import IPv4Address, Prefix
from repro.net.drops import DropReason
from repro.net.packet import IPHeader, Packet
from repro.routing.router import Router

__all__ = [
    "esp_overhead_bytes",
    "IKEV1_HANDSHAKE_MESSAGES",
    "SecurityAssociation",
    "IpsecGateway",
]

#: IKEv1: 6 main-mode + 3 quick-mode messages.
IKEV1_HANDSHAKE_MESSAGES = 9


def esp_overhead_bytes(
    inner_bytes: int, block: int = 8, iv: int = 8, icv: int = 12
) -> int:
    """ESP tunnel-mode overhead beyond the inner packet and outer IP header.

    SPI+sequence (8) + IV + padding to ``block`` + pad-length/next-header
    trailer (2) + ICV.  Defaults model 3DES-CBC/HMAC-SHA1-96; pass
    ``block=16, iv=16`` for AES-CBC.
    """
    if inner_bytes < 0:
        raise ValueError("inner_bytes must be non-negative")
    pad = (block - ((inner_bytes + 2) % block)) % block
    return 8 + iv + pad + 2 + icv


@dataclass
class SecurityAssociation:
    """One tunnel-mode SA pair (we model the bidirectional bundle)."""

    peer: IPv4Address
    copy_dscp: bool = False
    block: int = 8
    iv: int = 8
    icv: int = 12
    established_at: float = 0.0     # SA usable from this sim time
    ike_messages: int = 0
    encapsulated: int = 0
    decapsulated: int = 0
    dropped_pending: int = 0


class IpsecGateway(Router):
    """Site security gateway: SPD + SAs + ESP encap/decap.

    The gateway is an ordinary router for non-matching traffic; traffic to
    a protected remote prefix is encapsulated toward the peer gateway.
    Crypto CPU cost comes from ``self.processing.crypto_bps``.
    """

    def __init__(self, sim, name, **kw) -> None:
        super().__init__(sim, name, **kw)
        # Security policy database: ordered (selector prefix, peer addr).
        self.spd: list[tuple[Prefix, IPv4Address]] = []
        self.sas: dict[IPv4Address, SecurityAssociation] = {}

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def add_policy(self, dst_prefix: Prefix | str, peer: IPv4Address | str) -> None:
        """Protect traffic to ``dst_prefix`` via the SA with ``peer``."""
        self.spd.append(
            (
                Prefix.parse(dst_prefix) if isinstance(dst_prefix, str) else dst_prefix,
                IPv4Address.parse(peer),
            )
        )

    def establish_sa(
        self,
        peer: IPv4Address | str,
        rtt_s: float = 0.0,
        copy_dscp: bool = False,
        block: int = 8,
        iv: int = 8,
        icv: int = 12,
    ) -> SecurityAssociation:
        """Run (a cost model of) IKE with ``peer``.

        The SA becomes usable after the 9-message handshake completes:
        4.5 RTTs from now.  Message counts go to the network counters via
        the SA record (summed by the harness).
        """
        addr = IPv4Address.parse(peer)
        sa = SecurityAssociation(
            peer=addr,
            copy_dscp=copy_dscp,
            block=block,
            iv=iv,
            icv=icv,
            established_at=self.sim.now + (IKEV1_HANDSHAKE_MESSAGES / 2.0) * rtt_s,
            ike_messages=IKEV1_HANDSHAKE_MESSAGES,
        )
        self.sas[addr] = sa
        return sa

    def _policy_for(self, dst: IPv4Address) -> Optional[IPv4Address]:
        for prefix, peer in self.spd:
            if prefix.contains(dst):
                return peer
        return None

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def handle(self, pkt: Packet, ifname: str) -> None:
        if self.owns(pkt.ip.dst):
            if pkt.encrypted and pkt.inner is not None:
                self._decapsulate(pkt)
            else:
                self.deliver_local(pkt)
            return
        peer = None if pkt.encrypted else self._policy_for(pkt.ip.dst)
        if peer is not None:
            self._encapsulate(pkt, peer)
            return
        super().handle(pkt, ifname)

    def _encapsulate(self, pkt: Packet, peer: IPv4Address) -> None:
        sa = self.sas.get(peer)
        if sa is None or self.sim.now < sa.established_at:
            if sa is not None:
                sa.dropped_pending += 1
            self.drop(pkt, DropReason.SA_PENDING)
            return
        overhead = esp_overhead_bytes(pkt.wire_bytes, sa.block, sa.iv, sa.icv)
        outer_dscp = pkt.ip.dscp if sa.copy_dscp else 0
        assert self.loopback is not None, "IPsec gateway needs a loopback"
        outer = Packet(
            ip=IPHeader(
                src=self.loopback, dst=peer, dscp=outer_dscp, proto="esp"
            ),
            inner=pkt,
            encrypted=True,
            encap_overhead=overhead,
            flow=pkt.flow,
            seq=pkt.seq,
            created=pkt.created,
        )
        sa.encapsulated += 1
        cost = self.processing.crypto_time(outer.wire_bytes)
        self.after_processing(cost, self._forward_outer, outer)

    def _forward_outer(self, pkt: Packet) -> None:
        entry = self.fib.lookup(pkt.ip.dst)
        if entry is None:
            self.drop(pkt, DropReason.NO_ROUTE)
            return
        self.dispatch(pkt, entry)

    def _decapsulate(self, pkt: Packet) -> None:
        sa = self.sas.get(pkt.ip.src)
        if sa is None:
            self.drop(pkt, DropReason.NO_SA)
            return
        sa.decapsulated += 1
        cost = self.processing.crypto_time(pkt.wire_bytes)
        inner = pkt.inner
        assert inner is not None
        self.after_processing(cost, self._forward_inner, inner)

    def _forward_inner(self, pkt: Packet) -> None:
        if self.owns(pkt.ip.dst):
            self.deliver_local(pkt)
            return
        entry = self.fib.lookup(pkt.ip.dst)
        if entry is None:
            self.drop(pkt, DropReason.NO_ROUTE)
            return
        self.dispatch(pkt, entry)

    # ------------------------------------------------------------------
    def total_ike_messages(self) -> int:
        return sum(sa.ike_messages for sa in self.sas.values())
