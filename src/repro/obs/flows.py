"""NetFlow-style per-VRF/per-class flow accounting at the VPN edge.

The paper's operator-facing promise (§5) is that an MPLS VPN backbone can
"measure, monitor, and meet" per-customer service levels.  This module is
the measuring part: the PE data plane calls :meth:`FlowAccountant.ingress`
when a customer packet enters its VRF and :meth:`FlowAccountant.egress`
when a packet leaves the backbone into a VRF, and the accountant keeps
packet/byte counts keyed by

    (PE node, VRF, direction, traffic class)

where the class is the PHB name derived from the customer DSCP (EF / AF /
BE).  That turns the E1/E7 isolation claims into queryable numbers: bytes
VPN green injected at pe1 in class EF, bytes that came out at pe2, and so
on.  Only edge hops account — core hops see aggregates, exactly as a real
NetFlow deployment at the PE would.
"""

from __future__ import annotations

from typing import Any

from repro.net.packet import Packet
from repro.qos.dscp import CLASS_NAME_OF_DSCP

__all__ = ["FlowAccountant"]


class FlowAccountant:
    """Accumulates per-(pe, vrf, direction, class) packet/byte counts."""

    def __init__(self) -> None:
        # (pe, vrf, direction, class) -> [packets, bytes]
        self._table: dict[tuple[str, str, str, str], list[int]] = {}

    # ------------------------------------------------------------------
    # Producers (called from the PE data plane)
    # ------------------------------------------------------------------
    def _account(self, key: tuple[str, str, str, str], pkt: Packet) -> None:
        try:
            cell = self._table[key]
        except KeyError:
            cell = self._table[key] = [0, 0]
        cell[0] += 1
        cell[1] += pkt._wire or pkt.wire_bytes

    def ingress(self, pe: str, vrf: str, pkt: Packet) -> None:
        """Customer packet entering its VPN at ``pe`` (pre-label wire size)."""
        self._account((pe, vrf, "ingress", CLASS_NAME_OF_DSCP[pkt.ip.dscp]), pkt)

    def egress(self, pe: str, vrf: str, pkt: Packet) -> None:
        """Packet leaving the backbone into ``vrf`` at ``pe``."""
        self._account((pe, vrf, "egress", CLASS_NAME_OF_DSCP[pkt.ip.dscp]), pkt)

    # ------------------------------------------------------------------
    # Consumers
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._table)

    def table(self) -> list[dict[str, Any]]:
        """Sorted row dump for manifests and pretty-printing."""
        rows = []
        for (pe, vrf, direction, cls), (pkts, nbytes) in sorted(
            self._table.items()
        ):
            rows.append(
                {
                    "pe": pe,
                    "vrf": vrf,
                    "direction": direction,
                    "class": cls,
                    "packets": pkts,
                    "bytes": nbytes,
                }
            )
        return rows

    def totals(self, vrf: str, direction: str) -> tuple[int, int]:
        """(packets, bytes) across all PEs and classes for one VRF+direction."""
        pkts = nbytes = 0
        for (p, v, d, c), (n, b) in self._table.items():
            if v == vrf and d == direction:
                pkts += n
                nbytes += b
        return pkts, nbytes
