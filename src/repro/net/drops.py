"""Packet-drop taxonomy.

Every drop in the simulator is tagged with a :class:`DropReason` so that
loss can be *attributed*, not just counted.  The taxonomy is the contract
between the data plane (which produces drops), the TraceBus (which carries
them), and the observability layer (``repro.obs``), whose flight recorder
and metrics registry key on ``reason.value``.  :meth:`Node.drop` takes a
member, never a string: ``NodeStats.dropped_total`` counts every drop at a
node and ``NodeStats.by_reason`` splits it by ``reason.value``.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["DropReason"]


class DropReason(Enum):
    """Why a packet died.  ``value`` is the stable wire/trace string."""

    # -- routing ---------------------------------------------------------
    NO_ROUTE = "no_route"                  # FIB miss
    NO_VRF_ROUTE = "no_vrf_route"          # VRF table miss at a PE
    NO_TUNNEL = "no_tunnel"                # no LSP toward the remote PE
    NO_VC = "no_vc"                        # overlay: unknown virtual circuit
    # -- lifetime --------------------------------------------------------
    TTL = "ttl"                            # TTL expired in transit
    # -- MPLS ------------------------------------------------------------
    NO_LABEL = "no_label"                  # LFIB miss
    VPN_LABEL_NO_VRF = "vpn_label_no_vrf"  # VPN label on a non-PE LSR
    UNKNOWN_VRF = "unknown_vrf"            # VPN label bound to a missing VRF
    BAD_LFIB_OP = "bad_lfib_op"            # corrupt LFIB entry
    LABELED_AT_IP_ROUTER = "labeled_at_ip_router"  # shim at a plain router
    LABELED_ON_CIRCUIT = "labeled_on_circuit"  # shim from a CE (RFC 4364 §13.1)
    # -- interface / queueing --------------------------------------------
    NO_IFACE = "no_iface"                  # transmit on a missing interface
    LINK_DOWN = "link_down"                # serialized onto / cut by a down link
    QUEUE_TAIL = "queue_tail"              # buffer full (packet/byte cap)
    QUEUE_AQM = "queue_aqm"                # RED/WRED early drop
    CONDITIONER = "conditioner"            # policer / meter red action
    # -- IPsec -----------------------------------------------------------
    SA_PENDING = "sa_pending"              # IKE not yet established
    NO_SA = "no_sa"                        # no security association
    # -- catch-all -------------------------------------------------------
    OTHER = "other"
