"""Packet-drop taxonomy.

Every drop in the simulator is tagged with a :class:`DropReason` so that
loss can be *attributed*, not just counted.  Before this enum existed each
call site passed a freeform string and :meth:`Node.drop` string-matched a
few of them — a typo silently landed in ``dropped_other`` and queue/AQM
drops were invisible outside ``ClassStats``.  The taxonomy is the contract
between the data plane (which produces drops), the TraceBus (which carries
them), and the observability layer (``repro.obs``), whose flight recorder
and metrics registry key on ``reason.value``.

Reasons are grouped into coarse *categories* (``"no_route"``, ``"ttl"``,
``"queue"``, ``"other"``) used by the legacy :class:`~repro.net.node.NodeStats`
counters; the full per-reason breakdown lives in ``NodeStats.by_reason``.
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
    QUEUE_TAIL = "queue_tail"              # buffer full (packet/byte cap)
    QUEUE_AQM = "queue_aqm"                # RED/WRED early drop
    CONDITIONER = "conditioner"            # policer / meter red action
    # -- IPsec -----------------------------------------------------------
    SA_PENDING = "sa_pending"              # IKE not yet established
    NO_SA = "no_sa"                        # no security association
    # -- catch-all -------------------------------------------------------
    OTHER = "other"

    @property
    def category(self) -> str:
        """Coarse bucket for the legacy ``NodeStats`` counters."""
        return _CATEGORY[self]

    @classmethod
    def parse(cls, reason: "DropReason | str") -> "DropReason":
        """Coerce a legacy string (or an enum member) into the taxonomy.

        Unknown strings map to :attr:`OTHER` — the old behaviour, but now
        the unknown string is still preserved verbatim on the trace record
        by the caller, so a typo is visible instead of silent.
        """
        if isinstance(reason, cls):
            return reason
        try:
            return cls(reason)
        except ValueError:
            return cls.OTHER


# NO_TUNNEL / NO_VC stay in "other" — that is where the pre-taxonomy string
# matching put them, and experiment baselines read those buckets.
_CATEGORY: dict[DropReason, str] = {
    DropReason.NO_ROUTE: "no_route",
    DropReason.NO_VRF_ROUTE: "no_route",
    DropReason.NO_TUNNEL: "other",
    DropReason.NO_VC: "other",
    DropReason.TTL: "ttl",
    DropReason.QUEUE_TAIL: "queue",
    DropReason.QUEUE_AQM: "queue",
    DropReason.CONDITIONER: "queue",
    DropReason.NO_LABEL: "other",
    DropReason.VPN_LABEL_NO_VRF: "other",
    DropReason.UNKNOWN_VRF: "other",
    DropReason.BAD_LFIB_OP: "other",
    DropReason.LABELED_AT_IP_ROUTER: "other",
    DropReason.LABELED_ON_CIRCUIT: "other",
    DropReason.NO_IFACE: "other",
    DropReason.SA_PENDING: "other",
    DropReason.NO_SA: "other",
    DropReason.OTHER: "other",
}
