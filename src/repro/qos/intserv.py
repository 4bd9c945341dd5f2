"""IntServ / RSVP per-flow reservations — the other road not taken.

§2.2 of the paper: "A number of activities, including work on the
Resource Reservation Protocol (RSVP) have been directed at adding QoS
selectivity, but many carriers and users are uncomfortable with
individually selectable QoS ... users question the size of the
administration task."  This module quantifies that discomfort.

The model implements the Guaranteed-Service essentials:

* a reservation is a 5-tuple filter + a rate, admitted hop by hop along
  the IGP path against per-link reservable bandwidth;
* **every router on the path holds per-flow state** (filter + rate) and
  classifies packets against it — multi-field classification in the core,
  the thing DiffServ's aggregation exists to avoid;
* RSVP is soft state: PATH + RESV per flow per hop at setup, and the same
  pair again every refresh interval, forever.

The E13 experiment counts what this costs as flows grow — per-router
state O(flows) and refresh messages O(flows × hops / 30 s) — against the
DiffServ/MPLS architecture's O(classes) core state, while delivering the
same protection to the reserved flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.net.packet import Packet
from repro.qos.classifier import FlowMatch, exp_classifier
from repro.routing.admission import AdmissionError, ReservationLedger
from repro.routing.spf_core import NoPathError

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology import Network

__all__ = [
    "AdmissionError",
    "RSVP_REFRESH_S",
    "Reservation",
    "IntServ",
    "intserv_classifier",
]

#: RFC 2205 default refresh period.
RSVP_REFRESH_S = 30.0


@dataclass(frozen=True, slots=True)
class Reservation:
    """One admitted per-flow reservation."""

    flow_id: int
    match: FlowMatch
    rate_bps: float
    path: tuple[str, ...]

    @property
    def hops(self) -> int:
        return len(self.path) - 1


class IntServ(ReservationLedger):
    """Per-flow guaranteed-service manager over plain IP routers.

    Routers gain a ``rsvp_flows`` list (installed lazily); the interior
    classifier built by :func:`intserv_classifier` linearly matches
    against it — faithfully expensive, because that *is* the IntServ data
    plane's problem.
    """

    def __init__(self, net: "Network", domain: str = "core", subscription: float = 1.0) -> None:
        super().__init__(net, domain, subscription)
        self.reservations: list[Reservation] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    def reserve(
        self,
        src_router: str,
        dst_router: str,
        match: FlowMatch,
        rate_bps: float,
    ) -> Reservation:
        """Admit one flow along the IGP path; install state at every hop.

        Counts one PATH + one RESV message per hop (``rsvp.*`` counters).
        Raises :class:`AdmissionError` without side effects when there is
        no path or a hop lacks bandwidth.
        """
        flow = f"{src_router} -> {dst_router}"
        view = self.net.domain_view(self.domain)
        try:
            path = [view.names[i] for i in view.route(src_router, dst_router)]
        except NoPathError as exc:
            raise AdmissionError(str(exc)) from None
        if len(path) < 2:
            raise AdmissionError(f"{flow}: a reservation needs at least one hop")
        self.admit(flow, path, rate_bps)

        res = Reservation(self._next_id, match, rate_bps, tuple(path))
        self._next_id += 1
        self.reservations.append(res)
        for name in path:
            node = self.net.nodes[name]
            if not hasattr(node, "rsvp_flows"):
                node.rsvp_flows = []  # type: ignore[attr-defined]
            node.rsvp_flows.append(res)  # type: ignore[attr-defined]
        self.net.counters.incr("rsvp.path_msgs", res.hops)
        self.net.counters.incr("rsvp.resv_msgs", res.hops)
        return res

    # ------------------------------------------------------------------
    # Cost accounting (the §2.2 "administration task")
    # ------------------------------------------------------------------
    def state_per_router(self) -> dict[str, int]:
        """Per-flow entries each router carries."""
        out: dict[str, int] = {}
        for res in self.reservations:
            for name in res.path:
                out[name] = out.get(name, 0) + 1
        return out

    def total_state(self) -> int:
        return sum(self.state_per_router().values())

    def refresh_messages_per_interval(self) -> int:
        """PATH+RESV pairs the soft state costs every RSVP_REFRESH_S."""
        return sum(2 * res.hops for res in self.reservations)


class intserv_classifier:
    """Interior per-flow classifier: reserved flows → class 0, else BE-ish.

    Linear scan over the router's reservation filters — the multi-field
    lookup *every* packet pays at *every* hop under IntServ.  Unreserved
    traffic falls back to the EXP/DSCP classifier.  A class rather than a
    closure, so a network holding one snapshots it.
    """

    __slots__ = ("node",)

    def __init__(self, node) -> None:
        self.node = node

    def __call__(self, pkt: Packet) -> int:
        for res in getattr(self.node, "rsvp_flows", ()):
            if res.match.matches(pkt):
                return 0
        return max(1, exp_classifier(pkt))
