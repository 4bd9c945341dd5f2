"""RSVP-style admission control, written once.

A reservation holds bandwidth on every directed link of its path.  The
ledger here is that state for one speaker — :class:`repro.mpls.te.
TrafficEngineering` books explicit-route LSPs in one, :class:`repro.qos.
intserv.IntServ` per-flow reservations in another — and the one rule both
follow: check every hop, then book every hop, so a refusal leaves nothing
behind.  A link is the one the domain view holds for the pair (live,
lowest metric among parallels): the link the reservation's packets use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (topology -> routing)
    from repro.topology import Network

__all__ = ["AdmissionError", "ReservationLedger"]


class AdmissionError(RuntimeError):
    """A reservation was refused: a hop of its path is not a live link of
    the domain, or lacks reservable bandwidth."""


class ReservationLedger:
    """Reservable bandwidth per directed link of one routing domain.

    ``subscription`` is the fraction of each link's rate that is
    reservable (1.0 = the full line rate; >1 models oversubscription);
    ``reserved`` maps ``(from_name, to_name)`` to the bits per second booked.
    """

    def __init__(self, net: "Network", domain: str = "core", subscription: float = 1.0) -> None:
        self.net = net
        self.domain = domain
        self.subscription = subscription
        self.reserved: dict[tuple[str, str], float] = {}

    def capacity(self, u: str, v: str) -> float:
        """Reservable bandwidth of the directed link u→v when empty: the
        rate of u's transmitter toward v, as it is now."""
        edge = self.net.domain_view(self.domain).edge(u, v)
        if edge is None:
            raise KeyError(f"no live link {u}->{v} in domain {self.domain!r}")
        return self.net.nodes[u].interfaces[edge[1]].rate_bps * self.subscription

    def residual(self, u: str, v: str) -> float:
        """Reservable bandwidth remaining on the directed link u→v."""
        return self.capacity(u, v) - self.reserved.get((u, v), 0.0)

    def admit(self, who: str, path: Sequence[str], bandwidth_bps: float) -> None:
        """Book ``bandwidth_bps`` on every hop of ``path``, or raise
        :class:`AdmissionError` (message starting with ``who``) with
        nothing booked."""
        hops = list(zip(path, path[1:]))
        for u, v in hops:
            try:
                residual = self.residual(u, v)
            except KeyError as exc:
                raise AdmissionError(f"{who}: {exc.args[0]}") from None
            if residual < bandwidth_bps:
                raise AdmissionError(
                    f"{who}: link {u}->{v} has {residual:.0f}bps < {bandwidth_bps:.0f}bps"
                )
        for hop in hops:
            self.reserved[hop] = self.reserved.get(hop, 0.0) + bandwidth_bps

    def release(self, path: Sequence[str], bandwidth_bps: float) -> None:
        """Give back what :meth:`admit` booked for ``path``."""
        for hop in zip(path, path[1:]):
            self.reserved[hop] -= bandwidth_bps
