"""Customer Edge router.

The CE is deliberately boring — that is the *point* of the peer model the
paper advocates: the customer router just points a default route at its PE,
whose VRF holds the site's prefix; it holds no tunnel state, no per-partner
circuits, and knows nothing about other sites' locations (compare the
overlay baseline, where the CE terminates N-1 circuits).

CEs live in the ``customer`` routing domain so their (possibly
overlapping) addresses never enter the provider IGP.
"""

from __future__ import annotations

from repro.net.address import IPv4Address, Prefix
from repro.routing.fib import RouteEntry
from repro.routing.router import Router

__all__ = ["CeRouter"]

DEFAULT_ROUTE = Prefix(0, 0)


class CeRouter(Router):
    """Customer site router: site subnets + a default route to the PE."""

    def __init__(self, sim, name, **kw) -> None:
        super().__init__(sim, name, **kw)
        self.domain = "customer"

    def set_default_route(self, out_ifname: str, next_hop: IPv4Address | None = None) -> None:
        """Point everything non-local at the PE (the peer-model uplink)."""
        self.fib.install(DEFAULT_ROUTE, RouteEntry(out_ifname, next_hop, source="static"))

    def add_host_route(self, addr: IPv4Address | str, out_ifname: str) -> None:
        """Install a /32 toward a locally attached host."""
        a = IPv4Address.parse(addr)
        self.fib.install(Prefix.of(a, 32), RouteEntry(out_ifname, None, source="connected"))
