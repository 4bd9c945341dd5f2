"""VPN Routing and Forwarding tables (VRFs).

A PE router keeps one :class:`Vrf` per directly-attached VPN (RFC 2547
§3): an isolated forwarding table whose routes come from (a) the locally
attached sites and (b) MP-BGP imports matching the VRF's import route
targets.  Isolation is structural — a VRF lookup can only ever return
routes that were installed into *this* VRF, so overlapping customer
addresses never meet in one table.

The table is one :class:`~repro.routing.fib.Fib` per VRF whose entries
are the :class:`VrfRoute` objects themselves (the table never reads what
it stores): a lookup is one longest-prefix walk, and the VRF's routes are
the table's — there is no second prefix-keyed dict to keep in step.  A
remote route is frozen and says nothing about the VRF holding it (egress
PE, VPN label, origin site), so every VRF importing one advertisement
holds the same object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import KeysView, Optional

from repro.net.address import IPv4Address, Prefix
from repro.routing.fib import Fib
from repro.vpn.rd_rt import RouteDistinguisher, RouteTarget

__all__ = ["VrfRoute", "Vrf"]


@dataclass(frozen=True, slots=True)
class VrfRoute:
    """One VRF forwarding decision.

    ``kind`` is ``"local"`` (reachable via an attachment circuit on this
    PE) or ``"remote"`` (reachable via an MPLS tunnel to another PE, using
    ``vpn_label`` as the inner label).
    """

    kind: str
    out_ifname: str | None = None            # local: PE->CE interface
    next_hop: IPv4Address | None = None      # local: CE address (informational)
    remote_pe: IPv4Address | None = None     # remote: egress PE loopback
    vpn_label: int | None = None             # remote: inner label
    origin_site: int | None = None
    metric: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == "local" and self.out_ifname is None:
            raise ValueError("local VRF route needs out_ifname")
        if self.kind == "remote" and (self.remote_pe is None or self.vpn_label is None):
            raise ValueError("remote VRF route needs remote_pe and vpn_label")
        if self.kind not in ("local", "remote"):
            raise ValueError(f"unknown VRF route kind {self.kind!r}")


class Vrf:
    """Per-VPN forwarding table on one PE.

    Parameters
    ----------
    name:
        VRF name, unique on the PE (conventionally the VPN name).
    rd:
        Route distinguisher for routes exported from this VRF.
    import_rts / export_rts:
        Route-target policy; see :mod:`repro.vpn.rd_rt`.
    vpn_label:
        The per-VRF aggregate label this PE advertises for all of the
        VRF's routes; packets arriving with it are looked up in this VRF.
    """

    def __init__(
        self,
        name: str,
        rd: RouteDistinguisher,
        import_rts: frozenset[RouteTarget],
        export_rts: frozenset[RouteTarget],
        vpn_label: int,
    ) -> None:
        self.name = name
        self.rd = rd
        self.import_rts = frozenset(import_rts)
        self.export_rts = frozenset(export_rts)
        self.vpn_label = vpn_label
        self._fib: Fib[VrfRoute] = Fib()
        # Interfaces (attachment circuits) bound to this VRF on the PE.
        self.circuits: list[str] = []

    # ------------------------------------------------------------------
    def add_local(
        self,
        prefix: Prefix | str,
        out_ifname: str,
        next_hop: IPv4Address | None = None,
        origin_site: int | None = None,
    ) -> VrfRoute:
        """Install a route learned from an attached site."""
        route = VrfRoute(
            "local", out_ifname=out_ifname, next_hop=next_hop, origin_site=origin_site
        )
        self._fib.install(prefix, route)
        return route

    def add_remote(
        self,
        prefix: Prefix | str,
        remote_pe: IPv4Address,
        vpn_label: int,
        origin_site: int | None = None,
        metric: float = 0.0,
    ) -> VrfRoute:
        """Install a route imported from MP-BGP."""
        route = VrfRoute(
            "remote",
            remote_pe=remote_pe,
            vpn_label=vpn_label,
            origin_site=origin_site,
            metric=metric,
        )
        self._fib.install(prefix, route)
        return route

    def add_remote_many(self, items: list[tuple[Prefix, VrfRoute]]) -> int:
        """Install a batch of MP-BGP imports with one FIB generation bump.

        ``items`` is ``[(prefix, route), ...]`` with ready ``"remote"``
        routes: MP-BGP builds one :class:`VrfRoute` per advertisement and
        hands the same object to every VRF that imports it.  The churn
        engine installs whole deltas through here so the PE's per-VRF flow
        caches are invalidated once per batch, not once per route (PR 3's
        ``install_many`` pattern).  Returns the batch size.
        """
        return self._fib.install_many(items)

    def remove_many(self, prefixes: list[Prefix]) -> int:
        """Withdraw a batch of routes with one FIB generation bump.

        Absent prefixes are skipped; returns the number actually removed.
        A batch that removes nothing leaves the generation untouched.
        """
        return self._fib.withdraw_many(prefixes)

    def withdraw(self, prefix: Prefix | str) -> bool:
        return self._fib.withdraw(prefix)

    def kind_of(self, prefix: Prefix) -> str | None:
        """``"local"``/``"remote"`` if ``prefix`` is installed, else None."""
        route = self._fib.get(prefix)
        return None if route is None else route.kind

    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Mutation counter for the PE's per-VRF flow caches.

        Every route change is an install into or a withdrawal from the
        inner FIB, whose generation counts both.
        """
        return self._fib.generation

    # ------------------------------------------------------------------
    def lookup(self, addr: IPv4Address) -> Optional[VrfRoute]:
        """Longest-prefix match inside this VRF only."""
        return self._fib.lookup(addr)

    def routes(self) -> dict[Prefix, VrfRoute]:
        return dict(self._fib.routes())

    def prefixes(self) -> KeysView[Prefix]:
        """Live set-like view of the installed prefixes (no copy)."""
        return self._fib.prefixes()

    def local_routes(self) -> dict[Prefix, VrfRoute]:
        return {p: r for p, r in self._fib.routes() if r.kind == "local"}

    def circuit_prefixes(self, ifname: str) -> list[Prefix]:
        """Prefixes of the local routes learned over one attachment circuit."""
        return [
            p for p, r in self._fib.routes()
            if r.out_ifname == ifname and r.kind == "local"
        ]

    def __len__(self) -> int:
        return len(self._fib)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Vrf {self.name} rd={self.rd} routes={len(self)}>"
