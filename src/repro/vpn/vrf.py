"""VPN Routing and Forwarding tables (VRFs).

A PE router keeps one :class:`Vrf` per directly-attached VPN (RFC 2547
§3): an isolated forwarding table whose routes come from (a) the locally
attached sites and (b) MP-BGP imports matching the VRF's import route
targets.  Isolation is structural — a VRF lookup can only ever return
routes that were installed into *this* VRF, so overlapping customer
addresses never meet in one table.

The table is one :class:`~repro.routing.fib.Fib` per VRF whose entries
are the route objects themselves (the table never reads what it stores): a
lookup is one longest-prefix walk.  An entry is a site's route (a
:class:`VrfRoute`) or MP-BGP's advertisement object
(:class:`~repro.vpn.bgp.VpnRoute`), shared by every VRF importing it: the
engine's imports are exactly the entries that are not a local.

Beside the table, a VRF keeps its local routes in a prefix-keyed dict (the
same objects), so what a site flap asks of it — the locals to export, the
prefixes learned over one circuit — costs the locals, not the table, which
in a big VPN is mostly imports.  Only this module writes that dict; every
write method below keeps it equal to the table's ``kind == "local"``
entries.  An image carries neither it nor :attr:`Vrf.local_generation`:
restore rebuilds the dict from the table and restarts the counter at 0.
A :class:`Vrf` is slotted and takes no attribute outside ``__slots__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, KeysView, Mapping, Optional, Union

from repro.net.address import IPv4Address, Prefix
from repro.routing.fib import Fib
from repro.vpn.rd_rt import RouteDistinguisher, RouteTarget

if TYPE_CHECKING:  # pragma: no cover
    from repro.vpn.bgp import VpnRoute

__all__ = ["VrfRoute", "Vrf"]


@dataclass(frozen=True, slots=True)
class VrfRoute:
    """A local VRF route: reachable over an attachment circuit of this PE.

    Every other VRF entry is MP-BGP's advertisement object
    (:class:`~repro.vpn.bgp.VpnRoute`, ``kind == "remote"``).
    """

    out_ifname: str                          # PE->CE interface
    next_hop: IPv4Address | None = None      # CE address (informational)
    origin_site: int | None = None

    kind = "local"  # a class attribute, not a field

    def __reduce__(self) -> tuple:
        # Imaged as its fields, rebuilt through the constructor.
        return VrfRoute, (self.out_ifname, self.next_hop, self.origin_site)


Entry = Union[VrfRoute, "VpnRoute"]  # a table entry: a site's route or an advertisement

_table_dict = attrgetter("_fib._routes")  # a VRF's route dict, read in C


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

    ``generation`` counts every write to the table; ``local_generation``
    counts the *local-only* ones — a write whose every installed or
    removed route is a local: an :meth:`add_local` over nothing or over a
    local, a :meth:`withdraw` of a local, a :meth:`remove_many` that
    removes locals only.  An ``add_local`` over an import, any import
    write, and a ``remove_many`` that also removes an import do not move
    it, and a write that changes nothing moves neither.  MP-BGP compares
    the two against its record of the VRF: when they moved by the same
    amount, nobody touched what the VRF imports.
    """

    __slots__ = (
        "name", "rd", "import_rts", "export_rts", "vpn_label", "_fib",
        "_locals", "local_generation",
    )

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
        self._fib: Fib[Entry] = Fib()
        self._locals: dict[Prefix, VrfRoute] = {}
        self.local_generation = 0

    def __getstate__(self) -> tuple:
        return (self.name, self.rd, self.import_rts, self.export_rts, self.vpn_label,
                self._fib)

    def __setstate__(self, state: tuple) -> None:
        (self.name, self.rd, self.import_rts, self.export_rts, self.vpn_label,
         self._fib) = state
        self._locals = {p: r for p, r in self._fib.routes() if r.kind == "local"}
        self.local_generation = 0

    # ------------------------------------------------------------------
    def add_local(
        self,
        prefix: Prefix | str,
        out_ifname: str,
        next_hop: IPv4Address | None = None,
        origin_site: int | None = None,
    ) -> VrfRoute:
        """Install a route learned from an attached site."""
        pfx = Prefix.parse(prefix)
        route = VrfRoute(out_ifname, next_hop, origin_site)
        over_import = pfx not in self._locals and pfx in self._fib
        self._fib.install(pfx, route)
        self._locals[pfx] = route
        if not over_import:
            self.local_generation += 1
        return route

    def add_remote_many(self, items: list[tuple[Prefix, "VpnRoute"]]) -> int:
        """Install a batch of MP-BGP imports with one FIB generation bump.

        ``items`` is ``[(prefix, route), ...]`` with MP-BGP's advertisement
        objects themselves.  The churn engine installs whole deltas through
        here so the PE's per-VRF flow caches are invalidated once per batch,
        not once per route (the ``Fib.install_many`` pattern).  Returns the
        batch size.
        """
        locals_ = self._locals
        if not locals_.keys().isdisjoint(map(itemgetter(0), items)):
            for prefix, _ in items:
                locals_.pop(prefix, None)
        return self._fib.install_many(items)

    def remove_many(self, prefixes: list[Prefix]) -> int:
        """Withdraw a batch of routes with one FIB generation bump.

        Absent prefixes (and repeats) are skipped; returns the number
        actually removed.  A batch that removes nothing leaves the
        generation untouched.
        """
        locals_ = self._locals
        if locals_.keys().isdisjoint(prefixes):
            return self._fib.withdraw_many(prefixes)
        gone = sum(locals_.pop(p, None) is not None for p in prefixes)
        removed = self._fib.withdraw_many(prefixes)
        if removed == gone:
            self.local_generation += 1
        return removed

    def withdraw(self, prefix: Prefix | str) -> bool:
        return bool(self.remove_many([Prefix.parse(prefix)]))

    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Mutation counter for the PE's per-VRF flow caches.

        Every route change is an install into or a withdrawal from the
        inner FIB, whose generation counts both.
        """
        return self._fib.generation

    # ------------------------------------------------------------------
    def lookup(self, addr: IPv4Address) -> Optional[Entry]:
        """Longest-prefix match inside this VRF only."""
        return self._fib.lookup(addr)

    def routes(self) -> dict[Prefix, Entry]:
        return dict(self._fib.routes())

    def entries(self) -> Mapping[Prefix, Entry]:
        """Live read-only view of the table (no copy)."""
        return MappingProxyType(self._fib._routes)

    def prefixes(self) -> KeysView[Prefix]:
        """Live set-like view of the installed prefixes (no copy)."""
        return self._fib.prefixes()

    def local_routes(self) -> Mapping[Prefix, VrfRoute]:
        """Live read-only view of the local routes (no copy, no table walk)."""
        return MappingProxyType(self._locals)

    def circuit_prefixes(self, ifname: str) -> list[Prefix]:
        """Prefixes of the local routes learned over one attachment circuit."""
        return [p for p, r in self._locals.items() if r.out_ifname == ifname]

    @staticmethod
    def total_entries(vrfs: Iterable["Vrf"]) -> int:
        """Entries of every VRF in ``vrfs``, their table sizes summed in C with
        no Python frame per table: the state census reads every VRF of every
        PE after each churn op."""
        return sum(map(len, map(_table_dict, vrfs)))

    def __len__(self) -> int:
        return len(self._fib._routes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Vrf {self.name} rd={self.rd} routes={len(self)}>"
