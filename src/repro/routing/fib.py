"""Forwarding Information Base with longest-prefix match.

The FIB is a binary (unibit) trie over the 32-bit destination address —
the classic software LPM structure.  Claim C4 of the paper contrasts this
per-packet variable-length lookup against MPLS's exact-match label lookup;
experiment E3 measures both on the real data structures, so the trie here
is implemented faithfully rather than delegated to a dict of prefixes.

The trie lives in three flat columns, one row per node, not one object
per node: two ``array("i")`` columns hold the row of the child on bit 0
and on bit 1 (0 = no child: row 0 is the root) and a list holds the
entries.  The walk is still one step per address bit, but a table of any
size is a handful of containers to Python's cyclic collector (at E1 N=1000
it re-walked one tracked object per trie bit on every pass).

The trie is an index over the table's route dict, not the table: it is
built by the first lookup and brought up to date by the first lookup after
a change (see :class:`Fib`), so only tables that forward packets pay for
one, and a pickled table is its routes.

A :class:`RouteEntry` resolves to an egress interface and an optional
next-hop address (None for directly connected destinations).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Generic, Iterator, KeysView, Optional, TypeVar

from repro.net.address import MASKS, IPv4Address, Prefix

__all__ = ["RouteEntry", "Fib"]

E = TypeVar("E")

_SHIFTS = tuple(range(31, -1, -1))  # bit positions of the walk, MSB first


@dataclass(frozen=True, slots=True)
class RouteEntry:
    """One forwarding decision.

    Attributes
    ----------
    out_ifname:
        Egress interface name on the owning node (the primary path).
    next_hop:
        Next-hop router address, or ``None`` when the destination is on the
        attached subnet (or the entry is a host route to a neighbour).
    metric:
        Path cost that installed the route (for observability/tie tests).
    source:
        Provenance tag: "connected", "static", "spf", "bgp", ...
    alternates:
        Additional equal-cost (out_ifname, next_hop) pairs for ECMP; the
        router hashes the flow over ``1 + len(alternates)`` choices so one
        flow's packets never reorder across paths.
    """

    out_ifname: str
    next_hop: Optional[IPv4Address] = None
    metric: float = 0.0
    source: str = "static"
    alternates: tuple[tuple[str, Optional[IPv4Address]], ...] = ()

    @property
    def all_paths(self) -> tuple[tuple[str, Optional[IPv4Address]], ...]:
        """Primary + alternates, in deterministic order."""
        return ((self.out_ifname, self.next_hop), *self.alternates)

    def __reduce__(self) -> tuple:
        # Imaged as its fields, rebuilt through the constructor.
        return RouteEntry, (
            self.out_ifname, self.next_hop, self.metric, self.source, self.alternates,
        )


# ``Fib._stale`` of a table that has no trie yet: every route is pending.
# Truthy, so the lookup path's one ``if self._stale:`` test builds the trie;
# the writers test for it and note nothing while it is there.
_UNBUILT = object()


class Fib(Generic[E]):
    """Longest-prefix-match forwarding table: a route dict and its trie.

    ``_routes`` is the table.  The unibit trie is its LPM index and is
    built by the readers.  A table starts without one (``_stale`` holds the
    ``_UNBUILT`` marker) and its first :meth:`lookup` / :meth:`lookup_prefix`
    walks every route into a fresh trie.  From then on a mutation writes the
    dict, bumps ``generation`` and notes in ``_stale`` what the trie must
    hold for that prefix (the entry, or ``None`` once withdrawn); the next
    lookup walks each stale prefix into the trie bit by bit and then
    answers.  A table nobody looks up — every CE's and every VRF's in a
    provisioning run — holds its route dict and nothing else, and an image
    of a table is its routes: a restored table is back to no trie, built by
    its first lookup.  Which row a node got depends on when lookups
    happened, so node numbering is not observable; what a lookup returns
    depends on the routes alone.

    ``generation`` increments on every mutation (install/withdraw); the
    data plane's flow caches compare it before serving a memoized
    decision, so SPF reconvergence or route churn can never leave a stale
    forwarding entry in service (see ``repro.dataplane.caches``).

    The table never reads the entries it stores: a router's FIB holds
    :class:`RouteEntry`, a VRF's holds its ``VrfRoute``.
    """

    __slots__ = (
        "_routes", "_stale", "lookups", "generation",
        "_left", "_right", "_entries", "_leaf",   # the trie, once built
    )

    def __init__(self) -> None:
        self._routes: dict[Prefix, E] = {}
        self._stale: dict[Prefix, E | None] = _UNBUILT  # type: ignore[assignment]
        self.lookups = 0
        self.generation = 0

    def __getstate__(self) -> tuple[dict[Prefix, E], int, int]:
        return self._routes, self.lookups, self.generation

    def __setstate__(self, state: tuple[dict[Prefix, E], int, int]) -> None:
        self._routes, self.lookups, self.generation = state
        self._stale = _UNBUILT  # type: ignore[assignment]

    # ------------------------------------------------------------------
    def _leaf_node(self, pfx: Prefix) -> int:
        """The (possibly new) trie node ``pfx`` terminates at, cached."""
        node = self._leaf.get(pfx)
        if node is not None:
            return node
        left, right, entries = self._left, self._right, self._entries
        node = 0
        net = pfx.network
        for shift in range(31, 31 - pfx.length, -1):
            column = right if (net >> shift) & 1 else left
            child = column[node]
            if not child:
                child = column[node] = len(entries)
                left.append(0)
                right.append(0)
                entries.append(None)
            node = child
        self._leaf[pfx] = node
        return node

    def _sync(self) -> None:
        """Bring the trie up to date with the routes: on the first call
        build it from every route, after that one walk per stale prefix
        (none for a prefix the trie has seen before)."""
        stale = self._stale
        if stale is _UNBUILT:
            self._left = array("i", (0,))   # node -> child on bit 0 (0 = none)
            self._right = array("i", (0,))  # node -> child on bit 1
            self._entries: list[E | None] = [None]  # node -> entry; node 0 = root
            # Leaf cache: the node a prefix terminates at.  Nodes are never
            # pruned, so a cached index stays valid for as long as the trie
            # does and re-installing a known prefix — what every
            # reconvergence does for most routes — skips the per-bit walk.
            self._leaf: dict[Prefix, int] = {}
            self._stale = {}
            pending = self._routes
        else:
            pending = stale
        leaf_node = self._leaf_node
        entries = self._entries
        for pfx, entry in pending.items():
            entries[leaf_node(pfx)] = entry
        if pending is stale:
            stale.clear()

    def install(self, prefix: Prefix | str, entry: E) -> None:
        """Insert or replace the route for ``prefix``."""
        pfx = Prefix.parse(prefix) if isinstance(prefix, str) else prefix
        self._routes[pfx] = entry
        if self._stale is not _UNBUILT:
            self._stale[pfx] = entry
        self.generation += 1

    def install_many(self, items: list[tuple[Prefix, E]]) -> int:
        """Install a batch of routes with a *single* generation bump.

        The control plane installs hundreds of routes per convergence;
        bumping the generation once per batch keeps the data plane's flow
        caches from being invalidated route-by-route (they flush wholesale
        on any generation change anyway) and skips the per-call prefix
        parsing.  Returns the number of routes installed.
        """
        if not items:
            return 0
        self._routes.update(items)
        if self._stale is not _UNBUILT:
            self._stale.update(items)
        self.generation += 1
        return len(items)

    def withdraw(self, prefix: Prefix | str) -> bool:
        """Remove the route for ``prefix``; returns False when absent."""
        pfx = Prefix.parse(prefix) if isinstance(prefix, str) else prefix
        return bool(self.withdraw_many([pfx]))

    def withdraw_many(self, prefixes: list[Prefix]) -> int:
        """Withdraw a batch of routes with a single generation bump.

        Returns the number of routes actually removed (absent prefixes are
        skipped).  Trie nodes are not pruned (withdrawals are rare in our
        scenarios and stale interior nodes are harmless to correctness) —
        which is also what keeps the leaf cache sound.
        """
        routes, stale = self._routes, self._stale
        built = stale is not _UNBUILT
        removed = 0
        for pfx in prefixes:
            if routes.pop(pfx, None) is not None:
                removed += 1
                if built:
                    stale[pfx] = None
        if removed:
            self.generation += 1
        return removed

    # ------------------------------------------------------------------
    def lookup(self, addr: IPv4Address | int) -> Optional[E]:
        """Longest-prefix match; ``None`` when no route covers ``addr``."""
        if self._stale:
            self._sync()
        self.lookups += 1
        value = addr.value if isinstance(addr, IPv4Address) else addr
        left, right, entries = self._left, self._right, self._entries
        best = entries[0]
        node = 0
        for shift in _SHIFTS:
            node = right[node] if (value >> shift) & 1 else left[node]
            if not node:
                break
            entry = entries[node]
            if entry is not None:
                best = entry
        return best

    def lookup_prefix(self, addr: IPv4Address | int) -> Optional[tuple[Prefix, E]]:
        """Like :meth:`lookup` but also returns the matching prefix."""
        if self._stale:
            self._sync()
        value = addr.value if isinstance(addr, IPv4Address) else addr
        left, right, entries = self._left, self._right, self._entries
        best = entries[0]
        length = node = 0
        for shift in _SHIFTS:
            node = right[node] if (value >> shift) & 1 else left[node]
            if not node:
                break
            entry = entries[node]
            if entry is not None:
                best, length = entry, 32 - shift
        return None if best is None else (Prefix(value & MASKS[length], length), best)

    # ------------------------------------------------------------------
    def routes(self) -> Iterator[tuple[Prefix, E]]:
        """All installed routes (arbitrary order)."""
        return iter(self._routes.items())

    def prefixes(self) -> KeysView[Prefix]:
        """Live set-like view of the installed prefixes (no copy)."""
        return self._routes.keys()

    def get(self, prefix: Prefix | str) -> Optional[E]:
        pfx = Prefix.parse(prefix) if isinstance(prefix, str) else prefix
        return self._routes.get(pfx)

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._routes
