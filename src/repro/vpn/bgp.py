"""MP-BGP distribution of VPN-IPv4 routes (RFC 2547 §4) — incremental.

Models an MP-iBGP mesh among the PE routers: every PE exports its VRFs'
local routes as VPN-IPv4 NLRI — (RD:prefix, route targets, next hop =
PE loopback, VPN label) — and imports the routes whose RT set intersects
a VRF's import policy.  "Piggybacking labels in the routing protocol
updates" is exactly the paper's §4 description of the mechanism.

The engine keeps a **persistent Adj-RIB**: per-(PE, VRF) export sets plus
an incrementally maintained RT → prefix → routes index.  ``converge()`` is
a *resync* — it diffs desired state against the RIB, so re-running it on
an unchanged network sends zero updates, installs nothing, and leaves
every VRF generation untouched (the data-plane flow caches stay warm).
It is also the delta of what moved: the engine remembers each VRF as it
last left it in sync (the object, its table generation, its policy) and
re-reads only the VRFs that are new or differ from that record; what
those advertise and withdraw reaches every other VRF the way a delta
operation's does.  Delta operations propagate only the changed routes:

* :meth:`export_delta` — re-sync one VRF's exports after local route
  changes (site added/removed behind an existing PE).
* :meth:`withdraw` — retract a VRF's advertisements (or one site's)
  ahead of de-provisioning.
* :meth:`peer_down` / :meth:`peer_up` — PE maintenance drain: implicit
  withdraw of the PE's routes everywhere, its own VRFs offered nothing,
  and a full re-advertise + refresh when the PE returns.

Every import write is :meth:`MpBgp._reselect`'s, through the batched
``add_remote_many`` / ``remove_many`` paths (single FIB generation bump
per VRF per operation, the ``install_many`` pattern).  It decides each
prefix in one step — a prefix one origin offers in the loop itself, two or
more through the rank tie-break — and empties a VRF offered nothing in
one pass, so a PE drain costs the routes it moves.  Local routes are
preferred over imports: a prefix a VRF holds as a local is never
overwritten (or removed) by the import side — the standard BGP
admin-distance rule, and what keeps churn idempotent when two sites
advertise the same prefix.

Every importing VRF holds the Adj-RIB-Out's :class:`VpnRoute` itself, and
its table is the only record of the engine's imports: the entries that are
not a local.

Nothing rebuilds an engine: a PE joins it (:meth:`MpBgp.add_pe`) and stays,
and :meth:`MpBgp.relayout` re-lays the sessions in place, both keeping the
Adj-RIB, the sync records, the importer index and the drained set.  A
``VpnProvisioner`` builds one on first use and keeps it for its life.

Three session topologies are supported, because their control-plane
cost is an E9e ablation:

* **full mesh** — n(n−1)/2 iBGP sessions; each UPDATE goes to n−1 peers.
* **route reflector** — n−1 sessions (every PE peers with the RR); each
  UPDATE goes to the RR, which reflects it to the other n−1 clients.
* **RR clusters** — ``rr_clusters`` names k reflector clusters (each a
  single RR or a redundant pair); clients are assigned round-robin, the
  reflectors peer in a full mesh among themselves, and reflected routes
  carry a cluster list so a redundant co-reflector drops its partner's
  copy (RFC 4456 loop suppression, surfaced as ``updates_suppressed``).

Update fan-out is computed by simulating the reflection graph per
origin (memoized), so session/update/suppression accounting is exact
for any topology.  Message and session counts land in ``net.counters``
for E1/E9e/E15.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from repro.net.address import IPv4Address, Prefix
from repro.vpn.pe import PeRouter
from repro.vpn.rd_rt import RouteDistinguisher, RouteTarget, VpnPrefix
from repro.vpn.vrf import Vrf

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology import Network

__all__ = ["VpnRoute", "BgpResult", "MpBgp"]


class VpnRoute(NamedTuple):
    """One VPN-IPv4 NLRI with its label and RT communities.

    A tuple, like its key types: the ``old == route`` / ``have != winner``
    tests every resync makes per prefix compare in C.  It holds the RD and
    the prefix, and builds its VPN-IPv4 :attr:`key` from them when asked.
    It is the one object of its advertisement: the Adj-RIB-Out's, the RT
    index's and the entry of every VRF importing it, answering the data
    plane's reads of a remote VRF entry (``kind``, ``remote_pe``,
    ``vpn_label``).
    """

    rd: RouteDistinguisher
    prefix: Prefix
    route_targets: frozenset[RouteTarget]
    next_hop: IPv4Address          # originating PE loopback
    vpn_label: int                 # per-VRF aggregate label at the origin
    origin_pe: str
    origin_site: int | None = None

    kind = "remote"  # a class attribute, not a field

    @property
    def key(self) -> VpnPrefix:
        """The VPN-IPv4 prefix (RD:prefix) the route is advertised under."""
        return VpnPrefix(self.rd, self.prefix)


VpnRoute.remote_pe = VpnRoute.next_hop  # type: ignore[attr-defined]


@dataclass
class BgpResult:
    """Census of one distribution pass (full resync or delta).

    ``routes_exported``/``routes_withdrawn`` count NLRI advertised and
    retracted by this pass; ``routes_imported``/``routes_removed`` count
    the resulting VRF installs and removals.  ``updates_suppressed``
    counts UPDATEs a reflector dropped by cluster-list loop detection.
    """

    sessions: int = 0
    updates_sent: int = 0
    routes_exported: int = 0
    routes_imported: int = 0
    exported: list[VpnRoute] = field(default_factory=list)
    routes_withdrawn: int = 0
    routes_removed: int = 0
    updates_suppressed: int = 0


def _clusters(
    route_reflector: str | None,
    rr_clusters: Sequence[Sequence[str] | str] | None,
) -> tuple[tuple[str, ...], ...]:
    """One layout's reflector clusters: ``route_reflector`` is one cluster
    of one reflector, a bare name in ``rr_clusters`` a cluster of one."""
    if route_reflector is not None:
        if rr_clusters is not None:
            raise ValueError("pass route_reflector or rr_clusters, not both")
        rr_clusters = [route_reflector]
    return tuple((c,) if isinstance(c, str) else tuple(c) for c in rr_clusters or ())


class MpBgp:
    """Incremental MP-iBGP engine over a set of PE routers; a PE joins it
    with :meth:`add_pe` and :meth:`relayout` changes its session layout."""

    def __init__(
        self,
        net: "Network",
        pes: Sequence[PeRouter],
        route_reflector: str | None = None,
        rr_clusters: Sequence[Sequence[str] | str] | None = None,
    ) -> None:
        if not pes:
            raise ValueError("need at least one PE")
        self.net = net
        self.pes = list(pes)
        self._down: set[str] = set()
        self._sessions_counted = False
        self._layout(_clusters(route_reflector, rr_clusters))

        # --- persistent Adj-RIB -------------------------------------------
        # Adj-RIB-Out per (pe, vrf): prefix -> advertised VpnRoute.
        self._rib: dict[tuple[str, str], dict[Prefix, VpnRoute]] = {}
        # RT -> prefix -> (origin pe, vrf) -> route; maintained on every
        # advertise/withdraw so imports never rescan the full export set.
        self._rt_index: dict[
            RouteTarget, dict[Prefix, dict[tuple[str, str], VpnRoute]]
        ] = {}
        # Each (pe, vrf) as the engine last left it with exports and
        # imports both in sync: (the Vrf, its table generation, its local
        # generation, rd, export RTs, import RTs, VPN label, PE loopback) —
        # :meth:`_state_of`.  converge() re-reads a VRF only when it is new
        # or differs from this record (a route written, a policy attribute
        # assigned, a VRF re-created under the name — whoever did it); a
        # key seen for the first time in export_delta gets a one-time
        # wholesale import sync (BGP route refresh for a new VRF) so it
        # catches up on NLRI advertised before it existed, and a key whose
        # every write since its record was local-only is written anew by
        # export_delta.  The engine's own import writes carry the
        # generation forward (:meth:`_reselect`); :meth:`withdraw`
        # drops the record of what it retracted from, and so does an import
        # re-examination that passes over a local not yet advertised.
        self._synced: dict[tuple[str, str], tuple] = {}
        # Importer index RT -> (pe, vrf) -> Vrf (RFC 4684's RT constraint) and
        # each key's RTs: built by :meth:`importers`, kept by :meth:`_file`.
        self._importers: dict[RouteTarget, dict[tuple[str, str], Vrf]] | None = None
        self._importer_rts: dict[tuple[str, str], frozenset[RouteTarget]] = {}

    # An image holds each record without its local generation, which a
    # restored Vrf restarts at 0: the record comes back with 0 too.  A record
    # whose table generation still matches reads as in sync, as it did live;
    # any other can no longer show that the writes since it were local-only,
    # so the next converge() re-reads that VRF.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_importers"], state["_importer_rts"]
        state["_synced"] = {
            key: (seen[0], seen[1], *seen[3:]) for key, seen in self._synced.items()
        }
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._synced = {
            key: (seen[0], seen[1], 0, *seen[2:]) for key, seen in self._synced.items()
        }
        self._importers, self._importer_rts = None, {}

    # ------------------------------------------------------------------
    # Topology census
    # ------------------------------------------------------------------
    def _layout(self, rr_clusters: tuple[tuple[str, ...], ...]) -> None:
        """Derive the sessions of :attr:`pes` under ``rr_clusters`` (checked
        before anything is written) and a cold fan-out cache.  Once converge()
        has counted sessions, the ones this brings up add to ``bgp.sessions``
        and the ones it takes down to ``bgp.sessions_down``."""
        pe_by_name = {pe.name: pe for pe in self.pes}
        if len(pe_by_name) < len(self.pes):
            raise ValueError("duplicate PE names")
        rr_cluster_of: dict[str, int] = {}
        for ci, cluster in enumerate(rr_clusters):
            if not cluster:
                raise ValueError("empty RR cluster")
            for rr in cluster:
                if rr not in pe_by_name:
                    raise ValueError(f"route reflector {rr!r} is not a PE")
                if rr in rr_cluster_of:
                    raise ValueError(f"route reflector {rr!r} in two clusters")
                if rr in self._down:
                    raise ValueError(f"cannot make drained PE {rr} a route reflector")
                rr_cluster_of[rr] = ci
        before = self._up_sessions() if self._sessions_counted else None
        self.rr_clusters, self._rr_cluster_of = rr_clusters, rr_cluster_of
        self._pe_by_name = pe_by_name
        self._pe_pos = {pe.name: i for i, pe in enumerate(self.pes)}
        # Clients round-robin over clusters, in name order — deterministic
        # so session/update accounting is reproducible.  Reflectors (and
        # every PE of a full mesh) peer with each other, a client with the
        # reflectors of its cluster.
        names = sorted(pe_by_name)
        client = {} if not rr_clusters else {
            n: i % len(rr_clusters)
            for i, n in enumerate(n for n in names if n not in rr_cluster_of)
        }
        self._client_cluster = client

        def peered(a: str, b: str) -> bool:
            ca, cb = client.get(a), client.get(b)
            if ca is None:
                return cb is None or a in rr_clusters[cb]
            return cb is None and b in rr_clusters[ca]

        self._neighbors = {a: tuple(b for b in names if b != a and peered(a, b)) for a in names}
        # Per-origin fan-out (receivers, sent, suppressed), memoized until
        # the layout or the up/down set changes.
        self._prop_cache: dict[tuple[str, bool], tuple[frozenset[str], int, int]] = {}
        if before is not None:
            after = self._up_sessions()
            if after - before:
                self.net.counters.incr("bgp.sessions", len(after - before))
            if before - after:
                self.net.counters.incr("bgp.sessions_down", len(before - after))

    def _up_sessions(self) -> set[tuple[str, str]]:
        """The sessions with neither end drained, as (lower, higher) names."""
        down = self._down
        return {(a, b) for a, peers in self._neighbors.items() if a not in down
                for b in peers if a < b and b not in down}

    def add_pe(self, pe: PeRouter) -> None:
        """``pe`` joins at its name-order rank (the tie-break a fresh build
        gives it) under the engine's layout; its VRFs are new to the engine,
        read by the next ``converge()`` or their first ``export_delta``."""
        if pe.name in self._pe_by_name:
            raise ValueError(f"{pe.name} is already in this BGP mesh")
        self.pes.insert(sum(p.name < pe.name for p in self.pes), pe)
        self._layout(self.rr_clusters)

    def relayout(self, route_reflector: str | None = None, rr_clusters=None) -> None:
        """Re-lay the sessions in place under the constructor's layout
        arguments (neither: a full mesh); the layout the engine has is a
        no-op.  Imports do not depend on the layout, only UPDATE costs do."""
        rr_clusters = _clusters(route_reflector, rr_clusters)
        if rr_clusters != self.rr_clusters:
            self._layout(rr_clusters)

    def session_count(self) -> int:
        """Configured iBGP sessions (topology census, ignores drains)."""
        return sum(len(peers) for peers in self._neighbors.values()) // 2

    # ------------------------------------------------------------------
    def _propagate(
        self, origin: str, first_hop_free: bool = False
    ) -> tuple[frozenset[str], int, int]:
        """Simulate one UPDATE's fan-out from ``origin``.

        Returns (receivers, updates sent, updates suppressed by cluster
        list).  ``first_hop_free`` models an *implicit* withdraw — the
        origin's sessions are gone, so its peers generate the withdraw
        themselves and only the reflection legs cost messages.
        """
        key = (origin, first_hop_free)
        cached = self._prop_cache.get(key)
        if cached is not None:
            return cached
        down = self._down
        sent = suppressed = 0
        accepted = {origin}
        receivers: list[str] = []
        queue: deque[tuple[str, str, frozenset[int]]] = deque()
        for nb in self._neighbors[origin]:
            if nb in down:
                continue
            if not first_hop_free:
                sent += 1
            queue.append((nb, origin, frozenset()))
        while queue:
            node, frm, clist = queue.popleft()
            cluster = self._rr_cluster_of.get(node)
            if cluster is not None and cluster in clist:
                suppressed += 1      # RFC 4456 cluster-list loop drop
                continue
            if node in accepted:
                continue             # duplicate path, lost to path selection
            accepted.add(node)
            receivers.append(node)
            if cluster is None:
                continue             # plain iBGP speakers never re-advertise
            new_clist = clist | {cluster}
            if frm in self._client_cluster:
                # Client-learned: reflect to every other peer.
                targets: Iterable[str] = (
                    t for t in self._neighbors[node] if t != frm
                )
            else:
                # Learned from a non-client (co-reflector): clients only.
                targets = (
                    t for t in self._neighbors[node]
                    if t in self._client_cluster and t != frm
                )
            for t in targets:
                if t in down:
                    continue
                sent += 1
                queue.append((t, node, new_clist))
        out = (frozenset(receivers), sent, suppressed)
        self._prop_cache[key] = out
        return out

    def _count_updates(
        self,
        advertised: Sequence[VpnRoute],
        withdrawn: Sequence[VpnRoute],
        result: BgpResult,
        implicit: bool = False,
    ) -> None:
        for route in advertised:
            _, sent, sup = self._propagate(route.origin_pe)
            result.updates_sent += sent
            result.updates_suppressed += sup
        for route in withdrawn:
            _, sent, sup = self._propagate(route.origin_pe, first_hop_free=implicit)
            result.updates_sent += sent
            result.updates_suppressed += sup

    # ------------------------------------------------------------------
    # Adj-RIB maintenance
    # ------------------------------------------------------------------
    def _index(self, key: tuple[str, str], route: VpnRoute) -> None:
        for rt in route.route_targets:
            self._rt_index.setdefault(rt, {}).setdefault(route.prefix, {})[key] = route

    def _unindex(self, key: tuple[str, str], route: VpnRoute) -> None:
        for rt in route.route_targets:
            by_prefix = self._rt_index.get(rt)
            if by_prefix is None:
                continue
            origins = by_prefix.get(route.prefix)
            if origins is None:
                continue
            origins.pop(key, None)
            if not origins:
                del by_prefix[route.prefix]
                if not by_prefix:
                    del self._rt_index[rt]

    def _sync_exports(
        self,
        pe: PeRouter,
        vrf: Vrf,
        advertised: list[VpnRoute],
        withdrawn: list[VpnRoute],
    ) -> None:
        """Diff one VRF's local routes against its Adj-RIB-Out.

        Every route a key's Adj-RIB-Out holds was built under one export
        policy (rd, export RTs, loopback, VPN label: this method is its only
        writer and re-advertises all of it when one changes), so any route
        there says what that policy was.  While it is unchanged, a local
        whose advertisement is present with the same origin site has
        nothing to send, and only the others get a :class:`VpnRoute` built
        — in prefix order, as a full re-read advertises them.
        """
        assert pe.loopback is not None, f"PE {pe.name} needs a loopback"
        key = (pe.name, vrf.name)
        locals_ = vrf.local_routes()
        current = self._rib.setdefault(key, {})
        sample = next(iter(current.values()), None)
        if sample is not None and (
            sample.rd, sample.route_targets, sample.next_hop, sample.vpn_label
        ) == (vrf.rd, vrf.export_rts, pe.loopback, vrf.vpn_label):
            changed = sorted([
                p for p, r in locals_.items()
                if p not in current or current[p].origin_site != r.origin_site
            ])
        else:
            changed = sorted(locals_)
        for prefix in changed:
            route = VpnRoute(
                rd=vrf.rd,
                prefix=prefix,
                route_targets=vrf.export_rts,
                next_hop=pe.loopback,
                vpn_label=vrf.vpn_label,
                origin_pe=pe.name,
                origin_site=locals_[prefix].origin_site,
            )
            old = current.get(prefix)
            if old == route:
                continue
            if old is not None:      # replacement UPDATE: implicit withdraw
                self._unindex(key, old)
            current[prefix] = route
            self._index(key, route)
            advertised.append(route)
        # Every local is in ``current`` now: anything more is withdrawn.
        if len(current) > len(locals_):
            for prefix in [p for p in current if p not in locals_]:
                route = current.pop(prefix)
                self._unindex(key, route)
                withdrawn.append(route)
        if not current:
            del self._rib[key]

    def _retract_key(self, key: tuple[str, str]) -> list[VpnRoute]:
        """Drop every advertisement for a (pe, vrf) that no longer exists."""
        routes = list(self._rib.pop(key, {}).values())
        for route in routes:
            self._unindex(key, route)
        self._synced.pop(key, None)
        self._file(key, None)
        return routes

    def importers(self) -> dict[RouteTarget, dict[tuple[str, str], Vrf]]:
        """The importer index; a new or restored engine builds it here."""
        if self._importers is None:
            self._importers, self._importer_rts = {}, {}
            for pe in self.pes:
                for vrf in pe.vrfs.values():
                    self._file((pe.name, vrf.name), vrf)
        return self._importers

    def _file(self, key: tuple[str, str], vrf: Vrf | None) -> None:
        """Re-file ``key`` under ``vrf``'s :meth:`_policy` (``None``: out)."""
        index = self._importers
        if index is None:
            return
        for rt in self._importer_rts.pop(key, ()):
            del index[rt][key]
            if not index[rt]:
                del index[rt]
        if vrf is not None:
            rts = self._importer_rts[key] = self._policy(key, vrf)
            for rt in rts:
                index.setdefault(rt, {})[key] = vrf

    def _policy(self, key: tuple[str, str], vrf: Vrf) -> frozenset[RouteTarget]:
        """Import RTs the engine acts on: its record's, so a policy assigned
        by hand (or put back) waits for converge() or the PE's ``peer_up``;
        else the VRF's own."""
        seen = self._synced.get(key)
        return seen[5] if seen is not None and seen[0] is vrf else vrf.import_rts

    # ------------------------------------------------------------------
    # Import side
    # ------------------------------------------------------------------
    def _pick_winner(
        self, barred: set[str], candidates: dict[tuple[str, str], VpnRoute]
    ) -> VpnRoute | None:
        """The winner among two or more origins of one prefix: the
        highest-ranked one whose PE is not in ``barred``."""
        best = None
        for item in candidates.items():
            if item[0][0] in barred:
                continue
            if best is None or self._rank(item) > self._rank(best):
                best = item
        return None if best is None else best[1]

    def _rank(self, item: tuple[tuple[str, str], VpnRoute]) -> tuple[int, int]:
        """Tie-break between origins of one prefix: the later PE, then the
        later VRF on it (-1 for one no longer there) — the order a full
        converge imports in, so the incremental winner is the same."""
        origin, vrf_name = item[0]
        names = list(self._pe_by_name[origin].vrfs)
        return self._pe_pos[origin], names.index(vrf_name) if vrf_name in names else -1

    def _offers(
        self, rts: frozenset[RouteTarget], prefixes: Sequence[Prefix] | None = None
    ) -> dict:
        """Prefix -> origins under ``rts`` (of ``prefixes`` only, if given):
        one RT reads the RT index's own dict, several merge a copy."""
        if len(rts) == 1:
            (rt,) = rts
            return self._rt_index.get(rt, {})
        merged: dict[Prefix, dict[tuple[str, str], VpnRoute]] = {}
        for rt in rts:
            by_prefix = self._rt_index.get(rt, {})
            for prefix in by_prefix.keys() if prefixes is None else by_prefix.keys() & prefixes:
                merged.setdefault(prefix, {}).update(by_prefix[prefix])
        return merged

    @staticmethod
    def _state_of(pe: PeRouter, vrf: Vrf) -> tuple:
        """What :attr:`_synced` remembers of a VRF — the one definition of
        the record, for the compare in ``converge`` and for every writer."""
        return (vrf, vrf.generation, vrf.local_generation, vrf.rd,
                vrf.export_rts, vrf.import_rts, vrf.vpn_label, pe.loopback)

    def _reselect(
        self,
        key: tuple[str, str],
        vrf: Vrf,
        rts: frozenset[RouteTarget],
        prefixes: Sequence[Prefix] | None,
        result: BgpResult,
    ) -> None:
        """The one import writer: make the entry of each of ``prefixes`` (in
        the order given; ``None``: every prefix offered or held) the winner
        offered under ``rts``, or no entry when nothing is, and never write
        over a local.  A drained PE is offered nothing (``rts`` empty).

        Each prefix is decided in one step.  An origin is eligible unless
        its PE is drained or is the importer itself (``barred``, the one
        statement of that rule): one origin is the winner when eligible, and
        only two or more go to :meth:`_pick_winner`.  When nothing is
        offered, one pass removes every held import of ``todo``."""
        table = vrf.entries()
        local = vrf.local_routes()
        offers = self._offers(rts, prefixes)
        if prefixes is None:     # offered ones as the RT index holds them, then the rest
            todo: Sequence[Prefix] = [*offers, *[p for p in table if p not in offers]]
        else:
            todo = prefixes
        exported = self._rib.get(key, {})
        adds: list[tuple[Prefix, VpnRoute]] = []
        if not offers:
            dels = [p for p in todo if p in table and p not in local]
            if not exported.keys() >= local.keys() & todo:
                self._synced.pop(key, None)     # a local not yet advertised, as below
        else:
            dels = []
            barred = self._down | {key[0]}
            for prefix in todo:
                if prefix in local:
                    if prefix not in exported:
                        # A local the Adj-RIB-Out has not seen: if it goes
                        # before it is advertised, no delta re-examines this
                        # prefix, so the record can no longer vouch for it.
                        self._synced.pop(key, None)
                    continue
                winner = None
                if prefix in offers:
                    origins = offers[prefix]
                    if len(origins) == 1:
                        ((origin, _), winner), = origins.items()
                        if origin in barred:
                            winner = None
                    else:
                        winner = self._pick_winner(barred, origins)
                have = table[prefix] if prefix in table else None
                if winner is None:
                    if have is not None:
                        dels.append(prefix)
                elif have != winner:
                    adds.append((prefix, winner))
        if not adds and not dels:
            return
        # A table in step with its record stays in step across the engine's
        # own writes; one somebody else wrote to keeps reading as changed.
        seen = self._synced.get(key)
        in_step = seen is not None and seen[0] is vrf and seen[1] == vrf.generation
        if dels:
            result.routes_removed += vrf.remove_many(dels)
        if adds:
            result.routes_imported += vrf.add_remote_many(adds)
        if in_step:
            self._synced[key] = (vrf, vrf.generation, *seen[2:])

    def _resync_imports_for(
        self,
        changed: Sequence[VpnRoute],
        result: BgpResult,
        origin: tuple[str, Vrf] | None = None,
        skip: frozenset[Vrf] = frozenset(),
    ) -> None:
        """Targeted import recompute: only the VRFs filed under a changed
        route's RT (:meth:`importers`), only the changed prefixes.  ``origin``,
        ``(pe name, VRF)`` of ``export_delta``, is re-examined on every changed
        prefix whatever it imports (a hub-and-spoke spoke imports ``rt_hub``
        only, yet a local it gains shadows an import and one it loses uncovers
        one).  ``skip``: VRFs the caller syncs itself."""
        if not changed:
            return
        prefixes_by_rt: dict[RouteTarget, set[Prefix]] = {}
        for route in changed:
            for rt in route.route_targets:
                prefixes_by_rt.setdefault(rt, set()).add(route.prefix)
        # Each changed-prefix set is sorted once and the list shared by every
        # VRF that imports it; a union is a new list for its VRF alone.
        visits: dict[tuple[str, str], tuple[Vrf, list[Prefix]]] = {}
        if origin is not None:
            visits[origin[0], origin[1].name] = (origin[1], sorted({r.prefix for r in changed}))
        index, pes, down = self.importers(), self._pe_by_name, self._down
        for rt, prefixes in prefixes_by_rt.items():
            ordered = sorted(prefixes)
            for key, vrf in index.get(rt, {}).items():
                if key[0] in down or vrf in skip or pes[key[0]].vrfs.get(key[1]) is not vrf:
                    continue        # drained, synced by the caller, or stale
                seen = visits.get(key)
                visits[key] = (vrf, ordered if seen is None else sorted({*seen[1], *prefixes}))
        for key, (vrf, prefixes) in visits.items():
            self._reselect(key, vrf, self._policy(key, vrf), prefixes, result)

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------
    def converge(self) -> BgpResult:
        """Resync exports and imports against the Adj-RIB.

        On a fresh engine this is the classic full convergence;
        re-running it on an unchanged network is a no-op — zero updates,
        zero installs, VRF generations untouched.  In between it costs
        what moved: a VRF that is new, or differs from the engine's record
        of it (:attr:`_synced` — its table or its policy was written, by
        anyone), has its exports re-read and its imports synced wholesale;
        every other VRF is re-examined only on the prefixes those
        advertised or withdrew, like after any delta.
        """
        result = BgpResult(sessions=self.session_count())
        if not self._sessions_counted:
            self.net.counters.incr("bgp.sessions", result.sessions)
            self._sessions_counted = True
        advertised: list[VpnRoute] = []
        withdrawn: list[VpnRoute] = []
        up = [pe for pe in self.pes if pe.name not in self._down]
        live_keys = {(pe.name, name) for pe in up for name in pe.vrfs}
        synced = self._synced
        moved: list[tuple[PeRouter, Vrf]] = []
        for pe in up:
            pe_name = pe.name
            for name, vrf in pe.vrfs.items():
                if synced.get((pe_name, name)) != self._state_of(pe, vrf):
                    moved.append((pe, vrf))
                    self._sync_exports(pe, vrf, advertised, withdrawn)
        for key in [
            k for k in self._rib if k not in live_keys and k[0] not in self._down
        ]:
            withdrawn.extend(self._retract_key(key))
        result.exported = advertised
        result.routes_exported = len(advertised)
        result.routes_withdrawn = len(withdrawn)
        self._count_updates(advertised, withdrawn, result)

        if len(moved) < len(live_keys):
            self._resync_imports_for(
                advertised + withdrawn, result,
                skip=frozenset(vrf for _, vrf in moved),
            )
        for pe, vrf in moved:
            key = (pe.name, vrf.name)
            self._reselect(key, vrf, vrf.import_rts, None, result)
            synced[key] = self._state_of(pe, vrf)
            self._file(key, vrf)
        self._tally(result)
        return result

    def export_delta(self, pe: PeRouter, vrf: Vrf | str) -> BgpResult:
        """Propagate one VRF's local-route changes to affected VRFs only.

        ``vrf`` must be one of ``pe``'s VRFs (the object, or its name);
        anything else is a :class:`ValueError` before anything is written.
        When every write to the VRF since the engine's record of it was
        local-only (:attr:`Vrf.local_generation`), the delta leaves it in
        sync — its exports re-read, its imports re-examined on every prefix
        they moved — and writes the record anew, so the next ``converge()``
        does not re-read it.
        """
        if pe.name not in self._pe_by_name:
            raise ValueError(f"{pe.name} is not in this BGP mesh")
        if pe.name in self._down:
            raise ValueError(f"{pe.name} is drained; peer_up() it first")
        name = vrf if isinstance(vrf, str) else vrf.name
        found = pe.vrfs.get(name)
        if found is None or (found is not vrf and not isinstance(vrf, str)):
            raise ValueError(f"vrf: {vrf!r} is not a VRF of {pe.name}")
        vrf = found
        key = (pe.name, name)
        seen = self._synced.get(key)
        state = self._state_of(pe, vrf)
        fresh = seen is None or seen[0] is not vrf
        local_only = (
            not fresh and seen[3:] == state[3:]
            and state[1] - seen[1] == state[2] - seen[2]
        )
        result = BgpResult(sessions=self.session_count())
        advertised: list[VpnRoute] = []
        withdrawn: list[VpnRoute] = []
        self._sync_exports(pe, vrf, advertised, withdrawn)
        result.exported = advertised
        result.routes_exported = len(advertised)
        result.routes_withdrawn = len(withdrawn)
        self._count_updates(advertised, withdrawn, result)
        self._resync_imports_for(advertised + withdrawn, result, origin=(pe.name, vrf))
        if fresh:
            # First sync for this VRF: route-refresh its imports so it
            # catches up on NLRI advertised before it existed.
            self._reselect(key, vrf, vrf.import_rts, None, result)
            self._file(key, vrf)
        if fresh or local_only:
            self._synced[key] = self._state_of(pe, vrf)
        self._tally(result)
        return result

    def withdraw(
        self,
        pe: PeRouter,
        vrf: Vrf | str | None = None,
        site: int | None = None,
    ) -> BgpResult:
        """Retract advertisements: a whole VRF's, one site's, or all of
        ``pe``'s.  Local routes are untouched — this is the control-plane
        half of de-provisioning (the provisioner removes the locals); ones
        still there at the next :meth:`converge` are advertised again."""
        if pe.name not in self._pe_by_name:
            raise ValueError(f"{pe.name} is not in this BGP mesh")
        vrf_name = vrf.name if isinstance(vrf, Vrf) else vrf
        result = BgpResult(sessions=self.session_count())
        withdrawn: list[VpnRoute] = []
        for key in [k for k in self._rib if k[0] == pe.name]:
            if vrf_name is not None and key[1] != vrf_name:
                continue
            current = self._rib[key]
            doomed = [
                p for p, r in current.items()
                if site is None or r.origin_site == site
            ]
            for prefix in doomed:
                route = current.pop(prefix)
                self._unindex(key, route)
                withdrawn.append(route)
            if not current:
                del self._rib[key]
            if doomed:
                # The locals are still there: the Adj-RIB no longer holds
                # what the record says, so the next converge() re-reads.
                self._synced.pop(key, None)
        if pe.name in self._down:
            return result   # its peers dropped these at peer_down: nobody to tell
        result.routes_withdrawn = len(withdrawn)
        self._count_updates((), withdrawn, result)
        self._resync_imports_for(withdrawn, result)
        self._tally(result)
        return result

    def forget_vrf(self, pe: PeRouter | str, vrf_name: str) -> None:
        """Drop all bookkeeping for a VRF being deleted (no messages)."""
        pe_name = pe if isinstance(pe, str) else pe.name
        key = (pe_name, vrf_name)
        if self._rib.get(key):
            raise ValueError(f"{key} still has advertisements; withdraw first")
        self._rib.pop(key, None)
        self._synced.pop(key, None)
        self._file(key, None)

    def peer_down(self, pe: PeRouter | str) -> BgpResult:
        """PE maintenance drain: sessions to ``pe`` go down, its routes
        are implicitly withdrawn everywhere, and its VRFs, offered nothing,
        lose their BGP-learned imports.  The Adj-RIB keeps the PE's exports so
        :meth:`peer_up` can re-advertise without re-exporting."""
        name = pe if isinstance(pe, str) else pe.name
        if name not in self._pe_by_name:
            raise ValueError(f"{name} is not in this BGP mesh")
        if name in self._rr_cluster_of:
            raise ValueError(f"cannot drain route reflector {name}")
        result = BgpResult(sessions=self.session_count())
        if name in self._down:
            return result
        routes = [
            r for key, rib in self._rib.items() if key[0] == name
            for r in rib.values()
        ]
        # Implicit withdraw: peers detect the session loss themselves,
        # only reflection legs cost messages.  Costed before the drain so
        # the fan-out uses the still-up topology.
        self._count_updates((), routes, result, implicit=True)
        self._down.add(name)
        self._prop_cache.clear()
        self.net.counters.incr("bgp.sessions_down", len(
            [n for n in self._neighbors[name] if n not in self._down]
        ))
        self._resync_imports_for(routes, result)
        # The drained PE's own VRFs lose everything they learned: a drained
        # PE is offered nothing.
        for vrf in self._pe_by_name[name].vrfs.values():
            self._reselect((name, vrf.name), vrf, frozenset(), None, result)
        self._tally(result)
        return result

    def peer_up(self, pe: PeRouter | str) -> BgpResult:
        """Bring a drained PE back: re-establish its sessions, bring its
        Adj-RIB up to date with its VRFs' locals, re-advertise it, and
        refresh its VRFs from the mesh under the import policy they hold
        now, recorded in :attr:`_synced` as a converge() would record it."""
        name = pe if isinstance(pe, str) else pe.name
        if name not in self._pe_by_name:
            raise ValueError(f"{name} is not in this BGP mesh")
        result = BgpResult(sessions=self.session_count())
        if name not in self._down:
            return result
        self._down.discard(name)
        self._prop_cache.clear()
        up_peers = [n for n in self._neighbors[name] if n not in self._down]
        self.net.counters.incr("bgp.sessions", len(up_peers))
        node = self._pe_by_name[name]
        # Locals that changed behind the drained PE never left it: re-read
        # them first.  What they retract costs no message — the peers
        # dropped everything of this PE's when its sessions went down.
        for vrf in node.vrfs.values():
            self._sync_exports(node, vrf, [], [])
        routes = [
            r for key, rib in self._rib.items() if key[0] == name
            for r in rib.values()
        ]
        result.routes_exported = len(routes)
        result.exported = list(routes)
        self._count_updates(routes, (), result)
        self._resync_imports_for(routes, result)
        # Route refresh toward the returning PE: each visible foreign NLRI
        # is delivered once over the re-established sessions.
        refresh = sum(
            len(rib) for key, rib in self._rib.items()
            if key[0] != name and key[0] not in self._down
        )
        result.updates_sent += refresh
        # Converged as a fresh build would converge it: under the policy each
        # VRF holds now (a converge() while it was away skipped it), recorded.
        for vrf in node.vrfs.values():
            key = (name, vrf.name)
            self._reselect(key, vrf, vrf.import_rts, None, result)
            self._synced[key] = self._state_of(node, vrf)
            self._file(key, vrf)
        self._tally(result)
        return result

    # ------------------------------------------------------------------
    def _tally(self, result: BgpResult) -> None:
        counters = self.net.counters
        if result.updates_sent:
            counters.incr("bgp.updates", result.updates_sent)
        if result.updates_suppressed:
            counters.incr("bgp.updates_suppressed", result.updates_suppressed)
        if result.routes_imported:
            counters.incr("bgp.routes_imported", result.routes_imported)
        if result.routes_removed:
            counters.incr("bgp.routes_removed", result.routes_removed)
        if result.routes_withdrawn:
            counters.incr("bgp.routes_withdrawn", result.routes_withdrawn)

    @property
    def drained(self) -> frozenset[str]:
        return frozenset(self._down)

    @property
    def reflectors(self) -> frozenset[str]:
        """All route-reflector PE names, across clusters."""
        return frozenset(self._rr_cluster_of)

    def fanout(self, origin: str) -> tuple[int, int]:
        """(UPDATEs sent, UPDATEs loop-suppressed) for one advertisement
        from ``origin`` under the configured session topology — the E9e /
        E15 per-route message cost."""
        _, sent, suppressed = self._propagate(origin)
        return sent, suppressed

    def adj_rib_size(self) -> int:
        """Total advertised NLRI across all origins (state census)."""
        return sum(map(len, self._rib.values()))
