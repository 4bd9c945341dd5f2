"""Link-state shortest-path routing (converged-OSPF model).

Rather than simulating LSA flooding packet-by-packet, :func:`converge`
computes what a converged OSPF domain would have computed — per-router
shortest-path trees over the configured metrics — and writes the
resulting routes into every router's FIB.  This is the standard modeling
shortcut for steady-state studies and it keeps the data-plane experiments
unconfounded by IGP transients.

The paper's claim C2 hinges on a *property* of this protocol family: the
metric is static, so the IGP cannot route around load.  :func:`converge`
therefore takes no notice of traffic — by design.  Constraint-based routing
that does see residual bandwidth lives in :mod:`repro.mpls.te`.

Customer equipment (``node.domain != domain``) is excluded: its addresses
may overlap between customers and must never enter the provider IGP
(claim C5); reachability for them is the VPN layer's job.

All graph work runs on the network's cached
:class:`~repro.routing.spf_core.DomainView` (integer-indexed,
generation-stamped) — the one topology read-model, which CSPF, IntServ
admission and the fluid plane route on too.  One builder, :func:`_routes`,
says which routes a router should hold; one writer, :func:`_reconverge_impl`,
writes the difference from the IGP routes a router holds.  :func:`converge`
runs it over every router, :func:`reconverge` over the routers a topology
change can touch, and :func:`repro.control.converge_all` runs the latter,
LDP and MP-BGP as one chain.  FIB contents are bit-identical to the
reference implementation (``tests/reference/routing.py``, held by
``tests/test_spf_parity.py``).
"""

from __future__ import annotations

from math import inf
from time import perf_counter
from typing import TYPE_CHECKING

from repro.net.address import Prefix
from repro.routing.fib import RouteEntry
from repro.routing.router import Router
from repro.routing.spf_core import (
    TIE_EPS,
    SpfState,
    costs_equal,
    first_hop_array,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (topology -> routing)
    from repro.routing.spf_core import DomainView
    from repro.topology import Network

__all__ = ["converge", "spf_paths", "advertised_prefixes"]

#: The provenances the IGP writes: the only routes :func:`reconverge` may
#: withdraw (static / BGP / bench routes are someone else's).
_IGP_SOURCES = ("spf", "connected")


def advertised_prefixes(router: "Router") -> list[Prefix]:
    """Prefixes ``router`` contributes to the IGP.

    Loopback host route + connected link subnets + explicitly injected
    prefixes (access subnets for hosts it fronts).
    """
    out: list[Prefix] = []
    if router.loopback is not None:
        out.append(Prefix.of(router.loopback, 32))
    out.extend(router.connected_prefixes)
    out.extend(router.advertised_prefixes)
    return out


def _routes(
    view: "DomainView", ecmp: bool, sources: list[int], prefixes: list[list[Prefix]]
) -> list[list[tuple[Prefix, RouteEntry]]]:
    """Each listed router's connected and IGP routes, in install order.

    One ``(prefix, entry)`` batch per index of ``sources``: the connected
    subnets, then every reachable router's prefixes.  Destinations come in
    the reference implementation's order — Dijkstra *discovery order* for a
    single path, ``Network.nodes`` order for ECMP — because a prefix
    advertised by several routers (a link /30) resolves last-writer-wins;
    the duplicates stay in the batch, and :func:`converge` counts them.

    With ``ecmp`` a route holds every equal-cost first hop: the neighbours
    ``v`` with ``metric(S, v) + dist_D(v) == dist_D(S)``, the standard OSPF
    multipath condition, the lowest-named one as primary.  Metrics are
    symmetric (one per view edge), so the tree rooted at each destination
    serves every source.
    """
    n = len(view.names)
    batches = []
    for si in sources:
        cp = view.routers[si].connected_prefixes
        batch = [
            (subnet, RouteEntry(ifname, None, 0.0, "connected"))
            for subnet, ifname in cp.items()
        ]
        nbr = view.nbr[si]
        if ecmp:
            adj = view.adj[si]
            for di in view.order_idx:
                dist = view.spf(di)[0]
                ds = dist[si]
                if di == si or ds == inf:
                    continue
                (out_if, nh), *alts = [
                    nbr[v][1:] for v, w in adj
                    if dist[v] != inf and costs_equal(w + dist[v], ds)
                ]
                entry = RouteEntry(out_if, nh, ds, "spf", alternates=tuple(alts))
                for prefix in prefixes[di]:
                    if prefix not in cp:
                        batch.append((prefix, entry))
        else:
            dist, pred, disc = view.spf(si)
            fh = first_hop_array(pred, disc, si, n)
            for k in range(1, len(disc)):
                v = disc[k]
                info = nbr[fh[v]]
                entry = RouteEntry(info[1], info[2], dist[v], "spf")
                for prefix in prefixes[v]:
                    if prefix not in cp:  # already covered by the connected route
                        batch.append((prefix, entry))
        batches.append(batch)
    return batches


def converge(net: "Network", domain: str = "core", ecmp: bool = False) -> int:
    """Forget the domain's record and run the writer over every in-domain
    router, so a route no longer implied is withdrawn and a later
    :func:`reconverge` keeps the mode.  Returns the write count a full
    install implies, whatever the FIBs held: every route, a link /30 once
    per router that advertises it (the parity suite's count).

    Deterministic: equal-cost ties break toward the lexicographically
    smallest next-hop router name.  With ``ecmp=True`` every equal-cost
    first hop is installed instead (the lowest-named one as primary, the
    rest as alternates) and routers spread *flows* across them by 5-tuple
    hash.
    """
    net._spf_state.pop(domain, None)
    return _reconverge_impl(net, domain, ecmp)[1]


def reconverge(net: "Network", domain: str = "core") -> int:
    """Recompute the IGP after a topology change in the recorded mode, and
    publish ``spf.reconverge`` (``domain``, ``installs``, ``wall_s``), timed
    only when someone listens; see :func:`_reconverge_impl`."""
    trace = net.trace
    if not trace.active("spf.reconverge"):
        return _reconverge_impl(net, domain)[0]
    t0 = perf_counter()
    installs = _reconverge_impl(net, domain)[0]
    trace.publish("spf.reconverge", net.sim.now, domain=domain, installs=installs,
                  wall_s=perf_counter() - t0)
    return installs


def _reconverge_impl(net: "Network", domain: str = "core",
                     ecmp: bool | None = None) -> tuple[int, int]:
    """Recompute the IGP after a topology change (link failure/restore).

    Models the end state of an SPF re-run triggered by LSA flooding.  The
    *time* reconvergence takes (hello/dead timers + SPF delay) is an
    experiment parameter, not simulated here — the resilience experiment
    applies it as a delay before calling this.

    Each selected router's routes are built by :func:`_routes` and diffed
    against the IGP routes its FIB holds: what should no longer be there is
    withdrawn, what changed is installed; returns those installs and the
    size of the diffed routers' batches.  The result always equals a flush
    of every ``spf`` / ``connected`` route followed by :func:`converge`
    (``tests/test_reconverge_incremental.py``).  ``ecmp`` defaults to the
    recorded mode.

    Which routers are diffed: with the router names and prefixes of the
    last convergence and at most one new edge, a single-path domain diffs
    only the sources whose shortest-path trees the edge change can touch
    (:func:`_touched`).  Anything else — ECMP, membership or prefix change,
    several new edges, no convergence yet — diffs every router.  An edge
    is its metric *and* the link the view chose for the adjacency, so
    failing one of two equal-metric parallel links moves the routes onto
    the other.

    Cache contract: a FIB's generation moves iff its contents changed, so
    the data plane's generation-guarded flow caches revalidate exactly
    where forwarding could differ.
    """
    state: SpfState | None = net._spf_state.get(domain)
    view = net.domain_view(domain)
    prefixes = [advertised_prefixes(r) for r in view.routers]
    if ecmp is None:
        ecmp = state is not None and state.ecmp
    touched: list[int] | None = None
    if state is not None and state.names == view.names and state.prefixes == prefixes:
        if state.edges == view.edges:
            return 0, 0
        removed = [key for key, e in state.edges.items() if view.edges.get(key) != e]
        added = [(key, e[0]) for key, e in view.edges.items() if state.edges.get(key) != e]
        # Several new edges can enable each other (chained improvements);
        # the single-edge test of _touched is only sound alone.
        if not ecmp and len(added) <= 1:
            touched = _touched(state, removed, added)
    sources = view.order_idx if touched is None else touched
    installs = size = 0
    for si, batch in zip(sources, _routes(view, ecmp, sources, prefixes)):
        fib = view.routers[si].fib
        size += len(batch)
        want = dict(batch)
        have = {p: e for p, e in fib.routes() if e.source in _IGP_SOURCES}
        fib.withdraw_many([p for p in have if p not in want])
        installs += fib.install_many([(p, e) for p, e in want.items() if have.get(p) != e])
    if touched is None:
        net._spf_state[domain] = SpfState(
            ecmp, view.names, dict(view.edges), prefixes, dict(view._spf))
    else:
        # The trees of the untouched sources still hold; the view memoized
        # the recomputed ones.
        state.edges = dict(view.edges)
        state.spf.update(view._spf)
    return installs, size


def _touched(
    state: SpfState, removed: list[tuple[int, int]], added: list[tuple[tuple[int, int], float]]
) -> list[int]:
    """The sources whose last shortest-path tree an edge change can move.

    A tree is its distances and predecessors *and* its discovery order,
    since a prefix advertised by two routers (a link /30) resolves toward
    the one discovered last.  Dijkstra discovers a node from the first of
    its neighbours to pop, the least ``(dist, index)``, whether or not that
    neighbour lies on a shortest path.  So a removed edge moves a tree that
    used it (``pred`` crosses it; an equal-cost edge off the tree moves
    neither a distance nor the lexicographic winner) or that discovered an
    end across it.  The one added edge moves a tree it can enter (it
    improves or ties a distance, or reaches past the old frontier) or in
    which it would discover an end first.
    """
    # The old neighbours of each changed edge's ends.
    around = {x: [] for key in removed + [key for key, _w in added] for x in key}
    for u, v in state.edges:
        if u in around:
            around[u].append(v)
        if v in around:
            around[v].append(u)
    touched: list[int] = []
    for si in range(len(state.names)):
        dist, pred, _disc = state.spf[si]
        hit = False
        for u, v in removed:
            if dist[u] != inf and (pred[u] == v or pred[v] == u
                                   or _first(dist, around[v])[1] == u
                                   or _first(dist, around[u])[1] == v):
                hit = True
                break
        for (u, v), w in added:
            du, dv = dist[u], dist[v]
            if du != inf and dv != inf:
                hit = (hit or du + w <= dv + TIE_EPS or dv + w <= du + TIE_EPS
                       or (du, u) < _first(dist, around[v])
                       or (dv, v) < _first(dist, around[u]))
            else:
                hit = hit or du != inf or dv != inf
        if hit:
            touched.append(si)
    return touched


def _first(dist, nodes: list[int]) -> tuple[float, int]:
    """The ``(dist, index)`` of whichever of ``nodes`` pops first."""
    best = (inf, -1)
    for x in nodes:
        if (dist[x], x) < best:
            best = (dist[x], x)
    return best


def spf_paths(net: "Network", src: str, dst: str, domain: str = "core") -> list[str]:
    """The deterministic shortest path ``src → dst`` as a node-name list
    (:class:`~repro.routing.spf_core.NoPathError` when there is none)."""
    view = net.domain_view(domain)
    names = view.names
    return [names[i] for i in view.route(src, dst)]
