"""Reference (pre-fast-path) control-plane implementations.

These are the straight-line implementations of SPF convergence and LDP
distribution as they existed before the control-plane fast path: a
path-tuple-keyed Dijkstra, a networkx graph rebuilt on every call, one
``fib.install`` per route, and a ``reconverge`` that flushes and
recomputes the whole domain.

They are kept as the parity oracle: ``tests/test_spf_parity.py`` asserts
the fast path in :mod:`repro.routing.spf` / :mod:`repro.mpls.ldp` produces
bit-identical FIB/LFIB/FTN contents on the same topologies.

Nothing in the library imports this module, and it writes a table only
through the public ``Fib.install`` / ``Fib.withdraw``: how a table indexes
its routes is :mod:`repro.routing.fib`'s business alone.  Keep the
algorithms faithful to the old semantics rather than clean or fast.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import networkx as nx

from repro.mpls.label import EXPLICIT_NULL, IMPLICIT_NULL
from repro.mpls.ldp import LdpResult
from repro.mpls.lfib import LabelOp, LfibEntry, Nhlfe
from repro.mpls.lsr import Lsr
from repro.net.address import IPv4Address, Prefix
from repro.routing.fib import RouteEntry
from repro.routing.router import Router
from repro.routing.spf import advertised_prefixes

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology import DuplexLink, Network

__all__ = [
    "converge_reference",
    "reconverge_reference",
    "run_ldp_reference",
    "deterministic_dijkstra_reference",
    "domain_graph_reference",
    "cspf_reference",
    "clear_routes_reference",
]


def clear_routes_reference(
    router: Router, sources: tuple[str, ...] = ("spf", "connected")
) -> int:
    """Pre-PR ``clear_routes``: one withdraw per route."""
    removed = 0
    for prefix, entry in list(router.fib.routes()):
        if entry.source in sources:
            router.fib.withdraw(prefix)
            removed += 1
    return removed


def domain_graph_reference(net: "Network", domain: str) -> nx.Graph:
    g = nx.Graph()
    for name, node in net.nodes.items():
        if isinstance(node, Router) and node.domain == domain:
            g.add_node(name)
    for dl in net.duplex_links:
        if not (dl.link_ab.up and dl.link_ba.up):
            continue  # failed links leave the topology (what flooding learns)
        if dl.a.name in g and dl.b.name in g:
            # Parallel links: keep the lowest metric (nx.Graph is simple).
            if g.has_edge(dl.a.name, dl.b.name):
                if g[dl.a.name][dl.b.name]["metric"] <= dl.metric:
                    continue
            g.add_edge(dl.a.name, dl.b.name, metric=dl.metric, duplex=dl)
    return g


def _egress_towards_reference(dl: "DuplexLink", src_name: str) -> tuple[str, IPv4Address]:
    """(out_ifname, next_hop_addr) via a linear scan of the peer's addresses."""
    if dl.a.name == src_name:
        for addr, ifname in dl.b.addresses.items():
            if ifname == dl.if_ba.name:
                return dl.if_ab.name, addr
    else:
        for addr, ifname in dl.a.addresses.items():
            if ifname == dl.if_ab.name:
                return dl.if_ba.name, addr
    raise RuntimeError(f"no peer address on duplex link {dl.a.name}-{dl.b.name}")


def deterministic_dijkstra_reference(
    g: nx.Graph, src: str
) -> tuple[dict[str, float], dict[str, list[str]]]:
    """Dijkstra with lexicographic tie-breaking on path-tuple heap keys."""
    import heapq

    dist: dict[str, float] = {src: 0.0}
    paths: dict[str, list[str]] = {src: [src]}
    heap: list[tuple[float, tuple[str, ...], str]] = [(0.0, (src,), src)]
    done: set[str] = set()
    while heap:
        d, path_key, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        paths[u] = list(path_key)
        for v in sorted(g.neighbors(u)):
            if v in done:
                continue
            nd = d + g[u][v]["metric"]
            if v not in dist or nd < dist[v] - 1e-12 or (
                abs(nd - dist[v]) <= 1e-12 and path_key + (v,) < tuple(paths.get(v, ()))
            ):
                dist[v] = nd
                paths[v] = list(path_key) + [v]
                heapq.heappush(heap, (nd, path_key + (v,), v))
    return dist, paths


def cspf_reference(
    net: "Network",
    domain: str,
    reserved: dict[tuple[str, str], float],
    subscription: float,
    src: str,
    dst: str,
    bandwidth_bps: float,
    avoid_nodes=(),
    avoid_links=(),
) -> list[str] | None:
    """CSPF as ``TrafficEngineering.cspf`` computed it on networkx: a
    directed residual graph pruned per arc, then the path-tuple Dijkstra.
    A link's capacity is the rate of the link the graph holds for the pair
    (live, lowest metric), times ``subscription``."""
    base = domain_graph_reference(net, domain)
    avoid_n = set(avoid_nodes)
    avoid_l = {frozenset(l) for l in avoid_links}
    dg = nx.DiGraph()
    dg.add_nodes_from(n for n in base.nodes if n not in avoid_n)
    for u, v, data in base.edges(data=True):
        if u in avoid_n or v in avoid_n or frozenset((u, v)) in avoid_l:
            continue
        capacity = data["duplex"].rate_bps * subscription
        for x, y in ((u, v), (v, u)):
            if capacity - reserved.get((x, y), 0.0) >= bandwidth_bps:
                dg.add_edge(x, y, metric=data["metric"])
    if src not in dg or dst not in dg:
        return None
    _dist, paths = deterministic_dijkstra_reference(dg, src)
    path = paths.get(dst)
    if path is None or len(path) < 2:
        return None
    return path


def converge_reference(net: "Network", domain: str = "core", ecmp: bool = False) -> int:
    """Per-source Dijkstra with one ``fib.install`` per route (pre-PR shape)."""
    if ecmp:
        return _converge_ecmp_reference(net, domain)
    g = domain_graph_reference(net, domain)
    routers = {
        name: net.nodes[name] for name in g.nodes
    }
    installed = 0
    for src_name, src in routers.items():
        assert isinstance(src, Router)
        # Connected routes first (most specific provenance).
        for subnet, ifname in src.connected_prefixes.items():
            src.fib.install(subnet, RouteEntry(ifname, None, 0.0, "connected"))
            installed += 1
        dist, paths = deterministic_dijkstra_reference(g, src_name)
        for dst_name, path in paths.items():
            if dst_name == src_name or len(path) < 2:
                continue
            nh_name = path[1]
            dl = g[src_name][nh_name]["duplex"]
            out_ifname, nh_addr = _egress_towards_reference(dl, src_name)
            dst = routers[dst_name]
            assert isinstance(dst, Router)
            for prefix in advertised_prefixes(dst):
                if prefix in src.connected_prefixes:
                    continue  # already covered by the connected route
                src.fib.install(
                    prefix, RouteEntry(out_ifname, nh_addr, dist[dst_name], "spf")
                )
                installed += 1
    return installed


def _converge_ecmp_reference(net: "Network", domain: str) -> int:
    """Pre-PR ECMP converge: one destination-rooted Dijkstra per destination."""
    g = domain_graph_reference(net, domain)
    routers = {name: net.nodes[name] for name in g.nodes}
    installed = 0
    for src in routers.values():
        assert isinstance(src, Router)
        for subnet, ifname in src.connected_prefixes.items():
            src.fib.install(subnet, RouteEntry(ifname, None, 0.0, "connected"))
            installed += 1
    for dst_name, dst in routers.items():
        assert isinstance(dst, Router)
        dist, _paths = deterministic_dijkstra_reference(g, dst_name)
        prefixes = advertised_prefixes(dst)
        for src_name, src in routers.items():
            assert isinstance(src, Router)
            if src_name == dst_name or src_name not in dist:
                continue
            candidates: list[tuple[str, IPv4Address]] = []
            for v in sorted(g.neighbors(src_name)):
                if v not in dist:
                    continue
                if abs(g[src_name][v]["metric"] + dist[v] - dist[src_name]) <= 1e-12:
                    dl = g[src_name][v]["duplex"]
                    out_ifname, nh_addr = _egress_towards_reference(dl, src_name)
                    candidates.append((out_ifname, nh_addr))
            if not candidates:
                continue
            (primary_if, primary_nh), *alts = candidates
            for prefix in prefixes:
                if prefix in src.connected_prefixes:
                    continue
                src.fib.install(
                    prefix,
                    RouteEntry(primary_if, primary_nh, dist[src_name], "spf",
                               alternates=tuple(alts)),
                )
                installed += 1
    return installed


def reconverge_reference(net: "Network", domain: str = "core") -> int:
    """Pre-PR reconverge: flush every in-domain FIB, recompute from scratch."""
    g = domain_graph_reference(net, domain)
    for name in g.nodes:
        node = net.nodes[name]
        if isinstance(node, Router):
            clear_routes_reference(node)
    return converge_reference(net, domain)


def run_ldp_reference(
    net: "Network",
    fecs: list[Prefix] | None = None,
    domain: str = "core",
    php: bool = True,
    use_explicit_null: bool = False,
) -> LdpResult:
    """Pre-PR LDP: one Dijkstra per (FEC, node), immediate LFIB installs."""
    if php and use_explicit_null:
        raise ValueError("php and explicit-null are mutually exclusive")

    g = domain_graph_reference(net, domain)
    lsrs: dict[str, Lsr] = {
        name: net.nodes[name]  # type: ignore[misc]
        for name in g.nodes
        if isinstance(net.nodes[name], Lsr)
    }
    result = LdpResult()
    session_pairs = [
        (u, v) for u, v in g.edges if u in lsrs and v in lsrs
    ]
    result.sessions = len(session_pairs)
    net.counters.incr("ldp.sessions", len(session_pairs))

    if fecs is None:
        fecs = []
        for lsr in lsrs.values():
            if lsr.loopback is not None:
                fecs.append(Prefix.of(lsr.loopback, 32))
            fecs.extend(sorted(lsr.advertised_prefixes))

    owner_of: dict[Prefix, str] = {}
    for name, lsr in lsrs.items():
        if lsr.loopback is not None:
            owner_of[Prefix.of(lsr.loopback, 32)] = name
        for p in lsr.connected_prefixes:
            owner_of.setdefault(p, name)
        for p in lsr.advertised_prefixes:
            owner_of.setdefault(p, name)

    for fec in fecs:
        egress_name = owner_of.get(fec)
        if egress_name is None:
            continue  # FEC not originated by an LSR in this domain
        bindings = _distribute_one_reference(
            net, g, lsrs, fec, egress_name, php, use_explicit_null, result
        )
        result.bindings[fec] = bindings
        msgs = sum(
            1
            for u, v in session_pairs
            for end in (u, v)
            if end in bindings or end == egress_name
        )
        result.mapping_messages += msgs
        net.counters.incr("ldp.mapping_msgs", msgs)
    net.trace.publish(
        "ldp.converged",
        net.sim.now,
        sessions=result.sessions,
        mapping_messages=result.mapping_messages,
        lfib_entries=result.lfib_entries,
        ftn_entries=result.ftn_entries,
        fecs=len(result.bindings),
    )
    return result


def _distribute_one_reference(
    net: "Network",
    g,
    lsrs: dict[str, Lsr],
    fec: Prefix,
    egress_name: str,
    php: bool,
    use_explicit_null: bool,
    result: LdpResult,
) -> dict[str, int]:
    egress = lsrs[egress_name]
    bindings: dict[str, int] = {}

    if php:
        bindings[egress_name] = IMPLICIT_NULL
    elif use_explicit_null:
        bindings[egress_name] = EXPLICIT_NULL
        egress.lfib.install(
            EXPLICIT_NULL, LfibEntry(LabelOp.POP_PROCESS, lsp_id=f"ldp:{fec}")
        )
        result.lfib_entries += 1
    else:
        label = egress.labels.allocate()
        bindings[egress_name] = label
        egress.lfib.install(label, LfibEntry(LabelOp.POP_PROCESS, lsp_id=f"ldp:{fec}"))
        result.lfib_entries += 1

    dist_from_egress, _ = deterministic_dijkstra_reference(g, egress_name)
    order = sorted(
        (name for name in lsrs if name != egress_name and name in dist_from_egress),
        key=lambda n: (dist_from_egress[n], n),
    )
    for name in order:
        lsr = lsrs[name]
        _dist, paths = deterministic_dijkstra_reference(g, name)
        if egress_name not in paths or len(paths[egress_name]) < 2:
            continue  # partitioned
        nh_name = paths[egress_name][1]
        if nh_name not in bindings:
            continue  # next hop is not label-capable for this FEC
        bindings[name] = lsr.labels.allocate()

        dl = g[name][nh_name]["duplex"]
        out_ifname, _nh_addr = _egress_towards_reference(dl, name)
        downstream = bindings[nh_name]
        if downstream == IMPLICIT_NULL:
            entry = LfibEntry(LabelOp.POP, out_ifname=out_ifname, lsp_id=f"ldp:{fec}")
        else:
            entry = LfibEntry(
                LabelOp.SWAP,
                out_label=downstream,
                out_ifname=out_ifname,
                lsp_id=f"ldp:{fec}",
            )
        lsr.lfib.install(bindings[name], entry)
        result.lfib_entries += 1

        lsr.ftn.bind(fec, Nhlfe(out_ifname, (downstream,), lsp_id=f"ldp:{fec}"))
        result.ftn_entries += 1
    return bindings
