"""Bit-for-bit parity between the control-plane fast path and the reference.

``tests.reference.routing`` preserves the pre-fast-path implementation
verbatim (path-tuple-heap Dijkstra, networkx graph rebuilt per call, one
``fib.install`` per route).  These tests build the same topology twice,
converge one copy with each implementation, and demand *identical* FIB,
LFIB, and FTN contents — the acceptance bar for the optimization: faster,
not different.
"""

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mpls.ldp import run_ldp
from repro.mpls.lsr import Lsr
from repro.mpls.te import TrafficEngineering
from tests.reference.routing import (
    converge_reference,
    cspf_reference,
    deterministic_dijkstra_reference,
    domain_graph_reference,
    reconverge_reference,
    run_ldp_reference,
)
from repro.routing.router import Router
from repro.routing.spf import converge, reconverge
from repro.topology import (
    Network,
    attach_host,
    build_backbone,
    build_fish,
    build_waxman,
)


def fib_snapshot(net):
    """name → {prefix: RouteEntry} for every Router in the network."""
    return {
        name: dict(node.fib.routes())
        for name, node in net.nodes.items()
        if isinstance(node, Router)
    }


def twin_networks(builder, seed):
    """Two networks built identically (same seed → same names/addresses)."""
    nets = []
    for _ in range(2):
        net = Network(seed=seed)
        builder(net)
        nets.append(net)
    return nets


BUILDERS = {
    "backbone": lambda net: build_backbone(net),
    "fish": lambda net: build_fish(net),
    "waxman9": lambda net: build_waxman(net, 9, alpha=0.9, beta=0.9),
    "waxman15": lambda net: build_waxman(net, 15, alpha=0.6, beta=0.8),
}


class TestConvergeParity:
    @pytest.mark.parametrize("topo", sorted(BUILDERS))
    @pytest.mark.parametrize("ecmp", [False, True])
    def test_fib_identical(self, topo, ecmp):
        new, ref = twin_networks(BUILDERS[topo], seed=23)
        n_new = converge(new, ecmp=ecmp)
        n_ref = converge_reference(ref, ecmp=ecmp)
        assert n_new == n_ref
        assert fib_snapshot(new) == fib_snapshot(ref)

    def test_fib_identical_with_attached_hosts(self):
        def builder(net):
            nodes = build_backbone(net)
            attach_host(net, nodes["E1"], "10.90.0.1")
            attach_host(net, nodes["E8"], "10.90.0.2")

        new, ref = twin_networks(builder, seed=29)
        converge(new)
        converge_reference(ref)
        assert fib_snapshot(new) == fib_snapshot(ref)

    def test_reconverge_after_link_down_identical(self):
        new, ref = twin_networks(BUILDERS["backbone"], seed=31)
        converge(new)
        converge_reference(ref)
        for net in (new, ref):
            net.link_between("P1", "P2").set_up(False)
        reconverge(new)
        reconverge_reference(ref)
        assert fib_snapshot(new) == fib_snapshot(ref)

    def test_reconverge_after_restore_identical(self):
        new, ref = twin_networks(BUILDERS["fish"], seed=37)
        converge(new)
        converge_reference(ref)
        for net in (new, ref):
            net.link_between("G", "H").set_up(False)
        reconverge(new)
        reconverge_reference(ref)
        for net in (new, ref):
            net.link_between("G", "H").set_up(True)
        reconverge(new)
        reconverge_reference(ref)
        assert fib_snapshot(new) == fib_snapshot(ref)


def net_from_edges(edges):
    """Routers and links from ``(u, v, metric)`` triples, in that order."""
    net = Network()
    for u, v, _metric in edges:
        for name in (u, v):
            if name not in net.nodes:
                net.add_router(name)
    for u, v, metric in edges:
        net.connect(u, v, metric=metric)
    return net


def pruned(net, dropped):
    """The domain's links minus the directed arcs in ``dropped``, both ways
    of saying it: the oracle's DiGraph and ``DomainView.route``'s filter."""
    dg = nx.DiGraph()
    for u, v, data in domain_graph_reference(net, "core").edges(data=True):
        for arc in ((u, v), (v, u)):
            if arc not in dropped:
                dg.add_edge(*arc, metric=data["metric"])
    names = net.domain_view().names
    return dg, lambda i, j: (names[i], names[j]) not in dropped


def route_names(net, src, dst, admits=None):
    view = net.domain_view()
    return [view.names[i] for i in view.route(src, dst, admits)]


class TestDijkstraWrapperParity:
    """The cases the ``_deterministic_dijkstra`` wrapper was held to (hence
    the name), now held by what replaced it: ``DomainView.route``, the one
    shortest-path entry CSPF, IntServ and the fluid plane share.  It must
    return exactly the reference's path, tie-break included."""

    def test_undirected_identical_including_order(self):
        net = Network(seed=23)
        build_backbone(net)
        g = domain_graph_reference(net, "core")
        for src in ("P1", "E4"):
            _dist, paths_r = deterministic_dijkstra_reference(g, src)
            assert len(paths_r) == 12
            for dst in paths_r:  # the reference's discovery order
                assert route_names(net, src, dst) == paths_r[dst]

    def test_late_discovered_final_predecessor(self):
        # Regression: S-A=10, S-B=1, B-C=1, C-A=1.  A is *discovered*
        # first (via the heavy S-A edge) and then re-pointed at C, which
        # enters the discovery order after A — so reconstruction must walk
        # the final predecessor chain rather than trust discovery order
        # (PR 3's code raised KeyError('C') here).  Run as CSPF runs it: on
        # a directed graph, with the arcs back toward S pruned.
        net = net_from_edges(
            [("S", "A", 10.0), ("S", "B", 1.0), ("B", "C", 1.0), ("C", "A", 1.0)]
        )
        dg, admits = pruned(net, {("A", "S"), ("B", "S"), ("A", "C")})
        dist_r, paths_r = deterministic_dijkstra_reference(dg, "S")
        assert list(paths_r) == ["S", "A", "B", "C"]  # A discovered before C
        for dst in "ABC":
            assert route_names(net, "S", dst, admits) == paths_r[dst]
        assert route_names(net, "S", "A", admits) == ["S", "B", "C", "A"]
        assert dist_r["A"] == 3.0

    def test_digraph_supported(self):
        # CSPF searches directed residual arcs: a link can be full one way.
        net = net_from_edges([("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 2.0)])
        dg, admits = pruned(net, {("c", "b")})
        _dist, paths_r = deterministic_dijkstra_reference(dg, "a")
        # a-c ties a-b-c; the name-sequence tie-break picks a-b-c.
        assert route_names(net, "a", "c", admits) == paths_r["c"] == ["a", "b", "c"]
        # The way back cannot use the pruned arc c->b.
        _dist, back_r = deterministic_dijkstra_reference(dg, "c")
        assert route_names(net, "c", "b", admits) == back_r["b"] == ["c", "a", "b"]


NODES = [f"n{i}" for i in range(7)]
RATES = (6e6, 10e6)


@st.composite
def cspf_cases(draw):
    """A random LSR graph (a chain plus extra and parallel links, small
    integer metrics so paths tie, the odd link down), booked reservations,
    and one CSPF question."""
    n = draw(st.integers(3, 7))
    names = NODES[:n]
    pair = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
        lambda p: p[0] != p[1]
    )
    attrs = st.tuples(st.sampled_from((1.0, 1.0, 2.0, 3.0)), st.sampled_from(RATES),
                      st.sampled_from((True,) * 7 + (False,)))
    links = [((u, v), *draw(attrs)) for u, v in zip(names, names[1:])]
    links += [(p, *a) for p, a in draw(st.lists(st.tuples(pair, attrs), max_size=2 * n))]
    src, dst = draw(pair)
    return {
        "names": names, "links": draw(st.permutations(links)),
        "booked": draw(st.lists(st.tuples(pair, st.sampled_from((1e6, 3e6, 6e6))), max_size=6)),
        "src": src, "dst": dst, "bw": draw(st.sampled_from((1e6, 2e6, 5e6))),
        "avoid_nodes": draw(st.lists(st.sampled_from(names), max_size=1)),
        "avoid_links": draw(st.lists(pair, max_size=2)),
    }


class TestCspfParity:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cspf_cases())
    def test_cspf_returns_the_reference_path(self, case):
        net = Network()
        for name in case["names"]:
            net.add_node(Lsr(net.sim, name))
        for (u, v), metric, rate, up in case["links"]:
            net.connect(u, v, rate_bps=rate, metric=metric).set_up(up)
        te = TrafficEngineering(net)
        for hop, bps in case["booked"]:
            te.reserved[hop] = te.reserved.get(hop, 0.0) + bps
        args = (case["src"], case["dst"], case["bw"])
        kw = {"avoid_nodes": case["avoid_nodes"], "avoid_links": case["avoid_links"]}
        expected = cspf_reference(net, "core", te.reserved, te.subscription, *args, **kw)
        assert te.cspf(*args, **kw) == expected


class TestLdpParity:
    def _lsr_backbone(self, seed):
        net = Network(seed=seed)
        build_backbone(net, node_factory=lambda n, name: n.add_node(Lsr(n.sim, name)))
        return net

    @pytest.mark.parametrize("mode", ["php", "explicit_null", "no_php"])
    def test_lfib_ftn_and_counters_identical(self, mode):
        php = mode == "php"
        explicit = mode == "explicit_null"
        new = self._lsr_backbone(41)
        ref = self._lsr_backbone(41)
        converge(new)
        converge_reference(ref)
        res_n = run_ldp(new, php=php, use_explicit_null=explicit)
        res_r = run_ldp_reference(ref, php=php, use_explicit_null=explicit)
        assert res_n.bindings == res_r.bindings
        assert res_n.sessions == res_r.sessions
        assert res_n.mapping_messages == res_r.mapping_messages
        assert res_n.lfib_entries == res_r.lfib_entries
        assert res_n.ftn_entries == res_r.ftn_entries
        for name in new.nodes:
            node_n, node_r = new.nodes[name], ref.nodes[name]
            if not isinstance(node_n, Lsr):
                continue
            assert node_n.lfib.entries() == node_r.lfib.entries(), name
            assert node_n.ftn.entries() == node_r.ftn.entries(), name
