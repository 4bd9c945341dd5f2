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

from repro.mpls.ldp import run_ldp
from repro.mpls.lsr import Lsr
from tests.reference.routing import (
    converge_reference,
    deterministic_dijkstra_reference,
    domain_graph_reference,
    reconverge_reference,
    run_ldp_reference,
)
from repro.routing.router import Router
from repro.routing.spf import _deterministic_dijkstra, converge, reconverge
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


class TestDijkstraWrapperParity:
    """`_deterministic_dijkstra` survives as a compatibility wrapper for the
    TE/IntServ code; it must return exactly what the reference returned —
    including dict iteration order, which downstream loops rely on."""

    def test_undirected_identical_including_order(self):
        net = Network(seed=23)
        build_backbone(net)
        g = domain_graph_reference(net, "core")
        for src in ("P1", "E4"):
            dist_n, paths_n = _deterministic_dijkstra(g, src)
            dist_r, paths_r = deterministic_dijkstra_reference(g, src)
            assert dist_n == dist_r
            assert paths_n == paths_r
            assert list(paths_n) == list(paths_r)  # discovery order too

    def test_late_discovered_final_predecessor(self):
        # Regression: S-A=10, S-B=1, B-C=1, C-A=1.  A is *discovered*
        # first (via the heavy S-A edge) and then re-pointed at C, which
        # enters the discovery order after A — so reconstruction must walk
        # the final predecessor chain rather than trust discovery order
        # (the old code raised KeyError('C') here).
        g = nx.Graph()
        g.add_edge("S", "A", metric=10.0)
        g.add_edge("S", "B", metric=1.0)
        g.add_edge("B", "C", metric=1.0)
        g.add_edge("C", "A", metric=1.0)
        dist_n, paths_n = _deterministic_dijkstra(g, "S")
        dist_r, paths_r = deterministic_dijkstra_reference(g, "S")
        assert dist_n == dist_r
        assert paths_n == paths_r
        assert list(paths_n) == list(paths_r)  # discovery order too
        assert paths_n["A"] == ["S", "B", "C", "A"]
        assert dist_n["A"] == 3.0

    def test_digraph_supported(self):
        # The TE CSPF runs this on a DiGraph of residual-capacity arcs.
        g = nx.DiGraph()
        g.add_edge("a", "b", metric=1.0)
        g.add_edge("b", "c", metric=1.0)
        g.add_edge("a", "c", metric=2.0)  # ties a-b-c; path tie-break picks a-b-c
        g.add_edge("c", "a", metric=5.0)  # asymmetric return arc
        dist_n, paths_n = _deterministic_dijkstra(g, "a")
        dist_r, paths_r = deterministic_dijkstra_reference(g, "a")
        assert dist_n == dist_r
        assert paths_n == paths_r
        assert paths_n["c"] == ["a", "b", "c"]


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
