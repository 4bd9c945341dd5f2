"""Tests for the Network container, topology builders, and SPF convergence."""

import pytest

from repro.net.address import IPv4Address, Prefix
from repro.net.packet import IPHeader, Packet
from repro.qos.queues import DropTailFifo
from repro.routing import NoPathError
from repro.routing.spf import advertised_prefixes, converge, spf_paths
from repro.topology import (
    Network,
    attach_host,
    build_backbone,
    build_fish,
    build_full_mesh,
    build_line,
    build_star,
)
from repro.vpn.ce import CeRouter


class TestNetworkWiring:
    def test_duplicate_node_rejected(self):
        net = Network()
        net.add_router("r1")
        with pytest.raises(ValueError):
            net.add_router("r1")

    def test_loopback_autoassigned_unique(self):
        net = Network()
        a, b = net.add_router("a"), net.add_router("b")
        assert a.loopback is not None and b.loopback is not None
        assert a.loopback != b.loopback
        assert Network.LOOPBACK_POOL.contains(a.loopback)

    def test_connect_creates_interfaces_and_addresses(self):
        net = Network()
        a, b = net.add_router("a"), net.add_router("b")
        dl = net.connect(a, b, 1e6, 0.001)
        assert dl.if_ab.name == "to-b" and dl.if_ba.name == "to-a"
        # Both ends addressed from one /30.
        subnet = next(iter(a.connected_prefixes))
        assert subnet.length == 30
        assert subnet in b.connected_prefixes

    def test_connect_rejects_impossible_link_parameters(self):
        # Used to be accepted and surface as ZeroDivisionError / "cannot
        # schedule in the past" from inside the run loop.
        net = Network()
        a, b = net.add_router("a"), net.add_router("b")
        with pytest.raises(ValueError, match="rate_bps"):
            net.connect(a, b, rate_bps=0.0, delay_s=-1.0)
        with pytest.raises(ValueError, match="delay_s"):
            net.connect(a, b, rate_bps=1e6, delay_s=-1.0)
        # A refused connect leaves no half-wired interface behind.
        assert not a.interfaces and not b.interfaces and not net.duplex_links
        assert net.connect(a, b, rate_bps=float("inf"), delay_s=0.0).if_ab.name == "to-b"

    def test_disconnect_is_the_inverse_of_connect(self):
        net = Network()
        a, b, c = (net.add_router(n) for n in "abc")
        keep = net.connect(a, b)
        before = (dict(a.interfaces), dict(a.addresses), dict(a.connected_prefixes),
                  net.linknets_free(), list(net.duplex_links))
        gone = net.connect(a, c)
        generation = net.topology_generation
        net.disconnect(gone)
        assert (dict(a.interfaces), dict(a.addresses), dict(a.connected_prefixes),
                net.linknets_free(), list(net.duplex_links)) == before
        assert not c.interfaces and not c.connected_prefixes and list(c.addresses) == [c.loopback]
        assert not (gone.link_ab.up or gone.link_ba.up) and gone.net is None
        assert net.topology_generation > generation
        # The /30 is the next one handed out; the link that stayed kept its own.
        again = net.connect(c, b)
        assert {again.addr_a, again.addr_b} == {gone.addr_a, gone.addr_b}
        assert keep.net is net and keep.link_ab.up
        with pytest.raises(ValueError, match=r"^link a-c is not in this network"):
            net.disconnect(gone)

    def test_remove_node_refuses_a_wired_or_foreign_node_by_name(self):
        net = Network()
        a, b = net.add_router("a"), net.add_router("b")
        dl = net.connect(a, b)
        with pytest.raises(ValueError, match=r"^node 'b' still has interfaces \['to-a'\]"):
            net.remove_node(b)
        assert "b" in net.nodes
        net.disconnect(dl)
        net.remove_node(b)
        assert list(net.nodes) == ["a"]
        with pytest.raises(ValueError, match=r"^node 'b' is not in this network"):
            net.remove_node(b)
        # Same name, different node: not the one this network holds.
        net.add_router("b")
        with pytest.raises(ValueError, match=r"^node 'b' is not in this network"):
            net.remove_node(b)

    def test_domain_view_follows_the_graph_after_its_first_read(self):
        net = Network()
        a, b = build_line(net, 2)
        assert net.domain_view().order_names == ["r0", "r1"]
        c = net.add_router("r2")
        dl = net.connect(b, c)
        host = attach_host(net, c, "10.66.0.1", "h")       # not a router: never a member
        view = net.domain_view()
        assert view.order_names == ["r0", "r1", "r2"] and len(view.edges) == 2
        net.disconnect(dl)
        assert len(net.domain_view().edges) == 1
        net.disconnect(next(d for d in net.duplex_links if d.a is host))
        net.remove_node(c)
        assert net.domain_view().order_names == ["r0", "r1"]

    def test_domain_write_after_add_node_goes_through_the_network(self):
        net = Network()
        a, b, c = build_line(net, 3)
        assert len(net.domain_view().names) == 3
        generation = net.topology_generation
        c.domain = "elsewhere"
        assert net.topology_generation > generation
        view = net.domain_view()
        assert view.order_names == ["r0", "r1"] and len(view.edges) == 1
        assert net.domain_view("elsewhere").order_names == ["r2"]
        c.domain = "core"
        assert net.domain_view().order_names == ["r0", "r1", "r2"]
        # Before add_node there is no network to tell: nothing moves.
        generation = net.topology_generation
        ce = CeRouter(net.sim, "ce")
        assert ce.domain == "customer" and net.topology_generation == generation

    def test_parallel_links_get_distinct_ifnames(self):
        net = Network()
        a, b = net.add_router("a"), net.add_router("b")
        net.connect(a, b)
        dl2 = net.connect(a, b)
        assert dl2.if_ab.name == "to-b.2"

    def test_connect_by_name(self):
        net = Network()
        net.add_router("a"); net.add_router("b")
        dl = net.connect("a", "b")
        assert dl.a.name == "a"

    def test_link_between(self):
        net = Network()
        net.add_router("a"); net.add_router("b"); net.add_router("c")
        net.connect("a", "b")
        assert net.link_between("a", "b") is not None
        assert net.link_between("b", "a") is not None
        assert net.link_between("a", "c") is None

    def test_set_up_down(self):
        net = Network()
        build_line(net, 2)
        dl = net.link_between("r0", "r1")
        dl.set_up(False)
        assert not dl.link_ab.up and not dl.link_ba.up


def _wiring(net: Network) -> tuple:
    return ({name: dict(node.interfaces) for name, node in net.nodes.items()},
            net.linknets_free(), list(net.duplex_links))


class TestOneQueuePerInterface:
    """A queue discipline serves one interface.  Shared by two, both
    transmitters drained one queue and its drops were reported against
    whichever interface was wired last."""

    def test_one_discipline_for_both_ends_is_refused_before_anything_is_wired(self):
        net = Network()
        a, b = net.add_router("a"), net.add_router("b")
        shared = DropTailFifo()
        before = _wiring(net)
        with pytest.raises(ValueError, match=r"^interfaces a\.to-b and b\.to-a were handed "
                                             r"one DropTailFifo"):
            net.connect(a, b, qdisc_factory=lambda node, ifname: shared)
        assert _wiring(net) == before
        assert shared.interface is None
        dl = net.connect(a, b)
        assert dl.if_ab.qdisc is not dl.if_ba.qdisc

    def test_a_discipline_another_interface_owns_is_refused_by_name(self):
        net = Network()
        r0, r1, r2 = build_line(net, 3)
        first, second = net.duplex_links
        owned = first.if_ab.qdisc
        before = _wiring(net)
        with pytest.raises(ValueError, match=r"^interface r1\.to-r2: the DropTailFifo "
                                             r"already queues for interface r0\.to-r1;"):
            second.if_ab.qdisc = owned
        with pytest.raises(ValueError, match=r"^interface r0\.to-r2: the DropTailFifo "
                                             r"already queues for interface r0\.to-r1;"):
            net.connect(r0, r2, qdisc_factory=lambda node, ifname: (
                owned if node is r0 else DropTailFifo()))
        assert _wiring(net) == before
        assert second.if_ab.qdisc is not owned and owned.interface is first.if_ab

    def test_a_swapped_out_discipline_is_released(self):
        net = Network()
        build_line(net, 3)
        first, second = net.duplex_links
        old = first.if_ab.qdisc
        first.if_ab.qdisc = DropTailFifo(capacity_packets=5)
        assert old.interface is None and first.if_ab.qdisc.interface is first.if_ab
        # Free to queue elsewhere, and its drops are that interface's now.
        second.if_ba.qdisc = old
        old.capacity_packets = 0
        net.trace.record("drop")
        assert not old.enqueue(Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2))), 0.0)
        assert [(r.node, r.iface) for r in net.trace.records("drop")] == [("r2", "to-r1")]


class TestBuilders:
    def test_line(self):
        net = Network()
        routers = build_line(net, 5)
        assert len(routers) == 5
        assert len(net.duplex_links) == 4

    def test_star(self):
        net = Network()
        hub, leaves = build_star(net, 6)
        assert len(leaves) == 6
        assert len(net.duplex_links) == 6
        assert all(net.link_between("hub", leaf.name) for leaf in leaves)

    def test_full_mesh(self):
        net = Network()
        routers = build_full_mesh(net, 5)
        assert len(net.duplex_links) == 10  # 5*4/2

    def test_fish_shape(self):
        net = Network()
        nodes = build_fish(net)
        assert set(nodes) == set("ABCDEFGH")
        assert len(net.duplex_links) == 8
        # Top branch carries metric 2.
        assert net.link_between("B", "C").metric == 2

    def test_backbone_shape(self):
        net = Network()
        nodes = build_backbone(net)
        assert len(nodes) == 12
        assert len(net.duplex_links) == 22
        # Core is a full mesh of P1..P4.
        for i in range(1, 5):
            for j in range(i + 1, 5):
                assert net.link_between(f"P{i}", f"P{j}") is not None

    def test_backbone_rates(self):
        net = Network()
        build_backbone(net, core_rate_bps=45e6, edge_rate_bps=10e6)
        assert net.link_between("P1", "P2").rate_bps == 45e6
        assert net.link_between("E1", "P1").rate_bps == 10e6


class TestSpf:
    def test_full_reachability_after_converge(self):
        net = Network()
        build_backbone(net)
        converge(net)
        routers = net.routers()
        for src in routers:
            for dst in routers:
                if src is dst:
                    continue
                entry = src.fib.lookup(dst.loopback)
                assert entry is not None, f"{src.name} cannot reach {dst.name}"

    def test_shortest_path_respects_metric(self):
        net = Network()
        a, b, c = build_line(net, 3)
        # Add a direct a-c link with a huge metric: must not be used.
        net.connect(a, c, metric=10)
        converge(net)
        assert spf_paths(net, "r0", "r2") == ["r0", "r1", "r2"]

    def test_direct_link_used_when_cheap(self):
        net = Network()
        a, b, c = build_line(net, 3)
        net.connect(a, c, metric=1)
        converge(net)
        assert spf_paths(net, "r0", "r2") == ["r0", "r2"]

    def test_deterministic_tiebreak(self):
        """Equal-cost paths resolve to the lexicographically smallest."""
        net = Network()
        s = net.add_router("s"); t = net.add_router("t")
        m1 = net.add_router("m1"); m2 = net.add_router("m2")
        net.connect(s, m1); net.connect(m1, t)
        net.connect(s, m2); net.connect(m2, t)
        converge(net)
        assert spf_paths(net, "s", "t") == ["s", "m1", "t"]

    def test_customer_domain_excluded(self):
        net = Network()
        a, b = build_line(net, 2)
        ce = net.add_router("ce")
        ce.domain = "customer"
        net.connect(ce, a)
        converge(net)
        # Core routers have no route to the CE's loopback.
        assert b.fib.lookup(ce.loopback) is None
        # And the CE got no SPF routes at all.
        assert all(e.source != "spf" for _, e in ce.fib.routes())

    def test_connected_routes_installed(self):
        net = Network()
        a, b = build_line(net, 2)
        converge(net)
        subnet = next(iter(a.connected_prefixes))
        entry = a.fib.get(subnet)
        assert entry is not None and entry.source == "connected"
        assert entry.next_hop is None

    def test_advertised_prefixes_reachable(self):
        net = Network()
        a, b, c = build_line(net, 3)
        a.advertise(Prefix.parse("10.42.0.0/24"))
        converge(net)
        entry = c.fib.lookup(IPv4Address.parse("10.42.0.7"))
        assert entry is not None and entry.source == "spf"

    def test_advertised_prefixes_helper(self):
        net = Network()
        a, b = build_line(net, 2)
        a.advertise(Prefix.parse("10.1.0.0/24"))
        prefixes = advertised_prefixes(a)
        assert Prefix.of(a.loopback, 32) in prefixes
        assert Prefix.parse("10.1.0.0/24") in prefixes

    def test_spf_paths_raises_when_partitioned(self):
        net = Network()
        net.add_router("a"); net.add_router("b")
        with pytest.raises(NoPathError, match="^a -> b: no path"):
            spf_paths(net, "a", "b")

    def test_spf_paths_names_the_node_it_does_not_know(self):
        net = Network()
        build_line(net, 2)
        net.add_host("h")  # on the network, not in the IGP
        for src, dst, missing in (("r0", "nope", "nope"), ("nope", "r1", "nope"),
                                  ("r0", "h", "h")):
            with pytest.raises(NoPathError, match=f"^{src} -> {dst}: {missing} is not in"):
                spf_paths(net, src, dst)


class TestEndToEndIpForwarding:
    def test_ping_across_backbone(self):
        net = Network()
        nodes = build_backbone(net)
        h1 = attach_host(net, nodes["E1"], "10.10.0.1")
        h2 = attach_host(net, nodes["E8"], "10.10.0.2")
        converge(net)
        got = []
        h2.add_local_sink(got.append)
        p = Packet(ip=IPHeader(IPv4Address.parse("10.10.0.1"),
                               IPv4Address.parse("10.10.0.2")), payload_bytes=100)
        net.sim.schedule(0.0, lambda: h1.send(p))
        net.run(until=1.0)
        assert len(got) == 1

    def test_ttl_expiry_drops(self):
        net = Network()
        routers = build_line(net, 5)
        h1 = attach_host(net, routers[0], "10.10.0.1")
        h2 = attach_host(net, routers[4], "10.10.0.2")
        converge(net)
        got = []
        h2.add_local_sink(got.append)
        p = Packet(ip=IPHeader(IPv4Address.parse("10.10.0.1"),
                               IPv4Address.parse("10.10.0.2"), ttl=2),
                   payload_bytes=100)
        net.sim.schedule(0.0, lambda: h1.send(p))
        net.run(until=1.0)
        assert got == []
        assert sum(r.stats.by_reason.get("ttl", 0) for r in routers) == 1

    def test_no_route_drop(self):
        net = Network()
        routers = build_line(net, 2)
        h1 = attach_host(net, routers[0], "10.10.0.1")
        converge(net)
        p = Packet(ip=IPHeader(IPv4Address.parse("10.10.0.1"),
                               IPv4Address.parse("99.9.9.9")), payload_bytes=100)
        net.sim.schedule(0.0, lambda: h1.send(p))
        net.run(until=1.0)
        assert routers[0].stats.by_reason == {"no_route": 1}

    def test_utilization_report(self):
        net = Network()
        routers = build_line(net, 2, rate_bps=1e6)
        h1 = attach_host(net, routers[0], "10.10.0.1")
        h2 = attach_host(net, routers[1], "10.10.0.2")
        converge(net)
        from repro.traffic.generators import CbrSource
        src = CbrSource(net.sim, h1.send, "f", "10.10.0.1", "10.10.0.2",
                        rate_bps=0.5e6, payload_bytes=500)
        src.start(0.0, stop_at=2.0)
        net.run(until=2.0)
        util = net.link_utilization(2.0)
        assert util["r0->r1"] == pytest.approx(0.5, rel=0.1)
        assert util["r1->r0"] == 0.0
