"""Tests for the extension features: trTCM, shaper, reconvergence, FRR,
hub-and-spoke VPNs, and inter-AS option A."""

import pytest

from repro.control import converge_all
from repro.mpls import (
    FastReroute,
    FrrError,
    Lsr,
    TrafficEngineering,
    reset_ldp,
    run_ldp,
)
from repro.net.address import IPv4Address, Prefix
from repro.net.packet import IPHeader, Packet
from repro.qos.meter import Color, TrTCM
from repro.qos.shaper import TokenBucketShaper
from repro.routing import converge, reconverge, spf_paths
from repro.topology import Network, attach_host, build_fish, build_line
from repro.traffic import CbrSource, FlowSink
from repro.vpn import (
    PeRouter,
    VpnProvisioner,
    connect_option_a,
)

def pkt(size=100, dscp=0):
    return Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2), dscp=dscp),
                  payload_bytes=size - 20)


class TestTrTCM:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrTCM(0, 100, 100, 100)
        with pytest.raises(ValueError):
            TrTCM(200, 100, 100, 100)  # PIR < CIR

    def test_green_within_cir(self):
        m = TrTCM(8e3, 1000, 16e3, 2000)
        assert m.color(500, 0.0) is Color.GREEN

    def test_yellow_between_cir_and_pir(self):
        m = TrTCM(8e3, 1000, 16e3, 2000)
        m.color(1000, 0.0)  # drain CIR bucket
        assert m.color(500, 0.0) is Color.YELLOW

    def test_red_above_pir(self):
        m = TrTCM(8e3, 1000, 16e3, 2000)
        m.color(1000, 0.0)
        m.color(1000, 0.0)
        assert m.color(500, 0.0) is Color.RED

    def test_red_consumes_nothing(self):
        m = TrTCM(8e3, 1000, 16e3, 1000)
        m.color(1000, 0.0)  # green, drains both
        assert m.color(500, 0.0) is Color.RED
        # Refill 0.25 s at PIR 2 kB/s = 500 B -> yellow possible again.
        assert m.color(500, 0.25) is Color.YELLOW

    def test_two_rates_refill_independently(self):
        m = TrTCM(8e3, 1000, 80e3, 1000)  # CIR 1 kB/s, PIR 10 kB/s
        m.color(1000, 0.0)
        # After 0.1 s: PIR bucket has 1000 B (capped), CIR only 100 B.
        assert m.color(800, 0.1) is Color.YELLOW


class TestShaper:
    def test_conformant_head_released(self):
        sh = TokenBucketShaper(8e3, 1000)
        p = pkt(500)
        assert sh.enqueue(p, 0.0)
        assert sh.dequeue(0.0) is p

    def test_out_of_profile_held(self):
        sh = TokenBucketShaper(8e3, 500)
        sh.enqueue(pkt(500), 0.0)
        sh.enqueue(pkt(500), 0.0)
        assert sh.dequeue(0.0) is not None
        assert sh.dequeue(0.0) is None       # bucket empty: held, not dropped
        assert len(sh) == 1

    def test_next_eligible_refill_time(self):
        sh = TokenBucketShaper(8e3, 500)     # 1 kB/s
        sh.enqueue(pkt(500), 0.0)
        sh.enqueue(pkt(500), 0.0)
        sh.dequeue(0.0)
        assert sh.next_eligible(0.0) == pytest.approx(0.5)
        assert sh.dequeue(0.5) is not None

    def test_next_eligible_inf_when_empty(self):
        assert TokenBucketShaper(8e3, 500).next_eligible(0.0) == float("inf")

    def test_capacity_drops(self):
        sh = TokenBucketShaper(8e3, 500, capacity_packets=1)
        assert sh.enqueue(pkt(100), 0.0)
        assert not sh.enqueue(pkt(100), 0.0)
        assert sh.stats.dropped == 1

    def test_shapes_a_burst_on_a_link(self):
        """End to end: a 10 Mb/s burst through a 1 Mb/s shaper arrives
        paced at ~1 Mb/s."""
        net = Network()
        routers = build_line(net, 2, rate_bps=100e6)
        tx = attach_host(net, routers[0], "10.55.0.1")
        rx = attach_host(net, routers[1], "10.55.0.2")
        converge(net)
        dl = net.link_between("r0", "r1")
        dl.if_ab.qdisc = TokenBucketShaper(1e6, 2000, capacity_packets=1500)
        sink = FlowSink(net.sim).attach(rx)
        src = CbrSource(net.sim, tx.send, "b", "10.55.0.1", "10.55.0.2",
                        payload_bytes=500, rate_bps=10e6)
        src.start(0.0, stop_at=0.5)   # 0.5 s at 10 Mb/s = 5 Mb offered
        net.run(until=6.0)
        rec = sink.record("b")
        assert rec.count == src.sent  # nothing dropped, only delayed
        # Arrival span ~ 5 Mb / 1 Mb/s = 5 s.
        span = rec.arrival_times[-1] - rec.arrival_times[0]
        assert span == pytest.approx(5.0, rel=0.15)


class TestReconvergence:
    def test_reroutes_around_failed_link(self):
        net = Network()
        nodes = build_fish(net)
        converge(net)
        assert spf_paths(net, "A", "F") == ["A", "B", "G", "H", "E", "F"]
        net.link_between("G", "H").set_up(False)
        reconverge(net)
        assert spf_paths(net, "A", "F") == ["A", "B", "C", "D", "E", "F"]

    def test_restore_returns_to_primary(self):
        net = Network()
        nodes = build_fish(net)
        converge(net)
        dl = net.link_between("G", "H")
        dl.set_up(False)
        reconverge(net)
        dl.set_up(True)
        reconverge(net)
        assert spf_paths(net, "A", "F") == ["A", "B", "G", "H", "E", "F"]

    def test_host_routes_survive_reconvergence(self):
        net = Network()
        routers = build_line(net, 3)
        h = attach_host(net, routers[2], "10.44.0.1")
        converge(net)
        reconverge(net)
        assert routers[0].fib.lookup(IPv4Address.parse("10.44.0.1")) is not None
        assert routers[2].fib.lookup(IPv4Address.parse("10.44.0.1")) is not None

    def test_reset_ldp_releases_labels(self):
        net = Network()
        routers = [net.add_node(Lsr(net.sim, f"r{i}")) for i in range(3)]
        net.connect(routers[0], routers[1]); net.connect(routers[1], routers[2])
        converge(net)
        run_ldp(net)
        in_use = sum(r.labels.in_use for r in routers)
        assert in_use > 0
        removed = reset_ldp(net)
        assert removed > 0
        assert sum(r.labels.in_use for r in routers) == 0
        assert all(len(r.ftn) == 0 for r in routers)


class TestFastReroute:
    def _setup(self):
        net = Network()
        nodes = build_fish(net, rate_bps=10e6, trunk_rate_bps=30e6,
                           node_factory=lambda n, name: n.add_node(Lsr(n.sim, name)))
        tx = attach_host(net, nodes["A"], "10.71.0.1", name="tx")
        rx = attach_host(net, nodes["F"], "10.71.0.2", name="rx")
        converge(net)
        te = TrafficEngineering(net)
        lsp = te.signal("prim", ["A", "B", "G", "H", "E", "F"], 2e6, php=False)
        te.autoroute(lsp, [Prefix.parse("10.71.0.2/32")])
        return net, nodes, tx, rx, te, lsp

    def test_protect_lsp_covers_transit_hops(self):
        net, nodes, tx, rx, te, lsp = self._setup()
        frr = FastReroute(te)
        bypasses = frr.protect_lsp(lsp)
        assert {(b.plr, b.merge_point) for b in bypasses} == {
            ("B", "G"), ("G", "H"), ("H", "E"),
        }

    def test_php_final_hop_unprotectable(self):
        net, nodes, tx, rx, te, _ = self._setup()
        lsp2 = te.signal("php-lsp", ["A", "B", "G"], 1e6, php=True)
        frr = FastReroute(te)
        with pytest.raises(FrrError):
            frr.protect_hop(lsp2, 1)

    def test_ingress_hop_rejected(self):
        net, nodes, tx, rx, te, lsp = self._setup()
        frr = FastReroute(te)
        with pytest.raises(FrrError):
            frr.protect_hop(lsp, 0)

    def test_zero_loss_failover(self):
        net, nodes, tx, rx, te, lsp = self._setup()
        frr = FastReroute(te)
        frr.protect_lsp(lsp)
        sink = FlowSink(net.sim).attach(rx)
        src = CbrSource(net.sim, tx.send, "f", "10.71.0.1", "10.71.0.2",
                        payload_bytes=500, rate_bps=2e6)
        src.start(0.0, stop_at=3.0)

        def fail():
            net.link_between("G", "H").set_up(False)
            assert frr.trigger_link_failure("G", "H") == 1
        net.sim.schedule(1.0, fail)
        net.run(until=3.5)
        assert sink.received("f") == src.sent
        assert frr.active_repairs == 1

    def test_restore_reverts_primary_path(self):
        net, nodes, tx, rx, te, lsp = self._setup()
        frr = FastReroute(te)
        frr.protect_lsp(lsp)
        dl = net.link_between("G", "H")
        dl.set_up(False)
        frr.trigger_link_failure("G", "H")
        dl.set_up(True)
        assert frr.restore_link("G", "H") == 1
        assert frr.active_repairs == 0
        # Traffic flows over the restored primary again.
        sink = FlowSink(net.sim).attach(rx)
        src = CbrSource(net.sim, tx.send, "g", "10.71.0.1", "10.71.0.2",
                        payload_bytes=500, rate_bps=1e6)
        src.start(0.0, stop_at=0.5)
        net.run(until=1.0)
        assert sink.received("g") == src.sent

    def test_facility_tunnel_shared(self):
        """Two LSPs over the same link share one bypass tunnel."""
        net, nodes, tx, rx, te, lsp = self._setup()
        lsp2 = te.signal("prim2", ["A", "B", "G", "H", "E", "F"], 1e6, php=False)
        frr = FastReroute(te)
        frr.protect_hop(lsp, 2)   # G->H
        frr.protect_hop(lsp2, 2)
        assert len(frr._facility) == 1
        assert frr.trigger_link_failure("G", "H") == 2


class TestHubSpoke:
    def _build(self):
        net = Network()
        pe1 = net.add_node(PeRouter(net.sim, "pe1"))
        p = net.add_node(Lsr(net.sim, "p"))
        pe2 = net.add_node(PeRouter(net.sim, "pe2"))
        pe3 = net.add_node(PeRouter(net.sim, "pe3"))
        for pe in (pe1, pe2, pe3):
            net.connect(pe, p)
        prov = VpnProvisioner(net)
        vpn = prov.create_hub_spoke_vpn("hs")
        hub = prov.add_site(vpn, pe3, prefix="10.0.0.0/24", role="hub")
        s1 = prov.add_site(vpn, pe1, prefix="10.0.1.0/24")
        s2 = prov.add_site(vpn, pe2, prefix="10.0.2.0/24")
        converge_all(net, prov)
        return net, prov, vpn, hub, s1, s2

    def _send(self, net, src_host, dst_host):
        got = []
        dst_host.add_local_sink(got.append)
        net.sim.schedule(0.0, lambda: src_host.send(
            Packet(ip=IPHeader(src_host.loopback, dst_host.loopback),
                   payload_bytes=50)))
        net.run(until=net.sim.now + 1.0)
        return got

    def test_spoke_to_spoke_transits_hub_ce(self):
        net, prov, vpn, hub, s1, s2 = self._build()
        before = hub.ce.stats.rx_packets
        got = self._send(net, s1.hosts[0], s2.hosts[0])
        assert len(got) == 1
        assert hub.ce.stats.rx_packets == before + 1

    def test_spoke_hub_bidirectional(self):
        net, prov, vpn, hub, s1, s2 = self._build()
        assert len(self._send(net, s1.hosts[0], hub.hosts[0])) == 1
        assert len(self._send(net, hub.hosts[0], s1.hosts[0])) == 1

    def test_spoke_vrf_has_no_direct_spoke_route(self):
        net, prov, vpn, hub, s1, s2 = self._build()
        vrf = s1.pe.vrfs["hs-spoke"]
        route = vrf.lookup(IPv4Address.parse("10.0.2.10"))
        # LPM resolves via the hub's supernet export, not spoke2 directly.
        assert route is not None
        assert route.remote_pe == hub.pe.loopback

    def test_hub_role_recorded(self):
        net, prov, vpn, hub, s1, s2 = self._build()
        assert hub.role == "hub" and s1.role == "spoke"
        # The second circuit is the site's second link; only a hub has one.
        assert (hub.ce_up_ifname, hub.pe_up_ifname) == (
            hub.links[1].if_ab.name, hub.links[1].if_ba.name)
        assert hub.pe.vrf_of_circuit(hub.pe_up_ifname) is hub.pe.vrfs["hs-hub-up"]
        with pytest.raises(AttributeError, match="not a hub"):
            s1.pe_up_ifname

    def test_role_validation(self):
        net = Network()
        pe = net.add_node(PeRouter(net.sim, "pe"))
        prov = VpnProvisioner(net)
        mesh = prov.create_vpn("m")
        with pytest.raises(ValueError):
            prov.add_site(mesh, pe, role="hub")
        hs = prov.create_hub_spoke_vpn("hs")
        with pytest.raises(ValueError):
            prov.add_site(hs, pe, role="mesh")


class TestInterAs:
    def _build(self):
        from repro.experiments.e10_interas import build_two_providers
        return build_two_providers(seed=107, qos=False)

    def test_cross_provider_reachability(self):
        ctx = self._build()
        net = ctx["net"]
        h_a, h_b = ctx["site_a"].hosts[0], ctx["site_b"].hosts[0]
        got = []
        h_b.add_local_sink(got.append)
        net.sim.schedule(0.0, lambda: h_a.send(
            Packet(ip=IPHeader(h_a.loopback, h_b.loopback), payload_bytes=50)))
        net.run(until=1.0)
        assert len(got) == 1

    def test_reverse_direction(self):
        ctx = self._build()
        net = ctx["net"]
        h_a, h_b = ctx["site_a"].hosts[0], ctx["site_b"].hosts[0]
        got = []
        h_a.add_local_sink(got.append)
        net.sim.schedule(0.0, lambda: h_b.send(
            Packet(ip=IPHeader(h_b.loopback, h_a.loopback), payload_bytes=50)))
        net.run(until=1.0)
        assert len(got) == 1

    def test_domains_have_separate_igps(self):
        ctx = self._build()
        net = ctx["net"]
        pe_a, pe_b = net.node("pe-a"), net.node("pe-b")
        # Provider A's PE has no route to provider B's infrastructure.
        assert pe_a.fib.lookup(pe_b.loopback) is None

    def test_second_customer_isolated(self):
        ctx = self._build()
        net = ctx["net"]
        corp_src = ctx["site_a"].hosts[0]
        other_dst = ctx["o_b"].hosts[0]   # other VPN, prefix 10.9.0.0/24
        got = []
        other_dst.add_local_sink(got.append)
        net.sim.schedule(0.0, lambda: corp_src.send(
            Packet(ip=IPHeader(corp_src.loopback, other_dst.loopback),
                   payload_bytes=50)))
        net.run(until=1.0)
        assert got == []  # corp's VRF has no route into 'other'

    def test_connect_requires_vrfs(self):
        net = Network()
        a = net.add_node(PeRouter(net.sim, "a"))
        b = net.add_node(PeRouter(net.sim, "b"))
        with pytest.raises(ValueError):
            connect_option_a(net, a, b, "nope")

    def test_exchange_counts_messages(self):
        ctx = self._build()
        assert ctx["routes_exchanged"] > 0
        assert ctx["net"].counters["interas.ebgp_updates"] == ctx["routes_exchanged"]
