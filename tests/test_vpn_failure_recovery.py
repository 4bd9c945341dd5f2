"""System tests: VPN service across failures and recovery.

The customer's view of E11: does *my VPN* come back after the provider
loses a link — under IGP reconvergence, and hitlessly under FRR when the
PE-PE tunnel is a protected TE LSP.
"""

import pytest

from repro.control import converge_all
from repro.mpls import (
    FastReroute,
    Lsr,
    TrafficEngineering,
    run_ldp,
)
from repro.net.address import Prefix
from repro.net.packet import IPHeader, Packet
from repro.routing import converge
from repro.topology import Network
from repro.traffic import CbrSource, FlowSink
from repro.vpn import PeRouter, VpnProvisioner


def diamond_vpn(seed=19):
    """pe1 -(p-up | p-down)- pe2 with one VPN across it."""
    net = Network(seed=seed)
    pe1 = net.add_node(PeRouter(net.sim, "pe1"))
    pe2 = net.add_node(PeRouter(net.sim, "pe2"))
    up = net.add_node(Lsr(net.sim, "p-up"))
    down = net.add_node(Lsr(net.sim, "p-down"))
    net.connect(pe1, up); net.connect(up, pe2)
    net.connect(pe1, down, metric=2); net.connect(down, pe2, metric=2)
    prov = VpnProvisioner(net)
    vpn = prov.create_vpn("c")
    s1 = prov.add_site(vpn, pe1, prefix="10.1.0.0/24")
    s2 = prov.add_site(vpn, pe2, prefix="10.2.0.0/24")
    converge(net)
    return net, prov, s1, s2


class TestVpnIgpRecovery:
    def test_vpn_survives_reconvergence(self):
        net, prov, s1, s2 = diamond_vpn()
        converge_all(net, prov)
        h1, h2 = s1.hosts[0], s2.hosts[0]
        sink = FlowSink(net.sim).attach(h2)
        src = CbrSource(net.sim, h1.send, "f", str(h1.loopback),
                        str(h2.loopback), payload_bytes=400, rate_bps=1e6)
        src.start(0.0, stop_at=4.0)

        def fail_and_recover():
            net.link_between("pe1", "p-up").set_up(False)
            # Reconvergence after 0.5 s: IGP, then LDP follows it.  The BGP
            # routes (PE loopback next hops) are untouched — only the
            # transport tunnel moves, which is the VPN layering working.
            net.sim.schedule_call(0.5, converge_all, net, prov)
        net.sim.schedule(2.0, fail_and_recover)
        net.run(until=5.0)

        rec = sink.record("f")
        lost = src.sent - rec.count
        # Outage = 0.5 s at ~297 pps.
        assert lost == pytest.approx(0.5 * 1e6 / (420 * 8), rel=0.25)
        # Service resumed: arrivals exist well after the recovery instant.
        assert rec.arrival_times[-1] > 3.5

    def test_vrf_routes_untouched_by_igp_events(self):
        net, prov, s1, s2 = diamond_vpn()
        converge_all(net, prov)
        before = dict(s1.pe.vrfs["c"].routes())
        net.link_between("pe1", "p-up").set_up(False)
        converge_all(net, prov)
        assert dict(s1.pe.vrfs["c"].routes()) == before


class TestVpnFrrRecovery:
    def test_vpn_hitless_over_protected_tunnel(self):
        """VPN traffic rides a protected TE tunnel: link cut, zero loss."""
        net, prov, s1, s2 = diamond_vpn()
        # Use an explicit protected tunnel pe1->pe2 via the up path instead
        # of LDP (php=False so every hop is protectable), and autoroute the
        # remote PE loopback onto it (what the VPN resolves through).
        te = TrafficEngineering(net)
        lsp_fwd = te.signal("t-fwd", ["pe1", "p-up", "pe2"], 1e6, php=False)
        lsp_rev = te.signal("t-rev", ["pe2", "p-up", "pe1"], 1e6, php=False)
        te.autoroute(lsp_fwd, [Prefix.of(s2.pe.loopback, 32)])
        te.autoroute(lsp_rev, [Prefix.of(s1.pe.loopback, 32)])
        prov.converge_bgp()
        frr = FastReroute(te)
        frr.protect_lsp(lsp_fwd)
        frr.protect_lsp(lsp_rev)

        h1, h2 = s1.hosts[0], s2.hosts[0]
        sink = FlowSink(net.sim).attach(h2)
        src = CbrSource(net.sim, h1.send, "f", str(h1.loopback),
                        str(h2.loopback), payload_bytes=400, rate_bps=1e6)
        src.start(0.0, stop_at=4.0)

        def fail():
            net.link_between("p-up", "pe2").set_up(False)
            assert frr.trigger_link_failure("p-up", "pe2") >= 1
        net.sim.schedule(2.0, fail)
        net.run(until=5.0)

        rec = sink.record("f")
        # At most the packets in flight on the cut link are lost.
        assert src.sent - rec.count <= 2

    def test_ldp_following_the_igp_leaves_the_autoroute_binding(self):
        """The trunk's FTN slot is TE's: the LDP pass after the IGP moves
        rewrites only LDP's own entries, so the VPN stays on its protected
        tunnel — and an LSP torn down leaves the slot to LDP again."""
        net, prov, s1, s2 = diamond_vpn()
        run_ldp(net)
        te = TrafficEngineering(net)
        lsp = te.signal("t", ["pe1", "p-up", "pe2"], 1e6, php=False)
        fec = Prefix.of(s2.pe.loopback, 32)
        te.autoroute(lsp, [fec])
        prov.converge_bgp()
        frr = FastReroute(te)
        frr.protect_lsp(lsp)
        net.link_between("p-up", "pe2").set_up(False)
        frr.trigger_link_failure("p-up", "pe2")
        converge_all(net, prov)
        assert s1.pe.ftn.lookup(fec).lsp_id == "t"

        h1, h2 = s1.hosts[0], s2.hosts[0]
        got = []
        h2.add_local_sink(got.append)
        net.sim.schedule(0.0, lambda: h1.send(
            Packet(ip=IPHeader(h1.loopback, h2.loopback), payload_bytes=60)))
        net.run(until=1.0)
        assert len(got) == 1
        assert net.node("p-up").lfib.lookups >= 1   # rode the tunnel's bypass

        te.teardown("t")
        run_ldp(net)
        assert s1.pe.ftn.lookup(fec).lsp_id == f"ldp:{fec}"

    def test_bypass_keeps_vpn_label_stack_intact(self):
        """During repair the packet carries 3 labels (bypass over tunnel
        over VPN) and still lands in the right VRF."""
        net, prov, s1, s2 = diamond_vpn()
        te = TrafficEngineering(net)
        run_ldp(net)   # reverse direction via LDP is fine
        lsp = te.signal("t", ["pe1", "p-up", "pe2"], 1e6, php=False)
        te.autoroute(lsp, [Prefix.of(s2.pe.loopback, 32)])
        prov.converge_bgp()
        frr = FastReroute(te)
        frr.protect_lsp(lsp)
        net.link_between("p-up", "pe2").set_up(False)
        frr.trigger_link_failure("p-up", "pe2")

        # Spy on the detour node to observe the deepest stack.
        depths = []
        down = net.node("p-down")
        orig = down.handle
        def spy(pk, ifn):
            depths.append(len(pk.mpls_stack))
            orig(pk, ifn)
        down.handle = spy

        h1, h2 = s1.hosts[0], s2.hosts[0]
        got = []
        h2.add_local_sink(got.append)
        net.sim.schedule(0.0, lambda: h1.send(
            Packet(ip=IPHeader(h1.loopback, h2.loopback), payload_bytes=60)))
        net.run(until=1.0)
        assert len(got) == 1
        assert max(depths) == 3   # bypass + tunnel + VPN label
