"""Tests for per-VPN QoS profiles and the IntServ baseline."""

import pytest

from repro.control import converge_all
from repro.mpls import Lsr
from repro.net.address import IPv4Address
from repro.net.packet import IPHeader, Packet
from repro.qos.classifier import FlowMatch
from repro.qos.dscp import DSCP
from repro.qos.intserv import (
    RSVP_REFRESH_S,
    AdmissionError,
    IntServ,
    intserv_classifier,
)
from repro.routing import converge
from repro.topology import Network, build_line
from repro.vpn import (
    BRONZE,
    GOLD,
    SILVER,
    PeRouter,
    QosProfile,
    VpnProvisioner,
    apply_profile,
)


class TestQosProfiles:
    def test_builtin_tiers(self):
        assert GOLD.dscp == int(DSCP.EF)
        assert SILVER.dscp == int(DSCP.AF11)
        assert BRONZE.dscp == int(DSCP.BE) and BRONZE.cir_bps == 0

    def test_pure_marker_profile(self):
        cond = BRONZE.conditioner()
        p = Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2), dscp=46),
                   payload_bytes=100)
        out = cond(p, 0.0)
        assert out.ip.dscp == int(DSCP.BE)  # customer marking overridden

    def test_policed_profile_demotes_excess(self):
        tier = QosProfile("t", dscp=int(DSCP.EF), cir_bps=8e3,
                          burst_bytes=200, excess_bytes=100)
        cond = tier.conditioner()
        def pkt():
            return Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2)),
                          payload_bytes=130)  # 150B wire
        assert cond(pkt(), 0.0).ip.dscp == int(DSCP.EF)     # within CIR burst
        assert cond(pkt(), 0.0).ip.dscp == int(DSCP.BE)     # excess bucket
        assert cond(pkt(), 0.0).ip.dscp == int(DSCP.BE)     # red -> remark too

    def test_apply_profile_covers_all_sites(self):
        net = Network(seed=1)
        pe1 = net.add_node(PeRouter(net.sim, "pe1"))
        pe2 = net.add_node(PeRouter(net.sim, "pe2"))
        net.connect(pe1, pe2)
        prov = VpnProvisioner(net)
        vpn = prov.create_vpn("c")
        s1 = prov.add_site(vpn, pe1)
        s2 = prov.add_site(vpn, pe2)
        assert apply_profile(vpn, GOLD) == 2
        for site in (s1, s2):
            assert len(site.ce.interfaces[site.ce_ifname].conditioners) == 1

    def test_apply_profile_covers_hub_both_uplinks(self):
        net = Network(seed=2)
        pe = net.add_node(PeRouter(net.sim, "pe"))
        prov = VpnProvisioner(net)
        vpn = prov.create_hub_spoke_vpn("hs")
        hub = prov.add_site(vpn, pe, role="hub")
        apply_profile(vpn, SILVER)
        assert len(hub.ce.interfaces[hub.ce_ifname].conditioners) == 1
        assert len(hub.ce.interfaces[hub.ce_up_ifname].conditioners) == 1

    def test_tier_marks_end_to_end(self):
        """Unmarked customer traffic arrives tier-marked across the VPN."""
        net = Network(seed=3)
        pe1 = net.add_node(PeRouter(net.sim, "pe1"))
        p = net.add_node(Lsr(net.sim, "p"))
        pe2 = net.add_node(PeRouter(net.sim, "pe2"))
        net.connect(pe1, p); net.connect(p, pe2)
        prov = VpnProvisioner(net)
        vpn = prov.create_vpn("c")
        s1 = prov.add_site(vpn, pe1)
        s2 = prov.add_site(vpn, pe2)
        converge_all(net, prov)
        apply_profile(vpn, GOLD)
        h1, h2 = s1.hosts[0], s2.hosts[0]
        got = []
        h2.add_local_sink(got.append)
        net.sim.schedule(0.0, lambda: h1.send(
            Packet(ip=IPHeader(h1.loopback, h2.loopback, dscp=0),
                   payload_bytes=50)))
        net.run(until=1.0)
        assert got[0].ip.dscp == int(DSCP.EF)


def _intserv_net(n=4, rate=10e6, seed=7):
    net = Network(seed=seed)
    routers = build_line(net, n, rate_bps=rate)
    converge(net)
    return net, routers


class TestIntServ:
    def test_reserve_installs_state_at_every_hop(self):
        net, routers = _intserv_net()
        isv = IntServ(net)
        res = isv.reserve("r0", "r3", FlowMatch(dst_port=5004), 100e3)
        assert res.path == ("r0", "r1", "r2", "r3")
        assert all(len(r.rsvp_flows) == 1 for r in routers)
        assert isv.total_state() == 4

    def test_state_grows_linearly_with_flows(self):
        net, routers = _intserv_net()
        isv = IntServ(net)
        for i in range(10):
            isv.reserve("r0", "r3", FlowMatch(dst_port=6000 + i), 100e3)
        assert isv.state_per_router()["r1"] == 10

    def test_admission_control(self):
        net, routers = _intserv_net(rate=1e6)
        isv = IntServ(net)
        isv.reserve("r0", "r3", FlowMatch(dst_port=1), 0.9e6)
        with pytest.raises(AdmissionError):
            isv.reserve("r0", "r3", FlowMatch(dst_port=2), 0.2e6)
        # Failure left no partial reservations behind.
        assert isv.residual("r0", "r1") == pytest.approx(0.1e6)

    def test_no_path_rejected(self):
        net = Network(seed=1)
        net.add_router("a"); net.add_router("b")
        converge(net)
        with pytest.raises(AdmissionError):
            IntServ(net).reserve("a", "b", FlowMatch(), 1e3)

    def test_refresh_message_accounting(self):
        net, routers = _intserv_net()
        isv = IntServ(net)
        isv.reserve("r0", "r3", FlowMatch(dst_port=1), 1e3)   # 3 hops
        isv.reserve("r0", "r2", FlowMatch(dst_port=2), 1e3)   # 2 hops
        assert isv.refresh_messages_per_interval() == 2 * 3 + 2 * 2
        assert RSVP_REFRESH_S == 30.0

    def test_setup_messages_counted(self):
        net, routers = _intserv_net()
        isv = IntServ(net)
        isv.reserve("r0", "r3", FlowMatch(dst_port=1), 1e3)
        assert net.counters["rsvp.path_msgs"] == 3
        assert net.counters["rsvp.resv_msgs"] == 3

    def test_classifier_matches_reserved_flow(self):
        net, routers = _intserv_net()
        isv = IntServ(net)
        isv.reserve("r0", "r3", FlowMatch(dst_port=5004, proto="udp"), 1e3)
        classify = intserv_classifier(routers[1])
        reserved = Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2),
                                      proto="udp", dst_port=5004),
                          payload_bytes=100)
        other = Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2),
                                   proto="udp", dst_port=80),
                       payload_bytes=100)
        assert classify(reserved) == 0
        assert classify(other) >= 1

    def test_classifier_never_promotes_unreserved_ef(self):
        """IntServ trusts reservations, not markings: an unreserved packet
        marked EF still lands outside the reserved class."""
        net, routers = _intserv_net()
        classify = intserv_classifier(routers[1])
        spoofed = Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2), dscp=46),
                         payload_bytes=100)
        assert classify(spoofed) >= 1
