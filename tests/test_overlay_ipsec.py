"""Tests for the overlay-VC and IPsec baselines."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.address import IPv4Address
from repro.net.node import ProcessingModel
from repro.net.packet import IPHeader, Packet
from repro.routing.spf import converge
from repro.topology import Network, attach_host, build_line
from repro.vpn.ipsec import (
    IKEV1_HANDSHAKE_MESSAGES,
    IpsecGateway,
    esp_overhead_bytes,
)
from repro.vpn.overlay import (
    OverlayVpnBuilder,
    VcRouter,
    expected_full_mesh_circuits,
)


def vc_line(net, n):
    routers = [net.add_node(VcRouter(net.sim, f"v{i}")) for i in range(n)]
    for i in range(n - 1):
        net.connect(routers[i], routers[i + 1], 10e6, 0.001)
    return routers


class TestOverlayFormula:
    @pytest.mark.parametrize("n,expected", [(2, 1), (10, 45), (200, 19900)])
    def test_paper_numbers(self, n, expected):
        """§2.1: '45 virtual circuits' at 10 sites, '~20,000' at 200."""
        assert expected_full_mesh_circuits(n) == expected


class TestOverlayBuilder:
    def test_full_mesh_circuit_count(self):
        net = Network()
        routers = vc_line(net, 4)
        converge(net)
        builder = OverlayVpnBuilder(net)
        result = builder.build_full_mesh([r.name for r in routers])
        assert result.circuit_count == 6
        assert len(result.circuits) == 12  # unidirectional pairs

    def test_transit_state_installed_everywhere(self):
        net = Network()
        routers = vc_line(net, 4)
        converge(net)
        builder = OverlayVpnBuilder(net)
        builder.build_full_mesh(["v0", "v3"])
        # The v0->v3 circuit needs swap state at v0, v1, v2 + term at v3.
        assert len(routers[1].vc_table) >= 1
        assert len(routers[2].vc_table) >= 1
        assert len(routers[3].vc_terminations) >= 1

    def test_signaling_messages_scale_with_hops(self):
        net = Network()
        vc_line(net, 4)
        converge(net)
        builder = OverlayVpnBuilder(net)
        builder.provision_circuit("v0", "v3")  # 3 hops
        assert net.counters["overlay.signaling_msgs"] == 6

    def test_hub_spoke_linear_circuits(self):
        net = Network()
        hub = net.add_node(VcRouter(net.sim, "hub"))
        spokes = [net.add_node(VcRouter(net.sim, f"s{i}")) for i in range(5)]
        for s in spokes:
            net.connect(hub, s, 10e6, 0.001)
        converge(net)
        builder = OverlayVpnBuilder(net)
        result = builder.build_hub_spoke("hub", [s.name for s in spokes])
        assert result.circuit_count == 5

    def test_no_path_raises(self):
        net = Network()
        net.add_node(VcRouter(net.sim, "a"))
        net.add_node(VcRouter(net.sim, "b"))
        converge(net)
        with pytest.raises(ValueError):
            OverlayVpnBuilder(net).provision_circuit("a", "b")

    def test_data_plane_delivery_over_vc(self):
        net = Network()
        routers = vc_line(net, 4)
        converge(net)
        builder = OverlayVpnBuilder(net)
        vc = builder.provision_circuit("v0", "v3")
        got = []
        routers[3].add_local_sink(got.append)
        p = Packet(ip=IPHeader(IPv4Address.parse("10.0.0.1"),
                               IPv4Address.parse("10.0.0.2")),
                   payload_bytes=100, vc_id=vc.vc_id)
        net.sim.schedule(0.0, lambda: routers[0].handle(p, "in"))
        net.run(until=1.0)
        assert len(got) == 1
        assert got[0].vc_id is None  # stripped at termination

    def test_unknown_vc_dropped(self):
        net = Network()
        routers = vc_line(net, 2)
        converge(net)
        p = Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2)),
                   payload_bytes=10, vc_id=777)
        routers[0].handle(p, "in")
        assert routers[0].stats.by_reason == {"no_vc": 1}

    def test_state_census(self):
        net = Network()
        routers = vc_line(net, 3)
        converge(net)
        builder = OverlayVpnBuilder(net)
        result = builder.build_full_mesh(["v0", "v1", "v2"])
        assert result.total_state_entries == sum(
            r.vc_state_entries for r in routers
        )
        assert result.max_state_on_one_node >= result.total_state_entries // 3


class TestEspOverhead:
    def test_known_value_3des(self):
        # inner 120 B: pad = (8 - (122 % 8)) % 8 = 6 -> 8+8+6+2+12 = 36.
        assert esp_overhead_bytes(120) == 36

    def test_known_value_aes(self):
        # inner 120 B, block 16, iv 16: pad = (16 - 122 % 16) % 16 = 6.
        assert esp_overhead_bytes(120, block=16, iv=16) == 8 + 16 + 6 + 2 + 12

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            esp_overhead_bytes(-1)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=9000),
           st.sampled_from([8, 16]), st.sampled_from([8, 16]))
    def test_alignment_property(self, inner, block, iv):
        """inner + pad + 2 is always a whole number of cipher blocks."""
        ovh = esp_overhead_bytes(inner, block=block, iv=iv)
        pad = ovh - 8 - iv - 2 - 12
        assert 0 <= pad < block
        assert (inner + pad + 2) % block == 0


def ipsec_pair(copy_dscp=False, crypto_bps=0.0, rtt=0.0):
    """gw1 - r - gw2 with hosts on each side and SAs established."""
    net = Network()
    crypto = ProcessingModel(crypto_bps=crypto_bps)
    r = build_line(net, 1, prefix="core")[0]
    gw1 = net.add_node(IpsecGateway(net.sim, "gw1", processing=crypto))
    gw2 = net.add_node(IpsecGateway(net.sim, "gw2", processing=crypto))
    net.connect(gw1, r, 10e6, 0.001)
    net.connect(gw2, r, 10e6, 0.001)
    h1 = attach_host(net, gw1, "10.1.0.1", advertise=False)
    h2 = attach_host(net, gw2, "10.2.0.1", advertise=False)
    converge(net)
    gw1.add_policy("10.2.0.0/24", gw2.loopback)
    gw2.add_policy("10.1.0.0/24", gw1.loopback)
    sa1 = gw1.establish_sa(gw2.loopback, rtt_s=rtt, copy_dscp=copy_dscp)
    sa2 = gw2.establish_sa(gw1.loopback, rtt_s=rtt, copy_dscp=copy_dscp)
    return net, gw1, gw2, h1, h2, sa1, sa2


class TestIpsecGateway:
    def _send(self, net, h1, dst="10.2.0.1", dscp=0, at=0.0):
        p = Packet(ip=IPHeader(IPv4Address.parse("10.1.0.1"),
                               IPv4Address.parse(dst), dscp=dscp),
                   payload_bytes=100, flow="f", created=at)
        net.sim.schedule_at(at, lambda: h1.send(p))
        return p

    def test_end_to_end_through_tunnel(self):
        net, gw1, gw2, h1, h2, sa1, sa2 = ipsec_pair()
        got = []
        h2.add_local_sink(got.append)
        self._send(net, h1)
        net.run(until=1.0)
        assert len(got) == 1
        assert got[0].ip.dst == IPv4Address.parse("10.2.0.1")
        assert sa1.encapsulated == 1 and sa2.decapsulated == 1

    def test_core_sees_only_outer_header(self):
        net, gw1, gw2, h1, h2, sa1, sa2 = ipsec_pair(copy_dscp=False)
        core = net.node("core0")
        seen = []
        orig = core.handle
        def spy(pk, ifn):
            seen.append((pk.ip.src, pk.ip.dst, pk.ip.dscp, pk.encrypted))
            orig(pk, ifn)
        core.handle = spy
        self._send(net, h1, dscp=46)
        net.run(until=1.0)
        src, dst, dscp, enc = seen[0]
        assert src == gw1.loopback and dst == gw2.loopback
        assert dscp == 0 and enc  # claim C3: EF marking invisible

    def test_copy_dscp_exposes_class(self):
        net, gw1, gw2, h1, h2, sa1, sa2 = ipsec_pair(copy_dscp=True)
        core = net.node("core0")
        seen = []
        orig = core.handle
        def spy(pk, ifn):
            seen.append(pk.ip.dscp)
            orig(pk, ifn)
        core.handle = spy
        self._send(net, h1, dscp=46)
        net.run(until=1.0)
        assert seen[0] == 46

    def test_inner_dscp_restored_at_exit(self):
        net, gw1, gw2, h1, h2, sa1, sa2 = ipsec_pair(copy_dscp=False)
        got = []
        h2.add_local_sink(got.append)
        self._send(net, h1, dscp=46)
        net.run(until=1.0)
        assert got[0].ip.dscp == 46

    def test_sa_pending_drops(self):
        net, gw1, gw2, h1, h2, sa1, sa2 = ipsec_pair(rtt=1.0)
        # 9 messages at 0.5 s one-way -> usable at 4.5 s.
        got = []
        h2.add_local_sink(got.append)
        self._send(net, h1, at=0.0)
        net.run(until=2.0)
        assert got == []
        assert sa1.dropped_pending == 1
        self._send(net, h1, at=5.0)
        net.run(until=7.0)
        assert len(got) == 1

    def test_no_policy_routes_plain(self):
        net, gw1, gw2, h1, h2, sa1, sa2 = ipsec_pair()
        # Traffic to the gateway itself is not tunneled.
        got = []
        gw2.add_local_sink(got.append)
        self._send(net, h1, dst=str(gw2.loopback))
        net.run(until=1.0)
        assert len(got) == 1
        assert sa1.encapsulated == 0

    def test_crypto_cost_delays(self):
        fast = ipsec_pair(crypto_bps=0.0)
        slow = ipsec_pair(crypto_bps=1e6)
        times = []
        for net, gw1, gw2, h1, h2, sa1, sa2 in (fast, slow):
            got = []
            h2.add_local_sink(lambda p, g=got: g.append(net.sim.now))
            self._send(net, h1)
            net.run(until=5.0)
            times.append(got[0])
        assert times[1] > times[0]

    def test_ike_message_count(self):
        net, gw1, gw2, h1, h2, sa1, sa2 = ipsec_pair()
        assert gw1.total_ike_messages() == IKEV1_HANDSHAKE_MESSAGES

    def test_decap_without_sa_drops(self):
        net, gw1, gw2, h1, h2, sa1, sa2 = ipsec_pair()
        gw2.sas.clear()
        self._send(net, h1)
        net.run(until=1.0)
        assert gw2.stats.by_reason == {"no_sa": 1}
