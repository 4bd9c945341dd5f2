"""Tests for MPLS: label spaces, LFIB/FTN, LSR data plane, LDP, TE."""

import pytest

from repro.mpls.label import (
    EXPLICIT_NULL,
    IMPLICIT_NULL,
    LabelExhausted,
    LabelSpace,
)
from repro.mpls.ldp import run_ldp
from repro.mpls.lfib import FtnTable, LabelOp, Lfib, LfibEntry, Nhlfe
from repro.mpls.lsr import Lsr
from repro.mpls.te import AdmissionError, TrafficEngineering
from repro.net.address import IPv4Address, Prefix
from repro.net.packet import IPHeader, Packet
from repro.routing.router import Router
from repro.routing.spf import converge
from repro.topology import Network, attach_host


def pkt(src="10.0.0.1", dst="10.0.0.2", dscp=0, ttl=64):
    return Packet(ip=IPHeader(IPv4Address.parse(src), IPv4Address.parse(dst),
                              dscp=dscp, ttl=ttl), payload_bytes=100)


class TestLabelSpace:
    def test_allocates_from_16(self):
        ls = LabelSpace()
        assert ls.allocate() == 16
        assert ls.allocate() == 17

    def test_release_and_reuse(self):
        ls = LabelSpace()
        a = ls.allocate()
        ls.release(a)
        assert ls.allocate() == a

    def test_double_free_rejected(self):
        ls = LabelSpace()
        a = ls.allocate()
        ls.release(a)
        with pytest.raises(ValueError):
            ls.release(a)

    def test_contains_and_count(self):
        ls = LabelSpace()
        a = ls.allocate()
        assert a in ls and ls.in_use == 1
        ls.release(a)
        assert a not in ls and ls.in_use == 0

    def test_bad_first_rejected(self):
        with pytest.raises(ValueError):
            LabelSpace(first=3)

    def test_exhaustion(self):
        ls = LabelSpace(first=(1 << 20) - 1)
        ls.allocate()
        with pytest.raises(LabelExhausted):
            ls.allocate()


class TestLfib:
    def test_entry_validation(self):
        with pytest.raises(ValueError):
            LfibEntry(LabelOp.SWAP, out_label=5)  # missing ifname
        with pytest.raises(ValueError):
            LfibEntry(LabelOp.POP)  # missing ifname
        with pytest.raises(ValueError):
            LfibEntry(LabelOp.VPN)  # missing vrf

    @pytest.mark.parametrize("kw", [
        dict(op=LabelOp.SWAP, out_label=1 << 20, out_ifname="eth0"),
        dict(op=LabelOp.SWAP, out_label=-1, out_ifname="eth0"),
        dict(op=LabelOp.SWAP_PUSH, out_label=17, push_label=1 << 20, out_ifname="eth0"),
        dict(op=LabelOp.SWAP_PUSH, out_label=1 << 20, push_label=17, out_ifname="eth0"),
    ])
    def test_entry_labels_are_20_bit(self, kw):
        """The label-op stage writes an entry's labels into the stack
        unchecked, so the entry refuses one outside 20 bits."""
        with pytest.raises(ValueError, match="20-bit"):
            LfibEntry(**kw)
        edge = LfibEntry(LabelOp.SWAP_PUSH, out_label=0xFFFFF, push_label=0,
                         out_ifname="eth0")
        assert (edge.out_label, edge.push_label) == (0xFFFFF, 0)

    @pytest.mark.parametrize("labels", [(1 << 20,), (17, 1 << 20), (-1,)])
    def test_nhlfe_labels_are_20_bit(self, labels):
        """Imposition (the scalar stage and the burst tier) pushes an
        NHLFE's labels unchecked, so the NHLFE refuses one outside 20 bits."""
        with pytest.raises(ValueError, match="20-bit"):
            Nhlfe("eth0", labels)
        assert Nhlfe("eth0", (0, 3, 0xFFFFF)).labels == (0, 3, 0xFFFFF)

    def test_install_lookup_remove(self):
        lfib = Lfib()
        e = LfibEntry(LabelOp.SWAP, out_label=99, out_ifname="eth0")
        lfib.install(16, e)
        assert lfib.lookup(16) is e
        assert 16 in lfib and len(lfib) == 1
        assert lfib.remove(16) is True
        assert lfib.lookup(16) is None
        assert lfib.remove(16) is False

    def test_lookup_counter(self):
        lfib = Lfib()
        lfib.lookup(1); lfib.lookup(2)
        assert lfib.lookups == 2

    def test_ftn_bind_lookup(self):
        ftn = FtnTable()
        n = Nhlfe("eth0", (17,))
        ftn.bind("10.0.0.0/8", n)
        assert ftn.lookup(Prefix.parse("10.0.0.0/8")) is n
        assert ftn.lookup(Prefix.parse("11.0.0.0/8")) is None
        assert ftn.unbind("10.0.0.0/8") is True
        assert len(ftn) == 0


class TestLsrDataPlane:
    def _lsr_pair(self):
        net = Network()
        a = net.add_node(Lsr(net.sim, "a"))
        b = net.add_node(Lsr(net.sim, "b"))
        net.connect(a, b, 10e6, 0.001)
        return net, a, b

    def test_swap_forwards_and_decrements(self):
        net, a, b = self._lsr_pair()
        a.lfib.install(16, LfibEntry(LabelOp.SWAP, out_label=17, out_ifname="to-b"))
        p = pkt(ttl=10)
        p.push_label(16, exp=3)
        got = []
        b.handle = lambda pk, ifn: got.append(pk)
        net.sim.schedule(0.0, lambda: a.handle(p, "in"))
        net.run(until=1.0)
        assert got and got[0].top_label.label == 17
        assert got[0].top_label.exp == 3       # EXP preserved
        assert got[0].top_label.ttl == 9

    def test_unknown_label_dropped(self):
        net, a, b = self._lsr_pair()
        p = pkt()
        p.push_label(999)
        a.handle(p, "in")
        assert a.stats.by_reason == {"no_label": 1}

    def test_php_pop_forwards_ip(self):
        net, a, b = self._lsr_pair()
        a.lfib.install(16, LfibEntry(LabelOp.POP, out_ifname="to-b"))
        p = pkt(ttl=10)
        p.push_label(16)
        got = []
        b.handle = lambda pk, ifn: got.append(pk)
        net.sim.schedule(0.0, lambda: a.handle(p, "in"))
        net.run(until=1.0)
        assert got and got[0].top_label is None
        assert got[0].ip.ttl == 9  # uniform TTL model

    def test_ttl_expiry_on_label_path(self):
        net, a, b = self._lsr_pair()
        a.lfib.install(16, LfibEntry(LabelOp.SWAP, out_label=17, out_ifname="to-b"))
        p = pkt(ttl=64)
        p.push_label(16, ttl=1)
        a.handle(p, "in")
        assert a.stats.by_reason == {"ttl": 1}

    def test_pop_process_delivers_own_ip(self):
        net, a, b = self._lsr_pair()
        a.set_loopback("172.16.5.5")
        a.lfib.install(16, LfibEntry(LabelOp.POP_PROCESS))
        got = []
        a.add_local_sink(got.append)
        p = pkt(dst="172.16.5.5")
        p.push_label(16)
        a.handle(p, "in")
        assert len(got) == 1

    def test_pop_process_recurses_inner_label(self):
        net, a, b = self._lsr_pair()
        a.lfib.install(16, LfibEntry(LabelOp.POP_PROCESS))
        a.lfib.install(17, LfibEntry(LabelOp.SWAP, out_label=20, out_ifname="to-b"))
        got = []
        b.handle = lambda pk, ifn: got.append(pk)
        p = pkt()
        p.push_label(17)
        p.push_label(16)
        net.sim.schedule(0.0, lambda: a.handle(p, "in"))
        net.run(until=1.0)
        assert got and got[0].top_label.label == 20

    def test_vpn_label_without_hook_drops(self):
        net, a, b = self._lsr_pair()
        a.vpn_deliver = None
        a.lfib.install(16, LfibEntry(LabelOp.VPN, vrf="x"))
        p = pkt()
        p.push_label(16)
        a.handle(p, "in")
        assert a.stats.by_reason == {"vpn_label_no_vrf": 1}

    def test_imposition_sets_exp_from_dscp(self):
        net, a, b = self._lsr_pair()
        a.fib.install("10.0.0.0/8", __import__("repro.routing.fib", fromlist=["RouteEntry"]).RouteEntry("to-b"))
        a.ftn.bind("10.0.0.0/8", Nhlfe("to-b", (30,)))
        got = []
        b.handle = lambda pk, ifn: got.append(pk)
        p = pkt(dscp=46)
        net.sim.schedule(0.0, lambda: a.handle(p, "in"))
        net.run(until=1.0)
        assert got[0].top_label.label == 30
        assert got[0].top_label.exp == 5

    def test_imposition_fixed_exp_override(self):
        net, a, b = self._lsr_pair()
        from repro.routing.fib import RouteEntry
        a.fib.install("10.0.0.0/8", RouteEntry("to-b"))
        a.ftn.bind("10.0.0.0/8", Nhlfe("to-b", (30,)))
        a.impose_exp = 0
        got = []
        b.handle = lambda pk, ifn: got.append(pk)
        p = pkt(dscp=46)
        net.sim.schedule(0.0, lambda: a.handle(p, "in"))
        net.run(until=1.0)
        assert got[0].top_label.exp == 0

    @pytest.mark.parametrize("bad", [8, 9, -1, True, 5.0, "5"])
    def test_impose_exp_setter_rejects_a_non_exp_value(self, bad):
        net, a, b = self._lsr_pair()
        a.impose_exp = 5
        with pytest.raises(ValueError, match="^a: impose_exp"):
            a.impose_exp = bad
        assert a.impose_exp == 5
        for good in (None, 0, 7):
            a.impose_exp = good
            assert a.impose_exp == good

    def test_implicit_null_in_nhlfe_skipped(self):
        net, a, b = self._lsr_pair()
        from repro.routing.fib import RouteEntry
        a.fib.install("10.0.0.0/8", RouteEntry("to-b"))
        a.ftn.bind("10.0.0.0/8", Nhlfe("to-b", (IMPLICIT_NULL,)))
        got = []
        b.handle = lambda pk, ifn: got.append(pk)
        net.sim.schedule(0.0, lambda: a.handle(pkt(), "in"))
        net.run(until=1.0)
        assert got[0].top_label is None


def _lsr_line(n=4, rate=10e6):
    net = Network()
    routers = [net.add_node(Lsr(net.sim, f"r{i}")) for i in range(n)]
    for i in range(n - 1):
        net.connect(routers[i], routers[i + 1], rate, 0.001)
    return net, routers


class TestLdp:
    def test_bindings_cover_all_lsrs(self):
        net, routers = _lsr_line(4)
        converge(net)
        res = run_ldp(net)
        fec = Prefix.of(routers[3].loopback, 32)
        b = res.bindings[fec]
        assert b["r3"] == IMPLICIT_NULL
        assert all(name in b for name in ("r0", "r1", "r2"))

    def test_php_penultimate_pops(self):
        net, routers = _lsr_line(3)
        converge(net)
        res = run_ldp(net)
        fec = Prefix.of(routers[2].loopback, 32)
        in_label_r1 = res.bindings[fec]["r1"]
        entry = routers[1].lfib.lookup(in_label_r1)
        assert entry.op is LabelOp.POP

    def test_explicit_null_keeps_label_to_egress(self):
        net, routers = _lsr_line(3)
        converge(net)
        res = run_ldp(net, php=False, use_explicit_null=True)
        fec = Prefix.of(routers[2].loopback, 32)
        assert res.bindings[fec]["r2"] == EXPLICIT_NULL
        entry = routers[2].lfib.lookup(EXPLICIT_NULL)
        assert entry.op is LabelOp.POP_PROCESS

    def test_no_php_allocates_real_egress_label(self):
        net, routers = _lsr_line(3)
        converge(net)
        res = run_ldp(net, php=False)
        fec = Prefix.of(routers[2].loopback, 32)
        label = res.bindings[fec]["r2"]
        assert label >= 16
        assert routers[2].lfib.lookup(label).op is LabelOp.POP_PROCESS

    def test_php_and_explicit_null_conflict(self):
        net, routers = _lsr_line(2)
        converge(net)
        with pytest.raises(ValueError):
            run_ldp(net, php=True, use_explicit_null=True)

    def test_end_to_end_labeled_delivery(self):
        net, routers = _lsr_line(4)
        h1 = attach_host(net, routers[0], "10.30.0.1")
        h2 = attach_host(net, routers[3], "10.30.0.2")
        converge(net)
        run_ldp(net)
        got = []
        h2.add_local_sink(got.append)
        net.sim.schedule(0.0, lambda: h1.send(pkt("10.30.0.1", "10.30.0.2")))
        net.run(until=1.0)
        assert len(got) == 1
        # Transit LSR actually label-switched.
        assert routers[1].lfib.lookups >= 1

    def test_mixed_backbone_stops_at_plain_router(self):
        """Ordered control: no bindings upstream of a non-LSR hop."""
        net = Network()
        a = net.add_node(Lsr(net.sim, "a"))
        m = net.add_node(Router(net.sim, "m"))  # legacy IP router
        b = net.add_node(Lsr(net.sim, "b"))
        net.connect(a, m); net.connect(m, b)
        converge(net)
        res = run_ldp(net)
        fec = Prefix.of(b.loopback, 32)
        assert "a" not in res.bindings[fec]
        # Traffic still flows over IP.
        h1 = attach_host(net, a, "10.31.0.1")
        h2 = attach_host(net, b, "10.31.0.2")
        converge(net)
        got = []
        h2.add_local_sink(got.append)
        net.sim.schedule(0.0, lambda: h1.send(pkt("10.31.0.1", "10.31.0.2")))
        net.run(until=1.0)
        assert len(got) == 1

    def test_message_and_session_counting(self):
        net, routers = _lsr_line(3)
        converge(net)
        res = run_ldp(net)
        assert res.sessions == 2
        assert res.mapping_messages > 0
        assert net.counters["ldp.sessions"] == 2
        assert net.counters["ldp.mapping_msgs"] == res.mapping_messages

    def test_advertised_prefix_becomes_fec(self):
        net, routers = _lsr_line(3)
        h = attach_host(net, routers[2], "10.33.0.9")
        converge(net)
        res = run_ldp(net)
        assert Prefix.parse("10.33.0.9/32") in res.bindings


class TestTrafficEngineering:
    def _net(self):
        net, routers = _lsr_line(4, rate=10e6)
        converge(net)
        return net, routers

    def test_cspf_finds_shortest(self):
        net, routers = self._net()
        te = TrafficEngineering(net)
        assert te.cspf("r0", "r3", 1e6) == ["r0", "r1", "r2", "r3"]

    def test_cspf_respects_bandwidth(self):
        net, routers = self._net()
        te = TrafficEngineering(net)
        te.setup("big", "r0", "r3", 8e6)
        assert te.cspf("r0", "r3", 4e6) is None  # residual 2M only

    def test_cspf_avoid_nodes_and_links(self):
        net = Network()
        nodes = {n: net.add_node(Lsr(net.sim, n)) for n in "abcd"}
        net.connect("a", "b"); net.connect("b", "d")
        net.connect("a", "c"); net.connect("c", "d")
        converge(net)
        te = TrafficEngineering(net)
        assert te.cspf("a", "d", 1e6, avoid_nodes=["b"]) == ["a", "c", "d"]
        assert te.cspf("a", "d", 1e6, avoid_links=[("a", "b")]) == ["a", "c", "d"]

    def test_admission_error_leaves_no_state(self):
        net, routers = self._net()
        te = TrafficEngineering(net)
        te.setup("first", "r0", "r3", 8e6)
        before = dict(te.reserved)
        with pytest.raises(AdmissionError):
            te.signal("second", ["r0", "r1", "r2", "r3"], 4e6)
        assert te.reserved == before
        assert "second" not in te.lsps

    def test_signal_installs_swap_chain(self):
        net, routers = self._net()
        te = TrafficEngineering(net)
        lsp = te.setup("t", "r0", "r3", 1e6)
        assert lsp.up and lsp.ingress == "r0" and lsp.egress == "r3"
        # First-hop label known; transit r1, r2 have entries; PHP on last.
        assert lsp.hop_labels[0] >= 16
        assert lsp.hop_labels[-1] == IMPLICIT_NULL
        assert len(routers[1].lfib) == 1
        assert len(routers[2].lfib) == 1

    def test_teardown_releases_everything(self):
        net, routers = self._net()
        te = TrafficEngineering(net)
        lsp = te.setup("t", "r0", "r3", 1e6)
        te.autoroute(lsp, [Prefix.of(routers[3].loopback, 32)])
        te.teardown("t")
        assert te.residual("r0", "r1") == 10e6
        assert len(routers[1].lfib) == 0
        assert len(routers[0].ftn) == 0
        assert routers[1].labels.in_use == 0

    def test_duplicate_name_rejected(self):
        net, routers = self._net()
        te = TrafficEngineering(net)
        te.setup("t", "r0", "r3", 1e6)
        with pytest.raises(ValueError):
            te.signal("t", ["r0", "r1"], 1e6)

    def test_subscription_factor(self):
        net, routers = self._net()
        te = TrafficEngineering(net, subscription=0.5)
        assert te.residual("r0", "r1") == 5e6
        with pytest.raises(AdmissionError):
            te.setup("t", "r0", "r3", 6e6)

    def test_explicit_route_overrides_igp(self):
        """A TE LSP pinned over the long way actually carries traffic there."""
        net = Network()
        nodes = {n: net.add_node(Lsr(net.sim, n)) for n in "abcd"}
        net.connect("a", "b"); net.connect("b", "d")  # short: a-b-d
        net.connect("a", "c"); net.connect("c", "d")  # alt: a-c-d
        h1 = attach_host(net, nodes["a"], "10.34.0.1")
        h2 = attach_host(net, nodes["d"], "10.34.0.2")
        converge(net)
        te = TrafficEngineering(net)
        lsp = te.signal("pin", ["a", "c", "d"], 1e6)
        te.autoroute(lsp, [Prefix.parse("10.34.0.2/32")])
        got = []
        h2.add_local_sink(got.append)
        net.sim.schedule(0.0, lambda: h1.send(pkt("10.34.0.1", "10.34.0.2")))
        net.run(until=1.0)
        assert len(got) == 1
        assert nodes["c"].lfib.lookups == 1   # went via c
        assert nodes["b"].stats.rx_packets == 0

    def test_ingress_nhlfe(self):
        net, routers = self._net()
        te = TrafficEngineering(net)
        lsp = te.setup("t", "r0", "r3", 1e6)
        nhlfe = te.ingress_nhlfe(lsp)
        assert nhlfe.out_ifname == "to-r1"
        assert nhlfe.labels == (lsp.hop_labels[0],)

    def test_rsvp_message_counters(self):
        net, routers = self._net()
        te = TrafficEngineering(net)
        te.setup("t", "r0", "r3", 1e6)
        assert net.counters["rsvp.path_msgs"] == 3
        assert net.counters["rsvp.resv_msgs"] == 3


class TestLlsp:
    def test_signal_with_class_populates_label_map(self):
        net, routers = _lsr_line(4)
        converge(net)
        te = TrafficEngineering(net)
        lsp = te.signal("v", ["r0", "r1", "r2", "r3"], 1e6, php=False,
                        scheduling_class=0)
        # Transmitting nodes know the class of the label they send.
        assert routers[0].label_class[lsp.hop_labels[0]] == 0
        assert routers[1].label_class[lsp.hop_labels[1]] == 0
        assert routers[2].label_class[lsp.hop_labels[2]] == 0

    def test_teardown_clears_label_map(self):
        net, routers = _lsr_line(3)
        converge(net)
        te = TrafficEngineering(net)
        te.signal("v", ["r0", "r1", "r2"], 1e6, php=False, scheduling_class=1)
        te.teardown("v")
        # Receiving-side registrations die with the LFIB entries.
        assert all(
            lbl not in r.label_class
            for r in routers for lbl in list(r.label_class)
            if lbl in r.lfib.entries()
        )

    def test_llsp_classifier_prefers_label_map(self):
        from repro.qos.classifier import llsp_classifier
        net, routers = _lsr_line(2)
        lsr = routers[0]
        lsr.label_class[777] = 0
        classify = llsp_classifier(lsr)
        p = pkt(dscp=0)
        p.push_label(777, exp=0)       # BE by EXP, EF by label map
        assert classify(p) == 0
        q = pkt(dscp=0)
        q.push_label(778, exp=0)       # unknown label: falls back to EXP
        assert classify(q) == 2
