"""Tests for equal-cost multipath routing."""


from repro.dataplane import flow_hash
from repro.net.address import IPv4Address
from repro.net.packet import IPHeader, Packet
from repro.routing import converge
from repro.routing.fib import RouteEntry
from repro.topology import Network, attach_host
from repro.traffic import CbrSource, FlowSink


def diamond():
    """s - (m1|m2) - t with two equal-cost branches."""
    net = Network(seed=6)
    s = net.add_router("s")
    m1 = net.add_router("m1")
    m2 = net.add_router("m2")
    t = net.add_router("t")
    net.connect(s, m1, 10e6, 1e-3)
    net.connect(m1, t, 10e6, 1e-3)
    net.connect(s, m2, 10e6, 1e-3)
    net.connect(m2, t, 10e6, 1e-3)
    return net, s, m1, m2, t


class TestFlowHash:
    def _pkt(self, sport=0, dport=0):
        return Packet(ip=IPHeader(IPv4Address.parse("10.0.0.1"),
                                  IPv4Address.parse("10.0.0.2"),
                                  src_port=sport, dst_port=dport),
                      payload_bytes=10)

    def test_stable_per_flow(self):
        assert flow_hash(self._pkt(5, 6)) == flow_hash(self._pkt(5, 6))

    def test_differs_across_flows(self):
        hashes = {flow_hash(self._pkt(p, 80)) for p in range(16)}
        assert len(hashes) > 8  # near-perfect distinctness over 16 ports


class TestEcmpRoutes:
    def test_alternates_installed(self):
        net, s, m1, m2, t = diamond()
        converge(net, ecmp=True)
        entry = s.fib.lookup(t.loopback)
        assert entry is not None
        assert len(entry.all_paths) == 2
        assert entry.out_ifname == "to-m1"          # lowest name = primary
        assert entry.alternates[0][0] == "to-m2"

    def test_single_path_has_no_alternates(self):
        net, s, m1, m2, t = diamond()
        converge(net, ecmp=True)
        entry = s.fib.lookup(m1.loopback)
        assert entry.alternates == ()

    def test_non_ecmp_mode_unchanged(self):
        net, s, m1, m2, t = diamond()
        converge(net, ecmp=False)
        entry = s.fib.lookup(t.loopback)
        assert entry.alternates == ()

    def test_all_paths_property(self):
        e = RouteEntry("a", None, alternates=(("b", None),))
        assert e.all_paths == (("a", None), ("b", None))

    def test_float_metric_sums_tie_under_shared_epsilon(self):
        """0.1 + 0.2 != 0.3 in binary floats; the one shared tie tolerance
        (spf_core.TIE_EPS) must make the two branches equal cost anyway —
        in the Dijkstra tie-break AND the ECMP multipath condition."""
        net = Network(seed=6)
        s = net.add_router("s")
        m1 = net.add_router("m1")
        m2 = net.add_router("m2")
        t = net.add_router("t")
        net.connect(s, m1, 10e6, 1e-3, metric=0.1)
        net.connect(m1, t, 10e6, 1e-3, metric=0.2)
        net.connect(s, m2, 10e6, 1e-3, metric=0.3)
        net.connect(m2, t, 10e6, 1e-3, metric=1e-13)  # below TIE_EPS: free hop
        converge(net, ecmp=True)
        entry = s.fib.lookup(t.loopback)
        assert entry is not None
        assert len(entry.all_paths) == 2
        assert entry.out_ifname == "to-m1"          # lexicographic primary
        assert entry.alternates[0][0] == "to-m2"


class TestEcmpForwarding:
    def test_flows_spread_and_do_not_reorder(self):
        net, s, m1, m2, t = diamond()
        tx = attach_host(net, s, "10.66.0.1", name="tx")
        rx = attach_host(net, t, "10.66.0.2", name="rx")
        converge(net, ecmp=True)
        sink = FlowSink(net.sim).attach(rx)
        sources = []
        for i in range(8):
            src = CbrSource(net.sim, tx.send, f"f{i}", "10.66.0.1", "10.66.0.2",
                            payload_bytes=200, rate_bps=0.5e6,
                            src_port=1000 + i, dst_port=80)
            src.start(0.0, stop_at=1.0)
            sources.append(src)
        net.run(until=2.0)
        # Both branches carried traffic.
        assert m1.stats.rx_packets > 0
        assert m2.stats.rx_packets > 0
        # Every flow fully delivered in order (single path per flow).
        for i, src in enumerate(sources):
            rec = sink.record(f"f{i}")
            assert rec.count == src.sent
            assert rec.seqs == sorted(rec.seqs)

    def test_aggregate_capacity_doubles(self):
        """With ECMP, many flows exceed one branch's capacity without loss."""
        net, s, m1, m2, t = diamond()
        tx = attach_host(net, s, "10.66.0.1", name="tx", rate_bps=100e6)
        rx = attach_host(net, t, "10.66.0.2", name="rx", rate_bps=100e6)
        converge(net, ecmp=True)
        sink = FlowSink(net.sim).attach(rx)
        sources = []
        # 16 flows x 1 Mb/s = 16 Mb/s offered over 2 x 10 Mb/s branches.
        for i in range(16):
            src = CbrSource(net.sim, tx.send, f"g{i}", "10.66.0.1", "10.66.0.2",
                            payload_bytes=500, rate_bps=1e6,
                            src_port=2000 + i, dst_port=80)
            src.start(0.0, stop_at=2.0)
            sources.append(src)
        net.run(until=3.0)
        sent = sum(s_.sent for s_ in sources)
        recv = sum(sink.received(f"g{i}") for i in range(16))
        # Hash imbalance can overload one branch slightly; demand 90 %+.
        assert recv / sent > 0.9
