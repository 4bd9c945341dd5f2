"""Tests for interfaces, links, nodes, and hosts."""

import pytest

from repro.net.address import IPv4Address, Prefix
from repro.net.drops import DropReason
from repro.net.link import Interface, Link
from repro.net.node import Host, Node, ProcessingModel
from repro.net.packet import IPHeader, Packet
from repro.qos.queues import DropTailFifo
from repro.routing import converge
from repro.sim.engine import Simulator
from repro.topology import Network, attach_host, build_line
from repro.traffic import CbrSource
from repro.traffic.fluid import FluidAggregate, PacketExpander


class Recorder(Node):
    """Minimal node that logs what it receives."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.got = []

    def handle(self, pkt, ifname):
        self.got.append((pkt, ifname, self.sim.now))


def wire(sim, a, b, rate_bps=1e6, delay_s=0.01):
    """One simplex link a->b with a DropTail interface on a."""
    iface = Interface(sim, a, "eth0", rate_bps, DropTailFifo())
    a.add_interface(iface)
    link = Link(sim, "a->b", b, "eth0", delay_s)
    iface.attach(link)
    return iface, link


def pkt(size=1000, dst="10.0.0.2"):
    return Packet(ip=IPHeader(IPv4Address.parse("10.0.0.1"),
                              IPv4Address.parse(dst)),
                  payload_bytes=size - 20)


class TestTransmission:
    def test_delivery_time_is_serialization_plus_propagation(self):
        sim = Simulator()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        iface, _ = wire(sim, a, b, rate_bps=1e6, delay_s=0.01)
        p = pkt(1000)  # 1000 B = 8000 bits -> 8 ms at 1 Mb/s
        sim.schedule(0.0, lambda: iface.send(p))
        sim.run()
        assert len(b.got) == 1
        assert b.got[0][2] == pytest.approx(0.018)

    def test_back_to_back_packets_pipeline(self):
        sim = Simulator()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        iface, _ = wire(sim, a, b, rate_bps=1e6, delay_s=0.01)
        sim.schedule(0.0, lambda: (iface.send(pkt(1000)), iface.send(pkt(1000))))
        sim.run()
        times = [t for _, _, t in b.got]
        # Second packet waits one serialization time, not one RTT.
        assert times == [pytest.approx(0.018), pytest.approx(0.026)]

    def test_hop_counter_increments(self):
        sim = Simulator()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        iface, _ = wire(sim, a, b)
        p = pkt()
        sim.schedule(0.0, lambda: iface.send(p))
        sim.run()
        assert p.hops == 1

    def test_queue_overflow_drops(self):
        sim = Simulator()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        iface = Interface(sim, a, "eth0", 1e3, DropTailFifo(capacity_packets=2))
        a.add_interface(iface)
        link = Link(sim, "l", b, "eth0", 0.001)
        iface.attach(link)
        sent = [iface.send(pkt()) for _ in range(5)]
        # First dequeues immediately into the transmitter, 2 queue, rest drop.
        assert sum(sent) == 3
        assert iface.stats.dropped == 2

    def test_link_down_blackholes(self):
        sim = Simulator()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        iface, link = wire(sim, a, b)
        link.up = False
        sim.schedule(0.0, lambda: iface.send(pkt()))
        sim.run()
        assert b.got == []
        assert iface.stats.tx_packets == 1  # transmitted, lost on the wire

    @pytest.mark.parametrize("rate", [0.0, -1e6, float("nan")])
    def test_impossible_rate_rejected_at_construction_and_in_setter(self, rate):
        sim = Simulator()
        a = Recorder(sim, "a")
        with pytest.raises(ValueError, match=r"a\.eth0"):
            Interface(sim, a, "eth0", rate, DropTailFifo())
        iface = Interface(sim, a, "eth0", float("inf"), DropTailFifo())  # inf is legal
        with pytest.raises(ValueError, match=r"a\.eth0"):
            iface.rate_bps = rate
        assert iface.rate_bps == float("inf")

    @pytest.mark.parametrize("delay", [-1.0, float("inf"), float("nan")])
    def test_impossible_delay_rejected(self, delay):
        sim = Simulator()
        with pytest.raises(ValueError, match="a->b"):
            Link(sim, "a->b", Recorder(sim, "b"), "eth0", delay)

    def test_utilization_accounting(self):
        sim = Simulator()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        iface, _ = wire(sim, a, b, rate_bps=1e6)
        sim.schedule(0.0, lambda: iface.send(pkt(1000)))
        sim.run()
        assert iface.stats.busy_time == pytest.approx(0.008)
        assert iface.stats.utilization(0.016) == pytest.approx(0.5)
        assert iface.stats.tx_bytes == 1000

    def test_conditioner_can_drop(self):
        sim = Simulator()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        iface, _ = wire(sim, a, b)
        iface.add_conditioner(lambda p, now: None)
        assert iface.send(pkt()) is False
        assert iface.stats.conditioner_dropped == 1

    def test_conditioner_can_rewrite(self):
        sim = Simulator()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        iface, _ = wire(sim, a, b)
        def mark(p, now):
            p.ip.dscp = 46
            return p
        iface.add_conditioner(mark)
        sim.schedule(0.0, lambda: iface.send(pkt()))
        sim.run()
        assert b.got[0][0].ip.dscp == 46


class TestNode:
    def test_duplicate_interface_rejected(self):
        sim = Simulator()
        n = Recorder(sim, "n")
        n.add_interface(Interface(sim, n, "eth0", 1e6, DropTailFifo()))
        with pytest.raises(ValueError):
            n.add_interface(Interface(sim, n, "eth0", 1e6, DropTailFifo()))

    def test_owns_addresses(self):
        sim = Simulator()
        n = Recorder(sim, "n")
        n.set_loopback("172.16.0.1")
        n.add_address("192.168.0.1", "eth0")
        assert n.owns(IPv4Address.parse("172.16.0.1"))
        assert n.owns(IPv4Address.parse("192.168.0.1"))
        assert not n.owns(IPv4Address.parse("10.0.0.1"))

    def test_connected_prefix_recorded(self):
        sim = Simulator()
        n = Recorder(sim, "n")
        n.add_address("192.168.0.1", "eth0", Prefix.parse("192.168.0.0/30"))
        assert Prefix.parse("192.168.0.0/30") in n.connected_prefixes

    def test_drop_accounting(self):
        sim = Simulator()
        n = Recorder(sim, "n")
        n.drop(pkt(), DropReason.TTL)
        n.drop(pkt(), DropReason.NO_ROUTE)
        n.drop(pkt(), DropReason.OTHER)
        assert n.stats.by_reason == {"ttl": 1, "no_route": 1, "other": 1}
        assert n.stats.dropped_total == 3

    def test_drop_publishes_trace(self):
        sim = Simulator()
        n = Recorder(sim, "n")
        n.trace.record("drop")
        n.drop(pkt(), DropReason.TTL)
        recs = n.trace.records("drop")
        assert len(recs) == 1 and recs[0].reason == "ttl"

    def test_local_sink_called_on_delivery(self):
        sim = Simulator()
        n = Recorder(sim, "n")
        got = []
        n.add_local_sink(got.append)
        p = pkt()
        n.deliver_local(p)
        assert got == [p]
        assert n.stats.delivered == 1

    def test_after_processing_immediate_when_zero(self):
        sim = Simulator()
        n = Recorder(sim, "n")
        ran = []
        n.after_processing(0.0, lambda: ran.append(sim.now))
        assert ran == [0.0]  # synchronous

    def test_after_processing_delays(self):
        sim = Simulator()
        n = Recorder(sim, "n")
        ran = []
        n.after_processing(0.5, lambda: ran.append(sim.now))
        assert ran == []
        sim.run()
        assert ran == [0.5]

    def test_processing_model_crypto_time(self):
        m = ProcessingModel(crypto_bps=8e6)
        assert m.crypto_time(1000) == pytest.approx(0.001)
        assert ProcessingModel().crypto_time(1000) == 0.0


class TestHost:
    def test_delivers_own_traffic(self):
        sim = Simulator()
        h = Host(sim, "h")
        h.add_address("10.0.0.2", "eth0")
        got = []
        h.add_local_sink(got.append)
        h.handle(pkt(dst="10.0.0.2"), "eth0")
        assert len(got) == 1

    def test_forwards_via_gateway(self):
        sim = Simulator()
        h = Host(sim, "h")
        b = Recorder(sim, "b")
        iface, _ = wire(sim, h, b)
        h.gateway_ifname = "eth0"
        sim.schedule(0.0, lambda: h.send(pkt(dst="10.9.9.9")))
        sim.run()
        assert len(b.got) == 1

    def test_single_interface_implied_gateway(self):
        sim = Simulator()
        h = Host(sim, "h")
        b = Recorder(sim, "b")
        wire(sim, h, b)
        sim.schedule(0.0, lambda: h.send(pkt(dst="10.9.9.9")))
        sim.run()
        assert len(b.got) == 1

    def test_no_gateway_drops(self):
        sim = Simulator()
        h = Host(sim, "h")
        h.send(pkt())
        assert h.stats.by_reason == {"no_route": 1}

    def test_sink_may_keep_delivered_packets(self):
        # ``add_local_sink(got.append)`` is the idiom the examples teach:
        # what a sink was handed stays intact, whichever source built it.
        def cbr(net, tx):
            return CbrSource(net.sim, tx.send, "f", "10.66.0.1", "10.66.0.2",
                             payload_bytes=980, rate_bps=8e5)

        def expander(net, tx):
            agg = FluidAggregate(net.sim, "f", "10.66.0.1", "10.66.0.2",
                                 payload_bytes=980, rate_bps=8e5)
            exp = PacketExpander(agg)
            exp.target(tx.send, 0.0)
            return exp

        for make in (cbr, expander):
            net = Network(seed=1)
            routers = build_line(net, 2)
            tx = attach_host(net, routers[0], "10.66.0.1", name="tx")
            rx = attach_host(net, routers[1], "10.66.0.2", name="rx")
            converge(net)
            got = []
            rx.add_local_sink(got.append)
            make(net, tx).start(0.0, stop_at=0.055)  # 10 ms apart: six
            net.run(until=1.0)
            assert [p.seq for p in got] == [0, 1, 2, 3, 4, 5], make.__name__
            assert len({id(p) for p in got}) == 6, make.__name__
            assert all(str(p.ip.dst) == "10.66.0.2" for p in got)
