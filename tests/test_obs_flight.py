"""Flight recorder tests: hop-by-hop reconstruction across an MPLS VPN."""

import pickle

import pytest

from repro.net.packet import IPHeader, Packet
from repro.net.address import IPv4Address
from repro.obs.flightrec import FlightRecorder, HopRecord
from repro.obs.telemetry import Telemetry
from repro.routing import converge
from repro.topology import Network, attach_host, build_line
from repro.traffic import CbrSource

from tests.test_vpn import two_pe_network


def _pkt(flow="f", seq=0, labels=()):
    pkt = Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2)),
                 payload_bytes=10, flow=flow, seq=seq)
    for label in labels:
        pkt.push_label(label)
    return pkt


class TestProducers:
    """Every producer yields the HopRecord it used to construct directly."""

    def test_every_producer_field_for_field(self):
        fr = FlightRecorder()
        plain, labeled = _pkt("a", 3), _pkt("b", 4, labels=(100, 200))
        envelope = Packet(ip=IPHeader(IPv4Address(9), IPv4Address(8)), inner=plain)
        envelope.push_label(77)
        fr.rx(0.1, "n", plain, "eth0")
        fr.enqueue(0.2, "n", labeled, "eth1", 5)
        fr.dequeue(0.3, "n", labeled, "eth1", 4)
        fr.deliver(0.4, "h", plain)
        fr.drop(0.5, "n", labeled, "no_route")
        fr.drop(0.6, "n", plain, "queue_tail", ifname="eth2")
        fr.label_op(0.7, "n", plain, "push", new=300)
        fr.label_op(0.8, "n", labeled, "swap", old=200, new=201)
        fr.label_op(0.9, "n", labeled, "pop", old=200)
        # Keyed by the innermost packet; labels are the outer stack's.
        fr.rx(1.0, "n", envelope, "tun0")
        a, b = plain.uid, labeled.uid
        assert fr.records() == [
            HopRecord(0.1, "n", "rx", a, "a", 3, ifname="eth0"),
            HopRecord(0.2, "n", "enqueue", b, "b", 4, ifname="eth1",
                      labels=(100, 200), backlog=5),
            HopRecord(0.3, "n", "dequeue", b, "b", 4, ifname="eth1",
                      labels=(100, 200), backlog=4),
            HopRecord(0.4, "h", "deliver", a, "a", 3),
            HopRecord(0.5, "n", "drop", b, "b", 4, labels=(100, 200),
                      reason="no_route"),
            HopRecord(0.6, "n", "drop", a, "a", 3, ifname="eth2",
                      reason="queue_tail"),
            HopRecord(0.7, "n", "push", a, "a", 3, out_label=300),
            HopRecord(0.8, "n", "swap", b, "b", 4, labels=(100, 200),
                      in_label=200, out_label=201),
            HopRecord(0.9, "n", "pop", b, "b", 4, labels=(100, 200),
                      in_label=200),
            HopRecord(1.0, "n", "rx", a, "a", 3, ifname="tun0", labels=(77,)),
        ]
        assert fr.recorded == len(fr) == 10
        assert fr.packets_of("a") == [3] and fr.packets_of("b") == [4]
        assert fr.path_of("b", seq=4) == fr.records()[1:3] + [
            fr.records()[4], fr.records()[7], fr.records()[8]]
        assert fr.path_of("b", seq=5) == []
        assert fr.to_json("a")[0] == {
            "time": 0.1, "node": "n", "event": "rx", "uid": a, "flow": "a",
            "seq": 3, "labels": [], "ifname": "eth0",
        }

    def test_records_are_snapshots_of_the_label_stack(self):
        fr = FlightRecorder()
        pkt = _pkt(labels=(100, 200))
        fr.rx(0.0, "n", pkt, "eth0")
        before = fr.records()
        pkt.top_label.label = 201      # as an LSR's SWAP stage writes it
        fr.rx(0.1, "n", pkt, "eth0")
        pkt.pop_label()
        pkt.push_label(300)
        pkt.push_label(400)
        fr.rx(0.2, "n", pkt, "eth0")
        after = fr.records()
        assert [r.labels for r in after] == [(100, 200), (100, 201), (100, 300, 400)]
        assert before == after[:1] and before[0].labels == (100, 200)


class TestRingBuffer:
    def test_capacity_bounds_memory(self):
        fr = FlightRecorder(capacity=4)
        pkt = _pkt()
        for i in range(10):
            fr.deliver(float(i), "n", pkt)
        assert len(fr) == 4
        assert fr.recorded == 10
        summary = fr.summary()
        assert summary == {"capacity": 4, "buffered": 4, "recorded_total": 10,
                           "aged_out": 6}
        # Oldest records fell off the back.
        assert [r.time for r in fr.records()] == [6.0, 7.0, 8.0, 9.0]

    def test_pickle_round_trip_keeps_records(self):
        # A mid-run snapshot carries the recorder on ``net.trace.flight``.
        fr = FlightRecorder(capacity=3)
        for i in range(5):
            fr.enqueue(float(i), "n", _pkt(seq=i, labels=(100 + i,)), "eth0", i)
        clone = pickle.loads(pickle.dumps(fr))
        assert clone.records() == fr.records() and len(clone) == 3
        assert clone.summary() == fr.summary()
        clone.deliver(9.0, "h", _pkt())
        assert len(clone) == 3 and clone.recorded == 6 and fr.recorded == 5

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_to_dict_omits_unset_fields(self):
        rec = HopRecord(1.0, "n", "deliver", 7, "f", 3)
        d = rec.to_dict()
        assert "ifname" not in d and "reason" not in d and "backlog" not in d
        assert d["labels"] == []


class TestVpnPathReconstruction:
    def _run_vpn_flow(self):
        net, prov, vpn, s1, s2 = two_pe_network()
        tel = Telemetry(net, profile=False)
        prov.converge_bgp()
        h1, h2 = s1.hosts[0], s2.hosts[0]
        pkt = Packet(ip=IPHeader(h1.loopback, h2.loopback, dscp=46),
                     payload_bytes=100, flow="f1", seq=1)
        net.sim.schedule(0.0, lambda: h1.send(pkt))
        net.run(until=1.0)
        return net, tel, s1, s2

    def test_full_path_with_label_ops(self):
        net, tel, s1, s2 = self._run_vpn_flow()
        path = tel.flight.path_of("f1")
        assert path, "flight recorder captured nothing"
        # Chronologically ordered.
        times = [r.time for r in path]
        assert times == sorted(times)
        # The packet visited every backbone node.
        nodes_seen = {r.node for r in path}
        assert {"pe1", "p", "pe2"} <= nodes_seen
        # Ingress PE imposed the two-level stack: VPN label first (bottom),
        # then the LDP tunnel label.
        pushes = [r for r in path if r.event == "push"]
        assert len(pushes) >= 2
        vpn_label = s2.pe.vrfs["corp"].vpn_label
        assert pushes[0].node == "pe1" and pushes[0].out_label == vpn_label
        # The egress direction popped the VPN label back off.
        pops = [r for r in path if r.event == "pop"]
        assert any(r.node == "pe2" and r.in_label == vpn_label for r in pops)
        # Queueing hops carry interface and backlog.
        enq = [r for r in path if r.event == "enqueue"]
        assert enq and all(r.ifname and r.backlog is not None for r in enq)
        # Journey ends with local delivery at the remote host.
        assert path[-1].event == "deliver"
        assert path[-1].node == s2.hosts[0].name

    def test_labels_recorded_per_hop(self):
        net, tel, s1, s2 = self._run_vpn_flow()
        # While crossing the core the packet carried the VPN label at the
        # bottom of its stack.
        core_rx = [r for r in tel.flight.path_of("f1")
                   if r.node == "p" and r.event == "rx"]
        vpn_label = s2.pe.vrfs["corp"].vpn_label
        assert core_rx and core_rx[0].labels[0] == vpn_label
        assert len(core_rx[0].labels) == 2

    def test_explain_renders_journey(self):
        net, tel, s1, s2 = self._run_vpn_flow()
        text = tel.flight.explain("f1")
        assert "flow 'f1'" in text
        for node in ("pe1", "p", "pe2"):
            assert node in text
        assert "push" in text and "deliver" in text

    def test_drop_reason_recorded(self):
        net, prov, vpn, s1, s2 = two_pe_network()
        tel = Telemetry(net, profile=False)
        prov.converge_bgp()
        h1 = s1.hosts[0]
        # Destination outside every site prefix: VRF lookup miss at pe1.
        pkt = Packet(ip=IPHeader(h1.loopback, IPv4Address.parse("10.99.0.1")),
                     payload_bytes=50, flow="lost", seq=0)
        net.sim.schedule(0.0, lambda: h1.send(pkt))
        net.run(until=1.0)
        drops = [r for r in tel.flight.path_of("lost") if r.event == "drop"]
        assert len(drops) == 1
        assert drops[0].node == "pe1"
        assert drops[0].reason == "no_vrf_route"
        assert "reason=no_vrf_route" in tel.flight.explain("lost")

    def test_queue_drop_recorded_with_interface(self):
        from repro.qos.queues import DropTailFifo
        net = Network(seed=3)
        net.default_qdisc_factory = lambda n, i: DropTailFifo(capacity_packets=3)
        routers = build_line(net, 2, rate_bps=1e6)
        tx = attach_host(net, routers[0], "10.5.0.1", name="tx", rate_bps=100e6)
        rx = attach_host(net, routers[1], "10.5.0.2", name="rx", rate_bps=100e6)
        converge(net)
        tel = Telemetry(net, profile=False)
        src = CbrSource(net.sim, tx.send, "burst", "10.5.0.1", "10.5.0.2",
                        payload_bytes=1000, rate_bps=20e6)
        src.start(0.0, stop_at=0.5)
        net.run(until=1.0)
        drops = [r for r in tel.flight.records() if r.event == "drop"]
        assert drops, "overloaded bottleneck produced no recorded drops"
        assert all(r.reason == "queue_tail" for r in drops)
        assert all(r.ifname for r in drops)

    def test_flow_accounting_at_vpn_edge(self):
        net, tel, s1, s2 = self._run_vpn_flow()
        rows = tel.flows.table()
        assert rows, "no flow accounting rows at the PEs"
        ingress = [r for r in rows if r["direction"] == "ingress"]
        egress = [r for r in rows if r["direction"] == "egress"]
        assert ingress[0]["pe"] == "pe1" and ingress[0]["vrf"] == "corp"
        assert egress[0]["pe"] == "pe2" and egress[0]["vrf"] == "corp"
        # DSCP 46 -> EF class; one packet each way through the edge.
        assert ingress[0]["class"] == "EF"
        assert tel.flows.totals("corp", "ingress")[0] == 1
        assert tel.flows.totals("corp", "egress")[0] == 1
