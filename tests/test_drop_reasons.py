"""Tests for the DropReason taxonomy and queue-drop visibility."""


from repro.net.address import IPv4Address
from repro.net.drops import DropReason
from repro.net.node import Node
from repro.net.packet import IPHeader, Packet
from repro.qos.cbq import CbqClass, CbqScheduler
from repro.qos.queues import DropTailFifo, PriorityScheduler
from repro.qos.shaper import TokenBucketShaper
from repro.routing import converge
from repro.sim.engine import Simulator
from repro.topology import Network, attach_host, build_line
from repro.traffic import CbrSource


def mk_pkt(flow="f", seq=0, dscp=0):
    return Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2), dscp=dscp),
                  payload_bytes=100, flow=flow, seq=seq)


class TestTaxonomy:
    def test_values_are_stable_strings(self):
        for r in DropReason:
            assert r.value == r.value.lower()
            assert " " not in r.value


class TestNodeAccounting:
    def _node(self):
        sim = Simulator()
        return Node(sim, "n")

    def test_enum_drop_fills_bucket_and_by_reason(self):
        n = self._node()
        n.drop(mk_pkt(), DropReason.NO_VRF_ROUTE)
        n.drop(mk_pkt(), DropReason.TTL)
        n.drop(mk_pkt(), DropReason.TTL)
        assert n.stats.by_reason == {"no_vrf_route": 1, "ttl": 2}
        assert n.stats.dropped_total == 3

    def test_trace_reason_stays_a_string(self):
        n = self._node()
        got = []
        n.trace.subscribe("drop", got.append)
        n.drop(mk_pkt(), DropReason.TTL)
        assert got[0].reason == "ttl"
        assert isinstance(got[0].reason, str)


class TestQueueDropCallbacks:
    def test_droptail_tail_drop_reason(self):
        # One contract for every counting discipline: a refused packet is
        # counted on its class queue and reported to the callback.
        fifo = DropTailFifo(capacity_packets=1)
        cbq = CbqScheduler(
            [CbqClass("only", rate_bps=1e6, capacity_packets=1)],
            classify=lambda pkt: 0,
        )
        shaper = TokenBucketShaper(1e6, 10_000, capacity_packets=1)
        for q, (stats,) in (
            (fifo, fifo.classes),
            (cbq, cbq.classes),
            (shaper, shaper.classes),
        ):
            seen = []
            q.set_drop_callback(lambda pkt, reason, now: seen.append(reason))
            assert q.enqueue(mk_pkt(seq=0), 0.0)
            assert not q.enqueue(mk_pkt(seq=1), 0.0)
            assert seen == [DropReason.QUEUE_TAIL], type(q).__name__
            assert (stats.enqueued, stats.dropped) == (1, 1), type(q).__name__

    def test_droptail_aqm_drop_reason(self):
        class AlwaysDrop:
            def should_drop(self, pkt, backlog_bytes, now):
                return True
            def notify_dequeue(self, backlog_bytes, now):
                pass
        q = DropTailFifo(capacity_packets=10, drop_policy=AlwaysDrop())
        seen = []
        q.set_drop_callback(lambda pkt, reason, now: seen.append(reason))
        assert not q.enqueue(mk_pkt(), 0.0)
        assert seen == [DropReason.QUEUE_AQM]

    def test_classful_scheduler_propagates_callback(self):
        queues = [DropTailFifo(1, name="EF"), DropTailFifo(1, name="BE")]
        sched = PriorityScheduler(queues, classify=lambda pkt: 0)
        seen = []
        sched.set_drop_callback(lambda pkt, reason, now: seen.append(reason))
        assert sched.enqueue(mk_pkt(seq=0), 0.0)
        assert not sched.enqueue(mk_pkt(seq=1), 0.0)
        assert seen == [DropReason.QUEUE_TAIL]

    def test_base_class_callback_is_noop(self):
        # The abstract default must accept the call without effect.
        from repro.qos.queues import QueueDiscipline
        QueueDiscipline().set_drop_callback(lambda pkt, reason, now: None)


class TestQueueDropsOnTraceBus:
    def _overloaded_net(self):
        net = Network(seed=7)
        net.default_qdisc_factory = lambda n, i: DropTailFifo(capacity_packets=3)
        routers = build_line(net, 2, rate_bps=1e6)
        tx = attach_host(net, routers[0], "10.6.0.1", name="tx", rate_bps=100e6)
        attach_host(net, routers[1], "10.6.0.2", name="rx", rate_bps=100e6)
        converge(net)
        src = CbrSource(net.sim, tx.send, "burst", "10.6.0.1", "10.6.0.2",
                        payload_bytes=1000, rate_bps=20e6)
        src.start(0.0, stop_at=0.5)
        return net

    def test_queue_drops_published(self):
        """Queue/AQM drops used to bump a counter silently; now every one
        is a 'drop' trace record naming node, interface, and reason."""
        net = self._overloaded_net()
        net.trace.record("drop")
        net.run(until=1.0)
        recs = net.trace.records("drop")
        assert recs, "no drop records despite an overloaded 1 Mb/s link"
        assert all(r.reason == "queue_tail" for r in recs)
        assert all(r.iface for r in recs)
        assert recs[0].node == "r0"
        # Trace count matches the interface's drop counter.
        iface_drops = sum(i.stats.dropped
                          for n in net.nodes.values()
                          for i in n.interfaces.values())
        assert len(recs) == iface_drops

    def test_qdisc_swap_after_construction_stays_wired(self):
        """Assigning a new qdisc to an existing interface must rewire the
        drop callback (the property setter owns the wiring)."""
        net = self._overloaded_net()
        dl = net.duplex_links[0]
        dl.if_ab.qdisc = DropTailFifo(capacity_packets=1)
        net.trace.record("drop")
        net.run(until=1.0)
        assert net.trace.records("drop")


class TestMeterCounts:
    def test_srtcm_counts(self):
        from repro.qos.meter import SrTCM
        m = SrTCM(cir_bps=8e3, cbs_bytes=1000, ebs_bytes=1000)
        for _ in range(20):
            m.color(500, now=0.0)
        counts = m.counts()
        assert sum(counts.values()) == 20
        assert counts["red"] > 0  # burst far beyond cbs+ebs

    def test_trtcm_counts(self):
        from repro.qos.meter import TrTCM
        m = TrTCM(cir_bps=8e3, cbs_bytes=500, pir_bps=16e3, pbs_bytes=1000)
        for _ in range(20):
            m.color(500, now=0.0)
        counts = m.counts()
        assert sum(counts.values()) == 20
        assert counts["red"] > 0
