"""Coverage for corners the focused suites skip: experiment plumbing,
SPF internals, interface retry machinery, generator base contracts."""

import pytest

from repro.experiments.common import (
    ExperimentRun,
    QdiscSpec,
    run_and_summarize,
    three_class_queues,
)
from repro.net.address import IPv4Address
from repro.net.packet import IPHeader, Packet
from repro.qos.queues import (
    DropTailFifo,
    FairQueueing,
    PriorityScheduler,
    WeightedRoundRobin,
)
from repro.qos.classifier import llsp_classifier
from repro.qos.red import RedParams, RedQueueManager, WredQueueManager
from repro.qos.shaper import TokenBucketShaper
from repro.routing import converge
from repro.routing.spf import spf_paths
from repro.sim.engine import Simulator
from repro.topology import Network, attach_host, build_line
from repro.traffic import CbrSource, FlowSink, TrafficSource


class TestQdiscFactory:
    @pytest.mark.parametrize("kind,cls", [
        ("fifo", DropTailFifo),
        ("priority", PriorityScheduler),
        ("wfq", FairQueueing),
        ("wrr", WeightedRoundRobin),
    ])
    def test_kinds(self, kind, cls):
        net = Network()
        factory = QdiscSpec(kind)
        r = net.add_router("r")
        assert isinstance(factory(r, "eth0"), cls)

    def test_drr_kind(self):
        from repro.qos.queues import DeficitRoundRobin
        net = Network()
        factory = QdiscSpec("drr")
        assert isinstance(factory(net.add_router("r"), "e"), DeficitRoundRobin)

    def test_unknown_kind_rejected(self):
        # Refused when the spec is built, naming the kinds it knows, not at
        # the first connect.
        with pytest.raises(ValueError, match="unknown qdisc kind 'bogus'.*'wfq'"):
            QdiscSpec("bogus")

    def test_aqm_typo_rejected(self):
        # A misspelt AQM kind is not silently WRED.
        with pytest.raises(ValueError, match="unknown qdisc kind 'redd'.*'wred'"):
            QdiscSpec("redd", 150_000, object())

    @pytest.mark.parametrize("kwargs, match", [
        ({"kind": "wfq", "cap_bytes": 150_000}, "takes no AQM field"),
        ({"kind": "fifo", "rng": object()}, "takes no AQM field"),
        ({"kind": "red", "cap_bytes": 150_000}, "needs cap_bytes and rng"),
        ({"kind": "droptail", "rng": object()}, "needs cap_bytes and rng"),
        ({"kind": "red", "cap_bytes": 1, "rng": object()}, "needs RedParams"),
        ({"kind": "wred", "cap_bytes": 1, "rng": object(),
          "red": RedParams(1, 2, 0.1)}, "takes no RedParams"),
        ({"kind": "droptail", "cap_bytes": 1, "rng": object(),
          "classifier": llsp_classifier}, "takes no classifier"),
    ])
    def test_fields_checked_against_kind(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            QdiscSpec(**kwargs)

    @pytest.mark.parametrize("kind, policy", [
        ("droptail", None), ("red", RedQueueManager), ("wred", WredQueueManager),
    ])
    def test_aqm_kinds(self, kind, policy):
        red = RedParams(1000, 5000, 0.1) if kind == "red" else None
        net = Network()
        fifo = QdiscSpec(kind, 150_000, net.streams.stream("aqm"), red)(
            net.add_router("r"), "eth0")
        assert type(fifo) is DropTailFifo and fifo.capacity_bytes == 150_000
        if policy is None:
            assert fifo.drop_policy is None
        else:
            assert type(fifo.drop_policy) is policy

    def test_three_class_queues_order(self):
        qs = three_class_queues(7)
        assert [q.name for q in qs] == ["EF", "AF", "BE"]
        assert all(q.capacity_packets == 7 for q in qs)


class TestExperimentRun:
    def _net(self):
        net = Network(seed=4)
        routers = build_line(net, 2, rate_bps=10e6)
        tx = attach_host(net, routers[0], "10.31.0.1", name="tx")
        rx = attach_host(net, routers[1], "10.31.0.2", name="rx")
        converge(net)
        return net, tx, rx

    def test_sources_start_and_stop_in_window(self):
        net, tx, rx = self._net()
        run = ExperimentRun(net, warmup_s=1.0, measure_s=2.0)
        sink = run.sink_at(rx)
        src = run.add_source(
            CbrSource(net.sim, tx.send, "f", "10.31.0.1", "10.31.0.2",
                      rate_bps=1e6)
        )
        run.execute()
        rec = sink.record("f")
        assert rec.arrival_times[0] >= 1.0
        # Created times bounded by warmup+measure.
        assert max(rec.arrivals_array() - rec.delays_array()) < 3.0 + 1e-9

    def test_sink_at_caches_per_node(self):
        net, tx, rx = self._net()
        run = ExperimentRun(net)
        assert run.sink_at(rx) is run.sink_at(rx)

    def test_run_and_summarize(self):
        net, tx, rx = self._net()
        run = ExperimentRun(net, warmup_s=0.1, measure_s=1.0)
        sink = run.sink_at(rx)
        src = run.add_source(
            CbrSource(net.sim, tx.send, "f", "10.31.0.1", "10.31.0.2",
                      rate_bps=1e6)
        )
        stats = run_and_summarize(run, [(src, sink)])
        assert len(stats) == 1
        assert stats[0].received == src.sent

    def test_explicit_start_time(self):
        net, tx, rx = self._net()
        run = ExperimentRun(net, warmup_s=1.0, measure_s=2.0)
        sink = run.sink_at(rx)
        src = CbrSource(net.sim, tx.send, "late", "10.31.0.1", "10.31.0.2",
                        rate_bps=1e6)
        run.add_source(src, start=2.0)
        run.execute()
        rec = sink.record("late")
        assert rec.arrival_times[0] >= 2.0


class TestSpfInternals:
    def test_parallel_links_prefer_lower_metric(self):
        net = Network()
        a = net.add_router("a")
        b = net.add_router("b")
        net.connect(a, b, metric=5)
        net.connect(a, b, metric=1)   # the better parallel link
        converge(net)
        entry = a.fib.lookup(b.loopback)
        assert entry.metric == 1

    def test_spf_handles_isolated_router(self):
        net = Network()
        build_line(net, 2)
        lonely = net.add_router("lonely")
        count = converge(net)
        assert count > 0
        assert lonely.fib.lookup(net.node("r0").loopback) is None

    def test_path_through_higher_metric_when_necessary(self):
        net = Network()
        a, b, c = (net.add_router(n) for n in "abc")
        net.connect(a, b, metric=10)
        net.connect(b, c, metric=10)
        converge(net)
        assert spf_paths(net, "a", "c") == ["a", "b", "c"]


class TestInterfaceRetry:
    def test_new_enqueue_cancels_pending_retry(self):
        """A shaper wake-up must not double-fire when traffic re-arrives."""
        net = Network()
        routers = build_line(net, 2, rate_bps=10e6)
        tx = attach_host(net, routers[0], "10.32.0.1", name="tx")
        rx = attach_host(net, routers[1], "10.32.0.2", name="rx")
        converge(net)
        dl = net.link_between("r0", "r1")
        dl.if_ab.qdisc = TokenBucketShaper(1e5, 600, capacity_packets=200)
        sink = FlowSink(net.sim).attach(rx)
        src = CbrSource(net.sim, tx.send, "s", "10.32.0.1", "10.32.0.2",
                        payload_bytes=480, rate_bps=4e5)
        src.start(0.0, stop_at=1.0)
        net.run(until=6.0)
        rec = sink.record("s")
        # Everything eventually delivered exactly once, in order.
        assert rec.count == src.sent
        assert rec.seqs == sorted(set(rec.seqs))

    def test_idle_shaper_quiesces(self):
        """No livelock: after the backlog drains the simulator goes quiet."""
        net = Network()
        routers = build_line(net, 2, rate_bps=10e6)
        tx = attach_host(net, routers[0], "10.33.0.1", name="tx")
        rx = attach_host(net, routers[1], "10.33.0.2", name="rx")
        converge(net)
        dl = net.link_between("r0", "r1")
        dl.if_ab.qdisc = TokenBucketShaper(1e6, 2000)
        p = Packet(ip=IPHeader(IPv4Address.parse("10.33.0.1"),
                               IPv4Address.parse("10.33.0.2")),
                   payload_bytes=100)
        net.sim.schedule(0.0, lambda: tx.send(p))
        net.run(until=1.0)
        assert net.sim.pending == 0  # no lingering wakeups


class TestTrafficSourceBase:
    def test_abstract_gap_raises(self):
        src = TrafficSource(Simulator(), lambda p: None, "f",
                            "10.0.0.1", "10.0.0.2")
        with pytest.raises(NotImplementedError):
            src.next_gap()
        with pytest.raises(NotImplementedError):
            src.offered_rate_bps

    def test_start_before_now_clamps(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        got = []
        src = CbrSource(sim, got.append, "f", "10.0.0.1", "10.0.0.2",
                        rate_bps=1e6)
        src.start(at=0.0, stop_at=sim.now + 0.01)  # "at" is in the past
        sim.run()
        assert got  # clamped to now and emitted

    def test_bytes_accounting(self):
        sim = Simulator()
        got = []
        src = CbrSource(sim, got.append, "f", "10.0.0.1", "10.0.0.2",
                        payload_bytes=100, rate_bps=1e6)
        src.start(0.0, stop_at=0.01)
        sim.run()
        assert src.bytes_sent == sum(p.wire_bytes for p in got)
