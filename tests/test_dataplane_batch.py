"""Vector fast-path parity: batching must be invisible in every trace.

The burst-extraction kernel (``repro.sim.engine``) fuses consecutive
same-timestamp ``Node.receive`` events at one node into a single
``receive_batch`` call, and the data plane grows batch entry points
(``ForwardingPipeline.ingress_batch``, ``Interface.send_batch``, ...).
None of that is allowed to change a single observable: these tests run
whole seeded experiments with vector mode on and off and demand
bit-identical flight-recorder traces, then cover the mixed-burst corner
cases (drop mid-batch, TTL expiry mid-batch, ECMP split inside one
burst, cache invalidation between bursts) and the kernel's coalescing
rules directly.
"""

from __future__ import annotations

from typing import Callable

import pytest

from repro.dataplane import GenCache
from repro.net.address import IPv4Address
from repro.net.packet import IPHeader, Packet
from repro.obs import runtime
from repro.qos.queues import DropTailFifo
from repro.routing import converge
from repro.sim.engine import SimulationError, Simulator
from repro.topology import Network, attach_host
from repro.traffic import CbrSource, FlowSink


# ----------------------------------------------------------------------
# Kernel burst extraction: the coalescing rules, tested in isolation.
# ----------------------------------------------------------------------
class _Recv:
    """Stand-in node: a class whose ``receive`` is the batch target."""

    def __init__(self, log: list) -> None:
        self.log = log

    def receive(self, pkt, ifname) -> None:
        self.log.append(("scalar", self, pkt, ifname))


def _dispatch(owner: _Recv, batch: list) -> None:
    owner.log.append(("batch", owner, list(batch)))


class TestBurstExtraction:
    def _sim(self, log: list) -> Simulator:
        sim = Simulator()
        sim.set_batch_target(_Recv.receive, _dispatch)
        return sim

    def test_consecutive_same_time_events_fuse(self) -> None:
        log: list = []
        sim = self._sim(log)
        r = _Recv(log)
        for i in range(3):
            sim.schedule_call(1.0, r.receive, f"p{i}", "eth0")
        sim.run()
        assert log == [("batch", r, [("p0", "eth0"), ("p1", "eth0"),
                                     ("p2", "eth0")])]

    def test_single_event_stays_scalar(self) -> None:
        log: list = []
        sim = self._sim(log)
        r = _Recv(log)
        sim.schedule_call(1.0, r.receive, "p0", "eth0")
        sim.schedule_call(2.0, r.receive, "p1", "eth0")  # different time
        sim.run()
        assert log == [("scalar", r, "p0", "eth0"), ("scalar", r, "p1", "eth0")]

    def test_foreign_event_breaks_the_run(self) -> None:
        log: list = []
        sim = self._sim(log)
        r = _Recv(log)
        sim.schedule_call(1.0, r.receive, "p0", "e")
        sim.schedule_call(1.0, r.receive, "p1", "e")
        sim.schedule(1.0, lambda: log.append(("other",)))
        sim.schedule_call(1.0, r.receive, "p2", "e")
        sim.run()
        # Run of two fuses; the foreign callback keeps its FIFO slot; the
        # trailing lone receive goes scalar.
        assert log == [
            ("batch", r, [("p0", "e"), ("p1", "e")]),
            ("other",),
            ("scalar", r, "p2", "e"),
        ]

    def test_different_receiver_breaks_the_run(self) -> None:
        log: list = []
        sim = self._sim(log)
        r1, r2 = _Recv(log), _Recv(log)
        sim.schedule_call(1.0, r1.receive, "a", "e")
        sim.schedule_call(1.0, r1.receive, "b", "e")
        sim.schedule_call(1.0, r2.receive, "c", "e")
        sim.run()
        assert log == [
            ("batch", r1, [("a", "e"), ("b", "e")]),
            ("scalar", r2, "c", "e"),
        ]

    def test_cancelled_event_inside_run_is_consumed(self) -> None:
        log: list = []
        sim = self._sim(log)
        r = _Recv(log)
        sim.schedule_call(1.0, r.receive, "p0", "e")
        mid = sim.schedule_call(1.0, r.receive, "p1", "e")
        sim.schedule_call(1.0, r.receive, "p2", "e")
        mid.cancel()
        sim.run()
        assert log == [("batch", r, [("p0", "e"), ("p2", "e")])]
        assert sim.pending == 0

    def test_batch_counts_against_event_budget(self) -> None:
        log: list = []
        sim = self._sim(log)
        r = _Recv(log)
        for i in range(4):
            sim.schedule_call(1.0, r.receive, i, "e")
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=2)

    def test_set_batch_target_requires_dispatch(self) -> None:
        sim = Simulator()
        with pytest.raises(SimulationError, match="dispatch"):
            sim.set_batch_target(_Recv.receive)

    def test_clearing_target_restores_scalar(self) -> None:
        log: list = []
        sim = self._sim(log)
        sim.set_batch_target(None)
        r = _Recv(log)
        sim.schedule_call(1.0, r.receive, "p0", "e")
        sim.schedule_call(1.0, r.receive, "p1", "e")
        sim.run()
        assert log == [("scalar", r, "p0", "e"), ("scalar", r, "p1", "e")]


# ----------------------------------------------------------------------
# GenCache: optional capacity bound + the per-burst sync() contract.
# ----------------------------------------------------------------------
class _FakeTable:
    def __init__(self) -> None:
        self.generation = 0


class TestGenCacheCapacity:
    def test_default_is_unbounded(self) -> None:
        c = GenCache(_FakeTable())
        for i in range(5000):
            c.put(i, i)
        assert len(c) == 5000 and c.evictions == 0

    def test_capacity_evicts_oldest_first_at_epoch(self) -> None:
        c = GenCache(_FakeTable(), capacity=2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("c", 3)  # overshoot tolerated until the next epoch boundary
        assert len(c) == 3 and c.evictions == 0
        assert c.get("a") is None  # epoch trim evicts "a" (FIFO) first
        assert len(c) == 2 and c.evictions == 1
        assert c.get("b") == 2 and c.get("c") == 3

    def test_sync_is_an_epoch_boundary(self) -> None:
        c = GenCache(_FakeTable(), capacity=2)
        for key in "abcd":
            c.put(key, key)
        assert len(c) == 4 and c.evictions == 0
        entries = c.sync()  # per-burst trim: oldest two go in one pass
        assert list(entries) == ["c", "d"] and c.evictions == 2

    def test_no_eviction_between_put_and_sync(self) -> None:
        # The columnar-tier contract: fills inside a burst never evict, so
        # a pre-gathered entry stays valid until the next sync()/get().
        c = GenCache(_FakeTable(), capacity=1)
        entries = c.sync()
        c.put("a", 1)
        c.put("b", 2)
        assert entries["a"] == 1 and entries["b"] == 2
        assert list(c.sync()) == ["b"] and c.evictions == 1

    def test_overwrite_does_not_evict(self) -> None:
        c = GenCache(_FakeTable(), capacity=2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("a", 9)  # same key: replace in place, nothing evicted
        assert len(c) == 2 and c.evictions == 0
        assert c.get("a") == 9

    def test_stats_reports_evictions(self) -> None:
        c = GenCache(_FakeTable(), capacity=1)
        c.put("a", 1)
        c.put("b", 2)
        c.sync()
        assert c.stats()["evictions"] == 1

    def test_sync_flushes_stale_entries_once(self) -> None:
        t = _FakeTable()
        c = GenCache(t)
        c.put("k", "v")
        assert c.sync() is c.sync()  # fresh: same live dict, no flush
        assert c.invalidations == 0
        t.generation += 1
        entries = c.sync()
        assert entries == {} and c.invalidations == 1
        c.sync()
        assert c.invalidations == 1  # idempotent until the next bump

    def test_sync_does_not_touch_hit_miss_counters(self) -> None:
        c = GenCache(_FakeTable())
        c.put("k", "v")
        c.sync()["k"]
        assert c.hits == 0 and c.misses == 0  # batch loops bump manually


# ----------------------------------------------------------------------
# Whole-experiment trace parity: vector on vs vector off.
# ----------------------------------------------------------------------
def _trace(run_fn: Callable[[], object]) -> list[tuple]:
    """Uid-normalized flight trace (same idiom as test_engine_parity)."""
    runtime.reset()
    runtime.enable(flight_capacity=1 << 20, profile=False)
    try:
        run_fn()
        records = []
        for session in runtime.sessions():
            records.extend(session.flight.records())
    finally:
        runtime.reset()

    ids: dict[int, int] = {}
    out = []
    for r in records:
        u = ids.setdefault(r.uid, len(ids))
        out.append((
            r.time, r.node, r.event, u, r.flow, r.seq, r.ifname,
            r.labels, r.in_label, r.out_label, r.reason, r.backlog,
        ))
    return out


def _with_vector_mode(on: bool, fn: Callable[[], object]):
    runtime.set_vector_mode(on)
    try:
        return fn()
    finally:
        runtime.set_vector_mode(True)


def _e2() -> None:
    from repro.experiments.e2_qos import run_config
    run_config("mpls-diffserv", measure_s=2.0)


def _e5() -> None:
    from repro.experiments.e5_sla import run_stage
    run_stage("full", measure_s=2.0)


def _e11() -> None:
    from repro.experiments.e11_resilience import run_e11
    run_e11(measure_s=3.0)


@pytest.mark.parametrize(
    "run_fn", [_e2, _e5, _e11], ids=["e2-mpls-diffserv", "e5-full", "e11"]
)
def test_vector_mode_invisible_in_experiment_traces(run_fn) -> None:
    """Batched and scalar runs of a seeded experiment → identical hops."""
    fast = _with_vector_mode(True, lambda: _trace(run_fn))
    slow = _with_vector_mode(False, lambda: _trace(run_fn))
    assert len(fast) > 1000  # the trace actually recorded a real run
    assert fast == slow


# ----------------------------------------------------------------------
# Mixed-burst scenarios: the awkward cases inside one batch.
# ----------------------------------------------------------------------
def _burst_line(queue_cap: int | None = None):
    """tx — r1 —(bottleneck)— r2 — rx with an infinite-rate access link,
    so multi-packet emissions arrive at r1 as one same-timestamp burst."""
    net = Network(seed=7)
    r1 = net.add_router("r1")
    r2 = net.add_router("r2")
    factory = None
    if queue_cap is not None:
        factory = lambda node, ifname: DropTailFifo(capacity_packets=queue_cap)
    net.connect(r1, r2, 1e6, 1e-3, qdisc_factory=factory)
    tx = attach_host(net, r1, "10.66.0.1", name="tx", rate_bps=float("inf"))
    rx = attach_host(net, r2, "10.66.0.2", name="rx", rate_bps=100e6)
    converge(net)
    return net, r1, r2, tx, rx


def _flow_view(sink: FlowSink, flows: list[str]) -> list[tuple]:
    return [(f, tuple(sink.record(f).seqs)) for f in flows]


class TestMixedBursts:
    def test_batches_actually_form_end_to_end(self) -> None:
        """Sanity: with vector mode on, a burst source really does reach
        the router as one multi-packet ``receive_batch`` call — otherwise
        every parity test below would be comparing scalar to scalar."""
        def run():
            net, r1, _r2, tx, _rx = _burst_line()
            sizes: list[int] = []
            orig = r1.receive_batch

            def spy(items):
                sizes.append(len(items))
                orig(items)

            r1.receive_batch = spy
            src = CbrSource(net.sim, tx.send, "f", "10.66.0.1", "10.66.0.2",
                            payload_bytes=200, rate_bps=8e6, burst=8)
            src.start(0.0, stop_at=0.1)
            net.run(until=0.5)
            return sizes

        sizes = _with_vector_mode(True, run)
        assert sizes and max(sizes) == 8

    def _drop_mid_batch(self) -> tuple:
        net, r1, r2, tx, rx = _burst_line(queue_cap=4)
        sink = FlowSink(net.sim).attach(rx)
        # 16-packet trains into a 4-deep bottleneck queue: the tail of
        # every burst dies mid-batch while the head survives.
        src = CbrSource(net.sim, tx.send, "f", "10.66.0.1", "10.66.0.2",
                        payload_bytes=500, rate_bps=4e6, burst=16)
        src.start(0.0, stop_at=1.0)
        net.run(until=3.0)
        iface = r1.interfaces["to-r2"]
        return (
            src.sent,
            _flow_view(sink, ["f"]),
            iface.stats.enqueued,
            iface.stats.dropped,
            dict(r1.stats.by_reason),
        )

    def test_drop_in_middle_of_batch_matches_scalar(self) -> None:
        fast = _with_vector_mode(True, self._drop_mid_batch)
        slow = _with_vector_mode(False, self._drop_mid_batch)
        assert fast == slow
        assert fast[3] > 0  # the bottleneck really dropped

    def _ttl_mix(self) -> tuple:
        net, r1, _r2, _tx, rx = _burst_line()
        sink = FlowSink(net.sim).attach(rx)
        dst = next(iter(rx.addresses))
        # Hand-built burst: alive/expiring interleaved inside one batch
        # (TTL 1 decrements to 0 at r1 and must die there).
        for seq in range(8):
            pkt = Packet(
                ip=IPHeader(IPv4Address.parse("10.66.0.1"), dst,
                            ttl=(1 if seq % 2 else 64)),
                payload_bytes=100, flow="t", seq=seq,
            )
            net.sim.schedule_call(0.5, r1.receive, pkt, "to-tx")
        net.run(until=2.0)
        return (
            _flow_view(sink, ["t"]),
            r1.stats.dropped_ttl,
            r1.stats.rx_packets,
        )

    def test_ttl_expiry_inside_batch_matches_scalar(self) -> None:
        fast = _with_vector_mode(True, self._ttl_mix)
        slow = _with_vector_mode(False, self._ttl_mix)
        assert fast == slow
        assert fast[1] == 4  # the odd seqs expired at r1
        assert fast[0] == [("t", (0, 2, 4, 6))]

    def _ecmp_burst(self) -> tuple:
        # Diamond with equal-cost branches; eight flows emitting in
        # lockstep form one multi-flow burst at s that must split by hash.
        net = Network(seed=6)
        s = net.add_router("s")
        m1 = net.add_router("m1")
        m2 = net.add_router("m2")
        t = net.add_router("t")
        net.connect(s, m1, 10e6, 1e-3)
        net.connect(m1, t, 10e6, 1e-3)
        net.connect(s, m2, 10e6, 1e-3)
        net.connect(m2, t, 10e6, 1e-3)
        tx = attach_host(net, s, "10.66.0.1", name="tx", rate_bps=float("inf"))
        rx = attach_host(net, t, "10.66.0.2", name="rx", rate_bps=100e6)
        converge(net, ecmp=True)
        sink = FlowSink(net.sim).attach(rx)
        flows = []
        for i in range(8):
            src = CbrSource(net.sim, tx.send, f"f{i}", "10.66.0.1",
                            "10.66.0.2", payload_bytes=200, rate_bps=1e6,
                            src_port=1000 + i, dst_port=80, burst=4)
            src.start(0.0, stop_at=0.5)
            flows.append(f"f{i}")
        net.run(until=2.0)
        return (
            m1.stats.rx_packets,
            m2.stats.rx_packets,
            _flow_view(sink, flows),
        )

    def test_ecmp_split_inside_batch_matches_scalar(self) -> None:
        fast = _with_vector_mode(True, self._ecmp_burst)
        slow = _with_vector_mode(False, self._ecmp_burst)
        assert fast == slow
        assert fast[0] > 0 and fast[1] > 0  # both branches carried traffic

    def _invalidation_between_bursts(self) -> tuple:
        net, r1, _r2, tx, rx = _burst_line()
        sink = FlowSink(net.sim).attach(rx)
        src = CbrSource(net.sim, tx.send, "f", "10.66.0.1", "10.66.0.2",
                        payload_bytes=200, rate_bps=2e6, burst=8)
        src.start(0.0, stop_at=1.0)
        # Mid-run route churn: bumping the FIB generation from a scheduled
        # (non-receive) event must flush the flow cache before the next
        # burst — via get() on the scalar path, via sync() on the batch
        # path — with identical counter effects.
        def churn() -> None:
            r1.fib.generation += 1
        net.sim.schedule_at(0.5, churn)
        net.run(until=3.0)
        fc = r1.pipeline.flow_cache
        return (
            _flow_view(sink, ["f"]),
            fc.invalidations,
            fc.hits,
            fc.misses,
        )

    def test_cache_invalidation_between_bursts_matches_scalar(self) -> None:
        fast = _with_vector_mode(True, self._invalidation_between_bursts)
        slow = _with_vector_mode(False, self._invalidation_between_bursts)
        assert fast == slow
        assert fast[1] >= 1  # the churn really flushed the cache
