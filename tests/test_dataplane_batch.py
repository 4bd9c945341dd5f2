"""Vector fast-path parity: batching must be invisible in every trace.

The burst-extraction kernel (``repro.sim.engine``) fuses consecutive
same-timestamp ``Node.receive`` events at one node into a single
``receive_batch`` call.  A ``Router`` hands the burst to
``ForwardingPipeline.ingress_batch``, which serves a *uniform* burst (one
already-cached verdict for every row) in one loop and every other burst
packet by packet through ``node.receive`` — the scalar stages.  None of
that is allowed to change a single observable: these tests run whole
seeded experiments with vector mode on and off and demand bit-identical
flight-recorder traces, then cover the bursts that are one row away from
uniform as whole scenarios (drop mid-batch, TTL expiry mid-batch, ECMP
split inside one burst, cache invalidation between bursts), node classes
that override ``handle``, and the kernel's coalescing rules directly.
The per-shape parity of the uniform tier and its bounce conditions is in
``tests/test_columnar_properties.py``.
"""

from __future__ import annotations

from typing import Callable

import pytest

from repro.dataplane import GenCache
from repro.dataplane.pipeline import COLUMNAR_MIN
from repro.mpls import Lsr
from repro.mpls.lfib import LabelOp, LfibEntry, Nhlfe
from repro.net.address import IPv4Address
from repro.net.packet import IPHeader, Packet
from repro.obs import runtime
from repro.qos.queues import DropTailFifo
from repro.routing import converge
from repro.sim.engine import SimulationError, Simulator
from repro.topology import Network, attach_host
from repro.traffic import CbrSource, FlowSink
from repro.vpn.ipsec import IpsecGateway
from repro.vpn.overlay import OverlayVpnBuilder, VcRouter


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
# GenCache: no residency bound + the per-burst sync() contract.
# ----------------------------------------------------------------------
class _FakeTable:
    def __init__(self) -> None:
        self.generation = 0


class TestGenCacheCapacity:
    def test_default_is_unbounded(self) -> None:
        c = GenCache(_FakeTable())
        for i in range(5000):
            c.put(i, i)
        assert len(c) == 5000
        assert all(c.get(i) == i for i in (0, 2500, 4999))

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
            r1.stats.by_reason.get("ttl", 0),
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
        # burst — via get() on the scalar path, via sync() in the uniform
        # tier (which then bounces the cold burst) — with identical
        # counter effects.
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


class _ExpTap(DropTailFifo):
    """Logs the top entry's EXP of every labeled packet queued here."""

    def __init__(self, log: list) -> None:
        super().__init__()
        self.log = log

    def enqueue(self, pkt: Packet, now: float) -> bool:
        if pkt.mpls_stack:
            self.log.append(pkt.mpls_stack[-1].exp)
        return super().enqueue(pkt, now)


class TestCheckedLabelFields:
    """Both tiers write a label-stack entry's fields without checking
    them, so each field is checked where its value is made: an NHLFE's and
    an LFIB entry's labels by their constructors, a pinned EXP by the
    ``impose_exp`` setter."""

    def _pin_bad_exp_mid_run(self) -> tuple:
        net = Network(seed=7)
        r1 = net.add_node(Lsr(net.sim, "r1"))
        r2 = net.add_node(Lsr(net.sim, "r2"))
        exps: list[int] = []
        net.connect(r1, r2, 1e6, 1e-3,
                    qdisc_factory=lambda node, ifname: _ExpTap(exps))
        tx = attach_host(net, r1, "10.66.0.1", name="tx", rate_bps=float("inf"))
        rx = attach_host(net, r2, "10.66.0.2", name="rx", rate_bps=100e6)
        converge(net)
        prefix, _route = r1.fib.lookup_prefix(IPv4Address.parse("10.66.0.2"))
        r2.lfib.install(100, LfibEntry(LabelOp.POP_PROCESS))
        r1.ftn.bind(prefix, Nhlfe("to-r2", (100,)))
        sink = FlowSink(net.sim).attach(rx)
        src = CbrSource(net.sim, tx.send, "f", "10.66.0.1", "10.66.0.2",
                        payload_bytes=200, rate_bps=1e6, burst=8, dscp=46)
        src.start(0.0, stop_at=0.1)
        refused: list[str] = []

        def pin() -> None:  # once the flow cache is warm
            try:
                r1.impose_exp = 9
            except ValueError as exc:
                refused.append(str(exc))

        net.sim.schedule_at(0.05, pin)
        net.run(until=1.0)
        return src.sent, _flow_view(sink, ["f"]), exps, refused, r1.impose_exp

    def test_bad_impose_exp_reaches_neither_tier(self) -> None:
        fast = _with_vector_mode(True, self._pin_bad_exp_mid_run)
        slow = _with_vector_mode(False, self._pin_bad_exp_mid_run)
        assert fast == slow
        sent, view, exps, refused, exp_after = fast
        assert sent > 40 and len(view[0][1]) == sent == len(exps)
        assert set(exps) == {5}  # EF's EXP, from the DSCP
        assert len(refused) == 1 and refused[0].startswith("r1: impose_exp")
        assert exp_after is None


# ----------------------------------------------------------------------
# Node classes that override ``handle``: the burst tier stands in for
# ``Router.handle`` only, so their bursts must reach the override.
# ----------------------------------------------------------------------
class TestHandleOverrides:
    BURST = 2 * COLUMNAR_MIN

    def _ipsec_fanin(self) -> tuple:
        # BURST hosts on infinite-rate access links all send at the same
        # instant, so the engine extracts one burst at gw1, whose policy
        # protects the destination: every packet has to leave gw1 inside
        # the tunnel.  One packet routed in the clear before the policy
        # exists leaves gw1's flow cache warm for the destination — the
        # state in which the pipeline alone could forward the burst.
        net = Network(seed=5)
        core = net.add_router("core")
        gw1 = net.add_node(IpsecGateway(net.sim, "gw1"))
        gw2 = net.add_node(IpsecGateway(net.sim, "gw2"))
        net.connect(gw1, core, 10e6, 1e-3)
        net.connect(core, gw2, 10e6, 1e-3)
        txs = [
            attach_host(net, gw1, f"10.1.{i}.1", name=f"tx{i}",
                        rate_bps=float("inf"))
            for i in range(self.BURST)
        ]
        rx = attach_host(net, gw2, "10.2.0.1", name="rx")
        converge(net)
        net.sim.schedule_call(0.0, txs[0].send, Packet(
            ip=IPHeader(IPv4Address.parse("10.1.0.1"),
                        IPv4Address.parse("10.2.0.1")),
            payload_bytes=100, flow="warm",
        ))
        net.run(until=0.5)
        gw1.add_policy("10.2.0.0/24", gw2.loopback)
        sa_out = gw1.establish_sa(gw2.loopback)
        sa_in = gw2.establish_sa(gw1.loopback)
        sizes: list[int] = []
        cleartext: list[Packet] = []
        batch, arrive = gw1.receive_batch, core.receive

        def spy_batch(items) -> None:
            sizes.append(len(items))
            batch(items)

        def spy_core(pkt, ifname) -> None:
            if not pkt.encrypted:
                cleartext.append(pkt)
            arrive(pkt, ifname)

        gw1.receive_batch = spy_batch
        core.receive = spy_core
        got: list[Packet] = []
        rx.add_local_sink(got.append)
        for i, tx in enumerate(txs):
            pkt = Packet(
                ip=IPHeader(IPv4Address.parse(f"10.1.{i}.1"),
                            IPv4Address.parse("10.2.0.1")),
                payload_bytes=100, flow="f", seq=i,
            )
            net.sim.schedule_call(0.0, tx.send, pkt)
        net.run(until=1.5)
        return (
            sizes,
            sa_out.encapsulated,
            sa_in.decapsulated,
            len(cleartext),
            sorted(p.seq for p in got),
            gw1.interfaces["to-core"].stats.tx_bytes,
        )

    def test_ipsec_gateway_encapsulates_a_whole_burst(self) -> None:
        fast = _with_vector_mode(True, self._ipsec_fanin)
        slow = _with_vector_mode(False, self._ipsec_fanin)
        assert fast[0] == [self.BURST] and slow[0] == []  # one real burst
        assert fast[1:] == slow[1:]
        assert fast[1] == fast[2] == self.BURST  # all tunnelled ...
        assert fast[3] == 0                      # ... none in the clear
        assert fast[4] == list(range(self.BURST))

    @pytest.mark.parametrize("vector", [True, False], ids=["vector", "scalar"])
    def test_vc_router_switches_a_whole_burst(self, vector: bool) -> None:
        net = Network(seed=5)
        routers = [net.add_node(VcRouter(net.sim, f"v{i}")) for i in range(3)]
        for a, b in zip(routers, routers[1:]):
            net.connect(a, b, 10e6, 1e-3)
        converge(net)
        vc = OverlayVpnBuilder(net).provision_circuit("v0", "v2")
        # The circuit's far end is also IP-routable, and one untagged
        # packet warms v0's flow cache for it: the pipeline alone could
        # forward the tagged burst, but only the VC switch strips the id.
        def mk(seq: int, vc_id: int | None) -> Packet:
            return Packet(ip=IPHeader(IPv4Address.parse("192.0.2.1"),
                                      routers[2].loopback),
                          payload_bytes=100, seq=seq, vc_id=vc_id)

        routers[0].receive(mk(-1, None), "in")
        net.run(until=0.5)
        got: list[Packet] = []
        routers[2].add_local_sink(got.append)
        items = [(mk(i, vc.vc_id), "in") for i in range(self.BURST)]
        if vector:
            routers[0].receive_batch(items)
        else:
            for pkt, ifn in items:
                routers[0].receive(pkt, ifn)
        net.run(until=1.0)
        assert all(r.stats.by_reason == {} for r in routers)
        assert routers[0].stats.rx_packets == 1 + self.BURST
        assert [p.seq for p in got] == list(range(self.BURST))
        assert all(p.vc_id is None for p in got)
