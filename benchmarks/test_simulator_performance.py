"""Simulator performance: events/second and packets/second.

Not a paper experiment — a regression guard for the library itself.  The
hpc-parallel guidance is measure-first: these benches make the kernel's
hot loop visible so a future "improvement" that slows packet forwarding
by 2x gets caught in CI.

Besides the pytest-benchmark table, the two tests write their headline
numbers (pkts/sec, events/sec, per-hop µs, speedup vs the pre-pipeline
baseline) to ``BENCH_forwarding.json`` at the repo root, which CI uploads
as a workflow artifact so forwarding throughput is tracked across runs.
"""

import gc
import json
import os
from pathlib import Path
from time import perf_counter

import pytest

from repro.mpls import Lsr, run_ldp
from repro.obs import runtime
from repro.qos.queues import DropTailFifo
from repro.routing.spf import converge
from repro.sim.engine import Simulator
from repro.topology import Network, attach_host, build_line
from repro.traffic.generators import CbrSource
from repro.traffic.sink import FlowSink

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_forwarding.json"

# ISSUE 5 acceptance: batched forwarding ≥1.5× over the scalar path on a
# high fan-in workload (many flows sharing one core LSP).  The columnar
# refactor (ISSUE 7) lifted this shape to ~3×, so the floor moved up to
# 2.5 to guard the gain; the implicit-null fan-in burst has no label work
# to vectorize, which is why its ceiling sits below the label-op shapes.
# CI runs this with BENCH_PERF_NONBLOCKING=1 (shared-runner timing
# noise), which turns a floor miss into xfail while still recording the
# measured number.
MIN_BATCH_SPEEDUP = 2.5
# ISSUE 7 acceptance: the columnar data plane must beat the forced-scalar
# pipeline ≥3.5× (target 5×) on the label-op shapes it was built for —
# the single-group core-LSR swap burst and the real-label imposition
# burst at an ingress PE, both of which hit the uniform apply loops.
MIN_COLUMNAR_SPEEDUP = 3.5
_SOFT_FLOORS = os.environ.get("BENCH_PERF_NONBLOCKING") == "1"
# Egress rate of the forwarding-stage fixtures.  Finite on purpose: their
# clock never advances, so the first injected packet stays on the
# transmitter and everything after it is a pure enqueue.  An infinite-rate
# transmitter is free again at once and would put the link driver's
# per-packet dequeue + arrival scheduling inside the timed region.
_STAGE_EGRESS_BPS = 1e9


def _require_floor(speedup: float, floor: float, msg: str) -> None:
    if speedup >= floor:
        return
    if _SOFT_FLOORS:
        pytest.xfail(msg)
    pytest.fail(msg)


def _best_of_pair(fn_new, fn_ref, rounds: int) -> tuple[float, float]:
    """Best-of-``rounds`` wall clock for both sides, interleaved so slow
    drift (thermal throttling, background load) lands on both."""
    best_new = best_ref = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()  # timeit's convention: keep collector pauses out of both sides
    try:
        for i in range(rounds):
            order = (fn_new, fn_ref) if i % 2 == 0 else (fn_ref, fn_new)
            for fn in order:
                gc.collect()
                t0 = perf_counter()
                fn()
                dt = perf_counter() - t0
                if fn is fn_new:
                    best_new = min(best_new, dt)
                else:
                    best_ref = min(best_ref, dt)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best_new, best_ref

# Mean wall-clock of test_packet_forwarding_throughput on the commit before
# the unified ForwardingPipeline (per-hop closures, no flow/label caches),
# measured on the CI reference machine.  Kept so the emitted speedup keeps
# meaning as the pipeline evolves.
PRE_PIPELINE_FORWARDING_MEAN_S = 1.825


def _record(section: str, payload: dict) -> None:
    """Merge one benchmark's results into BENCH_forwarding.json."""
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except ValueError:
            data = {}
    data[section] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _mean_s(benchmark) -> float | None:
    """Mean wall-clock, or None under ``--benchmark-disable`` (the sharded
    CI pass runs benchmarks as plain tests with no timing machinery)."""
    try:
        return benchmark.stats.stats.mean
    except (AttributeError, TypeError):
        return None


def test_kernel_event_throughput(benchmark):
    """Pure scheduler churn: schedule + fire 50k chained events."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 50_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    events = benchmark(run)
    assert events == 50_000
    mean_s = _mean_s(benchmark)
    if mean_s is not None:
        _record("kernel", {
            "events": events,
            "mean_s": mean_s,
            "events_per_sec": events / mean_s,
        })


def test_packet_forwarding_throughput(benchmark):
    """End-to-end: ~20k packets across a 5-hop routed path."""

    def run():
        net = Network(seed=3)
        routers = build_line(net, 5, rate_bps=1e9)
        tx = attach_host(net, routers[0], "10.200.0.1", name="tx", rate_bps=1e9)
        rx = attach_host(net, routers[4], "10.200.0.2", name="rx", rate_bps=1e9)
        converge(net)
        sink = FlowSink(net.sim).attach(rx)
        src = CbrSource(net.sim, tx.send, "perf", "10.200.0.1", "10.200.0.2",
                        payload_bytes=1000, rate_bps=163.2e6)  # ~20k pps for 1s
        src.start(0.0, stop_at=1.0)
        net.run(until=1.2)
        return sink.received("perf")

    received = benchmark(run)
    assert received > 15_000
    mean_s = _mean_s(benchmark)
    hops = 7  # tx + 5 routers + rx handle the packet once each
    if mean_s is not None:
        _record("forwarding", {
            "packets": received,
            "hops_per_packet": hops,
            "mean_s": mean_s,
            "pkts_per_sec": received / mean_s,
            "per_hop_us": mean_s / (received * hops) * 1e6,
            "pre_pipeline_mean_s": PRE_PIPELINE_FORWARDING_MEAN_S,
            "speedup_vs_pre_pipeline": PRE_PIPELINE_FORWARDING_MEAN_S / mean_s,
        })


def _high_fanin_run(vector: bool) -> int:
    """High fan-in MPLS workload: 8 hosts on one ingress LSR, every flow
    riding the same 4-hop core LSP.  Access and core links are
    infinite-rate (zero serialization), so the 16-packet trains the
    sources emit keep one shared timestamp hop after hop — exactly the
    arrival pattern burst extraction fuses into ``receive_batch`` bursts.
    Packet-level behaviour is mode-independent (held to bit-identical
    traces by ``tests/test_dataplane_batch.py``); only the clock moves.
    """
    runtime.set_vector_mode(vector)
    try:
        net = Network(seed=11)
        pe1 = net.add_node(Lsr(net.sim, "pe1"))
        p1 = net.add_node(Lsr(net.sim, "p1"))
        p2 = net.add_node(Lsr(net.sim, "p2"))
        pe2 = net.add_node(Lsr(net.sim, "pe2"))
        inf = float("inf")
        # 8 hosts x 16-packet trains converge on pe1 inside one timestamp,
        # so the transient queue depth reaches 8x16 - 1; deepen the core
        # queues past that or the default 100-packet FIFO tail-drops.
        deep = lambda node, ifname: DropTailFifo(capacity_packets=1024)
        for a, b in ((pe1, p1), (p1, p2), (p2, pe2)):
            net.connect(a, b, inf, 1e-3, qdisc_factory=deep)
        txs = [
            attach_host(net, pe1, f"10.210.{i}.1", name=f"tx{i}", rate_bps=inf)
            for i in range(8)
        ]
        rx = attach_host(net, pe2, "10.211.0.2", name="rx", rate_bps=inf)
        pe2.interfaces["to-rx"].qdisc.capacity_packets = 1024  # fan-in egress
        converge(net)
        run_ldp(net)
        sink = FlowSink(net.sim).attach(rx)
        for i, tx in enumerate(txs):
            src = CbrSource(net.sim, tx.send, f"fan{i}", f"10.210.{i}.1",
                            "10.211.0.2", payload_bytes=500, rate_bps=8.32e6,
                            src_port=4000 + i, burst=16)
            src.start(0.0, stop_at=1.0)
        net.run(until=1.2)
        assert p1.lfib.lookups > 0  # the flows really rode the LSP
        return sum(sink.received(f"fan{i}") for i in range(8))
    finally:
        runtime.set_vector_mode(True)


def _fanin_ingress_fixture():
    """The fan-in ingress LSR alone, primed for repeated burst injection:
    unbounded egress queue (so later rounds never diverge into the drop
    path) and a busy transmitter after the first packet (finite egress
    rate and the sim never runs during timing, so every subsequent packet
    is a pure enqueue — identical work on both sides of the comparison)."""
    net = Network(seed=11)
    pe1 = net.add_node(Lsr(net.sim, "pe1"))
    p1 = net.add_node(Lsr(net.sim, "p1"))
    unbounded = lambda node, ifname: DropTailFifo(capacity_packets=None)
    net.connect(pe1, p1, _STAGE_EGRESS_BPS, 1e-3, qdisc_factory=unbounded)
    for i in range(8):
        attach_host(net, pe1, f"10.210.{i}.1", name=f"tx{i}", rate_bps=float("inf"))
    attach_host(net, p1, "10.211.0.2", name="rx", rate_bps=float("inf"))
    converge(net)
    run_ldp(net)
    return pe1


def _mk_fanin_burst(flows: int = 8, per_flow: int = 16) -> list:
    from repro.net.address import IPv4Address
    from repro.net.packet import IPHeader, Packet

    dst = IPv4Address.parse("10.211.0.2")
    items = []
    for i in range(flows):
        src = IPv4Address.parse(f"10.210.{i}.1")
        for s in range(per_flow):
            pkt = Packet(
                ip=IPHeader(src, dst, ttl=64, src_port=4000 + i, dst_port=80),
                payload_bytes=500, flow=f"fan{i}", seq=s,
            )
            items.append((pkt, "to-tx0"))
    return items


def _line_lsp_fixture():
    """4-LSR line ``pe1 - p1 - p2 - pe2`` with the receiver behind pe2.

    pe2 is the egress for the rx /32, so it advertises implicit-null to
    p2 (PHP), p2 advertises a *real* label to p1, and p1 advertises a
    real label to pe1 — giving both columnar hot shapes on one topology:
    pe1 imposes a real label (ingress-PE shape) and p1 swaps it
    (core-LSR shape).  Egress queues are unbounded, core links finite-
    rate and the sim clock never advances during timing, so every
    injected burst does identical work on both sides of the comparison.
    """
    net = Network(seed=7)
    pe1 = net.add_node(Lsr(net.sim, "pe1"))
    p1 = net.add_node(Lsr(net.sim, "p1"))
    p2 = net.add_node(Lsr(net.sim, "p2"))
    pe2 = net.add_node(Lsr(net.sim, "pe2"))
    unbounded = lambda node, ifname: DropTailFifo(capacity_packets=None)
    for a, b in ((pe1, p1), (p1, p2), (p2, pe2)):
        net.connect(a, b, _STAGE_EGRESS_BPS, 1e-3, qdisc_factory=unbounded)
    attach_host(net, pe1, "10.220.0.1", name="tx", rate_bps=float("inf"))
    attach_host(net, pe2, "10.221.0.2", name="rx", rate_bps=float("inf"))
    converge(net)
    run_ldp(net)
    return pe1, p1


def _rx_nhlfe(pe1):
    """pe1's FTN binding for the rx /32 (its label = p1's in-label)."""
    from repro.net.address import IPv4Address

    match = pe1.fib.lookup_prefix(IPv4Address.parse("10.221.0.2"))
    assert match is not None
    prefix, _route = match
    nhlfe = pe1.ftn.lookup(prefix)
    assert nhlfe is not None
    return nhlfe


def _mk_ip_burst(ifname: str, flows: int = 8, per_flow: int = 16) -> list:
    from repro.net.address import IPv4Address
    from repro.net.packet import IPHeader, Packet

    dst = IPv4Address.parse("10.221.0.2")
    items = []
    for i in range(flows):
        src = IPv4Address.parse(f"10.220.{i}.9")
        for s in range(per_flow):
            pkt = Packet(
                ip=IPHeader(src, dst, ttl=64, src_port=4000 + i, dst_port=80),
                payload_bytes=500, flow=f"lsp{i}", seq=s,
            )
            items.append((pkt, ifname))
    # A packet arriving on an interface was just serialized by the
    # upstream transmitter, which reads (and memoizes) wire_bytes —
    # replicate that arrival state so both modes see it.
    for pkt, _ifn in items:
        pkt.wire_bytes
    return items


def _mk_labeled_burst(label: int, ifname: str,
                      flows: int = 8, per_flow: int = 16) -> list:
    items = _mk_ip_burst(ifname, flows, per_flow)
    for pkt, _ifn in items:
        pkt.push_label(label)
        pkt.wire_bytes
    return items


def _forwarding_speedup(node, mk_burst, rounds: int = 6, calls: int = 40):
    """Best-of wall clock for ``receive_batch`` vs the scalar ``receive``
    loop over identical pre-built bursts, interleaved against drift."""
    vec_rounds = [[mk_burst() for _ in range(calls)] for _ in range(rounds)]
    sca_rounds = [[mk_burst() for _ in range(calls)] for _ in range(rounds)]
    burst = len(vec_rounds[0][0])
    vec_iter, sca_iter = iter(vec_rounds), iter(sca_rounds)

    def run_vec() -> None:
        batch = node.receive_batch
        for items in next(vec_iter):
            batch(items)

    def run_scalar() -> None:
        receive = node.receive
        for items in next(sca_iter):
            for pkt, ifn in items:
                receive(pkt, ifn)

    t_vec, t_scalar = _best_of_pair(run_vec, run_scalar, rounds=rounds)
    npkts = rounds * calls * burst * 2
    assert node.stats.rx_packets == npkts
    assert node.stats.forwarded == npkts
    return t_vec, t_scalar


def test_columnar_swap_speedup():
    """Core-LSR shape: a 256-packet single-label SWAP burst (a full VPP-
    style vector) through the columnar pipeline vs the forced-scalar
    ``mpls_stage`` loop.  This is the shape the struct-of-arrays refactor
    targets — one LFIB group probe, mass TTL decrement, uniform swap
    apply — and carries the ISSUE 7 ≥3.5× acceptance floor."""
    from repro.mpls import LabelOp

    pe1, p1 = _line_lsp_fixture()
    in_label = _rx_nhlfe(pe1).labels[0]
    entry = p1.lfib.lookup(in_label)
    assert entry is not None and entry.op is LabelOp.SWAP  # real swap, no PHP

    t_vec, t_scalar = _forwarding_speedup(
        p1, lambda: _mk_labeled_burst(in_label, "to-pe1", flows=16)
    )
    speedup = t_scalar / t_vec
    _record("columnar_swap", {
        "burst": 256,
        "vector_best_s": t_vec,
        "scalar_best_s": t_scalar,
        "speedup_vs_scalar": speedup,
        "floor": MIN_COLUMNAR_SPEEDUP,
    })
    _require_floor(speedup, MIN_COLUMNAR_SPEEDUP, (
        f"columnar swap forwarding {speedup:.2f}x vs scalar "
        f"(floor {MIN_COLUMNAR_SPEEDUP}x): vector {t_vec:.3f}s, "
        f"scalar {t_scalar:.3f}s"
    ))


def test_columnar_imposition_speedup():
    """Ingress-PE shape: 256-packet bursts that impose a *real* (non-
    implicit-null) label — one flow-cache group probe, DSCP→EXP via the
    64-entry LUT, uniform impose apply.  Carries the ISSUE 7 ≥3.5×
    acceptance floor alongside the swap shape."""
    pe1, _p1 = _line_lsp_fixture()
    from repro.mpls import IMPLICIT_NULL

    nhlfe = _rx_nhlfe(pe1)
    assert nhlfe.labels and nhlfe.labels[0] != IMPLICIT_NULL  # real imposition

    t_vec, t_scalar = _forwarding_speedup(
        pe1, lambda: _mk_ip_burst("to-tx", flows=16)
    )
    speedup = t_scalar / t_vec
    _record("columnar_imposition", {
        "burst": 256,
        "vector_best_s": t_vec,
        "scalar_best_s": t_scalar,
        "speedup_vs_scalar": speedup,
        "floor": MIN_COLUMNAR_SPEEDUP,
    })
    _require_floor(speedup, MIN_COLUMNAR_SPEEDUP, (
        f"columnar imposition forwarding {speedup:.2f}x vs scalar "
        f"(floor {MIN_COLUMNAR_SPEEDUP}x): vector {t_vec:.3f}s, "
        f"scalar {t_scalar:.3f}s"
    ))


def test_batched_forwarding_speedup_high_fanin():
    """Vector fast path vs forced-scalar on the shared-LSP fan-in load.

    Two numbers: the end-to-end wall clock of the full simulation
    (informational — dominated by the per-packet transmit/propagation
    event chain, which batching deliberately leaves untouched for
    parity), and the forwarding-stage ratio the floor is asserted on —
    ``receive_batch`` vs the scalar ``receive`` loop over identical
    128-packet fan-in bursts, through the real pipeline (flow/label
    caches, FTN imposition, egress enqueue).
    """
    received = _high_fanin_run(vector=True)
    assert received == _high_fanin_run(vector=False)  # modes agree exactly
    assert received > 15_000
    t_vec_e2e, t_scalar_e2e = _best_of_pair(
        lambda: _high_fanin_run(True), lambda: _high_fanin_run(False), rounds=3
    )

    # Forwarding-stage comparison: every burst pre-built outside the
    # timed region, sides interleaved against drift.
    pe1 = _fanin_ingress_fixture()
    rounds, calls = 4, 40
    vec_rounds = [[_mk_fanin_burst() for _ in range(calls)] for _ in range(rounds)]
    sca_rounds = [[_mk_fanin_burst() for _ in range(calls)] for _ in range(rounds)]
    vec_iter, sca_iter = iter(vec_rounds), iter(sca_rounds)

    def run_vec() -> None:
        batch = pe1.receive_batch
        for items in next(vec_iter):
            batch(items)

    def run_scalar() -> None:
        receive = pe1.receive
        for items in next(sca_iter):
            for pkt, ifn in items:
                receive(pkt, ifn)

    t_vec, t_scalar = _best_of_pair(run_vec, run_scalar, rounds=rounds)
    npkts = rounds * calls * 128 * 2
    assert pe1.stats.rx_packets == npkts  # every burst really went through
    assert pe1.stats.forwarded == npkts

    speedup = t_scalar / t_vec
    _record("batched_high_fanin", {
        "flows": 8,
        "burst": 16,
        "packets_e2e": received,
        "e2e_vector_best_s": t_vec_e2e,
        "e2e_scalar_best_s": t_scalar_e2e,
        "e2e_speedup_vs_scalar": t_scalar_e2e / t_vec_e2e,
        "forwarding_vector_best_s": t_vec,
        "forwarding_scalar_best_s": t_scalar,
        "speedup_vs_scalar": speedup,
        "floor": MIN_BATCH_SPEEDUP,
    })
    _require_floor(speedup, MIN_BATCH_SPEEDUP, (
        f"batched high-fan-in forwarding {speedup:.2f}x vs scalar "
        f"(floor {MIN_BATCH_SPEEDUP}x): vector {t_vec:.3f}s, "
        f"scalar {t_scalar:.3f}s"
    ))
