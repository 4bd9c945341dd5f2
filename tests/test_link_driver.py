"""The interface driver: one event per packet-hop, a drain only under backlog.

The transmitter knows when it is free (``Interface._free_at``) and
schedules the far-end arrival itself; ``_transmit_next`` runs as an event
only while something waits behind the packet being serialized.  These
tests pin the event counts, the exact departure/arrival floats, the
boundary at ``now == free_at``, what a link failure does to the packet
on the transmitter, the regulated-qdisc retry timer, snapshot resume
with a drain armed, and — as a property — that the whole thing is still
plain store-and-forward.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.address import IPv4Address
from repro.net.link import Interface, Link
from repro.net.node import Node
from repro.net.packet import IPHeader, Packet
from repro.obs.flightrec import FlightRecorder
from repro.qos.cbq import CbqClass, CbqScheduler
from repro.qos.queues import DropTailFifo, PriorityScheduler
from repro.routing.spf import converge
from repro.sim.engine import Simulator
from tests.reference.sim import ReferenceSimulator
from repro.sim.snapshot import restore_network, snapshot_network
from repro.topology import Network, attach_host, build_line
from repro.traffic.generators import CbrSource

RATE = 1e6
DELAY = 0.01
TX_1000 = 1000 * 8.0 / RATE  # 8 ms


class Recorder(Node):
    """Terminal node logging ``(packet, arrival time)``."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.got = []

    def handle(self, pkt, ifname):
        self.got.append((pkt, self.sim.now))


def wire(sim, qdisc=None, rate_bps=RATE, delay_s=DELAY):
    """One simplex link a->b; returns (interface on a, link, recorder b)."""
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    if qdisc is None:  # not ``or``: an empty qdisc has len 0
        qdisc = DropTailFifo(capacity_packets=10_000)
    iface = Interface(sim, a, "eth0", rate_bps, qdisc)
    a.add_interface(iface)
    link = Link(sim, "a->b", b, "eth0", delay_s)
    iface.attach(link)
    return iface, link, b


def pkt(size=1000, tag=0):
    return Packet(
        ip=IPHeader(IPv4Address.parse("10.0.0.1"), IPv4Address.parse("10.0.0.2")),
        payload_bytes=size - 20, flow=tag,
    )


def by_tag(p):
    return p.flow


# ----------------------------------------------------------------------
# (a) / (b): event counts and exact floats


def test_idle_chain_fires_one_event_per_hop():
    net = Network(seed=1)
    r0, r1 = build_line(net, 2)
    tx = attach_host(net, r0, "10.66.0.1", "tx")
    rx = attach_host(net, r1, "10.66.0.2", "rx")
    converge(net)
    got = []
    rx.add_local_sink(lambda p: got.append(net.sim.now))
    before = net.sim.events_processed
    tx.send(Packet(ip=IPHeader(IPv4Address.parse("10.66.0.1"), IPv4Address.parse("10.66.0.2")),
                   payload_bytes=500))
    net.sim.run()
    assert len(got) == 1
    hops = sum(n.stats.rx_packets for n in net.nodes.values())
    assert hops == 3  # tx -> r0 -> r1 -> rx
    assert net.sim.events_processed - before == hops
    assert net.sim.pending == 0


def test_backlogged_burst_costs_k_arrivals_and_k_minus_one_drains():
    sim = Simulator()
    iface, _, b = wire(sim)
    k = 6
    for i in range(k):
        iface.send(pkt(1000, tag=i))
    assert iface.busy and sim.pending == 2  # first arrival + the armed drain
    sim.run()
    assert sim.events_processed == k + (k - 1)
    assert [p.flow for p, _ in b.got] == list(range(k))
    start, expected = 0.0, []
    for _ in range(k):
        expected.append((start + TX_1000) + DELAY)
        start = start + TX_1000  # departures exactly tx_time apart
    assert [t for _, t in b.got] == expected  # equal floats, not approx
    assert iface.stats.tx_packets == k and iface.stats.tx_bytes == 1000 * k
    assert not iface.busy


def test_infinite_rate_link_never_queues_or_drains():
    sim = Simulator()
    iface, _, b = wire(sim, rate_bps=float("inf"))
    iface.send_batch([pkt(1000, tag=i) for i in range(5)])
    assert iface.backlog_packets == 0 and not iface.busy
    sim.run()
    assert sim.events_processed == 5
    assert [(p.flow, t) for p, t in b.got] == [(i, DELAY) for i in range(5)]


def test_send_batch_on_idle_finite_link_arms_one_drain():
    sim = Simulator()
    iface, _, b = wire(sim)
    iface.send_batch([pkt(1000, tag=i) for i in range(4)])
    assert iface.backlog_packets == 3 and sim.pending == 2
    sim.run()
    assert sim.events_processed == 4 + 3
    assert [p.flow for p, _ in b.got] == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# (c): the boundary now == free_at


def test_send_at_exactly_free_at_without_a_drain_starts_at_once():
    sim = Simulator()
    iface, _, b = wire(sim)
    sim.schedule_at(0.0, iface.send, pkt(1000, tag=0))
    sim.schedule_at(0.0 + TX_1000, iface.send, pkt(1000, tag=1))
    sim.run(until=TX_1000 / 2)
    assert iface.busy and not iface._busy  # serializing, no drain armed
    sim.run()
    assert sim.events_processed == 4  # two sends, two arrivals, no drain
    assert [t for _, t in b.got] == [TX_1000 + DELAY, (TX_1000 + TX_1000) + DELAY]


def test_send_at_exactly_free_at_with_a_drain_armed_queues_behind_it():
    sim = Simulator()
    iface, _, b = wire(sim)
    # Scheduled first, so in free_at's bucket it fires *before* the drain
    # that tag 1 arms at t=4 ms: it must not overtake the queued packet.
    sim.schedule_at(0.0 + TX_1000, iface.send, pkt(1000, tag=2))
    sim.schedule_at(0.0, iface.send, pkt(1000, tag=0))
    sim.schedule_at(TX_1000 / 2, iface.send, pkt(1000, tag=1))
    sim.run()
    assert [p.flow for p, _ in b.got] == [0, 1, 2]
    t1 = 0.0 + TX_1000
    t2 = t1 + TX_1000
    assert [t for _, t in b.got] == [t1 + DELAY, t2 + DELAY, (t2 + TX_1000) + DELAY]
    assert sim.events_processed == 3 + 3 + 2  # sends, arrivals, drains


# ----------------------------------------------------------------------
# (d): link failure


def test_link_down_mid_serialization_loses_that_packet_only():
    sim = Simulator()
    iface, link, b = wire(sim)

    def set_up(value):
        link.up = value

    sim.schedule_at(0.000, iface.send, pkt(1000, tag=0))  # on the wire by 8 ms
    sim.schedule_at(0.009, set_up, False)                 # tag 0 is propagating
    sim.schedule_at(0.010, iface.send, pkt(1000, tag=1))  # starts on a dead link
    sim.schedule_at(0.011, set_up, True)
    sim.schedule_at(0.020, iface.send, pkt(1000, tag=2))  # serializing until 28 ms
    sim.schedule_at(0.024, set_up, False)                 # ... cut mid-packet
    sim.schedule_at(0.025, iface.send, pkt(1000, tag=3))  # queued behind it, link down
    sim.schedule_at(0.040, set_up, True)
    sim.schedule_at(0.050, iface.send, pkt(1000, tag=4))
    sim.run()
    assert [p.flow for p, _ in b.got] == [0, 4]
    assert [t for _, t in b.got] == [(0.0 + TX_1000) + DELAY, (0.050 + TX_1000) + DELAY]
    assert iface.stats.tx_packets == 5  # all five were serialized
    assert iface.stats.dropped == 0     # lost on the wire, not in the queue
    assert sim.pending == 0


def test_link_down_losses_are_counted_drops():
    """The same five packets: the one that starts on the dead link, the one
    the failure cuts and the one queued behind it are ``link_down`` drops
    at the sender, so every packet is accounted for after the run."""
    sim = Simulator()
    iface, link, b = wire(sim)
    a = iface.node

    def set_up(value):
        link.up = value

    for t, step in [
        (0.000, lambda: iface.send(pkt(1000, tag=0))),
        (0.009, lambda: set_up(False)),
        (0.010, lambda: iface.send(pkt(1000, tag=1))),
        (0.011, lambda: set_up(True)),
        (0.020, lambda: iface.send(pkt(1000, tag=2))),
        (0.024, lambda: set_up(False)),
        (0.025, lambda: iface.send(pkt(1000, tag=3))),
        (0.040, lambda: set_up(True)),
        (0.050, lambda: iface.send(pkt(1000, tag=4))),
    ]:
        sim.schedule_at(t, step)
    seen = []
    a.trace.subscribe("drop", lambda rec: seen.append((rec.time, rec.reason)))
    sim.run()
    assert a.stats.by_reason == {"link_down": 3}
    assert seen == [(0.010, "link_down"), (0.024, "link_down"), (0.028, "link_down")]
    delivered = len(b.got)
    dropped = a.stats.dropped_total + iface.stats.dropped
    backlog = len(iface.qdisc)
    on_wire = sim.pending
    assert 5 == delivered + dropped + backlog + on_wire
    assert iface.stats.tx_packets == 5 and b.stats.dropped_total == 0


def test_second_failure_does_not_count_a_cut_frame_twice():
    sim = Simulator()
    iface, link, b = wire(sim)

    def flap():
        link.up = False
        link.up = True
        link.up = False

    sim.schedule_at(0.0, iface.send, pkt(1000, tag=0))  # serializing until 8 ms
    sim.schedule_at(0.004, flap)
    sim.run()
    assert iface.node.stats.by_reason == {"link_down": 1} and b.got == []


def test_e11_loss_counts_unchanged():
    from repro.experiments.e11_resilience import run_e11

    rows, _ = run_e11()
    assert [(r["variant"], r["lost"]) for r in rows] == [
        ("igp-default", 2404), ("igp-tuned", 481), ("frr", 25),
    ]


# ----------------------------------------------------------------------
# (e): regulated qdisc keeps one coalesced retry timer


def test_regulated_cbq_class_holds_one_retry_timer():
    sim = Simulator()
    cbq = CbqScheduler(
        [CbqClass("capped", rate_bps=8e3, priority=0, can_borrow=False, burst_bytes=400)],
        lambda p: 0,
    )
    iface, _, b = wire(sim, qdisc=cbq)
    for i in range(8):
        iface.send(pkt(100, tag=i))
    sim.run(until=0.05)  # the 400-byte allowance went out back to back
    assert len(b.got) == 4
    timer = iface._retry_event
    assert timer is not None and not iface.busy and iface.backlog_packets == 4
    pending = sim.pending
    for i in range(8, 12):
        iface.send(pkt(100, tag=i))  # blocked arrivals ride the same timer
    assert iface._retry_event is timer and sim.pending == pending
    sim.run()
    assert [p.flow for p, _ in b.got] == list(range(12))
    assert iface._retry_event is None and sim.pending == 0


# ----------------------------------------------------------------------
# (f): snapshot with a drain armed


def _congested_line(seed):
    net = Network(seed=seed)
    r0, r1 = build_line(net, 2, rate_bps=1e6, delay_s=2e-3)
    tx = attach_host(net, r0, "10.66.0.1", "tx")
    rx = attach_host(net, r1, "10.66.0.2", "rx")
    converge(net)
    net.trace.flight = FlightRecorder(capacity=1 << 16)
    CbrSource(net.sim, tx.send, "cbr", "10.66.0.1", "10.66.0.2",
              payload_bytes=480, rate_bps=1.5e6).start(0.0, stop_at=0.2)
    return net, r0.interfaces["to-r1"]


def _normalized(rec):
    ids = {}
    return [
        (r.time, r.node, r.event, ids.setdefault(r.uid, len(ids)), r.seq, r.ifname, r.backlog)
        for r in rec.records()
    ]


def test_snapshot_mid_serialization_with_drain_armed_resumes_bit_identically():
    net_a, _ = _congested_line(seed=3)
    net_a.run(until=0.5)
    ref = _normalized(net_a.trace.flight)
    assert len(ref) > 300

    net_b, bottleneck = _congested_line(seed=3)
    net_b.run(until=0.1001)
    assert bottleneck._busy and net_b.sim.now < bottleneck._free_at
    assert bottleneck.backlog_packets > 0
    net_c, _ = restore_network(snapshot_network(net_b))
    net_c.run(until=0.5)
    assert _normalized(net_c.trace.flight) == ref


# ----------------------------------------------------------------------
# (g): the driver is plain store-and-forward


def store_and_forward(arrivals, rate_bps, pick):
    """Reference model: ``start_i = max(arrival_i, done_{i-1})``.

    ``arrivals`` is ``[(time, wire_bytes, cls)]`` sorted by time;
    ``pick(queue, arrivals)`` chooses among the indices queued when the
    transmitter frees up (an arrival at that very instant is already
    queued).  Returns ``[(index, start, done)]`` in departure order.
    """
    out, queue, free, i = [], [], 0.0, 0
    while i < len(arrivals) or queue:
        if queue and (i == len(arrivals) or free < arrivals[i][0]):
            k = pick(queue, arrivals)
            queue.remove(k)
            start = free
        elif not queue and free <= arrivals[i][0]:
            k, start = i, arrivals[i][0]
            i += 1
        else:
            queue.append(i)
            i += 1
            continue
        free = start + arrivals[k][1] * 8.0 / rate_bps
        out.append((k, start, free))
    return out


def _fifo():
    return DropTailFifo(capacity_packets=10_000), lambda queue, arrivals: min(queue)


def _strict_priority():  # FIFO within a class
    classes = [DropTailFifo(10_000, name=str(c)) for c in range(3)]
    return (PriorityScheduler(classes, by_tag),
            lambda queue, arrivals: min(queue, key=lambda k: (arrivals[k][2], k)))


_ARRIVALS = st.lists(
    st.tuples(
        st.integers(0, 40),                       # arrival time, in 0.5 ms ticks
        st.sampled_from([64, 125, 250, 500, 1000]),  # wire bytes: 0.5 ... 8 ms at 1 Mb/s
        st.integers(0, 2),                        # class
    ),
    min_size=1, max_size=30,
)


@pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator], ids=["fast", "reference"])
@pytest.mark.parametrize("make_qdisc", [_fifo, _strict_priority], ids=["fifo", "prio"])
@settings(max_examples=60, deadline=None)
@given(raw=_ARRIVALS)
def test_departures_match_store_and_forward_model(sim_cls, make_qdisc, raw):
    arrivals = sorted(((t * 0.5e-3, size, cls) for t, size, cls in raw), key=lambda a: a[0])
    qdisc, pick = make_qdisc()
    sim = sim_cls()
    iface, _, b = wire(sim, qdisc=qdisc)
    for idx, (t, size, cls) in enumerate(arrivals):
        p = pkt(size, tag=cls)
        p.seq = idx
        sim.schedule_at(t, iface.send, p)
    sim.run()
    model = store_and_forward(arrivals, RATE, pick)
    assert [(p.seq, t) for p, t in b.got] == [(k, done + DELAY) for k, _, done in model]
    # n send events, n arrivals, and a drain for at most every packet but one.
    assert sim.events_processed <= 3 * len(arrivals) - 1
