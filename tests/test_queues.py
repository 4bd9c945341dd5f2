"""Unit + property tests for the queue disciplines."""

import gc
import types
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.address import IPv4Address
from repro.net.packet import IPHeader, Packet
from repro.qos.cbq import CbqClass, CbqScheduler
from repro.qos.queues import (
    IDLE,
    DeficitRoundRobin,
    DropTailFifo,
    FairQueueing,
    PriorityScheduler,
    WeightedRoundRobin,
)
from repro.qos.shaper import TokenBucketShaper
from repro.sim.snapshot import restore_network, snapshot_network
from repro.topology import Network


def pkt(size=100, cls=0):
    # The flow field doubles as the class tag in these tests.
    return Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2)),
                  payload_bytes=max(0, size - 20), flow=cls)


def by_tag(p):
    return p.flow


def queues(n=3, cap=1000):
    return [DropTailFifo(cap, name=f"c{i}") for i in range(n)]


class TestDropTailFifo:
    def test_fifo_order(self):
        q = DropTailFifo()
        a, b = pkt(), pkt()
        assert q.enqueue(a, 0.0) and q.enqueue(b, 0.0)
        assert q.dequeue(0.0) is a
        assert q.dequeue(0.0) is b
        assert q.dequeue(0.0) is None

    def test_packet_capacity(self):
        q = DropTailFifo(capacity_packets=2)
        assert q.enqueue(pkt(), 0.0)
        assert q.enqueue(pkt(), 0.0)
        assert not q.enqueue(pkt(), 0.0)
        assert q.stats.dropped == 1
        assert len(q) == 2

    def test_byte_capacity(self):
        q = DropTailFifo(capacity_packets=None, capacity_bytes=250)
        assert q.enqueue(pkt(100), 0.0)
        assert q.enqueue(pkt(100), 0.0)
        assert not q.enqueue(pkt(100), 0.0)  # 300 > 250
        assert q.backlog_bytes == 200

    def test_backlog_accounting(self):
        q = DropTailFifo()
        q.enqueue(pkt(100), 0.0)
        q.enqueue(pkt(60), 0.0)
        assert q.backlog_bytes == 160
        q.dequeue(0.0)
        assert q.backlog_bytes == 60

    def test_stats(self):
        q = DropTailFifo()
        q.enqueue(pkt(100), 0.0)
        q.dequeue(0.0)
        assert q.stats.enqueued == 1
        assert q.stats.dequeued == 1
        assert q.stats.bytes_sent == 100

    def test_next_eligible_default_now(self):
        q = DropTailFifo()
        assert q.next_eligible(3.0) == 3.0

    def test_unbounded(self):
        q = DropTailFifo(capacity_packets=None, capacity_bytes=None)
        for _ in range(1000):
            assert q.enqueue(pkt(), 0.0)


class TestPriority:
    def test_higher_class_served_first(self):
        q = PriorityScheduler(queues(), by_tag)
        low, high = pkt(cls=2), pkt(cls=0)
        q.enqueue(low, 0.0)
        q.enqueue(high, 0.0)
        assert q.dequeue(0.0) is high
        assert q.dequeue(0.0) is low

    def test_starvation_is_real(self):
        """Strict priority never serves class 1 while class 0 backlogged."""
        q = PriorityScheduler(queues(), by_tag)
        for _ in range(5):
            q.enqueue(pkt(cls=0), 0.0)
        q.enqueue(pkt(cls=1), 0.0)
        served = [q.dequeue(0.0).flow for _ in range(6)]
        assert served == [0, 0, 0, 0, 0, 1]

    def test_unknown_class_goes_best_effort(self):
        q = PriorityScheduler(queues(), lambda p: 99)
        p = pkt()
        q.enqueue(p, 0.0)
        assert q.classes[-1]._q[0] is p

    def test_empty_dequeue(self):
        assert PriorityScheduler(queues(), by_tag).dequeue(0.0) is None

    def test_requires_classes(self):
        with pytest.raises(ValueError):
            PriorityScheduler([], by_tag)


class TestWrr:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            WeightedRoundRobin(queues(), by_tag, [1, 2])
        with pytest.raises(ValueError):
            WeightedRoundRobin(queues(), by_tag, [1, 0, 2])

    def test_service_ratio_matches_weights(self):
        q = WeightedRoundRobin(queues(2), by_tag, [3, 1])
        for _ in range(400):
            q.enqueue(pkt(cls=0), 0.0)
            q.enqueue(pkt(cls=1), 0.0)
        served = [q.dequeue(0.0).flow for _ in range(400)]
        counts = [served.count(0), served.count(1)]
        assert counts[0] / counts[1] == pytest.approx(3.0, rel=0.1)

    def test_work_conserving(self):
        q = WeightedRoundRobin(queues(2), by_tag, [3, 1])
        q.enqueue(pkt(cls=1), 0.0)
        assert q.dequeue(0.0) is not None


class TestDrr:
    def test_quantum_validation(self):
        with pytest.raises(ValueError):
            DeficitRoundRobin(queues(), by_tag, [100, 100])
        with pytest.raises(ValueError):
            DeficitRoundRobin(queues(), by_tag, [100, -1, 100])

    def test_byte_fair_despite_packet_sizes(self):
        """Class 0 sends 1500B packets, class 1 sends 100B; equal quanta
        must give ~equal *bytes*, i.e. many more small packets."""
        q = DeficitRoundRobin(queues(2, cap=10000), by_tag, [1500, 1500])
        for _ in range(200):
            q.enqueue(pkt(1500, cls=0), 0.0)
        for _ in range(3000):
            q.enqueue(pkt(100, cls=1), 0.0)
        sent = {0: 0, 1: 0}
        for _ in range(1000):
            p = q.dequeue(0.0)
            if p is None:
                break
            sent[p.flow] += p.wire_bytes
        assert sent[1] / sent[0] == pytest.approx(1.0, rel=0.2)

    def test_quantum_ratio_respected(self):
        q = DeficitRoundRobin(queues(2, cap=10000), by_tag, [3000, 1000])
        for _ in range(2000):
            q.enqueue(pkt(500, cls=0), 0.0)
            q.enqueue(pkt(500, cls=1), 0.0)
        bytes_sent = {0: 0, 1: 0}
        for _ in range(1200):
            p = q.dequeue(0.0)
            bytes_sent[p.flow] += p.wire_bytes
        assert bytes_sent[0] / bytes_sent[1] == pytest.approx(3.0, rel=0.15)

    def test_single_class_makes_progress_with_small_quantum(self):
        """A head packet bigger than one quantum must still be sent."""
        q = DeficitRoundRobin(queues(1, cap=10), by_tag, [100])
        big = pkt(1500, cls=0)
        q.enqueue(big, 0.0)
        assert q.dequeue(0.0) is big

    def test_work_conserving(self):
        q = DeficitRoundRobin(queues(2), by_tag, [1000, 1000])
        q.enqueue(pkt(cls=1), 0.0)
        assert q.dequeue(0.0) is not None
        assert q.dequeue(0.0) is None

    def test_drained_class_resets_deficit(self):
        q = DeficitRoundRobin(queues(2), by_tag, [5000, 5000])
        q.enqueue(pkt(100, cls=0), 0.0)
        q.dequeue(0.0)
        assert q.deficits[0] == 0


class TestFairQueueing:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            FairQueueing(queues(), by_tag, [1.0])
        with pytest.raises(ValueError):
            FairQueueing(queues(), by_tag, [1.0, -2.0, 1.0])

    def test_weighted_byte_share(self):
        q = FairQueueing(queues(2, cap=10000), by_tag, [4.0, 1.0])
        for _ in range(2000):
            q.enqueue(pkt(500, cls=0), 0.0)
            q.enqueue(pkt(500, cls=1), 0.0)
        bytes_sent = {0: 0, 1: 0}
        for _ in range(1000):
            p = q.dequeue(0.0)
            bytes_sent[p.flow] += p.wire_bytes
        assert bytes_sent[0] / bytes_sent[1] == pytest.approx(4.0, rel=0.1)

    def test_light_flow_low_delay(self):
        """A light class's packet overtakes a deep heavy backlog."""
        q = FairQueueing(queues(2, cap=10000), by_tag, [1.0, 1.0])
        for _ in range(50):
            q.enqueue(pkt(1500, cls=0), 0.0)
        light = pkt(100, cls=1)
        q.enqueue(light, 0.0)
        # The light packet's finish tag beats most of the heavy backlog:
        # it must come out within the first few dequeues.
        first = [q.dequeue(0.0) for _ in range(3)]
        assert light in first

    def test_virtual_clock_resets_when_idle(self):
        q = FairQueueing(queues(1), by_tag, [1.0])
        q.enqueue(pkt(100, cls=0), 0.0)
        q.dequeue(0.0)
        assert q.dequeue(0.0) is None
        assert q._virtual == 0.0

    def test_fifo_within_class(self):
        q = FairQueueing(queues(1), by_tag, [1.0])
        a, b = pkt(100, cls=0), pkt(100, cls=0)
        q.enqueue(a, 0.0)
        q.enqueue(b, 0.0)
        assert q.dequeue(0.0) is a
        assert q.dequeue(0.0) is b


class TestConservation:
    """Property: across all disciplines, enqueued == dequeued + dropped + queued."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(40, 1500)),
                    min_size=1, max_size=200),
           st.sampled_from(["prio", "wrr", "drr", "wfq"]))
    def test_no_packet_lost_or_duplicated(self, arrivals, kind):
        qs = queues(3, cap=20)
        if kind == "prio":
            disc = PriorityScheduler(qs, by_tag)
        elif kind == "wrr":
            disc = WeightedRoundRobin(qs, by_tag, [4, 2, 1])
        elif kind == "drr":
            disc = DeficitRoundRobin(qs, by_tag, [6000, 3000, 1500])
        else:
            disc = FairQueueing(qs, by_tag, [4.0, 2.0, 1.0])
        accepted = sum(
            1 for cls, size in arrivals if disc.enqueue(pkt(size, cls=cls), 0.0)
        )
        out = []
        while True:
            p = disc.dequeue(0.0)
            if p is None:
                break
            out.append(p)
        assert len(out) == accepted
        assert len(disc) == 0
        assert len(set(p.uid for p in out)) == len(out)  # no duplicates


# ----------------------------------------------------------------------
# Idle storage: a discipline holds no packet store until its first packet


IDLE_SIZES = (100, 1500, 300, 700)


def _numbered(i):
    return Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2)),
                  payload_bytes=IDLE_SIZES[i % 4] - 20, flow=i)


def by_flow_class(p):
    return p.flow % 3


def _three(cap=3):
    return [DropTailFifo(cap, name=f"c{i}") for i in range(3)]


def _discipline(kind):
    if kind == "fifo":
        return DropTailFifo(capacity_packets=8)
    if kind == "priority":
        return PriorityScheduler(_three(), by_flow_class)
    if kind == "wrr":
        return WeightedRoundRobin(_three(), by_flow_class, [3, 2, 1])
    if kind == "drr":
        return DeficitRoundRobin(_three(), by_flow_class, [1500, 600, 300])
    if kind == "wfq":
        return FairQueueing(_three(), by_flow_class, [4.0, 2.0, 1.0])
    if kind == "cbq":
        return CbqScheduler([
            CbqClass("voice", rate_bps=8e3, priority=0, can_borrow=False,
                     burst_bytes=800, capacity_packets=3),
            CbqClass("data", rate_bps=16e3, priority=1, capacity_packets=3),
            CbqClass("bulk", rate_bps=8e3, priority=2, capacity_packets=3),
        ], by_flow_class)
    return TokenBucketShaper(rate_bps=8e4, burst_bytes=1600, capacity_packets=8)


def _counters(q):
    return [(c.enqueued, c.dropped, c.dequeued, c.bytes_sent) for c in q.classes]


def _first_packets(q):
    """Offer packets 0..11 at t=0, drain (retrying a regulated discipline
    at its next eligible time, floored as the interface floors it) and
    return (accepted, departure order, counters, drain end)."""
    accepted = sum(q.enqueue(_numbered(i), 0.0) for i in range(12))
    now, order = 0.0, []
    for _ in range(1000):
        p = q.dequeue(now)
        if p is not None:
            order.append(p.flow)
        elif not len(q):
            break
        else:
            now = max(q.next_eligible(now), now + 1e-9)
    return accepted, order, _counters(q), round(now, 9)


_THREE_CLASSES = [(3, 1, 3, 1100), (3, 1, 3, 2300), (3, 1, 3, 1900)]
_ONE_FIFO = [(8, 4, 8, 5200)]

# What each discipline did with these packets before its store was lazy.
FIRST_PACKETS = {
    "fifo": (8, [0, 1, 2, 3, 4, 5, 6, 7], _ONE_FIFO, 0.0),
    "priority": (9, [0, 3, 6, 1, 4, 7, 2, 5, 8], _THREE_CLASSES, 0.0),
    "wrr": (9, [0, 3, 6, 1, 4, 2, 7, 5, 8], _THREE_CLASSES, 0.0),
    "drr": (9, [2, 0, 3, 6, 1, 4, 7, 5, 8], _THREE_CLASSES, 0.0),
    "wfq": (9, [0, 3, 6, 2, 1, 4, 7, 5, 8], _THREE_CLASSES, 0.0),
    "cbq": (9, [0, 3, 1, 4, 7, 2, 5, 8, 6], _THREE_CLASSES, 0.3),
    "shaper": (8, [0, 1, 2, 3, 4, 5, 6, 7], _ONE_FIFO, 0.36),
}


def _reachable_deques(root):
    """Deques reachable from ``root``, not through a class, function or
    module (the classifier's globals reach the whole test module)."""
    seen, stack, found = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.FunctionType, types.ModuleType)):
            continue
        seen.add(id(obj))
        found += type(obj) is deque
        stack.extend(gc.get_referents(obj))
    return found


def _restored(q):
    net = Network(seed=1)
    net.add_router("a")
    _, extras = restore_network(snapshot_network(net, {"q": q}))
    return extras["q"]


@pytest.mark.parametrize("kind", sorted(FIRST_PACKETS))
class TestIdleStore:
    def test_idle_discipline_is_empty_and_holds_no_deque(self, kind):
        q = _discipline(kind)
        assert len(q) == 0 and q.backlog_bytes == 0
        assert q.dequeue(0.0) is None and q.dequeue(1.0) is None
        assert _reachable_deques(q) == 0

    def test_first_packets_leave_as_before(self, kind):
        q = _discipline(kind)
        assert _first_packets(q) == FIRST_PACKETS[kind]
        assert len(q) == 0 and q.backlog_bytes == 0
        assert _reachable_deques(q) > 0  # built on the first packet and kept

    def test_restored_idle_discipline_images_no_deque_and_behaves_alike(self, kind):
        q = _restored(_discipline(kind))
        assert len(q) == 0 and q.backlog_bytes == 0 and q.dequeue(0.0) is None
        assert _reachable_deques(q) == 0
        assert _first_packets(q) == FIRST_PACKETS[kind]


def test_idle_store_is_the_shared_empty_tuple():
    fifo = DropTailFifo()
    wfq = FairQueueing(_three(), by_flow_class, [4.0, 2.0, 1.0])
    drr = DeficitRoundRobin(_three(), by_flow_class, [1500, 600, 300])
    stores = [fifo._q, drr._active, *wfq._tags, *(c._q for c in wfq.classes)]
    assert all(store is IDLE for store in stores)
    fifo.enqueue(pkt(), 0.0)
    fifo.dequeue(0.0)
    assert type(fifo._q) is deque and not fifo._q  # kept once built
