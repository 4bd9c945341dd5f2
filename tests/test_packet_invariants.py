"""Packet size and label-entry invariants the egress cycle relies on.

The qdiscs, policers and the transmitter read a packet's memoized wire
size (``Packet._wire``) without going through the ``wire_bytes`` property,
and core LSRs index an 8-entry table with the top label's EXP.  Both are
only sound while every mutator keeps the memo and the entry fields honest;
these tests hold them to it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mpls.lfib import LabelOp, LfibEntry
from repro.mpls.lsr import Lsr
from repro.net.address import IPv4Address
from repro.net.packet import (
    IPV4_HEADER_BYTES,
    MPLS_SHIM_BYTES,
    IPHeader,
    MplsEntry,
    Packet,
    PacketError,
)
from repro.qos.cbq import CbqClass, CbqScheduler
from repro.qos.queues import (
    DeficitRoundRobin,
    DropTailFifo,
    FairQueueing,
    PriorityScheduler,
    WeightedRoundRobin,
)
from repro.topology import Network


def header():
    return IPHeader(IPv4Address(1), IPv4Address(2))


def expected_wire(pkt: Packet) -> int:
    body = expected_wire(pkt.inner) if pkt.inner is not None else pkt.payload_bytes
    return (
        IPV4_HEADER_BYTES + MPLS_SHIM_BYTES * len(pkt.mpls_stack)
        + body + pkt.encap_overhead
    )


class TestSwapLabelValidation:
    """An LSR's SWAP stage writes the label of its LFIB entry into the top
    stack entry unchecked and keeps the entry's EXP: a bad field is refused
    where it would be made, before the LFIB or the LSR holds it."""

    def swap_once(self, lsr_pair):
        net, a, got = lsr_pair
        p = Packet(ip=header(), payload_bytes=100)
        p.push_label(100, exp=3)
        net.sim.schedule(0.0, lambda: a.handle(p, "in"))
        net.run(until=net.sim.now + 1.0)
        out = got.pop()
        return out.top_label.label, out.top_label.exp

    @pytest.fixture
    def lsr_pair(self):
        net = Network(seed=1)
        a = net.add_node(Lsr(net.sim, "a"))
        b = net.add_node(Lsr(net.sim, "b"))
        net.connect(a, b, 10e6, 0.001)
        a.lfib.install(100, LfibEntry(LabelOp.SWAP, out_label=200, out_ifname="to-b"))
        got = []
        b.handle = lambda pk, ifn: got.append(pk)
        return net, a, got

    def test_bad_label_leaves_entry_unchanged(self, lsr_pair):
        with pytest.raises(ValueError, match="20-bit"):
            LfibEntry(LabelOp.SWAP, out_label=1 << 20, out_ifname="to-b")
        assert self.swap_once(lsr_pair) == (200, 3)

    @pytest.mark.parametrize("bad_exp", [-1, 8, 255])
    def test_bad_exp_rejected_and_entry_unchanged(self, lsr_pair, bad_exp):
        with pytest.raises(PacketError, match="EXP"):
            MplsEntry(100, exp=bad_exp)
        with pytest.raises(ValueError, match="impose_exp"):
            lsr_pair[1].impose_exp = bad_exp
        assert self.swap_once(lsr_pair) == (200, 3)


# One step of a packet's life: the label ops an LSR applies, an
# encapsulation (the packet becomes the ``inner`` of a fresh envelope, as
# the IPsec and overlay gateways build them), or delivery, after which the
# walk starts over with a new packet as a source builds it.
OPS = st.one_of(
    st.tuples(st.just("push"), st.integers(16, 0xFFFFF), st.integers(0, 7)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("swap"), st.integers(16, 0xFFFFF)),
    st.tuples(st.just("encap"), st.integers(0, 64), st.booleans()),
    st.tuples(st.just("recycle"), st.integers(0, 1500)),
    st.tuples(st.just("read")),
)


class TestWireBytesInvariant:
    @given(payload=st.integers(0, 1500), ops=st.lists(OPS, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_memo_matches_definition_after_any_history(self, payload, ops):
        pkt = Packet(ip=header(), payload_bytes=payload, flow="f")
        for op in ops:
            kind = op[0]
            if kind == "push":
                pkt.push_label(op[1], exp=op[2])
            elif kind == "pop":
                if pkt.mpls_stack:
                    pkt.pop_label()
            elif kind == "swap":
                if pkt.mpls_stack:
                    pkt.mpls_stack[-1].label = op[1]   # as the SWAP stage writes it
            elif kind == "encap":
                pkt = Packet(ip=header(), inner=pkt, encrypted=op[2],
                             encap_overhead=op[1])
            elif kind == "recycle":
                pkt = Packet(ip=header(), payload_bytes=op[1], flow="g", seq=1)
            else:
                # A hop in between: warms the memo the next op must
                # keep right.
                assert pkt.wire_bytes == expected_wire(pkt)
            # The frame-free read the egress cycle uses agrees with the
            # property, whether or not the memo is warm.
            assert (pkt._wire or pkt.wire_bytes) == expected_wire(pkt)
            assert pkt.wire_bytes == expected_wire(pkt)


def tagged(size: int, cls: int) -> Packet:
    # ``flow`` doubles as the class tag, as in tests/test_queues.py.
    return Packet(ip=header(), payload_bytes=size, flow=cls)


def by_tag(p: Packet) -> int:
    return p.flow


def class_queues():
    return [DropTailFifo(50, name=f"c{i}") for i in range(3)]


def cbq():
    # Every class may borrow, so the scheduler is work-conserving and a
    # drain loop terminates without advancing the clock.
    classes = [
        CbqClass(f"c{i}", rate_bps=1e6, priority=i, capacity_packets=50)
        for i in range(3)
    ]
    return CbqScheduler(classes, by_tag)


DISCIPLINES = {
    "droptail": lambda: DropTailFifo(capacity_packets=50),
    "priority": lambda: PriorityScheduler(class_queues(), by_tag),
    "wrr": lambda: WeightedRoundRobin(class_queues(), by_tag, [3, 2, 1]),
    "drr": lambda: DeficitRoundRobin(class_queues(), by_tag, [1500, 1000, 500]),
    "wfq": lambda: FairQueueing(class_queues(), by_tag, [4.0, 2.0, 1.0]),
    "cbq": cbq,
}


# (size, class, labels pushed before the enqueue, dequeues after it)
ARRIVALS = st.lists(
    st.tuples(st.integers(0, 1480), st.integers(0, 2),
              st.integers(0, 3), st.integers(0, 2)),
    min_size=1, max_size=60,
)


class TestQdiscByteAccounting:
    """Bytes in == bytes out, per discipline, with label ops between the
    queue operations (a dequeued packet is relabeled and re-offered, as on
    its next hop)."""

    @pytest.mark.parametrize("kind", sorted(DISCIPLINES))
    @given(arrivals=ARRIVALS)
    @settings(max_examples=40, deadline=None)
    def test_backlog_returns_to_zero_and_bytes_sent_add_up(self, kind, arrivals):
        q = DISCIPLINES[kind]()
        now = 0.0
        sent_bytes = 0
        queued = 0

        def serve():
            nonlocal sent_bytes, queued
            out = q.dequeue(now)
            assert out is not None
            sent_bytes += expected_wire(out)
            queued -= 1
            return out

        for size, cls, pushes, dequeues in arrivals:
            pkt = tagged(size, cls)
            for i in range(pushes):
                pkt.push_label(100 + i, exp=cls)
            now += 1e-3
            if q.enqueue(pkt, now):
                queued += 1
            for _ in range(min(dequeues, queued)):
                out = serve()
                # Next hop: swap, or pop and go around again one shim
                # shorter (the memo was warm, so the pop must correct it).
                if out.mpls_stack and out.seq == 0:
                    out.pop_label()
                    out.seq = 1
                    if q.enqueue(out, now):
                        queued += 1
            assert q.backlog_bytes >= 0 and len(q) == queued
        while queued:
            serve()
        assert q.dequeue(now) is None
        assert len(q) == 0
        assert q.backlog_bytes == 0
        stats = q.classes
        assert sum(s.bytes_sent for s in stats) == sent_bytes
        assert sum(s.enqueued for s in stats) == sum(s.dequeued for s in stats)
