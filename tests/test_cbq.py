"""Tests for the CBQ link-sharing scheduler."""

import pytest

from repro.net.address import IPv4Address
from repro.net.packet import IPHeader, Packet
from repro.qos.cbq import CbqClass, CbqScheduler


def pkt(size=100, cls=0):
    return Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2)),
                  payload_bytes=max(0, size - 20), flow=cls)


def by_tag(p):
    return p.flow


def sched(classes=None):
    if classes is None:
        classes = [
            CbqClass("voice", rate_bps=8e3, priority=0, can_borrow=False, burst_bytes=400),
            CbqClass("data", rate_bps=16e3, priority=1, can_borrow=True, burst_bytes=800),
            CbqClass("bulk", rate_bps=8e3, priority=2, can_borrow=True, burst_bytes=400),
        ]
    return CbqScheduler(classes, by_tag)


class TestBasics:
    def test_requires_classes(self):
        with pytest.raises(ValueError):
            CbqScheduler([], by_tag)

    def test_enqueue_classifies(self):
        q = sched()
        q.enqueue(pkt(cls=1), 0.0)
        assert len(q.cbq_classes[1].queue) == 1
        assert len(q) == 1

    def test_unknown_class_to_last(self):
        q = sched()
        q.enqueue(pkt(cls=42), 0.0)
        assert len(q.cbq_classes[-1].queue) == 1

    def test_empty_dequeue(self):
        assert sched().dequeue(0.0) is None

    def test_backlog_bytes(self):
        q = sched()
        q.enqueue(pkt(100, cls=0), 0.0)
        q.enqueue(pkt(60, cls=1), 0.0)
        assert q.backlog_bytes == 160


class TestPriorityAndUnderlimit:
    def test_underlimit_priority_class_served_first(self):
        q = sched()
        q.enqueue(pkt(100, cls=2), 0.0)
        q.enqueue(pkt(100, cls=0), 0.0)
        assert q.dequeue(0.0).flow == 0

    def test_overlimit_no_borrow_class_waits(self):
        """Voice (no borrow) exhausted its allocation: bulk gets the link."""
        q = sched()
        voice = q.cbq_classes[0]
        # Exhaust voice's bucket.
        voice.bucket.conforms(400, 0.0)
        q.enqueue(pkt(100, cls=0), 0.0)
        q.enqueue(pkt(100, cls=2), 0.0)
        out = q.dequeue(0.0)
        assert out.flow == 2

    def test_regulated_class_resumes_after_refill(self):
        q = sched()
        voice = q.cbq_classes[0]
        voice.bucket.conforms(400, 0.0)
        q.enqueue(pkt(100, cls=0), 0.0)
        # At 8 kb/s = 1 kB/s, 100 B refill in 0.1 s.
        assert q.dequeue(0.0) is None
        assert q.dequeue(0.11).flow == 0

    def test_next_eligible_reports_refill_time(self):
        q = sched()
        voice = q.cbq_classes[0]
        voice.bucket.conforms(400, 0.0)
        q.enqueue(pkt(100, cls=0), 0.0)
        t = q.next_eligible(0.0)
        assert t == pytest.approx(0.1, rel=0.01)

    def test_next_eligible_infinite_when_empty(self):
        assert sched().next_eligible(0.0) == float("inf")

    def test_next_eligible_now_for_borrowers(self):
        q = sched()
        q.enqueue(pkt(100, cls=2), 0.0)
        assert q.next_eligible(5.0) == 5.0


class TestBorrowing:
    def test_borrower_uses_idle_link(self):
        """Bulk may exceed its allocation when nothing else is queued."""
        q = sched()
        for _ in range(20):
            q.enqueue(pkt(100, cls=2), 0.0)
        got = 0
        while q.dequeue(0.0) is not None:
            got += 1
        assert got == 20  # 2000 B sent despite a 400 B allocation

    def test_non_borrower_cannot_exceed(self):
        q = sched()
        for _ in range(20):
            q.enqueue(pkt(100, cls=0), 0.0)
        got = 0
        while q.dequeue(0.0) is not None:
            got += 1
        assert got == 4  # exactly the 400 B burst allocation

    def test_borrow_respects_priority_order(self):
        """Among borrowers both overlimit, lower priority number wins."""
        classes = [
            CbqClass("a", rate_bps=8e3, priority=1, can_borrow=True, burst_bytes=100),
            CbqClass("b", rate_bps=8e3, priority=2, can_borrow=True, burst_bytes=100),
        ]
        q = CbqScheduler(classes, by_tag)
        classes[0].bucket.conforms(100, 0.0)
        classes[1].bucket.conforms(100, 0.0)
        q.enqueue(pkt(100, cls=1), 0.0)
        q.enqueue(pkt(100, cls=0), 0.0)
        assert q.dequeue(0.0).flow == 0


class TestStats:
    def test_class_stats(self):
        q = sched()
        q.enqueue(pkt(100, cls=1), 0.0)
        q.dequeue(0.0)
        stats = {c.name: (c.enqueued, c.dequeued, c.dropped) for c in q.classes}
        assert stats["data"] == (1, 1, 0)
        assert stats["voice"] == (0, 0, 0)

    def test_capacity_drop_counted(self):
        classes = [CbqClass("only", rate_bps=8e3, capacity_packets=1)]
        q = CbqScheduler(classes, by_tag)
        assert q.enqueue(pkt(cls=0), 0.0)
        assert not q.enqueue(pkt(cls=0), 0.0)
        assert [(c.name, c.dropped) for c in q.classes] == [("only", 1)]


class TestRoundRobin:
    @staticmethod
    def _rotation_reference(candidates, start):
        # The rotation rule as first written: the candidates sorted so the
        # ones after the pointer come first.
        return sorted(candidates, key=lambda i: (i <= start, i))[0]

    @pytest.mark.parametrize("depths, want", [
        ((3, 3, 3), [1, 2, 0, 1, 2, 0, 1, 2, 0]),
        ((3, 1, 3), [1, 2, 0, 2, 0, 2, 0]),
        ((1, 0, 2), [2, 0, 2]),
    ])
    def test_equal_priority_order_is_unchanged(self, depths, want):
        """Three classes of one priority, all underlimit: the pointer
        starts at 0, serves the first backlogged class after it and wraps
        round, skipping an empty class."""
        classes = [CbqClass(n, rate_bps=1e9, priority=1, burst_bytes=10**6)
                   for n in ("a", "b", "c")]
        q = CbqScheduler(classes, by_tag)
        for cls, depth in enumerate(depths):
            for _ in range(depth):
                q.enqueue(pkt(100, cls=cls), 0.0)
        got = []
        start = 0
        while (p := q.dequeue(0.0)) is not None:
            backlogged = [i for i, c in enumerate(classes)
                          if c.queue._q or i == p.flow]
            assert p.flow == self._rotation_reference(backlogged, start)
            start = p.flow
            got.append(p.flow)
        assert got == want
