"""Class-Based Queueing (CBQ) with borrowing.

The paper (§5) puts CBQ at the customer premises: "the customer premises
device could use technologies such as CBQ to classify traffic and
DiffServ/ToS to mark it".  We implement the two-level link-sharing model of
Floyd & Van Jacobson (1995) in its estimator/scheduler essentials:

* Each leaf class has an **allocated rate** (a share of the access link), a
  **priority**, and a ``can_borrow`` flag.
* A class is *underlimit* while its recent throughput is within its
  allocation (tracked with a token bucket — equivalent to the EWMA
  estimator for our purposes and exactly reproducible).
* The scheduler serves, in priority order, backlogged classes that are
  underlimit; when none are, classes with ``can_borrow`` may use the spare
  link capacity (borrowing from the root), again in priority order with
  weighted round-robin among equals.
* A backlogged class that is overlimit and may not borrow is **regulated**:
  its packets wait until its bucket refills.

The net effect the E5 experiment relies on: voice gets its configured share
with priority, bulk data cannot crowd it out, yet idle bandwidth is never
wasted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.net.empty import EMPTY_MAP
from repro.net.packet import Packet
from repro.qos.meter import TokenBucket
from repro.qos.queues import ClassifyFn, DropTailFifo, _ClassfulBase

__all__ = ["CbqClass", "CbqScheduler"]


@dataclass
class CbqClass:
    """One CBQ leaf class.

    Parameters
    ----------
    name:
        Human-readable label ("voice", "critical-data", ...).
    rate_bps:
        Allocated share of the link.
    priority:
        Lower number = served first (0 is the highest).
    can_borrow:
        Whether the class may exceed its allocation when the link has
        spare capacity.
    burst_bytes:
        Token-bucket depth of the allocation estimator.
    """

    name: str
    rate_bps: float
    priority: int = 1
    can_borrow: bool = True
    burst_bytes: int = 8000
    capacity_packets: int | None = 200
    queue: DropTailFifo = field(init=False)
    bucket: TokenBucket = field(init=False)

    def __post_init__(self) -> None:
        self.queue = DropTailFifo(self.capacity_packets, name=self.name)
        self.bucket = TokenBucket(self.rate_bps, self.burst_bytes)

    def underlimit(self, nbytes: int, now: float) -> bool:
        """Would sending ``nbytes`` now keep the class within allocation?"""
        return self.bucket.tokens(now) >= nbytes


class CbqScheduler(_ClassfulBase):
    """Two-level CBQ link-sharing scheduler (see module docstring).

    ``classify`` maps packets to indices into ``classes``.  The class
    queues (``classes``, as in every classful discipline) are the leaf
    classes' FIFOs, so admission, the backlog count and the drop callback
    are :class:`~repro.qos.queues._ClassfulBase`'s; CBQ adds the
    estimator-driven choice of the class to serve.
    """

    def __init__(self, classes: Sequence[CbqClass], classify: ClassifyFn) -> None:
        if not classes:
            raise ValueError("need at least one CBQ class")
        super().__init__([c.queue for c in classes], classify)
        self.cbq_classes = list(classes)
        # Round-robin pointer per priority level for fairness among equals;
        # the shared empty mapping until the first dequeue writes one.
        self._rr_pointer: dict[int, int] = EMPTY_MAP

    # ------------------------------------------------------------------
    def dequeue(self, now: float) -> Optional[Packet]:
        # Pass 1: underlimit classes, in priority order (guaranteed shares).
        pick = self._select(now, borrowing=False)
        if pick is None:
            # Pass 2: borrowing classes use spare capacity.
            pick = self._select(now, borrowing=True)
        if pick is None:
            return None
        cls = self.cbq_classes[pick]
        pkt = cls.queue.pop(now)
        self._count -= 1
        # Consume allocation; when borrowing this drives the bucket negative
        # conceptually — we clamp by consuming what is there, which keeps the
        # class overlimit until it has been idle long enough.  (The original
        # CBQ "avgidle" estimator has the same steady-state behaviour.)
        cls.bucket.conforms(pkt._wire or pkt.wire_bytes, now)
        return pkt

    # ------------------------------------------------------------------
    def _select(self, now: float, borrowing: bool) -> Optional[int]:
        """Pick a class index, or None.

        ``borrowing=False`` considers only backlogged+underlimit classes;
        ``borrowing=True`` considers backlogged classes allowed to borrow.
        Within one priority level, round-robin.
        """
        by_prio: dict[int, list[int]] = {}
        for i, cls in enumerate(self.cbq_classes):
            if not cls.queue._q:
                continue
            if borrowing:
                if not cls.can_borrow:
                    continue
            else:
                head = cls.queue._q[0]
                if not cls.underlimit(head._wire or head.wire_bytes, now):
                    continue
            by_prio.setdefault(cls.priority, []).append(i)
        if not by_prio:
            return None
        prio = min(by_prio)
        candidates = by_prio[prio]
        start = self._rr_pointer.get(prio, 0)
        # Rotate so the pointer advances fairly: the first candidate after
        # it, else (wrapping round) the first one.  Candidates ascend.
        chosen = candidates[0]
        for i in candidates:
            if i > start:
                chosen = i
                break
        if self._rr_pointer is EMPTY_MAP:
            self._rr_pointer = {}
        self._rr_pointer[prio] = chosen
        return chosen

    def next_eligible(self, now: float) -> float:
        """Earliest time any backlogged class becomes servable.

        Borrow-capable classes are always eligible; regulated (no-borrow)
        classes become eligible when their bucket refills to cover the head
        packet.  Returns ``inf`` when nothing is queued.
        """
        best = float("inf")
        for cls in self.cbq_classes:
            if not cls.queue._q:
                continue
            if cls.can_borrow:
                return now
            head = cls.queue._q[0]
            wait = cls.bucket.time_until(head._wire or head.wire_bytes, now)
            best = min(best, now + wait)
        return best
