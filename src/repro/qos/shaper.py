"""Token-bucket traffic shaping.

A shaper differs from a policer in *where* the excess goes: a policer
drops out-of-profile packets, a shaper holds them until the bucket refills
— turning bursts into a smooth conformant stream at the cost of delay.
Providers shape at the PE egress toward the customer so the access link's
contract is honoured; customers shape toward the PE so their ingress
policer never fires.

The shaper is a non-work-conserving queue discipline: ``dequeue`` refuses
out-of-profile heads and reports the refill time through
:meth:`next_eligible`, which the driving interface uses to schedule its
retry (same mechanism CBQ regulation uses).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.net.drops import DropReason
from repro.net.packet import Packet
from repro.qos.meter import TokenBucket
from repro.qos.queues import IDLE, ClassStats, DropCallback, QueueDiscipline

__all__ = ["TokenBucketShaper"]


class TokenBucketShaper(QueueDiscipline):
    """FIFO + token-bucket release gate.

    Parameters
    ----------
    rate_bps / burst_bytes:
        The shaping profile.  The bucket starts full, so an initial burst
        up to ``burst_bytes`` passes unshaped (standard behaviour).
    capacity_packets / capacity_bytes:
        Backlog bounds; excess arrivals tail-drop (a shaper has finite
        buffer — unbounded shaping would just move the loss to memory).
    """

    def __init__(
        self,
        rate_bps: float,
        burst_bytes: int,
        capacity_packets: int | None = 200,
        capacity_bytes: int | None = None,
    ) -> None:
        self.bucket = TokenBucket(rate_bps, burst_bytes)
        self._q: deque[Packet] | tuple = IDLE
        self._bytes = 0
        self.capacity_packets = capacity_packets
        self.capacity_bytes = capacity_bytes
        self.stats = ClassStats()
        self.on_drop: DropCallback | None = None

    def set_drop_callback(self, cb: DropCallback | None) -> None:
        self.on_drop = cb

    # ------------------------------------------------------------------
    def enqueue(self, pkt: Packet, now: float) -> bool:
        size = pkt._wire or pkt.wire_bytes
        if (
            self.capacity_packets is not None and len(self._q) >= self.capacity_packets
        ) or (
            self.capacity_bytes is not None
            and self._bytes + size > self.capacity_bytes
        ):
            self.stats.dropped += 1
            if self.on_drop is not None:
                self.on_drop(pkt, DropReason.QUEUE_TAIL, now)
            return False
        q = self._q
        if q is IDLE:
            q = self._q = deque()
        q.append(pkt)
        self._bytes += size
        self.stats.enqueued += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._q:
            return None
        head = self._q[0]
        size = head._wire or head.wire_bytes
        if not self.bucket.conforms(size, now):
            return None  # out of profile: interface will retry at next_eligible
        self._q.popleft()
        self._bytes -= size
        self.stats.dequeued += 1
        self.stats.bytes_sent += size
        return head

    def next_eligible(self, now: float) -> float:
        if not self._q:
            return float("inf")
        return now + self.bucket.time_until(self._q[0].wire_bytes, now)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._q)

    @property
    def backlog_bytes(self) -> int:
        return self._bytes
