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

from typing import Optional

from repro.net.packet import Packet
from repro.qos.meter import TokenBucket
from repro.qos.queues import DropTailFifo

__all__ = ["TokenBucketShaper"]


class TokenBucketShaper(DropTailFifo):
    """A :class:`DropTailFifo` behind a token-bucket release gate.

    Parameters
    ----------
    rate_bps / burst_bytes:
        The shaping profile.  The bucket starts full, so an initial burst
        up to ``burst_bytes`` passes unshaped (standard behaviour).
    capacity_packets / capacity_bytes:
        Backlog bounds; excess arrivals tail-drop (a shaper has finite
        buffer — unbounded shaping would just move the loss to memory).

    Admission, tail drop and the counters are the FIFO's; the shaper adds
    only the gate: :meth:`dequeue` releases the head through the FIFO's
    ``pop`` when the bucket covers it, and :meth:`next_eligible` says when
    it will.
    """

    name = "shaper"

    def __init__(
        self,
        rate_bps: float,
        burst_bytes: int,
        capacity_packets: int | None = 200,
        capacity_bytes: int | None = None,
    ) -> None:
        super().__init__(capacity_packets, capacity_bytes)
        self.bucket = TokenBucket(rate_bps, burst_bytes)

    def __getstate__(self) -> tuple:
        return (*super().__getstate__(), self.bucket)

    def __setstate__(self, state: tuple) -> None:
        super().__setstate__(state[:-1])
        self.bucket = state[-1]

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._q:
            return None
        head = self._q[0]
        if not self.bucket.conforms(head._wire or head.wire_bytes, now):
            return None  # out of profile: interface will retry at next_eligible
        return self.pop(now)

    def next_eligible(self, now: float) -> float:
        if not self._q:
            return float("inf")
        return now + self.bucket.time_until(self._q[0].wire_bytes, now)
