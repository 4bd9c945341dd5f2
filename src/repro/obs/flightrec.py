"""Packet flight recorder: a bounded ring buffer of per-hop events.

Every instrumented touch point (receive, queue enqueue/dequeue, label
push/swap/pop, local delivery, drop) appends one *row*: a plain tuple in
:class:`HopRecord` field order.  The buffer is a ``deque(maxlen=...)`` so
memory is bounded no matter how long the run: old hops fall off the back,
which is exactly the black-box behaviour the name promises — after
something goes wrong you read out the recent past.

Recording is the hot path and reading is post-mortem, so the price sits on
the reader: a producer is one frame that builds one tuple literal (no
Python-level constructor or comprehension per hop) and
:class:`HopRecord`, the public read type, is materialised from rows only
by :meth:`FlightRecorder.records`,
:meth:`~FlightRecorder.path_of`, :meth:`~FlightRecorder.to_json` and
:meth:`~FlightRecorder.explain`.  A row copies ``uid``/``flow``/``seq`` and
the label values out of the packet at record time, so it is a snapshot:
later stack mutation of the packet cannot change it.

Rows are keyed by the *innermost* packet (the original customer
datagram), so one flow's journey can be reconstructed across label
imposition, VPN encapsulation, and FRR detours: :meth:`path_of` returns
the ordered hop list for a flow and :meth:`explain` renders it.

Hot-path producers call the ``rx``/``enqueue``/``dequeue``/``label_op``/
``deliver``/``drop`` methods directly (no TraceBus dict round-trip); they
are only reachable when a telemetry session installed the recorder on
``trace.flight``, so the disabled cost is one ``None`` check at each site.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Any

from repro.net.packet import Packet

__all__ = ["FlightRecorder", "HopRecord"]


@dataclass(slots=True, frozen=True)
class HopRecord:
    """One per-hop event of one packet.

    ``labels`` is the MPLS stack *after* the event, bottom→top; ``uid`` is
    the innermost packet's id (stable across encapsulation).
    """

    time: float
    node: str
    event: str              # rx | enqueue | dequeue | deliver | drop | push | swap | pop
    uid: int
    flow: Any
    seq: int
    ifname: str | None = None
    labels: tuple[int, ...] = ()
    in_label: int | None = None
    out_label: int | None = None
    reason: str | None = None
    backlog: int | None = None

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "time": self.time,
            "node": self.node,
            "event": self.event,
            "uid": self.uid,
            "flow": self.flow,
            "seq": self.seq,
            "labels": list(self.labels),
        }
        for key in ("ifname", "in_label", "out_label", "reason", "backlog"):
            value = getattr(self, key)
            if value is not None:
                d[key] = value
        return d


# Row layout == HopRecord field order; the readers filter on these two.
_FLOW = HopRecord.__slots__.index("flow")
_SEQ = HopRecord.__slots__.index("seq")

# A producer copies the label values with ``map`` over this C getter: a
# comprehension would be one more Python frame per row.
_label_of = attrgetter("label")


class FlightRecorder:
    """Bounded ring buffer of hop rows (see module docstring)."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._ring: deque[tuple] = deque(maxlen=self.capacity)
        self.recorded = 0  # total appended, including those aged out

    # ------------------------------------------------------------------
    # Producers (hot paths).  Each appends one tuple literal, repeated six
    # times on purpose: a shared helper is one more Python call per hop.
    # ------------------------------------------------------------------
    def rx(self, time: float, node: str, pkt: Packet, ifname: str) -> None:
        inner = pkt
        while inner.inner is not None:
            inner = inner.inner
        stack = pkt.mpls_stack
        labels = tuple(map(_label_of, stack)) if stack else ()
        self._ring.append((time, node, "rx", inner.uid, inner.flow, inner.seq,
                           ifname, labels, None, None, None, None))
        self.recorded += 1

    def enqueue(self, time: float, node: str, pkt: Packet, ifname: str, backlog: int) -> None:
        inner = pkt
        while inner.inner is not None:
            inner = inner.inner
        stack = pkt.mpls_stack
        labels = tuple(map(_label_of, stack)) if stack else ()
        self._ring.append((time, node, "enqueue", inner.uid, inner.flow, inner.seq,
                           ifname, labels, None, None, None, backlog))
        self.recorded += 1

    def dequeue(self, time: float, node: str, pkt: Packet, ifname: str, backlog: int) -> None:
        inner = pkt
        while inner.inner is not None:
            inner = inner.inner
        stack = pkt.mpls_stack
        labels = tuple(map(_label_of, stack)) if stack else ()
        self._ring.append((time, node, "dequeue", inner.uid, inner.flow, inner.seq,
                           ifname, labels, None, None, None, backlog))
        self.recorded += 1

    def deliver(self, time: float, node: str, pkt: Packet) -> None:
        inner = pkt
        while inner.inner is not None:
            inner = inner.inner
        stack = pkt.mpls_stack
        labels = tuple(map(_label_of, stack)) if stack else ()
        self._ring.append((time, node, "deliver", inner.uid, inner.flow, inner.seq,
                           None, labels, None, None, None, None))
        self.recorded += 1

    def drop(
        self, time: float, node: str, pkt: Packet, reason: str, ifname: str | None = None
    ) -> None:
        inner = pkt
        while inner.inner is not None:
            inner = inner.inner
        stack = pkt.mpls_stack
        labels = tuple(map(_label_of, stack)) if stack else ()
        self._ring.append((time, node, "drop", inner.uid, inner.flow, inner.seq,
                           ifname, labels, None, None, reason, None))
        self.recorded += 1

    def label_op(
        self, time: float, node: str, pkt: Packet, op: str,
        old: int | None = None, new: int | None = None,
    ) -> None:
        """Record a push/swap/pop.  Called *before* the stack mutation, so
        ``labels`` shows the pre-op stack and ``in_label``/``out_label``
        carry the transition."""
        inner = pkt
        while inner.inner is not None:
            inner = inner.inner
        stack = pkt.mpls_stack
        labels = tuple(map(_label_of, stack)) if stack else ()
        self._ring.append((time, node, op, inner.uid, inner.flow, inner.seq,
                           None, labels, old, new, None, None))
        self.recorded += 1

    # ------------------------------------------------------------------
    # Consumers (post-mortem): rows become HopRecords here, on demand
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ring)

    def records(self) -> list[HopRecord]:
        return [HopRecord(*row) for row in self._ring]

    def path_of(self, flow: Any, seq: int | None = None) -> list[HopRecord]:
        """Ordered hop records of one flow (optionally one sequence number)."""
        return [
            HopRecord(*row)
            for row in self._ring
            if row[_FLOW] == flow and (seq is None or row[_SEQ] == seq)
        ]

    def packets_of(self, flow: Any) -> list[int]:
        """Distinct sequence numbers of ``flow`` still in the buffer."""
        return list(dict.fromkeys(row[_SEQ] for row in self._ring if row[_FLOW] == flow))

    def explain(self, flow: Any, seq: int | None = None) -> str:
        """Human-readable hop-by-hop account of a flow's journey."""
        recs = self.path_of(flow, seq)
        if not recs:
            return f"flight recorder: no records for flow {flow!r}"
        lines = [f"flow {flow!r}: {len(recs)} recorded events"]
        for r in recs:
            stack = "+".join(str(x) for x in reversed(r.labels)) or "ip"
            detail = ""
            if r.event == "swap":
                detail = f" {r.in_label}->{r.out_label}"
            elif r.event == "push":
                detail = f" +{r.out_label}"
            elif r.event == "pop":
                detail = f" -{r.in_label}"
            elif r.event == "drop":
                detail = f" reason={r.reason}"
            elif r.backlog is not None:
                detail = f" backlog={r.backlog}"
            where = f"{r.node}" + (f".{r.ifname}" if r.ifname else "")
            lines.append(
                f"  t={r.time:.6f} seq={r.seq:<5d} {r.event:<8s} {where:<16s}"
                f" [{stack}]{detail}"
            )
        return "\n".join(lines)

    def to_json(self, flow: Any = None) -> list[dict[str, Any]]:
        recs = self.records() if flow is None else self.path_of(flow)
        return [r.to_dict() for r in recs]

    def summary(self) -> dict[str, Any]:
        return {
            "capacity": self.capacity,
            "buffered": len(self._ring),
            "recorded_total": self.recorded,
            "aged_out": self.recorded - len(self._ring),
        }
