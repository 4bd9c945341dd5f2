"""Convergence tracer: causal spans from link event to healed data plane.

When the backbone churns, three different clocks tell three different
stories: the *topology* clock (when the link state changed), the
*control-plane* clock (when SPF reconverged and the FIB/LFIB/FTN batches
were installed), and the *data-plane* clock (when a customer packet
actually made it through again).  The paper's restoration claims (C5/C7)
are about the last one; most tooling only reports the middle one.

A :class:`ConvergenceTracer` stitches all three into one **causal span
chain** per failure event:

::

    link.down  A<->B                       (root — opens the trace)
    ├─ frr.repair                          (if a bypass PLR fired)
    ├─ spf.reconverge   domain=core        (edge diff → batched installs)
    ├─ ldp.converge     lfib=… withdrawn=… (label state follows the IGP)
    └─ heal.first_packet  watch=…          (first correctly-forwarded
                                            packet per watched VRF path)

Spans use **simulation time** for causality (``t_start_s``/``t_end_s``)
and carry wall-clock compute cost as attributes (``wall_ms``) — the two
must never be mixed.  Control-plane spans are instantaneous in sim time
(the simulator models reconvergence as an atomic event at its scheduled
time); the healing span stretches from link-down to the first delivered
probe, which is why data-plane healing time is ≥ the control-plane time
by construction *for affected paths*.

Healing detection is a cheap post-churn probe: a :class:`HealingWatch`
keeps a dormant CBR micro-probe per watched (src, dst) pair and only
starts emitting when a link goes down, stopping again at first delivery
— zero packets on the wire while the network is healthy.  Probe flows
are named ``__heal…`` and excluded from SLO customer streams.

Everything is deterministic: span/trace ids are sequential per tracer,
probe flow names come from the simulator's scoped id counter, and all
timestamps are simulation time (wall-clock lives only in attrs, which
the schema validator treats as free-form).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.sim.trace import TraceRecord

__all__ = ["SPAN_SCHEMA", "Span", "HealingWatch", "ConvergenceTracer"]

SPAN_SCHEMA = "repro.spans/v1"


@dataclass(slots=True)
class Span:
    """One span of a convergence trace (OpenTelemetry-shaped, sim time)."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    kind: str
    name: str
    t_start_s: float
    t_end_s: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.t_end_s - self.t_start_s

    def to_doc(self) -> dict[str, Any]:
        """JSON-able document (one JSONL line), schema-stamped."""
        return {
            "schema": SPAN_SCHEMA,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "kind": self.kind,
            "name": self.name,
            "t_start_s": self.t_start_s,
            "t_end_s": self.t_end_s,
            "attrs": self.attrs,
        }


class HealingWatch:
    """Data-plane healing detector for one (src → dst) path.

    Dormant until the tracer arms it on a link-down event; then a small
    CBR probe stream runs until the first probe is delivered at the far
    end, which closes the ``heal.first_packet`` span.  A fresh probe flow
    id is drawn per failure so repeated flaps yield distinct, unambiguous
    healing measurements.
    """

    def __init__(
        self,
        tracer: "ConvergenceTracer",
        src_node,
        dst_node,
        src_addr,
        dst_addr,
        label: str,
        dscp: int = 46,
        interval_s: float = 0.020,
        payload_bytes: int = 64,
    ) -> None:
        self.tracer = tracer
        self.src_node = src_node
        self.dst_node = dst_node
        self.src_addr = src_addr
        self.dst_addr = dst_addr
        self.label = label
        self.dscp = dscp
        self.interval_s = interval_s
        self.payload_bytes = payload_bytes
        self.flow: str | None = None
        self.source = None
        self.healings: list[dict[str, Any]] = []
        self._armed = False
        self._t_down = 0.0
        self._trace_id: str | None = None
        self._root_id: str | None = None
        dst_node.add_local_sink(self._on_delivery)

    # ------------------------------------------------------------------
    def arm(self, t_down: float, trace_id: str, root_id: str) -> None:
        """Link went down: start probing until the path heals."""
        from repro.traffic.generators import CbrSource

        self._armed = True
        self._t_down = t_down
        self._trace_id = trace_id
        self._root_id = root_id
        if self.source is None:
            sim = self.tracer.sim
            self.flow = f"__heal{sim.next_id('heal')}"
            wire = self.payload_bytes + 20
            self.source = CbrSource(
                sim, self.src_node.send, self.flow,
                self.src_addr, self.dst_addr,
                payload_bytes=self.payload_bytes, dscp=self.dscp,
                proto="udp", dst_port=7,
                rate_bps=wire * 8 / self.interval_s,
            )
            self.source.start(at=sim.now)

    def _on_delivery(self, pkt) -> None:
        if not self._armed:
            return
        original = pkt.innermost()
        if original.flow != self.flow:
            return
        now = self.tracer.sim.now
        self._armed = False
        if self.source is not None:
            self.source.stop()
            self.source = None
        healing_s = now - self._t_down
        self.healings.append(
            {
                "trace_id": self._trace_id,
                "watch": self.label,
                "t_down_s": self._t_down,
                "t_healed_s": now,
                "dp_healing_s": healing_s,
            }
        )
        self.tracer._heal_detected(
            self._trace_id, self._root_id, self.label, self.flow,
            self._t_down, now,
        )


class ConvergenceTracer:
    """Per-network causal convergence tracing (see module docstring).

    An ordinary subscriber to the network's trace bus: :meth:`attach`
    subscribes to the link-state and control-plane kinds the topology,
    ``reconverge``, ``run_ldp`` and FRR publish (see
    :data:`repro.sim.trace.KINDS`), and :meth:`detach` removes exactly
    those subscriptions.  Any number of tracers may listen to one network.
    A network nobody traces pays one dict lookup per control-plane event
    and nothing per packet.
    """

    def __init__(self, net) -> None:
        self.net = net
        self.sim = net.sim
        self.spans: list[Span] = []
        self.watches: list[HealingWatch] = []
        self._trace_seq = 0
        self._span_seq = 0
        # Active trace: (trace_id, root span id, t_down).  One failure
        # event at a time — a new link.down opens a new trace.
        self._active: tuple[str, str, float] | None = None
        # DuplexLink.set_up writes both simplex directions; both publish
        # at the same sim time for the same canonical pair.
        self._last_key: tuple[float, str, bool] | None = None
        # The (kind, callable) pairs attach() subscribed, for detach().
        self._subs: tuple[tuple[str, Callable[[TraceRecord], None]], ...] = ()

    # ------------------------------------------------------------------
    def attach(self) -> "ConvergenceTracer":
        self._subs = (
            ("link.down", self._on_link_state),
            ("link.up", self._on_link_state),
            ("frr.repair", self.on_frr_repair),
            ("spf.reconverge", self.on_reconverge),
            ("ldp.converge", self.on_ldp_converged),
        )
        for kind, fn in self._subs:
            self.net.trace.subscribe(kind, fn)
        return self

    def detach(self) -> None:
        for kind, fn in self._subs:
            self.net.trace.unsubscribe(kind, fn)
        self._subs = ()

    def add_watch(
        self,
        src_node,
        dst_node,
        src_addr,
        dst_addr,
        label: str | None = None,
        dscp: int = 46,
        interval_s: float = 0.020,
    ) -> HealingWatch:
        """Watch data-plane healing on the (src → dst) path."""
        watch = HealingWatch(
            self, src_node, dst_node, src_addr, dst_addr,
            label or f"{src_node.name}->{dst_node.name}",
            dscp=dscp, interval_s=interval_s,
        )
        self.watches.append(watch)
        return watch

    # ------------------------------------------------------------------
    def _new_span(
        self,
        trace_id: str,
        parent_id: Optional[str],
        kind: str,
        name: str,
        t_start: float,
        t_end: float,
        attrs: dict[str, Any],
    ) -> Span:
        self._span_seq += 1
        span = Span(
            trace_id=trace_id,
            span_id=f"s{self._span_seq}",
            parent_id=parent_id,
            kind=kind,
            name=name,
            t_start_s=t_start,
            t_end_s=t_end,
            attrs=attrs,
        )
        self.spans.append(span)
        return span

    # -- link.down / link.up ---------------------------------------------
    def _on_link_state(self, rec: TraceRecord) -> None:
        now = rec.time
        up = rec.kind == "link.up"
        a, _, b = rec.link.name.partition("->")
        canon = "<->".join(sorted((a, b)))
        key = (now, canon, up)
        if key == self._last_key:
            return  # second simplex direction of the same duplex event
        self._last_key = key
        if not up:
            self._trace_seq += 1
            trace_id = f"t{self._trace_seq}"
            root = self._new_span(
                trace_id, None, "link.down", canon, now, now, {"link": canon}
            )
            self._active = (trace_id, root.span_id, now)
            for watch in self.watches:
                watch.arm(now, trace_id, root.span_id)
        else:
            if self._active is not None:
                trace_id, root_id, _ = self._active
                self._new_span(
                    trace_id, root_id, "link.up", canon, now, now, {"link": canon}
                )
            else:
                self._trace_seq += 1
                trace_id = f"t{self._trace_seq}"
                root = self._new_span(
                    trace_id, None, "link.up", canon, now, now, {"link": canon}
                )
                self._active = (trace_id, root.span_id, now)

    # -- control-plane records: children of the active trace -----------
    def _child(self, rec: TraceRecord, name: str, attrs: dict[str, Any]) -> None:
        if self._active is None:
            return  # steady-state control-plane run, not churn recovery
        trace_id, root_id, _ = self._active
        self._new_span(trace_id, root_id, rec.kind, name, rec.time, rec.time, attrs)

    def on_reconverge(self, rec: TraceRecord) -> None:
        self._child(
            rec, rec.domain,
            {"domain": rec.domain, "installs": rec.installs,
             "wall_ms": round(rec.wall_s * 1e3, 3)},
        )

    def on_ldp_converged(self, rec: TraceRecord) -> None:
        self._child(
            rec, "ldp",
            {"sessions": rec.sessions, "lfib_entries": rec.lfib_entries,
             "ftn_entries": rec.ftn_entries, "fecs": rec.fecs,
             "withdrawn": rec.withdrawn, "wall_ms": round(rec.wall_s * 1e3, 3)},
        )

    def on_frr_repair(self, rec: TraceRecord) -> None:
        a, b = rec.link
        self._child(
            rec, f"{a}<->{b}",
            {"link": "<->".join(sorted((a, b))), "repaired": rec.repaired},
        )

    # -- data-plane healing (called by HealingWatch) --------------------
    def _heal_detected(
        self,
        trace_id: str | None,
        root_id: str | None,
        label: str,
        flow: str | None,
        t_down: float,
        t_healed: float,
    ) -> None:
        self._new_span(
            trace_id or "t0", root_id, "heal.first_packet", label,
            t_down, t_healed,
            {"watch": label, "flow": flow,
             "dp_healing_s": round(t_healed - t_down, 9)},
        )

    # ------------------------------------------------------------------
    def trace_spans(self, trace_id: str) -> list[Span]:
        return [s for s in self.spans if s.trace_id == trace_id]

    def summary(self) -> dict[str, Any]:
        """Per-trace healing summary: control-plane vs data-plane clocks.

        ``cp_healing_s`` is the latest control-plane recovery action
        (SPF / LDP / FRR span) relative to link-down; ``dp_healing_s``
        the latest watched first-healed-packet.  Either is ``None`` when
        the trace saw no such span.
        """
        cp_kinds = {"spf.reconverge", "ldp.converge", "frr.repair"}
        traces: list[dict[str, Any]] = []
        by_trace: dict[str, list[Span]] = {}
        for span in self.spans:
            by_trace.setdefault(span.trace_id, []).append(span)
        for trace_id in sorted(by_trace, key=lambda t: int(t[1:])):
            spans = by_trace[trace_id]
            root = spans[0]
            t0 = root.t_start_s
            cp_ends = [s.t_end_s for s in spans if s.kind in cp_kinds]
            dp_ends = [s.t_end_s for s in spans if s.kind == "heal.first_packet"]
            traces.append(
                {
                    "trace_id": trace_id,
                    "event": root.kind,
                    "link": root.attrs.get("link"),
                    "t_event_s": t0,
                    "spans": len(spans),
                    "cp_healing_s": (max(cp_ends) - t0) if cp_ends else None,
                    "dp_healing_s": (max(dp_ends) - t0) if dp_ends else None,
                }
            )
        return {
            "schema": SPAN_SCHEMA,
            "traces": traces,
            "watches": [w.label for w in self.watches],
            "spans": len(self.spans),
        }

    def span_docs(self) -> list[dict[str, Any]]:
        return [s.to_doc() for s in self.spans]

    def to_jsonl(self, path: str) -> int:
        """Write one span per line; returns the number of spans written."""
        docs = self.span_docs()
        with open(path, "w", encoding="utf-8") as fh:
            for doc in docs:
                fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
        return len(docs)
