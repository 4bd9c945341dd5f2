"""Flow sinks: per-flow arrival recording.

A :class:`FlowSink` registers as a node's local-delivery callback and
records, per flow, every arrival's one-way delay and sequence number.
Encapsulated deliveries are unwrapped via ``innermost()`` so end-to-end
delay spans tunnels.  Raw samples are kept (NumPy-converted lazily) —
experiments are short enough that exact percentiles beat streaming
sketches for clarity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.net.node import Node
from repro.net.packet import Packet
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["FlowRecord", "FlowSink"]


@dataclass
class FlowRecord:
    """Raw arrival log for one flow."""

    delays: list[float] = field(default_factory=list)
    arrival_times: list[float] = field(default_factory=list)
    seqs: list[int] = field(default_factory=list)
    bytes_received: int = 0
    hops_last: int = 0

    @property
    def count(self) -> int:
        return len(self.delays)

    def delays_array(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.delays, dtype=np.float64)

    def arrivals_array(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.arrival_times, dtype=np.float64)


class FlowSink:
    """Collects arrivals at one node, bucketed by flow id.

    Attach with ``FlowSink(sim).attach(node)``; multiple nodes may share a
    sink (site-wide collection).  The sink is its own local-delivery
    callback, so a network holding it snapshots it by name.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.flows: dict[Any, FlowRecord] = {}

    def attach(self, node: Node) -> "FlowSink":
        node.add_local_sink(self)
        return self

    def __call__(self, pkt: Packet) -> None:
        # Look ``on_delivery`` up per packet so instruments that wrap it
        # (e.g. repro.metrics.timeseries.attach_flow_series) take effect
        # even for nodes attached earlier.
        self.on_delivery(pkt)

    def on_delivery(self, pkt: Packet) -> None:
        original = pkt.innermost()
        rec = self.flows.get(original.flow)
        if rec is None:
            rec = self.flows[original.flow] = FlowRecord()
        now = self.sim.now
        rec.delays.append(now - original.created)
        rec.arrival_times.append(now)
        rec.seqs.append(original.seq)
        rec.bytes_received += original.wire_bytes
        rec.hops_last = original.hops

    # ------------------------------------------------------------------
    def record(self, flow: Any) -> FlowRecord:
        """The record for ``flow`` (empty record if nothing arrived)."""
        return self.flows.get(flow, FlowRecord())

    def received(self, flow: Any) -> int:
        return self.record(flow).count

    def __contains__(self, flow: Any) -> bool:
        return flow in self.flows
