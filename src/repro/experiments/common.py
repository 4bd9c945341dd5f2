"""Shared scenario plumbing for the experiment suite.

Experiments are plain functions returning ``(rows, raw)``: ``rows`` is a
list of flat dicts ready for :func:`repro.metrics.print_table` (the
"table the paper would have shown"), ``raw`` carries the objects tests
assert against.  Everything is seeded and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.metrics.stats import FlowStats, summarize_flow, summarize_hybrid_flow
from repro.net.node import Node
from repro.qos.classifier import mpls_aware_classifier
from repro.qos.queues import (
    DeficitRoundRobin,
    DropTailFifo,
    FairQueueing,
    PriorityScheduler,
    QueueDiscipline,
    WeightedRoundRobin,
)
from repro.qos.red import RedParams, RedQueueManager, standard_wred
from repro.topology import Network
from repro.traffic.generators import TrafficSource
from repro.traffic.sink import FlowSink

__all__ = [
    "ExperimentRun",
    "QdiscSpec",
    "three_class_queues",
    "run_and_summarize",
]


def three_class_queues(capacity_packets: int = 100) -> list[DropTailFifo]:
    """EF / AF / BE class queues in the standard order."""
    return [
        DropTailFifo(capacity_packets, name="EF"),
        DropTailFifo(capacity_packets, name="AF"),
        DropTailFifo(capacity_packets, name="BE"),
    ]


# Every classful discipline's EF / AF / BE weights: no caller varies them.
_WEIGHTS = (16.0, 4.0, 1.0)
_AQM = ("droptail", "red", "wred")
_KINDS = ("fifo", "priority", "wrr", "drr", "wfq") + _AQM


@dataclass(frozen=True, slots=True)
class QdiscSpec:
    """The per-interface queue discipline of a network, as data: a
    ``(node, ifname) -> QueueDiscipline`` factory for
    ``Network.default_qdisc_factory``.

    ``kind`` is ``"fifo"`` (a 100-packet FIFO), a classful scheduler over
    the EF / AF / BE queues of :func:`three_class_queues` weighted 16:4:1
    (``"priority"``, ``"wrr"``, ``"drr"``, ``"wfq"``), or a FIFO capped at
    ``cap_bytes`` drawing on ``rng``, the network's stream (``"droptail"``,
    ``"red"`` on ``red``, three-precedence ``"wred"``; every AQM kind takes
    a stream, so a study's kinds share one record shape, and tail-drop
    draws nothing from it).  A classful kind classifies through
    ``classifier(node)`` (a per-node classifier class such as
    ``llsp_classifier``), or, when ``classifier`` is ``None``, on MPLS EXP
    when labeled and outer DSCP otherwise — the interior behaviour of claim
    C6.  A record of importable values, so a network holding one snapshots
    it by name; a field its kind does not take is a ``ValueError``.
    """

    kind: str
    cap_bytes: int | None = None
    rng: Any = None
    red: RedParams | None = None
    classifier: Callable[[Node], Callable] | None = None

    def __post_init__(self) -> None:
        kind = self.kind
        if kind not in _KINDS:
            raise ValueError(f"unknown qdisc kind {kind!r}; expected one of {_KINDS}")
        given = [f for f in ("cap_bytes", "rng") if getattr(self, f) is not None]
        if kind in _AQM and len(given) < 2:
            raise ValueError(f"AQM kind {kind!r} needs cap_bytes and rng, got {given}")
        if kind not in _AQM and given:
            raise ValueError(f"qdisc kind {kind!r} takes no AQM field, got {given}")
        if (self.red is not None) != (kind == "red"):
            need = "needs" if kind == "red" else "takes no"
            raise ValueError(f"qdisc kind {kind!r} {need} RedParams")
        if self.classifier is not None and kind in ("fifo",) + _AQM:
            raise ValueError(f"qdisc kind {kind!r} is classless and takes no classifier")

    def __call__(self, node: Node, ifname: str) -> QueueDiscipline:
        kind = self.kind
        if kind == "fifo":
            return DropTailFifo(capacity_packets=100)
        if kind in _AQM:
            cap = self.cap_bytes
            if kind == "droptail":
                return DropTailFifo(capacity_packets=None, capacity_bytes=cap)
            policy = (
                RedQueueManager(self.red, self.rng) if kind == "red"
                else standard_wred(cap, self.rng)
            )
            return DropTailFifo(capacity_packets=None, capacity_bytes=cap, drop_policy=policy)
        queues = three_class_queues()
        cls = mpls_aware_classifier if self.classifier is None else self.classifier(node)
        if kind == "priority":
            return PriorityScheduler(queues, cls)
        if kind == "wfq":
            return FairQueueing(queues, cls, list(_WEIGHTS))
        if kind == "drr":
            # Quanta in bytes; scale weights by one MTU.
            return DeficitRoundRobin(queues, cls, [int(w * 1500) for w in _WEIGHTS])
        return WeightedRoundRobin(queues, cls, [max(1, int(w)) for w in _WEIGHTS])


@dataclass
class ExperimentRun:
    """One simulation run's bookkeeping: sources, sinks, timing."""

    net: Network
    sources: list[TrafficSource] = field(default_factory=list)
    sinks: dict[str, FlowSink] = field(default_factory=dict)
    warmup_s: float = 0.5
    measure_s: float = 5.0
    fluid: Any = None  # lazily-created FluidRouter (hybrid runs only)

    def __post_init__(self) -> None:
        if not 0.0 < self.measure_s < math.inf:  # also rejects NaN
            raise ValueError(f"measure_s must be finite and > 0, got {self.measure_s}")
        if not 0.0 <= self.warmup_s < math.inf:
            raise ValueError(f"warmup_s must be finite and >= 0, got {self.warmup_s}")

    def add_source(self, source: TrafficSource, start: float | None = None) -> TrafficSource:
        """Register and start a source for the measurement window."""
        self.sources.append(source)
        begin = self.warmup_s if start is None else start
        source.start(begin, stop_at=self.warmup_s + self.measure_s)
        return source

    def sink_at(self, node: Node) -> FlowSink:
        """One sink per node, shared across flows terminating there."""
        sink = self.sinks.get(node.name)
        if sink is None:
            sink = FlowSink(self.net.sim).attach(node)
            self.sinks[node.name] = sink
        return sink

    def fluid_plane(self, **kwargs: Any) -> Any:
        """The run's :class:`~repro.traffic.fluid.FluidRouter`, created on
        first use and armed over the measurement window (same start/stop
        schedule :meth:`add_source` gives packet sources)."""
        if self.fluid is None:
            from repro.traffic.fluid import FluidRouter

            self.fluid = FluidRouter(self.net, **kwargs)
            self.fluid.start(
                self.warmup_s, stop_at=self.warmup_s + self.measure_s
            )
        return self.fluid

    def execute(self, drain_s: float = 1.0) -> None:
        """Run warmup + measurement + drain."""
        self.net.run(self.warmup_s + self.measure_s + drain_s)

    def stats_for(self, source: TrafficSource, sink: FlowSink) -> FlowStats:
        return summarize_flow(source, sink, duration_s=self.measure_s)

    def hybrid_stats_for(self, agg: Any, sink: FlowSink) -> FlowStats:
        return summarize_hybrid_flow(agg, sink, duration_s=self.measure_s)

    def manifest(self, config: dict[str, Any] | None = None) -> dict[str, Any] | None:
        """Telemetry run manifest, or ``None`` when telemetry is off.

        The harness's own timing plus source/sink counts are folded into
        the manifest's ``config`` block alongside the caller's entries.
        """
        session = self.net.telemetry
        if session is None:
            return None
        cfg: dict[str, Any] = {
            "warmup_s": self.warmup_s,
            "measure_s": self.measure_s,
            "sources": len(self.sources),
            "sinks": len(self.sinks),
        }
        if config:
            cfg.update(config)
        return session.manifest(config=cfg)


def run_and_summarize(
    run: ExperimentRun,
    pairs: Sequence[tuple[TrafficSource, FlowSink]],
    drain_s: float = 1.0,
) -> list[FlowStats]:
    """Execute the run and summarize each (source, sink) pair in order."""
    run.execute(drain_s=drain_s)
    return [run.stats_for(src, sink) for src, sink in pairs]
