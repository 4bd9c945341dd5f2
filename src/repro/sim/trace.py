"""Lightweight tracing / instrumentation bus.

Components publish structured trace records (packet drops, link state,
control-plane reconvergence, LSP setups) to a :class:`TraceBus`; tests,
experiment harnesses and the convergence tracer (:mod:`repro.obs.spans`)
subscribe to the record kinds they care about.  When nobody is subscribed
to a kind, publishing is a single dict lookup + ``None`` check, so tracing
costs almost nothing in production benchmark runs.

:data:`KINDS` is the whole vocabulary: every kind published anywhere in
the simulator.  A control-plane event is announced once, here, and any
number of listeners may subscribe to it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["KINDS", "TraceBus", "TraceRecord", "Counter"]

#: Every record kind a component publishes, and what it carries.
KINDS = (
    "drop",            # node, reason, pkt (+ iface from an interface)
    "link.down",       # link: the simplex Link that went down
    "link.up",         # link: the simplex Link that came back
    "frr.repair",      # link=(a, b), repaired
    "frr.restore",     # link=(a, b), restored
    "spf.reconverge",  # domain, installs, wall_s
    "ldp.converge",    # sessions, mapping_messages, lfib_entries, ftn_entries, fecs,
                       # withdrawn, wall_s
    "te.lsp_up",       # name, path, bandwidth_bps, php, scheduling_class
    "te.lsp_down",     # name
)


@dataclass(slots=True, frozen=True)
class TraceRecord:
    """One trace event: a kind, a timestamp, and free-form attributes."""

    kind: str
    time: float
    attrs: dict[str, Any]

    def __getattr__(self, name: str) -> Any:  # convenience: rec.node etc.
        try:
            return self.attrs[name]
        except KeyError:
            raise AttributeError(name) from None


class TraceBus:
    """Publish/subscribe hub for :class:`TraceRecord`.

    Subscribers are plain callables; ``record=True`` subscriptions append to
    an in-memory list retrievable via :meth:`records`.
    """

    def __init__(self) -> None:
        self._subs: dict[str, list[Callable[[TraceRecord], None]]] = defaultdict(list)
        self._recorded: dict[str, list[TraceRecord]] = {}
        # Direct observability attachment points.  Per-hop hot paths check
        # these attributes against ``None`` instead of going through
        # ``publish`` — publish builds its kwargs dict *before* the
        # no-subscriber check, which is too expensive to pay per packet-hop.
        # Set by repro.obs.telemetry when a Telemetry session attaches.
        self.flight = None  # FlightRecorder | None
        self.flows = None   # FlowAccountant | None
        self.slo = None     # repro.obs.slo.SloEngine | None

    def subscribe(self, kind: str, fn: Callable[[TraceRecord], None]) -> None:
        """Invoke ``fn`` for every published record of ``kind``."""
        self._subs[kind].append(fn)

    def unsubscribe(self, kind: str, fn: Callable[[TraceRecord], None]) -> None:
        """Remove a subscription added with :meth:`subscribe`.

        Removes one registration of ``fn`` for ``kind``; raises
        ``ValueError`` if it was never subscribed.  Empty subscriber lists
        are deleted so :meth:`active` (and the publish fast path) return to
        the no-subscriber state.
        """
        subs = self._subs[kind]
        subs.remove(fn)
        if not subs:
            del self._subs[kind]

    def record(self, kind: str) -> None:
        """Start retaining records of ``kind`` for later inspection."""
        if kind not in self._recorded:
            self._recorded[kind] = []
            self.subscribe(kind, self._recorded[kind].append)

    def records(self, kind: str) -> list[TraceRecord]:
        """Records retained via :meth:`record` (empty if not recording)."""
        return self._recorded.get(kind, [])

    def publish(self, kind: str, time: float, **attrs: Any) -> None:
        """Publish a record; no-op when ``kind`` has no subscribers."""
        subs = self._subs.get(kind)
        if not subs:
            return
        rec = TraceRecord(kind, time, attrs)
        for fn in subs:
            fn(rec)

    def active(self, kind: str) -> bool:
        """True when at least one subscriber listens to ``kind``."""
        return bool(self._subs.get(kind))


@dataclass
class Counter:
    """Named integer counters, used for control-plane message accounting.

    The scalability experiment (E1) is entirely counter-driven: we count
    LDP/BGP messages and state entries rather than timing anything.
    """

    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def incr(self, name: str, by: int = 1) -> None:
        self.counts[name] += by

    def __getitem__(self, name: str) -> int:
        return self.counts.get(name, 0)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(sorted(self.counts.items()))

    def total(self, prefix: str = "") -> int:
        """Sum of all counters whose name starts with ``prefix``."""
        return sum(v for k, v in self.counts.items() if k.startswith(prefix))

    def snapshot(self) -> dict[str, int]:
        return dict(self.counts)
