"""Reference (pre-fast-path) simulation kernel, frozen verbatim.

This module preserves the event engine exactly as it stood before the
engine fast path (time-bucketed scheduling, tombstone accounting): a
single ``(time, seq, Event)`` priority heap popped one entry at a time.

It exists as the ordering oracle: ``tests/test_engine_parity.py`` runs
whole experiments (e2 / e5 / e11) under both engines with the flight
recorder attached and asserts the per-hop event sequences are
bit-identical.  The event ordering contract (time first, schedule order
within a timestamp) is what every seeded experiment depends on; this
module is the executable statement of that contract.

Nothing in the library imports this module; it is a test oracle only.
Keep it byte-for-byte faithful to the old semantics rather than clean or
fast.  (What a run costs in absolute units is the performance ledger's
job, ``benchmarks/ledger``; no frozen denominator is kept for it.)
"""

from __future__ import annotations

import heapq
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = ["ReferenceEvent", "ReferenceSimulator", "reference_engine"]


@dataclass(slots=True)
class ReferenceEvent:
    """Pre-PR :class:`repro.sim.engine.Event`, kept verbatim."""

    time: float
    callback: Callable[..., None]
    args: tuple = ()
    cancelled: bool = False

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        self.cancelled = True


class ReferenceSimulator:
    """Pre-PR :class:`repro.sim.engine.Simulator`, kept verbatim.

    One ``(time, seq, Event)`` heap; lazy-deleted cancellations stay in
    the heap until popped; ``pending`` counts them.  API-compatible with
    the fast-path engine so ``Network`` can be built on either.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, ReferenceEvent]] = []
        self._seq = 0
        self._running = False
        self._events_processed = 0
        self._stop_requested = False
        self._profile_hook: Callable[[ReferenceEvent], None] | None = None
        self._id_counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending(self) -> int:
        """Pre-PR semantics: everything in the heap, cancelled included."""
        return len(self._heap)

    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> ReferenceEvent:
        if delay < 0:
            raise _sim_error(f"cannot schedule in the past (delay={delay})")
        if not math.isfinite(delay):
            raise _sim_error(f"delay must be finite, got {delay}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> ReferenceEvent:
        if time < self._now:
            raise _sim_error(f"cannot schedule at t={time} (now={self._now})")
        event = ReferenceEvent(time, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, event))
        return event

    def schedule_call(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> ReferenceEvent:
        if delay < 0:
            raise _sim_error(f"cannot schedule in the past (delay={delay})")
        if not math.isfinite(delay):
            raise _sim_error(f"delay must be finite, got {delay}")
        time = self._now + delay
        event = ReferenceEvent(time, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, event))
        return event

    def call_soon(self, callback: Callable[[], None]) -> ReferenceEvent:
        return self.schedule(0.0, callback)

    def next_id(self, namespace: str) -> int:
        nxt = self._id_counters.get(namespace, 0) + 1
        self._id_counters[namespace] = nxt
        return nxt

    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        if self._running:
            raise _sim_error("simulator is already running (re-entrant run())")
        self._running = True
        self._stop_requested = False
        budget = math.inf if max_events is None else max_events
        try:
            while self._heap and not self._stop_requested:
                time, _seq, event = self._heap[0]
                if until is not None and time > until:
                    break
                heapq.heappop(self._heap)
                if event.cancelled:
                    continue
                self._now = time
                hook = self._profile_hook
                if hook is None:
                    args = event.args
                    if args:
                        event.callback(*args)
                    else:
                        event.callback()
                else:
                    hook(event)
                self._events_processed += 1
                budget -= 1
                if budget < 0:
                    raise _sim_error(
                        f"max_events={max_events} exceeded at t={self._now}"
                    )
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def step(self) -> bool:
        while self._heap:
            time, _seq, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = time
            hook = self._profile_hook
            if hook is None:
                args = event.args
                if args:
                    event.callback(*args)
                else:
                    event.callback()
            else:
                hook(event)
            self._events_processed += 1
            return True
        return False

    def stop(self) -> None:
        self._stop_requested = True

    def peek(self) -> float:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else math.inf


def _sim_error(msg: str):
    from repro.sim.engine import SimulationError

    return SimulationError(msg)


# ----------------------------------------------------------------------
# Context manager: build Networks on the frozen engine
# ----------------------------------------------------------------------
@contextmanager
def reference_engine() -> Iterator[None]:
    """Every ``Network`` built inside runs on :class:`ReferenceSimulator`.

    Swaps the ``Simulator`` symbol :class:`repro.topology.Network` calls
    in ``__init__``; existing networks keep their engine.
    """
    import repro.topology as topology

    saved = topology.Simulator
    topology.Simulator = ReferenceSimulator  # type: ignore[assignment,misc]
    try:
        yield
    finally:
        topology.Simulator = saved  # type: ignore[misc]
