"""Discrete-event simulation kernel.

The kernel is a time-bucketed event scheduler: a priority heap of the
*distinct* pending timestamps, and a FIFO bucket of events per timestamp.
A bucket is stored *inline* — the dict value is the :class:`Event` itself
while a timestamp holds exactly one event (the overwhelmingly common case
on forwarding workloads, where every hop lands on its own float), and is
promoted to a ``deque`` only when a same-time sibling arrives.  Two
events at the same timestamp always fire in the order they were
scheduled — same contract as the classic ``(time, seq, Event)`` heap
this replaced (frozen in ``tests/reference/sim.py``, held to it by
``tests/test_engine_parity.py``) — but same-time siblings now cost O(1)
to add and pop instead of a log-n heap rebalance each, and the heap
itself compares bare floats rather than 3-tuples.  Determinism matters
because every experiment in the reproduction must be exactly re-runnable
from a seed (see DESIGN.md §4).

Cancellation is lazy (tombstones): ``Event.cancel`` flips a flag and the
kernel skips the corpse when it surfaces.  Unlike the pre-PR engine the
tombstones are *accounted* — ``pending`` excludes them — and when dead
events outnumber live ones the buckets are compacted in place, so
cancel-heavy workloads (shaper retries, restartable protocol timers) can
no longer grow the heap without bound.

Burst extraction (the data plane's vector fast path): when a batch
target is installed (:meth:`Simulator.set_batch_target`), the run loop
recognises *consecutive* events in one timestamp bucket that are bound-
method calls of the registered function on the same receiver — in
practice ``Node.receive`` arrivals delivered by links — and hands their
argument tuples to the batch dispatcher as one vector instead of firing
them one by one.  Only an unbroken run from the bucket head is fused
(an interposed foreign event ends the burst), so the fused call is
observationally identical to firing the events in FIFO order; the saving
is one run-loop iteration and one callback frame per burst instead of
per packet.  Without a batch target (the default) the probe costs a
single attribute load on multi-event buckets and nothing at all on the
dominant singleton case.

The kernel is deliberately single-threaded and allocation-light: the hot
loop is one bucket pop + one callback invocation, with every loop-
invariant attribute hoisted into a local.  Profiling (per the
hpc-parallel guides) showed callback dispatch dominating; fancier
process abstractions (generators, greenlets) were measurably slower and
are not used.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from types import MethodType
from typing import Any, Callable

__all__ = ["Event", "Periodic", "Simulator", "SimulationError", "Timer"]

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Compaction trigger: at least this many tombstones *and* tombstones
#: outnumbering live events (see ``Simulator._note_cancel``).
_COMPACT_MIN_DEAD = 64


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling in the past, running twice...)."""


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulation time (seconds) at which the callback fires.
    callback:
        Callable invoked when the event fires.  Zero-argument callables
        scheduled through :meth:`Simulator.schedule` have empty ``args``; callables
        scheduled through :meth:`Simulator.schedule_call` or
        :meth:`Simulator.schedule_at` carry their positional arguments
        here instead of in a closure, which keeps
        the per-hop hot path allocation-free.
    args:
        Positional arguments applied to ``callback`` at fire time.
    cancelled:
        Cancellation flag; cancelled events stay in their bucket but are
        skipped when popped (lazy deletion — O(1) cancel).  The owning
        simulator counts them so ``pending`` stays truthful and bucket
        compaction can reclaim them (see module docstring).
    """

    __slots__ = ("time", "callback", "args", "cancelled", "_sim")

    def __init__(
        self, time: float, callback: Callable[..., None], args: tuple = ()
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        # Owning simulator while the event sits in a bucket; cleared when
        # it fires, is skipped, or is compacted away, so a late cancel()
        # on an already-fired event cannot skew the tombstone accounting.
        self._sim: "Simulator | None" = None

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} {getattr(self.callback, '__qualname__', self.callback)!r}{flag}>"


# The scheduling fast paths build Events with ``__new__`` + direct slot
# stores: at one Event per packet-hop the ``__init__`` call frame alone is
# a measurable slice of the run loop.
_EV_NEW = Event.__new__


class Simulator:
    """Single-threaded deterministic event scheduler.

    Parameters
    ----------
    start_time:
        Initial clock value, defaults to ``0.0`` seconds.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.5]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        # ``now`` is a plain attribute, not a property: the clock is read
        # on every packet hop (queues, meters, traces) and the descriptor
        # overhead was measurable.  Treat it as read-only outside the
        # kernel.
        self.now = float(start_time)
        # Distinct pending timestamps (a float min-heap) ...
        self._times: list[float] = []
        # ... and the FIFO bucket at each of them: a bare Event while the
        # timestamp holds one event, a deque once it holds several.
        # Invariant: ``t`` is in ``_times`` exactly once iff
        # ``_buckets[t]`` exists and is non-empty (modulo tombstones
        # awaiting compaction).
        self._buckets: dict[float, "Event | deque[Event]"] = {}
        self._size = 0   # events currently in buckets, tombstones included
        self._dead = 0   # tombstones currently in buckets
        self._running = False
        self._events_processed = 0
        self._stop_requested = False
        # Observability hook: when set, each fired event is routed through
        # ``_profile_hook(event)`` instead of ``event.callback()``.  The
        # ``None`` check is the entire disabled-mode cost (one load + jump),
        # mirroring the TraceBus no-subscriber fast path.
        self._profile_hook: Callable[[Event], None] | None = None
        self._id_counters: dict[str, int] = {}
        # Vector fast path: when ``_batch_func`` is a plain function, the
        # run loop fuses consecutive same-bucket events whose callback is
        # a bound method of that function on one receiver, and calls
        # ``_batch_dispatch(receiver, [args, ...])`` instead.  Installed
        # by repro.net.node.install_vector_dispatch; None = scalar.
        self._batch_func: Callable[..., None] | None = None
        self._batch_dispatch: Callable[[Any, list], None] | None = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (skipped cancellations excluded)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of *live* events still scheduled.

        Cancelled-but-uncollected tombstones are excluded — this is the
        number of callbacks that will still fire, which is what capacity
        dashboards and the leak regression tests actually want.
        """
        return self._size - self._dead

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, whose :meth:`Event.cancel` method may be
        used to revoke it.  ``delay`` must be non-negative and finite.
        """
        if not 0.0 <= delay < math.inf:  # also rejects NaN
            if delay < 0:
                raise SimulationError(f"cannot schedule in the past (delay={delay})")
            raise SimulationError(f"delay must be finite, got {delay}")
        # Inlined _push (see there for the annotated version) — this is the
        # second per-packet scheduling entry point next to schedule_at.
        time = self.now + delay
        event = _EV_NEW(Event)
        event.time = time
        event.callback = callback
        event.args = ()
        event.cancelled = False
        event._sim = self
        buckets = self._buckets
        prev = buckets.setdefault(time, event)
        if prev is event:
            _heappush(self._times, time)
        elif type(prev) is deque:
            prev.append(event)
        else:
            buckets[time] = deque((prev, event))
        self._size += 1
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``.

        The interface driver's entry point: a packet's far-end arrival is
        scheduled at ``(now + tx_time) + delay_s``, a sum the relative
        :meth:`schedule_call` cannot reproduce bit for bit.  ``time`` must
        lie in ``[now, inf)``.
        """
        if not self.now <= time < math.inf:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at t={time} (now={self.now})"
            )
        # Inlined _push: one arrival per packet-hop plus a drain per
        # backlogged hop come through here, and the call frame shows.
        event = _EV_NEW(Event)
        event.time = time
        event.callback = callback
        event.args = args
        event.cancelled = False
        event._sim = self
        buckets = self._buckets
        prev = buckets.setdefault(time, event)
        if prev is event:
            _heappush(self._times, time)
        elif type(prev) is deque:
            prev.append(event)
        else:
            buckets[time] = deque((prev, event))
        self._size += 1
        return event

    def schedule_call(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` without allocating a closure.

        The way to schedule a call with arguments: they ride on the
        :class:`Event` itself, so modeled processing cost and
        ``Link.carry`` create no closure objects, and the kernel profiler
        attributes these events to ``callback`` directly.
        """
        if not 0.0 <= delay < math.inf:
            if delay < 0:
                raise SimulationError(f"cannot schedule in the past (delay={delay})")
            raise SimulationError(f"delay must be finite, got {delay}")
        return self._push(self.now + delay, callback, args)

    def call_soon(self, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at the current time, after pending same-time events.

        The zero-delay fast lane: no delay validation, no clock
        arithmetic — the event is appended straight onto the bucket for
        ``now`` (O(1) when that bucket already exists, which it does
        whenever ``call_soon`` runs from inside a callback).
        """
        return self._push(self.now, callback, ())

    def _push(self, time: float, callback: Callable[..., None], args: tuple) -> Event:
        event = _EV_NEW(Event)
        event.time = time
        event.callback = callback
        event.args = args
        event.cancelled = False
        event._sim = self
        buckets = self._buckets
        # setdefault keeps the common case — a timestamp nobody else uses —
        # at a single hash lookup: the new event goes in inline, and only a
        # collision (``prev`` is an earlier occupant) pays more.
        prev = buckets.setdefault(time, event)
        if prev is event:
            _heappush(self._times, time)
        elif type(prev) is deque:
            prev.append(event)
        else:
            # Second event at this timestamp: promote the inline Event to
            # a FIFO deque.
            buckets[time] = deque((prev, event))
        self._size += 1
        return event

    def next_id(self, namespace: str) -> int:
        """Monotonically increasing id scoped to this simulator.

        Used for deterministic auto-generated names (probe flows, ...):
        unlike a module/class-level counter, the sequence restarts at 1 for
        every fresh :class:`Simulator`, so two runs of the same scenario
        produce identical names.
        """
        nxt = self._id_counters.get(namespace, 0) + 1
        self._id_counters[namespace] = nxt
        return nxt

    # ------------------------------------------------------------------
    # Tombstone accounting
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` while the event sits in a bucket."""
        self._dead += 1
        if self._dead >= _COMPACT_MIN_DEAD and self._dead * 2 >= self._size:
            self._compact()

    def _compact(self) -> None:
        """Drop tombstones from every bucket, in place.

        Preserves FIFO order within each bucket and rebuilds the time
        heap in place, so a ``run()`` loop holding local references to
        the heap/bucket containers stays correct even when a callback's
        cancel triggers compaction mid-run.
        """
        buckets = self._buckets
        emptied: list[float] = []
        size = 0
        for t, bucket in buckets.items():
            if type(bucket) is not deque:
                if bucket.cancelled:
                    bucket._sim = None
                    emptied.append(t)
                else:
                    size += 1
                continue
            live = [ev for ev in bucket if not ev.cancelled]
            if len(live) != len(bucket):
                for ev in bucket:
                    if ev.cancelled:
                        ev._sim = None
                bucket.clear()
                bucket.extend(live)
            if bucket:
                size += len(bucket)
            else:
                emptied.append(t)
        for t in emptied:
            del buckets[t]
        times = self._times
        times[:] = buckets.keys()
        heapq.heapify(times)
        self._size = size
        self._dead = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time.  Events scheduled at
            exactly ``until`` still fire; the clock is left at ``until`` if
            it is reached, else at the last event time.
        max_events:
            Safety valve — abort with :class:`SimulationError` after this
            many callbacks (catches accidental infinite event chains).

        Returns the final clock value.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stop_requested = False
        budget = math.inf if max_events is None else max_events
        # Loop-invariant lookups hoisted out of the hot loop.  The heap
        # and bucket *containers* are stable (compaction mutates them in
        # place); the profile hook is re-read per event because a
        # callback may attach/detach a profiler mid-run.
        times = self._times
        buckets = self._buckets
        heappop = _heappop
        limit = math.inf if until is None else until
        # The processed counter is kept in a local and written back in the
        # finally block: one less attribute round-trip per event.  Code
        # running *inside* a callback sees the count as of run() entry.
        processed = self._events_processed
        try:
            while times and not self._stop_requested:
                t = times[0]
                if t > limit:
                    break
                # The bucket is removed optimistically (one hash op covers
                # both the lookup and the delete): for the dominant inline-
                # singleton case the timestamp is retired *before* the
                # callback runs, so an event the callback schedules at
                # exactly this time re-creates the bucket (and fires
                # next), and a compaction inside the callback sees a
                # consistent heap/bucket pair.  A deque with remaining
                # siblings is put back.
                bucket = buckets.pop(t)
                if type(bucket) is deque:
                    event = bucket.popleft()
                    bfunc = self._batch_func
                    if (
                        bfunc is not None
                        and bucket
                        and not event.cancelled
                        and self._profile_hook is None
                    ):
                        cb = event.callback
                        if type(cb) is MethodType and cb.__func__ is bfunc:
                            # Burst extraction (module docstring): fuse the
                            # unbroken run of arrivals at one receiver from
                            # the bucket head.  Tombstones inside the run
                            # are consumed — they would be skipped anyway —
                            # but the first live foreign event ends it.
                            owner = cb.__self__
                            batch = [event.args]
                            while bucket:
                                nxt = bucket[0]
                                if nxt.cancelled:
                                    bucket.popleft()
                                    nxt._sim = None
                                    self._size -= 1
                                    self._dead -= 1
                                    continue
                                ncb = nxt.callback
                                if (
                                    type(ncb) is MethodType
                                    and ncb.__func__ is bfunc
                                    and ncb.__self__ is owner
                                ):
                                    bucket.popleft()
                                    nxt._sim = None
                                    self._size -= 1
                                    batch.append(nxt.args)
                                    continue
                                break
                            if bucket:
                                buckets[t] = bucket
                            else:
                                heappop(times)
                            self._size -= 1
                            event._sim = None
                            self.now = t
                            if len(batch) > 1:
                                self._batch_dispatch(owner, batch)
                            else:
                                args = event.args
                                if args:
                                    event.callback(*args)
                                else:
                                    event.callback()
                            processed += len(batch)
                            budget -= len(batch)
                            if budget < 0:
                                raise SimulationError(
                                    f"max_events={max_events} exceeded at t={self.now}"
                                )
                            continue
                    if bucket:
                        buckets[t] = bucket
                    else:
                        heappop(times)
                else:
                    event = bucket
                    heappop(times)
                self._size -= 1
                event._sim = None
                if event.cancelled:
                    self._dead -= 1
                    continue
                self.now = t
                hook = self._profile_hook
                if hook is None:
                    args = event.args
                    if args:
                        event.callback(*args)
                    else:
                        event.callback()
                else:
                    hook(event)
                processed += 1
                budget -= 1
                if budget < 0:
                    raise SimulationError(
                        f"max_events={max_events} exceeded at t={self.now}"
                    )
        finally:
            self._events_processed = processed
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def stop(self) -> None:
        """Request the running :meth:`run` loop to stop after the current event."""
        self._stop_requested = True

    def set_batch_target(
        self,
        func: Callable[..., None] | None,
        dispatch: Callable[[Any, list], None] | None = None,
    ) -> None:
        """Install (or clear, with ``None``) the burst-extraction target.

        ``func`` is a plain function — in practice ``Node.receive`` — and
        ``dispatch(receiver, [args, ...])`` is invoked in its place when
        the run loop finds consecutive same-bucket events that are bound
        methods of ``func``: one call per unbroken run, argument tuples in
        FIFO order.  ``dispatch`` must be observationally equivalent to
        ``for args in batch: func(receiver, *args)`` for traces to stay
        bit-identical to the scalar path (held to it by
        ``tests/test_dataplane_batch.py``).
        """
        if func is not None and dispatch is None:
            raise SimulationError("set_batch_target requires a dispatch function")
        self._batch_func = func
        self._batch_dispatch = dispatch if func is not None else None

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        first_delay: float | None = None,
    ) -> "Periodic":
        """Schedule ``callback()`` every ``interval`` seconds, starting
        ``first_delay`` (default: one interval) from now.

        Returns a :class:`Periodic` handle whose :meth:`Periodic.cancel`
        stops the recurrence.  This is the rate-change channel of the
        hybrid fluid/packet traffic plane: envelope epochs (fluid
        aggregate rate redraws, expansion-point reprogramming) ride the
        same event heap as per-packet events, so fluid and packet state
        stay causally ordered on one clock.  Each firing schedules the
        next from the *nominal* grid (``t0 + k*interval`` drift-free
        accumulation is not attempted — intervals are exact float sums,
        which is what the deterministic replay contract needs).
        """
        if not 0.0 < interval < math.inf:
            raise SimulationError(f"interval must be positive and finite, got {interval}")
        p = Periodic(self, interval, callback)
        p._event = self.schedule(
            interval if first_delay is None else first_delay, p._fire
        )
        return p

@dataclass
class Timer:
    """Restartable one-shot timer built on a :class:`Simulator`.

    Used by the control-plane protocols (LDP session keepalives, BGP MRAI,
    IKE retransmission) where the same timer is repeatedly re-armed.
    """

    sim: Simulator
    callback: Callable[[], None]
    _event: Event | None = field(default=None, repr=False)

    def start(self, delay: float) -> None:
        """(Re-)arm the timer to fire ``delay`` seconds from now."""
        self.cancel()
        self._event = self.sim.schedule(delay, self._fire)

    def cancel(self) -> None:
        """Disarm the timer if armed.  Idempotent."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def armed(self) -> bool:
        return self._event is not None and not self._event.cancelled

    def _fire(self) -> None:
        self._event = None
        self.callback()


class Periodic:
    """Recurring event produced by :meth:`Simulator.every`.

    Self-rearming: each firing runs the callback then schedules the next
    occurrence, so a cancel from *inside* the callback (or from anywhere
    else) stops the recurrence cleanly.  Cancellation is O(1) — the
    pending event is tombstoned like any other.
    """

    __slots__ = ("sim", "interval", "callback", "_event", "_stopped")

    def __init__(
        self, sim: Simulator, interval: float, callback: Callable[[], None]
    ) -> None:
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self._event: Event | None = None
        self._stopped = False

    def cancel(self) -> None:
        """Stop the recurrence.  Idempotent."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def active(self) -> bool:
        return not self._stopped

    def _fire(self) -> None:
        self._event = None
        self.callback()
        if not self._stopped:
            self._event = self.sim.schedule(self.interval, self._fire)
