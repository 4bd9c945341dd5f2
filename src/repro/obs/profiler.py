"""Sampling profiler for the discrete-event kernel.

The kernel's hot loop (``Simulator.run``) routes every fired event through
``sim._profile_hook`` when one is installed; this module is that hook.  It
answers the questions ROADMAP's scaling PRs keep asking: *which event kinds
dominate*, *how expensive is one callback*, *how deep does the heap get*,
and *how many events per wall-second does the kernel sustain*.

Costs are kept proportional to what is measured:

* per event — one dict probe (keyed by the callback's function, code
  object or type) and two counter bumps, in the hook's own frame;
* every ``sample_every``-th event — a ``perf_counter`` pair plus two
  histogram observations (callback wall time, heap depth).

With no profiler attached the kernel pays exactly one ``is None`` check
per event (see ``sim/engine.py``).

Kind resolution understands the kernel's callback shapes: a bound method
(``Node.receive``) is keyed by its ``__func__`` (a slot read; reading a
function's ``__code__`` is a descriptor call, 20-40 % of the hook's time
in a CPython 3.11 ``timeit`` of it), a plain function by its code object
(so the closures one ``def`` makes share a key), anything else (a callable
object, a ``functools.partial``, a builtin) by its type, so a callback
that cannot be hashed profiles like any other.  A key's kind name is
resolved once, on its first event.  A call scheduled with arguments
(``Simulator.schedule_call``) carries the real callback on the event, so
attribution lands on it without unwrapping anything.
"""

from __future__ import annotations

from time import perf_counter
from types import CodeType, FunctionType, MethodType
from typing import Any

from repro.obs.registry import DEFAULT_TIME_BUCKETS, Histogram
from repro.sim.engine import Event, Simulator

__all__ = ["KernelProfiler", "DEPTH_BUCKETS"]

#: Heap-depth histogram bounds (events pending), powers of two to 64k.
DEPTH_BUCKETS: tuple[float, ...] = tuple(float(2**i) for i in range(17))


class KernelProfiler:
    """Attachable event-loop profiler (see module docstring)."""

    def __init__(
        self,
        sim: Simulator,
        sample_every: int = 64,
        time_buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
        depth_buckets: tuple[float, ...] = DEPTH_BUCKETS,
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sim = sim
        self.sample_every = int(sample_every)
        self._time_buckets = time_buckets
        self._events = 0
        self._sampled = 0
        # kind -> [event_count, sampled_count, kind]
        self._counts: dict[str, list] = {}
        # method function, code object or type -> its kind's _counts cell
        # (shared by every key whose kind name is the same)
        self._cells: dict[Any, list] = {}
        self._times: dict[str, Histogram] = {}
        self._heap = Histogram(depth_buckets)
        self._wall_start: float | None = None
        self._wall_total = 0.0
        # Bind the hook once: attribute access on a method builds a fresh
        # bound-method object, so identity checks need a stable reference.
        self._hook = self._run_event

    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        return self.sim._profile_hook is self._hook

    def attach(self) -> "KernelProfiler":
        """Install this profiler as the kernel's event hook."""
        hook = self.sim._profile_hook
        if hook is not None and hook is not self._hook:
            raise RuntimeError("another profiler is already attached")
        self.sim._profile_hook = self._hook
        if self._wall_start is None:
            self._wall_start = perf_counter()
        return self

    def detach(self) -> None:
        """Remove the hook; counters and histograms are retained."""
        if self.sim._profile_hook is self._hook:
            self.sim._profile_hook = None
        if self._wall_start is not None:
            self._wall_total += perf_counter() - self._wall_start
            self._wall_start = None

    # ------------------------------------------------------------------
    def _run_event(self, event: Event) -> None:
        cb = event.callback
        cb_type = type(cb)
        if cb_type is MethodType:
            key = cb.__func__
        elif cb_type is FunctionType:
            key = cb.__code__
        else:
            key = cb_type
        try:
            counts = self._cells[key]
        except KeyError:
            counts = self._cell(key)
        counts[0] += 1
        self._events += 1
        if self._events % self.sample_every:
            cb(*event.args)
            return
        t0 = perf_counter()
        cb(*event.args)
        dt = perf_counter() - t0
        counts[1] += 1
        self._sampled += 1
        kind = counts[2]
        hist = self._times.get(kind)
        if hist is None:
            hist = self._times[kind] = Histogram(self._time_buckets)
        hist.observe(dt)
        self._heap.observe(float(self.sim.pending))

    def _cell(self, key: Any) -> list:
        """First event of ``key`` (a method's function, a code object or a
        type): resolve its kind name — the code's qualified name, else the
        key's own — and file the key under that kind's counters."""
        code = key if isinstance(key, CodeType) else getattr(key, "__code__", None)
        kind = code.co_qualname if code is not None else key.__qualname__
        counts = self._counts.get(kind)
        if counts is None:
            counts = self._counts[kind] = [0, 0, kind]
        self._cells[key] = counts
        return counts

    # ------------------------------------------------------------------
    def wall_seconds(self) -> float:
        total = self._wall_total
        if self._wall_start is not None:
            total += perf_counter() - self._wall_start
        return total

    def snapshot(self) -> dict[str, Any]:
        """Profile summary, sorted by estimated total callback time.

        ``est_total_s`` extrapolates each kind's sampled wall time by the
        sampling factor; kinds never sampled report 0 there but still show
        their dispatch counts.
        """
        wall = self.wall_seconds()
        kinds = []
        for kind, (events, sampled, _kind) in self._counts.items():
            hist = self._times.get(kind)
            wall_sampled = hist.sum if hist is not None else 0.0
            kinds.append(
                {
                    "kind": kind,
                    "events": events,
                    "sampled": sampled,
                    "sampled_wall_s": wall_sampled,
                    "est_total_s": wall_sampled * self.sample_every,
                    "mean_s": (wall_sampled / sampled) if sampled else None,
                    "p95_s": hist.percentile(95) if hist is not None else None,
                }
            )
        kinds.sort(key=lambda k: (-k["est_total_s"], -k["events"], k["kind"]))
        return {
            "events": self._events,
            "sampled": self._sampled,
            "sample_every": self.sample_every,
            "wall_s": wall,
            "events_per_sec": (self._events / wall) if wall > 0 else None,
            "heap_depth": self._heap.snapshot(),
            "kinds": kinds,
        }
