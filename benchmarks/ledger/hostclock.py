"""Host seconds as an undisturbed host would have spent them.

The ledger is built and checked on a few vCPUs of a shared host whose
speed moves by a factor of up to two within milliseconds and drifts by
30-50 % over minutes (README, "Noise"): raw medians of 2 s repeats from
one tree spread by 15-30 % between runs, and the benchmark check refuses
a timing that cannot hold its own bound.  No statistic of whole repeats
is steadier, because in a busy minute not one stretch of even 10 ms runs
undisturbed - but stretches of well under a millisecond do, in every
second.

So while a timed section runs, a ``SIGALRM`` every ``INTERVAL_S`` of wall
clock runs a fixed probe (a few hundred dict/list/int bytecodes that
allocate nothing the collector tracks, about 21 us) and times it.  The
probe's own undisturbed time is known precisely - the low edge of
thousands of samples per process - so each sample says how fast the host
was just then, and a section's *quiet seconds* are its wall-clock
stretches between samples, each multiplied by floor / sample, the time of
the probes themselves taken out.  On an undisturbed host the factor is 1
and quiet seconds are wall seconds.  Raw wall seconds and the slowdown
stay in every result (``host.wall_raw_s``, ``host.slowdown``).

What this assumes: the simulator (a Python program like the probe) is
slowed by what slows the probe.  That holds to a few per cent, not
exactly - the README has the measurements per workload, and the case
where it holds least (a large heap on the host's busiest minutes, where
the workload loses 10-15 % more than the probe shows).
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter, process_time
from typing import Iterator

__all__ = ["HostClock", "Section", "INTERVAL_S"]

INTERVAL_S = 0.002
#: The probe's undisturbed time is this quantile of a process's samples
#: (the sixth smallest of a run's ~6000), not their minimum: a single
#: sample now and then runs faster than the host's steady best, and a
#: floor taken from it would move every number of that process by as much.
#: Measured over processes: 20.2-21.7 us, in quiet and in busy minutes.
FLOOR_QUANTILE = 0.001

_TABLE = {i: (i * 7 + 3) & 255 for i in range(256)}
_CELLS = [0] * 256
_STEPS = range(220)


def _probe() -> int:
    table, cells, x = _TABLE, _CELLS, 1
    for i in _STEPS:
        x = (x * 5 + table[x] + i) & 255
        cells[x] = x ^ cells[(x + 1) & 255]
    return x


class Section:
    """One timed stretch of the process: raw clocks and the probe samples
    taken inside it as (end of probe, probe seconds)."""

    __slots__ = ("t0", "t1", "cpu", "ticks")

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []
        self.cpu = process_time()
        self.t0 = self.t1 = perf_counter()

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


class HostClock:
    def __init__(self) -> None:
        self.sections: list[Section] = []
        self._open: Section | None = None
        self._armed = hasattr(signal, "setitimer")
        if self._armed:
            signal.signal(signal.SIGALRM, self._on_tick)

    def _on_tick(self, signum: int, frame: object) -> None:
        sec = self._open
        if sec is not None:
            t0 = perf_counter()
            _probe()
            t1 = perf_counter()
            sec.ticks.append((t1, t1 - t0))

    @contextmanager
    def section(self) -> Iterator[Section]:
        """Time the body; the timer is disarmed on every way out of it."""
        sec = self._open = Section()
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield sec
        finally:
            sec.t1 = perf_counter()
            sec.cpu = process_time() - sec.cpu
            if self._armed:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            self._open = None
            self.sections.append(sec)

    @property
    def samples(self) -> int:
        return sum(len(s.ticks) for s in self.sections)

    def floor(self) -> float | None:
        """The probe's undisturbed seconds in this process; ``None`` before
        the first sample (then quiet seconds are wall seconds)."""
        probes = sorted(k for s in self.sections for _, k in s.ticks)
        return probes[int(len(probes) * FLOOR_QUANTILE)] if probes else None

    def quiet(self, sec: Section) -> tuple[float, float, float]:
        """(quiet wall seconds, quiet CPU seconds, raw wall seconds without
        the probes) of a stopped section.  Each stretch ran at the speed the
        probe that ended it saw; the tail at the last speed seen."""
        floor = self.floor()
        quiet = net = probes = 0.0
        speed, prev = 1.0, sec.t0
        for t_end, k in sec.ticks:
            stretch = t_end - k - prev
            speed = min(floor / k, 1.0)
            quiet += stretch * speed
            net += stretch
            probes += k
            prev = t_end
        tail = sec.t1 - prev
        quiet += tail * speed
        net += tail
        cpu = max(sec.cpu - probes, 0.0)
        return quiet, (cpu * quiet / net if net else cpu), net
