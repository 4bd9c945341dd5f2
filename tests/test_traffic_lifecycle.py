"""TrafficSource lifecycle edges: stop_at boundaries, burst trains,
offered-rate consistency.

These pin the exact emission-window semantics the fluid plane's
PacketExpander mirrors (``tests/test_hybrid_parity.py`` depends on the
two agreeing): a wake-up landing exactly on ``stop_at`` emits nothing,
bursts are all-or-nothing per wake-up, and every source class's
``offered_rate_bps`` matches what it actually puts on the wire.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.generators import (
    CbrSource,
    OnOffSource,
    ParetoOnOffSource,
    PoissonSource,
)


class Collector:
    def __init__(self) -> None:
        self.packets = []

    def __call__(self, pkt) -> None:
        self.packets.append(pkt)


def make_cbr(sim, out, payload=980, rate=1e6, **kw):
    # wire = 1000 B -> gap exactly 8 ms at 1 Mb/s: easy boundary math.
    return CbrSource(
        sim, out, "f", "10.0.0.1", "10.0.0.2",
        payload_bytes=payload, rate_bps=rate, **kw,
    )


class TestStopAtBoundary:
    def test_wakeup_exactly_on_stop_at_emits_nothing(self):
        """Emissions at t = start + k·gap; stop_at on the grid excludes
        that instant (the check is ``now >= stop_at``)."""
        sim = Simulator()
        out = Collector()
        src = make_cbr(sim, out)  # gap = 8 ms
        src.start(0.0, stop_at=0.024)  # grid: 0, 8, 16, *24* ms
        sim.run(until=1.0)
        assert src.sent == 3
        assert [p.created for p in out.packets] == [0.0, 0.008, 0.016]
        assert not src._running

    def test_stop_at_just_past_grid_point_includes_it(self):
        sim = Simulator()
        out = Collector()
        src = make_cbr(sim, out)
        src.start(0.0, stop_at=0.024 + 1e-9)
        sim.run(until=1.0)
        assert src.sent == 4

    def test_start_at_equal_to_stop_at_emits_nothing(self):
        sim = Simulator()
        out = Collector()
        src = make_cbr(sim, out)
        src.start(0.5, stop_at=0.5)
        sim.run(until=1.0)
        assert src.sent == 0
        assert not src._running

    def test_explicit_stop_halts_next_wakeup(self):
        sim = Simulator()
        out = Collector()
        src = make_cbr(sim, out)
        src.start(0.0)  # no stop_at: would run forever
        sim.schedule_at(0.020, src.stop)  # between the 16 ms and 24 ms grid
        sim.run(until=1.0)
        assert src.sent == 3
        assert sim.pending == 0  # heap fully drained


class TestBurstTrains:
    def test_burst_shares_one_timestamp_and_sums_gaps(self):
        sim = Simulator()
        out = Collector()
        src = make_cbr(sim, out, burst=4)  # per-packet gap 8 ms
        src.start(0.0, stop_at=1.0)
        sim.run(until=0.001)  # just the first wake-up
        assert src.sent == 4
        assert {p.created for p in out.packets} == {0.0}
        assert [p.seq for p in out.packets] == [0, 1, 2, 3]
        # Next train fires after the summed gaps, not after one.
        sim.run(until=0.033)
        assert src.sent == 8
        assert out.packets[4].created == pytest.approx(0.032)

    def test_burst_crossing_stop_at_is_all_or_nothing(self):
        """A train straddling stop_at either fires whole (wake-up before
        the boundary) or not at all — no partial trains."""
        sim = Simulator()
        out = Collector()
        src = make_cbr(sim, out, burst=4)  # trains at 0, 32, 64 ms
        src.start(0.0, stop_at=0.040)  # 32 ms wake-up < stop_at < 64 ms
        sim.run(until=1.0)
        assert src.sent == 8  # both trains complete, none truncated
        sent_at = sorted({p.created for p in out.packets})
        assert sent_at == [0.0, pytest.approx(0.032)]

    def test_burst_wakeup_on_stop_at_suppresses_whole_train(self):
        sim = Simulator()
        out = Collector()
        src = make_cbr(sim, out, burst=4)
        src.start(0.0, stop_at=0.032)  # second train lands exactly on it
        sim.run(until=1.0)
        assert src.sent == 4

    def test_burst_must_be_positive(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            make_cbr(sim, Collector(), burst=0)


class TestOfferedRateConsistency:
    """offered_rate_bps must predict measured wire bits/s for every class."""

    HORIZON_S = 30.0

    def _measured_bps(self, src) -> float:
        src.start(0.0, stop_at=self.HORIZON_S)
        src.sim.run(until=self.HORIZON_S + 1.0)
        return src.bytes_sent * 8.0 / self.HORIZON_S

    def test_cbr(self):
        sim = Simulator()
        src = make_cbr(sim, Collector(), rate=1e6)
        assert src.offered_rate_bps == 1e6
        assert self._measured_bps(src) == pytest.approx(1e6, rel=0.01)

    def test_poisson(self):
        sim = Simulator()
        streams = RandomStreams(7)
        src = PoissonSource(
            sim, Collector(), "f", "10.0.0.1", "10.0.0.2",
            payload_bytes=980, rate_bps=1e6, rng=streams.stream("t.poisson"),
        )
        assert src.offered_rate_bps == 1e6
        assert self._measured_bps(src) == pytest.approx(1e6, rel=0.05)

    def test_onoff(self):
        sim = Simulator()
        streams = RandomStreams(7)
        src = OnOffSource(
            sim, Collector(), "f", "10.0.0.1", "10.0.0.2",
            payload_bytes=980, peak_bps=2e6, mean_on_s=0.1, mean_off_s=0.4,
            rng=streams.stream("t.onoff"),
        )
        assert src.offered_rate_bps == pytest.approx(2e6 * 0.2)
        assert self._measured_bps(src) == pytest.approx(
            src.offered_rate_bps, rel=0.15
        )

    def test_pareto_onoff(self):
        sim = Simulator()
        streams = RandomStreams(11)
        src = ParetoOnOffSource(
            sim, Collector(), "f", "10.0.0.1", "10.0.0.2",
            payload_bytes=980, peak_bps=2e6, mean_on_s=0.1, mean_off_s=0.4,
            shape=2.5, rng=streams.stream("t.pareto"),
        )
        assert src.offered_rate_bps == pytest.approx(2e6 * 0.2)
        # Heavy-tailed sojourns converge slowly; the mean is still the
        # mean, just noisier over a finite horizon.
        assert self._measured_bps(src) == pytest.approx(
            src.offered_rate_bps, rel=0.35
        )

    def test_fluid_aggregate_matches_source_contract(self):
        """FluidAggregate.offered_rate_bps == n × the per-source value."""
        from repro.traffic.fluid import FluidAggregate

        sim = Simulator()
        streams = RandomStreams(7)
        cbr = FluidAggregate(
            sim, "f", "10.0.0.1", "10.0.0.2",
            n_flows=50, payload_bytes=980, kind="cbr", rate_bps=1e6,
        )
        assert cbr.offered_rate_bps == 50e6
        onoff = FluidAggregate(
            sim, "g", "10.0.0.1", "10.0.0.2",
            n_flows=50, payload_bytes=980, kind="onoff", peak_bps=2e6,
            mean_on_s=0.1, mean_off_s=0.4, rng=streams.stream("t.fluid"),
        )
        assert onoff.offered_rate_bps == pytest.approx(50 * 2e6 * 0.2)
