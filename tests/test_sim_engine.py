"""Unit tests for the discrete-event kernel."""

import math

import pytest

from repro.sim.engine import SimulationError, Simulator, Timer


class TestScheduling:
    def test_initial_clock(self):
        assert Simulator().now == 0.0
        assert Simulator(start_time=5.0).now == 5.0

    def test_runs_single_event_at_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.5]
        assert sim.now == 1.5

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in "abcdef":
            sim.schedule(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == list("abcdef")

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_non_finite_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(math.inf, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(math.nan, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule_at(0.5, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_schedule_at_rejects_nan_inf_and_past(self):
        sim = Simulator(start_time=1.0)
        fired = []
        for bad in (math.nan, math.inf, -math.inf, 0.5):
            with pytest.raises(SimulationError):
                sim.schedule_at(bad, lambda: fired.append("bad"))
        assert sim.pending == 0
        sim.schedule_at(1.0, lambda: fired.append("now"))  # the boundary is legal
        assert sim.run() == 1.0 and fired == ["now"]

    def test_schedule_at_carries_positional_args(self):
        sim = Simulator()
        got = []
        sim.schedule_at(2.0, lambda a, b: got.append((sim.now, a, b)), "x", 7)
        sim.run()
        assert got == [(2.0, "x", 7)]

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []
        def chain(n):
            fired.append(n)
            if n < 5:
                sim.schedule_call(1.0, chain, n + 1)
        sim.schedule_call(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sim.now == 5.0

    def test_call_soon_runs_after_pending_same_time(self):
        sim = Simulator()
        order = []
        sim.schedule(0.0, lambda: order.append("first"))
        sim.call_soon(lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, lambda: fired.append(1))
        ev.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert ev.cancelled

    def test_cancelled_not_counted_processed(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 1


class TestRunControl:
    def test_run_until_stops_clock_at_until(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(1))
        sim.run(until=5.0)
        assert fired == [1]

    def test_run_resumes_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(1))
        sim.run(until=5.0)
        sim.run()
        assert fired == [1]
        assert sim.now == 10.0

    def test_max_events_guard(self):
        sim = Simulator()
        def forever():
            sim.schedule(0.0, forever)
        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    def test_stop_halts_loop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop())[0])
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        def reenter():
            sim.run()
        sim.schedule(0.0, reenter)
        with pytest.raises(SimulationError, match="re-entrant"):
            sim.run()


class TestTimer:
    def test_timer_fires(self):
        sim = Simulator()
        fired = []
        t = Timer(sim, lambda: fired.append(sim.now))
        t.start(2.0)
        sim.run()
        assert fired == [2.0]

    def test_restart_supersedes(self):
        sim = Simulator()
        fired = []
        t = Timer(sim, lambda: fired.append(sim.now))
        t.start(2.0)
        t.start(5.0)
        sim.run()
        assert fired == [5.0]

    def test_cancel_prevents_fire(self):
        sim = Simulator()
        fired = []
        t = Timer(sim, lambda: fired.append(1))
        t.start(1.0)
        t.cancel()
        sim.run()
        assert fired == []

    def test_armed_property(self):
        sim = Simulator()
        t = Timer(sim, lambda: None)
        assert not t.armed
        t.start(1.0)
        assert t.armed
        sim.run()
        assert not t.armed
