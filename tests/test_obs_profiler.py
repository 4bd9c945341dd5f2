"""Tests for the kernel profiler and the engine's profile hook."""

import pytest

from repro.obs.profiler import KernelProfiler
from repro.sim.engine import Simulator


class TestHook:
    def test_disabled_by_default(self):
        sim = Simulator()
        assert sim._profile_hook is None

    def test_attach_detach(self):
        sim = Simulator()
        prof = KernelProfiler(sim)
        assert not prof.attached
        prof.attach()
        assert prof.attached
        prof.detach()
        assert not prof.attached
        assert sim._profile_hook is None

    def test_double_attach_same_profiler_ok(self):
        sim = Simulator()
        prof = KernelProfiler(sim).attach()
        prof.attach()  # idempotent
        assert prof.attached

    def test_second_profiler_rejected(self):
        sim = Simulator()
        KernelProfiler(sim).attach()
        with pytest.raises(RuntimeError):
            KernelProfiler(sim).attach()

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelProfiler(Simulator(), sample_every=0)


class TestCounting:
    def test_every_event_counted(self):
        sim = Simulator()
        prof = KernelProfiler(sim, sample_every=4).attach()
        hits = []
        def tick():
            hits.append(sim.now)
        for i in range(10):
            sim.schedule(i * 0.1, tick)
        sim.run()
        assert len(hits) == 10
        snap = prof.snapshot()
        assert snap["events"] == 10
        # Every sample_every-th event is timed.
        assert snap["sampled"] == 10 // 4

    def test_kind_resolution_bound_method(self):
        class Thing:
            def go(self):
                pass
        sim = Simulator()
        prof = KernelProfiler(sim, sample_every=1).attach()
        sim.schedule(0.0, Thing().go)
        sim.run()
        kinds = [k["kind"] for k in prof.snapshot()["kinds"]]
        assert len(kinds) == 1 and kinds[0].endswith("Thing.go")

    def test_results_ranked_and_estimated(self):
        sim = Simulator()
        prof = KernelProfiler(sim, sample_every=1).attach()
        def busy():
            sum(range(2000))
        def idle():
            pass
        for i in range(5):
            sim.schedule(i * 0.1, busy)
            sim.schedule(i * 0.1 + 0.05, idle)
        sim.run()
        snap = prof.snapshot()
        assert snap["events"] == 10 and snap["sampled"] == 10
        assert snap["events_per_sec"] > 0
        top = snap["kinds"][0]
        assert "busy" in top["kind"]
        assert top["est_total_s"] >= top["sampled_wall_s"] > 0
        assert snap["heap_depth"]["count"] == 10

    def test_detach_preserves_data_and_stops_collection(self):
        sim = Simulator()
        prof = KernelProfiler(sim, sample_every=1).attach()
        sim.schedule(0.0, lambda: None)
        sim.run()
        prof.detach()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert prof.snapshot()["events"] == 1

    def test_unhashable_callback_profiles(self):
        """A callable object that cannot be hashed is keyed by its type."""
        class Tick:
            __hash__ = None  # unhashable, as a class defining __eq__ is

            def __init__(self):
                self.calls = 0

            def __call__(self):
                self.calls += 1

        sim = Simulator()
        prof = KernelProfiler(sim, sample_every=2).attach()
        ticks = [Tick(), Tick()]
        for i, tick in enumerate(ticks * 2):
            sim.schedule(i * 0.1, tick)
        sim.run()
        assert [t.calls for t in ticks] == [2, 2]
        (kind,) = prof.snapshot()["kinds"]
        assert kind["kind"].endswith("Tick") and kind["events"] == 4
        assert kind["sampled"] == 2

    def test_closures_of_one_definition_share_a_kind(self):
        """Function objects built from one ``def`` are one kind (the key is
        the code object), so a closure per event adds no entry."""
        sim = Simulator()
        prof = KernelProfiler(sim, sample_every=1).attach()

        def make(i):
            def fire():
                return i
            return fire

        for i in range(5):
            sim.schedule(i * 0.1, make(i))
        sim.run()
        (kind,) = prof.snapshot()["kinds"]
        assert kind["kind"].endswith("make.<locals>.fire")
        assert kind["events"] == 5
        assert len(prof._cells) == 1

    def test_simulator_next_id_namespaced(self):
        sim = Simulator()
        assert sim.next_id("probe") == 1
        assert sim.next_id("probe") == 2
        assert sim.next_id("other") == 1
        assert Simulator().next_id("probe") == 1  # fresh sim, fresh ids


def _parent_kind(cb) -> str:
    """The kind rule the profiler has always published: a bound method's or
    a function's code ``co_qualname``, else the callable's type name."""
    func = getattr(cb, "__func__", None)
    code = func.__code__ if func is not None else getattr(cb, "__code__", None)
    return code.co_qualname if code is not None else type(cb).__qualname__


def test_e5_kinds_and_counts_match_the_published_rule():
    """On a whole E5 run the snapshot's kinds and per-kind event / sample
    counts are what resolving every event by that rule gives: one dict
    probe per event changes the price of attribution, not its result."""
    from repro.experiments.e5_sla import _build, run_stage

    ctx = _build("full", 1)
    sim = ctx["net"].sim
    prof = KernelProfiler(sim, sample_every=8).attach()
    hook = sim._profile_hook
    events: dict[str, int] = {}
    sampled: dict[str, int] = {}
    seen = [0]

    def counting(event):
        kind = _parent_kind(event.callback)
        events[kind] = events.get(kind, 0) + 1
        seen[0] += 1
        if seen[0] % 8 == 0:
            sampled[kind] = sampled.get(kind, 0) + 1
        hook(event)

    sim._profile_hook = counting
    run_stage("full", seed=1, measure_s=0.3, prebuilt=ctx)
    snap = prof.snapshot()
    assert snap["events"] == seen[0] > 1000
    got = {k["kind"]: (k["events"], k["sampled"]) for k in snap["kinds"]}
    assert got == {k: (n, sampled.get(k, 0)) for k, n in events.items()}
    assert "Node.receive" in got
