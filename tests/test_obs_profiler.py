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

    def test_simulator_next_id_namespaced(self):
        sim = Simulator()
        assert sim.next_id("probe") == 1
        assert sim.next_id("probe") == 2
        assert sim.next_id("other") == 1
        assert Simulator().next_id("probe") == 1  # fresh sim, fresh ids
