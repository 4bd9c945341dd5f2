"""Seeded-trace parity: the engine fast path must not reorder anything.

The event-ordering contract — time first, schedule order within a
timestamp — is what every seeded experiment depends on.  These tests run
whole experiments (e2 / e5 / e11) twice with the flight recorder
attached: once on the current time-bucketed engine, once on the frozen
pre-fast-path engine from ``tests.reference.sim``, and assert the
per-hop event sequences are **bit-identical**.

Packet ``uid`` values come from a process-global counter, so two runs of
the same experiment see different absolute uids with identical structure.
Records are therefore compared after first-appearance uid normalization
(uid → order of first appearance in the trace), which preserves every
packet identity relationship while erasing the global offset.

Also here: the tombstone-leak regression test for the lazy-deletion
scheduler.
"""

from __future__ import annotations

from typing import Callable

import pytest

from repro.obs import runtime
from repro.sim.engine import Simulator
from tests.reference.sim import reference_engine


def _trace(run_fn: Callable[[], object]) -> list[tuple]:
    """Run ``run_fn`` with a big flight recorder; return normalized hops."""
    runtime.reset()
    runtime.enable(flight_capacity=1 << 20, profile=False)
    try:
        run_fn()
        records = []
        for session in runtime.sessions():
            records.extend(session.flight.records())
    finally:
        runtime.reset()

    ids: dict[int, int] = {}
    out = []
    for r in records:
        u = ids.setdefault(r.uid, len(ids))
        out.append((
            r.time, r.node, r.event, u, r.flow, r.seq, r.ifname,
            r.labels, r.in_label, r.out_label, r.reason, r.backlog,
        ))
    return out


def _e2() -> None:
    from repro.experiments.e2_qos import run_config
    run_config("mpls-diffserv", measure_s=2.0)


def _e5() -> None:
    from repro.experiments.e5_sla import run_stage
    run_stage("full", measure_s=2.0)


def _e11() -> None:
    from repro.experiments.e11_resilience import run_e11
    run_e11(measure_s=3.0)


@pytest.mark.parametrize(
    "run_fn", [_e2, _e5, _e11], ids=["e2-mpls-diffserv", "e5-full", "e11"]
)
def test_engine_matches_reference_trace(run_fn) -> None:
    """Same experiment, both engines → identical hop-by-hop history."""
    fast = _trace(run_fn)
    with reference_engine():
        slow = _trace(run_fn)
    assert len(fast) > 1000  # the trace actually recorded a real run
    assert fast == slow


# ----------------------------------------------------------------------
# Tombstone accounting: cancelled events are lazy-deleted, so a workload
# that cancels heavily (coalesced shaper retries, rearmed timers) must
# not let the heap grow without bound.


def test_cancel_churn_does_not_leak() -> None:
    sim = Simulator()
    live: list = []

    def tick() -> None:
        # Re-arm a far-future timer every tick and cancel the previous
        # one — the access pattern of a shaper pushing its wake-up out.
        if live:
            live.pop().cancel()
        live.append(sim.schedule(100.0, lambda: None))

    for i in range(5000):
        sim.schedule(i * 1e-3, tick)
    sim.run(until=6.0)

    # 5000 cancels happened; compaction must have kept the store small.
    assert sim.pending == len(live) + 0  # only the surviving timer(s)
    assert sim._dead * 2 < max(sim._size, 128)
    assert sim._size < 200  # not 5000 tombstones


def test_pending_excludes_cancelled() -> None:
    sim = Simulator()
    events = [sim.schedule(1.0 + i, lambda: None) for i in range(10)]
    assert sim.pending == 10
    for ev in events[:4]:
        ev.cancel()
    assert sim.pending == 6
    events[0].cancel()  # idempotent
    assert sim.pending == 6
