"""Warm-start sweep benchmarks: converged-base reuse vs cold rebuilds.

The warm-start contract (``repro sweep --warm-start``) is that a grid
whose tasks share converged bases stops paying the build+converge cost
per task: the parent builds each distinct base once and tasks reuse it
through the copy-on-write tiers in :mod:`repro.sweep.runner` — the live
object graph for read-only scenarios, a snapshot blob restored per task
for mutating ones.

Headline numbers land in ``benchmarks/out/sweep.json``:

* the E1-scale acceptance case — the paper's §2.1 provisioning grid
  (overlay + MPLS at 200 sites, 8 seeds each) swept cold vs warm at 4
  workers, asserting a ≥3× wall-clock speedup *and* row-for-row report
  equality.  The win comes from eliminating 15 of 16 base builds, not
  from extra parallelism, so the floor holds at any core count; it is
  only softened on shared runners (``require_floor``, conftest).
* snapshot serialize/restore latency + image size per mutable base
  (e2/e5) — recorded, no floor: these bound the per-task overhead the
  blob tier pays for isolation.

Whole sweeps, one measured pass: a 16-task grid is its own averaging.
"""

import os
from time import perf_counter

from repro.sweep import run_sweep
from repro.sweep.grids import e1_grid

MIN_WARM_SPEEDUP = 3.0
SWEEP_WORKERS = 4
E1_SITES = 200
E1_REPS = 8


def test_warm_start_speedup_e1_grid(record, require_floor):
    """Acceptance: warm-start ≥3× faster than cold on the E1-scale grid
    at 4 workers, with byte-identical deterministic rows."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    grid = e1_grid(sites=(E1_SITES,), reps=E1_REPS)

    t0 = perf_counter()
    cold = run_sweep(grid, workers=SWEEP_WORKERS)
    t_cold = perf_counter() - t0
    t0 = perf_counter()
    warm = run_sweep(grid, workers=SWEEP_WORKERS, warm_start=True)
    t_warm = perf_counter() - t0

    # Warm start must never cost correctness: same rows, nothing failed.
    assert cold["rows"] == warm["rows"]
    assert not cold["failed"] and not warm["failed"]
    assert all(t["warm"] for t in warm["timing"]["per_task"])

    speedup = t_cold / t_warm
    warm_info = warm["timing"]["warm_start"]
    record("warm_start_e1", {
        "tasks": len(grid),
        "sites": E1_SITES,
        "workers": SWEEP_WORKERS,
        "cores_available": cores,
        "cold_s": t_cold,
        "warm_s": t_warm,
        "base_build_s": warm_info["build_s"],
        "bases": len(warm_info["bases"]),
        "speedup": speedup,
        "min_required": MIN_WARM_SPEEDUP,
        "floor_enforced": True,
    })
    require_floor(speedup, MIN_WARM_SPEEDUP, (
        f"warm-start sweep speedup {speedup:.2f}x < {MIN_WARM_SPEEDUP}x "
        f"(cold {t_cold:.2f} s vs warm {t_warm:.2f} s, "
        f"{len(grid)} tasks, {cores} core(s))"
    ))


def test_snapshot_latency_and_size_recorded(record):
    """Blob-tier cost model: how many bytes a converged e2/e5 base
    serializes to, and what one save/restore round-trip costs — the
    per-task isolation overhead of warm start."""
    from repro.experiments.e2_qos import _build as e2_build
    from repro.experiments.e5_sla import _build as e5_build
    from repro.sim.snapshot import restore_network, snapshot_network

    payload = {}
    cases = {
        "e2_mpls_diffserv": lambda: e2_build("mpls-diffserv", seed=0)[0],
        "e5_full": lambda: e5_build("full", seed=0).pop("net"),
    }
    for name, build in cases.items():
        net = build()
        t0 = perf_counter()
        blob = snapshot_network(net)
        t_save = perf_counter() - t0
        t0 = perf_counter()
        net2, _ = restore_network(blob)
        t_restore = perf_counter() - t0
        assert sorted(net2.nodes) == sorted(net.nodes)
        payload[name] = {
            "bytes": len(blob),
            "save_s": t_save,
            "restore_s": t_restore,
        }
    record("snapshot_roundtrip", payload)
