"""Event-engine benchmarks that are ratios of the current code to itself.

What a whole scenario costs in absolute units, and the engine's share of
it, is the performance ledger's job (``benchmarks/ledger``: E12a is its
``elastic_aqm`` row, the VPN chain its ``vpn_sla`` row).  Event-ordering
parity with the frozen reference engine is held by
``tests/test_engine_parity.py``.  What stays here is one comparison no
absolute row expresses: sweep scaling, the same grid at 1 vs 4 workers.
The ≥3× scaling floor only *can* hold with ≥4 usable cores, so it is
enforced core-aware: on smaller boxes the measured factor is still
recorded but a miss downgrades to xfail (``require_floor``, conftest).

Headline numbers land in ``benchmarks/out/engine.json``.
"""

import os
from time import perf_counter

from repro.sweep import run_sweep, smoke_grid
from repro.sweep.grids import e1_grid

# ISSUE 4 acceptance: ≥3× sweep scaling at 4 workers.
MIN_SWEEP_SCALING = 3.0
SWEEP_WORKERS = 4


def test_sweep_scaling_four_workers(record, require_floor):
    """Sweep throughput at 4 workers vs 1 over the E1 grid.

    The ≥3× floor needs ≥4 usable cores; with fewer, parallel workers
    time-slice one CPU and no scheduler can deliver 3×.  The factor is
    measured and recorded regardless, but the floor is enforced
    core-aware (soft on small boxes)."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    # The paper's §2.1 scaling grid: overlay vs MPLS provisioning at
    # four site counts — 8 independent, seconds-scale tasks.
    grid = e1_grid(sites=(10, 50, 100, 200), reps=1)

    t0 = perf_counter()
    solo = run_sweep(grid, workers=1)
    t_solo = perf_counter() - t0
    t0 = perf_counter()
    multi = run_sweep(grid, workers=SWEEP_WORKERS)
    t_multi = perf_counter() - t0

    assert solo["rows"] == multi["rows"]  # scaling must not cost determinism
    scaling = t_solo / t_multi
    record("sweep_scaling", {
        "tasks": len(grid),
        "workers": SWEEP_WORKERS,
        "cores_available": cores,
        "one_worker_s": t_solo,
        "four_worker_s": t_multi,
        "scaling": scaling,
        "min_required": MIN_SWEEP_SCALING,
        "floor_enforced": cores >= SWEEP_WORKERS,
    })
    require_floor(scaling, MIN_SWEEP_SCALING, (
        f"sweep scaling {scaling:.2f}x < {MIN_SWEEP_SCALING}x at "
        f"{SWEEP_WORKERS} workers ({cores} core(s) available)"
    ), soft=cores < SWEEP_WORKERS)


def test_smoke_grid_stays_fast(record):
    """The CI smoke sweep must stay seconds-scale."""
    t0 = perf_counter()
    report = run_sweep(smoke_grid(), workers=2)
    wall = perf_counter() - t0
    assert not report["failed"]
    record("smoke_grid", {"tasks": report["tasks"], "wall_s": wall})
    assert wall < 60.0
