"""Sweep runner: determinism across worker counts, failure reporting."""

from __future__ import annotations

import os

import pytest

from repro.sweep import (
    build_grid,
    deterministic_view,
    run_sweep,
    smoke_grid,
    task_seed,
)


def _small_grid():
    # One task per scenario family, seconds-scale: enough to exercise
    # every adapter without making the suite slow.
    return smoke_grid()


def test_worker_count_is_invisible_in_results() -> None:
    """1 worker vs 4 workers over the same grid → identical reports
    (modulo timing), even on a box with fewer than 4 cores."""
    solo = run_sweep(_small_grid(), workers=1)
    quad = run_sweep(_small_grid(), workers=4)
    assert solo["ok"] == len(_small_grid())
    assert deterministic_view(solo) == deterministic_view(quad)


def test_task_seeds_are_grid_derived() -> None:
    """Seeds are a pure function of the task name — no process salt."""
    assert task_seed("e2/mpls-diffserv/r0") == task_seed("e2/mpls-diffserv/r0")
    assert task_seed("e2/mpls-diffserv/r0") != task_seed("e2/mpls-diffserv/r1")
    a = build_grid("e2", reps=2)
    b = build_grid("e2", reps=2)
    assert a == b
    assert len({t["seed"] for t in a}) == len(a)  # all distinct here


def test_grid_shapes() -> None:
    e1 = build_grid("e1", reps=1, sites=(10, 20))
    assert len(e1) == 4  # 2 kinds × 2 site counts
    e5 = build_grid("e5", reps=2)
    assert len(e5) == 8  # 4 stages × 2 reps
    both = build_grid("all", reps=1, sites=(10,))
    assert [t["index"] for t in both] == list(range(len(both)))


def test_failures_are_reported_not_raised() -> None:
    tasks = _small_grid()[:1]
    tasks.append({
        "index": 1, "name": "broken/task", "scenario": "no-such-scenario",
        "params": {}, "seed": 1,
    })
    report = run_sweep(tasks, workers=2)
    assert report["ok"] == 1
    assert len(report["failed"]) == 1
    assert report["failed"][0]["name"] == "broken/task"
    assert "no-such-scenario" in report["failed"][0]["error"]
    # The healthy task's rows still made it into the merge.
    assert report["rows"]


def test_telemetry_manifests_are_merged() -> None:
    tasks = [t for t in _small_grid() if t["scenario"] == "e2"]
    report = run_sweep(tasks, workers=1, telemetry=True)
    assert report["ok"] == len(tasks)
    assert len(report["manifests"]) >= len(tasks)
    m = report["manifests"][0]
    assert m["config"]["task"] == tasks[0]["name"]
    assert m["sim"]["events_processed"] > 0


@pytest.mark.skipif(os.name != "posix", reason="fork start method")
def test_multiprocess_rows_match_inline_rows() -> None:
    """The mp path must not perturb seeding: row-for-row equality."""
    grid = build_grid("e5", reps=1, measure_s=0.5)
    solo = run_sweep(grid, workers=1)
    multi = run_sweep(grid, workers=3)
    assert solo["rows"] == multi["rows"]
    assert not solo["failed"] and not multi["failed"]


@pytest.mark.skipif(os.name != "posix", reason="fork start method")
def test_spill_files_are_written_and_kept(tmp_path) -> None:
    """An explicit --spill-dir keeps one JSONL file per worker, one line
    per task, and the merged report equals the inline run exactly."""
    import json

    tasks = _small_grid()
    solo = run_sweep(tasks, workers=1)
    spilled = run_sweep(tasks, workers=2, spill_dir=str(tmp_path))
    assert deterministic_view(solo) == deterministic_view(spilled)
    files = sorted(tmp_path.glob("worker-*.jsonl"))
    assert files  # the pool actually spilled
    lines = [
        json.loads(line)
        for f in files
        for line in f.read_text().splitlines()
    ]
    assert sorted(r["index"] for r in lines) == [t["index"] for t in tasks]
    assert all(r["ok"] for r in lines)


def test_warm_start_rows_byte_identical_inline() -> None:
    """Warm start restores the same restore code on the 1-worker inline
    path as in pool workers; rows must equal the cold sweep exactly."""
    import json

    tasks = _small_grid()
    cold = run_sweep(tasks, workers=1)
    warm = run_sweep(tasks, workers=1, warm_start=True)
    assert warm["ok"] == len(tasks)
    assert json.dumps(deterministic_view(cold), sort_keys=True) == \
        json.dumps(deterministic_view(warm), sort_keys=True)
    # Every supported task really took the restore path, and the parent
    # reports what it snapshotted.
    assert all(t["warm"] for t in warm["timing"]["per_task"])
    info = warm["timing"]["warm_start"]
    assert info["bases"] and info["bytes"] > 0


@pytest.mark.skipif(os.name != "posix", reason="fork start method")
def test_warm_start_rows_byte_identical_across_workers() -> None:
    """Cold vs warm at 4 workers, and warm 1-worker vs warm 4-worker —
    all the same deterministic view (the acceptance-criteria invariant)."""
    import json

    tasks = _small_grid()
    view = lambda r: json.dumps(deterministic_view(r), sort_keys=True)  # noqa: E731
    cold = run_sweep(tasks, workers=4)
    warm4 = run_sweep(tasks, workers=4, warm_start=True)
    warm1 = run_sweep(tasks, workers=1, warm_start=True)
    assert view(cold) == view(warm4) == view(warm1)
    assert not warm4["failed"]


def test_warm_start_base_keys() -> None:
    """Base keys capture exactly what a task's build does not vary with."""
    from repro.sweep.runner import base_key

    e1, e2, e5, _, e15 = _small_grid()
    assert base_key(e1) == "e1/mpls/10"
    assert base_key(e2) == "e2/mpls-diffserv"
    assert base_key(e5) == "e5/full"
    # Churn mutates its base, so e15 gets its own snapshot-restore key —
    # never e1's shared live-tier base.
    assert base_key(e15) == "e15/10"
    assert base_key({"scenario": "nope", "params": {}}) is None


def test_warm_start_missing_base_falls_back_cold() -> None:
    """A task whose base was never prepared runs the cold build path
    under warm-start rather than failing; ``warm`` says which happened."""
    from repro.sweep.runner import _BASES, _run_task

    task = dict(_small_grid()[1], warm_start=True)  # e2, no base prepared
    _BASES.clear()
    res = _run_task(task)
    assert res["ok"]
    assert res["warm"] is False
    assert res["rows"]


def test_merge_synthesizes_failure_for_missing_and_torn_results(tmp_path) -> None:
    """A worker that dies mid-spill costs its task, not the sweep: a
    truncated (no-newline) line and an absent line both come back as
    synthesized failure rows at their task index."""
    import json

    from repro.sweep.runner import _merge_spills

    tasks = [
        {"index": 0, "name": "grid/ok", "scenario": "e2", "params": {}, "seed": 1},
        {"index": 1, "name": "grid/torn", "scenario": "e2", "params": {}, "seed": 2},
        {"index": 2, "name": "grid/lost", "scenario": "e2", "params": {}, "seed": 3},
    ]
    good = {
        "index": 0, "name": "grid/ok", "ok": True, "rows": [{"x": 1}],
        "timing": {}, "wall_s": 0.1, "manifests": [], "pid": 123,
    }
    torn = json.dumps({"index": 1, "name": "grid/torn", "ok": True})[:-7]
    (tmp_path / "worker-1.jsonl").write_text(json.dumps(good) + "\n" + torn)
    results = _merge_spills(str(tmp_path), tasks)
    assert [r["index"] for r in results] == [0, 1, 2]
    assert results[0]["ok"] and results[0]["rows"] == [{"x": 1}]
    for res, name in ((results[1], "grid/torn"), (results[2], "grid/lost")):
        assert not res["ok"]
        assert name in res["error"]
        assert "crashed" in res["error"]
        assert res["rows"] == [] and res["manifests"] == []
