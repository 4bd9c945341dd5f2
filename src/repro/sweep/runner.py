"""Parallel experiment sweep runner.

A *sweep* is a grid of independent experiment runs — scenario × parameter
× seed — fanned out across worker processes and merged into one report.
The single-process experiment harnesses (``repro.experiments.*``) stay
untouched; each sweep task calls one of their seeded entry points with an
explicit seed, so a task's result depends only on its task description,
never on which worker ran it or in what order.

Design rules that make the merged report reproducible:

* **Seeds are derived, not drawn.**  Each task's seed is
  ``crc32(task name)`` — a pure function of the grid, identical in every
  process.  Python's ``hash()`` is salted per process and must never be
  used for this.
* **Results are merged by task index**, so the report is byte-identical
  whether it was produced by 1 worker or 8.
* **Timing is quarantined.**  Wall-clock numbers (including the
  ``wall_s`` fields inside the E1 census dicts) live under ``timing`` /
  per-task ``wall_s``; the ``rows`` section holds only deterministic
  values and is what the determinism test compares.
* **Failures are data.**  A task that raises is reported (name, index,
  traceback) without sinking the sweep; the report's ``failed`` list and
  a non-zero CLI exit code carry the news.
* **Rows never transit the parent heap.**  Multi-worker sweeps spill each
  task's result as one JSON line to a per-worker file; ``pool.map`` moves
  only task indices, and the parent merges the spill files by index after
  the pool drains — a multi-million-row grid costs the parent one result
  at a time, not the whole pickled grid at once.  The inline (1-worker)
  path round-trips results through JSON too, so reports stay
  byte-identical at any worker count.  A missing or truncated spill line
  (a worker crashed mid-write) is synthesized into a failure row rather
  than sinking the merge.

**Warm start** (``warm_start=True`` / ``repro sweep --warm-start``): the
parent builds and converges each *distinct base* in the grid exactly once
— base = everything a task's result does not vary with: topology, VRF
provisioning, LDP/BGP convergence — then hands it to tasks through one of
two copy-on-write tiers, both inherited by forked workers through COW
memory so an 8-worker sweep pays for each base once, not 8×:

* **Live tier** (read-only scenarios, e.g. the e1 state census): the
  built object graph itself is shared; every task borrows it at zero
  per-task cost.  Correct exactly because the scenario never mutates its
  ``prebuilt`` — the cold-vs-warm equality tests enforce that contract.
* **Blob tier** (scenarios that run traffic and therefore mutate queues,
  counters, and RNG streams — e2/e5): the base is snapshotted via
  :mod:`repro.sim.snapshot` and each task deserializes a private fresh
  graph (one ``pickle.loads``), then applies its per-task deltas — RNG
  streams are reseeded to the task seed *before the first draw*, which
  makes warm rows byte-identical to cold rows.

``deterministic_view`` equality between a cold and a warm sweep is a
tested invariant, and the inline 1-worker path restores through exactly
the same code as the pool workers.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import tempfile
import time
import traceback
import zlib
from typing import Any, Callable, Sequence

__all__ = ["Task", "task_seed", "base_key", "run_sweep", "SCHEMA_ID"]

SCHEMA_ID = "repro.sweep/1"

# A task is a plain picklable dict:
#   {"index": int, "name": str, "scenario": str, "params": {...}, "seed": int}
Task = dict


def task_seed(name: str) -> int:
    """Deterministic per-task seed: a pure function of the task name.

    ``zlib.crc32`` rather than ``hash()`` — the latter is salted per
    process, which would give every worker a different grid.
    """
    return zlib.crc32(name.encode("utf-8")) & 0x7FFFFFFF


# ----------------------------------------------------------------------
# Scenario adapters: map a task's params onto one seeded experiment entry
# point and flatten the result into JSON-able rows.  Each returns
# ``(rows, timing)`` — deterministic vs wall-clock — and must stay a
# module-level function so tasks pickle across process boundaries.


def _scenario_e1(params: dict, seed: int, prebuilt: Any = None) -> tuple[list[dict], dict]:
    from repro.experiments.e1_scalability import mpls_census, overlay_census

    fn = overlay_census if params["kind"] == "overlay" else mpls_census
    census = dict(fn(params["sites"], seed=seed, prebuilt=prebuilt))
    # The census times its own provisioning; that is measurement, not
    # result — keep it out of the deterministic rows.
    timing = {"wall_s": census.pop("wall_s", None)}
    return [{"kind": params["kind"], "seed": seed, **census}], timing


def _scenario_e2(params: dict, seed: int, prebuilt: Any = None) -> tuple[list[dict], dict]:
    from repro.experiments.e2_qos import run_config

    result = run_config(
        params["config"], seed=seed, measure_s=params.get("measure_s", 2.0),
        prebuilt=prebuilt,
    )
    rows = [
        {"config": params["config"], "seed": seed, **result[flow].row()}
        for flow in ("voice", "data", "bulk")
    ]
    return rows, {}


def _scenario_e5(params: dict, seed: int, prebuilt: Any = None) -> tuple[list[dict], dict]:
    from repro.experiments.e5_sla import run_stage

    slo = bool(params.get("slo", False))
    result = run_stage(
        params["stage"], seed=seed, measure_s=params.get("measure_s", 2.0),
        streaming=slo, prebuilt=prebuilt,
    )
    rows = []
    for flow, sla in (("voice", "voice_sla"), ("data", "data_sla"), ("bulk", None)):
        row = {"stage": params["stage"], "seed": seed, **result[flow].row()}
        row["sla"] = (
            "n/a" if sla is None
            else ("PASS" if result[sla].conformant else "FAIL")
        )
        if slo:
            # Streaming SLO columns next to the batch-oracle ones: the
            # live verdict must agree with "sla" on every bound flow.
            if flow in ("voice", "data"):
                verdict = result["slo"][flow]
                stream = result["slo"]["engine"].flows[flow]
                row["slo"] = "PASS" if verdict.conformant else "FAIL"
                row["slo_p99_ms"] = round(1e3 * stream.quantile(99), 3)
                row["slo_viol_s"] = round(stream.violation_seconds, 3)
            else:
                row["slo"] = "n/a"
        rows.append(row)
    if slo:
        # One per-task summary row: live-engine conformance totals.
        engine = result["slo"]["engine"]
        summary = engine.summary()
        rows.append(
            {
                "stage": params["stage"],
                "seed": seed,
                "flow": "(slo-summary)",
                "delivered": summary["delivered"],
                "streams": summary["flows"] + summary["class_streams"],
                "windows_closed": sum(
                    s["windows_closed"] for s in summary["streams"].values()
                ),
                "windows_violated": sum(
                    s["windows_violated"] for s in summary["streams"].values()
                ),
                "sla": "n/a",
            }
        )
    return rows, {}


def _scenario_e15(params: dict, seed: int, prebuilt: Any = None) -> tuple[list[dict], dict]:
    from repro.experiments.e1_scalability import mpls_base
    from repro.experiments.e15_churn import churn_storms

    ctx = prebuilt if prebuilt is not None else mpls_base(params["sites"], seed=seed)
    storm_rows = churn_storms(
        ctx,
        site_flaps=params.get("site_flaps", 4),
        wave_sites=params.get("wave_sites", 4),
        link_flaps=params.get("link_flaps", 1),
    )
    # Wall clock is measurement, not result: keep the deterministic
    # message/state columns in the rows (cold == warm must hold
    # byte-identically) and move the latencies to the timing side.
    timing = {
        "storm_wall_ms": {r["storm"]: r.pop("wall_ms") for r in storm_rows}
    }
    rows = [
        {"sites": params["sites"], "seed": seed, **r} for r in storm_rows
    ]
    return rows, timing


SCENARIOS: dict[str, Callable[..., tuple[list[dict], dict]]] = {
    "e1": _scenario_e1,
    "e2": _scenario_e2,
    "e5": _scenario_e5,
    "e15": _scenario_e15,
}


# ----------------------------------------------------------------------
# Warm-start bases: one converged snapshot per distinct (scenario, build
# params) in the grid, built in the parent, restored per task.


def base_key(task: Task) -> str | None:
    """Name of the converged base ``task`` can warm-start from.

    Two tasks share a base exactly when their results are built on the
    same topology + provisioning + convergence; only *run-time* deltas
    (seed, measure window, slo flag) may differ.  ``None`` means the
    scenario has no warm-start support and the task runs cold.
    """
    params = task["params"]
    scenario = task["scenario"]
    if scenario == "e1":
        return f"e1/{params['kind']}/{params['sites']}"
    if scenario == "e2":
        return f"e2/{params['config']}"
    if scenario == "e5":
        return f"e5/{params['stage']}"
    if scenario == "e15":
        # Churn tasks *mutate* their base, so they get the snapshot-restore
        # tier (a fresh graph per task), never the shared live tier — the
        # key is distinct from e1's on purpose.
        return f"e15/{params['sites']}"
    return None


def _build_base_ctx(key: str) -> tuple[Any, dict]:
    """Build + converge the named base; returns ``(net, extras)`` live."""
    scenario, rest = key.split("/", 1)
    if scenario == "e1":
        from repro.experiments.e1_scalability import mpls_base, overlay_base

        kind, sites = rest.split("/")
        ctx = (overlay_base if kind == "overlay" else mpls_base)(int(sites))
        return ctx.pop("net"), ctx
    if scenario == "e2":
        from repro.experiments.e2_qos import _build

        net, src_host, dst_host = _build(rest, seed=0)
        return net, {"src": src_host.name, "dst": dst_host.name}
    if scenario == "e5":
        from repro.experiments.e5_sla import _build

        ctx = _build(rest, seed=0)
        return ctx.pop("net"), ctx
    if scenario == "e15":
        from repro.experiments.e1_scalability import mpls_base

        ctx = mpls_base(int(rest))
        return ctx.pop("net"), ctx
    raise ValueError(f"no base builder for {key!r}")


def _build_base(key: str) -> bytes:
    """Build + converge + snapshot the named base (parent process only)."""
    from repro.sim.snapshot import snapshot_network

    net, extras = _build_base_ctx(key)
    return snapshot_network(net, extras)


# Scenarios whose task body never mutates its ``prebuilt`` (the e1 census
# only *counts* state): every task can share one live base object graph,
# inherited by forked workers through copy-on-write pages at zero
# per-task cost.  Scenarios that run traffic (e2/e5) mutate queues,
# counters, and RNG streams, so each of their tasks deserializes a fresh
# graph from the snapshot blob instead.  The cold-vs-warm report-equality
# tests hold this read-only contract honest at every worker count.
_READONLY_SCENARIOS = frozenset({"e1"})

# key -> snapshot blob (mutable-base tier).  Filled by _prepare_bases in
# the parent before the pool forks; children inherit it through
# copy-on-write memory, so each base is serialized once per sweep, not
# once per worker or per task.
_BASES: dict[str, bytes] = {}

# key -> prebuilt-shaped live ctx (read-only tier, same fork inheritance).
_LIVE: dict[str, Any] = {}


def _prepare_bases(tasks: Sequence[Task]) -> dict:
    """Build every distinct base the grid needs; returns timing/size info.

    Bases are built with telemetry detached (snapshots exclude sessions —
    see :mod:`repro.sim.snapshot`); if the process-wide telemetry switch
    is on it is suspended for the builds and re-armed after, and each
    task's restore re-attaches per current switch state, exactly like a
    cold build would.
    """
    from repro.obs import runtime

    keys: list[str] = []
    for task in tasks:
        key = base_key(task)
        if key is not None and key not in keys:
            keys.append(key)
    was_enabled = runtime.is_enabled()
    if was_enabled:
        saved_options = dict(runtime._options)
        runtime.disable()
    # Manifest sweeps want a telemetry session attached per task; only a
    # blob restore re-attaches one, so the live tier stands down then.
    collect_telemetry = any(t.get("telemetry") for t in tasks)
    info: dict[str, Any] = {"bases": {}, "live": [], "build_s": 0.0, "bytes": 0}
    t0 = time.perf_counter()
    try:
        for key in keys:
            if (key.split("/", 1)[0] in _READONLY_SCENARIOS
                    and not collect_telemetry):
                # Read-only tier: keep the built graph itself; no
                # serialization round-trip, tasks borrow it as-is.
                net, extras = _build_base_ctx(key)
                _LIVE[key] = {"net": net, **extras}
                info["bases"][key] = 0
                info["live"].append(key)
            else:
                blob = _build_base(key)
                _BASES[key] = blob
                info["bases"][key] = len(blob)
                info["bytes"] += len(blob)
    finally:
        if was_enabled:
            runtime.enable(**saved_options)
    info["build_s"] = time.perf_counter() - t0
    return info


def _restore_base(task: Task) -> Any:
    """Restore the task's base into the scenario's ``prebuilt`` shape.

    Returns ``None`` when no base exists (scenario unsupported, or
    warm-start off) — the task then runs the cold build path.  Each call
    deserializes a fresh object graph, so tasks never share mutable state
    even on the inline path.
    """
    key = base_key(task)
    if key is None:
        return None
    live = _LIVE.get(key)
    if live is not None:
        # Read-only tier: every task (inline or forked) borrows the same
        # graph — the scenario promises not to mutate it.
        return live
    blob = _BASES.get(key)
    if blob is None:
        return None
    from repro.sim.snapshot import restore_network

    net, extras = restore_network(blob)
    scenario = task["scenario"]
    if scenario == "e2":
        return net, net.nodes[extras["src"]], net.nodes[extras["dst"]]
    # e1/e5 take the ctx-dict shape their base builders produced.
    return {"net": net, **extras}


# ----------------------------------------------------------------------
# Worker side.


# Per-worker spill file (set by _worker_init in pool children, None in
# the parent/inline path): results are appended here as JSON lines and
# only the task index rides back through the pool.
_SPILL_PATH: str | None = None


def _worker_init(spill_dir: str) -> None:
    """Pool initializer: name this worker's spill file."""
    global _SPILL_PATH
    _SPILL_PATH = os.path.join(spill_dir, f"worker-{os.getpid()}.jsonl")


def _run_task(task: Task) -> dict:
    """Execute one task; never raises — failures come back as data."""
    t0 = time.perf_counter()
    out: dict[str, Any] = {
        "index": task["index"],
        "name": task["name"],
        "ok": True,
        "rows": [],
        "timing": {},
    }
    manifests: list[dict] = []
    telemetry = task.get("telemetry", False)
    if telemetry:
        from repro.obs import runtime

        runtime.reset()
        runtime.enable(profile=False)
    try:
        scenario = SCENARIOS[task["scenario"]]
        # Warm start: restore the converged base (one pickle.loads from
        # the COW-inherited blob table) instead of rebuilding.  Inline and
        # pool workers pass through this same line — the restore code is
        # exercised identically at any worker count.
        prebuilt = _restore_base(task) if task.get("warm_start") else None
        out["warm"] = prebuilt is not None
        rows, timing = scenario(task["params"], task["seed"], prebuilt)
        out["rows"] = rows
        out["timing"] = timing
        if telemetry:
            from repro.obs import runtime

            for session in runtime.sessions():
                manifests.append(session.manifest(config={"task": task["name"]}))
    except Exception:
        out["ok"] = False
        out["error"] = traceback.format_exc()
    finally:
        if telemetry:
            from repro.obs import runtime

            runtime.reset()
    out["wall_s"] = time.perf_counter() - t0
    out["manifests"] = manifests
    out["pid"] = os.getpid()
    if _SPILL_PATH is not None:
        # One line per task, written whole and flushed on close: a worker
        # dying mid-task loses at most its current (truncated) line, which
        # the merge synthesizes into a failure row.
        with open(_SPILL_PATH, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(out, separators=(",", ":")) + "\n")
        return {"index": out["index"]}
    return out


def _merge_spills(spill_dir: str, tasks: Sequence[Task]) -> list[dict]:
    """Merge per-worker JSONL spill files into index-keyed results.

    A task whose line is missing or truncated — the worker crashed before
    (or while) spilling — comes back as a synthesized failure result, so
    a dying worker costs its task, never the sweep.
    """
    by_index: dict[int, dict] = {}
    for entry in sorted(os.listdir(spill_dir)):
        if not entry.endswith(".jsonl"):
            continue
        with open(os.path.join(spill_dir, entry), encoding="utf-8") as fh:
            for line in fh:
                if not line.endswith("\n"):
                    continue  # torn final line: treat as missing
                try:
                    res = json.loads(line)
                except ValueError:
                    continue
                by_index[res["index"]] = res
    results: list[dict] = []
    for task in tasks:
        res = by_index.get(task["index"])
        if res is None:
            res = {
                "index": task["index"],
                "name": task["name"],
                "ok": False,
                "error": (
                    f"worker crashed before spilling a result for task "
                    f"{task['name']!r}"
                ),
                "rows": [],
                "timing": {},
                "wall_s": 0.0,
                "manifests": [],
                "pid": None,
            }
        results.append(res)
    return results


# ----------------------------------------------------------------------
# Driver side.


def run_sweep(
    tasks: Sequence[Task],
    workers: int = 1,
    telemetry: bool = False,
    spill_dir: str | None = None,
    warm_start: bool = False,
) -> dict:
    """Fan ``tasks`` across ``workers`` processes; merge one report.

    ``workers=1`` runs inline (no pool) — useful under coverage, in
    restricted environments, and as the determinism baseline the
    multi-worker path is tested against.  Multi-worker runs aggregate
    through per-worker spill files (module docstring); ``spill_dir``
    chooses where they live and keeps them after the merge — ``None``
    uses a temporary directory that is removed once merged.

    ``warm_start=True`` builds + converges each distinct base once in the
    parent and snapshots it; tasks restore from the copy-on-write image
    instead of re-provisioning (module docstring).  Rows are byte-
    identical either way; only ``timing`` changes.
    """
    tasks = [dict(t, telemetry=telemetry, warm_start=warm_start) for t in tasks]
    t0 = time.perf_counter()
    warm_info = _prepare_bases(tasks) if warm_start else None
    if workers <= 1 or len(tasks) <= 1:
        # The JSON round-trip pins the inline results to exactly the
        # types a spill-file merge produces (tuples become lists, ...),
        # keeping reports byte-identical at any worker count.
        results = [json.loads(json.dumps(_run_task(t))) for t in tasks]
    else:
        # fork keeps the already-imported package (no PYTHONPATH replay
        # in children) and is the default start method on Linux anyway.
        own_spill = spill_dir is None
        sdir = tempfile.mkdtemp(prefix="repro-sweep-") if own_spill else spill_dir
        os.makedirs(sdir, exist_ok=True)
        try:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(
                processes=workers,
                initializer=_worker_init,
                initargs=(sdir,),
            ) as pool:
                pool.map(_run_task, tasks, chunksize=1)
            results = _merge_spills(sdir, tasks)
        finally:
            if own_spill:
                shutil.rmtree(sdir, ignore_errors=True)
    if warm_start:
        # The base tables exist for this sweep only; forked workers took
        # their COW references with them, the parent drops its copy.
        _BASES.clear()
        _LIVE.clear()
    wall = time.perf_counter() - t0

    # pool.map preserves order, but the report's contract is "sorted by
    # task index", independent of how the work was scheduled.
    results.sort(key=lambda r: r["index"])

    rows: list[dict] = []
    failed: list[dict] = []
    manifests: list[dict] = []
    per_task_timing: list[dict] = []
    for res in results:
        if res["ok"]:
            rows.extend(res["rows"])
        else:
            failed.append(
                {"index": res["index"], "name": res["name"], "error": res["error"]}
            )
        manifests.extend(res["manifests"])
        per_task_timing.append(
            {
                "index": res["index"],
                "name": res["name"],
                "wall_s": res["wall_s"],
                "pid": res["pid"],
                "warm": res.get("warm", False),
                **{k: v for k, v in res["timing"].items() if v is not None},
            }
        )

    report: dict[str, Any] = {
        "schema": SCHEMA_ID,
        "workers": workers,
        "tasks": len(tasks),
        "ok": len(tasks) - len(failed),
        "failed": failed,
        "rows": rows,
        "timing": {"wall_s": wall, "per_task": per_task_timing},
    }
    if warm_info is not None:
        report["timing"]["warm_start"] = warm_info
    if telemetry:
        report["manifests"] = manifests
    return report


def deterministic_view(report: dict) -> dict:
    """The worker-count-invariant slice of a sweep report.

    Strips everything measured rather than computed (wall clocks, pids,
    worker count, telemetry manifests).  Two sweeps over the same grid —
    any number of workers — must agree on this view exactly.
    """
    return {
        "schema": report["schema"],
        "tasks": report["tasks"],
        "ok": report["ok"],
        "failed": [
            {"index": f["index"], "name": f["name"]} for f in report["failed"]
        ],
        "rows": report["rows"],
    }
