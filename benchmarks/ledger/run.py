#!/usr/bin/env python3
"""One performance ledger: whole scenarios, absolute units, a per-layer split.

Two ways in, one measurement underneath.

*Ledger* (a person, CI)::

    python benchmarks/ledger/run.py [--seed N] [--workload W] [--repeats K]
        [--no-trace] [--smoke] [--out FILE] [--self-check]

runs the workloads one after another, each in its own fresh
single-threaded subprocess (never two at once: the box has two cores),
prints every metric by name with its unit and writes one JSON file.

*One workload* (the benchmark contract, and what the ledger spawns)::

    python benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

measures one workload in this process and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}`` with
the end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).

Inside a workload process: import + inputs from the seed + one untimed
warm-up repeat at a tenth of the size is ``setup_s`` (set up several
times, median reported); then repeats with tracing off until at least
``--seconds`` were measured and at least five repeats were made,
``gc.collect()`` before each and the collector left on during (users pay
it).  Hooks are installed only for the traced repeats that follow.

Host times of the untraced sections are *quiet seconds* (``hostclock.py``):
wall-clock with the slowdown a probe saw on the shared host taken out.
The raw seconds are kept beside them (``host.wall_raw_s``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
GOLDEN = HERE / "golden.json"
RUN_SECONDS = 10          # the same value as BENCHMARK.json's run_seconds
MIN_REPEATS = 5
SETUPS = 3                # set-ups per run; setup_s is their median
SMOKE_SCALE = 0.05        # --smoke: every workload at a twentieth of the size
MAX_MEASURED_S = 90.0     # never let one run approach the 180 s limit
# One interpreter thread, one hash seed: numpy must not fan out over the
# second core, and set/dict order of str keys must not vary between runs.
CHILD_ENV = {
    "PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _import_program() -> tuple[Any, Any, Any]:
    """Import the simulator from this checkout's ``src/`` (never an
    installed copy) and the ledger's own modules.  The caller times it:
    the import is the first part of ``setup_s``."""
    try:
        import workloads
        import metrics
        import tracer
    except ImportError as exc:
        sys.exit(f"ledger: cannot import the simulator from {REPO / 'src'}: {exc}")
    return workloads, metrics, tracer


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def _golden_digest(workload: str, seed: int, scale: float) -> str | None:
    if not GOLDEN.exists():
        return None
    doc = json.loads(GOLDEN.read_text())
    if doc.get("seed") != seed:
        return None
    return doc.get("scales", {}).get(repr(scale), {}).get(workload, {}).get("digest")


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def run_workload(args: argparse.Namespace) -> dict[str, Any]:
    sys.path[:0] = [str(REPO / "src"), str(HERE)]
    from hostclock import HostClock

    clock = HostClock()
    with clock.section() as imported:
        wl_mod, metrics, tracer_mod = _import_program()
    w = wl_mod.WORKLOADS[args.workload]
    scale, seed = args.scale, args.seed
    sizes = w.sizes(scale)
    checks = Checks()

    # --- set-up: inputs from the seed + a warm-up repeat, several times --
    setups = []
    inputs = None
    # (setup_s is not reported with --trace 1: one set-up is enough there.)
    for _ in range(args.setups if args.trace != "1" else 1):
        inputs = None
        gc.collect()
        with clock.section() as sec:
            inputs = w.prepare(seed, sizes)
            w.run(w.warm_inputs(seed, scale, inputs), wl_mod.no_phase)
        setups.append(sec)

    # --- timed repeats, tracing off ------------------------------------
    repeats = []
    works: list[int] = []
    extras: list[dict[str, Any]] = []
    first = None
    want_untraced = args.trace != "1"
    min_repeats = args.min_repeats if want_untraced else min(2, args.min_repeats)
    seconds = args.seconds if want_untraced else 0.0
    measured = 0.0
    while True:
        gc.collect()
        with clock.section() as sec:
            raw = w.run(inputs, wl_mod.no_phase)
        repeats.append(sec)
        out = w.inspect(inputs, raw)
        del raw
        works.append(out.work)
        extras.append(out.extras)
        dig = wl_mod.digest(out.semantic)
        if first is None:
            first = out
            first_digest = dig
            golden = _golden_digest(w.name, seed, scale)
            if golden is not None:
                checks.add("digest_equals_golden", dig == golden)
        else:
            checks.add("digest_equals_first_repeat", dig == first_digest)
        for name, ok in out.checks:
            checks.add(name, ok)
        checks.add("work_done", out.work > 0)
        measured += sec.wall
        if (len(repeats) >= min_repeats and measured >= seconds) or measured >= MAX_MEASURED_S:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # --trace both/1: the same scenario with telemetry off, for obs.overhead_ratio.
    floor_sec = floor_work = None
    floor = getattr(w, "obs_floor", None)
    if args.trace != "0" and floor is not None:
        gc.collect()
        with clock.section() as floor_sec:
            floor_raw = floor.run(inputs, wl_mod.no_phase)
        floor_work = floor.inspect(inputs, floor_raw).work
        del floor_raw

    # --- quiet seconds: every probe sample of the process is in by now ---
    quiet_import = clock.quiet(imported)[0]
    quiet_setups = [clock.quiet(sec)[0] for sec in setups]
    walls, cpus, slowdowns = [], [], []
    for sec, ex in zip(repeats, extras):
        wall, cpu, net = clock.quiet(sec)
        walls.append(wall)
        cpus.append(cpu)
        slowdowns.append(net / wall)
        # What a repeat times inside itself (flaps, ops, E1) is made quiet
        # by the repeat's own factor.
        wl_mod.scale_host_times(ex, wall / net)
    probe_floor = clock.floor()
    host = {
        "wall_raw_s": metrics.Sample([sec.wall for sec in repeats]).doc("s"),
        "setup_raw_s": metrics.Sample([imported.wall + sec.wall for sec in setups]).doc("s"),
        "slowdown": metrics.Sample(slowdowns).doc("ratio"),
        "probe_floor_us": None if probe_floor is None else probe_floor * 1e6,
        "probe_samples": clock.samples,
    }
    e2e = metrics.end_to_end_samples(quiet_setups, quiet_import, walls, cpus, works, peak_rss_mb)
    # The file names work_per_s's unit of work; the contract line cannot.
    units = {"work_per_s": f"{w.work_unit}/s"}

    doc: dict[str, Any] = {
        "workload": w.name, "seed": seed, "scale": scale, "sizes": sizes,
        "work_unit": w.work_unit, "repeats": len(repeats), "digest": first_digest,
        "semantic": first.semantic, "host": host,
        "end_to_end": {
            name: {**e2e[name].doc(units.get(name, unit)), "better": better, "bound": bound}
            for name, unit, better, bound in metrics.END_TO_END
        },
    }

    # --- traced repeats (raw host time: hooks and probe do not mix) -------
    if args.trace != "0":
        floor_us = None
        if floor_sec is not None:
            floor_us = clock.quiet(floor_sec)[0] / floor_work * 1e6
        host_row = {
            "wall_raw_s": host["wall_raw_s"]["value"], "slowdown": host["slowdown"]["value"],
            "probe_floor_us": host["probe_floor_us"], "wall_s": e2e["wall_s"].value,
        }
        tr = tracer_mod.Tracer().install()
        rows: list[dict[str, Any]] = []
        spans: list[dict[str, Any]] = []
        try:
            # --trace 1 measures for --seconds in all, untraced repeats included.
            budget = args.seconds - measured if args.trace == "1" else 0.0
            traced = 0.0
            while True:
                tr.reset()
                gc.collect()
                t0 = perf_counter()
                with tr.span("repeat"):
                    raw = w.run(inputs, tr.span)
                wall = perf_counter() - t0
                traced += wall
                out = w.inspect(inputs, raw)
                del raw
                checks.add("traced_digest_equals_untraced",
                           wl_mod.digest(out.semantic) == first_digest)
                rows.append(metrics.per_layer_values(tr, out, wall, host_row, extras, floor_us))
                if args.spans:
                    spans.extend(_span_docs(tr, w.name, len(rows)))
                if traced >= budget or traced >= MAX_MEASURED_S:
                    break
        finally:
            tr.uninstall()
        doc["traced_repeats"] = len(rows)
        doc["missing_hooks"] = tr.missing
        doc["per_layer"] = {}
        for name, unit, better, moves in metrics.PER_LAYER:
            vals = [r[name] for r in rows]
            value = None if any(v is None for v in vals) else statistics.median(vals)
            doc["per_layer"][name] = {"value": value, "unit": unit}
        if args.spans:
            with open(args.spans, "w") as fh:
                for rec in spans:
                    fh.write(json.dumps(rec) + "\n")

    doc["gated"] = metrics.gated_rows(w.name, checks.attempted, len(checks.failed), extras)
    doc.update(correct=not checks.failed, attempted=checks.attempted,
               failed=len(checks.failed), failed_checks=sorted(set(checks.failed)))
    return doc


def _span_docs(tr: Any, workload: str, repeat: int) -> list[dict[str, Any]]:
    base = {"workload": workload, "repeat": repeat}
    docs = [
        {**base, "id": sid, "parent": parent, "name": name, "start": t0, "end": t1}
        for sid, parent, name, t0, t1 in tr.spans
    ]
    docs += [
        {**base, "id": None, "parent": parent, "name": name, "start": t0, "end": t1,
         "sampled": True}
        for name, t0, t1, parent in tr.sampled
    ]
    return docs


def contract_line(doc: dict[str, Any], trace: str) -> str:
    """The last line of standard output the benchmark contract reads, with
    the units of ``BENCHMARK.json``.  A per-layer value whose hooks are
    gone reads 0 here (the contract wants a number) and null in the detail
    file; ``trace.missing_hooks`` flags it."""
    from metrics import END_TO_END

    if trace == "1":
        values = {
            k: {"value": 0 if v["value"] is None else v["value"], "unit": v["unit"]}
            for k, v in doc["per_layer"].items()
        }
    else:
        values = {
            name: {"value": doc["end_to_end"][name]["value"], "unit": unit}
            for name, unit, _, _ in END_TO_END
        }
    return json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"], "failed": doc["failed"],
        "metrics": values,
    })


def print_metrics(doc: dict[str, Any]) -> None:
    print(f"== {doc['workload']}  seed={doc['seed']} scale={doc['scale']} sizes={doc['sizes']}")
    print(f"   repeats={doc['repeats']} checks={doc['attempted']} failed={doc['failed']}"
          f" {doc['failed_checks'] or ''} digest={doc['digest'][:12]}")
    for name, m in {**doc["end_to_end"], **doc["gated"]}.items():
        print(f"   {name:<34} {m['value']:>16.6g} {m['unit']:<10}"
              f" q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}")
    host = doc["host"]
    print(f"   host: raw wall {host['wall_raw_s']['value']:.6g} s, slowdown "
          f"{host['slowdown']['value']:.3f}, probe floor {host['probe_floor_us'] or 0:.2f} us, "
          f"{host['probe_samples']} samples")
    for name, m in doc.get("per_layer", {}).items():
        shown = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"   {name:<34} {shown:>16} {m['unit']}")
    for hook in doc.get("missing_hooks", ()):
        print(f"   missing hook: {hook}")


# ----------------------------------------------------------------------
# The ledger: every workload, one subprocess each
# ----------------------------------------------------------------------
def _run_metadata(args: argparse.Namespace) -> dict[str, Any]:
    def version(mod: str) -> str | None:
        try:
            return __import__(mod).__version__
        except ImportError:
            return None

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit, "python": platform.python_version(), "numpy": version("numpy"),
        "networkx": version("networkx"), "cpu": cpu, "nproc": os.cpu_count(),
        "loadavg_1m_at_start": os.getloadavg()[0], "seed": args.seed,
        "repeats": args.repeats, "seconds": args.seconds, "scale": args.scale,
    }


def run_ledger(args: argparse.Namespace, names: list[str]) -> dict[str, Any]:
    meta = _run_metadata(args)
    out_dir = Path(args.out).parent if args.out else HERE / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    docs: dict[str, Any] = {}
    for name in names:
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            detail = Path(tmp) / "detail.json"
            # --repeats K means exactly K: no time floor on top of it.
            seconds = 0 if args.repeats else args.seconds
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(seconds),
                "--trace", "0" if args.no_trace else "both", "--scale", str(args.scale),
                "--min-repeats", str(args.repeats or MIN_REPEATS),
                "--setups", str(args.setups), "--detail", str(detail),
            ]
            if not args.no_trace:
                cmd += ["--spans", str(out_dir / f"spans-{name}.jsonl")]
            proc = subprocess.run(cmd, env={**os.environ, **CHILD_ENV}, stdout=subprocess.PIPE,
                                  text=True, timeout=600)
            if proc.returncode != 0:
                sys.stdout.write(proc.stdout)
                sys.exit(f"ledger: workload {name} exited with {proc.returncode}")
            docs[name] = json.loads(detail.read_text())
        print_metrics(docs[name])
        sys.stdout.flush()
    return {"schema": "repro.ledger/1", "meta": meta, "workloads": docs}


def write_golden(result: dict[str, Any]) -> None:
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"seed": None, "scales": {}}
    seed = result["meta"]["seed"]
    if doc["seed"] != seed:
        doc = {"seed": seed, "scales": {}}
    doc["scales"][repr(result["meta"]["scale"])] = {
        name: {"digest": d["digest"], "semantic": d["semantic"]}
        for name, d in result["workloads"].items()
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def self_check(args: argparse.Namespace, names: list[str]) -> int:
    """Two sets from the same tree must agree within the ledger's own
    bounds, count for count; a smoke pass on a second seed shows that no
    check is keyed to the default one."""
    sys.path.insert(0, str(HERE))
    import compare

    args.out = None   # both sets go to out/self-check-{a,b}.json
    a = run_ledger(args, names)
    b = run_ledger(args, names)
    for tag, result in (("a", a), ("b", b)):
        (HERE / "out" / f"self-check-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    rows = compare.compare(a, b)
    compare.print_rows(rows)
    bad = [r for r in rows if r["verdict"] in ("worse", "unresolved")]
    diffs = compare.count_differences(a, b)
    for d in diffs:
        print(f"count differs between the sets: {d}")
    failed = [n for r in (a, b) for n, d in r["workloads"].items() if d["failed"]]
    other = argparse.Namespace(**{**vars(args), "seed": args.seed + 1, "scale": SMOKE_SCALE,
                                  "repeats": 2, "seconds": 0, "setups": 1, "out": None})
    c = run_ledger(other, names)
    failed += [n for n, d in c["workloads"].items() if d["failed"]]
    print(f"self-check: {len(bad)} worse/unresolved, {len(diffs)} count differences, "
          f"{len(failed)} workloads with failed checks")
    return 1 if bad or diffs or failed else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", choices=("0", "1", "both"), default=None)
    p.add_argument("--repeats", type=int, default=0, help="ledger: exactly K timed repeats")
    p.add_argument("--no-trace", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--write-golden", action="store_true")
    # Set by the ledger when it spawns a workload process:
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--min-repeats", type=int, default=MIN_REPEATS)
    p.add_argument("--setups", type=int, default=SETUPS)
    p.add_argument("--detail", default=None)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    if args.trace is not None:
        if args.workload is None:
            p.error("--trace needs --workload")
        if any(os.environ.get(k) != v for k, v in CHILD_ENV.items()):
            os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **CHILD_ENV})
        doc = run_workload(args)
        if args.detail:
            Path(args.detail).write_text(json.dumps(doc))
        else:
            print_metrics(doc)
        print(contract_line(doc, args.trace))
        return 0

    if not (REPO / "src" / "repro").is_dir():
        sys.exit(f"ledger: no simulator at {REPO / 'src' / 'repro'}")
    if args.smoke:
        args.scale, args.repeats, args.seconds, args.setups = SMOKE_SCALE, 2, 0, 1
    names = [args.workload] if args.workload else [
        "vpn_sla", "vpn_sla_obs", "elastic_aqm", "fanin_burst", "provision_scale", "churn_storm",
    ]
    if args.self_check:
        return self_check(args, names)
    result = run_ledger(args, names)
    out = Path(args.out) if args.out else HERE / "out" / f"ledger-seed{args.seed}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"ledger: wrote {out}")
    if args.write_golden:
        write_golden(result)
    failed = {n: d["failed_checks"] for n, d in result["workloads"].items() if d["failed"]}
    if failed:
        print(f"ledger: failed checks: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
