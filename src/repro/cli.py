"""Command-line runner: ``python -m repro <command> ...``.

Gives downstream users the whole experiment harness without writing code:

    python -m repro list
    python -m repro run e1 --sites 10 50 200
    python -m repro run e2 --measure 8 --telemetry out.json
    python -m repro run all --measure 4
    python -m repro telemetry out.json

Each experiment prints the same table its benchmark does.  With
``--telemetry PATH`` the run also records a full observability bundle —
seed, git revision, per-node/interface/class metrics, kernel profile, and
flow-accounting tables for every network the experiment built — as one
JSON document; ``repro telemetry PATH`` pretty-prints it later.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Any, Callable, Sequence

from repro.metrics.table import print_table

__all__ = ["main", "EXPERIMENTS"]


def _run_e1(args: argparse.Namespace) -> list[dict[str, Any]]:
    from repro.experiments.e1_scalability import run_e1
    rows, _ = run_e1(site_counts=tuple(args.sites))
    return rows


def _measure(args: argparse.Namespace) -> float:
    """Effective measurement window: ``--smoke`` caps it at 1 s."""
    if getattr(args, "smoke", False):
        return min(args.measure, 1.0)
    return args.measure


def _run_e2(args: argparse.Namespace) -> list[dict[str, Any]]:
    from repro.experiments.e2_qos import run_e2
    rows, _ = run_e2(measure_s=_measure(args), hybrid=getattr(args, "hybrid", False))
    return rows


def _run_e3(args: argparse.Namespace) -> list[dict[str, Any]]:
    from repro.experiments.e3_forwarding import run_e3
    rows, _ = run_e3()
    return rows


def _run_e4(args: argparse.Namespace) -> list[dict[str, Any]]:
    from repro.experiments.e4_ipsec import run_e4
    rows, _ = run_e4(measure_s=args.measure)
    return rows


def _run_e5(args: argparse.Namespace) -> list[dict[str, Any]]:
    from repro.experiments.e5_sla import run_e5
    rows, _ = run_e5(measure_s=_measure(args), hybrid=getattr(args, "hybrid", False))
    return rows


def _run_e6(args: argparse.Namespace) -> list[dict[str, Any]]:
    from repro.experiments.e6_te import run_e6
    rows, _ = run_e6(measure_s=args.measure)
    return rows


def _run_e7(args: argparse.Namespace) -> list[dict[str, Any]]:
    from repro.experiments.e7_isolation import run_e7
    rows, _ = run_e7(measure_s=min(args.measure, 4.0))
    return rows


def _run_e8(args: argparse.Namespace) -> list[dict[str, Any]]:
    from repro.experiments.e8_mixed import run_e8
    rows, _ = run_e8(measure_s=min(args.measure, 4.0))
    return rows


def _run_e9(args: argparse.Namespace) -> list[dict[str, Any]]:
    from repro.experiments.e9_ablations import run_e9
    out = run_e9(measure_s=args.measure)
    all_rows: list[dict[str, Any]] = []
    for name, (rows, _raw) in out.items():
        print_table(rows, title=f"E9 {name}")
        all_rows.extend(rows)
    return []  # already printed per-study


def _run_e10(args: argparse.Namespace) -> list[dict[str, Any]]:
    from repro.experiments.e10_interas import run_e10
    rows, summary = run_e10(measure_s=args.measure)
    rows.append({
        "flow": "— border control plane —",
        "sent": summary["routes_exchanged_over_border"],
        "recv": summary["cross_customer_leaks"],
    })
    return rows


def _run_e11(args: argparse.Namespace) -> list[dict[str, Any]]:
    from repro.experiments.e11_resilience import run_e11
    rows, _ = run_e11(measure_s=max(args.measure, 8.0))
    return rows


def _run_e12(args: argparse.Namespace) -> list[dict[str, Any]]:
    from repro.experiments.e12_elastic import run_e12
    duration = max(args.measure, 10.0)
    if getattr(args, "smoke", False):
        duration = 10.0
    out = run_e12(duration_s=duration, hybrid=getattr(args, "hybrid", False))
    for name, (rows, _raw) in out.items():
        print_table(rows, title=f"E12 {name}")
    return []


def _run_e13(args: argparse.Namespace) -> list[dict[str, Any]]:
    from repro.experiments.e13_tiers import run_e13
    rows, _ = run_e13(measure_s=args.measure)
    return rows


def _run_e14(args: argparse.Namespace) -> list[dict[str, Any]]:
    from repro.experiments.e14_intserv import run_e14
    rows, _ = run_e14(measure_s=args.measure)
    return rows


def _run_e15(args: argparse.Namespace) -> list[dict[str, Any]]:
    from repro.experiments.e15_churn import run_e15
    if getattr(args, "smoke", False):
        rows, _ = run_e15(n_sites=48, site_flaps=4, wave_sites=4, link_flaps=1)
    else:
        rows, _ = run_e15(n_sites=500)
    return rows


def _run_eh(args: argparse.Namespace) -> list[dict[str, Any]]:
    from repro.experiments.hybrid import run_hybrid_demo
    n_flows = 2_000 if getattr(args, "smoke", False) else 10_000
    rows, _ = run_hybrid_demo(n_flows=n_flows)
    return rows


EXPERIMENTS: dict[str, tuple[str, Callable[[argparse.Namespace], list[dict[str, Any]]]]] = {
    "e1": ("scalability: overlay VCs vs MPLS VPN state (§2.1)", _run_e1),
    "e2": ("per-class QoS: IP vs DiffServ vs MPLS (C2)", _run_e2),
    "e3": ("forwarding cost: LPM vs label lookup (C4)", _run_e3),
    "e4": ("encryption vs QoS: IPsec vs MPLS VPN (C3)", _run_e4),
    "e5": ("end-to-end SLA chain, ablated (§5/C6)", _run_e5),
    "e6": ("traffic engineering on the fish (C7)", _run_e6),
    "e7": ("isolation with overlapping addresses (C5)", _run_e7),
    "e8": ("mixed labeled/unlabeled backbone (Fig. 4)", _run_e8),
    "e9": ("ablations: schedulers, AQM, PHP/EXP, stack, iBGP", _run_e9),
    "e10": ("cross-provider VPN, option A (§5)", _run_e10),
    "e11": ("resilience: IGP reconvergence vs FRR", _run_e11),
    "e12": ("elastic (TCP-like) traffic: AQM + class protection", _run_e12),
    "e13": ("per-VPN service tiers: gold/silver/bronze (§2.2)", _run_e13),
    "e14": ("IntServ per-flow vs DiffServ aggregation cost (§2.2)", _run_e14),
    "e15": ("churn storms: incremental MP-BGP vs site/PE/VPN/link flaps", _run_e15),
    "eh": ("hybrid fluid/packet plane: pure vs hybrid at scale", _run_eh),
}


def _window_s(text: str) -> float:
    """argparse type of ``--measure``: a finite number of seconds > 0."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of ``--sites`` / ``--reps`` / ``--workers``: an int >= 1."""
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Experiment runner for the MPLS VPN QoS reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    run.add_argument("--measure", type=_window_s, default=6.0,
                     help="measurement window in simulated seconds (default 6)")
    run.add_argument("--sites", type=_positive_int, nargs="+", default=[10, 50, 100, 200],
                     help="site counts for e1")
    run.add_argument("--telemetry", metavar="PATH", default=None,
                     help="record a telemetry bundle (metrics, kernel "
                          "profile, flow accounting) to this JSON file")
    run.add_argument("--hybrid", action="store_true",
                     help="carry filler/background traffic on the fluid "
                          "plane (e2, e5, e12; others ignore it)")
    run.add_argument("--smoke", action="store_true",
                     help="seconds-scale CI variant: short measurement "
                          "windows, smaller flow counts")

    tel = sub.add_parser("telemetry", help="pretty-print a telemetry bundle")
    tel.add_argument("path", help="bundle written by 'run --telemetry'")
    tel.add_argument("--flows", action="store_true",
                     help="also print the per-VRF/per-class flow tables")

    sweep = sub.add_parser(
        "sweep",
        help="run an experiment grid across worker processes",
        description="Fan a scenario × parameter × seed grid across "
                    "multiprocessing workers with deterministic per-task "
                    "seeding; merge one JSON report.",
    )
    sweep.add_argument("--grid", choices=["e1", "e2", "e5", "e15", "all"],
                       default="e2", help="which grid to run (default e2)")
    sweep.add_argument("--workers", type=_positive_int, default=1,
                       help="worker processes (1 = inline, default)")
    sweep.add_argument("--reps", type=_positive_int, default=1,
                       help="seeded repetitions per grid point")
    sweep.add_argument("--measure", type=_window_s, default=2.0,
                       help="measurement window per run (default 2)")
    sweep.add_argument("--sites", type=_positive_int, nargs="+",
                       default=[10, 50, 100, 200], help="site counts for e1")
    sweep.add_argument("--smoke", action="store_true",
                       help="run the seconds-scale CI smoke grid instead")
    sweep.add_argument("--slo", action="store_true",
                       help="attach the live streaming SLO engine to e5 "
                            "tasks: adds slo/slo_p99_ms/slo_viol_s columns "
                            "and one (slo-summary) row per task")
    sweep.add_argument("--telemetry", action="store_true",
                       help="collect per-task telemetry manifests into the "
                            "report (disables the counters-off fast path)")
    sweep.add_argument("--warm-start", action="store_true",
                       help="build + converge each distinct scenario base "
                            "once, snapshot it (repro.sim.snapshot), and "
                            "restore per task instead of re-provisioning; "
                            "rows are byte-identical to a cold sweep")
    sweep.add_argument("--out", metavar="PATH", default=None,
                       help="write the merged report to this JSON file")
    sweep.add_argument("--spill-dir", metavar="DIR", default=None,
                       help="directory for per-worker JSONL spill files "
                            "(multi-worker runs; kept after the merge). "
                            "Default: a temporary directory, removed "
                            "once merged")

    snap = sub.add_parser(
        "snapshot",
        help="save/restore converged simulator state",
        description="Checkpoint a built + converged scenario as a "
                    "versioned repro.sim.snapshot image, restore one to "
                    "verify it, or inspect an image's header.",
    )
    snap_sub = snap.add_subparsers(dest="snapshot_command", required=True)
    snap_save = snap_sub.add_parser(
        "save", help="build + converge a scenario base and snapshot it")
    snap_save.add_argument("path", help="output snapshot file")
    snap_save.add_argument(
        "--base", required=True, metavar="KEY",
        help="scenario base key, same naming as the warm-start sweep: "
             "e1/overlay/<sites>, e1/mpls/<sites>, e2/<config>, e5/<stage>")
    snap_restore = snap_sub.add_parser(
        "restore", help="restore a snapshot and audit it (exit 1 on any error)")
    snap_restore.add_argument("path", help="snapshot file to restore")
    snap_info = snap_sub.add_parser(
        "info", help="print a snapshot file's schema/version header")
    snap_info.add_argument("path", help="snapshot file to inspect")

    slo = sub.add_parser(
        "slo",
        help="live SLO report + convergence trace",
        description="Run the E5 SLA chain with the streaming SLO engine "
                    "attached (live windowed conformance next to the batch "
                    "verdicts) and a scripted E11 link flap under the "
                    "convergence tracer (control-plane vs data-plane "
                    "healing time).",
    )
    slo.add_argument("--stage", choices=["none", "cbq-only", "core-only", "full"],
                     default="full", help="E5 ablation stage (default full)")
    slo.add_argument("--measure", type=_window_s, default=6.0,
                     help="E5 measurement window in simulated seconds")
    slo.add_argument("--smoke", action="store_true",
                     help="seconds-scale CI variant: short windows, "
                          "igp-tuned flap only")
    slo.add_argument("--spans", metavar="PATH", default=None,
                     help="write the convergence span trace as JSONL "
                          "(validated against repro.spans/v1)")
    slo.add_argument("--json", metavar="PATH", default=None,
                     help="write the combined SLO + convergence summary "
                          "as one JSON document")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, (desc, _fn) in EXPERIMENTS.items():
            print(f"  {name:4s} {desc}")
        return 0
    if args.command == "telemetry":
        return _show_telemetry(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "snapshot":
        return _run_snapshot(args)
    if args.command == "slo":
        return _run_slo(args)

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    recording = args.telemetry is not None
    manifests: list[dict[str, Any]] = []
    if recording:
        from repro.obs import runtime

        runtime.reset()
        runtime.enable()
    try:
        for name in names:
            desc, fn = EXPERIMENTS[name]
            print(f"\n=== {name}: {desc} ===")
            t0 = time.perf_counter()
            n0 = len(runtime.sessions()) if recording else 0
            rows = fn(args)
            if recording:
                # Every Network built by this experiment got its own
                # telemetry session; snapshot them while still live.
                for session in runtime.sessions()[n0:]:
                    manifests.append(
                        session.manifest(config={"experiment": name})
                    )
            if rows:
                print_table(rows)
            print(f"[{name} finished in {time.perf_counter() - t0:.1f}s wall clock]")
    finally:
        if recording:
            runtime.reset()
    if recording:
        from repro.obs.telemetry import SCHEMA_ID

        bundle = {
            "schema": SCHEMA_ID,
            "kind": "bundle",
            "experiments": names,
            "options": {"measure": args.measure, "sites": list(args.sites)},
            "runs": manifests,
        }
        with open(args.telemetry, "w") as fh:
            json.dump(bundle, fh, indent=2)
            fh.write("\n")
        print(f"[telemetry: {len(manifests)} run manifest(s) -> {args.telemetry}]")
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    """``repro sweep``: fan a grid across workers, merge one report."""
    from repro.sweep import build_grid, run_sweep, smoke_grid

    if args.smoke:
        tasks = smoke_grid()
    else:
        tasks = build_grid(
            args.grid, reps=args.reps, measure_s=args.measure,
            sites=tuple(args.sites), slo=args.slo,
        )
    print(f"[sweep: {len(tasks)} task(s), {args.workers} worker(s)]")
    report = run_sweep(
        tasks, workers=args.workers, telemetry=args.telemetry,
        spill_dir=args.spill_dir, warm_start=args.warm_start,
    )

    if report["rows"]:
        print_table(report["rows"])
    for failure in report["failed"]:
        print(f"\n[task {failure['index']} {failure['name']} FAILED]")
        print(failure["error"].rstrip())
    wall = report["timing"]["wall_s"]
    warm = report["timing"].get("warm_start")
    if warm:
        print(f"[warm start: {len(warm['bases'])} base(s), "
              f"{warm['bytes']:,} bytes, built in {warm['build_s']:.1f}s]")
    print(f"[sweep: {report['ok']}/{report['tasks']} ok in {wall:.1f}s wall clock]")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"[sweep report -> {args.out}]")
    return 0 if not report["failed"] else 1


def _run_snapshot(args: argparse.Namespace) -> int:
    """``repro snapshot save/restore/info``: checkpoint converged state.

    ``restore`` audits the restored graph (:func:`repro.audit.audit`),
    lists every error and warning, and exits 1 on any error."""
    from repro.audit import audit
    from repro.sim.snapshot import SnapshotError, load, pending_schedule, read_header

    if args.snapshot_command == "save":
        from repro.sweep.runner import _build_base

        try:
            blob = _build_base(args.base)
        except (ValueError, KeyError) as exc:
            print(f"unknown base {args.base!r}: {exc}")
            return 1
        with open(args.path, "wb") as fh:
            fh.write(blob)
        print(f"[snapshot: base {args.base} -> {args.path} "
              f"({len(blob):,} bytes)]")
        return 0

    try:
        if args.snapshot_command == "info":
            header = read_header(args.path)
            for key in sorted(header):
                print(f"  {key}: {header[key]}")
            return 0
        # restore
        net, extras = load(args.path)
        findings = audit(net)
        pending = pending_schedule(net.sim)
        count = {s: sum(f.severity == s for f in findings)
                 for s in ("error", "warning", "note")}
        print(f"[snapshot: {len(net.nodes)} node(s), "
              f"{len(net.duplex_links)} link(s), t={net.sim.now}s, "
              f"{len(pending)} pending event(s), "
              f"{len(extras)} extra(s)]")
        print("[audit: " + ", ".join(f"{n} {s}(s)" for s, n in count.items()) + "]")
        for f in findings:
            if f.severity != "note":
                print(f"  {f}")
        return 1 if count["error"] else 0
    except OSError as exc:
        print(f"{args.path}: {exc.strerror or exc}")
        return 1
    except SnapshotError as exc:
        print(f"{args.path}: {exc}")
        return 1


def _run_slo(args: argparse.Namespace) -> int:
    """``repro slo``: streaming SLA conformance + convergence tracing."""
    from repro.experiments.e5_sla import run_stage
    from repro.experiments.e11_resilience import run_variant
    from repro.obs.schema import validate_spans

    measure = 1.0 if args.smoke else args.measure
    doc: dict[str, Any] = {"kind": "slo-report", "stage": args.stage}

    # --- E5: live windowed conformance next to the batch verdicts ------
    print(f"\n=== slo: e5 stage={args.stage!r} measure={measure}s ===")
    result = run_stage(args.stage, measure_s=measure, streaming=True)
    print_table(result["slo"]["rows"], title="streaming SLO state per stream")
    verdicts = []
    for flow, batch_key in (("voice", "voice_sla"), ("data", "data_sla")):
        live = result["slo"][flow]
        batch = result[batch_key]
        verdicts.append({
            "flow": flow,
            "spec": live.spec.name,
            "streaming": "PASS" if live.conformant else "FAIL",
            "batch": "PASS" if batch.conformant else "FAIL",
            "agree": live.conformant == batch.conformant,
        })
    print_table(verdicts, title="streaming verdict vs batch oracle")
    doc["e5"] = {
        "rows": result["slo"]["rows"],
        "verdicts": verdicts,
        "summary": result["slo"]["engine"].summary(),
    }

    # --- E11: scripted link flap under the convergence tracer ----------
    variants = (
        [("igp-tuned", "igp", 1.0)]
        if args.smoke
        else [("igp-tuned", "igp", 1.0), ("frr", "frr", 0.050)]
    )
    span_docs: list[dict[str, Any]] = []
    doc["e11"] = {}
    for name, mode, delay in variants:
        flap = run_variant(name, mode, delay, measure_s=4.0, trace_spans=True)
        tracer = flap["tracer"]
        rows = [
            {
                "trace": s.trace_id,
                "span": s.span_id,
                "parent": s.parent_id or "-",
                "kind": s.kind,
                "name": s.name,
                "t_start_s": round(s.t_start_s, 4),
                "t_end_s": round(s.t_end_s, 4),
            }
            for s in tracer.spans
        ]
        print_table(rows, title=f"convergence spans: {name}")
        summary = tracer.summary()
        for trace in summary["traces"]:
            cp, dp = trace["cp_healing_s"], trace["dp_healing_s"]
            print(f"[{name} {trace['link']}: control-plane healed in "
                  f"{cp:.3f}s, data plane in {dp:.3f}s]"
                  if cp is not None and dp is not None else
                  f"[{name} {trace['link']}: incomplete trace]")
        span_docs.extend(tracer.span_docs())
        doc["e11"][name] = {
            "outage_s": flap["outage_s"],
            "summary": summary,
            "healing": flap["healing"],
        }

    if args.spans:
        problems = validate_spans(span_docs)
        if problems:
            print("[spans: schema validation FAILED]")
            for p in problems:
                print(f"  - {p}")
            return 1
        with open(args.spans, "w") as fh:
            for span in span_docs:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
        print(f"[{len(span_docs)} span(s) -> {args.spans}]")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"[slo report -> {args.json}]")

    disagreements = [v for v in verdicts if not v["agree"]]
    return 0 if not disagreements else 1


def _show_telemetry(args: argparse.Namespace) -> int:
    """Pretty-print a bundle written by ``run --telemetry``."""
    from repro.obs.schema import validate_manifest

    try:
        with open(args.path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"{args.path}: {exc.strerror or exc}")
        return 1
    except json.JSONDecodeError as exc:
        print(f"{args.path}: not JSON ({exc})")
        return 1
    problems = validate_manifest(doc)
    if problems:
        print(f"{args.path}: not a valid telemetry document:")
        for p in problems:
            print(f"  - {p}")
        return 1

    runs = doc["runs"] if doc["kind"] == "bundle" else [doc]
    if doc["kind"] == "bundle":
        print(f"bundle: experiments={','.join(doc['experiments'])} "
              f"options={doc['options']}")
    overview = []
    for i, run in enumerate(runs):
        sim = run["sim"]
        prof = run.get("profile") or {}
        cfg = run.get("config") or {}
        overview.append({
            "run": i,
            "experiment": cfg.get("experiment", "?"),
            "seed": run.get("seed"),
            "nodes": sim["nodes"],
            "links": sim["links"],
            "sim_s": round(sim["now_s"], 3),
            "events": sim["events_processed"],
            "ev/s": int(prof["events_per_sec"]) if prof.get("events_per_sec") else "-",
            "flows": len(run["flows"]),
            "hops_recorded": run["flight"]["recorded_total"],
        })
    print_table(overview, title="runs")

    for i, run in enumerate(runs):
        prof = run.get("profile")
        if prof and prof["kinds"]:
            rows = [
                {
                    "kind": k["kind"],
                    "events": k["events"],
                    "est_total_ms": round(k["est_total_s"] * 1e3, 2),
                    "mean_us": round(k["mean_s"] * 1e6, 1) if k.get("mean_s") else "-",
                }
                for k in prof["kinds"][:8]
            ]
            print_table(rows, title=f"run {i}: hottest event kinds")
        if args.flows and run["flows"]:
            print_table(run["flows"], title=f"run {i}: flow accounting")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
