#!/usr/bin/env python3
"""Benchmark trend gate: diff fresh BENCH_*.json against committed baselines.

The perf suites under ``benchmarks/`` emit machine-readable result files
(``BENCH_forwarding.json``, ``BENCH_engine.json``, ...).  Each section
carries the measured ratio *and* the floor the suite asserted against,
so a checked-in copy doubles as the trend baseline: this tool reloads
both, prints the per-section delta, and fails when a freshly measured
ratio dropped below its recorded floor — the same contract the suites
enforce locally, replayed against the committed history so a silent
floor edit or a stale baseline shows up in review.

Usage::

    python tools/bench_trend.py [--baseline-dir benchmarks/baselines]
                                [--out bench-trend.txt] [--nonblocking]
                                BENCH_forwarding.json BENCH_engine.json

Rules, per section of each fresh file:

* the measured value is the first key present among ``speedup``,
  ``scaling`` (both "higher is better");
* the floor is ``floor`` or ``min_required``; a section carrying
  ``"floor_enforced": false`` (e.g. single-core sweep scaling) is
  reported but never fails the gate;
* fresh value < floor ⇒ FLOOR regression (blocking);
* fresh value < baseline value ⇒ the delta is reported as a drift
  warning only — run-to-run noise on shared runners is expected, the
  floor is the contract;
* sections without a ratio key (raw timings like ``smoke_grid``) are
  listed for the record.

``--nonblocking`` or ``BENCH_PERF_NONBLOCKING=1`` in the environment
downgrades every failure to a report line with exit status 0, matching
the perf suites' behaviour on shared CI runners.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

_RATIO_KEYS = ("speedup", "scaling")


def _ratio(section: dict) -> tuple[str, float] | None:
    for key in _RATIO_KEYS:
        value = section.get(key)
        if isinstance(value, (int, float)):
            return key, float(value)
    return None


def _floor(section: dict) -> float | None:
    for key in ("floor", "min_required"):
        value = section.get(key)
        if isinstance(value, (int, float)):
            return float(value)
    return None


def diff_file(fresh_path: Path, baseline_path: Path, lines: list[str]) -> list[str]:
    """Compare one fresh result file against its baseline.

    Appends human-readable rows to ``lines``; returns the list of
    blocking regression descriptions (empty when the gate passes).
    """
    regressions: list[str] = []
    fresh = json.loads(fresh_path.read_text())
    baseline: dict = {}
    if baseline_path.is_file():
        baseline = json.loads(baseline_path.read_text())
    else:
        lines.append(f"{fresh_path.name}: no baseline at {baseline_path} "
                     "(first run?) — floor check only")

    lines.append(f"== {fresh_path.name} ==")
    for name in sorted(fresh):
        section = fresh[name]
        if not isinstance(section, dict):
            continue
        found = _ratio(section)
        if found is None:
            lines.append(f"  {name}: (no ratio metric — recorded only)")
            continue
        key, value = found
        floor = _floor(section)
        enforced = section.get("floor_enforced", True) is not False
        base_section = baseline.get(name, {})
        base_value = None
        if isinstance(base_section, dict):
            base = _ratio(base_section)
            if base is not None and base[0] == key:
                base_value = base[1]

        status = "ok"
        if floor is not None and value < floor and enforced:
            status = "FLOOR-REGRESSION"
            regressions.append(
                f"{fresh_path.name}:{name}: {key}={value:.3f} "
                f"below floor {floor:.3f}"
            )
        elif floor is not None and value < floor:
            status = "below-floor (not enforced)"
        elif base_value is not None and value < base_value:
            status = f"drift ({100 * (value / base_value - 1):+.1f}% vs baseline)"

        base_txt = f"{base_value:.3f}" if base_value is not None else "—"
        floor_txt = f"{floor:.3f}" if floor is not None else "—"
        lines.append(
            f"  {name}: {key}={value:.3f}  baseline={base_txt}  "
            f"floor={floor_txt}  [{status}]"
        )
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", nargs="+", type=Path,
                        help="freshly emitted BENCH_*.json files")
    parser.add_argument("--baseline-dir", type=Path,
                        default=Path("benchmarks/baselines"),
                        help="directory holding the committed baselines")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the report to this file")
    parser.add_argument("--nonblocking", action="store_true",
                        help="report regressions but exit 0 "
                             "(implied by BENCH_PERF_NONBLOCKING=1)")
    args = parser.parse_args(argv)

    nonblocking = args.nonblocking or bool(
        int(os.environ.get("BENCH_PERF_NONBLOCKING", "0") or "0")
    )

    lines: list[str] = []
    regressions: list[str] = []
    missing: list[str] = []
    for fresh_path in args.fresh:
        if not fresh_path.is_file():
            missing.append(str(fresh_path))
            lines.append(f"{fresh_path}: MISSING (benchmark suite not run?)")
            continue
        regressions.extend(
            diff_file(fresh_path, args.baseline_dir / fresh_path.name, lines)
        )

    if regressions:
        lines.append("")
        lines.append(f"{len(regressions)} floor regression(s):")
        lines.extend(f"  - {r}" for r in regressions)
    else:
        lines.append("")
        lines.append("no floor regressions")

    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out is not None:
        args.out.write_text(report)

    failed = bool(regressions or missing)
    if failed and nonblocking:
        sys.stdout.write("BENCH_PERF_NONBLOCKING: regressions reported, "
                         "exit 0\n")
        return 0
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
