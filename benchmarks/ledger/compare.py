#!/usr/bin/env python3
"""Compare two ledger result files: ``compare.py A.json B.json``.

Per workload and end-to-end metric - the rows of ``BENCHMARK.json`` and the
workload-specific ones (``failed_share``, ``site_flap_p50_ms``,
``site_flap_p90_ms``, ``state_bytes``) - prints both medians with their
quartiles, the ratio B/A (A is the base), and a verdict by the
choosing-metrics rule:

* ``worse``      B's median is worse than A's by more than the metric's bound;
* ``better``     B's median is better than A's by more than the bound;
* ``same``       the medians are within the bound of each other;
* ``unresolved`` a side's own run-to-run spread (distance between its
  quartiles, as a share of its median) exceeds the bound, so a difference
  of that size cannot be told from noise — unless every run of B reads
  better than every run of A, which is ``better`` whatever the spread.

Exits 1 when any row is ``worse`` or ``unresolved``.  Reads only the two
files; the bounds and directions travel inside them.
"""

from __future__ import annotations

import json
import sys
from typing import Any

__all__ = ["compare", "count_differences", "print_rows", "verdict"]

#: Count-valued per-layer numbers that must repeat exactly between two
#: sets made from one tree (a deterministic simulator, a fixed seed).
EXACT_COUNTS = (
    "sim.events", "sim.snapshot_bytes", "vpn.bgp_updates", "vpn.bgp_routes_imported",
    "vpn.bgp_routes_removed", "vpn.vrf_routes", "dataplane.pkts",
    "dataplane.tier_scalar_share", "dataplane.tier_hoisted_share",
    "dataplane.tier_columnar_share", "net.tx_packets", "qos.enqueues", "qos.drops",
)


def _spread(m: dict[str, Any]) -> float:
    return (m["q3"] - m["q1"]) / m["value"] if m["value"] else 0.0


def verdict(a: dict[str, Any], b: dict[str, Any]) -> str:
    bound, lower_is_better = a["bound"], a["better"] == "lower"
    va, vb = a["value"], b["value"]
    if lower_is_better:
        worse, better = vb > va * (1 + bound), vb < va * (1 - bound)
        all_better = max(b["values"]) < min(a["values"])
    else:
        worse, better = vb < va * (1 - bound), vb > va * (1 + bound)
        all_better = min(b["values"]) > max(a["values"])
    if max(_spread(a), _spread(b)) > bound:
        return "better" if all_better and better else "unresolved"
    return "worse" if worse else "better" if better else "same"


def compare(doc_a: dict[str, Any], doc_b: dict[str, Any]) -> list[dict[str, Any]]:
    rows = []
    for name, wa in doc_a["workloads"].items():
        wb = doc_b["workloads"].get(name)
        if wb is None:
            continue
        rows_b = {**wb["end_to_end"], **wb["gated"]}
        for metric, a in {**wa["end_to_end"], **wa["gated"]}.items():
            b = rows_b.get(metric)
            if b is None:
                continue
            rows.append({
                "workload": name, "metric": metric, "unit": a["unit"], "a": a, "b": b,
                "ratio": b["value"] / a["value"] if a["value"] else float("nan"),
                "verdict": verdict(a, b),
            })
    return rows


def count_differences(doc_a: dict[str, Any], doc_b: dict[str, Any]) -> list[str]:
    """Digests and exact counts that differ between two sets of one tree."""
    diffs = []
    for name, wa in doc_a["workloads"].items():
        wb = doc_b["workloads"].get(name)
        if wb is None:
            continue
        if wa["digest"] != wb["digest"]:
            diffs.append(f"{name}: digest")
        for metric in EXACT_COUNTS:
            va = wa.get("per_layer", {}).get(metric, {}).get("value")
            vb = wb.get("per_layer", {}).get(metric, {}).get("value")
            if va != vb:
                diffs.append(f"{name}: {metric} {va} != {vb}")
    return diffs


def print_rows(rows: list[dict[str, Any]]) -> None:
    def cell(m: dict[str, Any]) -> str:
        return f"{m['value']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}] n={m['n']}"

    print(f"{'workload':<16} {'metric':<17} {'A median [q1, q3]':<36} "
          f"{'B median [q1, q3]':<36} {'B/A':>7}  verdict")
    for r in rows:
        print(f"{r['workload']:<16} {r['metric']:<17} {cell(r['a']):<36} {cell(r['b']):<36} "
              f"{r['ratio']:>7.3f}  {r['verdict']} ({r['a']['better']} is better, "
              f"bound {r['a']['bound']:.0%}, {r['unit']})")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        doc_a, doc_b = json.load(fa), json.load(fb)
    rows = compare(doc_a, doc_b)
    print_rows(rows)
    return 1 if any(r["verdict"] in ("worse", "unresolved") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
