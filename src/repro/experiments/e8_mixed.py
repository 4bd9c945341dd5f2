"""E8 — Mixed backbone: labeled and unlabeled paths coexisting (Fig. 4).

The paper's deployment figure shows one backbone simultaneously carrying
"Labeled Packet (path 1)" and "unlabeled Packet (path 2)": MPLS "is
currently targeted for deployment in the backbone first", so during
migration only part of the network is label-switching.  We model exactly
that: a six-router line where the middle transit router of one branch is
MPLS-capable and the other is not, plus LDP's ordered control stopping
label distribution at non-MPLS routers.

Checks: (a) destinations behind the MPLS-capable segment are reached over
an LSP (label lookups observed at the transit LSRs, zero IP lookups for
that traffic mid-path); (b) destinations on the IP-only branch are reached
classically; (c) turnover — converting the remaining router to an LSR and
re-running LDP moves the second path onto labels too, with no data-plane
reconfiguration anywhere else.
"""

from __future__ import annotations

from typing import Any

from repro.control import converge_all
from repro.experiments.common import ExperimentRun
from repro.mpls.lsr import Lsr
from repro.routing.router import Router
from repro.topology import Network, attach_host
from repro.traffic.generators import CbrSource

__all__ = ["build_mixed_backbone", "run_e8"]


def build_mixed_backbone(seed: int = 71, upgrade_all: bool = False) -> dict[str, Any]:
    """Y-shaped backbone: one branch all-LSR, one with a legacy IP router.

    ::

        tx - ingress - m1(LSR) - m2(LSR) - egress1 - rx1     (path 1: labeled)
                 \\
                  n1(LSR) - n2(IP!) - egress2 - rx2          (path 2: unlabeled)
    """
    net = Network(seed=seed)
    ingress = net.add_node(Lsr(net.sim, "ingress"))
    m1 = net.add_node(Lsr(net.sim, "m1"))
    m2 = net.add_node(Lsr(net.sim, "m2"))
    egress1 = net.add_node(Lsr(net.sim, "egress1"))
    n1 = net.add_node(Lsr(net.sim, "n1"))
    legacy_cls = Lsr if upgrade_all else Router
    n2 = net.add_node(legacy_cls(net.sim, "n2"))
    egress2 = net.add_node(Lsr(net.sim, "egress2"))

    for a, b in (("ingress", "m1"), ("m1", "m2"), ("m2", "egress1"),
                 ("ingress", "n1"), ("n1", "n2"), ("n2", "egress2")):
        net.connect(a, b, 10e6, 1e-3)

    tx = attach_host(net, ingress, "10.80.0.1", name="tx")
    rx1 = attach_host(net, egress1, "10.80.1.1", name="rx1")
    rx2 = attach_host(net, egress2, "10.80.2.1", name="rx2")
    ldp = converge_all(net).ldp
    return {
        "net": net, "tx": tx, "rx1": rx1, "rx2": rx2, "ldp": ldp,
        "ingress": ingress, "m1": m1, "m2": m2, "n1": n1, "n2": n2,
    }


def _lookup_census(ctx: dict[str, Any]) -> dict[str, int]:
    out = {}
    for name in ("ingress", "m1", "m2", "n1", "n2"):
        node = ctx[name]
        out[f"{name}.label_lookups"] = node.lfib.lookups if isinstance(node, Lsr) else 0
        out[f"{name}.ip_lookups"] = node.fib.lookups
    return out


def run_e8(
    seed: int = 71, measure_s: float = 3.0
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """The E8 table: per-path delivery + how each hop looked packets up."""
    rows: list[dict[str, Any]] = []
    raw: dict[str, Any] = {}
    for upgrade in (False, True):
        ctx = build_mixed_backbone(seed, upgrade_all=upgrade)
        net = ctx["net"]
        run = ExperimentRun(net, warmup_s=0.1, measure_s=measure_s)
        sink1 = run.sink_at(ctx["rx1"])
        sink2 = run.sink_at(ctx["rx2"])
        f1 = run.add_source(
            CbrSource(net.sim, ctx["tx"].send, "path1", "10.80.0.1", "10.80.1.1",
                      payload_bytes=500, rate_bps=2e6)
        )
        f2 = run.add_source(
            CbrSource(net.sim, ctx["tx"].send, "path2", "10.80.0.1", "10.80.2.1",
                      payload_bytes=500, rate_bps=2e6)
        )
        run.execute(drain_s=0.3)
        census = _lookup_census(ctx)
        label = "all-mpls" if upgrade else "mixed"
        raw[label] = {"ctx": ctx, "census": census,
                      "f1": run.stats_for(f1, sink1), "f2": run.stats_for(f2, sink2)}
        rows.append({
            "deployment": label, "flow": "path1",
            "recv": sink1.received("path1"), "sent": f1.sent,
            "m1_label_lkups": census["m1.label_lookups"],
            "m1_ip_lkups": census["m1.ip_lookups"],
            "n2_label_lkups": census["n2.label_lookups"],
            "n2_ip_lkups": census["n2.ip_lookups"],
        })
        rows.append({
            "deployment": label, "flow": "path2",
            "recv": sink2.received("path2"), "sent": f2.sent,
            "m1_label_lkups": census["m1.label_lookups"],
            "m1_ip_lkups": census["m1.ip_lookups"],
            "n2_label_lkups": census["n2.label_lookups"],
            "n2_ip_lkups": census["n2.ip_lookups"],
        })
    return rows, raw
