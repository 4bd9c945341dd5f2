"""E6 — Traffic engineering: CSPF tunnels vs destination-based routing.

Claim C7: "Users can also control QoS and general traffic flow more
precisely to avoid congested, constrained or disabled links" — which plain
IGP routing cannot, because its static metrics see no load (claim C2's
flip side).  The classic fish topology makes the failure vivid: three
4 Mb/s flows from A to F all follow the one shortest path (the bottom
branch, 10 Mb/s) and two-thirds of the offered load dies, while the top
branch idles.

With MPLS TE the ingress signals one bandwidth-reserved LSP per flow:
CSPF admits the first two onto the bottom branch (8 ≤ 10 Mb/s) and is
*forced* by the admission check to place the third on the idle top branch.
Aggregate goodput jumps to the full offered load and the utilization
spread across branches flattens.

A second scenario exercises the "disabled links" half of the claim: after
a bottom-branch link failure, re-running CSPF re-signals the tunnels
around the dead link.
"""

from __future__ import annotations

from typing import Any

from repro.control import converge_all
from repro.experiments.common import ExperimentRun
from repro.mpls.lsr import Lsr
from repro.mpls.te import TrafficEngineering
from repro.net.address import Prefix
from repro.routing.spf import converge, spf_paths
from repro.topology import Network, attach_host, build_fish
from repro.traffic.generators import CbrSource

__all__ = ["build_fish_scenario", "run_config", "run_e6", "FLOW_BPS", "N_FLOWS"]

LINK_BPS = 10e6
FLOW_BPS = 4e6
N_FLOWS = 3


def build_fish_scenario(seed: int) -> dict[str, Any]:
    """Fish of LSRs + one src host at A and one dst host per flow at F."""
    net = Network(seed=seed)
    nodes = build_fish(
        net,
        rate_bps=LINK_BPS,
        trunk_rate_bps=3 * LINK_BPS,  # head/tail trunks are never the constraint
        node_factory=lambda n, name: n.add_node(Lsr(n.sim, name)),
    )
    src = attach_host(net, nodes["A"], "10.60.0.1", name="tx")
    dsts = [
        attach_host(net, nodes["F"], f"10.60.1.{i + 1}", name=f"rx{i}")
        for i in range(N_FLOWS)
    ]
    converge(net)
    return {"net": net, "nodes": nodes, "src": src, "dsts": dsts}


def _start_flows(run: ExperimentRun, ctx: dict[str, Any]):
    sources = []
    for i, dst in enumerate(ctx["dsts"]):
        sources.append(
            run.add_source(
                CbrSource(
                    run.net.sim, ctx["src"].send, f"flow{i}",
                    "10.60.0.1", str(dst.loopback),
                    payload_bytes=1000, rate_bps=FLOW_BPS,
                )
            )
        )
    return sources


def run_config(
    use_te: bool, seed: int = 51, measure_s: float = 6.0, fail_link: bool = False
) -> dict[str, Any]:
    """One E6 run: shortest-path (LDP follows IGP) or CSPF tunnels."""
    ctx = build_fish_scenario(seed)
    net = ctx["net"]

    lsp_paths: list[list[str]] = []
    if fail_link:
        # The "disabled link" variant: G-H is down, so no path crosses it.
        net.link_between("G", "H").set_up(False)
    if use_te:
        te = TrafficEngineering(net)
        for i, dst in enumerate(ctx["dsts"]):
            path = te.cspf("A", "F", FLOW_BPS)
            if path is None:
                # Admission control refuses rather than congest the tunnels
                # already placed — under the link failure the surviving
                # branch only fits two 4 Mb/s reservations.  The rejected
                # flow gets no LSP (and, with no LDP fallback here, no
                # path): its row shows zero goodput while the admitted
                # tunnels keep their full rate.
                lsp_paths.append(["rejected"])
                continue
            lsp = te.signal(f"lsp{i}", path, FLOW_BPS)
            te.autoroute(lsp, [Prefix.of(dst.loopback, 32)])
            lsp_paths.append(path)
        ctx["te"] = te
    else:
        converge_all(net)
        lsp_paths = [spf_paths(net, "A", "F")] * N_FLOWS

    run = ExperimentRun(net, warmup_s=0.3, measure_s=measure_s)
    sinks = [run.sink_at(dst) for dst in ctx["dsts"]]
    sources = _start_flows(run, ctx)
    run.execute(drain_s=0.5)

    stats = [run.stats_for(s, sink) for s, sink in zip(sources, sinks)]
    elapsed = run.warmup_s + run.measure_s
    util = net.link_utilization(elapsed)
    bottom = max(util.get("B->G", 0.0), util.get("G->H", 0.0), util.get("H->E", 0.0))
    top = max(util.get("B->C", 0.0), util.get("C->D", 0.0), util.get("D->E", 0.0))
    return {
        "config": ("cspf-te" if use_te else "shortest-path") + ("+linkfail" if fail_link else ""),
        "flows": stats,
        "paths": lsp_paths,
        "util_bottom": bottom,
        "util_top": top,
        "aggregate_goodput_bps": sum(s.throughput_bps for s in stats),
        "net": net,
    }


def run_e6(seed: int = 51, measure_s: float = 6.0) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """The E6 table: config × flow plus branch utilizations."""
    rows: list[dict[str, Any]] = []
    raw: dict[str, Any] = {}
    for use_te, fail in ((False, False), (True, False), (True, True)):
        result = run_config(use_te, seed=seed, measure_s=measure_s, fail_link=fail)
        raw[result["config"]] = result
        for i, stats in enumerate(result["flows"]):
            rows.append(
                {
                    "config": result["config"],
                    **stats.row(),
                    "path": "-".join(result["paths"][i]),
                    "util_bottom": round(result["util_bottom"], 3),
                    "util_top": round(result["util_top"], 3),
                }
            )
    return rows, raw
