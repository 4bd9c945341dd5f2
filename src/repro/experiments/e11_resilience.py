"""E11 — Resilience to link failure: IGP reconvergence vs MPLS fast reroute.

The paper sells MPLS on avoiding "congested, constrained **or disabled**
links" (§3).  The interesting question is *how fast*: after a link dies,
destination-based IP routing blackholes traffic until the IGP re-floods
and every router re-runs SPF — seconds with year-2000 OSPF timers — while
an RSVP-TE bypass tunnel pre-signaled around the link restores forwarding
with one local LFIB write at the point of local repair.

We run a 2 Mb/s CBR flow over the fish's bottom branch, cut G-H mid-run,
and count packets lost until forwarding resumes under three recovery
regimes:

* ``igp-default``  — reconvergence after 5 s (hello/dead-timer detection);
* ``igp-tuned``    — reconvergence after 1 s (aggressively tuned IGP);
* ``frr``          — pre-signaled bypass, 50 ms loss-of-light detection.

Expected shape: outage (lost packets ÷ packet rate) tracks the recovery
delay; FRR is two orders of magnitude better than default IGP timers.
"""

from __future__ import annotations

from typing import Any

from repro.control import converge_all
from repro.experiments.common import ExperimentRun
from repro.mpls.frr import FastReroute
from repro.mpls.lsr import Lsr
from repro.mpls.te import TrafficEngineering
from repro.net.address import Prefix
from repro.routing.spf import converge
from repro.topology import Network, attach_host, build_fish
from repro.traffic.generators import CbrSource

__all__ = ["run_variant", "run_e11", "VARIANTS"]

FLOW_BPS = 2e6
FAIL_AT = 2.0
VARIANTS = (
    ("igp-default", "igp", 5.0),
    ("igp-tuned", "igp", 1.0),
    ("frr", "frr", 0.050),
)


def _build(seed: int) -> dict[str, Any]:
    net = Network(seed=seed)
    nodes = build_fish(
        net, rate_bps=10e6, trunk_rate_bps=30e6,
        node_factory=lambda n, name: n.add_node(Lsr(n.sim, name)),
    )
    tx = attach_host(net, nodes["A"], "10.110.0.1", name="tx")
    rx = attach_host(net, nodes["F"], "10.110.0.2", name="rx")
    converge(net)
    return {"net": net, "nodes": nodes, "tx": tx, "rx": rx}


def run_variant(
    name: str, mode: str, recovery_delay_s: float,
    seed: int = 111, measure_s: float = 10.0,
    trace_spans: bool = False,
) -> dict[str, Any]:
    """One recovery regime; returns loss accounting around the failure.

    With ``trace_spans=True`` a :class:`repro.obs.spans.ConvergenceTracer`
    records the causal chain from the link-state change through the
    control-plane repair to the first correctly-forwarded healing probe at
    ``rx`` — the data-plane-observed healing time.  The result then gains
    ``"tracer"``, ``"spans"`` and ``"healing"`` entries.
    """
    ctx = _build(seed)
    net = ctx["net"]

    tracer = None
    if trace_spans:
        from repro.obs.spans import ConvergenceTracer

        tracer = ConvergenceTracer(net).attach()
        tracer.add_watch(
            ctx["tx"], ctx["rx"], "10.110.0.1", "10.110.0.2", label=name,
        )

    if mode == "frr":
        te = TrafficEngineering(net)
        lsp = te.signal("prim", ["A", "B", "G", "H", "E", "F"], FLOW_BPS, php=False)
        te.autoroute(lsp, [Prefix.parse("10.110.0.2/32")])
        frr = FastReroute(te)
        frr.protect_lsp(lsp)

        def recover() -> None:
            frr.trigger_link_failure("G", "H")
    else:
        converge_all(net)

        def recover() -> None:
            converge_all(net)

    def fail() -> None:
        net.link_between("G", "H").set_up(False)
        net.sim.schedule(recovery_delay_s, recover)

    net.sim.schedule(FAIL_AT, fail)

    run = ExperimentRun(net, warmup_s=0.2, measure_s=measure_s)
    sink = run.sink_at(ctx["rx"])
    src = run.add_source(
        CbrSource(net.sim, ctx["tx"].send, "probe", "10.110.0.1", "10.110.0.2",
                  payload_bytes=500, rate_bps=FLOW_BPS)
    )
    run.execute(drain_s=0.5)

    rec = sink.record("probe")
    lost = src.sent - rec.count
    pkt_rate = FLOW_BPS / ((500 + 20) * 8)
    result = {
        "variant": name,
        "recovery_delay_s": recovery_delay_s,
        "sent": src.sent,
        "received": rec.count,
        "lost": lost,
        "outage_s": lost / pkt_rate,
        "net": net,
    }
    if tracer is not None:
        result["tracer"] = tracer
        result["spans"] = tracer.spans
        result["healing"] = [w.healings for w in tracer.watches]
    return result


def run_e11(seed: int = 111, measure_s: float = 10.0) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """The E11 table: loss/outage per recovery regime."""
    rows: list[dict[str, Any]] = []
    raw: dict[str, Any] = {}
    for name, mode, delay in VARIANTS:
        result = run_variant(name, mode, delay, seed=seed, measure_s=measure_s)
        raw[name] = result
        rows.append(
            {
                "variant": name,
                "recovery_delay_s": delay,
                "sent": result["sent"],
                "lost": result["lost"],
                "outage_s": round(result["outage_s"], 3),
            }
        )
    return rows, raw
