"""E10 — Cross-provider VPN with end-to-end QoS (option A interconnect).

The paper's §5: "This cross-network SLA capability allows the building of
VPNs using multiple carriers as necessary, an option not available with
most frame relay offerings."  We build two independent providers — their
own IGPs, LDP meshes, and iBGP systems — joined by an option-A ASBR pair,
provision one customer with a site in each, and check:

* **reachability** across the border (and its control-plane cost);
* **end-to-end QoS**: the voice class keeps its SLA across *both*
  backbones and the interconnect, because each provider independently maps
  the (cleartext) customer DSCP into its own EXP bits at its edge;
* **isolation**: a second customer on the same interconnect stays sealed.
"""

from __future__ import annotations

from typing import Any

from repro.control import converge_all
from repro.experiments.common import ExperimentRun, QdiscSpec
from repro.metrics.sla import VOICE_SLA, evaluate
from repro.mpls.lsr import Lsr
from repro.qos.dscp import DSCP
from repro.topology import Network
from repro.traffic.generators import CbrSource, voice_source
from repro.vpn.bgp import MpBgp
from repro.vpn.interas import connect_option_a, exchange_option_a
from repro.vpn.pe import PeRouter
from repro.vpn.provision import VpnProvisioner

__all__ = ["build_two_providers", "run_e10"]

CORE_BPS = 10e6


def build_two_providers(seed: int = 101, qos: bool = True) -> dict[str, Any]:
    """Two 3-node providers (PE - P - ASBR) joined by option-A circuits."""
    net = Network(seed=seed)
    if qos:
        net.default_qdisc_factory = QdiscSpec("wfq")

    nodes: dict[str, Lsr] = {}
    for dom, tag in (("core-a", "a"), ("core-b", "b")):
        pe = net.add_node(PeRouter(net.sim, f"pe-{tag}"))
        p = net.add_node(Lsr(net.sim, f"p-{tag}"))
        asbr = net.add_node(PeRouter(net.sim, f"asbr-{tag}"))
        for n in (pe, p, asbr):
            n.domain = dom
            nodes[n.name] = n
        net.connect(pe, p, CORE_BPS, 1e-3)
        net.connect(p, asbr, CORE_BPS, 1e-3)

    # Each provider provisions its half of the customer(s) with its own
    # RD/RT numbering (separate provisioners = separate ASNs).
    prov_a = VpnProvisioner(net, asn=64500, access_rate_bps=CORE_BPS)
    prov_b = VpnProvisioner(net, asn=64510, access_rate_bps=CORE_BPS)
    corp_a = prov_a.create_vpn("corp")
    corp_b = prov_b.create_vpn("corp")
    other_a = prov_a.create_vpn("other")
    other_b = prov_b.create_vpn("other")
    site_a = prov_a.add_site(corp_a, nodes["pe-a"], prefix="10.1.0.0/24")  # type: ignore[arg-type]
    site_b = prov_b.add_site(corp_b, nodes["pe-b"], prefix="10.2.0.0/24")  # type: ignore[arg-type]
    o_a = prov_a.add_site(other_a, nodes["pe-a"], prefix="10.1.0.0/24")    # type: ignore[arg-type]
    o_b = prov_b.add_site(other_b, nodes["pe-b"], prefix="10.9.0.0/24")    # type: ignore[arg-type]

    # ASBR VRFs (each provider's own policy) + per-VPN circuits.
    asbr_a, asbr_b = nodes["asbr-a"], nodes["asbr-b"]
    assert isinstance(asbr_a, PeRouter) and isinstance(asbr_b, PeRouter)
    asbr_a.add_vrf("corp", corp_a.rd, {corp_a.rt}, {corp_a.rt})
    asbr_b.add_vrf("corp", corp_b.rd, {corp_b.rt}, {corp_b.rt})
    asbr_a.add_vrf("other", other_a.rd, {other_a.rt}, {other_a.rt})
    asbr_b.add_vrf("other", other_b.rd, {other_b.rt}, {other_b.rt})
    corp_circuit = connect_option_a(net, asbr_a, asbr_b, "corp", CORE_BPS)
    other_circuit = connect_option_a(net, asbr_a, asbr_b, "other", CORE_BPS)

    # Control plane, per the option-A call order.
    for dom in ("core-a", "core-b"):
        converge_all(net, domain=dom)
    bgp_a = MpBgp(net, [nodes["pe-a"], asbr_a])  # type: ignore[list-item]
    bgp_b = MpBgp(net, [nodes["pe-b"], asbr_b])  # type: ignore[list-item]
    bgp_a.converge()
    bgp_b.converge()
    exchanged = exchange_option_a(net, corp_circuit)
    exchanged += exchange_option_a(net, other_circuit)
    result_a = bgp_a.converge()
    result_b = bgp_b.converge()

    return {
        "net": net, "nodes": nodes,
        "site_a": site_a, "site_b": site_b, "o_a": o_a, "o_b": o_b,
        "routes_exchanged": exchanged,
        "ibgp_updates": result_a.updates_sent + result_b.updates_sent,
        "corp_circuit": corp_circuit,
    }


def run_e10(seed: int = 101, measure_s: float = 6.0) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """The E10 table: cross-provider QoS + isolation + control-plane cost."""
    ctx = build_two_providers(seed=seed, qos=True)
    net = ctx["net"]
    h_a = ctx["site_a"].hosts[0]
    h_b = ctx["site_b"].hosts[0]
    o_b_host = ctx["o_b"].hosts[0]

    run = ExperimentRun(net, warmup_s=0.3, measure_s=measure_s)
    sink = run.sink_at(h_b)
    other_sink = run.sink_at(o_b_host)

    voice = run.add_source(
        voice_source(net.sim, h_a.send, "voice", str(h_a.loopback), str(h_b.loopback))
    )
    bulk = run.add_source(
        CbrSource(
            net.sim, h_a.send, "bulk", str(h_a.loopback), str(h_b.loopback),
            payload_bytes=1400, dscp=int(DSCP.BE), rate_bps=12e6,
        )
    )
    run.execute(drain_s=0.5)

    voice_stats = run.stats_for(voice, sink)
    bulk_stats = run.stats_for(bulk, sink)
    verdict = evaluate(VOICE_SLA, voice_stats)
    cross_leak = other_sink.received("voice") + other_sink.received("bulk")
    rows = [
        {"flow": "voice (A→B cross-provider)", **voice_stats.row(),
         "sla": "PASS" if verdict.conformant else "FAIL"},
        {"flow": "bulk (A→B cross-provider)", **bulk_stats.row(), "sla": "n/a"},
    ]
    summary = {
        "routes_exchanged_over_border": ctx["routes_exchanged"],
        "ebgp_updates": net.counters["interas.ebgp_updates"],
        "cross_customer_leaks": cross_leak,
        "voice_sla": verdict,
        "voice": voice_stats,
        "bulk": bulk_stats,
        "ctx": ctx,
    }
    return rows, summary
