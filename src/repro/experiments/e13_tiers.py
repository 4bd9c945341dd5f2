"""E13 — Per-VPN service tiers: "assign a QoS level to an entire VPN".

§2.2's proposed strategy, implemented end to end: three customers buy
gold / silver / bronze tiers; their managed CPEs mark and police *all*
their traffic into the tier's class; the backbone differentiates purely
on class.  All three customers then offer the **identical** workload over
the same congested core, and the tier — nothing else — determines what
they experience.

A second check exercises the contract's teeth: a gold customer offering
3× its committed rate keeps the tier only for the committed portion; the
excess rides best effort (srTCM demotion), protecting other gold
customers from a misbehaving one.
"""

from __future__ import annotations

from typing import Any

from repro.control import converge_all
from repro.experiments.common import ExperimentRun, QdiscSpec
from repro.mpls.lsr import Lsr
from repro.topology import Network
from repro.traffic.generators import CbrSource
from repro.vpn.pe import PeRouter
from repro.vpn.profiles import BRONZE, GOLD, SILVER, apply_profile
from repro.vpn.provision import VpnProvisioner

__all__ = ["build_tiered_network", "run_e13", "run_tiers"]

CORE_BPS = 6e6
OFFERED_BPS = 1.5e6   # identical workload per customer; 3 x 1.5 < 6 uncongested,
                      # so a 4 Mb/s BE filler creates the contention below.


def build_tiered_network(seed: int = 131) -> dict[str, Any]:
    net = Network(seed=seed)
    net.default_qdisc_factory = QdiscSpec("wfq")
    pe1 = net.add_node(PeRouter(net.sim, "pe1"))
    p1 = net.add_node(Lsr(net.sim, "p1"))
    pe2 = net.add_node(PeRouter(net.sim, "pe2"))
    net.connect(pe1, p1, CORE_BPS, 1e-3)
    net.connect(p1, pe2, CORE_BPS, 1e-3)

    prov = VpnProvisioner(net, access_rate_bps=20e6)
    customers = {}
    for tier in (GOLD, SILVER, BRONZE):
        vpn = prov.create_vpn(tier.name)
        s1 = prov.add_site(vpn, pe1)
        s2 = prov.add_site(vpn, pe2)
        customers[tier.name] = {"vpn": vpn, "sites": (s1, s2), "profile": tier}
    converge_all(net, prov)
    for c in customers.values():
        apply_profile(c["vpn"], c["profile"])
    return {"net": net, "prov": prov, "customers": customers}


def run_e13(seed: int = 131, measure_s: float = 8.0) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """The E13 table: identical workloads, tier-determined outcomes."""
    return run_tiers(build_tiered_network(seed), measure_s)


def run_tiers(ctx: dict[str, Any], measure_s: float) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """E13's workload and table on a :func:`build_tiered_network` result
    (or a restored snapshot of one)."""
    net = ctx["net"]
    run = ExperimentRun(net, warmup_s=0.5, measure_s=measure_s)

    sources = {}
    sinks = {}
    for name, c in ctx["customers"].items():
        s1, s2 = c["sites"]
        h1, h2 = s1.hosts[0], s2.hosts[0]
        sinks[name] = run.sink_at(h2)
        # DSCP deliberately 0 at the source: the *tier* marks, not the app.
        sources[name] = run.add_source(
            CbrSource(net.sim, h1.send, name, str(h1.loopback), str(h2.loopback),
                      payload_bytes=700, dscp=0, rate_bps=OFFERED_BPS)
        )
    # A gold customer going 3x over contract: its excess must demote, and
    # the in-contract gold above must stay clean.
    greedy = ctx["prov"].create_vpn("gold-greedy")
    g1 = ctx["prov"].add_site(greedy, net.node("pe1"))
    g2 = ctx["prov"].add_site(greedy, net.node("pe2"))
    converge_all(net, ctx["prov"])
    apply_profile(greedy, GOLD)
    sinks["gold-greedy"] = run.sink_at(g2.hosts[0])
    sources["gold-greedy"] = run.add_source(
        CbrSource(net.sim, g1.hosts[0].send, "gold-greedy",
                  str(g1.hosts[0].loopback), str(g2.hosts[0].loopback),
                  payload_bytes=700, dscp=0, rate_bps=3 * GOLD.cir_bps)
    )
    run.execute(drain_s=1.0)

    rows: list[dict[str, Any]] = []
    raw: dict[str, Any] = {"ctx": ctx}
    for name in ("gold", "silver", "bronze", "gold-greedy"):
        stats = run.stats_for(sources[name], sinks[name])
        raw[name] = stats
        rows.append({"customer": name, **stats.row()})
    return rows, raw
