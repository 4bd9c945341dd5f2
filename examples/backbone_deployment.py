#!/usr/bin/env python3
"""Capstone: a full provider deployment on the 12-node reference backbone.

Everything the paper describes, running at once, as an operator would see
it: the two-level backbone (Fig. 4), three customers — a gold-tier
enterprise VPN, a silver hub-and-spoke bank, a bronze best-effort shop —
QoS-scheduled cores, TE tunnels with fast-reroute protection on the
enterprise path, IP-SLA probes monitoring each tier, and a mid-run core
link failure that the protected traffic survives.

Prints the provider's dashboard: per-customer probe SLAs, link
utilization of the core mesh, control-plane inventory, and a network
audit.

Run:  python examples/backbone_deployment.py   (~15 s)
"""

from repro.audit import audit
from repro.control import converge_all
from repro.experiments import QdiscSpec
from repro.metrics import VOICE_SLA, ProbeAgent, print_table
from repro.mpls import FastReroute, Lsr, TrafficEngineering
from repro.net.address import Prefix
from repro.topology import Network, build_backbone
from repro.traffic import FlowSink, OnOffSource
from repro.vpn import BRONZE, GOLD, SILVER, PeRouter, VpnProvisioner, apply_profile

RUN_S = 10.0


def main() -> None:
    net = Network(seed=2000)
    net.default_qdisc_factory = QdiscSpec("wfq")

    def factory(n, name):
        cls = PeRouter if name.startswith("E") else Lsr
        return n.add_node(cls(n.sim, name))

    nodes = build_backbone(net, core_rate_bps=30e6, edge_rate_bps=10e6,
                           node_factory=factory)

    # --- customers -----------------------------------------------------
    prov = VpnProvisioner(net, access_rate_bps=8e6)
    enterprise = prov.create_vpn("enterprise")
    ent_sites = [prov.add_site(enterprise, nodes[pe]) for pe in ("E1", "E8")]
    bank = prov.create_hub_spoke_vpn("bank")
    bank_hq = prov.add_site(bank, nodes["E4"], role="hub")
    bank_sites = [prov.add_site(bank, nodes[pe]) for pe in ("E2", "E6")]
    shop = prov.create_vpn("shop")
    shop_sites = [prov.add_site(shop, nodes[pe]) for pe in ("E3", "E7")]

    prov.bgp_engine(route_reflector="E1")
    _igp, ldp, bgp = converge_all(net, prov)
    apply_profile(enterprise, GOLD)
    apply_profile(bank, SILVER)
    apply_profile(shop, BRONZE)

    # --- TE + protection for the gold customer's PE pair ---------------
    te = TrafficEngineering(net)
    lsp = te.setup("gold-trunk", "E1", "E8", bandwidth_bps=4e6, php=False)
    te.autoroute(lsp, [Prefix.of(nodes["E8"].loopback, 32)])
    frr = FastReroute(te)
    protected = frr.protect_lsp(lsp)

    # --- traffic ---------------------------------------------------------
    flows = []
    pairs = [
        (ent_sites[0], ent_sites[1], "enterprise", 2.0e6),
        (bank_sites[0], bank_sites[1], "bank", 1.5e6),       # via the HQ CE
        (shop_sites[0], shop_sites[1], "shop", 5.0e6),       # greedy bronze
    ]
    sinks = {}
    for s_from, s_to, name, rate in pairs:
        h1, h2 = s_from.hosts[0], s_to.hosts[0]
        sinks[name] = FlowSink(net.sim).attach(h2)
        src = OnOffSource(net.sim, h1.send, name, str(h1.loopback),
                          str(h2.loopback), payload_bytes=900,
                          peak_bps=rate * 2, mean_on_s=0.2, mean_off_s=0.2,
                          rng=net.streams.stream(f"cap.{name}"))
        src.start(0.5, stop_at=RUN_S)
        flows.append((name, src))
    # Probes, one per customer, in the customer's own tier class.
    probes = {}
    for (s_from, s_to, name, _r), dscp in zip(pairs, (GOLD.dscp, SILVER.dscp, BRONZE.dscp)):
        probes[name] = ProbeAgent(net.sim, s_from.hosts[0], s_to.hosts[0],
                                  str(s_from.hosts[0].loopback),
                                  str(s_to.hosts[0].loopback),
                                  dscp=dscp, interval_s=0.02)
        probes[name].start(1.0, stop_at=RUN_S)

    # --- mid-run failure on a protected core link ----------------------
    plr_link = (protected[0].plr, protected[0].merge_point)

    def fail():
        net.link_between(*plr_link).set_up(False)
        repaired = frr.trigger_link_failure(*plr_link)
        print(f"[t={net.sim.now:.1f}s] core link {plr_link[0]}-{plr_link[1]} "
              f"FAILED; fast reroute repaired {repaired} LSP(s) locally")

        def igp_recovers():
            # The rest of the backbone (LDP-routed customers) waits for the
            # tuned IGP: reconverge, and LDP and MP-BGP follow it 1 s later.
            # The gold trunk never noticed (LDP leaves its autoroute binding
            # alone); everyone else eats a 1 s outage.
            moved = converge_all(net, prov).ldp
            print(f"[t={net.sim.now:.1f}s] IGP reconverged; LDP rewrote "
                  f"{moved.written} and withdrew {moved.withdrawn} label entries")
        net.sim.schedule(1.0, igp_recovers)
    net.sim.schedule(RUN_S / 2, fail)

    net.run(until=RUN_S + 1.0)

    # --- dashboard ------------------------------------------------------
    rows = []
    for name, src in flows:
        probe = probes[name]
        verdict = probe.check(VOICE_SLA, duration_s=RUN_S - 1.0)
        rows.append({
            "customer": name,
            "tier": {"enterprise": "gold", "bank": "silver", "shop": "bronze"}[name],
            "delivered": sinks[name].received(name),
            "offered": src.sent,
            "probe_p95_ms": round(1e3 * probe.delay_percentile(95), 2),
            "probe_loss%": round(100 * probe.loss_ratio(), 2),
            "voice_sla": "PASS" if verdict.conformant else "FAIL",
        })
    print_table(rows, title="Per-customer service dashboard (probe-measured)")

    util = net.link_utilization(RUN_S)
    core = {k: round(v, 3) for k, v in util.items()
            if k.split("->")[0].startswith("P") and "P" in k.split("->")[1]}
    busiest = sorted(core.items(), key=lambda kv: -kv[1])[:6]
    print_table([{"core_link": k, "utilization": v} for k, v in busiest],
                title="\nBusiest core links")

    print(f"\nControl plane: {ldp.sessions} LDP sessions, "
          f"{bgp.sessions} iBGP sessions (route reflector), "
          f"{bgp.routes_imported} VPN routes imported, "
          f"{len(te.lsps)} TE LSPs ({len(protected)} protected hops).")
    errors = [f for f in audit(net) if f.severity == "error"]
    print(f"Network audit: {len(errors)} errors.")
    assert not errors


if __name__ == "__main__":
    main()
