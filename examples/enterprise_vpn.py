#!/usr/bin/env python3
"""Enterprise VPN with end-to-end QoS — the paper's §5 deployment.

A company with four branch offices buys an MPLS VPN over the 12-node
reference backbone.  Each branch's CPE runs CBQ (voice guaranteed +
priority, data assured, bulk borrows what is left) and marks DiffServ
codepoints; the provider edge maps DSCP into MPLS EXP; the core schedules
on EXP.  Voice and transactional traffic between two branches then share
the backbone with a bulk transfer and another customer's load — and still
meet their SLAs.

Run:  python examples/enterprise_vpn.py
"""

from repro.control import converge_all
from repro.experiments import QdiscSpec
from repro.metrics import DATA_SLA, VOICE_SLA, evaluate, print_table, summarize_flow
from repro.mpls import Lsr
from repro.qos import CbqClass, CbqScheduler, DSCP, ba_classifier
from repro.topology import Network, build_backbone
from repro.traffic import CbrSource, FlowSink, OnOffSource, voice_source
from repro.vpn import PeRouter, VpnProvisioner


def cpe_cbq() -> CbqScheduler:
    """Branch-office CPE: 3-class CBQ on the access uplink."""
    return CbqScheduler(
        [
            CbqClass("voice", rate_bps=0.5e6, priority=0, can_borrow=False),
            CbqClass("data", rate_bps=1.5e6, priority=1, can_borrow=True),
            CbqClass("bulk", rate_bps=0.5e6, priority=2, can_borrow=True),
        ],
        ba_classifier,
    )


def main() -> None:
    net = Network(seed=2026)
    # EXP-aware WFQ on every provider interface.
    net.default_qdisc_factory = QdiscSpec("wfq")

    def factory(n, name):
        cls = PeRouter if name.startswith("E") else Lsr
        return n.add_node(cls(n.sim, name))

    nodes = build_backbone(net, core_rate_bps=20e6, edge_rate_bps=8e6,
                           node_factory=factory)

    prov = VpnProvisioner(net, access_rate_bps=4e6)
    acme = prov.create_vpn("acme")
    branches = [prov.add_site(acme, nodes[pe]) for pe in ("E1", "E3", "E6", "E8")]
    rival = prov.create_vpn("rival")  # another customer sharing the backbone
    r1 = prov.add_site(rival, nodes["E1"])
    r2 = prov.add_site(rival, nodes["E8"])

    converge_all(net, prov)

    # CBQ on every acme branch uplink (CE -> PE).
    for site in branches:
        site.ce.interfaces[site.ce_ifname].qdisc = cpe_cbq()

    # Traffic: branch 0 -> branch 3 voice + data + bulk, while the rival
    # customer floods the same core path with best-effort bulk.
    src_host = branches[0].hosts[0]
    dst_host = branches[3].hosts[0]
    sink = FlowSink(net.sim).attach(dst_host)
    rival_sink = FlowSink(net.sim).attach(r2.hosts[0])

    flows = {
        "voice": voice_source(net.sim, src_host.send, "voice",
                              str(src_host.loopback), str(dst_host.loopback)),
        "data": OnOffSource(net.sim, src_host.send, "data",
                            str(src_host.loopback), str(dst_host.loopback),
                            payload_bytes=700, dscp=int(DSCP.AF11),
                            peak_bps=2.5e6, mean_on_s=0.15, mean_off_s=0.35,
                            rng=net.streams.stream("ex.data")),
        "bulk": CbrSource(net.sim, src_host.send, "bulk",
                          str(src_host.loopback), str(dst_host.loopback),
                          payload_bytes=1400, dscp=int(DSCP.BE), rate_bps=5e6),
    }
    rival_bulk = CbrSource(net.sim, r1.hosts[0].send, "rival-bulk",
                           str(r1.hosts[0].loopback), str(r2.hosts[0].loopback),
                           payload_bytes=1400, dscp=int(DSCP.BE), rate_bps=6e6)
    for f in list(flows.values()) + [rival_bulk]:
        f.start(at=0.5, stop_at=8.5)
    net.run(until=9.5)

    rows = []
    for name, src in flows.items():
        stats = summarize_flow(src, sink, duration_s=8.0)
        row = stats.row()
        if name == "voice":
            row["sla"] = "PASS" if evaluate(VOICE_SLA, stats).conformant else "FAIL"
        elif name == "data":
            row["sla"] = "PASS" if evaluate(DATA_SLA, stats).conformant else "FAIL"
        else:
            row["sla"] = "n/a"
        rows.append(row)
    rows.append({**summarize_flow(rival_bulk, rival_sink, duration_s=8.0).row(),
                 "sla": "n/a"})
    print_table(rows, title="Enterprise VPN: per-class results under cross-customer load")

    voice_stats = summarize_flow(flows["voice"], sink, duration_s=8.0)
    verdict = evaluate(VOICE_SLA, voice_stats)
    print(f"\nVoice SLA: {'conformant' if verdict.conformant else 'VIOLATED'}"
          + ("" if verdict.conformant else f" — {'; '.join(verdict.violations())}"))


if __name__ == "__main__":
    main()
