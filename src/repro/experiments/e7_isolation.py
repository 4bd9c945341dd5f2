"""E7 — VPN isolation with overlapping address spaces, and extranets.

Claim C5 (§4): identifiers "allow a single routing system to support
multiple VPNs whose internal address spaces overlap with each other", and
"data traffic from different VPNs is kept separate".  We provision two
VPNs with *byte-identical* 10.0.x.0/24 address plans on the *same* pair of
PEs, blast traffic inside each, and count: intra-VPN deliveries (must be
100 %), cross-VPN deliveries (must be exactly zero — the destination
address exists in both VPNs, so any confusion would deliver somewhere).

The extranet variant then shows that sharing is a *policy* decision, not
an accident: a third VPN imports the first VPN's route target and gains
reachability to it — while the second VPN, still disjoint, stays sealed.
"""

from __future__ import annotations

from typing import Any

from repro.control import converge_all
from repro.experiments.common import ExperimentRun
from repro.mpls.lsr import Lsr
from repro.topology import Network, build_backbone
from repro.traffic.generators import CbrSource
from repro.traffic.sink import FlowSink
from repro.vpn.pe import PeRouter
from repro.vpn.provision import VpnProvisioner

__all__ = ["build_overlap_scenario", "run_e7"]


def build_overlap_scenario(seed: int = 61, extranet: bool = False) -> dict[str, Any]:
    """Two (plus optionally a third) VPNs with identical address plans."""
    net = Network(seed=seed)

    def factory(n: Network, name: str):
        cls = PeRouter if name.startswith("E") else Lsr
        return n.add_node(cls(n.sim, name))

    nodes = build_backbone(net, node_factory=factory)
    prov = VpnProvisioner(net)

    red = prov.create_vpn("red")
    blue = prov.create_vpn("blue")
    # Identical plans: site 1 = 10.0.1.0/24 on E1, site 2 = 10.0.2.0/24 on E8.
    sites = {}
    for vpn in (red, blue):
        sites[vpn.name, 1] = prov.add_site(vpn, nodes["E1"], prefix="10.0.1.0/24")
        sites[vpn.name, 2] = prov.add_site(vpn, nodes["E8"], prefix="10.0.2.0/24")

    green = None
    if extranet:
        green = prov.create_vpn("green")
        sites["green", 1] = prov.add_site(green, nodes["E4"], prefix="10.7.1.0/24")
        # Extranet policy: green additionally imports red's RT (one-way
        # visibility is enough to prove the point; symmetric import lets
        # red answer).
        for pe in prov.pes():
            if "green" in pe.vrfs:
                vrf = pe.vrfs["green"]
                vrf.import_rts = frozenset(vrf.import_rts | {red.rt})
            if "red" in pe.vrfs:
                vrf = pe.vrfs["red"]
                vrf.import_rts = frozenset(vrf.import_rts | {green.rt})

    converge_all(net, prov)
    return {"net": net, "prov": prov, "sites": sites, "red": red, "blue": blue, "green": green}


def run_e7(
    seed: int = 61, measure_s: float = 3.0
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """The E7 table: per-VPN delivery / leak counts + extranet reachability."""
    ctx = build_overlap_scenario(seed, extranet=True)
    net = ctx["net"]
    sites = ctx["sites"]

    run = ExperimentRun(net, warmup_s=0.1, measure_s=measure_s)
    sinks: dict[str, FlowSink] = {}
    sources = {}
    # Within each of red/blue: site1 host -> the (shared!) 10.0.2.0/24 host
    # address.  The flow names differ, so a mis-delivered packet shows up in
    # the other VPN's sink under a foreign flow name.
    for vpn_name in ("red", "blue"):
        s1, s2 = sites[vpn_name, 1], sites[vpn_name, 2]
        h1, h2 = s1.hosts[0], s2.hosts[0]
        sinks[vpn_name] = run.sink_at(h2)
        sources[vpn_name] = run.add_source(
            CbrSource(
                net.sim, h1.send, f"{vpn_name}-flow",
                str(h1.loopback), str(h2.loopback),
                payload_bytes=400, rate_bps=1e6,
            )
        )
    # Extranet: green reaches a red destination.
    g1 = sites["green", 1].hosts[0]
    red_dst = sites["red", 2].hosts[0]
    sources["green"] = run.add_source(
        CbrSource(
            net.sim, g1.send, "green-to-red",
            str(g1.loopback), str(red_dst.loopback),
            payload_bytes=400, rate_bps=0.5e6,
        )
    )
    run.execute(drain_s=0.5)

    rows: list[dict[str, Any]] = []
    red_sink, blue_sink = sinks["red"], sinks["blue"]
    cross = {
        "red": blue_sink.received("red-flow"),
        "blue": red_sink.received("blue-flow"),
    }
    for vpn_name in ("red", "blue"):
        src = sources[vpn_name]
        own = sinks[vpn_name].received(f"{vpn_name}-flow")
        rows.append(
            {
                "vpn": vpn_name,
                "sent": src.sent,
                "delivered_intra": own,
                "delivered_cross": cross[vpn_name],
                "intra_ratio": round(own / src.sent, 4) if src.sent else 0.0,
            }
        )
    extranet_delivered = red_sink.received("green-to-red")
    rows.append(
        {
            "vpn": "green(extranet->red)",
            "sent": sources["green"].sent,
            "delivered_intra": extranet_delivered,
            "delivered_cross": blue_sink.received("green-to-red"),
            "intra_ratio": round(extranet_delivered / sources["green"].sent, 4),
        }
    )
    raw = {"ctx": ctx, "sinks": sinks, "sources": sources, "cross": cross}
    return rows, raw
