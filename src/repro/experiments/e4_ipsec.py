"""E4 — Encryption vs QoS: the IPsec overlay against the MPLS VPN.

Claim C3: "during the development of the second encryption tunnel, all
information including the IP and MAC addresses are encrypted thus erasing
any hope one may have to control QoS."  Structurally: once traffic enters
an ESP tunnel, interior classifiers see only the outer header.  If the
gateway does not copy the inner DSCP outward, every customer flow lands in
one behaviour aggregate and the voice class dies under congestion.  The
MPLS VPN carries the class in the (cleartext) EXP bits instead, so interior
scheduling keeps working even though the customer payload could be
encrypted end-to-end.

Configs over the same congested two-core-hop backbone with WFQ queues:

* ``ipsec-blind`` — ESP tunnel, outer DSCP = 0 (the default of early
  implementations): voice drowns with the bulk traffic.
* ``ipsec-copy``  — ESP tunnel with RFC 2983 DSCP copy-out: aggregate QoS
  restored (at the cost of revealing the class, a known traffic-analysis
  trade-off).
* ``mpls-vpn``    — BGP/MPLS VPN with DSCP→EXP mapping at the PE.

Each row also reports the tunnel byte overhead and the IKE handshake cost
(messages + latency) the MPLS VPN does not pay.
"""

from __future__ import annotations

from typing import Any

from repro.control import converge_all
from repro.experiments.common import ExperimentRun, QdiscSpec
from repro.mpls.lsr import Lsr
from repro.net.node import ProcessingModel
from repro.qos.dscp import DSCP
from repro.routing.spf import converge
from repro.topology import Network, attach_host, build_line
from repro.traffic.generators import CbrSource, OnOffSource, voice_source
from repro.vpn.ipsec import IKEV1_HANDSHAKE_MESSAGES, IpsecGateway, esp_overhead_bytes
from repro.vpn.pe import PeRouter
from repro.vpn.provision import VpnProvisioner

__all__ = ["run_ipsec_config", "run_mpls_config", "run_e4", "CONFIGS"]

BOTTLENECK_BPS = 5e6
CRYPTO_BPS = 40e6  # software 3DES-class throughput of the era
CONFIGS = ("ipsec-blind", "ipsec-copy", "mpls-vpn")


def _mix(run: ExperimentRun, send, src_addr: str, dst_addr: str, stream_tag: str):
    net = run.net
    voice = run.add_source(voice_source(net.sim, send, "voice", src_addr, dst_addr))
    data = run.add_source(
        OnOffSource(
            net.sim, send, "data", src_addr, dst_addr,
            payload_bytes=700, dscp=int(DSCP.AF11), proto="tcp",
            peak_bps=4e6, mean_on_s=0.2, mean_off_s=0.3,
            rng=net.streams.stream(f"{stream_tag}.data"),
        )
    )
    bulk = run.add_source(
        CbrSource(
            net.sim, send, "bulk", src_addr, dst_addr,
            payload_bytes=1400, dscp=int(DSCP.BE), rate_bps=6e6,
        )
    )
    return voice, data, bulk


def run_ipsec_config(
    copy_dscp: bool, seed: int = 31, measure_s: float = 8.0
) -> dict[str, Any]:
    """IPsec overlay over a DiffServ IP backbone."""
    net = Network(seed=seed)
    net.default_qdisc_factory = QdiscSpec("wfq")
    routers = build_line(net, 2, prefix="p", rate_bps=BOTTLENECK_BPS)

    crypto = ProcessingModel(crypto_bps=CRYPTO_BPS)
    gw1 = net.add_node(IpsecGateway(net.sim, "gw1", processing=crypto))
    gw2 = net.add_node(IpsecGateway(net.sim, "gw2", processing=crypto))
    net.connect(gw1, routers[0], BOTTLENECK_BPS, 1e-3)
    net.connect(gw2, routers[1], BOTTLENECK_BPS, 1e-3)

    h1 = attach_host(net, gw1, "10.1.0.1", name="tx", advertise=False)
    h2 = attach_host(net, gw2, "10.2.0.1", name="rx", advertise=False)
    converge(net)

    rtt = 4 * 2e-3  # gw-gw round trip through the backbone
    gw1.add_policy("10.2.0.0/24", gw2.loopback)
    gw2.add_policy("10.1.0.0/24", gw1.loopback)
    sa1 = gw1.establish_sa(gw2.loopback, rtt_s=rtt, copy_dscp=copy_dscp)
    sa2 = gw2.establish_sa(gw1.loopback, rtt_s=rtt, copy_dscp=copy_dscp)

    run = ExperimentRun(net, warmup_s=0.5, measure_s=measure_s)
    sink = run.sink_at(h2)
    voice, data, bulk = _mix(run, h1.send, "10.1.0.1", "10.2.0.1", "e4.ipsec")
    run.execute(drain_s=1.0)
    return {
        "config": "ipsec-copy" if copy_dscp else "ipsec-blind",
        "voice": run.stats_for(voice, sink),
        "data": run.stats_for(data, sink),
        "bulk": run.stats_for(bulk, sink),
        "ike_messages": sa1.ike_messages + sa2.ike_messages,
        "ike_latency_s": (IKEV1_HANDSHAKE_MESSAGES / 2.0) * rtt,
        # Per-packet tunnel overhead for a voice packet: outer IP header +
        # ESP framing around the 180-byte inner datagram.
        "voice_overhead_bytes": 20 + esp_overhead_bytes(180),
        "encapsulated": sa1.encapsulated + sa2.encapsulated,
        "net": net,
    }


def run_mpls_config(seed: int = 33, measure_s: float = 8.0) -> dict[str, Any]:
    """BGP/MPLS VPN over the same backbone geometry."""
    net = Network(seed=seed)
    net.default_qdisc_factory = QdiscSpec("wfq")
    pe1 = net.add_node(PeRouter(net.sim, "pe1"))
    p1 = net.add_node(Lsr(net.sim, "p1"))
    p2 = net.add_node(Lsr(net.sim, "p2"))
    pe2 = net.add_node(PeRouter(net.sim, "pe2"))
    net.connect(pe1, p1, BOTTLENECK_BPS, 1e-3)
    net.connect(p1, p2, BOTTLENECK_BPS, 1e-3)
    net.connect(p2, pe2, BOTTLENECK_BPS, 1e-3)

    prov = VpnProvisioner(net, access_rate_bps=BOTTLENECK_BPS)
    vpn = prov.create_vpn("corp")
    s1 = prov.add_site(vpn, pe1, prefix="10.1.0.0/24")
    s2 = prov.add_site(vpn, pe2, prefix="10.2.0.0/24")
    converge_all(net, prov)

    h1, h2 = s1.hosts[0], s2.hosts[0]
    src_addr, dst_addr = str(h1.loopback), str(h2.loopback)

    run = ExperimentRun(net, warmup_s=0.5, measure_s=measure_s)
    sink = run.sink_at(h2)
    voice, data, bulk = _mix(run, h1.send, src_addr, dst_addr, "e4.mpls")
    run.execute(drain_s=1.0)
    return {
        "config": "mpls-vpn",
        "voice": run.stats_for(voice, sink),
        "data": run.stats_for(data, sink),
        "bulk": run.stats_for(bulk, sink),
        "ike_messages": 0,
        "ike_latency_s": 0.0,
        # Two-level label stack = 8 bytes on the wire.
        "voice_overhead_bytes": 8,
        "encapsulated": 0,
        "net": net,
    }


def run_e4(seed: int = 31, measure_s: float = 8.0) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """The E4 table: config × class + tunnel-cost columns."""
    results = [
        run_ipsec_config(copy_dscp=False, seed=seed, measure_s=measure_s),
        run_ipsec_config(copy_dscp=True, seed=seed, measure_s=measure_s),
        run_mpls_config(seed=seed + 2, measure_s=measure_s),
    ]
    rows: list[dict[str, Any]] = []
    raw: dict[str, Any] = {}
    for result in results:
        raw[result["config"]] = result
        for flow in ("voice", "data", "bulk"):
            rows.append(
                {
                    "config": result["config"],
                    **result[flow].row(),
                    "ovh_B": result["voice_overhead_bytes"],
                    "ike_msgs": result["ike_messages"],
                }
            )
    return rows, raw
