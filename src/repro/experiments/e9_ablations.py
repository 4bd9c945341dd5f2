"""E9 — Ablations over the design choices DESIGN.md calls out.

Five sub-studies, each isolating one knob of the architecture:

* **E9a schedulers** — FIFO / strict priority / WRR / DRR / WFQ in the
  core: how much EF delay/jitter each buys, and what it costs BE.
* **E9b AQM** — DropTail vs RED vs WRED on the bottleneck under bursty
  load: standing-queue delay and drop placement.
* **E9c EXP placement & PHP** — who carries the class on the last hop:
  EXP on both stack entries (RFC 3270's safe default), outer-only with
  PHP (class lost one hop early → last-hop QoS hole), outer-only with
  explicit-null (class kept to the egress).
* **E9d label-stack overhead** — wire efficiency vs stack depth and
  payload size (the 4-byte shim is the entire data-plane cost of MPLS).
* **E9e iBGP topology** — full mesh vs route reflector: sessions scale
  O(P²) vs O(P) while update counts match (reflection saves sessions,
  not messages).
"""

from __future__ import annotations

from typing import Any

from repro.experiments.common import ExperimentRun, QdiscSpec
from repro.mpls.ldp import run_ldp
from repro.mpls.lsr import Lsr
from repro.net.packet import IPV4_HEADER_BYTES, MPLS_SHIM_BYTES
from repro.qos.classifier import llsp_classifier
from repro.qos.dscp import DSCP
from repro.qos.red import RedParams
from repro.routing.spf import converge
from repro.topology import Network, attach_host, build_backbone, build_line
from repro.traffic.generators import CbrSource, OnOffSource, voice_source
from repro.vpn.pe import PeRouter
from repro.vpn.provision import VpnProvisioner

__all__ = [
    "run_e9a_schedulers",
    "run_e9b_aqm",
    "run_e9c_exp_php",
    "run_e9d_stack_overhead",
    "run_e9e_ibgp",
    "run_e9f_elsp_llsp",
    "run_e9",
]

BOTTLENECK_BPS = 5e6


# ---------------------------------------------------------------------------
# E9a — scheduler comparison
# ---------------------------------------------------------------------------

def run_e9a_schedulers(
    seed: int = 91, measure_s: float = 6.0
) -> tuple[list[dict[str, Any]], dict[str, Any]]:

    rows: list[dict[str, Any]] = []
    raw: dict[str, Any] = {}
    for kind in ("fifo", "priority", "wrr", "drr", "wfq"):
        net = Network(seed=seed)
        net.default_qdisc_factory = QdiscSpec(kind)
        routers = build_line(net, 4, rate_bps=BOTTLENECK_BPS)
        tx = attach_host(net, routers[0], "10.91.0.1", name="tx")
        rx = attach_host(net, routers[3], "10.91.0.2", name="rx")
        converge(net)

        run = ExperimentRun(net, warmup_s=0.5, measure_s=measure_s)
        sink = run.sink_at(rx)
        voice = run.add_source(
            voice_source(net.sim, tx.send, "voice", "10.91.0.1", "10.91.0.2")
        )
        data = run.add_source(
            OnOffSource(
                net.sim, tx.send, "data", "10.91.0.1", "10.91.0.2",
                payload_bytes=700, dscp=int(DSCP.AF11),
                peak_bps=4e6, mean_on_s=0.2, mean_off_s=0.3,
                rng=net.streams.stream("e9a.data"),
            )
        )
        bulk = run.add_source(
            CbrSource(
                net.sim, tx.send, "bulk", "10.91.0.1", "10.91.0.2",
                payload_bytes=1400, dscp=int(DSCP.BE), rate_bps=6e6,
            )
        )
        run.execute(drain_s=1.0)
        v = run.stats_for(voice, sink)
        b = run.stats_for(bulk, sink)
        raw[kind] = {"voice": v, "data": run.stats_for(data, sink), "bulk": b, "net": net}
        rows.append(
            {
                "scheduler": kind,
                "voice_p99_ms": round(v.p99_delay_s * 1e3, 3),
                "voice_jitter_ms": round(v.jitter_rfc3550_s * 1e3, 3),
                "voice_loss%": round(v.loss_ratio * 100, 2),
                "bulk_thru_kbps": round(b.throughput_bps / 1e3, 1),
                "bulk_loss%": round(b.loss_ratio * 100, 2),
            }
        )
    return rows, raw


# ---------------------------------------------------------------------------
# E9b — AQM comparison
# ---------------------------------------------------------------------------

def run_e9b_aqm(
    seed: int = 92, measure_s: float = 6.0
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    rows: list[dict[str, Any]] = []
    raw: dict[str, Any] = {}
    cap_bytes = 150 * 1500
    red = RedParams(min_th=cap_bytes // 5, max_th=cap_bytes // 2, max_p=0.1)
    for kind in ("droptail", "red", "wred"):
        net = Network(seed=seed)
        net.default_qdisc_factory = QdiscSpec(
            kind, cap_bytes, net.streams.stream("e9b.aqm"), red if kind == "red" else None
        )
        routers = build_line(net, 3, rate_bps=BOTTLENECK_BPS)
        tx = attach_host(net, routers[0], "10.92.0.1", name="tx")
        rx = attach_host(net, routers[2], "10.92.0.2", name="rx")
        converge(net)

        run = ExperimentRun(net, warmup_s=0.5, measure_s=measure_s)
        sink = run.sink_at(rx)
        # Eight bursty AF flows at staggered drop precedences overload the
        # bottleneck ~1.3x on average, far more at burst coincidence.
        sources = []
        af_dscps = [int(DSCP.AF11), int(DSCP.AF12), int(DSCP.AF13)]
        for i in range(8):
            sources.append(
                run.add_source(
                    OnOffSource(
                        net.sim, tx.send, f"burst{i}", "10.92.0.1", "10.92.0.2",
                        payload_bytes=1000, dscp=af_dscps[i % 3],
                        peak_bps=2e6, mean_on_s=0.25, mean_off_s=0.35,
                        rng=net.streams.stream(f"e9b.src{i}"),
                    )
                )
            )
        run.execute(drain_s=1.0)
        stats = [run.stats_for(s, sink) for s in sources]
        mean_delay = sum(s.mean_delay_s for s in stats) / len(stats)
        p99 = max(s.p99_delay_s for s in stats)
        loss = sum(s.sent - s.received for s in stats) / max(1, sum(s.sent for s in stats))
        goodput = sum(s.throughput_bps for s in stats)
        raw[kind] = {"stats": stats, "net": net}
        rows.append(
            {
                "aqm": kind,
                "mean_delay_ms": round(mean_delay * 1e3, 2),
                "worst_p99_ms": round(p99 * 1e3, 2),
                "loss%": round(loss * 100, 2),
                "goodput_kbps": round(goodput / 1e3, 1),
            }
        )
    return rows, raw


# ---------------------------------------------------------------------------
# E9c — EXP placement and PHP
# ---------------------------------------------------------------------------

def run_e9c_exp_php(
    seed: int = 93, measure_s: float = 6.0
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    rows: list[dict[str, Any]] = []
    raw: dict[str, Any] = {}
    variants = (
        ("both+php", "both", True, False),
        ("outer-only+php", "outer-only", True, False),
        ("outer-only+explicit-null", "outer-only", False, True),
    )
    for label, exp_mode, php, explicit_null in variants:
        net = Network(seed=seed)
        net.default_qdisc_factory = QdiscSpec("wfq")
        pe1 = net.add_node(PeRouter(net.sim, "pe1"))
        p1 = net.add_node(Lsr(net.sim, "p1"))
        pe2 = net.add_node(PeRouter(net.sim, "pe2"))
        net.connect(pe1, p1, 20e6, 1e-3)
        net.connect(p1, pe2, BOTTLENECK_BPS, 1e-3)  # last hop is the bottleneck

        prov = VpnProvisioner(net, access_rate_bps=20e6)
        vpn = prov.create_vpn("corp")
        s1 = prov.add_site(vpn, pe1, prefix="10.1.0.0/24")
        s2 = prov.add_site(vpn, pe2, prefix="10.2.0.0/24")
        converge(net)
        run_ldp(net, php=php, use_explicit_null=explicit_null)
        prov.converge_bgp()
        pe1.exp_mode = exp_mode
        pe2.exp_mode = exp_mode

        h1, h2 = s1.hosts[0], s2.hosts[0]
        run = ExperimentRun(net, warmup_s=0.5, measure_s=measure_s)
        sink = run.sink_at(h2)
        voice = run.add_source(
            voice_source(net.sim, h1.send, "voice", str(h1.loopback), str(h2.loopback))
        )
        bulk = run.add_source(
            CbrSource(
                net.sim, h1.send, "bulk", str(h1.loopback), str(h2.loopback),
                payload_bytes=1400, dscp=int(DSCP.BE), rate_bps=6e6,
            )
        )
        run.execute(drain_s=1.0)
        v = run.stats_for(voice, sink)
        raw[label] = {"voice": v, "bulk": run.stats_for(bulk, sink), "net": net}
        rows.append(
            {
                "variant": label,
                "voice_p99_ms": round(v.p99_delay_s * 1e3, 3),
                "voice_loss%": round(v.loss_ratio * 100, 2),
                "voice_jitter_ms": round(v.jitter_rfc3550_s * 1e3, 3),
            }
        )
    return rows, raw


# ---------------------------------------------------------------------------
# E9d — label-stack wire overhead
# ---------------------------------------------------------------------------

def run_e9d_stack_overhead() -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Analytic wire efficiency per stack depth and payload size.

    Depth 0 = plain IP; 1 = LDP transport; 2 = VPN (tunnel + VPN label);
    3 = e.g. carrier's-carrier or FRR backup over the VPN stack.
    """
    rows: list[dict[str, Any]] = []
    payloads = (64, 160, 512, 1400)
    for depth in range(4):
        row: dict[str, Any] = {"labels": depth, "hdr_bytes": IPV4_HEADER_BYTES + depth * MPLS_SHIM_BYTES}
        for p in payloads:
            wire = p + IPV4_HEADER_BYTES + depth * MPLS_SHIM_BYTES
            row[f"eff_{p}B"] = round(p / wire, 4)
        rows.append(row)
    return rows, {"payloads": payloads}


# ---------------------------------------------------------------------------
# E9e — iBGP session topology
# ---------------------------------------------------------------------------

def run_e9e_ibgp(
    pe_counts: tuple[int, ...] = (2, 4, 8), sites_per_pe: int = 4, seed: int = 95
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    rows: list[dict[str, Any]] = []
    raw: dict[str, Any] = {}
    for n_pes in pe_counts:
        pes = [f"E{i + 1}" for i in range(n_pes)]
        topologies: list[tuple[str, dict[str, Any]]] = [
            ("full-mesh", {}),
            ("route-reflector", {"route_reflector": pes[0]}),
        ]
        if n_pes >= 4:
            # Two single-RR clusters, and one redundant RR pair sharing a
            # cluster id (its partner copies are cluster-list suppressed).
            topologies.append(
                ("rr-cluster-2", {"rr_clusters": [pes[0], pes[1]]})
            )
            topologies.append(
                ("rr-redundant", {"rr_clusters": [(pes[0], pes[1])]})
            )
        for topology, bgp_kwargs in topologies:
            net = Network(seed=seed)

            def factory(n: Network, name: str):
                cls = PeRouter if name.startswith("E") else Lsr
                return n.add_node(cls(n.sim, name))

            nodes = build_backbone(net, node_factory=factory)
            prov = VpnProvisioner(net)
            vpn = prov.create_vpn("corp")
            for i in range(n_pes * sites_per_pe):
                prov.add_site(vpn, nodes[pes[i % n_pes]], num_hosts=0)  # type: ignore[arg-type]
            converge(net)
            result = prov.converge_bgp(**bgp_kwargs)
            raw[(n_pes, topology)] = result
            rows.append(
                {
                    "pes": n_pes,
                    "topology": topology,
                    "sessions": result.sessions,
                    "updates": result.updates_sent,
                    "suppressed": result.updates_suppressed,
                    "routes_imported": result.routes_imported,
                }
            )
    return rows, raw


# ---------------------------------------------------------------------------
# E9f — E-LSP vs L-LSP (RFC 3270's two DiffServ-over-MPLS models)
# ---------------------------------------------------------------------------

def run_e9f_elsp_llsp(
    seed: int = 96, measure_s: float = 6.0
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """One EXP-classed LSP vs one LSP *per class* whose label implies it.

    The QoS outcome should be identical; the cost difference is state —
    L-LSPs multiply label/LFIB entries by the class count.  RFC 3270
    documents exactly this trade (E-LSPs limited to 8 classes by the
    3-bit EXP field, L-LSPs unlimited but state-hungry).
    """
    from repro.mpls.te import TrafficEngineering
    from repro.net.address import Prefix

    rows: list[dict[str, Any]] = []
    raw: dict[str, Any] = {}
    for model in ("e-lsp", "l-lsp"):
        net = Network(seed=seed)
        # WFQ behind each node's L-LSP-aware classifier (EXP for E-LSPs).
        net.default_qdisc_factory = QdiscSpec("wfq", classifier=llsp_classifier)

        routers = [net.add_node(Lsr(net.sim, f"r{i}")) for i in range(4)]
        for i in range(3):
            net.connect(routers[i], routers[i + 1], BOTTLENECK_BPS, 1e-3)
        tx = attach_host(net, routers[0], "10.96.0.1", name="tx")
        # One destination per class so the ingress can steer per-class LSPs.
        rx_hosts = [
            attach_host(net, routers[3], f"10.96.1.{i + 1}", name=f"rx{i}")
            for i in range(3)
        ]
        converge(net)

        te = TrafficEngineering(net, subscription=2.0)
        if model == "e-lsp":
            lsp = te.signal("all", [f"r{i}" for i in range(4)], 1e6, php=False)
            for i in range(3):
                te.autoroute(lsp, [Prefix.parse(f"10.96.1.{i + 1}/32")])
        else:
            for i in range(3):
                lsp = te.signal(f"class{i}", [f"r{i2}" for i2 in range(4)],
                                1e6, php=False, scheduling_class=i)
                te.autoroute(lsp, [Prefix.parse(f"10.96.1.{i + 1}/32")])
            # EXP deliberately zeroed: the *label* must carry the class.
            for r in routers:
                r.impose_exp = 0

        run = ExperimentRun(net, warmup_s=0.5, measure_s=measure_s)
        sinks = [run.sink_at(h) for h in rx_hosts]
        voice = run.add_source(
            voice_source(net.sim, tx.send, "voice", "10.96.0.1", "10.96.1.1")
        )
        data = run.add_source(
            OnOffSource(
                net.sim, tx.send, "data", "10.96.0.1", "10.96.1.2",
                payload_bytes=700, dscp=int(DSCP.AF11),
                peak_bps=4e6, mean_on_s=0.2, mean_off_s=0.3,
                rng=net.streams.stream("e9f.data"),
            )
        )
        bulk = run.add_source(
            CbrSource(
                net.sim, tx.send, "bulk", "10.96.0.1", "10.96.1.3",
                payload_bytes=1400, dscp=int(DSCP.BE), rate_bps=6e6,
            )
        )
        run.execute(drain_s=1.0)
        v = run.stats_for(voice, sinks[0])
        lfib_entries = sum(len(r.lfib) for r in routers)
        labels_in_use = sum(r.labels.in_use for r in routers)
        raw[model] = {"voice": v, "data": run.stats_for(data, sinks[1]),
                      "bulk": run.stats_for(bulk, sinks[2]), "net": net}
        rows.append(
            {
                "model": model,
                "voice_p99_ms": round(v.p99_delay_s * 1e3, 3),
                "voice_loss%": round(v.loss_ratio * 100, 2),
                "lsps": 1 if model == "e-lsp" else 3,
                "lfib_entries": lfib_entries,
                "labels_in_use": labels_in_use,
            }
        )
    return rows, raw


def run_e9(measure_s: float = 6.0) -> dict[str, tuple[list[dict[str, Any]], dict[str, Any]]]:
    """Run every ablation; keyed by sub-study."""
    return {
        "schedulers": run_e9a_schedulers(measure_s=measure_s),
        "aqm": run_e9b_aqm(measure_s=measure_s),
        "exp_php": run_e9c_exp_php(measure_s=measure_s),
        "stack_overhead": run_e9d_stack_overhead(),
        "ibgp": run_e9e_ibgp(),
        "elsp_vs_llsp": run_e9f_elsp_llsp(measure_s=measure_s),
    }
