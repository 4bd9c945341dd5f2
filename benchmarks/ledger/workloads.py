"""The ledger's six whole-scenario workloads.

Each workload is a closed, batch unit of simulated work: a repeat builds
the scenario, converges it, runs it and computes its statistics — what
``repro run eN`` charges a user — and the reported speed is semantic
work (packet-hops or VRF route changes) completed per host second at the
stated size.  Inputs come from the seed only; the simulator is called
through public entry points with every argument spelled out, so a
changed default in ``src/`` cannot silently change what is measured.

A workload splits a repeat into ``run`` (timed) and ``inspect``
(untimed): ``inspect`` turns the raw result into the semantic document
that is digested, the correctness checks, and the counters the layers
expose.  Event counts and host timings never enter the digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from repro.experiments import e5_sla, e12_elastic
from repro.metrics import stats as metrics_stats
from repro.mpls import ldp as mpls_ldp
from repro.mpls.lsr import Lsr
from repro.net.node import Host
from repro.obs import runtime as obs_runtime
from repro.qos.queues import DropTailFifo
from repro.routing import spf
from repro.sim import snapshot as sim_snapshot
from repro import topology
from repro.traffic.generators import CbrSource
from repro.traffic.sink import FlowSink
from repro.vpn.pe import PeRouter
from repro.vpn.provision import VpnProvisioner

__all__ = ["WORKLOADS", "Outcome", "digest", "no_phase", "scale_host_times", "WARMUP_SHARE"]

#: The untimed warm-up repeat runs at this share of the timed size.
WARMUP_SHARE = 0.1

EDGE_ROUTERS = tuple(f"E{i}" for i in range(1, 9))
Phase = Callable[[str], Any]


def no_phase(name: str) -> Any:
    return nullcontext()


@dataclass
class Outcome:
    """What ``inspect`` reads out of one finished repeat."""

    work: int                        # packet-hops or VRF route changes
    semantic: dict[str, Any]         # digested: simulated outputs only
    checks: list[tuple[str, bool]]   # (name, passed)
    counters: dict[str, Any]         # what the layers' own counters read
    extras: dict[str, Any] = field(default_factory=dict)


def digest(semantic: dict[str, Any]) -> str:
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Reading the layers' counters
# ----------------------------------------------------------------------
def _us(seconds: float) -> int | None:
    """Delays enter the digest rounded to 1 us; NaN (no samples) as null."""
    return None if math.isnan(seconds) else round(seconds * 1e6)


def _flow_doc(fs: Any) -> dict[str, Any]:
    return {
        "sent": fs.sent, "received": fs.received,
        "mean_us": _us(fs.mean_delay_s), "p50_us": _us(fs.p50_delay_s),
        "p95_us": _us(fs.p95_delay_s), "p99_us": _us(fs.p99_delay_s),
        "max_us": _us(fs.max_delay_s), "jitter_us": _us(fs.jitter_rfc3550_s),
    }


def network_counters(nets: list[Any]) -> dict[str, Any]:
    """Sum the counters the layers already keep, over every network of a
    repeat: ``NodeStats``, ``InterfaceStats``, table sizes, cache stats."""
    c: dict[str, Any] = {
        "pkt_hops": 0, "originated": 0, "delivered": 0, "node_drops": 0,
        "queue_drops": 0, "conditioner_drops": 0, "tx_packets": 0,
        "enqueued": 0, "backlog": 0, "pending_events": 0, "events": 0,
        "fib_lookups": 0, "lfib_lookups": 0, "lfib_entries": 0,
        "core_lfib_entries": 0, "ftn_entries": 0, "vrf_routes": 0,
        "core_vpn_routes": 0, "nodes": 0,
    }
    drops: dict[str, int] = {}
    caches = {k: [0, 0] for k in ("flow", "label", "vrf")}  # hits, misses
    for net in nets:
        c["events"] += net.sim.events_processed
        c["pending_events"] += net.sim.pending
        c["nodes"] += len(net.nodes)
        for node in net.nodes.values():
            st = node.stats
            c["pkt_hops"] += st.rx_packets
            c["delivered"] += st.delivered
            c["node_drops"] += st.dropped_total
            for reason, n in st.by_reason.items():
                drops[reason] = drops.get(reason, 0) + n
            if isinstance(node, Host):
                c["originated"] += st.forwarded
            for iface in node.interfaces.values():
                ist = iface.stats
                c["tx_packets"] += ist.tx_packets
                c["enqueued"] += ist.enqueued
                c["queue_drops"] += ist.dropped
                c["conditioner_drops"] += ist.conditioner_dropped
                c["backlog"] += iface.backlog_packets
            fib = getattr(node, "fib", None)
            if fib is not None:
                c["fib_lookups"] += fib.lookups
            lfib = getattr(node, "lfib", None)
            is_pe = isinstance(node, PeRouter)
            if lfib is not None:
                c["lfib_lookups"] += lfib.lookups
                c["lfib_entries"] += len(lfib)
                c["ftn_entries"] += len(node.ftn)
                if not is_pe:
                    # C1: a core LSR may hold shared transport labels only.
                    c["core_lfib_entries"] += len(lfib)
                    c["core_vpn_routes"] += sum(
                        1 for e in lfib.entries().values() if e.vrf is not None
                    ) + sum(len(v) for v in getattr(node, "vrfs", {}).values())
            if is_pe:
                c["vrf_routes"] += node.vrf_state_entries()
            pipe = getattr(node, "pipeline", None)
            if pipe is not None:
                cs = pipe.cache_stats()
                for kind in ("flow", "label"):
                    if kind in cs:
                        caches[kind][0] += cs[kind]["hits"]
                        caches[kind][1] += cs[kind]["misses"]
                for vs in cs.get("vrf", {}).values():
                    caches["vrf"][0] += vs["hits"]
                    caches["vrf"][1] += vs["misses"]
    if c["queue_drops"]:
        drops["queue"] = c["queue_drops"]
    if c["conditioner_drops"]:
        drops["conditioner"] = c["conditioner_drops"]
    c["drops_by_reason"] = dict(sorted(drops.items()))
    c["dropped"] = c["node_drops"] + c["queue_drops"] + c["conditioner_drops"]
    c["bgp"] = _sum_counters(nets)
    for kind, (hits, misses) in caches.items():
        c[f"{kind}_cache_hits"] = hits
        c[f"{kind}_cache_misses"] = misses
    return c


def conservation_check(c: dict[str, Any]) -> tuple[str, bool]:
    """sent = delivered + dropped + in flight.  In flight is what sits in
    a queue plus what is on a wire or in a transmitter, and each of the
    latter holds one pending event, so the residual is bounded by them."""
    residual = c["originated"] - c["delivered"] - c["dropped"]
    on_wire = residual - c["backlog"]
    return ("conservation", 0 <= on_wire <= c["pending_events"])


def scale_host_times(extras: dict[str, Any], factor: float) -> None:
    """Multiply the host times a repeat measured inside itself (``run.py``
    turns them into quiet seconds with the repeat's own factor)."""
    if "e1_s" in extras:
        extras["e1_s"] *= factor
    if "flap_ms" in extras:
        extras["flap_ms"] = [ms * factor for ms in extras["flap_ms"]]
    if "op_ms" in extras:
        extras["op_ms"] = {k: [ms * factor for ms in v] for k, v in extras["op_ms"].items()}


def route_changes(bgp: dict[str, int]) -> int:
    """VRF route installs + removals: the control workloads' unit of work."""
    return bgp.get("bgp.routes_imported", 0) + bgp.get("bgp.routes_removed", 0)


# ----------------------------------------------------------------------
# Workload base
# ----------------------------------------------------------------------
class Workload:
    name = ""
    why = ""
    work_unit = ""   # "pkt_hops" or "routes"

    def sizes(self, scale: float) -> dict[str, Any]:
        raise NotImplementedError

    def prepare(self, seed: int, sizes: dict[str, Any]) -> dict[str, Any]:
        """Generate the repeat's inputs from the seed (part of set-up)."""
        return {"seed": seed, **sizes}

    def warm_inputs(self, seed: int, scale: float, inputs: dict[str, Any]) -> dict[str, Any]:
        return self.prepare(seed, self.sizes(scale * WARMUP_SHARE))

    def run(self, inp: dict[str, Any], phase: Phase) -> Any:
        raise NotImplementedError

    def inspect(self, inp: dict[str, Any], raw: Any) -> Outcome:
        raise NotImplementedError


# ----------------------------------------------------------------------
# vpn_sla / vpn_sla_obs
# ----------------------------------------------------------------------
def _vpn_of_host(name: str) -> str | None:
    # VpnProvisioner names hosts ``h-<vpn>-s<site>-<index>``.
    parts = name.split("-")
    return parts[1] if len(parts) >= 4 and parts[0] == "h" else None


class VpnSla(Workload):
    name = "vpn_sla"
    why = ("the paper's headline path: two VPNs on overlapping 10/8 plans, CPE CBQ, EF policer "
           "at the PE, WFQ on EXP in a congested core; scalar tier, VRF and label stages, qos")
    work_unit = "pkt_hops"
    full_measure_s = 36.0

    def sizes(self, scale: float) -> dict[str, Any]:
        return {"measure_s": round(self.full_measure_s * scale, 4)}

    def run(self, inp: dict[str, Any], phase: Phase) -> Any:
        return e5_sla.run_stage(
            "full", seed=inp["seed"], measure_s=inp["measure_s"],
            streaming=False, hybrid=False, prebuilt=None,
        )

    def inspect(self, inp: dict[str, Any], raw: Any) -> Outcome:
        result = raw
        net = result["net"]
        c = network_counters([net])
        flows = {k: result[k] for k in ("voice", "data", "bulk", "background")}
        semantic = {
            "flows": {k: _flow_doc(v) for k, v in flows.items()},
            "sla": {
                k: {"pass": result[k].conformant, "violations": sorted(result[k].violations())}
                for k in ("voice_sla", "data_sla")
            },
            "drops": c["drops_by_reason"],
            "delivered": c["delivered"],
            "vrf_routes": c["vrf_routes"],
            "lfib_entries": c["lfib_entries"],
        }
        # C5: both customers use 10/8; everything a VPN's hosts received
        # must be that VPN's own flows, and nobody else received anything.
        got: dict[str, int] = {}
        for node in net.nodes.values():
            if node.stats.delivered:
                vpn = _vpn_of_host(node.name) if isinstance(node, Host) else None
                got[vpn or node.name] = got.get(vpn or node.name, 0) + node.stats.delivered
        want = {
            "corp": sum(flows[k].received for k in ("voice", "data", "bulk")),
            "other": flows["background"].received,
        }
        checks = [
            ("c5_no_cross_vpn_delivery", got == {k: v for k, v in want.items() if v}),
            ("c1_core_holds_no_vpn_routes", c["core_vpn_routes"] == 0),
            conservation_check(c),
        ]
        return Outcome(c["pkt_hops"], semantic, checks, c)


class VpnSlaObs(VpnSla):
    name = "vpn_sla_obs"
    why = ("vpn_sla with telemetry, streaming SLO and span tracing on: the only workload where "
           "repro.obs does work; vpn_sla is its disabled-mode floor")
    full_measure_s = 14.5
    #: The same scenario with telemetry off: obs.overhead_ratio's base.
    obs_floor = VpnSla()

    def run(self, inp: dict[str, Any], phase: Phase) -> Any:
        obs_runtime.reset()
        obs_runtime.enable(sample_every=64, flight_capacity=65536, profile=True)
        obs_runtime.set_slo(True)
        obs_runtime.set_spans(True)
        try:
            result = VpnSla.run(self, inp, phase)
            # What ``repro run e5 --telemetry`` does before it exits.
            sessions = obs_runtime.sessions()
            bundle = json.dumps([
                s.manifest(config={"experiment": "e5", "measure_s": inp["measure_s"]})
                for s in sessions
            ])
            return {
                "result": result,
                "manifest_bytes": len(bundle),
                "flight_records": sum(len(s.flight) for s in sessions),
            }
        finally:
            obs_runtime.reset()

    def inspect(self, inp: dict[str, Any], raw: Any) -> Outcome:
        out = VpnSla.inspect(self, inp, raw["result"])
        out.extras.update(
            manifest_bytes=raw["manifest_bytes"], flight_records=raw["flight_records"]
        )
        return out


# ----------------------------------------------------------------------
# elastic_aqm
# ----------------------------------------------------------------------
class ElasticAqm(Workload):
    name = "elastic_aqm"
    why = ("closed-loop Reno flows with ACKs and retransmit timers that are armed and cancelled, "
           "plain IP routers, DropTail then RED: same engine and data plane, used differently")
    work_unit = "pkt_hops"

    def sizes(self, scale: float) -> dict[str, Any]:
        return {"duration_s": round(max(38.0 * scale, 1.2), 4)}

    def run(self, inp: dict[str, Any], phase: Phase) -> Any:
        return e12_elastic.run_e12a_aqm(
            seed=inp["seed"], duration_s=inp["duration_s"],
            background_bps=0.0, hybrid=False,
        )

    def inspect(self, inp: dict[str, Any], raw: Any) -> Outcome:
        rows, by_aqm = raw
        nets = [by_aqm[k]["net"] for k in ("droptail", "red")]
        c = network_counters(nets)
        flows = [f for k in ("droptail", "red") for f in by_aqm[k]["flows"]]
        semantic = {
            "rows": [
                {k: (None if isinstance(v, float) and math.isnan(v) else v) for k, v in r.items()}
                for r in rows
            ],
            "segments": [f.delivered_segments for f in flows],
            "drops": c["drops_by_reason"],
            "delivered": c["delivered"],
        }
        checks = [
            conservation_check(c),
            ("flows_made_progress", all(f.delivered_segments > 0 for f in flows)),
        ]
        extras = {
            "retransmits": sum(f.retransmits for f in flows),
            "timeouts": sum(f.timeouts for f in flows),
        }
        return Outcome(c["pkt_hops"], semantic, checks, c, extras)


# ----------------------------------------------------------------------
# fanin_burst
# ----------------------------------------------------------------------
class FaninBurst(Workload):
    name = "fanin_burst"
    why = ("8 hosts send 16-packet trains through one ingress LSR over infinite-rate links: "
           "same-time arrivals fuse into bursts, so the columnar tier serves nearly all; "
           "qos is an idle FIFO, no VPN stage")
    work_unit = "pkt_hops"
    hosts = 8
    train = 16
    pkts_per_s = 2000.0   # per host

    def sizes(self, scale: float) -> dict[str, Any]:
        return {"sim_s": round(7.5 * scale, 4), "hosts": self.hosts, "train": self.train}

    def prepare(self, seed: int, sizes: dict[str, Any]) -> dict[str, Any]:
        rng = random.Random(seed)
        flows = []
        for i in range(sizes["hosts"]):
            flows.append({
                "flow": f"fan{i}", "src": f"10.210.{rng.randrange(1, 250)}.{i + 1}",
                "src_port": rng.randrange(1024, 60000), "payload": rng.randrange(200, 900),
            })
        return {"net_seed": rng.randrange(1 << 30), "flows": flows, **sizes}

    def run(self, inp: dict[str, Any], phase: Phase) -> Any:
        inf = float("inf")
        with phase("build"):
            net = topology.Network(seed=inp["net_seed"])
            # The trains of all hosts meet at pe1 inside one timestamp:
            # queues must hold hosts x train packets or the FIFO tail-drops.
            net.default_qdisc_factory = lambda node, ifname: DropTailFifo(
                capacity_packets=1024, capacity_bytes=None, drop_policy=None
            )
            lsrs = [net.add_node(Lsr(net.sim, n), loopback=True) for n in ("pe1", "p1", "p2", "pe2")]
            for a, b in zip(lsrs, lsrs[1:]):
                net.connect(a, b, rate_bps=inf, delay_s=1e-3, metric=1.0, qdisc_factory=None)
            txs = [
                topology.attach_host(net, lsrs[0], f["src"], name=f"tx{i}", rate_bps=inf,
                                     delay_s=0.1e-3, advertise=True)
                for i, f in enumerate(inp["flows"])
            ]
            rx = topology.attach_host(net, lsrs[-1], "10.211.0.2", name="rx", rate_bps=inf,
                                      delay_s=0.1e-3, advertise=True)
        with phase("converge"):
            spf.converge(net, domain="core", ecmp=False)
            mpls_ldp.run_ldp(net, fecs=None, domain="core", php=True, use_explicit_null=False)
        sink = FlowSink(net.sim).attach(rx)
        sources = []
        for tx, f in zip(txs, inp["flows"]):
            src = CbrSource(
                net.sim, tx.send, f["flow"], f["src"], "10.211.0.2",
                payload_bytes=f["payload"], dscp=0, proto="udp", src_port=f["src_port"],
                dst_port=80, burst=inp["train"],
                rate_bps=(f["payload"] + 20) * 8 * self.pkts_per_s,
            )
            src.start(0.0, stop_at=inp["sim_s"])
            sources.append(src)
        with phase("run"):
            net.run(until=inp["sim_s"] + 0.2)
        with phase("stats"):
            stats = [
                metrics_stats.summarize_flow(s, sink, duration_s=inp["sim_s"]) for s in sources
            ]
        return {"net": net, "stats": stats, "core": lsrs[1]}

    def inspect(self, inp: dict[str, Any], raw: Any) -> Outcome:
        c = network_counters([raw["net"]])
        semantic = {
            "flows": {fs.flow: _flow_doc(fs) for fs in raw["stats"]},
            "drops": c["drops_by_reason"],
            "delivered": c["delivered"],
            "lfib_entries": c["lfib_entries"],
        }
        checks = [
            conservation_check(c),
            ("every_packet_delivered", all(fs.received == fs.sent > 0 for fs in raw["stats"])),
            ("flows_rode_the_lsp", raw["core"].lfib.lookups > 0),
        ]
        return Outcome(c["pkt_hops"], semantic, checks, c)


# ----------------------------------------------------------------------
# provision_scale
# ----------------------------------------------------------------------
def _backbone(seed: int) -> tuple[Any, dict[str, Any]]:
    net = topology.Network(seed=seed)

    def factory(n: Any, name: str) -> Any:
        if name.startswith("E"):
            return n.add_node(PeRouter(n.sim, name, qos_exp_mapping=True), loopback=True)
        return n.add_node(Lsr(n.sim, name), loopback=True)

    nodes = topology.build_backbone(
        net, core_rate_bps=45e6, edge_rate_bps=10e6, delay_s=2e-3, node_factory=factory
    )
    return net, nodes


def _placement(rng: random.Random, n_sites: int) -> list[str]:
    """Balanced site-to-PE placement in a seed-chosen order: every PE gets
    its share (so the amount of BGP work does not depend on the seed), but
    which site lands where, and in which order, does."""
    pes = [EDGE_ROUTERS[i % len(EDGE_ROUTERS)] for i in range(n_sites)]
    rng.shuffle(pes)
    return pes


def _add_sites(prov: Any, vpn: Any, nodes: dict[str, Any], placement: list[str]) -> None:
    for pe_name in placement:
        prov.add_site(vpn, nodes[pe_name], prefix=None, num_hosts=0,
                      host_rate_bps=100e6, role=None)


def _control_plane(net: Any, prov: Any, phase: Phase) -> tuple[Any, Any]:
    with phase("igp"):
        spf.converge(net, domain="core", ecmp=False)
    with phase("ldp"):
        ldp = mpls_ldp.run_ldp(net, fecs=None, domain="core", php=True, use_explicit_null=False)
    with phase("bgp"):
        bgp = prov.converge_bgp(route_reflector=None, rr_clusters=None)
    return ldp, bgp


def table_census(prov: Any, lsrs: list[Any], engine: Any) -> dict[str, int]:
    """State that must survive a snapshot round trip and every churn op.
    (``state_census`` also carries cumulative message counters, which a
    churn op legitimately moves, so the sizes are read directly.)  Takes
    the backbone routers and the BGP engine from the caller: the churn
    storm reads this after every op, inside the timed repeat."""
    pes = [n for n in lsrs if isinstance(n, PeRouter)]
    return {
        "sites": sum(len(v.sites) for v in prov.vpns.values()),
        "vpns": len(prov.vpns),
        "vrfs": sum(len(pe.vrfs) for pe in pes),
        "vrf_routes": sum(pe.vrf_state_entries() for pe in pes),
        "adj_rib": engine.adj_rib_size(),
        "lfib": sum(len(n.lfib) for n in lsrs),
        "ftn": sum(len(n.ftn) for n in lsrs),
        "fib": sum(len(n.fib) for n in lsrs),
    }


def _census_of(net: Any, prov: Any) -> dict[str, int]:
    lsrs = [n for n in net.nodes.values() if isinstance(n, Lsr)]
    return table_census(prov, lsrs, prov.bgp_engine(route_reflector=None, rr_clusters=None))


def _msg_doc(ldp: Any, bgp: Any) -> dict[str, int]:
    return {
        "ldp_sessions": ldp.sessions, "ldp_msgs": ldp.mapping_messages,
        "bgp_sessions": bgp.sessions, "bgp_updates": bgp.updates_sent,
        "bgp_exported": bgp.routes_exported, "bgp_imported": bgp.routes_imported,
    }


class ProvisionScale(Workload):
    name = "provision_scale"
    why = ("control plane only: the paper's E1 at N=1000 plus a snapshot round trip, then many "
           "small VPNs on one 10/8 plan; full MP-BGP converge, provisioning and snapshot do the work")
    work_unit = "routes"

    def sizes(self, scale: float) -> dict[str, Any]:
        return {
            "a_sites": max(8, round(1000 * scale)),
            "b_vpns": max(1, round(160 * scale)),
            "b_sites_per_vpn": 20,
        }

    def prepare(self, seed: int, sizes: dict[str, Any]) -> dict[str, Any]:
        rng = random.Random(seed)
        return {
            "net_seed": rng.randrange(1 << 30),
            "a_placement": _placement(rng, sizes["a_sites"]),
            "b_placement": [
                _placement(rng, sizes["b_sites_per_vpn"]) for _ in range(sizes["b_vpns"])
            ],
            **sizes,
        }

    def run(self, inp: dict[str, Any], phase: Phase) -> Any:
        # Section A: one VPN, N sites (E1), then snapshot -> restore.
        t0 = perf_counter()
        with phase("a.provision"):
            net_a, nodes = _backbone(inp["net_seed"])
            prov_a = VpnProvisioner(net_a, asn=65000, access_rate_bps=10e6, access_delay_s=0.5e-3)
            corp = prov_a.create_vpn("corp", supernet="10.0.0.0/8")
            _add_sites(prov_a, corp, nodes, inp["a_placement"])
        ldp_a, bgp_a = _control_plane(net_a, prov_a, phase)
        with phase("a.census"):
            census_a = prov_a.state_census()
        e1_s = perf_counter() - t0
        tables_a = _census_of(net_a, prov_a)
        with phase("a.snapshot"):
            blob = sim_snapshot.snapshot_network(net_a, {"prov": prov_a})
        with phase("a.restore"):
            net_r, extras = sim_snapshot.restore_network(blob)
        tables_r = _census_of(net_r, extras["prov"])
        # Section B: many customers, every one on the same 10/8 plan.
        with phase("b.provision"):
            net_b, nodes = _backbone(inp["net_seed"] + 1)
            prov_b = VpnProvisioner(net_b, asn=65000, access_rate_bps=10e6, access_delay_s=0.5e-3)
            for k, placement in enumerate(inp["b_placement"]):
                vpn = prov_b.create_vpn(f"cust{k}", supernet="10.0.0.0/8")
                _add_sites(prov_b, vpn, nodes, placement)
        ldp_b, bgp_b = _control_plane(net_b, prov_b, phase)
        with phase("b.census"):
            census_b = prov_b.state_census()
        return {
            "nets": [net_a, net_b], "restored": net_r, "e1_s": e1_s, "state_bytes": len(blob),
            "a": (census_a, tables_a, tables_r, ldp_a, bgp_a),
            "b": (census_b, _census_of(net_b, prov_b), ldp_b, bgp_b),
        }

    def inspect(self, inp: dict[str, Any], raw: Any) -> Outcome:
        c = network_counters(raw["nets"])
        census_a, tables_a, tables_r, ldp_a, bgp_a = raw["a"]
        census_b, tables_b, ldp_b, bgp_b = raw["b"]
        semantic = {
            "a": {"census": census_a, "tables": tables_a, **_msg_doc(ldp_a, bgp_a)},
            "b": {"census": census_b, "tables": tables_b, **_msg_doc(ldp_b, bgp_b)},
        }
        checks = [
            ("c1_core_holds_no_vpn_routes", c["core_vpn_routes"] == 0),
            ("census_equal_after_restore", tables_a == tables_r),
            ("restored_core_holds_no_vpn_routes",
             network_counters([raw["restored"]])["core_vpn_routes"] == 0),
            ("linear_state", census_a["vrf_routes_total"] == 2 * inp["a_sites"] * len(EDGE_ROUTERS)),
        ]
        extras = {
            "state_bytes": raw["state_bytes"], "e1_s": raw["e1_s"],
            "adj_rib": tables_a["adj_rib"] + tables_b["adj_rib"],
        }
        return Outcome(route_changes(c["bgp"]), semantic, checks, c, extras)


def _sum_counters(nets: list[Any], before: dict[str, int] | None = None) -> dict[str, int]:
    out: dict[str, int] = {}
    for net in nets:
        for k, v in net.counters.snapshot().items():
            if k.startswith("bgp."):
                out[k] = out.get(k, 0) + v
    for k, v in (before or {}).items():
        if k in out:
            out[k] -= v
    return out


# ----------------------------------------------------------------------
# churn_storm
# ----------------------------------------------------------------------
class ChurnStorm(Workload):
    name = "churn_storm"
    why = ("deltas against a persistent Adj-RIB instead of a full converge: site flaps, PE "
           "drains, VPN waves and core link flaps on a converged 1000-site + many-small-VPN base")
    work_unit = "routes"

    def sizes(self, scale: float) -> dict[str, Any]:
        return {
            "big_sites": max(16, round(1000 * scale)),
            "small_vpns": max(2, round(100 * scale)),
            "small_sites": 20,
            "big_flaps": max(2, round(100 * scale)),
            "small_flaps": max(2, round(100 * scale)),
            "drains": max(1, round(4 * scale)),
            "waves": max(1, round(4 * scale)),
            "wave_sites": 8,
            "link_flaps": max(1, round(40 * scale)),
        }

    def prepare(self, seed: int, sizes: dict[str, Any]) -> dict[str, Any]:
        """Build and converge the base (untimed: it is set-up), and draw the
        storm: which sites flap, which PEs drain, and in what order."""
        rng = random.Random(seed)
        net, nodes = _backbone(rng.randrange(1 << 30))
        prov = VpnProvisioner(net, asn=65000, access_rate_bps=10e6, access_delay_s=0.5e-3)
        big = prov.create_vpn("big", supernet="10.0.0.0/8")
        _add_sites(prov, big, nodes, _placement(rng, sizes["big_sites"]))
        for k in range(sizes["small_vpns"]):
            vpn = prov.create_vpn(f"small{k}", supernet="10.0.0.0/8")
            _add_sites(prov, vpn, nodes, _placement(rng, sizes["small_sites"]))
        _control_plane(net, prov, no_phase)
        ops = self._draw_ops(rng, sizes)
        # Flap targets are named by (vpn, prefix), not by list position:
        # a flap re-appends its site, so positions differ between repeats.
        by_prefix = {
            (v.name, str(s.prefix)): s for v in prov.vpns.values() for s in v.sites
        }
        return {"net": net, "nodes": nodes, "prov": prov, "sites": by_prefix, "ops": ops, **sizes}

    @staticmethod
    def _draw_ops(rng: random.Random, sizes: dict[str, Any]) -> list[tuple]:
        def site_prefix(i: int) -> str:
            return f"10.{i >> 8}.{i & 255}.0/24"   # the i-th /24 of the VPN's 10/8

        ops: list[tuple] = []
        for _ in range(sizes["big_flaps"]):
            ops.append(("flap_big", "big", site_prefix(rng.randrange(sizes["big_sites"]))))
        for _ in range(sizes["small_flaps"]):
            vpn = f"small{rng.randrange(sizes['small_vpns'])}"
            ops.append(("flap_small", vpn, site_prefix(rng.randrange(sizes["small_sites"]))))
        # 20 sites over 8 PEs leaves E1-E4 with three sites per small VPN
        # and E5-E8 with two: alternate the groups so that the routes a
        # storm moves do not depend on which PEs the seed drains.
        half = len(EDGE_ROUTERS) // 2
        for k in range(sizes["drains"]):
            group = EDGE_ROUTERS[:half] if k % 2 == 0 else EDGE_ROUTERS[half:]
            ops.append(("drain", rng.choice(group)))
        for _ in range(sizes["waves"]):
            ops.append(("wave", _placement(rng, sizes["wave_sites"])))
        for _ in range(sizes["link_flaps"]):
            ops.append(("link", "P1", "P2"))
        rng.shuffle(ops)
        return ops

    def warm_inputs(self, seed: int, scale: float, inputs: dict[str, Any]) -> dict[str, Any]:
        # Same base (each op restores what it found), a tenth of the storm.
        n = max(5, round(len(inputs["ops"]) * WARMUP_SHARE))
        return {**inputs, "ops": inputs["ops"][:n]}

    def run(self, inp: dict[str, Any], phase: Phase) -> Any:
        net, nodes, prov, sites = inp["net"], inp["nodes"], inp["prov"], inp["sites"]
        before = _sum_counters([net])
        lsrs = list(nodes.values())
        engine = prov.bgp_engine(route_reflector=None, rr_clusters=None)
        census0 = table_census(prov, lsrs, engine)
        census_ok = True
        op_ms: dict[str, list[float]] = {}
        installs = 0
        waves = 0
        for op in inp["ops"]:
            kind = op[0]
            t0 = perf_counter()
            with phase(kind):
                if kind in ("flap_big", "flap_small"):
                    site = sites[op[1], op[2]]
                    vpn, pe = prov.vpns[site.vpn_name], site.pe
                    prov.remove_site(site)
                    sites[op[1], op[2]] = prov.add_site(
                        vpn, pe, prefix=site.prefix, num_hosts=0, host_rate_bps=100e6, role=None
                    )
                    prov.bgp_engine(route_reflector=None, rr_clusters=None).export_delta(
                        pe, pe.vrfs[vpn.name]
                    )
                elif kind == "drain":
                    prov.drain_pe(op[1])
                    prov.restore_pe(op[1])
                elif kind == "wave":
                    waves += 1
                    wave = prov.create_vpn(f"wave{waves}", supernet="172.16.0.0/12")
                    for pe_name in op[1]:
                        prov.add_site(wave, nodes[pe_name], prefix=None, num_hosts=0,
                                      host_rate_bps=100e6, role=None)
                    prov.converge_bgp(route_reflector=None, rr_clusters=None)
                    prov.remove_vpn(wave.name)
                else:
                    link = net.link_between(op[1], op[2])
                    link.set_up(False)
                    installs += spf.reconverge(net, domain="core")
                    link.set_up(True)
                    installs += spf.reconverge(net, domain="core")
            op_ms.setdefault(kind, []).append((perf_counter() - t0) * 1e3)
            census_ok = census_ok and table_census(prov, lsrs, engine) == census0
        return {
            "net": net, "before": before, "census": census0, "census_ok": census_ok,
            "op_ms": op_ms, "installs": installs,
        }

    def inspect(self, inp: dict[str, Any], raw: Any) -> Outcome:
        net = raw["net"]
        c = network_counters([net])
        delta = c["bgp"] = _sum_counters([net], raw["before"])
        semantic = {
            "census": raw["census"],
            "bgp_delta": dict(sorted(delta.items())),
            "spf_installs": raw["installs"],
            "ops": {k: len(v) for k, v in sorted(raw["op_ms"].items())},
        }
        checks = [
            ("every_op_restores_the_census", raw["census_ok"]),
            ("c1_core_holds_no_vpn_routes", c["core_vpn_routes"] == 0),
        ]
        extras = {
            "flap_ms": raw["op_ms"].get("flap_big", []) + raw["op_ms"].get("flap_small", []),
            "op_ms": raw["op_ms"],
            "adj_rib": raw["census"]["adj_rib"],
        }
        return Outcome(route_changes(delta), semantic, checks, c, extras)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        VpnSla(), VpnSlaObs(), ElasticAqm(), FaninBurst(), ProvisionScale(), ChurnStorm(),
    )
}
