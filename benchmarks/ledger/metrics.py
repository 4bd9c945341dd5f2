"""The ledger's metric vocabulary, and how each value is computed.

``END_TO_END`` and ``PER_LAYER`` are the names later issues must use;
``BENCHMARK.json`` at the repo root lists exactly these names (the smoke
test holds the two together).  ``moves`` is the prediction written down
before measuring: which end-to-end metric, on which workload, the layer
metric is expected to move.

Every timing value is a median over a run's repeats; ``Sample`` keeps the
quartiles and the count beside it for ``compare.py``.  Host times taken in
the untraced repeats (the end-to-end rows, the flap / op / E1 times) are
quiet seconds (``hostclock.py``); the self times of the traced repeat are
raw, and ``host.slowdown`` says by how much raw exceeded quiet.
"""

from __future__ import annotations

import statistics
from typing import Any

from tracer import LAYERS

__all__ = [
    "END_TO_END", "GATED", "PER_LAYER", "Sample", "end_to_end_samples", "gated_rows",
    "per_layer_values", "percentile",
]

# name, unit, better, bound: the rows of BENCHMARK.json's ``end_to_end``.
# The benchmark contract wants each of them from every workload and never
# 0, so the issue's ``pkt_hops_per_s`` and ``routes_per_s`` share the name
# ``work_per_s`` (the result file gives the unit per workload).
#
# The issue planned 10 % for the host-time rows.  That is NOT met on the
# box this was built on: raw medians of ten runs spread by 4-34 % of
# themselves and the benchmark check refused them; as quiet seconds
# (``hostclock.py``) they spread by 2-8 %, 15 % at worst (README, "Noise").
# The contract refuses a benchmark whose own ten-run spread exceeds its
# bound and asks for a third of it as margin, so the rows carry the
# contract's maximum until the ledger runs on a quieter machine.
TIME_BOUND = 0.25
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", TIME_BOUND),
    ("wall_s", "s", "lower", TIME_BOUND),
    ("cpu_s", "s", "lower", TIME_BOUND),
    # The issue planned 5 %; provision_scale's ten-seed spread is 1.9-2.8 %.
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("work_per_s", "1/s", "higher", TIME_BOUND),
)

ALL = ("vpn_sla", "vpn_sla_obs", "elastic_aqm", "fanin_burst", "provision_scale", "churn_storm")
# name, unit, better, bound, workloads: the issue's end-to-end metrics that
# exist on some workloads only, or read 0 when all is well.  The contract's
# list cannot hold them; the result file does (``gated``), measured in the
# untraced repeats, and ``compare.py`` gates them like the rows above.
GATED: tuple[tuple[str, str, str, float, tuple[str, ...]], ...] = (
    ("failed_share", "share", "lower", 0.0, ALL),
    ("site_flap_p50_ms", "ms", "lower", TIME_BOUND, ("churn_storm",)),
    ("site_flap_p90_ms", "ms", "lower", TIME_BOUND, ("churn_storm",)),
    ("state_bytes", "bytes", "lower", 0.01, ("provision_scale",)),
)

_PKT = "vpn_sla, vpn_sla_obs, elastic_aqm, fanin_burst"
# name, unit, better, moves
PER_LAYER: tuple[tuple[str, str, str, str], ...] = (
    ("sim.self_s", "s", "lower", f"work_per_s on {_PKT}; most on fanin_burst and elastic_aqm"),
    ("sim.events", "count", "lower", "work_per_s on the packet workloads"),
    ("sim.events_per_pkt_hop", "count", "lower", "work_per_s on fanin_burst"),
    ("sim.schedule_calls", "count", "lower", "work_per_s on the packet workloads"),
    ("sim.cancels", "count", "lower", "work_per_s on elastic_aqm"),
    ("sim.snapshot_save_s", "s", "lower", "wall_s on provision_scale only"),
    ("sim.snapshot_restore_s", "s", "lower", "wall_s on provision_scale only"),
    ("sim.snapshot_bytes", "bytes", "lower", "peak_rss_mb on provision_scale only"),
    ("net.self_s", "s", "lower", "work_per_s on vpn_sla (one transmit event chain per packet)"),
    ("net.tx_packets", "count", "lower", "none: semantic count"),
    ("net.link_drops", "count", "lower", "none: semantic count"),
    ("net.batch_share", "share", "higher", "work_per_s on fanin_burst; ~0 on vpn_sla"),
    ("dataplane.self_s", "s", "lower", "work_per_s on fanin_burst (columnar), vpn_sla/elastic_aqm (scalar)"),
    ("dataplane.pkts", "count", "lower", "none: semantic count"),
    ("dataplane.us_per_pkt", "us", "lower", "work_per_s on the packet workloads"),
    ("dataplane.tier_scalar_share", "share", "lower", "explains which tier a dataplane change can reach"),
    ("dataplane.tier_hoisted_share", "share", "lower", "evidence for deleting the hoisted tier"),
    ("dataplane.tier_columnar_share", "share", "higher", "work_per_s on fanin_burst"),
    ("dataplane.mean_burst", "count", "higher", "work_per_s on fanin_burst"),
    ("dataplane.flow_cache_hit_ratio", "share", "higher", "work_per_s on elastic_aqm"),
    ("dataplane.label_cache_hit_ratio", "share", "higher", "work_per_s on vpn_sla, fanin_burst"),
    ("dataplane.vrf_cache_hit_ratio", "share", "higher", "work_per_s on vpn_sla"),
    ("qos.self_s", "s", "lower", "work_per_s on vpn_sla (CBQ+WFQ+policer), elastic_aqm (RED); not fanin_burst"),
    ("qos.enqueue_self_s", "s", "lower", "work_per_s on vpn_sla, elastic_aqm"),
    ("qos.dequeue_self_s", "s", "lower", "work_per_s on vpn_sla, elastic_aqm"),
    ("qos.enqueues", "count", "lower", "none: semantic count"),
    ("qos.drops", "count", "lower", "none: semantic count"),
    ("qos.max_backlog_pkts", "count", "lower", "none: semantic count"),
    ("traffic.self_s", "s", "lower", "work_per_s on elastic_aqm; small elsewhere"),
    ("traffic.pkts_sent", "count", "lower", "none: semantic count"),
    ("traffic.retransmits", "count", "lower", "none: semantic count"),
    ("traffic.timeouts", "count", "lower", "none: semantic count"),
    ("metrics.self_s", "s", "lower", "wall_s on the packet workloads, a fixed tail after the run"),
    ("metrics.samples", "count", "lower", "none: semantic count"),
    ("routing.converge_s", "s", "lower", "none expected: milliseconds on the 12-node backbone"),
    ("routing.reconverge_s", "s", "lower", "wall_s on churn_storm through link flaps"),
    ("routing.spf_installs", "count", "lower", "wall_s on churn_storm"),
    ("routing.fib_lookups", "count", "lower", "none: semantic count"),
    ("routing.fib_lookup_self_s", "s", "lower", "work_per_s on elastic_aqm (cache misses only)"),
    ("mpls.ldp_s", "s", "lower", "none expected: LDP is milliseconds"),
    ("mpls.ldp_msgs", "count", "lower", "none: semantic count"),
    ("mpls.lfib_lookups", "count", "lower", "none: semantic count"),
    ("mpls.lfib_entries", "count", "lower", "none: C1 as a number"),
    ("mpls.core_lfib_entries", "count", "lower", "none: C1, the core holds only shared label state"),
    ("vpn.provision_s", "s", "lower", "work_per_s on provision_scale"),
    ("vpn.provision_ops", "count", "lower", "none: semantic count"),
    ("vpn.bgp_converge_s", "s", "lower", "work_per_s on provision_scale; wall_s on churn_storm through the waves"),
    ("vpn.bgp_delta_s", "s", "lower", "vpn.site_flap_p50_ms / p90_ms and work_per_s on churn_storm"),
    ("vpn.bgp_updates", "count", "lower", "none: semantic count"),
    ("vpn.bgp_routes_imported", "count", "lower", "none: semantic count"),
    ("vpn.bgp_routes_removed", "count", "lower", "none: semantic count"),
    ("vpn.vrf_routes", "count", "lower", "peak_rss_mb on provision_scale, churn_storm"),
    ("vpn.adj_rib_size", "count", "lower", "peak_rss_mb on provision_scale, churn_storm"),
    ("vpn.core_vpn_routes", "count", "lower", "none: C1, must be 0"),
    ("vpn.e1_n1000_s", "s", "lower", "wall_s on provision_scale (section A up to the census)"),
    ("vpn.site_flap_p50_ms", "ms", "lower", "work_per_s on churn_storm"),
    ("vpn.site_flap_p90_ms", "ms", "lower", "work_per_s on churn_storm"),
    ("vpn.pe_drain_ms", "ms", "lower", "wall_s on churn_storm"),
    ("vpn.vpn_wave_ms", "ms", "lower", "wall_s on churn_storm"),
    ("vpn.link_flap_ms", "ms", "lower", "wall_s on churn_storm"),
    ("obs.self_s", "s", "lower", "wall_s / work_per_s on vpn_sla_obs only; 0 on vpn_sla"),
    ("obs.flight_records", "count", "lower", "none: semantic count"),
    ("obs.manifest_bytes", "bytes", "lower", "none"),
    ("obs.overhead_ratio", "ratio", "lower", "work_per_s on vpn_sla_obs only"),
    ("topology.build_s", "s", "lower", "none expected"),
    ("host.wall_raw_s", "s", "lower", "harness: wall_s as the clock read it, slowdown of the shared host included"),
    ("host.slowdown", "ratio", "lower", "harness: raw wall over quiet wall in the untraced repeats; 1 on an undisturbed host"),
    ("host.probe_floor_us", "us", "lower", "harness: the probe's undisturbed time; moves only with the machine or the interpreter"),
    ("trace.overhead_ratio", "ratio", "lower", "harness: traced wall / untraced raw median"),
    ("trace.unattributed_share", "share", "lower", "harness: 1 - sum of self times / traced wall"),
    ("trace.missing_hooks", "count", "lower", "harness: hook targets that no longer exist"),
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation: a reported flap time is
    one that was measured)."""
    xs = sorted(values)
    k = max(0, min(len(xs) - 1, round(q / 100.0 * len(xs) + 0.5) - 1))
    return xs[k]


class Sample:
    """One value per repeat of a run: reported as their median, with the
    quartiles, the count and the values themselves for ``compare.py``."""

    __slots__ = ("values", "value")

    def __init__(self, values: list[float], value: float | None = None) -> None:
        self.values = list(values)
        #: What is reported; the median unless the caller pooled the
        #: repeats' raw samples (flap percentiles).
        self.value = statistics.median(self.values) if value is None else value

    def doc(self, unit: str) -> dict[str, Any]:
        v = self.values
        if len(v) >= 2:
            # Inclusive: a run's five or six repeats are the whole sample,
            # and the default method extrapolates beyond them at this size.
            q1, _, q3 = statistics.quantiles(v, n=4, method="inclusive")
        else:
            q1 = q3 = v[0]
        return {"value": self.value, "unit": unit, "q1": q1, "q3": q3, "n": len(v), "values": v}


def end_to_end_samples(
    setups: list[float], import_s: float, walls: list[float], cpus: list[float],
    works: list[int], peak_rss_mb: float,
) -> dict[str, Sample]:
    """From quiet seconds.  The import happens once per process and is
    charged to every set-up."""
    return {
        "setup_s": Sample([import_s + s for s in setups]),
        "wall_s": Sample(walls),
        "cpu_s": Sample(cpus),
        "peak_rss_mb": Sample([peak_rss_mb]),
        "work_per_s": Sample([w / t for w, t in zip(works, walls)]),
    }


def gated_rows(
    workload: str, attempted: int, failed: int, extras: list[dict[str, Any]],
) -> dict[str, dict[str, Any]]:
    """The ``GATED`` rows this workload reports, from its untraced
    repeats' extras.  Flap times: the value is the percentile of all flaps
    of all repeats, the quartiles are those of the per-repeat percentiles."""
    rows = {"failed_share": Sample([failed / attempted])}
    flaps = [ex["flap_ms"] for ex in extras if ex.get("flap_ms")]
    if flaps:
        pooled = [ms for rep in flaps for ms in rep]
        for q in (50, 90):
            rows[f"site_flap_p{q}_ms"] = Sample(
                [percentile(rep, q) for rep in flaps], percentile(pooled, q)
            )
    images = [ex["state_bytes"] for ex in extras if "state_bytes" in ex]
    if images:
        rows["state_bytes"] = Sample(images)
    return {
        name: {**rows[name].doc(unit), "better": better, "bound": bound}
        for name, unit, better, bound, workloads in GATED if workload in workloads
    }


def _ratio(num: float | None, den: float | None) -> float | None:
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def _sum(*parts: float | None) -> float | None:
    """Sum of the parts whose hooks exist; ``None`` when none does."""
    present = [p for p in parts if p is not None]
    return sum(present) if present else None


def _median_ms(op_ms: dict[str, list[float]], kind: str) -> float:
    vals = op_ms.get(kind)
    return statistics.median(vals) if vals else 0.0


def per_layer_values(
    tr: Any, out: Any, traced_wall: float, host: dict[str, float | None],
    untraced_extras: list[dict[str, Any]], obs_floor_us_per_hop: float | None,
) -> dict[str, float | None]:
    """One traced repeat's per-layer row.  ``None`` = the hooks this value
    needs no longer resolve (see ``trace.missing_hooks``).  Values measured
    per op (flap, drain, wave, E1 time) come from the *untraced* repeats'
    extras so hook overhead is not in them.  ``host`` is the untraced
    repeats' medians: ``wall_s`` (quiet), ``wall_raw_s``, ``slowdown``,
    ``probe_floor_us``."""
    c, x = out.counters, out.extras
    hops = c["pkt_hops"]
    self_s, calls, items = tr.self_seconds, tr.calls, tr.items

    def counted(key: str, layer: str, group: str) -> float | None:
        """A count an observer keeps, valid only while its hook exists."""
        return tr.counts.get(key, 0) if calls(layer, group) is not None else None

    scalar = items("dataplane", "ingress")
    tiers_known = not tr.counts.get("dataplane.tier_unknown")
    hoisted = columnar = None
    if tiers_known:
        hoisted = counted("dataplane.tier_hoisted", "dataplane", "ingress_batch")
        columnar = counted("dataplane.tier_columnar", "dataplane", "ingress_batch")
    dp_pkts = None if None in (scalar, hoisted, columnar) else scalar + hoisted + columnar
    dp_entries = _sum(calls("dataplane", "ingress"), calls("dataplane", "ingress_batch"))

    def hit_ratio(kind: str) -> float:
        hits, misses = c[f"{kind}_cache_hits"], c[f"{kind}_cache_misses"]
        return hits / (hits + misses) if hits + misses else 0.0

    layer_self = {layer: self_s(layer) for layer in LAYERS}
    attributed = sum(v for v in layer_self.values() if v is not None)

    op_ms: dict[str, list[float]] = {}
    flap_ms: list[float] = []
    for ex in untraced_extras:
        flap_ms.extend(ex.get("flap_ms", ()))
        for kind, vals in ex.get("op_ms", {}).items():
            op_ms.setdefault(kind, []).extend(vals)
    e1 = [ex["e1_s"] for ex in untraced_extras if "e1_s" in ex]

    obs_ratio = 0.0
    if obs_floor_us_per_hop and hops:
        # Both sides untraced and quiet: this workload's median repeat over
        # the same scenario run once with telemetry off.
        obs_ratio = host["wall_s"] / hops * 1e6 / obs_floor_us_per_hop

    adj_rib = x.get("adj_rib")
    if adj_rib is None:
        engine = tr.seen.get("bgp_engine")
        adj_rib = engine.adj_rib_size() if engine is not None else 0

    return {
        "sim.self_s": layer_self["sim"],
        "sim.events": c["events"],
        "sim.events_per_pkt_hop": c["events"] / hops if hops else 0.0,
        "sim.schedule_calls": calls("sim", "schedule"),
        "sim.cancels": calls("sim", "cancel"),
        "sim.snapshot_save_s": self_s("sim", "snapshot_save"),
        "sim.snapshot_restore_s": self_s("sim", "snapshot_restore"),
        "sim.snapshot_bytes": x.get("state_bytes", 0),
        "net.self_s": layer_self["net"],
        "net.tx_packets": c["tx_packets"],
        "net.link_drops": c["node_drops"],
        "net.batch_share": _ratio(items("net", "receive_batch"), hops),
        "dataplane.self_s": layer_self["dataplane"],
        "dataplane.pkts": dp_pkts,
        "dataplane.us_per_pkt": _ratio(_ratio(layer_self["dataplane"], dp_pkts), 1e-6),
        "dataplane.tier_scalar_share": _ratio(scalar, dp_pkts),
        "dataplane.tier_hoisted_share": _ratio(hoisted, dp_pkts),
        "dataplane.tier_columnar_share": _ratio(columnar, dp_pkts),
        "dataplane.mean_burst": _ratio(dp_pkts, dp_entries),
        "dataplane.flow_cache_hit_ratio": hit_ratio("flow"),
        "dataplane.label_cache_hit_ratio": hit_ratio("label"),
        "dataplane.vrf_cache_hit_ratio": hit_ratio("vrf"),
        "qos.self_s": layer_self["qos"],
        "qos.enqueue_self_s": _sum(self_s("qos", "enqueue"), self_s("qos", "conditioners")),
        "qos.dequeue_self_s": self_s("qos", "dequeue"),
        "qos.enqueues": c["enqueued"],
        "qos.drops": c["queue_drops"] + c["conditioner_drops"],
        "qos.max_backlog_pkts": counted("qos.max_backlog_pkts", "qos", "enqueue"),
        "traffic.self_s": layer_self["traffic"],
        "traffic.pkts_sent": c["originated"],
        "traffic.retransmits": x.get("retransmits", 0),
        "traffic.timeouts": x.get("timeouts", 0),
        "metrics.self_s": layer_self["metrics"],
        "metrics.samples": calls("metrics", "on_delivery"),
        "routing.converge_s": self_s("routing", "converge"),
        "routing.reconverge_s": self_s("routing", "reconverge"),
        "routing.spf_installs": counted("routing.spf_installs", "routing", "converge"),
        "routing.fib_lookups": c["fib_lookups"],
        "routing.fib_lookup_self_s": self_s("routing", "fib_lookup"),
        "mpls.ldp_s": self_s("mpls", "ldp"),
        "mpls.ldp_msgs": counted("mpls.ldp_msgs", "mpls", "ldp"),
        "mpls.lfib_lookups": c["lfib_lookups"],
        "mpls.lfib_entries": c["lfib_entries"],
        "mpls.core_lfib_entries": c["core_lfib_entries"],
        "vpn.provision_s": self_s("vpn", "provision"),
        "vpn.provision_ops": calls("vpn", "provision"),
        "vpn.bgp_converge_s": self_s("vpn", "bgp_converge"),
        "vpn.bgp_delta_s": self_s("vpn", "bgp_delta"),
        "vpn.bgp_updates": c["bgp"].get("bgp.updates", 0),
        "vpn.bgp_routes_imported": c["bgp"].get("bgp.routes_imported", 0),
        "vpn.bgp_routes_removed": c["bgp"].get("bgp.routes_removed", 0),
        "vpn.vrf_routes": c["vrf_routes"],
        "vpn.adj_rib_size": adj_rib,
        "vpn.core_vpn_routes": c["core_vpn_routes"],
        "vpn.e1_n1000_s": statistics.median(e1) if e1 else 0.0,
        "vpn.site_flap_p50_ms": percentile(flap_ms, 50) if flap_ms else 0.0,
        "vpn.site_flap_p90_ms": percentile(flap_ms, 90) if flap_ms else 0.0,
        "vpn.pe_drain_ms": _median_ms(op_ms, "drain"),
        "vpn.vpn_wave_ms": _median_ms(op_ms, "wave"),
        "vpn.link_flap_ms": _median_ms(op_ms, "link"),
        "obs.self_s": layer_self["obs"],
        "obs.flight_records": x.get("flight_records", 0),
        "obs.manifest_bytes": x.get("manifest_bytes", 0),
        "obs.overhead_ratio": obs_ratio,
        "topology.build_s": layer_self["topology"],
        "host.wall_raw_s": host["wall_raw_s"],
        "host.slowdown": host["slowdown"],
        "host.probe_floor_us": host["probe_floor_us"] or 0.0,
        "trace.overhead_ratio": traced_wall / host["wall_raw_s"],
        "trace.unattributed_share": 1.0 - attributed / traced_wall,
        "trace.missing_hooks": len(tr.missing),
    }
