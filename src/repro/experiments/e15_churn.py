"""E15 — churn storms: incremental MP-BGP under operational stress.

The paper's scalability claims (C1/C5/C7) are steady-state counts; this
experiment stresses the *transition* costs an operator actually lives
with: sites joining and leaving, PEs drained for maintenance, whole VPNs
provisioned and torn down, core links flapping.  Each storm is a scripted
event sequence (in the style of ``jdewald__router-sim/rsvpfulltest.py``)
run end-to-end through provisioning, the incremental MP-BGP churn engine
(:mod:`repro.vpn.bgp`), and the incremental IGP fast path — measuring
per-storm reconvergence wall time and exact UPDATE message counts.

Storms
------
* **site-flap**  — k single-site remove/re-add flaps against an N-site
  VPN; the delta path touches 2 NLRI per event instead of re-distributing
  all ~2N.
* **pe-drain**   — maintenance drain + restore of the busiest PE:
  implicit withdraws, import flush, full re-advertise + refresh.
* **vpn-wave**   — provision a new VPN across the edge, converge the
  delta, then tear the whole VPN down again.
* **link-flap**  — fail and restore a core (P–P) trunk, each followed by
  :func:`repro.control.converge_all`: the incremental IGP, LDP writing only
  the label entries the flap moved (``ldp_writes``), and an MP-BGP pass that
  writes nothing (next hops are loopbacks), which is itself the point.

Every storm puts back what it took, so a last ``residue`` row reports what
the sequence left behind in the graph — nodes, links, PE interfaces,
point-to-point /30s, after minus before — and the run fails if any of them
is not zero: a removed site is unwired, not decommissioned in place.  The
network is then audited (:func:`repro.audit.audit`), and any error finding
fails the run too: a stale label path after the flaps is an ``ldp`` error.

A final topology table prices one UPDATE under full-mesh, single-RR, and
RR-cluster session layouts on the same PE set (sessions, per-route
fan-out, cluster-list suppressions) without re-provisioning anything.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from repro.audit import audit
from repro.control import converge_all
from repro.experiments.e1_scalability import mpls_base
from repro.vpn.bgp import MpBgp

__all__ = ["run_e15", "churn_storms"]


def _bgp_counters(net) -> dict[str, int]:
    return {
        k: v for k, v in net.counters.snapshot().items() if k.startswith("bgp.")
    }


def _delta(before: dict[str, int], after: dict[str, int], key: str) -> int:
    return after.get(key, 0) - before.get(key, 0)


def _check_storm_sizes(
    n_sites: int, site_flaps: int, wave_sites: int, link_flaps: int
) -> None:
    """Name the parameter that cannot be run, before anything is built."""
    if n_sites < 1:
        raise ValueError(f"n_sites: {n_sites} is not at least one site")
    if wave_sites < 1:
        raise ValueError(f"wave_sites: {wave_sites} is not at least one site")
    if site_flaps < 0:
        raise ValueError(f"site_flaps: {site_flaps} is negative")
    if link_flaps < 0:
        raise ValueError(f"link_flaps: {link_flaps} is negative")
    if site_flaps > n_sites:
        raise ValueError(
            f"site_flaps: {site_flaps} flaps need as many sites, n_sites is {n_sites}"
        )


def _footprint(net, prov) -> dict[str, int]:
    """What a storm must not leave behind in the graph."""
    return {
        "nodes": len(net.nodes),
        "links": len(net.duplex_links),
        "pe_interfaces": sum(len(pe.interfaces) for pe in prov.pes()),
        "subnets": -net.linknets_free(),    # /30s in use, up to the pool's size
    }


def churn_storms(
    ctx: dict[str, Any],
    site_flaps: int = 10,
    wave_sites: int = 8,
    link_flaps: int = 2,
) -> list[dict[str, Any]]:
    """Run the scripted storm sequence against a converged mpls_base ctx."""
    net, nodes, prov = ctx["net"], ctx["nodes"], ctx["prov"]
    vpn = prov.vpns["corp"]
    _check_storm_sizes(len(vpn.sites), site_flaps, wave_sites, link_flaps)
    footprint = _footprint(net, prov)
    rows: list[dict[str, Any]] = []

    def record(storm: str, events: int, wall_s: float, before, after) -> None:
        rows.append(
            {
                "storm": storm,
                "events": events,
                "wall_ms": round(wall_s * 1e3, 3),
                "updates": _delta(before, after, "bgp.updates"),
                "imported": _delta(before, after, "bgp.routes_imported"),
                "removed": _delta(before, after, "bgp.routes_removed"),
                "withdrawn": _delta(before, after, "bgp.routes_withdrawn"),
            }
        )

    # --- storm 1: single-site flaps -----------------------------------
    before = _bgp_counters(net)
    t0 = perf_counter()
    for i in range(site_flaps):
        site = vpn.sites[-1 - i]
        pe = site.pe
        prov.remove_site(site)
        fresh = prov.add_site(vpn, pe, prefix=site.prefix, num_hosts=0)
        prov.bgp_engine().export_delta(pe, pe.vrfs[vpn.name])
        assert fresh.pe is pe
    record("site-flap", 2 * site_flaps, perf_counter() - t0,
           before, _bgp_counters(net))

    # --- storm 2: PE maintenance drain --------------------------------
    victim = prov.pes()[0]
    before = _bgp_counters(net)
    t0 = perf_counter()
    prov.drain_pe(victim)
    prov.restore_pe(victim)
    record("pe-drain", 2, perf_counter() - t0, before, _bgp_counters(net))

    # --- storm 3: VPN add/remove wave ---------------------------------
    before = _bgp_counters(net)
    t0 = perf_counter()
    wave = prov.create_vpn("wave", supernet="172.16.0.0/12")
    pes = prov.pes()
    for i in range(wave_sites):
        prov.add_site(wave, pes[i % len(pes)], num_hosts=0)
    prov.converge_bgp()
    prov.remove_vpn("wave")
    record("vpn-wave", 2 * wave_sites, perf_counter() - t0,
           before, _bgp_counters(net))

    # --- storm 4: core link flaps (IGP fast path) ---------------------
    before = _bgp_counters(net)
    t0 = perf_counter()
    spf_events = ldp_writes = 0
    for _ in range(link_flaps):
        link = net.link_between("P1", "P2")
        for up in (False, True):
            link.set_up(up)
            igp, ldp, _bgp = converge_all(net, prov)
            spf_events += igp
            ldp_writes += ldp.written + ldp.withdrawn
    row_before = len(rows)
    record("link-flap", 2 * link_flaps, perf_counter() - t0,
           before, _bgp_counters(net))
    rows[row_before]["spf_installs"] = spf_events
    rows[row_before]["ldp_writes"] = ldp_writes

    residue = {k: v - footprint[k] for k, v in _footprint(net, prov).items()}
    if any(residue.values()):
        raise RuntimeError(f"churn storms left residue in the graph: {residue}")
    errors = [str(f) for f in audit(net) if f.severity == "error"]
    if errors:
        raise RuntimeError(f"churn storms left {len(errors)} audit error(s): {errors[:3]}")
    rows.append({"storm": "residue", "events": 0, "wall_ms": 0.0, **residue})
    return rows


def topology_table(prov) -> list[dict[str, Any]]:
    """Price one UPDATE under the candidate session layouts (same PEs)."""
    pes = prov.pes()
    names = [pe.name for pe in pes]
    layouts: list[tuple[str, dict[str, Any]]] = [("full-mesh", {})]
    if len(names) >= 2:
        layouts.append(("route-reflector", {"route_reflector": names[0]}))
    if len(names) >= 4:
        layouts.append(
            ("rr-cluster-2", {"rr_clusters": [names[0], names[1]]})
        )
        layouts.append(
            ("rr-redundant", {"rr_clusters": [(names[0], names[1])]})
        )
    rows = []
    for label, kwargs in layouts:
        engine = MpBgp(prov.net, pes, **kwargs)
        origin = next(n for n in names if n not in engine.reflectors)
        sent, suppressed = engine.fanout(origin)
        rows.append(
            {
                "topology": label,
                "sessions": engine.session_count(),
                "updates_per_route": sent,
                "suppressed_per_route": suppressed,
            }
        )
    return rows


def run_e15(
    n_sites: int = 500,
    seed: int = 23,
    site_flaps: int = 10,
    wave_sites: int = 8,
    link_flaps: int = 2,
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Provision N sites, then run the storm suite and the topology table."""
    _check_storm_sizes(n_sites, site_flaps, wave_sites, link_flaps)
    t0 = perf_counter()
    ctx = mpls_base(n_sites, seed=seed)
    build_s = perf_counter() - t0
    rows = churn_storms(
        ctx, site_flaps=site_flaps, wave_sites=wave_sites, link_flaps=link_flaps
    )
    topo = topology_table(ctx["prov"])
    raw: dict[str, Any] = {
        "ctx": ctx,
        "build_s": build_s,
        "n_sites": n_sites,
        "topology": topo,
        "counters": _bgp_counters(ctx["net"]),
    }
    return rows + [{"storm": f"— topology ({r['topology']}) —",
                    "events": r["sessions"],
                    "updates": r["updates_per_route"],
                    "withdrawn": r["suppressed_per_route"]} for r in topo], raw
