"""E1 — Control-plane scalability: overlay circuits vs BGP/MPLS VPN state.

Reproduces the paper's §2.1 arithmetic *and* demonstrates it on live
state: a full-mesh overlay VPN with N sites needs N(N−1)/2 virtual
circuits (45 at N=10, 19 900 at N=200), each holding state at every hop,
while the MPLS VPN adds only per-site state at the attachment PEs and
reuses one shared set of PE–PE LSPs for every customer.

For each N we build both worlds on the same 12-node reference backbone:

* **Overlay**: N CE switches round-robined across the 8 edge routers,
  then a full mesh of provisioned circuits (state installed hop-by-hop,
  signaling messages counted).
* **MPLS VPN**: N sites provisioned into one VPN, LDP tunnels for the PE
  loopbacks, MP-BGP full mesh across the PEs.

The row compares circuits, total state entries, worst single-node state,
and control messages.
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Any, Sequence

from repro.audit import audit
from repro.control import converge_all
from repro.mpls.lsr import Lsr
from repro.routing.spf import converge
from repro.topology import Network, build_backbone
from repro.vpn.overlay import OverlayVpnBuilder, VcRouter, expected_full_mesh_circuits
from repro.vpn.pe import PeRouter
from repro.vpn.provision import VpnProvisioner

__all__ = ["overlay_base", "overlay_census", "mpls_base", "mpls_census", "run_e1"]

EDGE_ROUTERS = [f"E{i}" for i in range(1, 9)]


def _overlay_network(n_sites: int, seed: int = 11) -> tuple[Network, list[str]]:
    """Backbone of VC switches + one VC-switch CE per site."""
    net = Network(seed=seed)
    build_backbone(net, node_factory=lambda n, name: n.add_node(VcRouter(n.sim, name)))
    ce_names = []
    for i in range(n_sites):
        name = f"ce{i}"
        ce = VcRouter(net.sim, name)
        net.add_node(ce)
        net.connect(ce, EDGE_ROUTERS[i % len(EDGE_ROUTERS)], 2e6, 1e-3)
        ce_names.append(name)
    converge(net)
    return net, ce_names


def overlay_base(n_sites: int, seed: int = 11) -> dict[str, Any]:
    """The expensive phase of :func:`overlay_census`, split out so the
    warm-start sweep can snapshot it once: backbone + CEs + the provisioned
    full mesh.  Returns the ctx dict ``overlay_census(prebuilt=...)`` takes."""
    net, ce_names = _overlay_network(n_sites, seed)
    builder = OverlayVpnBuilder(net)
    # Paper-scale runs (N=1000 → 999 000 VCs) keep the census but not one
    # VirtualCircuit record per VC.
    result = builder.build_full_mesh(ce_names, keep_circuits=False)
    return {"net": net, "ce_names": ce_names, "result": result}


def overlay_census(
    n_sites: int, seed: int = 11, prebuilt: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Provision the full-mesh overlay and count everything.

    ``prebuilt`` (a :func:`overlay_base` ctx, typically restored from a
    :mod:`repro.sim.snapshot` image) skips straight to the counting —
    ``wall_s`` then times only the census, not the provisioning."""
    t0 = perf_counter()
    ctx = prebuilt if prebuilt is not None else overlay_base(n_sites, seed)
    result = ctx["result"]
    wall_s = perf_counter() - t0
    backbone_state = sum(
        entries
        for name, entries in result.state_entries_by_node.items()
        if not name.startswith("ce")
    )
    return {
        "sites": n_sites,
        "circuits": result.circuit_count,
        "formula": expected_full_mesh_circuits(n_sites),
        "state_total": result.total_state_entries,
        "state_backbone": backbone_state,
        "state_max_node": result.max_state_on_one_node,
        "signaling_msgs": result.signaling_messages,
        "wall_s": wall_s,
    }


def _mpls_network(seed: int = 13) -> tuple[Network, dict[str, Lsr]]:
    net = Network(seed=seed)

    def factory(n: Network, name: str) -> Lsr:
        cls = PeRouter if name.startswith("E") else Lsr
        return n.add_node(cls(n.sim, name))  # type: ignore[return-value]

    nodes = build_backbone(net, node_factory=factory)
    return net, nodes


def mpls_base(
    n_sites: int,
    seed: int = 13,
    route_reflector: str | None = None,
    rr_clusters=None,
) -> dict[str, Any]:
    """The expensive phase of :func:`mpls_census`, split out so the
    warm-start sweep can snapshot it once: provisioned + converged VPN with
    the LDP/BGP result records.  ``route_reflector``/``rr_clusters`` select
    the iBGP session topology (default full mesh) — the E15 churn storms
    reuse this base under each layout.  Returns the ctx dict
    ``mpls_census(prebuilt=...)`` takes."""
    net, nodes = _mpls_network(seed)
    prov = VpnProvisioner(net)
    vpn = prov.create_vpn("corp")
    for i in range(n_sites):
        prov.add_site(vpn, nodes[EDGE_ROUTERS[i % len(EDGE_ROUTERS)]], num_hosts=0)  # type: ignore[arg-type]
    prov.bgp_engine(route_reflector=route_reflector, rr_clusters=rr_clusters)
    _igp, ldp, bgp = converge_all(net, prov)
    return {"net": net, "nodes": nodes, "prov": prov, "ldp": ldp, "bgp": bgp}


def mpls_census(
    n_sites: int, seed: int = 13, prebuilt: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Provision the same N sites as a BGP/MPLS VPN and count state.

    ``prebuilt`` (a :func:`mpls_base` ctx, typically restored from a
    :mod:`repro.sim.snapshot` image) skips straight to the counting —
    ``wall_s`` then times only the census, not the provisioning."""
    t0 = perf_counter()
    ctx = prebuilt if prebuilt is not None else mpls_base(n_sites, seed)
    nodes, prov, ldp, bgp = ctx["nodes"], ctx["prov"], ctx["ldp"], ctx["bgp"]
    census = prov.state_census()
    wall_s = perf_counter() - t0
    # C1, measured: per-VPN state on a non-PE is a ``c1`` audit finding.
    # The P routers' LDP transport state is shared by every VPN; count it
    # separately to make that visible.
    core_vpn_state = sum(f.check == "c1" for f in audit(ctx["net"]))
    p_state = sum(
        len(nodes[f"P{i}"].lfib) for i in range(1, 5)
    )
    return {
        "sites": n_sites,
        "pes": census["pes"],
        "vrf_routes_total": census["vrf_routes_total"],
        "core_per_vpn_state": core_vpn_state,
        "core_ldp_state": p_state,
        "bgp_sessions": bgp.sessions,
        "bgp_updates": bgp.updates_sent,
        "ldp_sessions": ldp.sessions,
        "ldp_msgs": ldp.mapping_messages,
        "wall_s": wall_s,
    }


def run_e1(
    site_counts: Sequence[int] = (10, 50, 100, 200),
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """The E1 table: one row per N, overlay vs MPLS side by side.

    Pass ``site_counts=(500, 1000)`` for the paper-scale runs; the census
    wall-clock lands in each row so the benchmark suite can compare the
    overlay's O(N²) provisioning time against the MPLS VPN's O(N).
    """
    rows: list[dict[str, Any]] = []
    raw: dict[str, Any] = {"overlay": {}, "mpls": {}}
    for n in site_counts:
        ov = overlay_census(n)
        # The O(N²) overlay graph is garbage now; collect it here or the
        # MPLS side's wall clock pays full-generation collections over it
        # (N=1000: ~2.9 s instead of ~0.3 s).
        gc.collect()
        mp = mpls_census(n)
        raw["overlay"][n] = ov
        raw["mpls"][n] = mp
        rows.append(
            {
                "sites": n,
                "overlay_VCs": ov["circuits"],
                "N(N-1)/2": ov["formula"],
                "overlay_state": ov["state_total"],
                "overlay_max_node": ov["state_max_node"],
                "overlay_sig_msgs": ov["signaling_msgs"],
                "mpls_vrf_routes": mp["vrf_routes_total"],
                "mpls_core_vpn_state": mp["core_per_vpn_state"],
                "bgp_updates": mp["bgp_updates"],
                "ldp_msgs": mp["ldp_msgs"],
                "overlay_wall_s": ov["wall_s"],
                "mpls_wall_s": mp["wall_s"],
            }
        )
    return rows, raw
