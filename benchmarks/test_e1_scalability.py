"""E1 — Scalability: overlay virtual circuits vs BGP/MPLS VPN state.

Regenerates the paper's §2.1 table (10 sites → 45 VCs, 200 → 19 900) with
live provisioned state on the reference backbone, side by side with the
MPLS VPN's per-PE state and control-message counts — and one row at the
scale the paper talks about, N=1000 (what that build costs in host seconds
is the ledger's ``provision_scale`` row).
"""

from repro.experiments.e1_scalability import run_e1
from repro.metrics.table import print_table


def test_e1_scalability_table(run_once):
    rows, raw = run_once(run_e1, site_counts=(10, 50, 100, 200, 1000))
    print_table(rows, title="E1 — overlay circuits vs MPLS VPN state (per N sites)")
    # The paper's arithmetic, exactly.
    by_n = {r["sites"]: r for r in rows}
    assert by_n[10]["overlay_VCs"] == 45
    assert by_n[200]["overlay_VCs"] == 19900
    assert by_n[1000]["overlay_VCs"] == 499_500
    # Quadratic vs linear growth between N=10 and N=200 (20x sites).
    assert by_n[200]["overlay_VCs"] / by_n[10]["overlay_VCs"] > 400
    assert by_n[200]["mpls_vrf_routes"] / by_n[10]["mpls_vrf_routes"] < 40
    # C1, measured: no P router holds a VRF or a VRF-bound label (the
    # column counts `c1` audit findings) at any N.
    assert all(r["mpls_core_vpn_state"] == 0 for r in rows)
