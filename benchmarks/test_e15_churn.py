"""E15 — churn storms: incremental MP-BGP under operational stress."""

from repro.experiments.e15_churn import run_e15
from repro.metrics.table import print_table


def test_e15_churn_table(run_once):
    rows, raw = run_once(run_e15, n_sites=500)
    print_table(rows, title="E15 — churn storms at N=500")
    storms = {r["storm"]: r for r in rows if not r["storm"].startswith("—")}
    assert set(storms) == {"site-flap", "pe-drain", "vpn-wave", "link-flap", "residue"}

    # Every storm put back what it took: nothing left in the graph.
    residue = storms["residue"]
    assert [residue[k] for k in ("nodes", "links", "pe_interfaces", "subnets")] == [0] * 4

    # Delta distribution: a 10-flap storm moves tens of NLRI, not ten
    # full ~2N-route tables.
    site = storms["site-flap"]
    assert site["withdrawn"] >= 10
    assert 0 < site["updates"] < raw["n_sites"]
    # Link flaps repair transport through the IGP fast path; reachability
    # (BGP) stays silent because next hops are loopbacks.
    link = storms["link-flap"]
    assert link["updates"] == 0
    assert link["spf_installs"] > 0
    # A drain + restore round-trips the drained PE's share of the table.
    drain = storms["pe-drain"]
    assert drain["imported"] == drain["removed"] > 0

    # Topology pricing: RR layouts cut sessions vs the full mesh at equal
    # per-route fan-out; the redundant pair pays duplicate UPDATEs that
    # cluster-list suppression absorbs.
    topo = {r["topology"]: r for r in raw["topology"]}
    full, rr = topo["full-mesh"], topo["route-reflector"]
    assert full["sessions"] > rr["sessions"]
    assert full["updates_per_route"] == rr["updates_per_route"]
    redundant = topo["rr-redundant"]
    assert redundant["suppressed_per_route"] > 0
