"""Exact-count gate on what one site flap costs the control plane.

A count, not a time (the ``test_hop_budget.py`` pattern): function calls
per big-VPN site flap — ``remove_site`` + ``add_site`` + ``export_delta``
on a converged network — as cProfile counts them.  The paper's case for
provider-provisioned VPNs is that moving a site touches the PEs serving
that VPN and nothing else; in calls, a flap must cost what it changes, not
what is provisioned.  Host seconds gate only in ten-pair ledger
comparisons (``churn_storm``); this catches the same regressions — a walk
over every site or every VRF back in an op, a route key hashed or compared
in Python — deterministically and in about a second.

Recorded values (8 PEs, one 200-site VPN, sites round-robin over the PEs,
20 counted flaps after 2 warm-up flaps), calls per flap / Python-level
``__hash__`` + ``__eq__`` + ``__lt__`` frames per flap:

* beside 20 small VPNs of 8 sites: 5 073 / 2 215 with the route keys as
  slotted dataclasses and ``pes()`` / ``_resync_imports_for`` /
  ``unbind_circuit`` walking everything provisioned, 1 721 / 2 with the
  keys as tuples and the walks gone;
* beside 80 small VPNs: 7 953 / 3 175 before, 2 681 / 2 after — what still
  grows with the number of VPNs is one ``isdisjoint`` per provisioned VRF
  in ``_resync_imports_for``.
"""

import cProfile
import pstats

import pytest

from repro.topology import Network
from repro.vpn.pe import PeRouter
from repro.vpn.provision import VpnProvisioner

N_PES = 8
BIG_SITES = 200
SMALL_SITES = 8
WARMUP_FLAPS = 2
COUNTED_FLAPS = 20
MAX_KEY_FRAMES_PER_FLAP = 50


def _converged(small_vpns: int) -> tuple[VpnProvisioner, list[PeRouter]]:
    net = Network(seed=5)
    pes = [net.add_node(PeRouter(net.sim, f"pe{i}")) for i in range(N_PES)]
    prov = VpnProvisioner(net)
    big = prov.create_vpn("big")
    for i in range(BIG_SITES):
        prov.add_site(big, pes[i % N_PES], num_hosts=0)
    for k in range(small_vpns):
        vpn = prov.create_vpn(f"small{k}")
        for i in range(SMALL_SITES):
            prov.add_site(vpn, pes[i % N_PES], num_hosts=0)
    prov.converge_bgp()
    return prov, pes


def _flap(prov: VpnProvisioner) -> None:
    big = prov.vpns["big"]
    site = big.sites[0]           # a flap re-appends, so this walks the VPN
    pe = site.pe
    prov.remove_site(site)
    prov.add_site(big, pe, prefix=site.prefix, num_hosts=0)
    prov.bgp_engine().export_delta(pe, pe.vrfs["big"])


@pytest.mark.parametrize(
    "small_vpns, max_calls_per_flap", [(20, 2_500), (80, 3_500)]
)
def test_calls_per_big_vpn_site_flap(small_vpns, max_calls_per_flap):
    prov, pes = _converged(small_vpns)
    tables = sum(pe.vrf_state_entries() for pe in pes)
    for _ in range(WARMUP_FLAPS):
        _flap(prov)
    profile = cProfile.Profile()
    profile.enable()
    try:
        for _ in range(COUNTED_FLAPS):
            _flap(prov)
    finally:
        profile.disable()
    # Every flap put back what it took: same sites, same table sizes.
    assert len(prov.vpns["big"].sites) == BIG_SITES
    assert sum(pe.vrf_state_entries() for pe in pes) == tables
    stats = pstats.Stats(profile)
    key_frames = sum(
        ncalls for (_file, _line, name), (_cc, ncalls, *_rest) in stats.stats.items()
        if name in ("__hash__", "__eq__", "__lt__")
    )
    assert stats.total_calls / COUNTED_FLAPS <= max_calls_per_flap, (
        f"{stats.total_calls} calls / {COUNTED_FLAPS} flaps"
    )
    assert key_frames / COUNTED_FLAPS <= MAX_KEY_FRAMES_PER_FLAP, (
        f"{key_frames} __hash__/__eq__/__lt__ frames / {COUNTED_FLAPS} flaps"
    )
