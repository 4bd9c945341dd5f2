"""Exact-count gates on what a churn op costs the control plane, and on
what it leaves behind.

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
  keys as tuples and the walks gone, 1 226 / 2 with the VRF's locals kept
  beside its table (read for "is this prefix a local?" too), a
  ``VpnRoute`` built only for a local that changed and no VRF-order table
  per delta;
* beside 80 small VPNs: 7 953 / 3 175, 2 681 / 2, then 2 186 / 2 — what
  still grew with the number of VPNs was one ``isdisjoint`` per provisioned
  VRF in ``_resync_imports_for``;
* with an RT -> importing-VRF index in place of that walk (a delta visits
  only the VRFs that import a changed route's RT): 845 / 4 beside 20 small
  VPNs and 845 / 4 beside 80 (1 221 / 4 and 2 181 / 4 before, CPython 3.11) —
  the VPN count no longer moves a flap's cost at all — and 877 / 4 at both
  once a delta re-picks under the import policy the engine last read (one
  record lookup per VRF it visits);
* with 800 big sites instead of 200 (20 small VPNs): 2 891 calls against
  1 691 while ``local_routes()`` / ``circuit_prefixes()`` walked the whole
  table and every local's ``VpnRoute`` was rebuilt per delta, 1 226 at both
  sizes then and 877 at both with the importer index: a flap costs its own
  routes, not its VRF's.

The other ops of a storm are held to the same rule, as differences between
two sizes of the same network rather than as absolute ceilings:

* a wave's ``converge()`` (8 sites of a new VPN, provisioned with no delta)
  on a converged base: 48 031 calls beside 20 small VPNs and 118 111 beside
  80 with every VRF's exports and imports re-derived — 146 calls per
  additional provisioned VRF — and 2 391 / 4 311, 4 per VRF, with the
  engine re-reading only the VRFs that differ from its record of them (the
  record lookup, the record as it would be written now — ``_state_of``,
  the one definition of it — with the table generation it reads, one
  ``isdisjoint`` against the wave's route targets); 2 115 / 4 035 with no
  VRF-order table built per resync; 1 720 / 3 160, 3 per VRF, with the
  importer index in place of the ``isdisjoint`` walk (dropping the index at
  each teardown and rebuilding it in the next wave's converge read 6);
* the same wave after a big-VPN flap on every PE: 25 455 calls at 200 big
  sites and 93 855 at 800 while a flap left its VRF's record stale (the
  wave re-read all eight big-VPN VRFs), 2 115 at both now that a delta
  whose VRF saw only local-only writes writes the record anew;
* the two ``reconverge()`` calls of a P1-P2 link flap on the 12-node
  backbone: 4 335 calls with 200 sites provisioned and 6 735 with 800 when
  the domain view was rebuilt from every node and every duplex link, 3 421
  at both sizes with the domain's members and links kept by the network.
  In absolute terms at 200 sites (CPython 3.11): 3 517 with a writer per
  mode diffing ``spf`` routes only, 3 615 with one writer that diffs
  connected routes too and also re-diffs a source whose discovery order the
  link set; diffing every router instead costs about 5 950;
* a PE drain and restore costs the routes it moves: drain + restore of
  two PEs beside 20 small VPNs (after one warm cycle on a third) moves
  5 040 routes for 9.42 calls each (11.54 beside 80) while every changed
  prefix paid a winner-pick frame, one changed-prefix set was sorted per
  importing VRF and a drained PE's VRFs ran the full decision loop on
  nothing offered; 6.02 (7.90) with a prefix one origin offers decided in
  the loop itself, each set sorted once and the nothing-offered VRFs
  emptied in one pass;
* and none of them leaves anything: after 50 site flaps, a wave and a
  drain / restore the graph holds the nodes, links, interfaces, addresses
  and /30s it started with and the collector tracks as many objects (each
  flap used to leave a CE, a link, a PE interface and a /30 behind).
"""

import cProfile
import gc
import pstats

import pytest

from repro.experiments.e1_scalability import mpls_base
from repro.routing.spf import reconverge
from repro.topology import Network
from repro.vpn.pe import PeRouter
from repro.vpn.provision import VpnProvisioner
from tests.test_state_budget import _tracked

N_PES = 8
BIG_SITES = 200
SMALL_SITES = 8
WARMUP_FLAPS = 2
COUNTED_FLAPS = 20
MAX_KEY_FRAMES_PER_FLAP = 50
# Calls per flap beside 20 or 80 small VPNs: the recorded value above plus
# about 10 %, and at 80 at most 2 % more than at 20.
SMALL_VPNS = (20, 80)
MAX_CALLS_PER_FLAP = 965
MAX_FLAP_GROWTH = 1.02
# Calls per route a drain / restore moves beside 20 small VPNs: the recorded
# value above plus 3 %.
MAX_CALLS_PER_ROUTE_DRAINED = 6.2
# Calls in the two reconverge() calls of one P1-P2 flap at 200 sites: the
# recorded value above plus about 2 %; diffing every router costs ~5 950.
MAX_CALLS_PER_LINK_FLAP = 3_700


def _converged(
    small_vpns: int, big_sites: int = BIG_SITES
) -> tuple[VpnProvisioner, list[PeRouter]]:
    net = Network(seed=5)
    pes = [net.add_node(PeRouter(net.sim, f"pe{i}")) for i in range(N_PES)]
    prov = VpnProvisioner(net)
    big = prov.create_vpn("big")
    for i in range(big_sites):
        prov.add_site(big, pes[i % N_PES], num_hosts=0)
    for k in range(small_vpns):
        vpn = prov.create_vpn(f"small{k}")
        for i in range(SMALL_SITES):
            prov.add_site(vpn, pes[i % N_PES], num_hosts=0)
    prov.converge_bgp()
    return prov, pes


def _flap(prov: VpnProvisioner, at: int = 0) -> None:
    big = prov.vpns["big"]
    site = big.sites[at]          # a flap re-appends, so 0 walks the VPN
    pe = site.pe
    prov.remove_site(site)
    prov.add_site(big, pe, prefix=site.prefix, num_hosts=0)
    prov.bgp_engine().export_delta(pe, pe.vrfs["big"])


def _flap_stats(small_vpns: int) -> pstats.Stats:
    """cProfile stats of the counted flaps beside ``small_vpns`` small VPNs."""
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
    return pstats.Stats(profile)


@pytest.fixture(scope="module")
def flap_stats() -> dict[int, pstats.Stats]:
    return {small_vpns: _flap_stats(small_vpns) for small_vpns in SMALL_VPNS}


@pytest.mark.parametrize("small_vpns", SMALL_VPNS)
def test_calls_per_big_vpn_site_flap(flap_stats, small_vpns):
    stats = flap_stats[small_vpns]
    key_frames = sum(
        ncalls for (_file, _line, name), (_cc, ncalls, *_rest) in stats.stats.items()
        if name in ("__hash__", "__eq__", "__lt__")
    )
    assert stats.total_calls / COUNTED_FLAPS <= MAX_CALLS_PER_FLAP, (
        f"{stats.total_calls} calls / {COUNTED_FLAPS} flaps"
    )
    assert key_frames / COUNTED_FLAPS <= MAX_KEY_FRAMES_PER_FLAP, (
        f"{key_frames} __hash__/__eq__/__lt__ frames / {COUNTED_FLAPS} flaps"
    )


def test_flap_cost_does_not_grow_with_the_vpn_count(flap_stats):
    """A delta visits the VRFs that import a changed RT, not every VRF
    provisioned: 60 more small VPNs on the same PEs leave a big-VPN flap
    where it was."""
    few, many = (flap_stats[n].total_calls for n in SMALL_VPNS)
    assert many <= MAX_FLAP_GROWTH * few, (
        f"{few} calls / {COUNTED_FLAPS} flaps beside {SMALL_VPNS[0]} small VPNs, "
        f"{many} beside {SMALL_VPNS[1]}"
    )


def _calls(fn) -> int:
    # Collector paused: a pass inside the profile would add whatever sits in
    # ``gc.callbacks`` (Hypothesis keeps a timer there) to an exact count.
    profile = cProfile.Profile()
    was_enabled = gc.isenabled()
    gc.disable()
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
        if was_enabled:
            gc.enable()
    return pstats.Stats(profile).total_calls


def _wave(prov: VpnProvisioner, pes: list[PeRouter], name: str) -> int:
    """Provision 8 sites of a new VPN with no delta, count the calls of the
    resync that finds them, and tear the VPN down again."""
    wave = prov.create_vpn(name, supernet="172.16.0.0/12")
    for pe in pes:
        prov.add_site(wave, pe, num_hosts=0)
    engine = prov.bgp_engine()
    calls = _calls(engine.converge)
    prov.remove_vpn(name)
    return calls


def test_wave_converge_costs_what_moved():
    per_size = {}
    for small_vpns in (20, 80):
        prov, pes = _converged(small_vpns)
        tables = sum(pe.vrf_state_entries() for pe in pes)
        _wave(prov, pes, "warm")
        per_size[small_vpns] = _wave(prov, pes, "wave")
        assert sum(pe.vrf_state_entries() for pe in pes) == tables
    more_vrfs = (80 - 20) * N_PES
    grown = per_size[80] - per_size[20]
    assert grown <= 4 * more_vrfs, (
        f"{per_size} calls: {grown / more_vrfs:.1f} per additional provisioned VRF"
    )


def test_big_vpn_flap_costs_its_own_routes():
    per_flap = {}
    for big_sites in (BIG_SITES, 4 * BIG_SITES):
        prov, pes = _converged(20, big_sites)
        for _ in range(WARMUP_FLAPS):
            _flap(prov)
        per_flap[big_sites] = _calls(lambda: [_flap(prov) for _ in range(COUNTED_FLAPS)])
    assert per_flap[4 * BIG_SITES] <= 1.25 * per_flap[BIG_SITES], (
        f"{per_flap} calls / {COUNTED_FLAPS} flaps by big-VPN size"
    )


def test_wave_after_big_vpn_flaps_does_not_reread_the_big_vpn():
    """A flap writes locals only, and its delta leaves its VRF in sync: the
    next wave's resync finds nothing of the big VPN to re-read."""
    per_size = {}
    for big_sites in (BIG_SITES, 4 * BIG_SITES):
        prov, pes = _converged(20, big_sites)
        _wave(prov, pes, "warm")
        for _ in range(N_PES):
            _flap(prov)         # sites sit round-robin: one flap per PE
        per_size[big_sites] = _wave(prov, pes, "wave")
    assert per_size[4 * BIG_SITES] == per_size[BIG_SITES], (
        f"{per_size} calls in a wave's converge() by big-VPN size"
    )


def test_calls_per_route_moved_by_a_pe_drain():
    """A drain removes the PE's routes from every importer and empties its
    own VRFs; the restore puts both back.  In calls per route moved, that
    is what it costs, not the VRFs or prefixes it looks at."""
    prov, pes = _converged(20)
    prov.drain_pe(pes[3])         # first-use state: memos, counter keys
    prov.restore_pe(pes[3])
    counters = prov.net.counters

    def moved() -> int:
        return counters["bgp.routes_imported"] + counters["bgp.routes_removed"]

    def cycles() -> None:
        for pe in pes[1:3]:
            prov.drain_pe(pe)
            prov.restore_pe(pe)

    before = moved()
    calls = _calls(cycles)
    routes = moved() - before
    assert routes > 0
    assert calls / routes <= MAX_CALLS_PER_ROUTE_DRAINED, f"{calls} calls / {routes} routes moved"


def _link_flap_calls(n_sites: int) -> int:
    net = mpls_base(n_sites)["net"]
    link = net.link_between("P1", "P2")

    def flap() -> int:
        calls = 0
        for up in (False, True):
            link.set_up(up)
            calls += _calls(lambda: reconverge(net))
        return calls

    flap()          # the first flap fills first-use state
    return flap()


def test_core_link_flap_does_not_read_the_access_circuits():
    small, large = _link_flap_calls(200), _link_flap_calls(800)
    assert abs(large - small) <= 0.01 * small, (
        f"{small} calls in reconverge at 200 sites, {large} at 800"
    )


def test_core_link_flap_calls():
    """A core flap diffs only the routers whose trees the link touched."""
    calls = _link_flap_calls(200)
    assert calls <= MAX_CALLS_PER_LINK_FLAP, f"{calls} calls in one P1-P2 flap's reconverge"


def _graph_footprint(net: Network, pes: list[PeRouter]) -> dict:
    return {
        "nodes": len(net.nodes),
        "links": len(net.duplex_links),
        "pe interfaces": [len(pe.interfaces) for pe in pes],
        "pe addresses": [len(pe.addresses) for pe in pes],
        "free /30s": net.linknets_free(),
    }


def test_churn_leaves_nothing_behind():
    prov, pes = _converged(20)
    net = prov.net

    def storm(flaps: int) -> None:
        for _ in range(flaps):
            _flap(prov, at=-5)      # round and round the same five sites
        _wave(prov, pes, "wave")
        prov.drain_pe(pes[3])
        prov.restore_pe(pes[3])

    # First-use state fills here: counter keys and fan-out memos.  (No
    # table here is looked up, so none keeps a pending-write map.)
    storm(5)
    tracked = _tracked()
    before = _graph_footprint(net, pes)
    storm(50)
    assert _graph_footprint(net, pes) == before
    del before      # three containers the first count did not see
    assert _tracked() == tracked
