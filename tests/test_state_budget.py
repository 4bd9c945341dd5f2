"""Exact-count gate on what the control plane hands the cyclic collector.

A count, not a time (the ``test_hop_budget.py`` pattern): objects Python's
collector tracks — and therefore re-walks on every pass — after a build,
as ``len(gc.get_objects())`` reads them once ``gc.collect()`` has settled.
On ``provision_scale`` the collector was 47 % of a repeat while freeing
nothing, because route state was a graph of small objects: one trie node
per address bit, one shell entry per VRF route.  Host seconds gate only in
ten-pair ledger comparisons; this catches the same regression — a per-node
or per-route Python object back in the tables — deterministically and in
about a second.

Recorded values: the E1-shaped build at N=200 (one VPN over 8 PEs, IGP +
LDP + MP-BGP converge) added 25 738 tracked objects with the trie as
``_TrieNode`` objects and a ``RouteEntry`` shell per VRF route, 14 797
with the trie in flat columns holding the ``VrfRoute`` itself, 12 798 with
one ``VrfRoute`` per advertisement shared by the VRFs importing it (400
remote ones for 2 800 imports).  1000 installs of ready-made prefixes and
entries into one ``Fib`` added 2 016 (two nodes per /24 below a shared
/8), now 2 (the route dict and the stale dict start being tracked once
they hold a key) — and no trie row at all until something is looked up.
"""

import gc

from repro.experiments.e1_scalability import mpls_base
from repro.net.address import Prefix
from repro.routing.fib import Fib, RouteEntry

MAX_TRACKED_E1_N200 = 13_500
MAX_TRACKED_PER_1000_INSTALLS = 8


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def test_e1_build_tracked_objects():
    # Lazy imports and first-use caches fill outside the counted build.
    mpls_base(8)
    before = _tracked()
    ctx = mpls_base(200)
    added = _tracked() - before
    assert ctx["bgp"].routes_imported == 200 * 2 * 7
    assert added <= MAX_TRACKED_E1_N200, f"{added} tracked objects added"


def test_fib_installs_add_no_tracked_objects():
    prefixes = [Prefix(0x0A000000 + (i << 8), 24) for i in range(1000)]
    entries = [RouteEntry("eth0") for _ in prefixes]
    fib = Fib()
    before = _tracked()
    fib.install_many(list(zip(prefixes[:500], entries[:500])))
    for pfx, entry in zip(prefixes[500:], entries[500:]):
        fib.install(pfx, entry)
    added = _tracked() - before
    assert len(fib) == 1000
    assert added <= MAX_TRACKED_PER_1000_INSTALLS, f"{added} tracked objects added"


def test_table_never_looked_up_builds_no_trie():
    prefixes = [Prefix(0x0A000000 + (i << 8), 24) for i in range(1000)]
    fib = Fib()
    fib.install_many([(pfx, RouteEntry("eth0")) for pfx in prefixes])
    fib.withdraw_many(prefixes[::2])
    assert len(fib) == 500
    assert len(fib._entries) == len(fib._left) == len(fib._right) == 1
    assert not fib._leaf
    # The first lookup builds it: a shared /8, then 16 rows per /24.
    assert fib.lookup(prefixes[1].network + 7) is not None
    assert fib.lookup(prefixes[0].network + 7) is None
    assert len(fib._entries) > 500 and not fib._stale


def test_e1_build_looks_no_vrf_route_up():
    ctx = mpls_base(8)
    vrfs = [vrf for pe in ctx["prov"].pes() for vrf in pe.vrfs.values()]
    assert vrfs and sum(len(vrf) for vrf in vrfs) > 0
    assert all(len(vrf._fib._entries) == 1 for vrf in vrfs)
