"""Exact-count gate on what the control plane hands the cyclic collector.

A count, not a time (the ``test_hop_budget.py`` pattern): objects Python's
collector tracks — and therefore re-walks on every pass — after a build,
as ``len(gc.get_objects())`` reads them once ``gc.collect()`` has settled.
On ``provision_scale`` the collector was 47 % of a repeat while freeing
nothing, because route state was a graph of small objects: one trie node
per address bit, one shell entry per VRF route.  Host seconds gate only in
ten-pair ledger comparisons; this catches the same regression — a per-node
or per-route Python object back in the tables, a per-site record or
container back in the provisioning path — deterministically and in a few
seconds.

Recorded values (CPython 3.11; the gates keep a 3 % margin for the other
interpreters CI runs).  The E1-shaped build at N=200 (one VPN over 8 PEs,
IGP + LDP + MP-BGP converge) added 25 738 tracked objects with the trie as
``_TrieNode`` objects and a ``RouteEntry`` shell per VRF route, 14 797
with the trie in flat columns holding the ``VrfRoute`` itself, 13 020 with
one ``VrfRoute`` per advertisement shared by the VRFs importing it (400
remote ones for 2 800 imports), and 8 463 once a site stopped holding what
it does not use: no trie, stale map, stats record, bound method or empty
mutable container per table or interface until something needs one, one
zero-cost ``ProcessingModel`` for every node, and an advertisement that
holds its RD instead of a ``VpnPrefix``.  Per site of the ledger's
section-B shape (20 small VPNs x 20 sites on one 10/8 plan) that is 67.0 ->
43.6.  ``snapshot_network`` of the E1 N=1000 net left 9 250 instance dicts
on the live objects it pickled; with interfaces, links, duplex links,
sites, tables and VRFs slotted it leaves 3 128.  1000 installs of
ready-made prefixes and entries into one ``Fib`` added 2 016 (two nodes per
/24 below a shared /8), then 2 (the route dict and the stale dict), now 1.

Bytes, not only objects: an object the collector does not track still
costs memory, and an empty ``collections.deque`` is 760 bytes on CPython
3.11-3.13 — two per site, one per access-interface FIFO, were 1.5 KB of the
8 295 bytes a section-B site cost (``tracemalloc``, the marginal between
10 and 30 VPNs of 20 sites), and a router's empty drop-reason split, flow
cache entries and VRF-cache map (64 bytes each) about 0.2 KB more.  With
every queue discipline's packet store built on its first packet, and the
three mappings the shared empty one until their first write, a site costs
6 599 bytes and 41.6 tracked objects (43.6 before, two deques fewer), and
no empty dict, list, set or deque per site is reachable from a converged
idle network and its provisioner.

One copy of each import: MP-BGP kept every import twice (the VRF table
and an import mirror per VRF) and every advertisement as two objects (the
``VpnRoute`` of its Adj-RIB-Out and a ``VrfRoute`` copy the VRFs shared).
With the advertisement itself as the entry of every importing VRF and the
table as the only record of what was imported, a section-B site costs
5 731 bytes and 37.15 tracked objects (6 588 and 41.55 before), and the
E1 build at N=200 adds 7 231 (8 041 before).

A VRF entry is a site's route or an advertisement: with the remote fields
gone from ``VrfRoute`` and no label cache in front of each LFIB, a
section-B site costs 5 659 bytes and 37.12 tracked objects, the E1 build
at N=200 adds 7 218 (7 230 before) and a snapshot of the N=1000 net still
leaves 3 127.

One record per per-site fact: with the CE's unread prefix list and site
id, the VRF's circuit list (the PE's circuit map is the binding), each
interface's copy of its far end (its link names it) and the duplex link's
copy of the rate and delay gone, a section-B site costs 5 493 bytes and
35.72 tracked objects, and the E1 build at N=200 adds 7 011.
"""

import collections
import gc
import tracemalloc
import types

from repro.control import converge_all
from repro.experiments.e1_scalability import mpls_base
from repro.mpls.lsr import Lsr
from repro.net.address import Prefix
from repro.routing.fib import Fib, RouteEntry
from repro.sim.snapshot import snapshot_network
from repro.topology import Network, build_backbone
from repro.vpn.pe import PeRouter
from repro.vpn.provision import VpnProvisioner

MAX_TRACKED_E1_N200 = 7_450
MAX_TRACKED_PER_SITE_B = 38.3
MAX_BYTES_PER_SITE_B = 6_000
MAX_TRACKED_BY_SNAPSHOT_N1000 = 3_230
MAX_TRACKED_PER_1000_INSTALLS = 3


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def build_section_b(vpns: int, sites: int, seed: int = 1):
    """The ledger's ``provision_scale`` section B from public constructors:
    ``vpns`` VPNs of ``sites`` host-less sites each, all on one 10/8 plan,
    over the 12-node backbone (E1-E8 PEs), IGP + LDP + MP-BGP converged."""
    net = Network(seed=seed)

    def factory(n: Network, name: str):
        return n.add_node((PeRouter if name.startswith("E") else Lsr)(n.sim, name))

    nodes = build_backbone(net, node_factory=factory)
    pes = [nodes[f"E{i}"] for i in range(1, 9)]
    prov = VpnProvisioner(net)
    for k in range(vpns):
        vpn = prov.create_vpn(f"cust{k}", supernet="10.0.0.0/8")
        for i in range(sites):
            prov.add_site(vpn, pes[(i + k) % len(pes)], num_hosts=0)
    converge_all(net, prov)
    return net, prov


def test_e1_build_tracked_objects():
    # Lazy imports and first-use caches fill outside the counted build.
    mpls_base(8)
    before = _tracked()
    ctx = mpls_base(200)
    added = _tracked() - before
    assert ctx["bgp"].routes_imported == 200 * 2 * 7
    assert added <= MAX_TRACKED_E1_N200, f"{added} tracked objects added"


def test_section_b_tracked_objects_per_site():
    build_section_b(1, 20)
    before = _tracked()
    net, prov = build_section_b(20, 20)
    per_site = (_tracked() - before) / 400
    assert sum(len(v.sites) for v in prov.vpns.values()) == 400
    assert per_site <= MAX_TRACKED_PER_SITE_B, f"{per_site:.2f} tracked objects per site"


def _traced_bytes(vpns: int, sites: int) -> int:
    """Bytes a section-B build holds once built, by ``tracemalloc``."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        net, prov = build_section_b(vpns, sites)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def test_section_b_bytes_per_site():
    build_section_b(1, 20)
    per_site = (_traced_bytes(30, 20) - _traced_bytes(10, 20)) / 400
    assert per_site <= MAX_BYTES_PER_SITE_B, f"{per_site:.0f} bytes per site"


_EMPTY_KINDS = (dict, list, set, collections.deque)
_OPAQUE = (type, types.ModuleType, types.FunctionType, types.CodeType)


def _empty_containers(*roots) -> dict[str, int]:
    """Empty dicts / lists / sets / deques reachable from ``roots``, by
    type, not through a class, module, function or code object."""
    seen, stack = set(), list(roots)
    found: collections.Counter[str] = collections.Counter()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        if type(obj) in _EMPTY_KINDS and not obj:
            found[type(obj).__name__] += 1
        stack.extend(gc.get_referents(obj))
    return dict(found)


def test_an_idle_site_holds_no_empty_container():
    small = _empty_containers(*build_section_b(3, 20))
    large = _empty_containers(*build_section_b(6, 20))
    # What the backbone and the engines hold once; nothing per site.
    assert large == small, (small, large)


def test_snapshot_leaves_few_objects_on_the_live_net():
    """Pickling an unslotted object materialises its instance dict, which
    stays on the live object (and a restored one is built with it)."""
    ctx = mpls_base(1000)
    before = _tracked()
    snapshot_network(ctx["net"], {"prov": ctx["prov"]})
    added = _tracked() - before
    assert added <= MAX_TRACKED_BY_SNAPSHOT_N1000, f"{added} tracked objects added"


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
    # No columns, no leaf cache and no pending-write map: the routes are
    # all the table holds.
    assert not any(hasattr(fib, a) for a in ("_left", "_right", "_entries", "_leaf"))
    assert not isinstance(fib._stale, dict)
    # The first lookup builds it from the routes: a shared /8, then 16 rows
    # per /24 still installed.
    assert fib.lookup(prefixes[1].network + 7) is not None
    assert fib.lookup(prefixes[0].network + 7) is None
    assert len(fib._entries) > 500 and not fib._stale


def test_e1_build_looks_no_vrf_route_up():
    ctx = mpls_base(8)
    vrfs = [vrf for pe in ctx["prov"].pes() for vrf in pe.vrfs.values()]
    ces = [site.ce for vpn in ctx["prov"].vpns.values() for site in vpn.sites]
    assert vrfs and sum(len(vrf) for vrf in vrfs) > 0 and ces
    # Neither a VRF's table nor a CE's FIB has been read: no trie built.
    tables = [vrf._fib for vrf in vrfs] + [ce.fib for ce in ces]
    assert all(len(t) and not hasattr(t, "_entries") for t in tables)
