"""Converged-state snapshots: format, fail-fast header, restore parity.

The two contracts under test:

* **Format**: a snapshot is magic + versioned JSON header + pickle; any
  mismatch of magic, schema, or repro version, and any payload that is
  not byte for byte what was written (length + CRC32 in the header),
  fails fast with a clear :class:`~repro.sim.snapshot.SnapshotError`
  before anything is unpickled.
* **Collector**: dump and load run with the cyclic collector paused and
  leave it as the caller had it, also when they raise.
* **Parity**: a seeded run that passes through snapshot→restore is
  bit-identical to the uninterrupted run — both the warm-start shape
  (snapshot the converged build, restore, then run) and the true resume
  shape (snapshot *mid-run*, with packets in flight and events pending,
  and run the rest from the image).
"""

from __future__ import annotations

import gc
import json
import pickle
import re
import struct
import zlib
from typing import Any, Callable

import pytest

import repro
from repro.audit import audit
from repro.net.address import Prefix
from repro.obs import runtime
from repro.obs.flightrec import FlightRecorder
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.sim.snapshot import (
    MAGIC,
    SCHEMA,
    SnapshotError,
    load,
    pending_schedule,
    read_header,
    restore_network,
    save,
    snapshot_network,
)
from repro.topology import Network
from repro.vpn.bgp import VpnRoute
from repro.vpn.pe import PeRouter
from repro.vpn.provision import VpnProvisioner
from repro.vpn.rd_rt import RouteDistinguisher, RouteTarget, VpnPrefix
from tests.test_churn_incremental import _imports_are_advertisements, _vrf_snapshot


# ----------------------------------------------------------------------
# Format + header


def _small_net() -> Network:
    net = Network(seed=5)
    net.add_router("a")
    net.add_router("b")
    net.connect("a", "b", 10e6, 1e-3)
    return net


def test_roundtrip_small_topology() -> None:
    net = _small_net()
    blob = snapshot_network(net, {"note": "hi"})
    net2, extras = restore_network(blob)
    assert sorted(net2.nodes) == sorted(net.nodes)
    assert extras == {"note": "hi"}
    assert net2.topology_generation == net.topology_generation
    assert net2.sim.now == net.sim.now
    # The restored graph is internally consistent: extras/nodes reference
    # the same objects, not parallel copies.
    assert net2.duplex_links[0].a is net2.nodes["a"]


def test_header_fields(tmp_path) -> None:
    net = _small_net()
    path = str(tmp_path / "n.snap")
    size = save(path, net)
    assert size > len(MAGIC)
    header = read_header(path)
    assert header["schema"] == SCHEMA
    assert header["repro_version"] == repro.__version__
    assert "python" in header and "pickle_protocol" in header


def _payload_offset(blob: bytes) -> int:
    (hlen,) = struct.unpack_from("<I", blob, len(MAGIC))
    return len(MAGIC) + 4 + hlen


def _tamper_header(blob: bytes, **overrides: Any) -> bytes:
    """Rewrite the snapshot's JSON header, keeping payload intact."""
    end = _payload_offset(blob)
    header = json.loads(blob[len(MAGIC) + 4 : end].decode())
    header.update(overrides)
    new = json.dumps(header, sort_keys=True).encode()
    return MAGIC + struct.pack("<I", len(new)) + new + blob[end:]


def test_bad_magic_fails_fast() -> None:
    with pytest.raises(SnapshotError, match="bad magic"):
        restore_network(b"not a snapshot at all")


def test_schema_mismatch_fails_fast() -> None:
    blob = snapshot_network(_small_net())
    bad = _tamper_header(blob, schema="repro.snapshot/99")
    with pytest.raises(SnapshotError, match="schema"):
        restore_network(bad)


def test_version_mismatch_fails_fast() -> None:
    blob = snapshot_network(_small_net())
    bad = _tamper_header(blob, repro_version="0.0.1")
    with pytest.raises(SnapshotError, match="repro '?0.0.1'?"):
        restore_network(bad)


def test_python_mismatch_fails_fast() -> None:
    blob = snapshot_network(_small_net())
    bad = _tamper_header(blob, python="2.7")
    with pytest.raises(SnapshotError, match="Python"):
        restore_network(bad)


def test_truncated_blob_fails_fast() -> None:
    blob = snapshot_network(_small_net())
    with pytest.raises(SnapshotError):
        restore_network(blob[: len(MAGIC) + 2])


def _with_payload(blob: bytes, payload: bytes) -> bytes:
    """``blob`` carrying ``payload`` instead, under a header that vouches
    for it (right length, right CRC32)."""
    return _tamper_header(
        blob[: _payload_offset(blob)] + payload,
        payload_bytes=len(payload),
        payload_crc32=zlib.crc32(payload),
    )


def _must_not_unpickle(*_args: Any, **_kwargs: Any) -> None:
    raise AssertionError("the payload reached pickle.loads")


def test_header_vouches_for_payload() -> None:
    blob = snapshot_network(_small_net())
    off = _payload_offset(blob)
    header = json.loads(blob[len(MAGIC) + 4 : off])
    assert header["payload_bytes"] == len(blob) - off
    assert header["payload_crc32"] == zlib.crc32(blob[off:])


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_flipped_payload_bit_fails_before_unpickling(monkeypatch, where: str) -> None:
    blob = bytearray(snapshot_network(_small_net()))
    off = _payload_offset(bytes(blob))
    at = {"first": off, "middle": (off + len(blob)) // 2, "last": len(blob) - 1}[where]
    blob[at] ^= 0x04
    monkeypatch.setattr(pickle, "loads", _must_not_unpickle)
    with pytest.raises(SnapshotError, match="payload is .* but the header declares"):
        restore_network(bytes(blob))


@pytest.mark.parametrize("cut", [1, 100])
def test_short_payload_fails_before_unpickling(monkeypatch, cut: int) -> None:
    blob = snapshot_network(_small_net())
    want = len(blob) - _payload_offset(blob)
    monkeypatch.setattr(pickle, "loads", _must_not_unpickle)
    with pytest.raises(
        SnapshotError,
        match=rf"payload is .* \({want - cut}, \d+\) but the header declares \({want}, \d+\)",
    ):
        restore_network(blob[:-cut])


def test_trailing_bytes_fail_before_unpickling(monkeypatch) -> None:
    blob = snapshot_network(_small_net())
    monkeypatch.setattr(pickle, "loads", _must_not_unpickle)
    with pytest.raises(SnapshotError, match="payload is .* but the header declares"):
        restore_network(blob + b"\0")


def test_schema_1_image_refused_by_name() -> None:
    # A /1 image holds the FIB trie as _TrieNode objects, which are gone.
    blob = snapshot_network(_small_net())
    old = _tamper_header(blob, schema="repro.snapshot/1")
    with pytest.raises(SnapshotError, match=r"schema 'repro\.snapshot/1'"):
        restore_network(old)


def test_schema_2_image_refused_by_name(monkeypatch) -> None:
    # A /2 image holds Prefix / RouteTarget / VpnRoute as slotted-dataclass
    # state; they are tuples now and would fail inside pickle.loads.
    blob = snapshot_network(_small_net())
    old = _tamper_header(blob, schema="repro.snapshot/2")
    monkeypatch.setattr(pickle, "loads", _must_not_unpickle)
    with pytest.raises(SnapshotError, match=r"schema 'repro\.snapshot/2'"):
        restore_network(old)


def test_schema_3_image_refused_by_name(monkeypatch) -> None:
    # A /3 image holds each Fib as its full attribute dict (trie columns,
    # leaf cache); this reader's Fib.__setstate__ takes the routes only.
    blob = snapshot_network(_small_net())
    old = _tamper_header(blob, schema="repro.snapshot/3")
    monkeypatch.setattr(pickle, "loads", _must_not_unpickle)
    with pytest.raises(SnapshotError, match=r"schema 'repro\.snapshot/3'"):
        restore_network(old)


def test_schema_4_image_refused_by_name(monkeypatch) -> None:
    # A /4 network has no free /30 list, no per-domain index and nodes that
    # do not know their network: the first disconnect() or node.domain write
    # after a restore would fail far from the cause.
    blob = snapshot_network(_small_net())
    old = _tamper_header(blob, schema="repro.snapshot/4")
    monkeypatch.setattr(pickle, "loads", _must_not_unpickle)
    with pytest.raises(SnapshotError, match=r"schema 'repro\.snapshot/4'"):
        restore_network(old)


def test_schema_5_image_refused_by_name(monkeypatch) -> None:
    # A /5 image holds interfaces, links, sites and VRFs as instance dicts
    # (and a stats object per interface); this reader's classes are slotted
    # and would fail inside pickle.loads with no dict to fill.
    blob = snapshot_network(_small_net())
    old = _tamper_header(blob, schema="repro.snapshot/5")
    monkeypatch.setattr(pickle, "loads", _must_not_unpickle)
    with pytest.raises(SnapshotError, match=r"schema 'repro\.snapshot/5'"):
        restore_network(old)


def test_schema_6_image_refused_by_name(monkeypatch) -> None:
    # A /6 network carries a link-listener list and a convergence-tracer
    # slot, and a pending event scheduled through the old bind() helper
    # names a rebuild function this reader no longer has: it would fail
    # deep inside pickle.loads.
    blob = snapshot_network(_small_net())
    old = _tamper_header(blob, schema="repro.snapshot/6")
    monkeypatch.setattr(pickle, "loads", _must_not_unpickle)
    with pytest.raises(SnapshotError, match=r"schema 'repro\.snapshot/6'"):
        restore_network(old)


def test_schema_7_image_refused_by_name(monkeypatch) -> None:
    # A /7 image holds each site's ``extra`` dict, a slot this reader's Site
    # does not have, and IGP state whose edge map holds metrics without the
    # link chosen per adjacency: the first would fail inside pickle.loads,
    # the second would make the next reconverge misread every edge.
    blob = snapshot_network(_small_net())
    old = _tamper_header(blob, schema="repro.snapshot/7")
    monkeypatch.setattr(pickle, "loads", _must_not_unpickle)
    with pytest.raises(SnapshotError, match=r"schema 'repro\.snapshot/7'"):
        restore_network(old)


def test_schema_8_image_refused_by_name(monkeypatch) -> None:
    # A /8 image holds a deque per idle queue discipline and an empty dict
    # per idle cache and drop counter, and links without the transmitting
    # interface a failure counts its LINK_DOWN drop at: this reader's
    # Link.__setstate__ takes a tuple and would fail inside pickle.loads.
    blob = snapshot_network(_small_net())
    old = _tamper_header(blob, schema="repro.snapshot/8")
    monkeypatch.setattr(pickle, "loads", _must_not_unpickle)
    with pytest.raises(SnapshotError, match=r"schema 'repro\.snapshot/8'"):
        restore_network(old)


def test_schema_9_image_refused_by_name(monkeypatch) -> None:
    # A /9 image holds each MP-BGP import as a VrfRoute copy beside the
    # engine's import mirror: this reader's engine takes only its own
    # advertisement objects for imports, so it would never withdraw those.
    blob = snapshot_network(_small_net())
    old = _tamper_header(blob, schema="repro.snapshot/9")
    monkeypatch.setattr(pickle, "loads", _must_not_unpickle)
    with pytest.raises(SnapshotError, match=r"schema 'repro\.snapshot/9'"):
        restore_network(old)


def test_schema_10_image_refused_by_name(monkeypatch) -> None:
    # A /10 image holds VrfRoute objects with the remote fields this
    # reader's local-only VrfRoute lacks, and a label cache per LSR
    # pipeline, whose slot this reader's pipeline no longer has.
    blob = snapshot_network(_small_net())
    old = _tamper_header(blob, schema="repro.snapshot/10")
    monkeypatch.setattr(pickle, "loads", _must_not_unpickle)
    with pytest.raises(SnapshotError, match=r"schema 'repro\.snapshot/10'"):
        restore_network(old)


def test_schema_11_image_refused_by_name(monkeypatch) -> None:
    # An /11 image images a VRF with its circuit list (a seven-item tuple
    # this reader's Vrf.__setstate__ cannot unpack), a CE with its site id
    # and prefix list, and an interface with the far end's node and name.
    blob = snapshot_network(_small_net())
    old = _tamper_header(blob, schema="repro.snapshot/11")
    monkeypatch.setattr(pickle, "loads", _must_not_unpickle)
    with pytest.raises(SnapshotError, match=r"schema 'repro\.snapshot/11'"):
        restore_network(old)


def test_schema_12_image_refused_by_name(monkeypatch) -> None:
    # A /12 image holds a provisioner with the PE-set signature its engine
    # was rebuilt on, and an engine with a route reflector beside its
    # clusters: state this reader's one engine per provisioner never reads.
    blob = snapshot_network(_small_net())
    old = _tamper_header(blob, schema="repro.snapshot/12")
    monkeypatch.setattr(pickle, "loads", _must_not_unpickle)
    with pytest.raises(SnapshotError, match=r"schema 'repro\.snapshot/12'"):
        restore_network(old)


def test_schema_13_image_refused_by_name(monkeypatch) -> None:
    # A /13 image may hold a local function or lambda as marshalled code
    # and closure cells, rebuilt by a loader this reader no longer has; its
    # queue factory, PE policer and flow sinks are closures where this
    # reader's graph holds importable callables.
    blob = snapshot_network(_small_net())
    old = _tamper_header(blob, schema="repro.snapshot/13")
    monkeypatch.setattr(pickle, "loads", _must_not_unpickle)
    with pytest.raises(SnapshotError, match=r"schema 'repro\.snapshot/13'"):
        restore_network(old)


def test_schema_14_image_refused_by_name(monkeypatch) -> None:
    # A /14 image holds a PE's qos_exp_mapping flag, which this reader's
    # imposition never consults (impose_exp is the one EXP policy), so an
    # e5 none / cbq-only base would come back mapping DSCP to EXP; and a
    # tunnel cache per PE pipeline, whose slot this reader's has no more.
    blob = snapshot_network(_small_net())
    old = _tamper_header(blob, schema="repro.snapshot/14")
    monkeypatch.setattr(pickle, "loads", _must_not_unpickle)
    with pytest.raises(SnapshotError, match=r"schema 'repro\.snapshot/14'"):
        restore_network(old)


def test_restored_route_keys_are_the_value_types() -> None:
    """The control plane's keys pickle as tuples: after a round trip they
    must still be Prefix / RouteTarget instances (rebuilt through the
    constructors) that hit the dict entries freshly built keys hit."""
    net = Network(seed=5)
    pes = [net.add_node(PeRouter(net.sim, f"pe{i}")) for i in range(2)]
    prov = VpnProvisioner(net)
    vpn = prov.create_vpn("v")
    sites = [prov.add_site(vpn, pe, num_hosts=0) for pe in pes]
    prov.converge_bgp()
    net2, extras = restore_network(snapshot_network(net, {"prov": prov}))
    prov2 = extras["prov"]
    vpn2 = prov2.vpns["v"]
    assert type(vpn2.rt) is RouteTarget and type(vpn2.rd) is RouteDistinguisher
    assert (vpn2.rt, vpn2.rd) == (vpn.rt, vpn.rd)
    engine, engine2 = prov.bgp_engine(), prov2.bgp_engine()
    assert {type(rt) for rt in engine2._rt_index} == {RouteTarget}
    assert engine2._rt_index[RouteTarget(vpn.rt.asn, vpn.rt.number)].keys() == (
        engine._rt_index[vpn.rt].keys()
    )
    for pe, pe2 in zip(pes, (net2.nodes["pe0"], net2.nodes["pe1"])):
        vrf, vrf2 = pe.vrfs["v"], pe2.vrfs["v"]
        assert vrf2.import_rts == vrf.import_rts and vpn.rt in vrf2.import_rts
        routes2 = vrf2.routes()
        assert {type(p) for p in routes2} == {Prefix}
        assert routes2 == vrf.routes()
        for site in sites:
            fresh = Prefix(site.prefix.network, site.prefix.length)
            assert routes2[fresh] == vrf.routes()[site.prefix]
            assert vrf2.entries()[fresh].kind == vrf.entries()[site.prefix].kind
    rib2 = engine2._rib["pe0", "v"]
    assert {type(r) for r in rib2.values()} == {VpnRoute}
    assert {type(r.key) for r in rib2.values()} == {VpnPrefix}
    assert rib2 == engine._rib["pe0", "v"]


def _tables(net: Network) -> dict[str, Any]:
    """Every LPM table of ``net`` by name: router FIBs and VRF tables."""
    out: dict[str, Any] = {}
    for name, node in net.nodes.items():
        if hasattr(node, "fib"):
            out[name] = node.fib
        for vrf in getattr(node, "vrfs", {}).values():
            out[f"{name}/{vrf.name}"] = vrf._fib
    return out


def _answers(net: Network) -> dict[str, list]:
    """What each table answers for the ends of every prefix any table holds."""
    tables = _tables(net)
    probes = sorted({
        value for fib in tables.values() for pfx in fib.prefixes()
        for value in (pfx.network, pfx.network + pfx.num_addresses - 1)
    })
    return {
        name: [fib.lookup_prefix(value) for value in probes]
        for name, fib in tables.items()
    }


def test_image_carries_routes_only_and_restored_tables_answer_identically() -> None:
    """Some tables of the live net were looked up (traffic ran), most VRF
    and core tables never were; the image is taken first, the live answers
    after, so neither side's trie existed for the never-read ones."""
    from repro.experiments.e5_sla import _build, run_stage

    ctx = _build("full", seed=3)
    run_stage("full", seed=3, measure_s=0.3, prebuilt=ctx)
    net = ctx.pop("net")
    assert sum(fib.lookups for fib in _tables(net).values()) > 0
    findings = audit(net)
    blob = snapshot_network(net, ctx)
    net2, _ = restore_network(blob)
    for name, fib in _tables(net2).items():
        live = _tables(net)[name]
        assert dict(fib.routes()) == dict(live.routes())
        assert (fib.generation, fib.lookups) == (live.generation, live.lookups)
        # Routes only: no trie and no pending-write map until a lookup.
        assert not hasattr(fib, "_entries") and not isinstance(fib._stale, dict)
    assert _answers(net2) == _answers(net)
    # The first lookup after a restore builds the trie; it is not a mutation,
    # so every cache is exactly as coherent as it was when imaged.
    assert not any(fib._stale for fib in _tables(net2).values())
    assert audit(net2) == findings == audit(net)


def test_vrfs_share_one_route_per_advertisement_across_restore() -> None:
    """An import is the Adj-RIB-Out's advertisement object itself, one per
    advertisement however many VRFs hold it, and an image keeps it one: the
    restored engine finds its own objects in the restored tables, so its
    next flap, drain and wave do exactly what the live engine's do."""
    net = Network(seed=5)
    pes = [net.add_node(PeRouter(net.sim, f"pe{i}")) for i in range(4)]
    prov = VpnProvisioner(net)
    vpn = prov.create_vpn("v")
    sites = [prov.add_site(vpn, pe, num_hosts=0) for pe in pes]
    prov.converge_bgp()
    _, extras = restore_network(snapshot_network(net, {"prov": prov}))
    provs = (prov, extras["prov"])
    for each in provs:
        engine = each.bgp_engine()
        for site in sites:
            advertised = engine._rib[site.pe.name, "v"][site.prefix]
            holders = [
                each.net.nodes[pe.name].vrfs["v"].routes()[site.prefix]
                for pe in pes if pe is not site.pe
            ]
            assert type(advertised) is VpnRoute and advertised.kind == "remote"
            assert len(holders) == 3 and all(route is advertised for route in holders)
    # The next flap, drain and wave: equal counters after each, live and
    # restored, and every import still the Adj-RIB-Out's own object.
    steps = []
    for each in provs:
        v, pe = each.vpns["v"], each.net.nodes["pe1"]
        site = v.sites[0]
        each.remove_site(site)
        gone = site.prefix
        assert all(gone not in p.vrfs["v"].prefixes() for p in each.pes())
        each.add_site(v, site.pe, prefix=site.prefix, num_hosts=0)
        each.bgp_engine().export_delta(site.pe, site.pe.vrfs["v"])
        counted = [each.net.counters.snapshot()]
        each.drain_pe(pe)
        each.restore_pe(pe)
        counted.append(each.net.counters.snapshot())
        for at in ("pe2", "pe3"):
            each.add_site(v, each.net.nodes[at], num_hosts=0)
        each.converge_bgp()
        counted.append(each.net.counters.snapshot())
        engine = each.bgp_engine()
        held = _imports_are_advertisements(each, engine)
        assert len(held) == engine.adj_rib_size() == 2 * 6   # site and access /30
        steps.append((counted, _vrf_snapshot(each)))
    assert steps[0] == steps[1]


def _flap(prov: VpnProvisioner, at: int):
    """Re-attach a big-VPN site where it was: what its deltas return, what
    they counted, and every VRF table afterwards."""
    big = prov.vpns["big"]
    site, counters = big.sites[at], prov.net.counters.snapshot()
    prov.remove_site(site)
    prov.add_site(big, site.pe, prefix=site.prefix, num_hosts=0)
    result = prov.bgp_engine().export_delta(site.pe, site.pe.vrfs["big"])
    moved = {k: v - counters.get(k, 0) for k, v in prov.net.counters.snapshot().items()}
    tables = {
        (pe.name, vrf.name): vrf.routes() for pe in prov.pes() for vrf in pe.vrfs.values()
    }
    return result, moved, tables


def test_restored_vrfs_rebuild_their_locals_and_flap_like_the_live_ones() -> None:
    """An image carries neither a VRF's locals dict nor its local generation
    (their bytes would be a copy of the table's): restore rebuilds the one
    from the table and restarts the other, and the engine's records come
    back in step with that.  Big-VPN flaps — one taken before the image —
    and the resync after them then return on the restored network exactly
    what they return on the live one."""
    net = Network(seed=5)
    pes = [net.add_node(PeRouter(net.sim, f"pe{i}")) for i in range(4)]
    prov = VpnProvisioner(net)
    big, small = prov.create_vpn("big"), prov.create_vpn("small")
    for i in range(24):
        prov.add_site(big, pes[i % 4], num_hosts=0)
    for pe in pes:
        prov.add_site(small, pe, num_hosts=0)
    prov.converge_bgp()
    _flap(prov, 0)
    blob = snapshot_network(net, {"prov": prov})
    assert b"_locals" not in blob and b"local_generation" not in blob
    net2, extras = restore_network(blob)
    prov2 = extras["prov"]
    for pe in pes:
        for vrf in net2.nodes[pe.name].vrfs.values():
            table = vrf.routes()
            assert vrf.local_routes() == {p: r for p, r in table.items() if r.kind == "local"}
            assert all(route is table[p] for p, route in vrf.local_routes().items())
            assert vrf.local_routes() == pe.vrfs[vrf.name].local_routes()
            assert vrf.local_generation == 0
    assert prov2.bgp_engine()._synced.keys() == prov.bgp_engine()._synced.keys()
    for at in (3, 7, 3):
        assert _flap(prov2, at) == _flap(prov, at)
    assert prov2.converge_bgp() == prov.converge_bgp()


def test_importer_index_is_not_imaged_and_a_restored_engine_churns_like_the_live_one() -> None:
    """The engine's RT -> importing-VRF index is derived from the PEs' VRFs:
    the image leaves it out (its bytes are what they were before the index
    existed), the restored engine rebuilds it on first use, and the next
    flap, drain and wave then move the restored network exactly as they move
    the live one."""
    from tests.test_churn_budget import N_PES, _converged

    prov, pes = _converged(20)
    _flap(prov, 0)
    prov.drain_pe(pes[3])
    prov.restore_pe(pes[3])
    assert prov.bgp_engine()._importers is not None     # built by the flap
    blob = snapshot_network(prov.net, {"prov": prov})
    assert b"_importers" not in blob
    _, extras = restore_network(blob)
    prov2 = extras["prov"]
    assert prov2.bgp_engine()._importers is None

    def churn(p: VpnProvisioner):
        nodes = [p.net.nodes[f"pe{i}"] for i in range(N_PES)]
        flap = _flap(p, 7)
        p.drain_pe(nodes[5])
        p.restore_pe(nodes[5])
        wave = p.create_vpn("wave", supernet="172.16.0.0/12")
        for pe in nodes:
            p.add_site(wave, pe, num_hosts=0)
        converged = p.converge_bgp()
        p.remove_vpn("wave")
        tables = {
            (pe.name, vrf.name): (vrf.routes(), vrf.generation)
            for pe in nodes for vrf in pe.vrfs.values()
        }
        return flap, converged, p.net.counters.snapshot(), tables

    assert churn(prov2) == churn(prov)
    index, index2 = prov.bgp_engine().importers(), prov2.bgp_engine().importers()
    assert {rt: set(e) for rt, e in index2.items()} == {rt: set(e) for rt, e in index.items()}


def test_vouched_for_garbage_is_still_a_snapshot_error() -> None:
    blob = snapshot_network(_small_net())
    with pytest.raises(SnapshotError, match="payload failed to load"):
        restore_network(_with_payload(blob, b"not a pickle"))


def test_generator_in_graph_rejected() -> None:
    net = _small_net()
    net.nodes["a"].oops = (i for i in range(3))  # type: ignore[attr-defined]
    with pytest.raises(SnapshotError, match="generator"):
        snapshot_network(net)


def _outer_conditioner() -> Callable:
    def inner(pkt, now):
        return pkt
    return inner


@pytest.mark.parametrize("make, name", [
    (lambda: (lambda pkt, now: pkt), "<lambda>"),
    (_outer_conditioner, "_outer_conditioner.<locals>.inner"),
], ids=["lambda", "local_function"])
def test_local_callable_refused_by_name(make: Callable, name: str) -> None:
    """A graph holds only callables pickle writes by name: a lambda or a
    local function is refused with pickle's message naming it, and the
    failed dump leaves the network and the collector as they were."""
    net = _small_net()
    clean = snapshot_network(net)
    ifc = net.nodes["a"].interfaces["to-b"]
    fn = make()
    ifc.add_conditioner(fn)
    collector = gc.isenabled()
    with pytest.raises(SnapshotError, match=re.escape(name)):
        snapshot_network(net)
    assert gc.isenabled() is collector
    assert ifc.conditioners == (fn,)
    ifc.conditioners = ()
    assert snapshot_network(net) == clean


def _base_keys() -> list[str]:
    from repro.experiments.e2_qos import CONFIGS
    from repro.experiments.e5_sla import STAGES

    return (["e1/mpls/20", "e1/overlay/20", "e15/20"]
            + [f"e2/{c}" for c in CONFIGS] + [f"e5/{s}" for s in STAGES])


@pytest.mark.parametrize("key", _base_keys())
def test_every_base_round_trips_and_audits_clean(key: str) -> None:
    """Every base the sweep and ``repro snapshot save`` build snapshots
    with the standard pickler, restores, and audits with no error."""
    from repro.sweep.runner import _build_base

    net, _ = restore_network(_build_base(key))
    assert [f for f in audit(net) if f.severity == "error"] == []


# ----------------------------------------------------------------------
# The collector is paused across dump / load and left as it was found


@pytest.fixture
def collector_as_found():
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


_collector_seen: list[tuple[str, bool]] = []


def _probe_loaded() -> "_CollectorProbe":
    _collector_seen.append(("load", gc.isenabled()))
    return _CollectorProbe()


class _CollectorProbe:
    """Rides in ``extras`` and notes whether the collector is on at the
    moment it is dumped and at the moment it is rebuilt."""

    def __reduce__(self):
        _collector_seen.append(("dump", gc.isenabled()))
        return (_probe_loaded, ())


def test_collector_is_off_inside_dump_and_load(collector_as_found) -> None:
    gc.enable()
    del _collector_seen[:]
    blob = snapshot_network(_small_net(), {"probe": _CollectorProbe()})
    restore_network(blob)
    assert _collector_seen == [("dump", False), ("load", False)]
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_left_as_the_caller_had_it(collector_as_found, enabled: bool) -> None:
    (gc.enable if enabled else gc.disable)()
    net = _small_net()
    blob = snapshot_network(net)
    assert gc.isenabled() is enabled
    restore_network(blob)
    assert gc.isenabled() is enabled
    # ... when the dump raises,
    net.nodes["a"].oops = (i for i in range(3))  # type: ignore[attr-defined]
    with pytest.raises(SnapshotError, match="generator"):
        snapshot_network(net)
    assert gc.isenabled() is enabled
    # ... and when the payload fails to load.
    with pytest.raises(SnapshotError, match="payload failed to load"):
        restore_network(_with_payload(blob, b"not a pickle"))
    assert gc.isenabled() is enabled


def test_attached_telemetry_rejected() -> None:
    runtime.reset()
    runtime.enable(profile=False)
    try:
        net = _small_net()
        assert net.telemetry is not None
        with pytest.raises(SnapshotError, match="telemetry"):
            snapshot_network(net)
    finally:
        runtime.reset()


def test_restore_reattaches_telemetry_when_enabled() -> None:
    blob = snapshot_network(_small_net())
    runtime.reset()
    runtime.enable(profile=False)
    try:
        net, _ = restore_network(blob)
        assert net.telemetry is not None
        assert net.trace.flight is net.telemetry.flight
    finally:
        runtime.reset()


# ----------------------------------------------------------------------
# RNG stream state


def test_rng_get_set_state_roundtrip() -> None:
    rs = RandomStreams(seed=9)
    g = rs.stream("x")
    g.random(10)
    state = rs.get_state()
    ahead = g.random(5).tolist()
    rs2 = RandomStreams(seed=0)
    rs2.set_state(state)
    assert rs2.seed == 9
    assert rs2.stream("x").random(5).tolist() == ahead
    # ...and an untouched stream keeps deriving from the restored seed.
    assert rs2.stream("y").random() == RandomStreams(seed=9).stream("y").random()


def test_rng_reseed_only_before_first_draw() -> None:
    rs = RandomStreams(seed=1)
    rs.reseed(7)
    assert rs.seed == 7
    rs.stream("a")
    with pytest.raises(RuntimeError, match="reseed"):
        rs.reseed(8)


# ----------------------------------------------------------------------
# Events scheduled with arguments survive with callback and args intact


def test_schedule_call_event_survives_snapshot() -> None:
    net = _small_net()
    hits: list[int] = []  # ride in extras: the restored callback is its append

    net.sim.schedule_call(1.0, hits.append, 1)
    blob = snapshot_network(net, {"hits": hits})
    net2, extras = restore_network(blob)
    assert pending_schedule(net2.sim) == [(1.0, "list.append", ("1",))]
    assert net2.sim._buckets[1.0].args == (1,)
    net2.sim.run(until=2.0)
    assert extras["hits"] == [1] and hits == []


def test_pending_schedule_lists_live_events_in_order() -> None:
    sim = Simulator()
    sim.schedule_call(2.0, print, "late")
    sim.schedule_call(1.0, print, "early")
    doomed = sim.schedule_call(1.5, print, "never")
    doomed.cancel()
    times = [t for t, _d, _a in pending_schedule(sim)]
    assert times == [1.0, 2.0]


# ----------------------------------------------------------------------
# Parity: warm-start shape (snapshot the converged build, then run)


def _trace(run_fn: Callable[[], object]) -> list[tuple]:
    """Run under a big flight recorder; normalized per-hop event tuples.

    Same first-appearance uid normalization as tests/test_engine_parity —
    packet uids come from a process-global counter, so absolute values
    differ between runs while the structure must not.
    """
    runtime.reset()
    runtime.enable(flight_capacity=1 << 20, profile=False)
    try:
        run_fn()
        records = []
        for session in runtime.sessions():
            records.extend(session.flight.records())
    finally:
        runtime.reset()
    ids: dict[int, int] = {}
    out = []
    for r in records:
        u = ids.setdefault(r.uid, len(ids))
        out.append((
            r.time, r.node, r.event, u, r.flow, r.seq, r.ifname,
            r.labels, r.in_label, r.out_label, r.reason, r.backlog,
        ))
    return out


def test_e2_restored_run_trace_bit_identical() -> None:
    from repro.experiments.e2_qos import _build, run_config

    net, src, dst = _build("mpls-diffserv", seed=0)
    blob = snapshot_network(net, {"src": src.name, "dst": dst.name})
    before = audit(net)

    def cold() -> None:
        run_config("mpls-diffserv", seed=77, measure_s=1.5)

    def warm() -> None:
        net2, extras = restore_network(blob)
        assert audit(net2) == before
        run_config(
            "mpls-diffserv", seed=77, measure_s=1.5,
            prebuilt=(net2, net2.nodes[extras["src"]], net2.nodes[extras["dst"]]),
        )

    a, b = _trace(cold), _trace(warm)
    assert len(a) > 1000
    assert a == b


def test_e5_restored_run_trace_bit_identical() -> None:
    from repro.experiments.e5_sla import _build, run_stage

    ctx = _build("full", seed=0)
    net = ctx.pop("net")
    blob = snapshot_network(net, ctx)

    def cold() -> None:
        run_stage("full", seed=93, measure_s=1.5)

    def warm() -> None:
        net2, extras = restore_network(blob)
        run_stage("full", seed=93, measure_s=1.5,
                  prebuilt={"net": net2, **extras})

    a, b = _trace(cold), _trace(warm)
    assert len(a) > 1000
    assert a == b


# ----------------------------------------------------------------------
# Parity: true resume (snapshot mid-run, packets in flight, finish from
# the image) — the tentpole's bit-identical resumed-trace contract.


def _armed_e2(seed: int) -> Network:
    """Converged e2 backbone with sources + a manual flight recorder."""
    from repro.experiments.common import ExperimentRun
    from repro.experiments.e2_qos import _build
    from repro.qos.dscp import DSCP
    from repro.traffic.generators import OnOffSource, voice_source

    net, src, dst = _build("mpls-diffserv", seed)
    net.trace.flight = FlightRecorder(capacity=1 << 20)
    run = ExperimentRun(net, warmup_s=0.2, measure_s=1.4)
    run.sink_at(dst)
    run.add_source(
        voice_source(net.sim, src.send, "voice", "10.50.0.1", "10.50.0.2")
    )
    run.add_source(
        OnOffSource(
            net.sim, src.send, "data", "10.50.0.1", "10.50.0.2",
            payload_bytes=700, dscp=int(DSCP.AF11), proto="tcp",
            peak_bps=4e6, mean_on_s=0.2, mean_off_s=0.3,
            rng=net.streams.stream("e2.data"),
        )
    )
    return net


def _normalized(rec: FlightRecorder) -> list[tuple]:
    ids: dict[int, int] = {}
    return [
        (r.time, r.node, r.event, ids.setdefault(r.uid, len(ids)), r.flow,
         r.seq, r.ifname, r.labels, r.in_label, r.out_label, r.reason,
         r.backlog)
        for r in rec.records()
    ]


def test_mid_run_snapshot_resumes_bit_identically() -> None:
    # Uninterrupted reference run.
    net_a = _armed_e2(seed=31)
    net_a.run(until=2.0)
    ref = _normalized(net_a.trace.flight)
    assert len(ref) > 1000

    # Identical twin, paused mid-measurement with traffic in flight...
    net_b = _armed_e2(seed=31)
    net_b.run(until=0.9)
    assert net_b.sim.pending > 0  # there really is a schedule to carry
    blob = snapshot_network(net_b)

    # ...finished from the image (flight recorder rides in the snapshot,
    # so the restored run's ring holds the whole [0, 2] history).
    net_c, _ = restore_network(blob)
    assert pending_schedule(net_c.sim) == pending_schedule(net_b.sim)
    net_c.run(until=2.0)
    assert _normalized(net_c.trace.flight) == ref


def _armed_e5(seed: int) -> tuple[Network, dict[str, Any]]:
    """E5 ``full`` (CPE CBQ, WFQ core) with its four sources and a manual
    flight recorder: the customer's bulk backlogs the CBQ uplink and both
    customers' traffic the PE's WFQ uplink within the first half second."""
    from repro.experiments.common import ExperimentRun
    from repro.experiments.e5_sla import _build
    from repro.qos.dscp import DSCP
    from repro.traffic.generators import CbrSource, OnOffSource, voice_source

    ctx = _build("full", seed)
    net = ctx["net"]
    h1, h2 = ctx["s1"].hosts[0], ctx["s2"].hosts[0]
    b1, b2 = ctx["o1"].hosts[0], ctx["o2"].hosts[0]
    net.trace.flight = FlightRecorder(capacity=1 << 20)
    run = ExperimentRun(net, warmup_s=0.1, measure_s=1.0)
    run.sink_at(h2)
    run.sink_at(b2)
    src, dst = str(h1.loopback), str(h2.loopback)
    run.add_source(voice_source(net.sim, h1.send, "voice", src, dst))
    run.add_source(
        OnOffSource(
            net.sim, h1.send, "data", src, dst, payload_bytes=700,
            dscp=int(DSCP.AF11), proto="tcp", peak_bps=2.5e6,
            mean_on_s=0.15, mean_off_s=0.35, rng=net.streams.stream("e5.data"),
        )
    )
    run.add_source(
        CbrSource(net.sim, h1.send, "bulk", src, dst, payload_bytes=1400,
                  dscp=int(DSCP.BE), rate_bps=4e6)
    )
    run.add_source(
        CbrSource(net.sim, b1.send, "bg", str(b1.loopback), str(b2.loopback),
                  payload_bytes=1400, dscp=int(DSCP.BE), rate_bps=4e6)
    )
    return net, ctx


def test_e5_mid_run_snapshot_with_wfq_and_cbq_backlogged_resumes_bit_identically() -> None:
    from collections import deque

    from repro.qos.queues import IDLE

    net_a, _ = _armed_e5(seed=13)
    net_a.run(until=1.3)
    ref = _normalized(net_a.trace.flight)
    assert len(ref) > 1000

    net_b, ctx = _armed_e5(seed=13)
    net_b.run(until=0.5)
    blob = snapshot_network(net_b, {"s1": ctx["s1"]})
    net_c, extras = restore_network(blob)
    s1 = extras["s1"]
    cbq = s1.ce.interfaces[s1.ce_ifname].qdisc
    wfq = net_c.nodes["pe1"].interfaces["to-p1"].qdisc
    assert len(cbq) > 0 and len(wfq) > 0
    # The backlogged disciplines come back with their deques; one nothing
    # was ever queued on (the traffic runs one way) with no store at all.
    assert type(cbq.cbq_classes[-1].queue.q) is deque and type(wfq._tags[-1]) is deque
    idle = net_c.nodes["p1"].interfaces["to-pe1"].qdisc
    assert all(c.q is IDLE for c in idle.classes) and all(t is IDLE for t in idle._tags)
    assert pending_schedule(net_c.sim) == pending_schedule(net_b.sim)
    net_c.run(until=1.3)
    assert _normalized(net_c.trace.flight) == ref


def test_vector_mode_snapshot_resumes_scalar_bit_identically() -> None:
    # The image carries the simulator's burst-extraction target; restore
    # re-syncs it to the *current* vector-mode switch, so an image taken
    # in vector mode comes back scalar when the switch is off — and the
    # resumed run still matches the uninterrupted (vector) one.
    net_a = _armed_e2(seed=31)
    assert net_a.sim._batch_func is not None
    net_a.run(until=2.0)
    ref = _normalized(net_a.trace.flight)

    net_b = _armed_e2(seed=31)
    net_b.run(until=0.9)
    blob = snapshot_network(net_b)
    runtime.set_vector_mode(False)
    try:
        net_c, _ = restore_network(blob)
    finally:
        runtime.set_vector_mode(True)
    assert net_c.sim._batch_func is None and net_c.sim._batch_dispatch is None
    net_c.run(until=2.0)
    assert _normalized(net_c.trace.flight) == ref


def test_save_load_file_roundtrip(tmp_path) -> None:
    from repro.experiments.e5_sla import _build

    ctx = _build("full", seed=3)
    net = ctx.pop("net")
    path = str(tmp_path / "e5.snap")
    save(path, net, ctx)
    net2, extras = load(path)
    assert set(extras) == set(ctx)
    assert extras["s1"].hosts[0] is net2.nodes[extras["s1"].hosts[0].name]
    assert audit(net2) == audit(net)
