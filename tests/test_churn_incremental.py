"""Property tests for the incremental MP-BGP churn engine.

The contract held here is the strongest one available: after *any*
sequence of churn operations — sites added, removed, flapped between
PEs, duplicate prefixes introduced (in a mesh VPN, and a hub-and-spoke
spoke duplicating a route its VRF imports), whole VPNs provisioned and
torn down, PEs drained and restored (sites removed behind them while they
are away), a bare resync in between, a wave of sites provisioned with no
delta and picked up by the next resync, and state moved behind the
engine's back (an import policy assigned, with deltas under the old one
before the resync that reads it or none, an imported route withdrawn by
hand, a VRF deleted and re-created under its name, a local added or
withdrawn by hand with or without a delta after it), advertisements
retracted while the locals stay — the
incrementally maintained VRF state equals what a clear-remotes +
from-scratch ``converge()`` produces on the same network (the same
oracle style as ``test_reconverge_incremental`` uses for the IGP fast
path).  After every op, a copy of the network (a snapshot round trip)
is resynced with a bare ``converge()`` and held to the same oracle: an
``export_delta`` that marked a VRF in sync when it was not would leave
that resync skipping it.

Alongside the property suite: RFC 4456 route-reflector cluster
accounting (sessions, per-route fan-out, cluster-list suppression) and
the idempotent-reconvergence regression for the old double-import /
double-count bug.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.control import converge_all
from repro.mpls.lsr import Lsr
from repro.net.address import Prefix
from repro.sim.snapshot import restore_network, snapshot_network
from repro.topology import Network, build_backbone
from repro.vpn.bgp import MpBgp, VpnRoute
from repro.vpn.pe import PeRouter
from repro.vpn.provision import VpnProvisioner, _vrf_names

slow_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
def _pe_mesh(n_pes: int) -> tuple[Network, list[PeRouter]]:
    """A bare Network with n PE routers (loopbacks, no VRFs, no links) —
    enough for session/fan-out accounting, which is pure control plane."""
    net = Network(seed=5)
    pes = [net.add_node(PeRouter(net.sim, f"pe{i}")) for i in range(n_pes)]
    return net, pes


def _world(
    n_pes: int = 4, rr_clusters=None, hub_spoke: bool = False, spare: bool = False
) -> tuple[Network, list[PeRouter], VpnProvisioner]:
    """n PEs, a "corp" VPN with one anchor site per PE, converged.

    The anchors keep every PE serving a site throughout the churn.
    ``hub_spoke`` adds an "hs" hub-and-spoke VPN: hub on pe0, one spoke on
    pe1.  ``spare`` adds a PE with no anchor, last in ``pes`` but named
    ``pe1s`` (between pe1 and pe2): it joins the engine at its name-order
    rank when it first takes a site, and stays when it loses its last one.
    """
    net, pes = _pe_mesh(n_pes)
    prov = VpnProvisioner(net)
    corp = prov.create_vpn("corp")
    for pe in pes:
        prov.add_site(corp, pe, num_hosts=0)
    if hub_spoke:
        hs = prov.create_hub_spoke_vpn("hs")
        prov.add_site(hs, pes[0], num_hosts=0, role="hub")
        prov.add_site(hs, pes[1], num_hosts=0)
    if spare:
        pes.append(net.add_node(PeRouter(net.sim, "pe1s")))
    prov.converge_bgp(rr_clusters=rr_clusters)
    return net, pes, prov


def _engine_pes(prov: VpnProvisioner) -> list[PeRouter]:
    """The PEs MP-BGP runs over: every PE that has served a site since the
    engine was built, siteless now or not (its VRFs go on importing)."""
    return prov.bgp_engine().pes


def _vrf_snapshot(prov: VpnProvisioner):
    return {
        (pe.name, vrf.name): vrf.routes()
        for pe in _engine_pes(prov)
        for vrf in pe.vrfs.values()
    }


def _imports_are_advertisements(prov: VpnProvisioner, engine: MpBgp) -> set:
    """Every engine route in a VRF (a :class:`VpnRoute` entry) is the
    Adj-RIB-Out's own object for its prefix and origin, so none outlives
    its advertisement.  Returns the advertisements some VRF holds, by
    (origin PE, VPN label, prefix): a label names one VRF on its PE."""
    advertised = {
        (r.origin_pe, r.vpn_label, p): r
        for rib in engine._rib.values() for p, r in rib.items()
    }
    held = set()
    for pe in _engine_pes(prov):
        for vrf in pe.vrfs.values():
            for p, r in vrf.entries().items():
                if type(r) is VpnRoute:
                    ad = (r.origin_pe, r.vpn_label, p)
                    assert advertised.get(ad) is r, (pe.name, vrf.name, p)
                    held.add(ad)
    return held


def _strip_remotes(prov: VpnProvisioner) -> None:
    for pe in _engine_pes(prov):
        for vrf in pe.vrfs.values():
            vrf.remove_many(
                [p for p, r in vrf.routes().items() if r.kind == "remote"]
            )


def _oracle_snapshot(prov: VpnProvisioner, drained, rr_clusters=None):
    """Flush every BGP-learned route and converge a fresh engine over the
    PEs the provisioner's engine holds."""
    _strip_remotes(prov)
    oracle = MpBgp(prov.net, _engine_pes(prov), rr_clusters=rr_clusters)
    for name in sorted(drained):
        oracle.peer_down(name)
    oracle.converge()
    return _vrf_snapshot(prov)


def _live_equals_oracle(prov: VpnProvisioner, drained) -> None:
    """The live VRFs equal the oracle's, computed on a copy (a snapshot round
    trip) so the live run goes on untouched."""
    _, extras = restore_network(snapshot_network(prov.net, {"prov": prov}))
    assert _vrf_snapshot(prov) == _oracle_snapshot(extras["prov"], drained)


def _resync_reaches_oracle(prov: VpnProvisioner, drained, rr_clusters=None) -> None:
    """On a copy, so the live run goes on untouched: a bare resync from
    wherever the ops left the engine gives the oracle's tables."""
    _, extras = restore_network(snapshot_network(prov.net, {"prov": prov}))
    copy = extras["prov"]
    copy.converge_bgp()
    assert _vrf_snapshot(copy) == _oracle_snapshot(copy, drained, rr_clusters)


# ----------------------------------------------------------------------
# Satellite: idempotent re-convergence (the double-import regression)
# ----------------------------------------------------------------------
class TestIdempotentReconverge:
    def test_second_converge_is_a_noop(self, monkeypatch):
        net, pes, prov = _world(4)
        engine = prov.bgp_engine()
        reread = []
        for name in ("_sync_exports", "_reselect"):
            monkeypatch.setattr(
                engine, name, lambda *a, _name=name, **k: reread.append(_name)
            )
        counters = net.counters.snapshot()
        gens = {
            (pe.name, v.name): v.generation
            for pe in pes for v in pe.vrfs.values()
        }
        again = prov.converge_bgp()
        assert again.updates_sent == 0
        assert again.routes_exported == 0
        assert again.routes_imported == 0
        assert again.routes_removed == 0
        # Nothing moved, so no VRF's exports or imports were re-read.
        assert reread == []
        # Counters unchanged: no double-counted sessions, updates, imports.
        assert net.counters.snapshot() == counters
        # Data-plane flow caches stay warm: no VRF generation bumps.
        assert {
            (pe.name, v.name): v.generation
            for pe in pes for v in pe.vrfs.values()
        } == gens

    def test_converge_after_delta_is_a_noop(self):
        net, pes, prov = _world(3)
        site = prov.add_site(prov.vpns["corp"], pes[1], num_hosts=0)
        prov.bgp_engine().export_delta(pes[1], pes[1].vrfs["corp"])
        snap = _vrf_snapshot(prov)
        again = prov.converge_bgp()
        assert again.updates_sent == 0 and again.routes_imported == 0
        assert _vrf_snapshot(prov) == snap
        assert site in prov.vpns["corp"].sites


# ----------------------------------------------------------------------
# One engine per provisioner: a bare bgp_engine()/converge_bgp() keeps the
# RR layout, an explicit one re-lays the sessions in place, and a new PE
# joins; none of them discards the Adj-RIB, the drained set or the imports
# it installed.
# ----------------------------------------------------------------------
class TestEngineReuse:
    def test_bare_call_reuses_rr_engine(self):
        net, pes, prov = _world(4, rr_clusters=[("pe0", "pe1")])
        engine = prov.bgp_engine(rr_clusters=[("pe0", "pe1")])
        assert prov.bgp_engine() is engine
        assert engine.rr_clusters == (("pe0", "pe1"),)
        # A bare converge on the reused engine is an incremental no-op.
        again = prov.converge_bgp()
        assert again.updates_sent == 0 and again.routes_imported == 0

    def test_explicit_full_mesh_relays_in_place(self):
        net, pes, prov = _world(3, rr_clusters=["pe0"])
        engine = prov.bgp_engine()
        assert engine.session_count() == 2
        tables = _vrf_snapshot(prov)
        assert prov.bgp_engine(rr_clusters=None) is engine
        assert engine.rr_clusters == () and engine.session_count() == 3
        # A layout moves no route: nothing to resync.
        assert prov.converge_bgp().routes_imported == 0
        assert _vrf_snapshot(prov) == tables == _oracle_snapshot(prov, set())

    def test_pe_set_change_joins_the_engine(self):
        net, pes, prov = _world(3)
        engine = prov.bgp_engine()
        extra = net.add_node(PeRouter(net.sim, "pe1x"))
        site = prov.add_site(prov.vpns["corp"], extra, num_hosts=0)
        assert prov.bgp_engine() is engine
        # It takes its name-order rank, the tie-break a fresh build gives.
        assert [pe.name for pe in engine.pes] == ["pe0", "pe1", "pe1x", "pe2"]
        with pytest.raises(ValueError, match="already in this BGP mesh"):
            engine.add_pe(extra)
        prov.converge_bgp()
        assert all(pe.vrfs["corp"].entries()[site.prefix].kind == "remote" for pe in pes)
        assert _vrf_snapshot(prov) == _oracle_snapshot(prov, set())

    def test_rr_churn_through_bare_calls_matches_oracle(self):
        """The scenario that exposed the rebuild bug: flap sites and run a
        VPN wave through bare bgp_engine()/converge_bgp() calls on an
        RR-cluster engine, then compare against a fresh full converge."""
        rr = [("pe0", "pe1")]
        net, pes, prov = _world(4, rr_clusters=rr)
        corp = prov.vpns["corp"]
        anchors = {s.site_id for s in corp.sites}
        # Three site flaps on non-reflector PEs, delta'd via bare calls.
        for pe in (pes[2], pes[3], pes[2]):
            site = prov.add_site(corp, pe, num_hosts=0)
            prov.bgp_engine().export_delta(pe, pe.vrfs["corp"])
            prov.remove_site(site)
        # Drain/restore a client PE.
        prov.drain_pe("pe3")
        prov.restore_pe("pe3")
        # A wave VPN provisioned then converged with a bare call.
        wave = prov.create_vpn("wave")
        for pe in (pes[2], pes[3]):
            prov.add_site(wave, pe, num_hosts=0)
        prov.converge_bgp()
        prov.remove_vpn("wave")
        assert {s.site_id for s in corp.sites} == anchors
        incremental = _vrf_snapshot(prov)
        assert incremental == _oracle_snapshot(prov, set(), rr_clusters=rr)


def _backbone(route_reflector=None) -> tuple[Network, dict, VpnProvisioner]:
    """The E1 backbone with one VPN ``v`` on E1-E3 (10.0.0-2.0/24), converged."""
    net = Network(seed=3)
    nodes = build_backbone(net, node_factory=lambda n, name: n.add_node(
        (PeRouter if name.startswith("E") else Lsr)(n.sim, name)))
    prov = VpnProvisioner(net)
    v = prov.create_vpn("v")
    for name in ("E1", "E2", "E3"):
        prov.add_site(v, nodes[name], num_hosts=0)
    if route_reflector is not None:
        prov.bgp_engine(route_reflector=route_reflector)
    converge_all(net, prov)
    return net, nodes, prov


class TestOneEngineForLife:
    """A PE joining, a PE losing its last site and a layout change all act
    on the provisioner's one engine: what it held before them (a drain, the
    RR layout, the sessions it counted, a siteless PE's imports) it holds
    after them, and its tables equal a fresh engine's over the same PEs."""

    def test_a_drain_outlives_a_pe_joining(self):
        net, nodes, prov = _backbone()
        engine = prov.bgp_engine()
        e1, e2_prefix = nodes["E1"], Prefix.parse("10.0.1.0/24")
        prov.drain_pe("E2")
        prov.add_site("v", nodes["E4"], num_hosts=0)
        converge_all(net, prov)
        assert prov.bgp_engine() is engine and engine.drained == {"E2"}
        assert e2_prefix not in e1.vrfs["v"].entries()
        assert prov.restore_pe("E2").routes_exported == 2   # its /24 and its /30
        assert e1.vrfs["v"].entries()[e2_prefix].kind == "remote"
        assert _vrf_snapshot(prov) == _oracle_snapshot(prov, set())

    def test_sessions_are_counted_once(self):
        net, nodes, prov = _backbone()
        prov.add_site("v", nodes["E4"], num_hosts=0)
        converge_all(net, prov)
        assert prov.bgp_engine().session_count() == 6 == net.counters["bgp.sessions"]

    def test_a_join_keeps_the_rr_layout(self):
        net, nodes, prov = _backbone(route_reflector="E1")
        engine = prov.bgp_engine()
        assert engine.session_count() == 2
        prov.add_site("v", nodes["E4"], num_hosts=0)
        converge_all(net, prov)
        assert prov.bgp_engine() is engine and engine.reflectors == {"E1"}
        assert engine.session_count() == 3 == net.counters["bgp.sessions"]
        assert engine.fanout("E4") == (3, 0)   # to the RR, reflected to two
        assert _vrf_snapshot(prov) == _oracle_snapshot(prov, set(), rr_clusters=["E1"])

    def test_a_siteless_pe_keeps_importing(self):
        net, nodes, prov = _backbone()
        v, e1, e3 = prov.vpns["v"], nodes["E1"], nodes["E3"]
        prov.remove_site(next(s for s in v.sites if s.pe is e3))
        converge_all(net, prov)
        assert e3 in prov.bgp_engine().pes and "E3" not in prov._sites_on
        moved = next(s for s in v.sites if s.pe is e1)
        prov.remove_site(moved)
        prov.add_site(v, e1, prefix="10.9.0.0/24", num_hosts=0)
        converge_all(net, prov)
        table = e3.vrfs["v"].entries()
        assert moved.prefix not in table
        assert table[Prefix.parse("10.9.0.0/24")].kind == "remote"
        assert _vrf_snapshot(prov) == _oracle_snapshot(prov, set())

    def test_session_counters_follow_joins_relayouts_and_drains(self):
        """``bgp.sessions - bgp.sessions_down`` is the sessions with both
        ends up, whatever moved them."""
        net, nodes, prov = _backbone()
        engine = prov.bgp_engine()

        def up_sessions() -> int:
            counted = net.counters["bgp.sessions"] - net.counters["bgp.sessions_down"]
            assert counted == sum(
                1 for a, peers in engine._neighbors.items() for b in peers
                if a < b and not {a, b} & engine.drained
            )
            return counted

        prov.drain_pe("E2")
        assert up_sessions() == 1                  # E1-E3
        prov.add_site("v", nodes["E4"], num_hosts=0)
        prov.bgp_engine()
        assert up_sessions() == 3                  # E1, E3, E4 meshed
        prov.bgp_engine(route_reflector="E1")
        assert up_sessions() == 2                  # E3, E4 to the RR
        prov.restore_pe("E2")
        assert up_sessions() == 3
        prov.bgp_engine(route_reflector=None, rr_clusters=None)
        assert up_sessions() == 6

    def test_a_relayout_keeps_the_drain(self):
        net, pes, prov = _world(4)
        engine = prov.bgp_engine()
        prov.drain_pe("pe3")
        with pytest.raises(ValueError, match="cannot make drained PE pe3 a route reflector"):
            prov.bgp_engine(route_reflector="pe3")
        assert engine.rr_clusters == () and engine.session_count() == 6
        assert prov.bgp_engine(route_reflector="pe0") is engine
        assert engine.drained == {"pe3"} and engine.session_count() == 3
        site = prov.add_site("corp", pes[1], num_hosts=0)
        engine.export_delta(pes[1], pes[1].vrfs["corp"])
        assert site.prefix not in pes[3].vrfs["corp"].entries()
        prov.restore_pe("pe3")
        assert pes[3].vrfs["corp"].entries()[site.prefix].kind == "remote"
        assert _vrf_snapshot(prov) == _oracle_snapshot(prov, set(), rr_clusters=["pe0"])

    @pytest.mark.parametrize("layout, same", [
        ({}, {"route_reflector": None, "rr_clusters": None}),
        ({"rr_clusters": ["pe0"]}, {"route_reflector": "pe0"}),
    ], ids=["full-mesh", "rr"])
    def test_the_layout_it_has_is_a_noop(self, layout, same):
        """What the ledger asks on every flap: no re-derivation, and the
        memoized fan-out stays warm."""
        net, pes, prov = _world(4, **layout)
        engine = prov.bgp_engine()
        engine.fanout("pe1")
        neighbors, fanout = engine._neighbors, dict(engine._prop_cache)
        counters = net.counters.snapshot()
        assert prov.bgp_engine(**same) is engine
        assert engine._neighbors is neighbors and engine._prop_cache == fanout != {}
        assert net.counters.snapshot() == counters


# ----------------------------------------------------------------------
# RFC 4456: RR clusters — sessions, fan-out, loop suppression
# ----------------------------------------------------------------------
class TestRrClusters:
    def test_degenerate_single_pe(self):
        net, pes = _pe_mesh(1)
        engine = MpBgp(net, pes)
        assert engine.session_count() == 0
        assert engine.fanout("pe0") == (0, 0)
        assert engine.converge().updates_sent == 0

    def test_full_mesh_sessions(self):
        net, pes = _pe_mesh(8)
        engine = MpBgp(net, pes)
        assert engine.session_count() == 8 * 7 // 2
        assert engine.fanout("pe3") == (7, 0)

    def test_route_reflector_sugar_is_one_cluster(self):
        net, pes = _pe_mesh(8)
        engine = MpBgp(net, pes, route_reflector="pe0")
        assert engine.rr_clusters == (("pe0",),)
        assert engine.reflectors == {"pe0"}
        assert engine.session_count() == 7          # n-1
        # Client origin: 1 to the RR + reflection to the other n-2.
        assert engine.fanout("pe1") == (7, 0)
        # RR origin: straight to its n-1 clients, no reflection leg.
        assert engine.fanout("pe0") == (7, 0)

    def test_two_single_rr_clusters(self):
        net, pes = _pe_mesh(8)
        engine = MpBgp(net, pes, rr_clusters=["pe0", "pe1"])
        # 6 clients with one RR each + the RR-RR mesh session.
        assert engine.session_count() == 7
        client = next(n for n in ("pe2", "pe3") if n not in engine.reflectors)
        sent, suppressed = engine.fanout(client)
        assert (sent, suppressed) == (7, 0)
        assert engine.fanout("pe0") == (7, 0)
        # Everyone hears exactly one copy.
        receivers, _, _ = engine._propagate(client)
        assert len(receivers) == 7

    def test_redundant_rr_pair_suppresses_partner_copies(self):
        net, pes = _pe_mesh(8)
        engine = MpBgp(net, pes, rr_clusters=[("pe0", "pe1")])
        # 6 clients × 2 RRs + 1 RR-RR session.
        assert engine.session_count() == 13
        sent, suppressed = engine.fanout("pe2")
        # Each RR reflects to the other 5 clients + its co-RR; the co-RR
        # copies carry the cluster id already and are dropped (RFC 4456).
        assert (sent, suppressed) == (14, 2)
        receivers, _, _ = engine._propagate("pe2")
        assert len(receivers) == 7

    def test_two_redundant_clusters(self):
        net, pes = _pe_mesh(8)
        engine = MpBgp(net, pes, rr_clusters=[("pe0", "pe1"), ("pe2", "pe3")])
        # 4 clients × 2 RRs + C(4,2) RR mesh sessions.
        assert engine.session_count() == 4 * 2 + 6
        sent, suppressed = engine.fanout("pe4")
        assert (sent, suppressed) == (14, 2)
        receivers, _, _ = engine._propagate("pe4")
        assert len(receivers) == 7

    def test_validation(self):
        net, pes = _pe_mesh(4)
        with pytest.raises(ValueError, match="not both"):
            MpBgp(net, pes, route_reflector="pe0", rr_clusters=["pe1"])
        with pytest.raises(ValueError, match="is not a PE"):
            MpBgp(net, pes, rr_clusters=["nope"])
        with pytest.raises(ValueError, match="two clusters"):
            MpBgp(net, pes, rr_clusters=["pe0", ("pe0", "pe1")])
        with pytest.raises(ValueError, match="empty RR cluster"):
            MpBgp(net, pes, rr_clusters=[()])

    def test_cannot_drain_a_reflector(self):
        net, pes, prov = _world(4, rr_clusters=["pe0"])
        with pytest.raises(ValueError, match="route reflector"):
            prov.drain_pe("pe0")


# ----------------------------------------------------------------------
# Deterministic churn-vs-oracle cases (fast smoke for the property)
# ----------------------------------------------------------------------
class TestChurnDeterministic:
    def test_site_withdraw_then_readvertise(self):
        net, pes, prov = _world(3)
        engine = prov.bgp_engine()
        extra = prov.add_site(prov.vpns["corp"], pes[0], num_hosts=0)
        engine.export_delta(pes[0], pes[0].vrfs["corp"])
        full = _vrf_snapshot(prov)
        # Selective withdraw: only that site's NLRI leave the other VRFs;
        # the locals stay (withdraw is the control-plane half only).
        engine.withdraw(pes[0], vrf="corp", site=extra.site_id)
        for pe in pes[1:]:
            assert extra.prefix not in pe.vrfs["corp"].routes()
        assert extra.prefix in pes[0].vrfs["corp"].routes()
        # Re-advertising the unchanged locals restores everything.
        engine.export_delta(pes[0], pes[0].vrfs["corp"])
        assert _vrf_snapshot(prov) == full

    @pytest.mark.parametrize("scope", ["site", "vrf", "pe"])
    def test_withdraw_then_converge_readvertises(self, scope):
        """``withdraw`` leaves the locals, so a VRF whose table and policy
        nobody wrote to still differs from what the Adj-RIB holds: the next
        resync re-advertises it (it did when every resync re-read all)."""
        net, pes, prov = _world(3)
        engine = prov.bgp_engine()
        full = _vrf_snapshot(prov)
        site = prov.vpns["corp"].sites[0]
        engine.withdraw(pes[0], **{
            "site": {"site": site.site_id}, "vrf": {"vrf": "corp"}, "pe": {},
        }[scope])
        for pe in pes[1:]:
            assert site.prefix not in pe.vrfs["corp"].routes()
        again = prov.converge_bgp()
        assert again.routes_exported >= 1
        assert _vrf_snapshot(prov) == full

    def test_drain_restore_roundtrip(self):
        net, pes, prov = _world(4)
        before = _vrf_snapshot(prov)
        prov.drain_pe(pes[2])
        assert prov.bgp_engine().drained == {"pe2"}
        # Everyone forgot pe2's routes; pe2 forgot everyone's.
        for pe in pes:
            for vrf in pe.vrfs.values():
                for route in vrf.routes().values():
                    assert route.kind == "local" or pe.name != "pe2"
        prov.restore_pe(pes[2])
        assert _vrf_snapshot(prov) == before

    def test_peer_down_twice_is_idempotent(self):
        net, pes, prov = _world(3)
        prov.drain_pe(pes[0])
        counters = net.counters.snapshot()
        again = prov.drain_pe(pes[0])
        assert again.updates_sent == 0 and again.routes_removed == 0
        assert net.counters.snapshot() == counters

    def test_export_delta_rejects_drained_pe(self):
        net, pes, prov = _world(3)
        prov.drain_pe(pes[1])
        with pytest.raises(ValueError, match="drained"):
            prov.bgp_engine().export_delta(pes[1], pes[1].vrfs["corp"])

    def test_hand_local_passed_over_then_withdrawn(self):
        """A local added by hand and never advertised shadows a prefix
        another PE then advertises; withdrawn again, it uncovers that
        import, but its VRF's delta advertises nothing and so re-examines
        nothing.  Every write to the VRF since the engine's record was
        local-only — yet the VRF is not in sync, so the delta may not write
        the record anew, and the next resync must install the import."""
        net, pes, prov = _world(3)
        engine = prov.bgp_engine()
        here, there = pes[1].vrfs["corp"], pes[0].vrfs["corp"]
        prefix = Prefix.parse("10.9.0.0/24")
        here.add_local(prefix, "by-hand")
        there.add_local(prefix, "by-hand")
        engine.export_delta(pes[0], there)       # passes over `here`'s local
        assert here.entries()[prefix].kind == "local"
        assert here.withdraw(prefix)
        engine.export_delta(pes[1], here)        # nothing to advertise
        prov.converge_bgp()
        assert here.entries()[prefix].kind == "remote"
        assert _vrf_snapshot(prov) == _oracle_snapshot(prov, drained=())

    def test_a_vrf_first_seen_by_a_delta_hears_the_next_delta(self):
        """A delta visits only the VRFs the importer index holds: a VRF the
        engine first met in ``export_delta`` must be in it, though the index
        was built before the VRF existed."""
        net, pes, prov = _world(3)
        engine = prov.bgp_engine()
        engine.importers()      # built, as any delta before this one would
        x = prov.create_vpn("x")
        prov.add_site(x, pes[0], num_hosts=0)
        engine.export_delta(pes[0], pes[0].vrfs["x"])
        site = prov.add_site(x, pes[1], num_hosts=0)
        assert engine.export_delta(pes[1], pes[1].vrfs["x"]).routes_imported == 4
        assert pes[0].vrfs["x"].entries()[site.prefix].kind == "remote"
        assert _vrf_snapshot(prov) == _oracle_snapshot(prov, drained=())

    def test_a_delta_skips_a_vrf_its_pe_no_longer_holds(self):
        """An index entry whose PE dropped that Vrf (deleted by hand, with no
        resync yet) is passed over: the delta writes to no table nobody
        holds, and counts only the imports of the VRFs in service."""
        net, pes, prov = _world(4)
        engine = prov.bgp_engine()
        corp = prov.vpns["corp"]
        prov.remove_site(next(s for s in corp.sites if s.pe is pes[1]))
        gone = pes[1].remove_vrf("corp")
        generation = gone.generation
        prov.add_site(corp, pes[2], num_hosts=0)
        # Two routes (the site /24 and its access /30) into pe0's and pe3's.
        assert engine.export_delta(pes[2], pes[2].vrfs["corp"]).routes_imported == 4
        assert gone.generation == generation
        prov.converge_bgp()
        assert _vrf_snapshot(prov) == _oracle_snapshot(prov, drained=())

    def test_a_vrf_recreated_behind_a_drain_hears_deltas_after_the_return(self):
        """The index a delta built before a drain files the VRF the drained
        PE held then; one re-created there by hand while it was away is
        reached by the deltas after ``peer_up``, not passed over as stale."""
        net, pes, prov = _world(4)
        engine = prov.bgp_engine()
        x = prov.create_vpn("x")
        gone = prov.add_site(x, pes[1], num_hosts=0)
        prov.add_site(x, pes[2], num_hosts=0)
        prov.converge_bgp()
        prov.remove_site(gone)          # its delta builds the index
        assert engine._importers is not None
        prov.drain_pe(pes[1])
        old = pes[1].remove_vrf("x")
        pes[1].add_vrf("x", old.rd, old.import_rts, old.export_rts)
        prov.restore_pe(pes[1])
        site = prov.add_site(x, pes[2], num_hosts=0)
        engine.export_delta(pes[2], pes[2].vrfs["x"])
        assert pes[1].vrfs["x"].entries()[site.prefix].kind == "remote"
        assert _vrf_snapshot(prov) == _oracle_snapshot(prov, drained=())

    def test_a_policy_put_back_before_the_converge_leaves_no_gap(self):
        """Deltas act on the import policy the engine last read: a VRF whose
        RT is taken out by hand and put back before any converge() still
        hears the deltas in between (that converge sees no change)."""
        net, pes, prov = _world(4)
        engine = prov.bgp_engine()
        here = pes[0].vrfs["corp"]
        read = here.import_rts
        here.import_rts = frozenset()
        site = prov.add_site(prov.vpns["corp"], pes[1], num_hosts=0)
        engine.export_delta(pes[1], pes[1].vrfs["corp"])
        here.import_rts = read
        prov.converge_bgp()
        assert here.entries()[site.prefix].kind == "remote"
        assert _vrf_snapshot(prov) == _oracle_snapshot(prov, drained=())

    def test_a_policy_put_back_across_a_drain_leaves_no_gap(self):
        """``peer_up`` refreshes the returning PE's VRFs under the policy
        they hold when it returns and records it: a policy taken out by hand
        while the PE was away imports nothing, and the one put back after
        the return is a change the next converge() reads."""
        net, pes, prov = _world(4)
        here = pes[0].vrfs["corp"]
        read = here.import_rts
        prov.drain_pe(pes[0])
        here.import_rts = frozenset()
        prov.restore_pe(pes[0])
        here.import_rts = read
        prov.converge_bgp()
        assert _vrf_snapshot(prov) == _oracle_snapshot(prov, drained=())

    def test_a_pe_back_from_a_drain_imports_under_the_policy_it_holds(self):
        """A converge() while a PE is drained skips it, so the engine's
        record of its VRFs is the one from before the drain.  ``peer_up``
        converges the returning PE as a fresh build would: a VRF whose
        import RTs were cleared by hand while it was away imports nothing,
        and the next converge() has nothing of it to re-read."""
        net, pes, prov = _world(4, rr_clusters=["pe0"])
        here = pes[2].vrfs["corp"]
        prov.drain_pe(pes[2])
        here.import_rts = frozenset()
        prov.converge_bgp()
        prov.restore_pe(pes[2])
        assert [p for p, r in here.routes().items() if r.kind == "remote"] == []
        assert prov.converge_bgp().routes_imported == 0
        assert _vrf_snapshot(prov) == _oracle_snapshot(
            prov, drained=(), rr_clusters=["pe0"]
        )

    def test_a_prefix_two_pes_originate_follows_each_drain(self):
        """One prefix, two origins (pe1 and pe2), two more PEs importing it.
        Draining and restoring each origin in turn takes the importers from
        the several-origin pick to the one-origin step (the other origin
        drained) and back, and empties the drained PE's imports in the
        nothing-offered pass; after every op each VRF is what a fresh
        converge() gives, and the importers hold the winner the ranking
        picks."""
        net, pes, prov = _world(4)
        corp = prov.vpns["corp"]
        site = next(s for s in corp.sites if s.pe is pes[1])
        prov.add_site(corp, pes[2], prefix=site.prefix, num_hosts=0)
        prov.bgp_engine().export_delta(pes[2], pes[2].vrfs["corp"])
        importers = [pes[0].vrfs["corp"], pes[3].vrfs["corp"]]
        assert {vrf.entries()[site.prefix].origin_pe for vrf in importers} == {"pe2"}
        for origin, other in ((pes[1], pes[2]), (pes[2], pes[1])):
            prov.drain_pe(origin)
            _live_equals_oracle(prov, drained={origin.name})
            assert {vrf.entries()[site.prefix].origin_pe for vrf in importers} == {other.name}
            held = origin.vrfs["corp"].routes()
            assert held and all(r.kind == "local" for r in held.values())
            prov.restore_pe(origin)
            _live_equals_oracle(prov, drained=())
            assert {vrf.entries()[site.prefix].origin_pe for vrf in importers} == {"pe2"}

    def test_each_importer_reselects_its_own_changed_prefixes_in_order(self, monkeypatch):
        """A drain changes routes under two RTs.  Every VRF importing them is
        handed the changed prefixes of the RTs it imports, sorted: a VRF
        importing both gets their union, and one importing a single RT sees
        nothing of the other's (each changed-prefix set is sorted once and
        shared by its importers; a union is that VRF's alone)."""
        net, pes, prov = _world(4)
        corp, other = prov.vpns["corp"], prov.create_vpn("other")
        for pe in pes:
            prov.add_site(other, pe, num_hosts=0)
        extranet = pes[0].vrfs["corp"]
        extranet.import_rts = extranet.import_rts | {other.rt}
        prov.converge_bgp()
        engine = prov.bgp_engine()
        changed = {
            rt: {r.prefix for key, rib in engine._rib.items() if key[0] == "pe2"
                 for r in rib.values() if rt in r.route_targets}
            for rt in (corp.rt, other.rt)
        }
        handed = []
        reselect = engine._reselect

        def spy(key, vrf, rts, prefixes, result):
            if prefixes is not None:
                handed.append((key, list(prefixes)))
            reselect(key, vrf, rts, prefixes, result)

        monkeypatch.setattr(engine, "_reselect", spy)
        prov.drain_pe(pes[2])
        assert dict(handed) == {
            (pe.name, vrf.name): sorted(set().union(*(changed[rt] for rt in vrf.import_rts)))
            for pe in pes if pe is not pes[2] for vrf in pe.vrfs.values()
        }
        assert len(handed) == len(dict(handed))
        monkeypatch.undo()      # the copy below pickles the engine
        _live_equals_oracle(prov, drained={"pe2"})

    def test_forget_vrf_requires_withdraw_first(self):
        net, pes, prov = _world(2)
        with pytest.raises(ValueError, match="withdraw first"):
            prov.bgp_engine().forget_vrf(pes[0], "corp")


# ----------------------------------------------------------------------
# The property: incremental churn ≡ clear + full converge
# ----------------------------------------------------------------------
OP_KINDS = (
    "site+", "site-", "flap", "dup+", "vpn+", "vpn-", "drain", "restore",
    "spoke-dup", "converge", "wave", "rts=", "hand-", "vrf-readd", "withdraw",
    "hand-local",
)


def _site_vrf(pe, v):
    """The VRF ``add_site(v, pe)`` binds (a hub-and-spoke add is a spoke)."""
    return pe.vrfs[f"{v.name}-spoke" if v.topology == "hub-spoke" else v.name]


def _apply_op(prov, pes, engine, anchors, drained, op, state):
    """Interpret one (kind, a, b) op; indices select modulo the currently
    valid choices, and ops with no valid target are skipped — standard
    stateful-testing interpretation so every drawn sequence is runnable.

    A delta goes through ``prov.bgp_engine()``, which joins a PE taking its
    first site (the spare one) to the engine ``engine`` is: the engine the
    test holds from the start has to stay the provisioner's."""
    kind, a, b = op
    vpns = [prov.vpns[name] for name in sorted(prov.vpns)]
    up_pes = [pe for pe in pes if pe.name not in drained]
    # De-provisioning behind a drained PE is legal (no delta: nobody to
    # tell), so "site-" and the remove half of "flap" draw from every PE.
    removable = [
        (v, s) for v in vpns for s in v.sites if s.site_id not in anchors
    ]

    if kind == "site+":
        if not up_pes:
            return
        v, pe = vpns[a % len(vpns)], up_pes[b % len(up_pes)]
        prov.add_site(v, pe, num_hosts=0)
        prov.bgp_engine().export_delta(pe, _site_vrf(pe, v))
    elif kind == "site-":
        if not removable:
            return
        _, site = removable[a % len(removable)]
        prov.remove_site(site)        # provisioner pushes the delta
    elif kind == "flap":
        if not removable or not up_pes:
            return
        v, site = removable[a % len(removable)]
        prov.remove_site(site)
        pe = up_pes[b % len(up_pes)]  # may re-home the site on another PE
        prov.add_site(v, pe, prefix=site.prefix, num_hosts=0)
        prov.bgp_engine().export_delta(pe, _site_vrf(pe, v))
    elif kind == "dup+":
        # Same prefix advertised by a second origin PE: exercises the
        # winner tie-break that keeps incremental == full-converge order.
        sites = [(v, s) for v in vpns for s in v.sites]
        if not sites:
            return
        v, site = sites[a % len(sites)]
        others = [pe for pe in up_pes if pe.name != site.pe.name]
        if not others:
            return
        pe = others[b % len(others)]
        prov.add_site(v, pe, prefix=site.prefix, num_hosts=0)
        prov.bgp_engine().export_delta(pe, _site_vrf(pe, v))
    elif kind == "vpn+":
        if len(prov.vpns) >= 4 or len(up_pes) < 2:
            return
        name = f"x{state['vpn_seq']}"
        state["vpn_seq"] += 1
        v = prov.create_vpn(name)
        for pe in (up_pes[a % len(up_pes)], up_pes[b % len(up_pes)]):
            prov.add_site(v, pe, num_hosts=0)
            prov.bgp_engine().export_delta(pe, pe.vrfs[name])
    elif kind == "vpn-":
        extras = [
            name for name in sorted(prov.vpns)
            if name not in ("corp", "hs")
            and not any(s.pe.name in drained for s in prov.vpns[name].sites)
        ]
        if not extras:
            return
        prov.remove_vpn(extras[a % len(extras)])
    elif kind == "drain":
        candidates = [
            pe.name for pe in up_pes
            if pe in engine.pes and pe.name not in engine.reflectors
        ]
        if len(drained) >= len(pes) - 1 or not candidates:
            return
        name = candidates[a % len(candidates)]
        prov.drain_pe(name)
        drained.add(name)
    elif kind == "restore":
        if not drained:
            return
        name = sorted(drained)[a % len(drained)]
        prov.restore_pe(name)
        drained.discard(name)
    elif kind == "spoke-dup":
        # A spoke site on a prefix its own VRF imports from the hub (the
        # hub's site prefix or the supernet): the local shadows the
        # import, and removing the site must uncover it again.
        hs = prov.vpns["hs"]
        hub = next(s for s in hs.sites if s.role == "hub")
        others = [pe for pe in up_pes if pe.name != hub.pe.name]
        if not others:
            return
        pe = others[a % len(others)]
        prov.add_site(hs, pe, prefix=(hub.prefix, hs.supernet)[b % 2], num_hosts=0)
        prov.bgp_engine().export_delta(pe, _site_vrf(pe, hs))
    elif kind == "converge":
        prov.converge_bgp()           # bare resync in the middle of the churn
    elif kind == "wave":
        # What churn_storm does: sites provisioned with no delta at all,
        # then one bare resync that has to find them.
        if not up_pes:
            return
        v = vpns[a % len(vpns)]
        for pe in (up_pes[a % len(up_pes)], up_pes[b % len(up_pes)]):
            prov.add_site(v, pe, num_hosts=0)
        prov.converge_bgp()
    elif kind == "rts=":
        # A direct policy assignment: toggle another VPN's RT in or out of
        # one VRF's import set (an extranet import on overlapping plans).
        # The next converge() reads it — this one, or one after whatever
        # deltas the ops that follow run against the old policy.
        vrfs = [vrf for pe in pes for vrf in pe.vrfs.values()]
        vrf = vrfs[a % len(vrfs)]
        vrf.import_rts = vrf.import_rts ^ {vpns[b % len(vpns)].rt}
        if (a + b) % 2:
            prov.converge_bgp()
        else:
            state["unsynced"] = True
    elif kind == "hand-":
        # An imported route withdrawn by hand; the resync puts it back —
        # unless a policy assigned by hand and read by that resync no
        # longer imports the route's RT, or that resync retracted the
        # advertisement (its local withdrawn by hand before it).
        holders = [
            (pe, vrf, p) for pe in up_pes for vrf in pe.vrfs.values()
            for p, r in sorted(vrf.routes().items()) if r.kind == "remote"
        ]
        if not holders:
            return
        pe, vrf, prefix = holders[a % len(holders)]
        route = vrf.entries()[prefix]     # the engine's: these ops write no hand remote
        assert vrf.withdraw(prefix)
        prov.converge_bgp()
        advertised = any(rib.get(prefix) is route for rib in engine._rib.values())
        if advertised and not route.route_targets.isdisjoint(vrf.import_rts):
            assert vrf.entries()[prefix].kind == "remote"
    elif kind == "vrf-readd":
        # A VRF deleted and re-created under its name behind the engine's
        # back (legal once its last circuit is gone): a new, empty table.
        idle = [
            (pe, vrf) for pe in pes for vrf in pe.vrfs.values()
            if all(pe.vrf_of_circuit(n) is not vrf for n in pe.interfaces)
        ]
        if not idle:
            return
        pe, vrf = idle[a % len(idle)]
        pe.remove_vrf(vrf.name)
        pe.add_vrf(vrf.name, vrf.rd, vrf.import_rts, vrf.export_rts)
        prov.converge_bgp()
    elif kind == "withdraw":
        # Advertisements retracted (one site's, or its whole VRF's) with
        # the locals left where they are; the resync re-advertises them.
        sites = [
            s for v in vpns for s in v.sites if s.pe.name not in drained
        ]
        if not sites:
            return
        site = sites[a % len(sites)]
        if b % 2:
            engine.withdraw(site.pe, site=site.site_id)
        else:
            names = _vrf_names(site.vpn_name, site.role)
            engine.withdraw(site.pe, vrf=names[b // 2 % len(names)])
        prov.converge_bgp()
    elif kind == "hand-local":
        # A local toggled by hand on one of the first /24s of the plan sites
        # are numbered from: added over nothing (maybe the prefix a later
        # site brings), over an import or over a local, or a local
        # withdrawn — then an export_delta, or nothing, and the next
        # resync has to find it.
        vrfs = [(pe, vrf) for pe in up_pes for vrf in pe.vrfs.values()]
        if not vrfs:
            return
        pe, vrf = vrfs[a % len(vrfs)]
        prefix = Prefix.parse(f"10.0.{b % 6}.0/24")
        if prefix in vrf.local_routes() and (a + b) % 3:
            vrf.withdraw(prefix)
        else:
            vrf.add_local(prefix, "by-hand")
        if (a + b) % 2:
            prov.bgp_engine().export_delta(pe, vrf)
        else:
            state["unsynced"] = True


class TestIncrementalMatchesFullConverge:
    @pytest.mark.parametrize(
        "rr_clusters", [None, ["pe0"]], ids=["full-mesh", "rr"]
    )
    @slow_settings
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(OP_KINDS),
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=0, max_value=11),
            ),
            min_size=1,
            max_size=10,
        )
    )
    # A PE drained, one VRF's import policy assigned by hand behind it, the
    # PE restored: the return converges it under the policy it holds.
    @example(ops=[("drain", 1, 0), ("rts=", 5, 0), ("restore", 0, 0)])
    # A local withdrawn by hand with no delta, then an import of it withdrawn
    # by hand: the resync retracts the advertisement, so nothing comes back.
    @example(ops=[("hand-local", 3, 1), ("hand-", 0, 0)])
    def test_random_churn_sequences(self, rr_clusters, ops):
        net, pes, prov = _world(4, rr_clusters=rr_clusters, hub_spoke=True, spare=True)
        engine = prov.bgp_engine(rr_clusters=rr_clusters)
        anchors = {s.site_id for v in prov.vpns.values() for s in v.sites}
        drained: set[str] = set()
        state = {"vpn_seq": 0, "unsynced": False}
        for op in ops:
            _apply_op(prov, pes, engine, anchors, drained, op, state)
            _resync_reaches_oracle(prov, drained, rr_clusters)
        if state["unsynced"]:
            # A local added by hand with no delta after it, or an import
            # policy assigned with no resync after it: only a resync reads
            # it, so the checks below follow one.
            prov.converge_bgp()
        # The Adj-RIB exactly mirrors what the PEs in session are exporting
        # (a drained PE's is brought up to date when it returns), and the
        # engine holds every PE serving a site, and the ones that did.
        assert prov.bgp_engine() is engine
        assert set(prov.pes()) <= set(engine.pes)
        exporting = {
            (pe.name, vrf.name): len(vrf.local_routes())
            for pe in engine.pes if pe.name not in drained
            for vrf in pe.vrfs.values() if vrf.local_routes()
        }
        assert exporting == {
            key: len(rib) for key, rib in engine._rib.items()
            if key[0] not in drained
        }
        # One object per advertisement: every import in a VRF is the
        # Adj-RIB-Out's object for its prefix and origin, and none outlives
        # its advertisement.  The ops write no remote route by hand, so
        # every remote entry is one.
        _imports_are_advertisements(prov, engine)
        assert all(
            type(r) is VpnRoute for pe in pes for vrf in pe.vrfs.values()
            for r in vrf.entries().values() if r.kind == "remote"
        )
        incremental = _vrf_snapshot(prov)
        assert incremental == _oracle_snapshot(
            prov, drained, rr_clusters=rr_clusters
        )
