"""Edge-case tests for MP-BGP distribution, re-convergence idempotence,
and the RR/full-mesh accounting that E1/E9e depend on."""

import pytest

from repro.control import converge_all
from repro.mpls import Lsr, run_ldp
from repro.net.address import IPv4Address, Prefix
from repro.routing import converge
from repro.topology import Network
from repro.vpn import MpBgp, PeRouter, VpnProvisioner
from repro.vpn.rd_rt import RouteDistinguisher, VpnPrefix
from tests.test_churn_budget import _converged
from tests.test_churn_incremental import _oracle_snapshot, _vrf_snapshot


def star_of_pes(n, seed=17):
    net = Network(seed=seed)
    core = net.add_node(Lsr(net.sim, "core"))
    pes = [net.add_node(PeRouter(net.sim, f"pe{i}")) for i in range(n)]
    for pe in pes:
        net.connect(pe, core)
    return net, core, pes


class TestBgpAccounting:
    def test_rr_origin_is_reflector(self):
        """When the RR itself originates a route it sends n-1 updates
        directly (no reflection hop)."""
        net, core, pes = star_of_pes(4)
        prov = VpnProvisioner(net)
        vpn = prov.create_vpn("v")
        prov.add_site(vpn, pes[0], num_hosts=0)   # pe0 will be the RR
        converge(net)
        res = MpBgp(net, pes, route_reflector="pe0").converge()
        # 2 exports (site prefix + access /30), each to 3 clients.
        assert res.routes_exported == 2
        assert res.updates_sent == 2 * 3

    def test_non_rr_origin_costs_same_total(self):
        net, core, pes = star_of_pes(4)
        prov = VpnProvisioner(net)
        vpn = prov.create_vpn("v")
        prov.add_site(vpn, pes[1], num_hosts=0)   # origin is a client
        converge(net)
        res = MpBgp(net, pes, route_reflector="pe0").converge()
        # origin -> RR (1) + RR -> other 2 clients = 3 per export.
        assert res.updates_sent == 2 * 3

    def test_single_pe_no_sessions(self):
        net, core, pes = star_of_pes(1)
        res = MpBgp(net, pes).converge()
        assert res.sessions == 0 and res.updates_sent == 0

    def test_duplicate_pe_names_rejected(self):
        net, core, pes = star_of_pes(2)
        with pytest.raises(ValueError):
            MpBgp(net, [pes[0], pes[0]])

    def test_reconverge_is_idempotent(self):
        """Running converge() twice must not duplicate or corrupt routes."""
        net, core, pes = star_of_pes(3)
        prov = VpnProvisioner(net)
        vpn = prov.create_vpn("v")
        sites = [prov.add_site(vpn, pe, num_hosts=0) for pe in pes]
        converge(net)
        run_ldp(net)
        bgp = MpBgp(net, pes)
        bgp.converge()
        before = {pe.name: dict(pe.vrfs["v"].routes()) for pe in pes}
        bgp.converge()
        after = {pe.name: dict(pe.vrfs["v"].routes()) for pe in pes}
        assert before == after

    def test_converge_counts_suppressions_and_withdrawals(self):
        """converge() adds to the network counters what its result reports,
        like every other operation: cluster-list suppressions at build, and
        the withdrawal of a local removed by hand at the next converge."""
        net, core, pes = star_of_pes(6)
        prov = VpnProvisioner(net)
        vpn = prov.create_vpn("v")
        for pe in pes:
            prov.add_site(vpn, pe, num_hosts=0)
        prov.bgp_engine(rr_clusters=[("pe0", "pe1")])
        built = converge_all(net, prov).bgp
        assert built.updates_suppressed > 0
        assert net.counters["bgp.updates_suppressed"] == built.updates_suppressed
        vrf = pes[2].vrfs["v"]
        vrf.withdraw(next(iter(vrf.local_routes())))
        res = prov.converge_bgp()
        assert res.routes_withdrawn == 1
        assert net.counters["bgp.routes_withdrawn"] == 1
        assert net.counters["bgp.updates_suppressed"] == (
            built.updates_suppressed + res.updates_suppressed)
        assert net.counters["bgp.updates"] == built.updates_sent + res.updates_sent

    def test_import_skips_own_exports(self):
        net, core, pes = star_of_pes(2)
        prov = VpnProvisioner(net)
        vpn = prov.create_vpn("v")
        s0 = prov.add_site(vpn, pes[0], prefix="10.5.0.0/24", num_hosts=0)
        converge(net)
        MpBgp(net, pes).converge()
        # pe0's own site stays a *local* route (not replaced by an import).
        route = pes[0].vrfs["v"].lookup(IPv4Address.parse("10.5.0.1"))
        assert route.kind == "local"


class TestVpnPrefixSemantics:
    def test_same_prefix_different_rd_coexist_in_exports(self):
        net, core, pes = star_of_pes(2)
        prov = VpnProvisioner(net)
        a = prov.create_vpn("a")
        b = prov.create_vpn("b")
        prov.add_site(a, pes[0], prefix="10.1.0.0/24", num_hosts=0)
        prov.add_site(b, pes[0], prefix="10.1.0.0/24", num_hosts=0)
        converge(net)
        res = MpBgp(net, pes).converge()
        keys = {r.key for r in res.exported}
        same_prefix = [k for k in keys if k.prefix == Prefix.parse("10.1.0.0/24")]
        assert len(same_prefix) == 2
        assert same_prefix[0].rd != same_prefix[1].rd

    def test_vpn_prefix_str(self):
        vp = VpnPrefix(RouteDistinguisher(65000, 7), Prefix.parse("10.0.0.0/8"))
        assert str(vp) == "65000:7:10.0.0.0/8"


class TestShadowedImports:
    """A local route shadows an import of the same prefix; when the local
    goes, the import must come back."""

    def test_spoke_prefix_duplicating_hub_route_uncovers_it_on_removal(self):
        """The spoke VRF exports rt_spoke and imports rt_hub: its policy
        never matches its own routes, so the delta has to re-examine the
        VRF whose locals changed whatever it imports."""
        net, core, pes = star_of_pes(3)
        prov = VpnProvisioner(net)
        hs = prov.create_hub_spoke_vpn("hs")
        hub = prov.add_site(hs, pes[0], num_hosts=0, role="hub")
        for pe in pes[1:]:
            prov.add_site(hs, pe, num_hosts=0)
        prov.converge_bgp()
        spoke_vrf = pes[1].vrfs["hs-spoke"]
        assert spoke_vrf.entries()[hub.prefix].kind == "remote"
        before = spoke_vrf.routes()

        dup = prov.add_site(hs, pes[1], prefix=hub.prefix, num_hosts=0)
        prov.bgp_engine().export_delta(pes[1], spoke_vrf)
        assert spoke_vrf.entries()[hub.prefix].kind == "local"
        prov.remove_site(dup)

        tables = _vrf_snapshot(prov)
        assert spoke_vrf.entries()[hub.prefix].kind == "remote"
        assert spoke_vrf.routes() == before
        assert prov.converge_bgp().routes_imported == 0   # nothing left to repair
        assert tables == _oracle_snapshot(prov, drained=())

    def test_converge_reinstalls_an_import_the_table_lost(self):
        """A duplicate site added and removed between two resyncs was never
        advertised, so no delta sees it: the bookkeeping still lists the
        import its local overwrote.  Listed but absent from the VRF is an
        add, not a no-op."""
        net, core, pes = star_of_pes(2)
        prov = VpnProvisioner(net)
        vpn = prov.create_vpn("v")
        site = prov.add_site(vpn, pes[0], num_hosts=0)
        prov.add_site(vpn, pes[1], num_hosts=0)
        prov.converge_bgp()
        vrf = pes[1].vrfs["v"]
        before = vrf.routes()
        prov.remove_site(prov.add_site(vpn, pes[1], prefix=site.prefix, num_hosts=0))
        assert site.prefix not in vrf.prefixes()
        again = prov.converge_bgp()
        assert again.routes_imported == 1 and again.updates_sent == 0
        assert vrf.routes() == before


    @pytest.mark.parametrize("delta_after_add", [False, True])
    def test_converge_reinstalls_an_import_the_table_lost_after_a_delta(
        self, delta_after_add
    ):
        """The same duplicate, with an ``export_delta`` before the
        ``converge()`` (and, or not, one right after the add): the add
        overwrote an import, which is not a local-only write, so no delta
        may mark the VRF in sync — the converge still repairs what the
        deltas could not see, and leaves nothing for a fresh engine to fix."""
        net, core, pes = star_of_pes(2)
        prov = VpnProvisioner(net)
        vpn = prov.create_vpn("v")
        site = prov.add_site(vpn, pes[0], num_hosts=0)
        prov.add_site(vpn, pes[1], num_hosts=0)
        prov.converge_bgp()
        engine = prov.bgp_engine()
        vrf = pes[1].vrfs["v"]
        before = vrf.routes()
        dup = prov.add_site(vpn, pes[1], prefix=site.prefix, num_hosts=0)
        if delta_after_add:
            engine.export_delta(pes[1], vrf)
        prov.remove_site(dup)
        engine.export_delta(pes[1], vrf)
        # A delta that saw the local go uncovered the import again itself.
        assert (site.prefix in vrf.prefixes()) is delta_after_add
        again = prov.converge_bgp()
        assert again.routes_imported == (0 if delta_after_add else 1)
        assert again.updates_sent == 0
        assert vrf.routes() == before
        assert _vrf_snapshot(prov) == _oracle_snapshot(prov, drained=())


class TestExportDeltaArguments:
    """``export_delta`` takes one of the PE's own VRFs; anything else is a
    ``ValueError`` naming the argument, raised before anything is written
    (it used to withdraw pe0's routes everywhere and advertise pe1's under
    pe0's loopback for a foreign VRF, and raise a bare ``KeyError`` for an
    unknown name)."""

    @staticmethod
    def _state(prov, engine):
        return (
            {key: dict(rib) for key, rib in engine._rib.items()},
            dict(engine._synced),
            _vrf_snapshot(prov),    # the tables are the record of the imports
            {(pe.name, v.name): v.generation for pe in prov.pes() for v in pe.vrfs.values()},
            prov.net.counters.snapshot(),
        )

    @pytest.mark.parametrize("arg", ["foreign", "unknown"])
    def test_a_vrf_that_is_not_the_pes_is_refused_untouched(self, arg):
        net, core, pes = star_of_pes(3)
        prov = VpnProvisioner(net)
        vpn = prov.create_vpn("v")
        for pe in pes:
            prov.add_site(vpn, pe, num_hosts=0)
        prov.converge_bgp()
        engine = prov.bgp_engine()
        vrf = pes[1].vrfs["v"] if arg == "foreign" else "nope"
        before = self._state(prov, engine)
        with pytest.raises(ValueError) as err:
            engine.export_delta(pes[0], vrf)
        assert str(err.value).startswith("vrf: ")
        assert self._state(prov, engine) == before


class TestWithdrawBehindADrain:
    """A drained PE's peers flushed its routes at ``peer_down``, so taking
    them out of its Adj-RIB afterwards tells nobody anything: no UPDATE, no
    import re-examination (it used to charge the fan-out over the sessions
    that were down: 14 UPDATEs for ``small0``'s two routes on pe0)."""

    @staticmethod
    def _drained():
        prov, pes = _converged(2, big_sites=16)
        solo = prov.create_vpn("solo")
        for _ in range(2):
            prov.add_site(solo, pes[0], num_hosts=0)
        prov.converge_bgp()
        prov.drain_pe(pes[0])
        return prov, pes, prov.bgp_engine()

    @staticmethod
    def _tables(prov):
        return (
            prov.net.counters["bgp.updates"],
            {(pe.name, v.name): (v.routes(), v.generation)
             for pe in prov.pes() for v in pe.vrfs.values()},
        )

    def test_withdraw_on_a_drained_pe_sends_nothing(self):
        prov, pes, engine = self._drained()
        before = self._tables(prov)
        result = engine.withdraw(pes[0], vrf="small0")
        assert (result.updates_sent, result.routes_withdrawn, result.routes_removed) == (0, 0, 0)
        assert ("pe0", "small0") not in engine._rib
        assert self._tables(prov) == before
        # The locals are still there: the return re-advertises them.
        prov.restore_pe(pes[0])
        assert _vrf_snapshot(prov) == _oracle_snapshot(prov, drained=())

    def test_removing_a_vpn_behind_a_drain_sends_nothing(self):
        prov, pes, engine = self._drained()
        before = self._tables(prov)
        prov.remove_vpn("solo")
        updates, tables = before
        del tables["pe0", "solo"]
        assert self._tables(prov) == (updates, tables)
        assert not [key for key in (*engine._rib, *engine._synced) if key[1] == "solo"]


class TestVpnConservationUnderLoad:
    def test_labeled_conservation(self):
        """Packet conservation holds through the full VPN encapsulation
        path under congestion (labels imposed/swapped/popped)."""
        from repro.traffic import CbrSource, FlowSink

        net, core, pes = star_of_pes(3, seed=23)
        # Shrink core links to force drops.
        for dl in net.duplex_links:
            dl.if_ab.rate_bps = 2e6
            dl.if_ba.rate_bps = 2e6
        prov = VpnProvisioner(net)
        vpn = prov.create_vpn("v")
        sites = [prov.add_site(vpn, pe) for pe in pes]
        converge_all(net, prov)

        sinks = [FlowSink(net.sim).attach(s.hosts[0]) for s in sites]
        sources = []
        for i, (src_site, dst_site) in enumerate(
            [(0, 1), (1, 2), (2, 0)]
        ):
            h1 = sites[src_site].hosts[0]
            h2 = sites[dst_site].hosts[0]
            src = CbrSource(net.sim, h1.send, f"f{i}",
                            str(h1.loopback), str(h2.loopback),
                            payload_bytes=900, rate_bps=2.5e6)
            src.start(0.0, stop_at=1.5)
            sources.append((src, sinks[dst_site]))
        net.run(until=4.0)

        sent = sum(s.sent for s, _ in sources)
        recv = sum(sink.received(f"f{i}") for i, (_s, sink) in enumerate(sources))
        drops = net.total_drops() + sum(
            n.stats.dropped_total for n in net.nodes.values()
        )
        assert sent == recv + drops
        assert drops > 0  # the scenario actually congested
