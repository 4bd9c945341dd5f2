"""Provisioning calls that cannot succeed, and one that must.

The PR 15 pattern ("no session was created and the switch stayed off"):
a call that names something unprovisionable raises one typed error that
starts with the offending argument, *before* anything is allocated, and
the test asserts the network and the provisioner were left as they were.
The legal case next to them: de-provisioning a site behind a drained PE,
which used to raise from ``export_delta`` after the circuits, the site
record and the counters had already gone.
"""

import pytest

from repro.audit import audit
from repro.control import converge_all
from repro.experiments.e1_scalability import mpls_base
from repro.experiments.e15_churn import churn_storms, run_e15
from repro.mpls.lsr import Lsr
from repro.net.address import Prefix
from repro.topology import Network, build_backbone
from repro.vpn import ProvisioningError
from repro.vpn.pe import PeRouter
from repro.vpn.provision import VpnProvisioner, _vrf_names
from tests.test_churn_incremental import (
    _imports_are_advertisements, _oracle_snapshot, _vrf_snapshot, _world,
)


def _footprint(net: Network, prov: VpnProvisioner) -> dict:
    """Everything a failed provisioning call could have leaked into."""
    return {
        "nodes": len(net.nodes),
        "links": len(net.duplex_links),
        "vpn.sites": net.counters["vpn.sites"],
        "sites": {name: list(v.sites) for name, v in prov.vpns.items()},
        "sites_on": dict(prov._sites_on),
        "cursors": (prov._next_site_id, prov._next_rd_number,
                    {name: v._next_site_prefix for name, v in prov.vpns.items()}),
        "vrfs": {n.name: {name: len(vrf) for name, vrf in n.vrfs.items()}
                 for n in net.nodes.values() if isinstance(n, PeRouter)},
        "interfaces": sum(len(n.interfaces) for n in net.nodes.values()),
        "addresses": sum(len(n.addresses) for n in net.nodes.values()),
        "free /30s": net.linknets_free(),
    }


@pytest.fixture
def world():
    net, pes, prov = _world(3, hub_spoke=True)
    core = net.add_node(Lsr(net.sim, "P1"))
    return net, pes, prov, core


class TestRejectedBeforeAnythingIsAllocated:
    @pytest.mark.parametrize("vpn", ["corp", "hs"])
    def test_add_site_behind_a_core_router(self, world, vpn):
        net, pes, prov, core = world
        before = _footprint(net, prov)
        with pytest.raises(ProvisioningError, match=r"^pe: 'P1' is a Lsr, not a PeRouter"):
            prov.add_site(vpn, core, num_hosts=0)
        assert _footprint(net, prov) == before

    def test_add_hub_site_behind_a_core_router(self, world):
        net, pes, prov, core = world
        before = _footprint(net, prov)
        with pytest.raises(ProvisioningError, match=r"^pe: 'P1'"):
            prov.add_site("hs", core, num_hosts=0, role="hub")
        assert _footprint(net, prov) == before

    @pytest.mark.parametrize("role", ["spoke", "hub"], ids=["add_site", "add_hub_site"])
    def test_negative_host_count(self, world, role):
        net, pes, prov, core = world
        before = _footprint(net, prov)
        with pytest.raises(ProvisioningError, match=r"^num_hosts: -1 is negative"):
            prov.add_site("hs", pes[2], num_hosts=-1, role=role)
        assert _footprint(net, prov) == before

    @pytest.mark.parametrize("role", ["spoke", "hub"], ids=["add_site", "add_hub_site"])
    @pytest.mark.parametrize("rate", [0, -1, float("nan")])
    def test_impossible_host_rate(self, world, role, rate):
        # Interface refuses the rate too, but only once the CE, the access
        # link, the circuit binding and the local route exist, with no Site
        # registered to remove them through.
        net, pes, prov, core = world
        before = _footprint(net, prov)
        with pytest.raises(ProvisioningError, match=r"^host_rate_bps: "):
            prov.add_site("hs", pes[2], host_rate_bps=rate, role=role)
        assert _footprint(net, prov) == before

    @pytest.mark.parametrize("arg, bad", [
        ("access_rate_bps", 0), ("access_rate_bps", float("nan")),
        ("access_delay_s", -1e-3), ("access_delay_s", float("inf")),
    ])
    def test_impossible_access_link(self, world, arg, bad):
        # Refused here, not by the first add_site's connect(): by then the
        # CE is in the network and a site id and a site prefix are spent.
        net, pes, prov, core = world
        before = _footprint(net, prov)
        with pytest.raises(ProvisioningError, match=rf"^{arg}: "):
            VpnProvisioner(net, **{arg: bad})
        assert _footprint(net, prov) == before

    @pytest.mark.parametrize("call", ["create_vpn", "create_hub_spoke_vpn"])
    def test_bad_supernet_spends_no_rd_number(self, world, call):
        net, pes, prov, core = world
        before = _footprint(net, prov)
        with pytest.raises(ValueError):
            getattr(prov, call)("late", supernet="garbage")
        assert _footprint(net, prov) == before

    @pytest.mark.parametrize("call, kw", [
        ("add_site", {}), ("add_site", {"role": "hub"}), ("remove_vpn", {}),
    ], ids=["add_site", "add_hub_site", "remove_vpn"])
    def test_unknown_vpn_name(self, world, call, kw):
        net, pes, prov, core = world
        before = _footprint(net, prov)
        args = ("nope",) if call == "remove_vpn" else ("nope", pes[0])
        with pytest.raises(ProvisioningError, match=r"^vpn: no VPN named 'nope'"):
            getattr(prov, call)(*args, **kw)
        assert _footprint(net, prov) == before

    def test_is_a_value_error(self, world):
        # Callers that caught ValueError from the provisioner keep working.
        net, pes, prov, core = world
        assert issubclass(ProvisioningError, ValueError)
        with pytest.raises(ValueError):
            prov.remove_vpn("nope")

    def test_bad_explicit_prefix_spends_no_site_id(self, world):
        net, pes, prov, core = world
        before = _footprint(net, prov)
        with pytest.raises(ValueError):
            prov.add_site("corp", pes[0], prefix="10.0.0.0/40", num_hosts=0)
        assert _footprint(net, prov) == before

    @pytest.mark.parametrize("vpn, role", [
        ("corp", "hub"), ("corp", "spoke"), ("hs", "mesh"), ("hs", "relay"),
    ])
    def test_a_role_the_vpn_does_not_have(self, world, vpn, role):
        net, pes, prov, core = world
        before = _footprint(net, prov)
        with pytest.raises(ProvisioningError, match=rf"^role: '{role}' is not a role of "):
            prov.add_site(vpn, pes[2], num_hosts=0, role=role)
        assert _footprint(net, prov) == before

    def test_a_hub_of_a_mesh_vpn_is_one_error(self, world):
        net, pes, prov, core = world
        before = _footprint(net, prov)
        with pytest.raises(ProvisioningError) as by_role:
            prov.add_site("corp", pes[2], num_hosts=0, role="hub")
        assert str(by_role.value) == (
            "role: 'hub' is not a role of mesh VPN corp; its sites are 'mesh'"
        )
        assert _footprint(net, prov) == before


class TestRemoveSiteBehindADrainedPe:
    def _drained_world(self):
        net, pes, prov = _world(4)
        engine = prov.bgp_engine()
        extra = prov.add_site(prov.vpns["corp"], pes[2], num_hosts=0)
        engine.export_delta(pes[2], pes[2].vrfs["corp"])
        assert all(extra.prefix in pe.vrfs["corp"].routes() for pe in pes)
        prov.drain_pe(pes[2])
        return net, pes, prov, extra

    def test_is_legal_and_whole(self):
        net, pes, prov, extra = self._drained_world()
        sites = net.counters["vpn.sites"]
        updates = net.counters["bgp.updates"]
        assert prov.remove_site(extra) is extra
        assert extra not in prov.vpns["corp"].sites
        assert net.counters["vpn.sites"] == sites - 1
        assert pes[2].vrf_of_circuit(extra.pe_ifname) is None
        assert extra.prefix not in pes[2].vrfs["corp"].routes()
        # Nobody to tell: the PE's sessions are down.
        assert net.counters["bgp.updates"] == updates
        with pytest.raises(ValueError, match="not provisioned"):
            prov.remove_site(extra)

    def test_restore_readvertises_what_is_left(self):
        net, pes, prov, extra = self._drained_world()
        prov.remove_site(extra)
        prov.restore_pe(pes[2])
        for pe in pes:
            assert extra.prefix not in pe.vrfs["corp"].routes()
        engine = prov.bgp_engine()
        assert extra.prefix not in engine._rib["pe2", "corp"]
        # Every import is the Adj-RIB-Out's object, and every advertisement
        # left is imported somewhere.
        assert len(_imports_are_advertisements(prov, engine)) == engine.adj_rib_size()
        census = prov.state_census()["vrf_routes_total"]
        tables = _vrf_snapshot(prov)
        assert tables == _oracle_snapshot(prov, drained=())
        assert prov.state_census()["vrf_routes_total"] == census

    def test_site_added_behind_a_drained_pe_is_advertised_on_restore(self):
        net, pes, prov, extra = self._drained_world()
        late = prov.add_site(prov.vpns["corp"], pes[2], num_hosts=0)
        prov.restore_pe(pes[2])
        assert all(late.prefix in pe.vrfs["corp"].routes() for pe in pes)
        assert _vrf_snapshot(prov) == _oracle_snapshot(prov, drained=())

    def test_remove_vpn_with_a_drained_holder(self):
        net, pes, prov = _world(4)
        other = prov.create_vpn("other")
        for pe in pes[1:]:
            prov.add_site(other, pe, num_hosts=0)
        prov.converge_bgp()
        prov.drain_pe(pes[2])
        prov.remove_vpn("other")
        assert "other" not in prov.vpns
        assert all("other" not in pe.vrfs for pe in pes)
        prov.restore_pe(pes[2])
        assert not [k for k in prov.bgp_engine()._rib if k[1] == "other"]
        assert _vrf_snapshot(prov) == _oracle_snapshot(prov, drained=())


class TestOneWiringPath:
    """Every role is wired by ``add_site`` and unwired by ``remove_site``:
    a site added behind a PE that already serves its VPN, then removed,
    leaves the PE and the network as they were."""

    @staticmethod
    def _pe_state(net, pe) -> dict:
        return {
            "vrfs": dict(pe.vrfs),
            "circuits": {n: pe.vrf_of_circuit(n) for n in pe.interfaces},
            "lfib": dict(pe.lfib.entries()),
            "labels": (list(pe.labels.allocated()), pe.labels._next, list(pe.labels._free)),
            "free /30s": net.linknets_free(),
            "nodes": dict(net.nodes),
        }

    @pytest.mark.parametrize("vpn, role, at, circuits", [
        ("corp", "mesh", 1, 1), ("hs", "spoke", 1, 1), ("hs", "hub", 0, 2),
    ])
    def test_add_then_remove_leaves_the_pe_as_it_was(self, vpn, role, at, circuits):
        net, pes, prov = _world(3, hub_spoke=True)
        pe = pes[at]
        assert all(n in pe.vrfs for n in _vrf_names(vpn, role))
        before = self._pe_state(net, pe)
        site = prov.add_site(vpn, pe, num_hosts=1, role=role)
        assert site.role == role and len(site.links) == circuits + 1
        bound = [pe.vrf_of_circuit(dl.if_ba.name) for dl in site.links[:circuits]]
        assert bound == [pe.vrfs[n] for n in _vrf_names(vpn, role)]
        prov.converge_bgp()
        prov.remove_site(site)
        assert self._pe_state(net, pe) == before
        findings = audit(net, bgp=prov.bgp_engine())
        assert [f for f in findings if f.severity == "error"] == []


class TestRemoveSiteBehindAPeTheEngineDoesNotHold:
    """A site added behind a PE the persistent engine was built without and
    removed before the next ``converge_bgp()``: the engine never held the
    PE's routes, so there is nothing to withdraw.  It used to raise ``E3 is
    not in this BGP mesh`` after the CE, the links and the site were gone."""

    def test_is_legal_whole_and_silent(self):
        net, nodes, prov = TestRemoveVpn._backbone()
        acme = prov.create_vpn("acme")
        for name in ("E1", "E2"):
            prov.add_site(acme, nodes[name], num_hosts=0)
        converge_all(net, prov)
        engine = prov.bgp_engine()
        rib = {key: dict(routes) for key, routes in engine._rib.items()}
        updates = net.counters["bgp.updates"]
        wired = (len(net.nodes), len(net.duplex_links), net.linknets_free())
        late = prov.add_site(acme, nodes["E3"], num_hosts=0)
        assert nodes["E3"] not in engine.pes
        assert prov.remove_site(late) is late
        assert (len(net.nodes), len(net.duplex_links), net.linknets_free()) == wired
        assert late not in acme.sites and "E3" not in prov._sites_on
        assert engine._rib == rib and net.counters["bgp.updates"] == updates
        assert prov.bgp_engine() is engine
        prov.converge_bgp()
        assert _vrf_snapshot(prov) == _oracle_snapshot(prov, drained=())
        assert [f for f in audit(net, bgp=engine) if f.severity == "error"] == []


class TestRemoveVpn:
    """``remove_vpn`` takes the VPN's VRFs off every PE that holds one, not
    only off the PEs still hosting a site: a VRF outlives the last site
    behind its PE (it used to stay, and a re-created VPN of the same name
    inherited it with the old RD and RT, so its sites never met)."""

    @staticmethod
    def _backbone():
        net = Network(seed=3)
        nodes = build_backbone(net, node_factory=lambda n, name: n.add_node(
            (PeRouter if name.startswith("E") else Lsr)(n.sim, name)))
        return net, nodes, VpnProvisioner(net)

    def test_a_vpn_recreated_after_its_last_site_left_a_pe_starts_clean(self):
        net, nodes, prov = self._backbone()
        e1, e5, e8 = nodes["E1"], nodes["E5"], nodes["E8"]
        acme = prov.create_vpn("acme")
        first = prov.add_site(acme, e1, num_hosts=0)
        prov.add_site(acme, e8, num_hosts=0)
        # Another provider's same-named VPN: its RD is not this one's.
        other = VpnProvisioner(net, asn=65001)
        other.add_site(other.create_vpn("acme"), e5, num_hosts=0)
        converge_all(net, prov)
        engine = prov.bgp_engine()
        prov.remove_site(first)
        prov.converge_bgp()         # E1 stays in the engine, siteless
        assert prov.bgp_engine() is engine and e1 in engine.pes
        assert _vrf_snapshot(prov) == _oracle_snapshot(prov, drained=())
        prov.remove_vpn("acme")
        assert "acme" not in e1.vrfs and "acme" not in e8.vrfs
        assert e5.vrfs["acme"].rd == other.vpns["acme"].rd

        acme = prov.create_vpn("acme")
        sites = [prov.add_site(acme, pe, num_hosts=0) for pe in (e1, e8)]
        converge_all(net, prov)
        for site, peer in zip(sites, reversed(sites)):
            vrf = site.pe.vrfs["acme"]
            assert (vrf.rd, vrf.import_rts) == (acme.rd, frozenset({acme.rt}))
            assert vrf.entries()[peer.prefix].kind == "remote"
        assert _vrf_snapshot(prov) == _oracle_snapshot(prov, drained=())
        assert [f for f in audit(net, bgp=prov.bgp_engine()) if f.severity == "error"] == []


class _FourSubnets(Network):
    LINKNET_POOL = Prefix.parse("192.168.0.0/28")


class TestLinknetPool:
    """A /30 comes back when its link goes, and a spent pool is a named
    provisioning error raised before the CE exists (it used to be a bare
    ``ValueError`` from ``connect``, after ``add_node(ce)`` and both
    ``add_interface`` calls, and a flapping site spent one /30 per flap)."""

    def _world(self):
        net = _FourSubnets(seed=5)
        pes = [net.add_node(PeRouter(net.sim, f"pe{i}")) for i in range(2)]
        prov = VpnProvisioner(net)
        prov.create_vpn("corp")
        prov.create_hub_spoke_vpn("hs")
        return net, pes, prov

    def test_a_flapping_site_gets_its_subnet_back(self):
        net, pes, prov = self._world()
        site = prov.add_site("corp", pes[0], num_hosts=0)
        subnet = Prefix.of(site.links[0].addr_a, 30)
        for _ in range(10):
            prov.remove_site(site)
            site = prov.add_site("corp", pes[0], prefix=site.prefix, num_hosts=0)
            assert Prefix.of(site.links[0].addr_a, 30) == subnet
        assert net.linknets_free() == 3

    def test_lowest_free_subnet_first(self):
        net, pes, prov = self._world()
        sites = [prov.add_site("corp", pes[i % 2], num_hosts=0) for i in range(4)]
        subnets = [Prefix.of(s.links[0].addr_a, 30) for s in sites]
        assert subnets == sorted(subnets) and net.linknets_free() == 0
        prov.remove_site(sites[2])
        prov.remove_site(sites[0])
        again = [prov.add_site("corp", pes[0], num_hosts=0) for _ in range(2)]
        assert [Prefix.of(s.links[0].addr_a, 30) for s in again] == [subnets[0], subnets[2]]

    @pytest.mark.parametrize("free, call, kw", [
        (0, "add_site", {"num_hosts": 0}),
        (1, "add_site", {"num_hosts": 1}),      # access /30 + one host link
        (1, "add_site", {"num_hosts": 0, "role": "hub"}),  # two circuits
    ])
    def test_a_spent_pool_is_named_before_anything_is_allocated(self, free, call, kw):
        net, pes, prov = self._world()
        for _ in range(4 - free):
            prov.add_site("corp", pes[1], num_hosts=0)
        before = _footprint(net, prov)
        vpn = "hs" if kw.get("role") == "hub" else "corp"
        with pytest.raises(
            ProvisioningError, match=r"^linknet pool 192\.168\.0\.0/28 exhausted"
        ):
            getattr(prov, call)(vpn, pes[0], **kw)
        assert _footprint(net, prov) == before
        assert len(pes[0].interfaces) == 0 and not prov.vpns[vpn].sites[4 - free:]

    def test_connect_takes_its_subnet_before_it_touches_a_node(self):
        net, pes, prov = self._world()
        for _ in range(4):
            prov.add_site("corp", pes[1], num_hosts=0)
        before = _footprint(net, prov)
        with pytest.raises(ValueError, match=r"^linknet pool 192\.168\.0\.0/28 exhausted"):
            net.connect(pes[0], pes[1])
        assert _footprint(net, prov) == before


class TestRemoveSiteTwice:
    def test_is_named_and_touches_nothing(self):
        net, pes, prov = _world(3, hub_spoke=True)
        engine = prov.bgp_engine()
        extra = prov.add_site("corp", pes[1], num_hosts=0)
        engine.export_delta(pes[1], pes[1].vrfs["corp"])
        prov.remove_site(extra)
        before = _footprint(net, prov)
        rib = {key: dict(routes) for key, routes in engine._rib.items()}
        updates = net.counters["bgp.updates"]
        with pytest.raises(ProvisioningError, match=r"^site: corp site \d+ is not provisioned"):
            prov.remove_site(extra)
        assert _footprint(net, prov) == before
        assert engine._rib == rib and net.counters["bgp.updates"] == updates

    def test_site_of_a_removed_vpn(self):
        net, pes, prov = _world(3)
        wave = prov.create_vpn("wave")
        site = prov.add_site(wave, pes[0], num_hosts=0)
        prov.converge_bgp()
        prov.remove_vpn("wave")
        before = _footprint(net, prov)
        with pytest.raises(ProvisioningError, match=r"^site: wave site"):
            prov.remove_site(site)
        assert _footprint(net, prov) == before


class TestChurnStormParameters:
    """``run_e15`` / ``churn_storms`` name the parameter at entry: ``n_sites=0``
    used to say "need at least one PE", ``wave_sites=0`` and more flaps than
    sites raised ``IndexError`` after the flap storm had already run, and
    negative counts passed silently."""

    @pytest.mark.parametrize("kw, message", [
        ({"n_sites": 0}, r"^n_sites: 0 "),
        ({"wave_sites": 0}, r"^wave_sites: 0 "),
        ({"site_flaps": -1}, r"^site_flaps: -1 "),
        ({"link_flaps": -2}, r"^link_flaps: -2 "),
        ({"n_sites": 8, "site_flaps": 9}, r"^site_flaps: 9 .* n_sites is 8"),
    ])
    def test_run_e15_names_the_parameter(self, kw, message, monkeypatch):
        def must_not_build(*a, **k):
            raise AssertionError("a network was built for a refused call")

        monkeypatch.setattr("repro.experiments.e15_churn.mpls_base", must_not_build)
        with pytest.raises(ValueError, match=message):
            run_e15(**{"n_sites": 16, **kw})

    @pytest.mark.parametrize("kw, message", [
        ({"wave_sites": 0}, r"^wave_sites: 0 "),
        ({"site_flaps": -1}, r"^site_flaps: -1 "),
        ({"link_flaps": -1}, r"^link_flaps: -1 "),
        ({"site_flaps": 9}, r"^site_flaps: 9 .* n_sites is 8"),
    ])
    def test_churn_storms_refuses_before_the_first_storm(self, kw, message):
        ctx = mpls_base(8)
        net, prov = ctx["net"], ctx["prov"]
        before = _footprint(net, prov)
        updates = net.counters["bgp.updates"]
        with pytest.raises(ValueError, match=message):
            churn_storms(ctx, **kw)
        assert _footprint(net, prov) == before
        assert net.counters["bgp.updates"] == updates

    def test_zero_flaps_are_legal_and_leave_no_residue(self):
        rows = churn_storms(mpls_base(8), site_flaps=0, wave_sites=1, link_flaps=0)
        residue = next(r for r in rows if r["storm"] == "residue")
        assert {k: residue[k] for k in ("nodes", "links", "pe_interfaces", "subnets")} == {
            "nodes": 0, "links": 0, "pe_interfaces": 0, "subnets": 0,
        }
