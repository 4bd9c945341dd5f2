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

from repro.mpls.lsr import Lsr
from repro.topology import Network
from repro.vpn import ProvisioningError
from repro.vpn.pe import PeRouter
from repro.vpn.provision import VpnProvisioner
from tests.test_churn_incremental import _oracle_snapshot, _vrf_snapshot, _world


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
            prov.add_hub_site("hs", core, num_hosts=0)
        with pytest.raises(ProvisioningError, match=r"^pe: 'P1'"):
            prov.add_site("hs", core, num_hosts=0, role="hub")
        assert _footprint(net, prov) == before

    @pytest.mark.parametrize("call", ["add_site", "add_hub_site"])
    def test_negative_host_count(self, world, call):
        net, pes, prov, core = world
        before = _footprint(net, prov)
        with pytest.raises(ProvisioningError, match=r"^num_hosts: -1 is negative"):
            getattr(prov, call)("hs", pes[2], num_hosts=-1)
        assert _footprint(net, prov) == before

    @pytest.mark.parametrize("call", ["add_site", "add_hub_site"])
    @pytest.mark.parametrize("rate", [0, -1, float("nan")])
    def test_impossible_host_rate(self, world, call, rate):
        # Interface refuses the rate too, but only once the CE, the access
        # link, the circuit binding and the local route exist, with no Site
        # registered to remove them through.
        net, pes, prov, core = world
        before = _footprint(net, prov)
        with pytest.raises(ProvisioningError, match=r"^host_rate_bps: "):
            getattr(prov, call)("hs", pes[2], host_rate_bps=rate)
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

    @pytest.mark.parametrize("call", ["add_site", "add_hub_site", "remove_vpn"])
    def test_unknown_vpn_name(self, world, call):
        net, pes, prov, core = world
        before = _footprint(net, prov)
        args = ("nope",) if call == "remove_vpn" else ("nope", pes[0])
        with pytest.raises(ProvisioningError, match=r"^vpn: no VPN named 'nope'"):
            getattr(prov, call)(*args)
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
        assert len(engine._remote) == engine.adj_rib_size()
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
