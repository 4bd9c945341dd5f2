"""The control-plane chain as one call: ``repro.control.converge_all``.

``converge_all`` runs the IGP, then LDP, then MP-BGP.  Held here, on twin
networks built the same way: at build it leaves exactly the tables the
three hand calls leave; a second call writes nothing at any layer; and
after a core link flap and after its heal, each followed by the chain, the
tables equal those of a fresh build of the same topology.  The scenario has no prefix advertised by
two PEs, so no import depends on which origin the IGP can reach.
"""

import pytest

from repro.control import Converged, converge_all
from repro.mpls import Lsr, run_ldp
from repro.routing import converge
from repro.routing.router import Router
from repro.topology import Network, build_backbone
from repro.vpn import PeRouter, VpnProvisioner


def build(seed=23):
    """The 12-node backbone with two VPNs of five sites over its eight PEs,
    provisioned and not converged."""
    net = Network(seed=seed)
    nodes = build_backbone(net, node_factory=lambda n, name: n.add_node(
        (PeRouter if name.startswith("E") else Lsr)(n.sim, name)))
    prov = VpnProvisioner(net)
    pes = [nodes[f"E{i}"] for i in range(1, 9)]
    for k in range(2):
        vpn = prov.create_vpn(f"v{k}")
        for i in range(5):
            prov.add_site(vpn, pes[(3 * k + i) % len(pes)], num_hosts=0)
    return net, prov


def tables(net):
    """Every router's FIB and every LSR's LFIB / FTN and PE's VRF tables."""
    out = {}
    for name, node in net.nodes.items():
        if not isinstance(node, Router):
            continue
        out[name, "fib"] = dict(node.fib.routes())
        if isinstance(node, Lsr):
            out[name, "lfib"] = dict(node.lfib.entries())
            out[name, "ftn"] = dict(node.ftn.entries())
        for vrf_name, vrf in getattr(node, "vrfs", {}).items():
            out[name, vrf_name] = dict(vrf.entries())
    return out


def by_hand(net, prov):
    converge(net)
    run_ldp(net)
    prov.converge_bgp()


def test_at_build_equals_the_three_hand_calls():
    net, prov = build()
    twin, twin_prov = build()
    result = converge_all(net, prov)
    by_hand(twin, twin_prov)
    assert isinstance(result, Converged)
    assert result.igp > 0 and result.ldp.written > 0 and result.bgp.routes_imported > 0
    assert tables(net) == tables(twin)
    assert prov.state_census() == twin_prov.state_census()


def test_second_call_writes_nothing():
    net, prov = build()
    converge_all(net, prov)
    before = tables(net)
    again = converge_all(net, prov)
    assert again.igp == 0
    assert again.ldp.written == again.ldp.withdrawn == 0
    assert again.bgp.routes_imported == again.bgp.routes_removed == 0
    assert tables(net) == before


def test_without_a_provisioner_bgp_is_skipped():
    net, prov = build()
    result = converge_all(net)
    assert result.bgp is None
    assert all(len(vrf.entries()) == len(vrf.local_routes())
               for pe in prov.pes() for vrf in pe.vrfs.values())


@pytest.mark.parametrize("pair", [("P1", "P2"), ("E1", "P1"), ("P3", "P4")])
def test_flap_and_heal_equal_a_fresh_build(pair):
    net, prov = build()
    converge_all(net, prov)
    link = net.link_between(*pair)
    for up in (False, True):
        link.set_up(up)
        assert converge_all(net, prov).igp > 0
        fresh, fresh_prov = build()
        fresh.link_between(*pair).set_up(up)
        converge_all(fresh, fresh_prov)
        assert tables(net) == tables(fresh)
