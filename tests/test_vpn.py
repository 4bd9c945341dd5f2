"""Tests for the VPN layer: RD/RT, VRF, PE, MP-BGP, provisioning."""

import copy
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.control import converge_all
from repro.mpls.ldp import run_ldp
from repro.mpls.lfib import LabelOp
from repro.mpls.lsr import Lsr
from repro.net.address import IPv4Address, Prefix
from repro.net.packet import IPHeader, Packet
from repro.routing.spf import converge
from repro.topology import Network
from repro.vpn.bgp import MpBgp, VpnRoute
from repro.vpn.pe import PeRouter
from repro.vpn.provision import VpnProvisioner
from repro.vpn.rd_rt import RouteDistinguisher, RouteTarget, VpnPrefix
from repro.vpn.vrf import Vrf, VrfRoute
from tests.test_fib import POOL, QUERIES, _oracle, pool_prefixes


class TestRdRt:
    def test_rd_parse_str_roundtrip(self):
        rd = RouteDistinguisher.parse("65000:42")
        assert rd.asn == 65000 and rd.number == 42
        assert str(rd) == "65000:42"

    def test_rt_parse_both_forms(self):
        assert RouteTarget.parse("target:65000:7") == RouteTarget(65000, 7)
        assert RouteTarget.parse("65000:7") == RouteTarget(65000, 7)
        assert str(RouteTarget(65000, 7)) == "target:65000:7"

    def test_range_validation(self):
        with pytest.raises(ValueError):
            RouteDistinguisher(70000, 1)
        with pytest.raises(ValueError):
            RouteTarget(1, 1 << 32)

    def test_vpn_prefix_disambiguates_overlap(self):
        p = Prefix.parse("10.0.0.0/8")
        a = VpnPrefix(RouteDistinguisher(65000, 1), p)
        b = VpnPrefix(RouteDistinguisher(65000, 2), p)
        assert a != b
        assert len({a, b}) == 2


def _values():
    rd, rt = RouteDistinguisher(65000, 7), RouteTarget(65000, 7)
    vp = VpnPrefix(rd, Prefix.parse("10.0.0.0/8"))
    route = VpnRoute(
        rd=rd, prefix=vp.prefix, route_targets=frozenset({rt}),
        next_hop=IPv4Address(1), vpn_label=17, origin_pe="pe0",
    )
    return rd, rt, vp, route


class TestControlPlaneTupleValues:
    """The value-type contract of RouteDistinguisher / RouteTarget /
    VpnPrefix / VpnRoute: immutable tuples, checked at construction, told
    apart by type, hashed without a per-process salt."""

    def test_range_errors(self):
        for cls in (RouteDistinguisher, RouteTarget):
            for asn, number in ((-1, 0), (1 << 16, 0), (0, -1), (0, 1 << 32)):
                with pytest.raises(ValueError):
                    cls(asn, number)
            assert (cls(0xFFFF, 0xFFFFFFFF).asn, cls(0xFFFF, 0xFFFFFFFF).number) == (
                0xFFFF, 0xFFFFFFFF,
            )

    def test_attributes_are_read_only(self):
        for value in _values():
            with pytest.raises(AttributeError):
                setattr(value, value._fields[-1], 7)
            with pytest.raises(AttributeError):
                value.note = "no instance dict"

    def test_rd_rt_and_prefix_never_compare_equal(self):
        rd, rt = RouteDistinguisher(10, 8), RouteTarget(10, 8)
        assert rd != rt and hash(rd) != hash(rt)
        assert len({rd, rt, Prefix(10, 8)}) == 3
        assert rd != Prefix(10, 8) and rt != Prefix(10, 8)
        assert {rt: "rt"}.get(rd) is None
        assert rd == RouteDistinguisher(10, 8) and rt == RouteTarget(10, 8)

    def test_sorted_is_asn_then_number_order(self):
        rts = [RouteTarget(2, 1), RouteTarget(1, 9), RouteTarget(1, 2)]
        assert sorted(rts) == [RouteTarget(1, 2), RouteTarget(1, 9), RouteTarget(2, 1)]
        assert repr(rts[0]) == "RouteTarget(asn=2, number=1)"

    @pytest.mark.parametrize("protocol", [2, 3, 4, 5])
    def test_pickle_keeps_type_and_value(self, protocol):
        for value in _values():
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is type(value) and back == value
            assert hash(back) == hash(value)
        route = pickle.loads(pickle.dumps(_values()[3], protocol))
        assert type(route.key) is VpnPrefix and type(route.prefix) is Prefix
        assert type(route.key.rd) is RouteDistinguisher
        assert {type(rt) for rt in route.route_targets} == {RouteTarget}

    def test_copy_and_deepcopy_keep_type_and_value(self):
        for value in _values():
            for back in (copy.copy(value), copy.deepcopy(value)):
                assert type(back) is type(value) and back == value
        assert type(copy.deepcopy(_values()[3]).key.rd) is RouteDistinguisher

    def test_hashes_do_not_depend_on_pythonhashseed(self):
        """RT sets are iterated (import order): a string in the hashed
        tuple would make that order differ from process to process."""
        code = (
            "from repro.net.address import Prefix\n"
            "from repro.vpn.rd_rt import RouteDistinguisher, RouteTarget, VpnPrefix\n"
            "rts = [RouteTarget(65000, n) for n in range(40)]\n"
            "vp = VpnPrefix(RouteDistinguisher(65000, 1), Prefix.parse('10.0.0.0/8'))\n"
            "print(hash(rts[7]), hash(vp), [rt.number for rt in frozenset(rts)])\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        outs = set()
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            outs.add(subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True, timeout=60,
            ).stdout)
        assert len(outs) == 1 and outs.pop().strip()


def mk_vrf(name="v", rd_num=1, label=100):
    rt = RouteTarget(65000, rd_num)
    return Vrf(name, RouteDistinguisher(65000, rd_num), frozenset({rt}),
               frozenset({rt}), label)


def advert(prefix, pe, label, origin_site=None):
    """An MP-BGP advertisement from PE loopback ``pe``: the only kind of
    VRF entry that is not a site's route."""
    pfx = Prefix.parse(prefix) if isinstance(prefix, str) else prefix
    pe = IPv4Address.parse(pe) if isinstance(pe, str) else IPv4Address(pe)
    rd, rt = RouteDistinguisher(65000, 99), RouteTarget(65000, 99)
    return VpnRoute(rd, pfx, frozenset({rt}), pe, label, f"pe-{pe}", origin_site)


class TestVrf:
    def test_local_route_lookup(self):
        vrf = mk_vrf()
        vrf.add_local("10.1.0.0/24", "ge0")
        r = vrf.lookup(IPv4Address.parse("10.1.0.5"))
        assert r.kind == "local" and r.out_ifname == "ge0"

    def test_remote_route_lookup(self):
        vrf = mk_vrf()
        route = advert("10.2.0.0/24", "172.16.0.9", 201)
        vrf.add_remote_many([(route.prefix, route)])
        r = vrf.lookup(IPv4Address.parse("10.2.0.5"))
        assert r is route
        assert r.kind == "remote" and r.vpn_label == 201
        assert r.remote_pe == IPv4Address.parse("172.16.0.9")

    def test_lpm_within_vrf(self):
        vrf = mk_vrf()
        vrf.add_local("10.0.0.0/8", "short")
        vrf.add_local("10.1.0.0/16", "long")
        assert vrf.lookup(IPv4Address.parse("10.1.2.3")).out_ifname == "long"

    def test_miss_returns_none(self):
        assert mk_vrf().lookup(IPv4Address.parse("10.0.0.1")) is None

    def test_withdraw(self):
        vrf = mk_vrf()
        vrf.add_local("10.1.0.0/24", "ge0")
        assert vrf.withdraw("10.1.0.0/24")
        assert vrf.lookup(IPv4Address.parse("10.1.0.5")) is None
        assert not vrf.withdraw("10.1.0.0/24")

    def test_route_validation(self):
        # A VrfRoute is a site's route: it needs its circuit and carries
        # nothing of a remote one.
        with pytest.raises(TypeError):
            VrfRoute()
        route = VrfRoute("ge0", origin_site=3)
        assert (route.kind, route.out_ifname, route.origin_site) == ("local", "ge0", 3)
        assert not hasattr(route, "remote_pe") and not hasattr(route, "vpn_label")

    def test_local_routes_filter(self):
        vrf = mk_vrf()
        vrf.add_local("10.1.0.0/24", "ge0")
        route = advert("10.2.0.0/24", 9, 200)
        vrf.add_remote_many([(route.prefix, route)])
        assert len(vrf.local_routes()) == 1
        assert len(vrf) == 2


# The table machine of tests/test_fib.py over two VRFs of one PE: every
# route carries its owner's number in ``origin_site``, both VRFs draw from
# the same nested 10/8 pool, and nothing one holds may surface in the other.
# As there, the route dicts are checked after every step but the tries are
# read only by a drawn "lookup" (and at the end), so their syncs land
# anywhere in the sequence; "pickle" round-trips both VRFs in one image.
# Beside the table, each VRF's locals (``local_routes()``, per-circuit
# ``circuit_prefixes``) must equal the table's after every write, and
# ``local_generation`` must move by one exactly on a local-only write: an
# add_local over nothing or a local, a withdraw of a local, a remove_many
# (repeats and mixed kinds drawn from the small pool) that removes locals
# only.  A round trip rebuilds the locals from the table and restarts it at 0.
_owners = st.integers(0, 1)
_remote = st.tuples(pool_prefixes, st.integers(1, 3), st.integers(16, 19))
_vrf_ops = st.one_of(
    st.tuples(st.just("add_local"), _owners, pool_prefixes, st.integers(0, 3)),
    st.tuples(st.just("add_remote_many"), _owners, st.lists(_remote, max_size=6)),
    st.tuples(st.just("withdraw"), _owners, pool_prefixes),
    st.tuples(st.just("remove_many"), _owners, st.lists(pool_prefixes, max_size=6)),
    st.tuples(st.just("lookup"), _owners, st.none()),
    st.tuples(st.just("pickle"), _owners, st.none()),
)


class TestVrfStateful:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_vrf_ops, min_size=1, max_size=25))
    def test_any_mutation_sequence_matches_linear_scan(self, ops):
        vrfs = [mk_vrf("red", 1, 100), mk_vrf("blue", 2, 200)]
        models = [{}, {}]
        local_gens = [0, 0]

        def remote(owner, pfx, pe, label):
            return advert(pfx, pe, label, origin_site=owner)

        def check_lookups():
            for number, (v, m) in enumerate(zip(vrfs, models)):
                for value in QUERIES:
                    got = v.lookup(IPv4Address(value))
                    assert got == _oracle(m, value)
                    # C5: whatever a VRF answers with was installed into it.
                    assert got is None or got.origin_site == number

        for kind, owner, arg, *rest in ops:
            vrf, model = vrfs[owner], models[owner]
            before = [v.generation for v in vrfs]
            changed = local_only = False
            if kind == "add_local":
                local_only = arg not in model or model[arg].kind == "local"
                route = vrf.add_local(arg, f"ge{rest[0]}", origin_site=owner)
                assert route == VrfRoute(f"ge{rest[0]}", origin_site=owner)
                model[arg] = route
                changed = True
            elif kind == "add_remote_many":
                items = [(pfx, remote(owner, pfx, pe, label)) for pfx, pe, label in arg]
                assert vrf.add_remote_many(items) == len(items)
                model.update(items)
                changed = bool(items)
            elif kind == "withdraw":
                changed = arg in model
                local_only = changed and model[arg].kind == "local"
                assert vrf.withdraw(arg) is changed
                model.pop(arg, None)
            elif kind == "remove_many":
                present = {p for p in arg if p in model}
                local_only = bool(present) and all(model[p].kind == "local" for p in present)
                assert vrf.remove_many(arg) == len(present)
                for pfx in present:
                    del model[pfx]
                changed = bool(present)
            elif kind == "lookup":
                check_lookups()
            else:
                vrfs = pickle.loads(pickle.dumps(vrfs))
                local_gens = [0, 0]
            # One bump on the VRF that changed, none on its neighbour, none
            # for a lookup (its sync included) or a round trip.
            after = [v.generation for v in vrfs]
            before[owner] += changed
            assert after == before
            local_gens[owner] += local_only
            assert [v.local_generation for v in vrfs] == local_gens
            for v, m in zip(vrfs, models):
                assert len(v) == len(m)
                assert v.routes() == m
                locals_ = {p: r for p, r in m.items() if r.kind == "local"}
                assert v.local_routes() == locals_
                for i in range(4):
                    assert sorted(v.circuit_prefixes(f"ge{i}")) == sorted(
                        p for p, r in locals_.items() if r.out_ifname == f"ge{i}"
                    )
                for pfx in POOL:
                    assert (pfx in v.prefixes()) == (pfx in m)
        check_lookups()

    def test_add_remote_many_installs_the_route_it_is_given(self):
        red, blue = mk_vrf("red", 1, 100), mk_vrf("blue", 2, 200)
        pfx = Prefix.parse("10.4.0.0/24")
        shared = advert(pfx, 9, 300, origin_site=4)
        for vrf in (red, blue):
            assert vrf.add_remote_many([(pfx, shared)]) == 1
        assert red.lookup(pfx.first) is shared and blue.lookup(pfx.first) is shared


class TestPeRouter:
    def _pe(self):
        net = Network()
        pe = net.add_node(PeRouter(net.sim, "pe"))
        core = net.add_node(Lsr(net.sim, "p"))
        ce = net.add_node(Lsr(net.sim, "ce"), loopback=False)
        net.connect(pe, core)
        net.connect(pe, ce)
        return net, pe, core, ce

    def test_add_vrf_installs_vpn_label(self):
        net, pe, core, ce = self._pe()
        rt = RouteTarget(65000, 1)
        vrf = pe.add_vrf("v1", RouteDistinguisher(65000, 1), {rt}, {rt})
        entry = pe.lfib.lookup(vrf.vpn_label)
        assert entry.op is LabelOp.VPN and entry.vrf == "v1"

    def test_duplicate_vrf_rejected(self):
        net, pe, core, ce = self._pe()
        rt = RouteTarget(65000, 1)
        pe.add_vrf("v1", RouteDistinguisher(65000, 1), {rt}, {rt})
        with pytest.raises(ValueError):
            pe.add_vrf("v1", RouteDistinguisher(65000, 2), {rt}, {rt})

    def test_bind_circuit_moves_subnet_out_of_igp(self):
        net, pe, core, ce = self._pe()
        rt = RouteTarget(65000, 1)
        pe.add_vrf("v1", RouteDistinguisher(65000, 1), {rt}, {rt})
        access_subnet = next(
            s for s, ifn in pe.connected_prefixes.items() if ifn == "to-ce"
        )
        pe.bind_circuit("to-ce", "v1")
        assert access_subnet not in pe.connected_prefixes
        assert pe.vrfs["v1"].lookup(access_subnet.first) is not None
        assert pe.vrf_of_circuit("to-ce") is pe.vrfs["v1"]

    def test_bind_unknown_interface_rejected(self):
        net, pe, core, ce = self._pe()
        rt = RouteTarget(65000, 1)
        pe.add_vrf("v1", RouteDistinguisher(65000, 1), {rt}, {rt})
        with pytest.raises(ValueError):
            pe.bind_circuit("nope", "v1")

    def test_customer_packet_without_route_dropped(self):
        net, pe, core, ce = self._pe()
        rt = RouteTarget(65000, 1)
        pe.add_vrf("v1", RouteDistinguisher(65000, 1), {rt}, {rt})
        pe.bind_circuit("to-ce", "v1")
        p = Packet(ip=IPHeader(IPv4Address.parse("10.1.0.1"),
                               IPv4Address.parse("10.99.0.1")), payload_bytes=50)
        pe.handle(p, "to-ce")
        assert pe.stats.by_reason == {"no_vrf_route": 1}

    def test_remote_route_without_tunnel_dropped(self):
        net, pe, core, ce = self._pe()
        rt = RouteTarget(65000, 1)
        vrf = pe.add_vrf("v1", RouteDistinguisher(65000, 1), {rt}, {rt})
        pe.bind_circuit("to-ce", "v1")
        route = advert("10.2.0.0/24", "172.16.0.99", 300)
        vrf.add_remote_many([(route.prefix, route)])
        p = Packet(ip=IPHeader(IPv4Address.parse("10.1.0.1"),
                               IPv4Address.parse("10.2.0.1")), payload_bytes=50)
        pe.handle(p, "to-ce")
        assert pe.stats.by_reason == {"no_tunnel": 1}


def two_pe_network(seed=5):
    """pe1 - p - pe2 line with one VPN, two sites, converged."""
    net = Network(seed=seed)
    pe1 = net.add_node(PeRouter(net.sim, "pe1"))
    p = net.add_node(Lsr(net.sim, "p"))
    pe2 = net.add_node(PeRouter(net.sim, "pe2"))
    net.connect(pe1, p); net.connect(p, pe2)
    prov = VpnProvisioner(net)
    vpn = prov.create_vpn("corp")
    s1 = prov.add_site(vpn, pe1, prefix="10.1.0.0/24")
    s2 = prov.add_site(vpn, pe2, prefix="10.2.0.0/24")
    converge(net)
    run_ldp(net)
    return net, prov, vpn, s1, s2


class TestMpBgp:
    def test_full_mesh_counts(self):
        net, prov, vpn, s1, s2 = two_pe_network()
        res = prov.converge_bgp()
        assert res.sessions == 1
        assert res.routes_exported == 4      # 2 per site (prefix + access /30)
        assert res.updates_sent == 4         # each export to the 1 peer
        assert res.routes_imported == 4

    def test_rt_policy_gates_import(self):
        net, prov, vpn, s1, s2 = two_pe_network()
        # Break import policy on pe2's VRF: no routes should arrive.
        vrf2 = s2.pe.vrfs["corp"]
        vrf2.import_rts = frozenset({RouteTarget(65000, 999)})
        res = prov.converge_bgp()
        assert all(r.kind == "local" for r in vrf2.routes().values())

    def test_next_hop_is_pe_loopback(self):
        net, prov, vpn, s1, s2 = two_pe_network()
        res = prov.converge_bgp()
        route = s2.pe.vrfs["corp"].lookup(IPv4Address.parse("10.1.0.5"))
        assert route.kind == "remote"
        assert route.remote_pe == s1.pe.loopback

    def test_vpn_label_matches_origin_vrf(self):
        net, prov, vpn, s1, s2 = two_pe_network()
        prov.converge_bgp()
        route = s2.pe.vrfs["corp"].lookup(IPv4Address.parse("10.1.0.5"))
        assert route.vpn_label == s1.pe.vrfs["corp"].vpn_label

    def test_route_reflector_sessions(self):
        net = Network()
        pes = [net.add_node(PeRouter(net.sim, f"pe{i}")) for i in range(4)]
        for pe in pes:
            pass  # no links needed for session counting
        bgp_fm = MpBgp(net, pes)
        assert bgp_fm.session_count() == 6
        bgp_rr = MpBgp(net, pes, route_reflector="pe0")
        assert bgp_rr.session_count() == 3

    def test_rr_must_be_a_pe(self):
        net = Network()
        pes = [net.add_node(PeRouter(net.sim, f"pe{i}")) for i in range(2)]
        with pytest.raises(ValueError):
            MpBgp(net, pes, route_reflector="nope")

    def test_empty_pes_rejected(self):
        with pytest.raises(ValueError):
            MpBgp(Network(), [])


class TestProvisionerEndToEnd:
    def test_vpn_data_path(self):
        net, prov, vpn, s1, s2 = two_pe_network()
        prov.converge_bgp()
        h1, h2 = s1.hosts[0], s2.hosts[0]
        got = []
        h2.add_local_sink(got.append)
        p = Packet(ip=IPHeader(h1.loopback, h2.loopback), payload_bytes=100)
        net.sim.schedule(0.0, lambda: h1.send(p))
        net.run(until=1.0)
        assert len(got) == 1

    def test_label_stack_on_core_link(self):
        """Capture the packet mid-core: two labels, VPN label innermost."""
        net, prov, vpn, s1, s2 = two_pe_network()
        prov.converge_bgp()
        h1, h2 = s1.hosts[0], s2.hosts[0]
        seen = []
        p_node = net.node("p")
        orig = p_node.handle
        def spy(pk, ifn):
            seen.append([e.label for e in pk.mpls_stack])
            orig(pk, ifn)
        p_node.handle = spy
        net.sim.schedule(0.0, lambda: h1.send(
            Packet(ip=IPHeader(h1.loopback, h2.loopback), payload_bytes=10)))
        net.run(until=1.0)
        assert seen and len(seen[0]) == 2
        assert seen[0][0] == s2.pe.vrfs["corp"].vpn_label  # bottom of stack

    def test_exp_mapping_from_customer_dscp(self):
        net, prov, vpn, s1, s2 = two_pe_network()
        prov.converge_bgp()
        h1, h2 = s1.hosts[0], s2.hosts[0]
        seen = []
        p_node = net.node("p")
        orig = p_node.handle
        def spy(pk, ifn):
            seen.append([(e.label, e.exp) for e in pk.mpls_stack])
            orig(pk, ifn)
        p_node.handle = spy
        net.sim.schedule(0.0, lambda: h1.send(
            Packet(ip=IPHeader(h1.loopback, h2.loopback, dscp=46), payload_bytes=10)))
        net.run(until=1.0)
        assert all(exp == 5 for _lbl, exp in seen[0])

    def test_same_pe_two_sites_local_switch(self):
        """Two sites of one VPN on one PE talk without touching the core."""
        net = Network()
        pe = net.add_node(PeRouter(net.sim, "pe"))
        p = net.add_node(Lsr(net.sim, "p"))
        net.connect(pe, p)
        prov = VpnProvisioner(net)
        vpn = prov.create_vpn("corp")
        s1 = prov.add_site(vpn, pe, prefix="10.1.0.0/24")
        s2 = prov.add_site(vpn, pe, prefix="10.2.0.0/24")
        converge_all(net, prov)
        h1, h2 = s1.hosts[0], s2.hosts[0]
        got = []
        h2.add_local_sink(got.append)
        net.sim.schedule(0.0, lambda: h1.send(
            Packet(ip=IPHeader(h1.loopback, h2.loopback), payload_bytes=10)))
        net.run(until=1.0)
        assert len(got) == 1
        assert p.stats.rx_packets == 0  # never left the PE

    def test_census(self):
        net, prov, vpn, s1, s2 = two_pe_network()
        prov.converge_bgp()
        census = prov.state_census()
        assert census["sites"] == 2
        assert census["pes"] == 2
        assert census["vrfs"] == 2
        assert census["bgp_sessions"] == 1

    def test_site_prefix_autocarving(self):
        net = Network()
        pe = net.add_node(PeRouter(net.sim, "pe"))
        prov = VpnProvisioner(net)
        vpn = prov.create_vpn("corp")
        a = prov.add_site(vpn, pe, num_hosts=0)
        b = prov.add_site(vpn, pe, num_hosts=0)
        assert a.prefix != b.prefix
        assert vpn.supernet.contains_prefix(a.prefix)

    def test_duplicate_vpn_rejected(self):
        prov = VpnProvisioner(Network())
        prov.create_vpn("x")
        with pytest.raises(ValueError):
            prov.create_vpn("x")

    def test_ce_is_customer_domain(self):
        net, prov, vpn, s1, s2 = two_pe_network()
        assert s1.ce.domain == "customer"
        # Core routers know nothing about customer prefixes.
        assert net.node("p").fib.lookup(IPv4Address.parse("10.1.0.5")) is None
