"""Tests for the network auditor (``repro.audit``) and the CLI."""

import pytest

from repro.audit import Finding, audit
from repro.cli import EXPERIMENTS, build_parser, main
from repro.control import converge_all
from repro.experiments.common import ExperimentRun
from repro.mpls import Lsr, run_ldp
from repro.mpls.lfib import LabelOp, LfibEntry, Nhlfe
from repro.net.link import Interface
from repro.net.address import IPv4Address, Prefix
from repro.qos.queues import DropTailFifo
from repro.routing import converge, reconverge
from repro.routing.fib import RouteEntry
from repro.sim.snapshot import restore_network, save, snapshot_network
from repro.topology import Network, build_backbone, build_line
from repro.vpn import PeRouter, VpnProvisioner
from repro.vpn.vrf import Vrf
from tests.test_state_budget import build_section_b


def provisioned_network():
    net = Network(seed=5)

    def factory(n, name):
        cls = PeRouter if name.startswith("E") else Lsr
        return n.add_node(cls(n.sim, name))

    nodes = build_backbone(net, node_factory=factory)
    prov = VpnProvisioner(net)
    vpn = prov.create_vpn("v")
    prov.add_site(vpn, nodes["E1"])
    prov.add_site(vpn, nodes["E8"])
    converge_all(net, prov)
    return net, nodes


def _e5_run():
    """E5's full chain after a short run: warm caches, looked-up tables."""
    from repro.experiments.e5_sla import _build, run_stage

    ctx = _build("full", seed=41)
    run_stage("full", seed=41, measure_s=0.3, prebuilt=ctx)
    return ctx


def _e5_after_run():
    return _e5_run()["net"]


class TestValidate:
    """Each rule of ``audit``, fired by one planted defect."""

    def test_clean_network_has_no_errors(self):
        net, _ = provisioned_network()
        errors = [f for f in audit(net) if f.severity == "error"]
        assert errors == []

    def test_unattached_interface_flagged(self):
        net, nodes = provisioned_network()
        lone = Interface(net.sim, nodes["P1"], "dangling", 1e6, DropTailFifo())
        nodes["P1"].add_interface(lone)
        findings = audit(net)
        assert any("no attached link" in f.message for f in findings)

    def test_rate_zeroed_behind_the_setter_flagged(self):
        net, nodes = provisioned_network()
        iface = next(iter(nodes["P1"].interfaces.values()))
        iface._rate_bps = 0.0  # the setter and constructor refuse this
        findings = audit(net)
        assert any("non-positive rate" in f.message for f in findings)

    def test_duplicate_core_address_flagged(self):
        net, nodes = provisioned_network()
        nodes["P1"].add_address("172.16.0.1", "")
        nodes["P2"].add_address("172.16.0.1", "")
        findings = audit(net)
        assert any("also on" in f.message for f in findings)

    def test_duplicate_address_in_a_non_core_provider_domain_flagged(self):
        # E10's providers are the domains "core-a" and "core-b"; an audit
        # that checks only "core" never looks at them.
        from repro.experiments.e10_interas import build_two_providers

        ctx = build_two_providers(seed=101, qos=False)
        ctx["nodes"]["p-a"].add_address("172.16.0.1", "")
        ctx["nodes"]["pe-a"].add_address("172.16.0.1", "")
        found = [f for f in audit(ctx["net"]) if f.check == "address"]
        assert [(f.severity, f.node) for f in found] == [("error", "p-a")]
        assert "core-a address 172.16.0.1 also on pe-a" in found[0].message

    def test_same_address_in_two_provider_domains_is_legal(self):
        from repro.experiments.e10_interas import build_two_providers

        ctx = build_two_providers(seed=101, qos=False)
        ctx["nodes"]["p-a"].add_address("192.0.2.1", "")
        ctx["nodes"]["p-b"].add_address("192.0.2.1", "")
        assert [f for f in audit(ctx["net"]) if f.check == "address"] == []

    def test_lfib_to_missing_interface_flagged(self):
        net, nodes = provisioned_network()
        nodes["P1"].lfib.install(
            9999, LfibEntry(LabelOp.SWAP, out_label=10, out_ifname="ghost")
        )
        findings = audit(net)
        assert any("missing" in f.message and "9999" in f.message for f in findings)

    def test_vpn_label_unknown_vrf_flagged(self):
        net, nodes = provisioned_network()
        nodes["E1"].lfib.install(9998, LfibEntry(LabelOp.VPN, vrf="ghost-vrf"))
        findings = audit(net)
        assert any("unknown VRF" in f.message for f in findings)

    def test_vrf_label_on_a_core_lsr_is_a_c1_error_not_an_unknown_vrf(self):
        net, nodes = provisioned_network()
        nodes["P1"].lfib.install(9997, LfibEntry(LabelOp.VPN, vrf="v"))
        found = [f for f in audit(net) if f.node == "P1" and f.severity == "error"]
        assert [f.check for f in found] == ["c1"]
        assert "9997" in found[0].message

    def test_vrf_held_by_a_core_lsr_is_a_c1_error(self):
        net, nodes = provisioned_network()
        nodes["P2"].vrfs = dict(nodes["E1"].vrfs)
        found = [f for f in audit(net) if f.check == "c1"]
        assert [(f.node, f.message) for f in found] == [("P2", "non-PE holds VRF 'v'")]

    def test_ftn_to_missing_interface_flagged(self):
        net, nodes = provisioned_network()
        nodes["P1"].ftn.bind("9.9.9.0/24", Nhlfe("ghost", (17,)))
        findings = audit(net)
        assert any("FTN" in f.message for f in findings)

    def test_empty_vrf_warns(self):
        net, nodes = provisioned_network()
        from repro.vpn.rd_rt import RouteDistinguisher, RouteTarget
        rt = RouteTarget(65000, 99)
        nodes["E2"].add_vrf("empty", RouteDistinguisher(65000, 99), {rt}, {rt})
        findings = audit(net)
        warnings = [f for f in findings if f.severity == "warning"]
        assert any("no circuits" in f.message for f in warnings)

    def test_errors_sort_first(self):
        net, nodes = provisioned_network()
        from repro.vpn.rd_rt import RouteDistinguisher, RouteTarget
        rt = RouteTarget(65000, 99)
        nodes["E2"].add_vrf("empty", RouteDistinguisher(65000, 99), {rt}, {rt})
        nodes["P1"].ftn.bind("9.9.9.0/24", Nhlfe("ghost", (17,)))
        findings = audit(net)
        rank = {"error": 0, "warning": 1, "note": 2}
        keys = [(rank[f.severity], f.node) for f in findings]
        assert keys == sorted(keys)
        assert {f.severity for f in findings} == set(rank)

    def test_trailing_cache_capture_is_a_note(self):
        net, nodes = provisioned_network()
        # E1 decides one VPN packet toward the E8 site: a VRF cache filled.
        vrf = next(iter(nodes["E1"].vrfs.values()))
        remote = next(p for p, r in vrf.entries().items() if r.kind != "local")
        assert nodes["E1"].pipeline._vrf_lookup(vrf, IPv4Address(remote[0]))[1]
        for node in net.nodes.values():
            pipe = getattr(node, "pipeline", None)
            if pipe is not None:
                for cache in (pipe.flow_cache, *pipe.vrf_caches.values()):
                    cache.sync()
        assert audit(net) == []
        # A binding the caches have not seen yet: E1's flow cache and its
        # VRF cache both read the FTN second.
        nodes["E1"].ftn.bind("9.9.9.0/24", Nhlfe(next(iter(nodes["E1"].interfaces)), (17,)))
        found = audit(net)
        assert [(f.severity, f.check, f.node) for f in found] == [("note", "cache", "E1")] * 2
        assert found[0].message.startswith("flow_cache captured secondary gen")
        assert found[1].message.startswith(f"vrf[{vrf.name}] captured secondary gen")

    def test_route_key_that_lost_its_type_is_a_keys_error(self):
        # A plain (network, length) tuple hashes and compares like the
        # Prefix it spells, so the table takes it; the type is gone, and
        # the first trie build would fail on it far from the cause.
        net, nodes = provisioned_network()
        nodes["P1"].fib.install_many([((0x0A090000, 16), RouteEntry("to-P2"))])
        assert nodes["P1"].fib.get(Prefix(0x0A090000, 16)) == RouteEntry("to-P2")
        for graph in (net, restore_network(snapshot_network(net))[0]):
            found = [f for f in audit(graph) if f.check == "keys"]
            assert [(f.severity, f.node) for f in found] == [("error", "P1")]
            assert found[0].message == (
                "FIB: 1 key(s) not a Prefix, e.g. (168361984, 16) (tuple)"
            )

    def test_engine_keys_that_lost_their_type_are_keys_errors(self):
        net, nodes = provisioned_network()
        prov = VpnProvisioner(net)
        vpn = prov.create_vpn("w")
        prov.add_site(vpn, nodes["E2"], num_hosts=0)
        prov.add_site(vpn, nodes["E3"], num_hosts=0)
        bgp = prov.bgp_engine()
        prov.converge_bgp()
        assert [f for f in audit(net, bgp) if f.check == "keys"] == []
        index = bgp._rt_index
        index[tuple(vpn.rt)] = index.pop(vpn.rt)
        rib = bgp._rib["E2", "w"]
        prefix = next(iter(rib))
        rib[tuple(prefix)] = rib.pop(prefix)
        found = [f for f in audit(net, bgp) if f.check == "keys"]
        assert [(f.severity, f.node) for f in found] == [("error", "mp-bgp")] * 2
        assert [f.message.split(":")[0] for f in found] == ["Adj-RIB-Out of E2/w", "RT index"]
        assert audit(net) == audit(net, None)   # no engine, no engine findings

    @staticmethod
    def _engine_with_importers():
        net, nodes = provisioned_network()
        prov = VpnProvisioner(net)
        vpn = prov.create_vpn("w")
        for pe in ("E2", "E3"):
            prov.add_site(vpn, nodes[pe], num_hosts=0)
        bgp = prov.bgp_engine()
        prov.converge_bgp()
        bgp.importers()     # built, as the first delta would
        assert [f for f in audit(net, bgp) if f.check == "importers"] == []
        return net, nodes, vpn, bgp

    def test_importer_entry_for_a_vrf_its_pe_no_longer_holds_flagged(self):
        net, nodes, vpn, bgp = self._engine_with_importers()
        vrf = nodes["E2"].vrfs["w"]
        bgp.importers()[vpn.rt]["E2", "w"] = Vrf("w", vrf.rd, vrf.import_rts, vrf.export_rts, 99)
        found = [(f.severity, f.check, f.node, f.message) for f in audit(net, bgp)
                 if f.check == "importers"]
        assert found == [
            ("error", "importers", "mp-bgp",
             f"importers of {vpn.rt} list E2/w, not a VRF of E2 importing it"),
            ("error", "importers", "mp-bgp", f"importers of {vpn.rt} miss E2/w, which imports it"),
        ]

    def test_importer_entry_under_an_rt_the_vrf_no_longer_imports_flagged(self):
        """A policy assigned by hand is read by the next converge(): until
        then the index files the VRF under what it imported."""
        net, nodes, vpn, bgp = self._engine_with_importers()
        nodes["E3"].vrfs["w"].import_rts = frozenset()
        found = [f.message for f in audit(net, bgp) if f.check == "importers"]
        assert found == [f"importers of {vpn.rt} list E3/w, not a VRF of E3 importing it"]
        bgp.converge()
        assert [f for f in audit(net, bgp) if f.check == "importers"] == []

    def test_synced_vrf_missing_from_the_importer_index_flagged(self):
        net, nodes, vpn, bgp = self._engine_with_importers()
        del bgp.importers()[vpn.rt]["E3", "w"]
        found = [(f.severity, f.message) for f in audit(net, bgp) if f.check == "importers"]
        assert found == [("error", f"importers of {vpn.rt} miss E3/w, which imports it")]

    @staticmethod
    def _engine_with_imports():
        """VPNs w and x on E2 and E3, one provisioner, converged: each VRF
        holds the other PE's two advertisements (site and access /30)."""
        net, nodes = provisioned_network()
        prov = VpnProvisioner(net)
        for name in ("w", "x"):
            vpn = prov.create_vpn(name)
            for pe in ("E2", "E3"):
                prov.add_site(vpn, nodes[pe], num_hosts=0)
        bgp = prov.bgp_engine()
        prov.converge_bgp()
        assert TestValidate._imports(net, bgp) == []
        return net, nodes, bgp

    @staticmethod
    def _imports(net, bgp):
        return [(f.severity, f.node, f.message) for f in audit(net, bgp) if f.check == "imports"]

    @staticmethod
    def _remotes(vrf):
        return sorted((p, r) for p, r in vrf.routes().items() if r.kind == "remote")

    def test_import_the_adj_rib_out_does_not_hold_flagged(self):
        net, nodes, bgp = self._engine_with_imports()
        vrf = nodes["E3"].vrfs["w"]
        (prefix, route), (other, _) = self._remotes(vrf)
        vrf.add_remote_many([(prefix, route._replace(vpn_label=999))])
        assert self._imports(net, bgp) == [
            ("error", "E3", f"VRF w import of {prefix} from E2 is not in its Adj-RIB-Out")]
        # Installed under another prefix, the advertised object is wrong too.
        vrf.add_remote_many([(prefix, route), (other, route)])
        assert self._imports(net, bgp) == [
            ("error", "E3", f"VRF w import of {other} from E2 is not in its Adj-RIB-Out")]

    def test_import_across_a_drained_pe_flagged(self):
        net, nodes, bgp = self._engine_with_imports()
        held = {pe: self._remotes(nodes[pe].vrfs["w"]) for pe in ("E2", "E3")}
        bgp.peer_down("E2")
        assert self._imports(net, bgp) == []
        for pe, routes in held.items():   # put back behind the engine's back
            nodes[pe].vrfs["w"].add_remote_many(routes)
        assert self._imports(net, bgp) == [
            ("error", pe, f"VRF w import of {p} from {r.origin_pe} crosses a drained PE")
            for pe, routes in held.items() for p, r in routes
        ]

    def test_import_under_an_rt_the_vrf_does_not_import_flagged(self):
        net, nodes, bgp = self._engine_with_imports()
        vrf = nodes["E3"].vrfs["w"]
        prefix, route = self._remotes(nodes["E3"].vrfs["x"])[0]
        vrf.add_remote_many([(prefix, route)])
        error = ("error", "E3", f"VRF w import of {prefix} from E2 carries no RT the VRF imports")
        assert self._imports(net, bgp) == [error]
        # The rule reads the policy the engine acts on: one assigned by hand
        # counts from the converge() that reads it.
        vrf.import_rts = vrf.import_rts | route.route_targets
        assert self._imports(net, bgp) == [error]
        bgp.converge()
        assert self._imports(net, bgp) == []

    def test_igp_route_out_of_a_missing_interface_flagged(self):
        net, nodes = provisioned_network()
        prefix = Prefix.parse("10.77.0.0/24")
        nodes["P1"].fib.install(prefix, RouteEntry("to-nowhere", None, 1.0, "spf"))
        found = [f for f in audit(net) if f.check == "igp"]
        assert [(f.severity, f.node, f.message) for f in found] == [(
            "error", "P1", f"IGP route {prefix} leaves on missing interface 'to-nowhere'")]

    def test_igp_routes_a_flap_cut_are_errors_until_the_chain_follows(self):
        net = Network(seed=5)
        r0, r1, r2 = build_line(net, 3)
        converge(net)
        net.link_between("r1", "r2").set_up(False)
        found = [f for f in audit(net) if f.severity == "error"]
        assert {f.check for f in found} == {"igp"}
        # r0 still sends toward r1 over a live link; r1 and r2 face the cut.
        assert {f.node for f in found} == {"r1", "r2"}
        assert (f"IGP route {Prefix.of(r2.loopback, 32)} leaves on 'to-r2', which is down"
                in [f.message for f in found if f.node == "r1"])
        converge_all(net)
        assert [f for f in audit(net) if f.severity == "error"] == []

    def test_converge_after_a_cut_withdraws_what_the_cut_made_stale(self):
        # converge is the diffing writer over every router, not an install
        # of what the routers should hold: the routes toward a router the
        # cut isolated leave, and reconverge after it has nothing to write.
        net = Network(seed=5)
        r0, r1, r2 = build_line(net, 3)
        converge(net)
        net.link_between("r1", "r2").set_up(False)
        converge(net)
        lo = Prefix.of(r2.loopback, 32)
        assert r0.fib.get(lo) is None and r1.fib.get(lo) is None
        assert [f for f in audit(net) if f.severity == "error"] == []
        assert reconverge(net) == 0

    def test_ldp_entry_off_the_igp_next_hop_flagged(self):
        net, nodes = provisioned_network()
        p1 = nodes["P1"]
        label, entry = next((label, e) for label, e in p1.lfib.entries().items()
                            if e.op is LabelOp.POP)
        other = next(name for name in p1.interfaces if name != entry.out_ifname)
        p1.lfib.install(label, LfibEntry(LabelOp.POP, out_ifname=other, lsp_id=entry.lsp_id))
        fec = entry.lsp_id[4:]
        found = [f for f in audit(net) if f.check == "ldp"]
        assert [(f.severity, f.node, f.message) for f in found] == [(
            "error", "P1", f"LDP label {label} for {fec} leaves on {other!r}, "
                           f"which the FIB route for {fec} does not use")]

    def test_ldp_swap_to_a_label_the_next_hop_does_not_hold_flagged(self):
        net, nodes = provisioned_network()
        node, label, entry = next(
            (node, label, e) for node in nodes.values()
            for label, e in node.lfib.entries().items() if e.op is LabelOp.SWAP)
        node.lfib.install(label, LfibEntry(LabelOp.SWAP, out_label=9999,
                                           out_ifname=entry.out_ifname, lsp_id=entry.lsp_id))
        fec, peer = entry.lsp_id[4:], node.interfaces[entry.out_ifname].link.dst_node.name
        found = [f for f in audit(net) if f.check == "ldp"]
        assert [(f.severity, f.node, f.message) for f in found] == [(
            "error", node.name, f"LDP label {label} for {fec} sends label 9999 to "
                                f"{peer}, which does not hold it for {fec}")]

    def test_ldp_entries_a_flap_moved_are_errors_until_ldp_follows(self):
        """After ``reconverge`` alone, exactly the LDP entries that differ
        from a fresh distribution on the flapped topology are reported; the
        ``run_ldp`` pass after it leaves the audit clean."""
        from repro.experiments.e1_scalability import mpls_base
        from tests.reference.routing import converge_reference, run_ldp_reference

        net = mpls_base(40)["net"]
        fresh = Network(seed=13)
        build_backbone(fresh, node_factory=lambda n, name: n.add_node(
            (PeRouter if name.startswith("E") else Lsr)(n.sim, name)))
        for graph in (net, fresh):
            graph.link_between("P1", "P2").set_up(False)
        converge_reference(fresh)
        run_ldp_reference(fresh)
        reconverge(net)

        def ldp_hops(graph):
            """(node, what, FEC) -> out interface of every LDP SWAP / POP / FTN entry."""
            hops = {}
            for node in graph.nodes.values():
                if isinstance(node, Lsr) and node.domain == "core":
                    for label, e in node.lfib.entries().items():
                        if e.op in (LabelOp.SWAP, LabelOp.POP):
                            hops[node.name, f"LDP label {label}", e.lsp_id[4:]] = e.out_ifname
                    for prefix, n in node.ftn.entries().items():
                        hops[node.name, "LDP FTN", str(prefix)] = n.out_ifname
            return hops

        # Label values differ between the two nets; the FEC and hop do not.
        want = {(node, fec): out for (node, _what, fec), out in ldp_hops(fresh).items()}
        stale = {(node, f"{what} for {fec}") for (node, what, fec), out in ldp_hops(net).items()
                 if want.get((node, fec)) != out}
        found = [f for f in audit(net) if f.severity == "error"]
        assert {f.check for f in found} == {"ldp"}
        assert {(f.node, f.message.split(" leaves on ")[0]) for f in found} == stale
        assert len(stale) == 20
        run_ldp(net)
        assert [f for f in audit(net) if f.severity == "error"] == []

    def test_finding_str(self):
        f = Finding("error", "c1", "r1", "boom")
        assert str(f) == "[error] r1: boom"

    def test_audit_is_read_only(self):
        # The warm-start sweep shares one live graph between tasks, so the
        # auditor may not look anything up, probe a cache or count.
        net = _e5_after_run()

        def state():
            tables, caches = [], []
            for node in net.nodes.values():
                for table in (getattr(node, "fib", None), getattr(node, "lfib", None)):
                    if table is not None:
                        tables.append((table.generation, table.lookups))
                if getattr(node, "ftn", None) is not None:
                    tables.append(node.ftn.generation)
                for vrf in getattr(node, "vrfs", {}).values():
                    tables.append((vrf.generation, vrf._fib.lookups))
                if getattr(node, "pipeline", None) is not None:
                    caches.append(node.pipeline.cache_stats())
            return net.counters.snapshot(), tables, caches

        before = state()
        assert sum(t[1] for t in before[1] if isinstance(t, tuple)) > 0
        audit(net)
        assert state() == before


class TestCli:
    def test_every_experiment_registered(self):
        assert set(EXPERIMENTS) == {f"e{i}" for i in range(1, 16)} | {"eh"}

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_e3(self, capsys):
        assert main(["run", "e3"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "finished" in out

    def test_run_e7_fast(self, capsys):
        assert main(["run", "e7", "--measure", "1"]) == 0
        out = capsys.readouterr().out
        assert "delivered_cross" in out

    def test_run_e1_custom_sites(self, capsys):
        assert main(["run", "e1", "--sites", "4", "8"]) == 0
        out = capsys.readouterr().out
        assert "overlay_VCs" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "e99"])

    @pytest.mark.parametrize("command", [["run", "e5"], ["sweep"], ["slo"]])
    @pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf"])
    def test_bad_measure_window_exits_2_naming_the_option(
        self, command, bad, capsys, monkeypatch
    ):
        built = []
        monkeypatch.setattr(
            Network, "__init__", lambda self, *a, **k: built.append(self)
        )
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--measure", bad])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--measure" in err and bad in err
        assert "Traceback" not in err
        assert not built

    @pytest.mark.parametrize("argv, flag", [
        (["run", "e1", "--sites"], "--sites"),
        (["sweep", "--grid", "e1", "--sites"], "--sites"),
        (["sweep", "--reps"], "--reps"),
        (["sweep", "--workers"], "--workers"),
    ])
    @pytest.mark.parametrize("bad", ["0", "-5"])
    def test_bad_count_exits_2_naming_the_option(
        self, argv, flag, bad, capsys, monkeypatch
    ):
        # Unchecked, --sites 0 ends in a traceback from vpn/bgp.py, --reps 0
        # runs an empty grid and exits 0, --workers 0 / -2 runs inline.
        built = []
        monkeypatch.setattr(
            Network, "__init__", lambda self, *a, **k: built.append(self)
        )
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, bad])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and bad in err
        assert "Traceback" not in err
        assert not built


class TestExperimentRunWindow:
    """The library entry point names the field; the CLI check above never
    lets a bad window get this far."""

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_measure_s_rejected(self, bad):
        with pytest.raises(ValueError, match="measure_s"):
            ExperimentRun(net=None, measure_s=bad)

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_bad_warmup_s_rejected(self, bad):
        with pytest.raises(ValueError, match="warmup_s"):
            ExperimentRun(net=None, warmup_s=bad)

    def test_zero_warmup_is_legal(self):
        assert ExperimentRun(net=None, warmup_s=0.0, measure_s=0.1).warmup_s == 0.0


def _e1():
    from repro.experiments.e1_scalability import mpls_base
    ctx = mpls_base(10)
    return ctx["net"], ctx["prov"].bgp_engine()


def _e5():
    ctx = _e5_run()
    return ctx["net"], ctx["prov"].bgp_engine()


def _e6():
    from repro.experiments.e6_te import build_fish_scenario
    return build_fish_scenario(seed=51)["net"], None


def _e7():
    from repro.experiments.e7_isolation import build_overlap_scenario
    ctx = build_overlap_scenario(seed=61, extranet=True)
    return ctx["net"], ctx["prov"].bgp_engine()


def _e10():
    from repro.experiments.e10_interas import build_two_providers
    return build_two_providers(seed=101, qos=False)["net"], None


def _e11():
    from repro.experiments.e11_resilience import _build
    return _build(seed=111)["net"], None


def _e15():
    # Removed sites must leave no LFIB / FTN entry or VRF circuit on an
    # interface that left with them.
    from repro.experiments.e1_scalability import mpls_base
    from repro.experiments.e15_churn import churn_storms
    ctx = mpls_base(40, seed=23)
    churn_storms(ctx, site_flaps=10, wave_sites=8, link_flaps=2)
    return ctx["net"], ctx["prov"].bgp_engine()


def _provision_b():
    """The ledger's provision_scale section B: 20 VPNs x 20 sites on one 10/8."""
    net, prov = build_section_b(20, 20)
    return net, prov.bgp_engine()


def _churn_base():
    """The ledger's churn_storm base (one big VPN and small VPNs, all on one
    10/8), after one op of each kind: a site flap, a PE drain and restore,
    a VPN wave and a core link flap."""
    net, prov = build_section_b(4, 20, seed=2)
    pes = [net.nodes[f"E{i}"] for i in range(1, 9)]
    big = prov.create_vpn("big", supernet="10.0.0.0/8")
    for i in range(40):
        prov.add_site(big, pes[i % len(pes)], num_hosts=0)
    bgp = prov.bgp_engine()
    prov.converge_bgp()
    site = big.sites[5]
    pe = site.pe
    prov.remove_site(site)
    prov.add_site(big, pe, prefix=site.prefix, num_hosts=0)
    bgp.export_delta(pe, pe.vrfs["big"])
    prov.drain_pe(pes[2])
    prov.restore_pe(pes[2])
    wave = prov.create_vpn("wave", supernet="172.16.0.0/12")
    for pe in pes[:6]:
        prov.add_site(wave, pe, num_hosts=0)
    prov.converge_bgp()
    prov.remove_vpn("wave")
    link = net.link_between("P1", "P2")
    link.set_up(False)
    reconverge(net, domain="core")
    link.set_up(True)
    reconverge(net, domain="core")
    assert prov.bgp_engine() is bgp
    return net, bgp


class TestValidateExperimentNetworks:
    """Every experiment's network audits clean, and a snapshot round trip
    leaves its findings identical — the harness itself should never rely
    on misconfiguration.  Where the build has an MP-BGP engine it is
    audited too, and imaged with the network."""

    @pytest.mark.parametrize(
        "build", [_e1, _e5, _e6, _e7, _e10, _e11, _e15, _provision_b, _churn_base],
        ids=["e1", "e5", "e6", "e7", "e10", "e11", "e15", "provision_b", "churn_base"],
    )
    def test_audits_clean_live_and_restored(self, build):
        net, bgp = build()
        if bgp is not None:
            bgp.importers()     # built, as the next delta would, for its rule
        findings = audit(net, bgp)
        assert [f for f in findings if f.severity == "error"] == []
        restored, extras = restore_network(snapshot_network(net, {"bgp": bgp}))
        assert audit(restored, extras["bgp"]) == findings
        if bgp is not None:
            # The image leaves the index out, and the auditor does not build it.
            assert extras["bgp"]._importers is None


class TestSnapshotCli:
    def test_restore_of_a_broken_image_exits_1_naming_the_entry(self, tmp_path, capsys):
        from repro.experiments.e5_sla import _build

        ctx = _build("full", seed=0)
        net = ctx.pop("net")
        net.nodes["p1"].lfib.install(
            9999, LfibEntry(LabelOp.SWAP, out_label=10, out_ifname="ghost")
        )
        path = str(tmp_path / "broken.snap")
        save(path, net, ctx)
        assert main(["snapshot", "restore", path]) == 1
        out = capsys.readouterr().out
        assert "1 error(s)" in out
        assert "[error] p1: LFIB label 9999 points to missing interface 'ghost'" in out

    def test_restore_of_the_e5_base_exits_0(self, tmp_path, capsys):
        path = str(tmp_path / "e5.snap")
        assert main(["snapshot", "save", path, "--base", "e5/full"]) == 0
        assert main(["snapshot", "restore", path]) == 0
        out = capsys.readouterr().out
        assert "[audit: 0 error(s), 0 warning(s)," in out
