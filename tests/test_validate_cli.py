"""Tests for the validation sweep and the CLI."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.experiments.common import ExperimentRun
from repro.mpls import Lsr, run_ldp
from repro.mpls.lfib import LabelOp, LfibEntry, Nhlfe
from repro.net.link import Interface
from repro.qos.queues import DropTailFifo
from repro.routing import converge
from repro.topology import Network, build_backbone
from repro.validate import Issue, validate
from repro.vpn import PeRouter, VpnProvisioner


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
    converge(net)
    run_ldp(net)
    prov.converge_bgp()
    return net, nodes


class TestValidate:
    def test_clean_network_has_no_errors(self):
        net, _ = provisioned_network()
        errors = [i for i in validate(net) if i.severity == "error"]
        assert errors == []

    def test_unattached_interface_flagged(self):
        net, nodes = provisioned_network()
        lone = Interface(net.sim, nodes["P1"], "dangling", 1e6, DropTailFifo())
        nodes["P1"].add_interface(lone)
        issues = validate(net)
        assert any("no attached link" in i.message for i in issues)

    def test_rate_zeroed_behind_the_setter_flagged(self):
        net, nodes = provisioned_network()
        iface = next(iter(nodes["P1"].interfaces.values()))
        iface._rate_bps = 0.0  # the setter and constructor refuse this
        issues = validate(net)
        assert any("non-positive rate" in i.message for i in issues)

    def test_duplicate_core_address_flagged(self):
        net, nodes = provisioned_network()
        nodes["P1"].add_address("172.16.0.1", "")
        nodes["P2"].add_address("172.16.0.1", "")
        issues = validate(net)
        assert any("also on" in i.message for i in issues)

    def test_lfib_to_missing_interface_flagged(self):
        net, nodes = provisioned_network()
        nodes["P1"].lfib.install(
            9999, LfibEntry(LabelOp.SWAP, out_label=10, out_ifname="ghost")
        )
        issues = validate(net)
        assert any("missing" in i.message and "9999" in i.message for i in issues)

    def test_vpn_label_unknown_vrf_flagged(self):
        net, nodes = provisioned_network()
        nodes["E1"].lfib.install(9998, LfibEntry(LabelOp.VPN, vrf="ghost-vrf"))
        issues = validate(net)
        assert any("unknown VRF" in i.message for i in issues)

    def test_ftn_to_missing_interface_flagged(self):
        net, nodes = provisioned_network()
        nodes["P1"].ftn.bind("9.9.9.0/24", Nhlfe("ghost", (17,)))
        issues = validate(net)
        assert any("FTN" in i.message for i in issues)

    def test_empty_vrf_warns(self):
        net, nodes = provisioned_network()
        from repro.vpn.rd_rt import RouteDistinguisher, RouteTarget
        rt = RouteTarget(65000, 99)
        nodes["E2"].add_vrf("empty", RouteDistinguisher(65000, 99), {rt}, {rt})
        issues = validate(net)
        warnings = [i for i in issues if i.severity == "warning"]
        assert any("no circuits" in i.message for i in warnings)

    def test_errors_sort_first(self):
        net, nodes = provisioned_network()
        from repro.vpn.rd_rt import RouteDistinguisher, RouteTarget
        rt = RouteTarget(65000, 99)
        nodes["E2"].add_vrf("empty", RouteDistinguisher(65000, 99), {rt}, {rt})
        nodes["P1"].ftn.bind("9.9.9.0/24", Nhlfe("ghost", (17,)))
        issues = validate(net)
        severities = [i.severity for i in issues]
        assert severities == sorted(severities, key=lambda s: s != "error")

    def test_issue_str(self):
        i = Issue("error", "r1", "boom")
        assert str(i) == "[error] r1: boom"


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


class TestValidateExperimentNetworks:
    """Every experiment's provisioned network must pass the sweep clean —
    the harness itself should never rely on misconfiguration."""

    def test_e5_full_stage_clean(self):
        from repro.experiments.e5_sla import _build
        net = _build("full", seed=41)["net"]
        assert [i for i in validate(net) if i.severity == "error"] == []

    def test_e10_two_providers_clean(self):
        from repro.experiments.e10_interas import build_two_providers
        net = build_two_providers(seed=101, qos=False)["net"]
        assert [i for i in validate(net) if i.severity == "error"] == []

    def test_e7_overlap_scenario_clean(self):
        from repro.experiments.e7_isolation import build_overlap_scenario
        net = build_overlap_scenario(seed=61, extranet=True)["net"]
        assert [i for i in validate(net) if i.severity == "error"] == []
