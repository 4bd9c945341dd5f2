"""Integration tests: miniature runs of every experiment, asserting the
qualitative *shape* each paper claim predicts (see DESIGN.md §3).

These use shorter measurement windows than the benchmarks; the assertions
are about orderings and ratios, not absolute numbers, so they are robust
to the reduced run length.
"""

import pytest

from repro.experiments.e1_scalability import mpls_base, mpls_census, overlay_census, run_e1
from repro.experiments.e2_qos import run_config as e2_config
from repro.experiments.e3_forwarding import run_e3
from repro.experiments.e4_ipsec import run_ipsec_config, run_mpls_config
from repro.experiments.e5_sla import run_stage
from repro.experiments.e6_te import run_config as e6_config
from repro.experiments.e7_isolation import build_overlap_scenario, run_e7
from repro.experiments.e8_mixed import run_e8
from repro.experiments.e9_ablations import (
    run_e9a_schedulers,
    run_e9c_exp_php,
    run_e9d_stack_overhead,
    run_e9e_ibgp,
)
from repro.mpls.lfib import LabelOp, LfibEntry


class TestE1Scalability:
    def test_overlay_matches_paper_formula(self):
        """§2.1: 10 sites -> 45 VCs."""
        census = overlay_census(10)
        assert census["circuits"] == 45
        assert census["formula"] == 45

    def test_overlay_quadratic_growth(self):
        c10 = overlay_census(10)
        c40 = overlay_census(40)
        # 4x sites -> ~16x circuits and state.
        assert c40["circuits"] / c10["circuits"] == pytest.approx(
            (40 * 39) / (10 * 9)
        )
        assert c40["state_total"] > 10 * c10["state_total"]

    def test_mpls_linear_growth(self):
        m10 = mpls_census(10)
        m40 = mpls_census(40)
        # 4x sites -> ~4x VRF routes, not 16x.
        ratio = m40["vrf_routes_total"] / m10["vrf_routes_total"]
        assert ratio == pytest.approx(4.0, rel=0.3)

    def test_core_has_zero_per_vpn_state(self):
        m = mpls_census(20)
        assert m["core_per_vpn_state"] == 0
        assert m["core_ldp_state"] > 0  # shared transport state exists

    def test_core_per_vpn_state_is_measured(self):
        ctx = mpls_base(10)
        ctx["nodes"]["P1"].lfib.install(9999, LfibEntry(LabelOp.VPN, vrf="corp"))
        assert mpls_census(10, prebuilt=ctx)["core_per_vpn_state"] == 1

    def test_ldp_cost_independent_of_sites(self):
        """The LSP mesh is shared: loopback-FEC LDP cost does not grow with
        customer count (access FECs are customer-side, not in the core IGP)."""
        m10, m40 = mpls_census(10), mpls_census(40)
        assert m10["ldp_sessions"] == m40["ldp_sessions"]

    def test_run_e1_rows(self):
        rows, raw = run_e1(site_counts=(10, 20))
        assert len(rows) == 2
        assert rows[0]["overlay_VCs"] == 45
        assert rows[1]["overlay_VCs"] == 190


class TestE2Qos:
    @pytest.fixture(scope="class")
    def results(self):
        return {
            cfg: e2_config(cfg, measure_s=3.0)
            for cfg in ("ip-fifo", "mpls-diffserv")
        }

    def test_fifo_hurts_voice(self, results):
        voice = results["ip-fifo"]["voice"]
        assert voice.loss_ratio > 0.05
        assert voice.p99_delay_s > 0.05

    def test_mpls_diffserv_protects_voice(self, results):
        voice = results["mpls-diffserv"]["voice"]
        assert voice.loss_ratio == 0.0
        assert voice.p99_delay_s < 0.03

    def test_voice_improvement_order_of_magnitude(self, results):
        fifo = results["ip-fifo"]["voice"].p99_delay_s
        mpls = results["mpls-diffserv"]["voice"].p99_delay_s
        assert fifo / mpls > 5

    def test_bulk_pays_the_price(self, results):
        """Protecting EF/AF must come out of BE, not out of thin air."""
        assert (
            results["mpls-diffserv"]["bulk"].loss_ratio
            >= results["ip-fifo"]["bulk"].loss_ratio
        )

    def test_mpls_path_is_labeled(self, results):
        net = results["mpls-diffserv"]["net"]
        assert net.nodes["r1"].lfib.lookups > 0


class TestE3Forwarding:
    def test_label_lookup_beats_lpm(self):
        rows, _ = run_e3(table_sizes=(1000,), n_lookups=3000)
        assert rows[0]["speedup"] > 2.0

    def test_lpm_degrades_with_table_size_relative_to_label(self):
        rows, _ = run_e3(table_sizes=(100, 20000), n_lookups=3000)
        # The exact-match advantage must remain large at provider-scale
        # tables.  (Wall-clock micro-timing is noisy under a loaded test
        # runner, so assert the magnitude, not a cross-run ratio.)
        assert rows[1]["speedup"] > 3.0


class TestE4Ipsec:
    @pytest.fixture(scope="class")
    def results(self):
        return {
            "blind": run_ipsec_config(copy_dscp=False, measure_s=3.0),
            "copy": run_ipsec_config(copy_dscp=True, measure_s=3.0),
            "mpls": run_mpls_config(measure_s=3.0),
        }

    def test_blind_tunnel_erases_qos(self, results):
        """Claim C3: encrypted tunnel without DSCP copy kills the EF class."""
        assert results["blind"]["voice"].loss_ratio > 0.1

    def test_copy_out_restores_qos(self, results):
        assert results["copy"]["voice"].loss_ratio == 0.0

    def test_mpls_vpn_preserves_qos(self, results):
        assert results["mpls"]["voice"].loss_ratio == 0.0
        assert results["mpls"]["voice"].p99_delay_s < 0.05

    def test_mpls_overhead_smaller(self, results):
        assert results["mpls"]["voice_overhead_bytes"] < results["blind"]["voice_overhead_bytes"]

    def test_ipsec_pays_ike(self, results):
        assert results["blind"]["ike_messages"] == 18
        assert results["mpls"]["ike_messages"] == 0


class TestE5Sla:
    @pytest.fixture(scope="class")
    def stages(self):
        return {s: run_stage(s, measure_s=3.0) for s in
                ("none", "cbq-only", "core-only", "full")}

    def test_full_chain_passes_both_slas(self, stages):
        assert stages["full"]["voice_sla"].conformant
        assert stages["full"]["data_sla"].conformant

    def test_no_qos_fails_voice(self, stages):
        assert not stages["none"]["voice_sla"].conformant

    def test_partial_chains_insufficient(self, stages):
        assert not stages["cbq-only"]["voice_sla"].conformant
        assert not stages["core-only"]["voice_sla"].conformant

    def test_monotone_improvement_for_voice_loss(self, stages):
        assert (
            stages["full"]["voice"].loss_ratio
            <= stages["cbq-only"]["voice"].loss_ratio
            <= stages["none"]["voice"].loss_ratio
        )


class TestE6TrafficEngineering:
    @pytest.fixture(scope="class")
    def results(self):
        return {
            "sp": e6_config(use_te=False, measure_s=3.0),
            "te": e6_config(use_te=True, measure_s=3.0),
            "fail": e6_config(use_te=True, measure_s=3.0, fail_link=True),
        }

    def test_shortest_path_congests(self, results):
        losses = [f.loss_ratio for f in results["sp"]["flows"]]
        assert max(losses) > 0.2

    def test_te_eliminates_loss(self, results):
        assert all(f.loss_ratio < 0.01 for f in results["te"]["flows"])

    def test_te_spreads_load(self, results):
        assert results["sp"]["util_top"] == pytest.approx(0.0, abs=0.01)
        assert results["te"]["util_top"] > 0.2
        assert results["te"]["util_bottom"] < results["sp"]["util_bottom"]

    def test_te_raises_aggregate_goodput(self, results):
        assert (
            results["te"]["aggregate_goodput_bps"]
            > 1.1 * results["sp"]["aggregate_goodput_bps"]
        )

    def test_link_failure_reroutes_admitted_tunnels(self, results):
        flows = results["fail"]["flows"]
        admitted = [f for f, p in zip(flows, results["fail"]["paths"])
                    if p != ["rejected"]]
        rejected = [f for f, p in zip(flows, results["fail"]["paths"])
                    if p == ["rejected"]]
        assert len(admitted) == 2 and len(rejected) == 1
        assert all(f.loss_ratio < 0.01 for f in admitted)
        for p in results["fail"]["paths"]:
            assert "G" not in p or "H" not in p or p == ["rejected"]

    def test_shortest_path_after_a_cut_follows_the_reported_path(self):
        # Without TE the cut G-H is followed by the IGP and LDP: the row's
        # path is the one the packets take, and they are delivered over it.
        result = e6_config(use_te=False, measure_s=1.0, fail_link=True)
        path = result["paths"][0]
        assert path == ["A", "B", "C", "D", "E", "F"]
        util = result["net"].link_utilization(1.3)
        assert all(util[f"{u}->{v}"] > 0.2 for u, v in zip(path, path[1:]))
        assert result["util_bottom"] == 0.0
        assert max(f.loss_ratio for f in result["flows"]) < 1.0
        assert result["aggregate_goodput_bps"] > 0.8 * 10e6


class TestE7Isolation:
    def test_zero_cross_vpn_leakage(self):
        rows, raw = run_e7(measure_s=1.5)
        for row in rows:
            assert row["delivered_cross"] == 0

    def test_full_intra_vpn_delivery(self):
        rows, raw = run_e7(measure_s=1.5)
        for row in rows:
            assert row["intra_ratio"] == pytest.approx(1.0)

    def test_extranet_requires_rt_import(self):
        """Without the RT import, green cannot reach red at all."""
        ctx = build_overlap_scenario(seed=62, extranet=False)
        sites = ctx["sites"]
        # green doesn't exist; instead verify blue cannot reach red's
        # prefix *via its own VRF* even though the address exists there.
        blue_pe = sites["blue", 1].pe
        vrf = blue_pe.vrfs["blue"]
        red_vrf = blue_pe.vrfs["red"]
        # Same destination address resolves per-VRF to different targets.
        from repro.net.address import IPv4Address
        dst = IPv4Address.parse("10.0.2.10")
        blue_route = vrf.lookup(dst)
        red_route = red_vrf.lookup(dst)
        assert blue_route.vpn_label != red_route.vpn_label


class TestE8Mixed:
    @pytest.fixture(scope="class")
    def results(self):
        rows, raw = run_e8(measure_s=1.5)
        return rows, raw

    def test_both_paths_deliver(self, results):
        rows, _ = results
        for row in rows:
            assert row["recv"] == row["sent"]

    def test_mixed_mode_labels_one_path_only(self, results):
        _, raw = results
        census = raw["mixed"]["census"]
        assert census["m1.label_lookups"] > 0     # path 1 labeled
        assert census["n2.ip_lookups"] > 0        # path 2 plain IP
        assert census["n2.label_lookups"] == 0

    def test_upgrade_moves_path2_onto_labels(self, results):
        _, raw = results
        census = raw["all-mpls"]["census"]
        assert census["n2.label_lookups"] > 0
        assert census["n2.ip_lookups"] == 0


class TestE9Ablations:
    def test_schedulers_shape(self):
        rows, raw = run_e9a_schedulers(measure_s=2.0)
        by = {r["scheduler"]: r for r in rows}
        assert by["fifo"]["voice_loss%"] > 5
        for kind in ("priority", "wfq"):
            assert by[kind]["voice_loss%"] == 0.0
            assert by[kind]["voice_p99_ms"] < by["fifo"]["voice_p99_ms"] / 3

    def test_exp_php_hole(self):
        rows, raw = run_e9c_exp_php(measure_s=2.0)
        by = {r["variant"]: r for r in rows}
        assert by["outer-only+php"]["voice_loss%"] > 5
        assert by["both+php"]["voice_loss%"] == 0.0
        assert by["outer-only+explicit-null"]["voice_loss%"] == 0.0

    def test_stack_overhead_monotone(self):
        rows, _ = run_e9d_stack_overhead()
        effs = [r["eff_160B"] for r in rows]
        assert effs == sorted(effs, reverse=True)
        assert rows[0]["hdr_bytes"] == 20 and rows[3]["hdr_bytes"] == 32

    def test_ibgp_sessions_vs_updates(self):
        rows, _ = run_e9e_ibgp(pe_counts=(4, 8), sites_per_pe=2)
        by = {(r["pes"], r["topology"]): r for r in rows}
        assert by[(8, "full-mesh")]["sessions"] == 28
        assert by[(8, "route-reflector")]["sessions"] == 7
        assert (
            by[(8, "full-mesh")]["updates"]
            == by[(8, "route-reflector")]["updates"]
        )
        assert (
            by[(8, "full-mesh")]["routes_imported"]
            == by[(8, "route-reflector")]["routes_imported"]
        )


class TestE10InterAs:
    def test_cross_provider_sla_and_isolation(self):
        from repro.experiments.e10_interas import run_e10
        rows, summary = run_e10(measure_s=2.0)
        assert summary["voice_sla"].conformant
        assert summary["cross_customer_leaks"] == 0
        assert summary["routes_exchanged_over_border"] > 0
        assert summary["voice"].loss_ratio == 0.0

    def test_bulk_still_congests(self):
        """QoS protects voice *because* the path is congested."""
        from repro.experiments.e10_interas import run_e10
        rows, summary = run_e10(measure_s=2.0)
        assert summary["bulk"].loss_ratio > 0.05


class TestE11Resilience:
    def test_outage_tracks_recovery_delay(self):
        from repro.experiments.e11_resilience import run_variant
        slow = run_variant("igp", "igp", 2.0, measure_s=5.0)
        fast = run_variant("frr", "frr", 0.05, measure_s=5.0)
        assert slow["outage_s"] == pytest.approx(2.0, rel=0.2)
        assert fast["outage_s"] < 0.2
        assert fast["received"] > slow["received"]

    def test_igp_recovery_actually_restores(self):
        from repro.experiments.e11_resilience import run_variant
        r = run_variant("igp", "igp", 1.0, measure_s=6.0)
        # Traffic after recovery flows: loss bounded by the outage window.
        expected_lost = 1.0 * (2e6 / ((500 + 20) * 8))
        assert r["lost"] == pytest.approx(expected_lost, rel=0.2)


class TestE12Elastic:
    def test_red_cuts_standing_queue(self):
        from repro.experiments.e12_elastic import run_e12a_aqm
        rows, raw = run_e12a_aqm(duration_s=8.0)
        by = {r["aqm"]: r for r in rows}
        assert by["red"]["p50_delay_ms"] < by["droptail"]["p50_delay_ms"]
        assert by["droptail"]["utilization%"] > 80

    def test_wfq_protects_voice_from_adaptive_flows(self):
        from repro.experiments.e12_elastic import run_e12b_voice_vs_elastic
        rows, raw = run_e12b_voice_vs_elastic(duration_s=8.0)
        by = {r["scheduler"]: r for r in rows}
        assert by["wfq"]["voice_loss%"] == 0.0
        assert by["wfq"]["voice_p95_ms"] < by["fifo"]["voice_p95_ms"]
        # The elastic flows adapt around the voice class, not vice versa.
        assert by["wfq"]["elastic_goodput_kbps"] > 3000


class TestE9fLlsp:
    def test_llsp_matches_elsp_qos_at_3x_state(self):
        from repro.experiments.e9_ablations import run_e9f_elsp_llsp
        rows, raw = run_e9f_elsp_llsp(measure_s=2.0)
        by = {r["model"]: r for r in rows}
        assert by["l-lsp"]["voice_loss%"] == 0.0
        assert by["e-lsp"]["voice_loss%"] == 0.0
        assert by["l-lsp"]["labels_in_use"] == 3 * by["e-lsp"]["labels_in_use"]

    def test_llsp_class_really_comes_from_label(self):
        """With EXP forced to 0, only the label map can protect voice."""
        from repro.experiments.e9_ablations import run_e9f_elsp_llsp
        rows, raw = run_e9f_elsp_llsp(measure_s=2.0)
        net = raw["l-lsp"]["net"]
        # All imposed EXP are zero yet voice was protected.
        from repro.mpls import Lsr
        assert all(
            lsr.impose_exp == 0
            for lsr in net.nodes.values()
            if isinstance(lsr, Lsr)
        )
        assert raw["l-lsp"]["voice"].loss_ratio == 0.0


class TestE13Tiers:
    def test_tier_determines_outcome_for_identical_workloads(self):
        from repro.experiments.e13_tiers import run_e13
        rows, raw = run_e13(measure_s=3.0)
        assert raw["gold"].loss_ratio == 0.0
        assert raw["silver"].loss_ratio == 0.0
        assert raw["bronze"].loss_ratio > 0.05
        assert raw["gold"].p99_delay_s <= raw["silver"].p99_delay_s

    def test_over_contract_gold_is_policed(self):
        from repro.experiments.e13_tiers import run_e13
        from repro.vpn.profiles import GOLD
        rows, raw = run_e13(measure_s=3.0)
        # Greedy gold offered 3x CIR but the EF class only carried ~CIR.
        assert raw["gold-greedy"].throughput_bps < 2.5 * GOLD.cir_bps
        # And the in-contract gold customer never noticed.
        assert raw["gold"].loss_ratio == 0.0
        assert raw["gold"].p99_delay_s < 0.05


class TestE14IntServ:
    def test_equal_quality_unequal_cost(self):
        from repro.experiments.e14_intserv import run_e14
        rows, raw = run_e14(flow_counts=(4, 16), measure_s=2.0)
        by = {(r["arch"], r["flows"]): r for r in rows}
        for n in (4, 16):
            assert by[("intserv", n)]["voice_loss%"] == 0.0
            assert by[("diffserv", n)]["voice_loss%"] == 0.0
        assert (
            by[("intserv", 16)]["core_state/router"]
            == 4 * by[("intserv", 4)]["core_state/router"]
        )
        assert (
            by[("diffserv", 16)]["core_state/router"]
            == by[("diffserv", 4)]["core_state/router"]
        )

    def test_intserv_refresh_cost_is_perpetual(self):
        from repro.experiments.e14_intserv import run_architecture
        r = run_architecture("intserv", 8, measure_s=1.0)
        assert r["refresh_msgs_per_30s"] == r["setup_messages"]
        d = run_architecture("diffserv", 8, measure_s=1.0)
        assert d["refresh_msgs_per_30s"] == 0


class TestE2LoadSweep:
    def test_crossover_shape(self):
        from repro.experiments.e2_qos import run_e2_load_sweep
        rows, raw = run_e2_load_sweep(loads=(0.5, 1.5), measure_s=2.0)
        by = {(r["config"], r["offered_load"]): r for r in rows}
        assert by[("ip-fifo", 1.5)]["voice_p99_ms"] > \
            5 * by[("ip-fifo", 0.5)]["voice_p99_ms"]
        assert by[("mpls-diffserv", 1.5)]["voice_p99_ms"] < \
            1.5 * by[("mpls-diffserv", 0.5)]["voice_p99_ms"]
