"""Tests for the Telemetry session, runtime switch, manifest schema, CLI."""

import json

import pytest

from repro.cli import main
from repro.obs import runtime
from repro.obs.schema import validate_manifest
from repro.obs.telemetry import SCHEMA_ID, Telemetry, TelemetryAttachError
from repro.topology import Network

from tests.test_vpn import two_pe_network


@pytest.fixture(autouse=True)
def _clean_runtime():
    runtime.reset()
    yield
    runtime.reset()


def vpn_run():
    net, prov, vpn, s1, s2 = two_pe_network()
    tel = Telemetry(net, sample_every=4)
    prov.converge_bgp()
    h1, h2 = s1.hosts[0], s2.hosts[0]
    from repro.net.packet import IPHeader, Packet
    for seq in range(5):
        pkt = Packet(ip=IPHeader(h1.loopback, h2.loopback, dscp=46),
                     payload_bytes=100, flow="f1", seq=seq)
        net.sim.schedule(seq * 0.01, lambda p=pkt: h1.send(p))
    net.run(until=1.0)
    return net, tel


class TestRuntimeSwitch:
    def test_disabled_by_default(self):
        assert not runtime.is_enabled()
        assert Network().telemetry is None

    def test_enable_attaches_sessions(self):
        runtime.enable(sample_every=8)
        net = Network()
        assert net.telemetry is not None
        assert net.trace.flight is net.telemetry.flight
        assert net.trace.flows is net.telemetry.flows
        assert net.telemetry.profiler.attached
        assert runtime.sessions() == [net.telemetry]

    def test_disable_stops_new_attachments(self):
        runtime.enable()
        n1 = Network()
        runtime.disable()
        n2 = Network()
        assert n1.telemetry is not None and n2.telemetry is None
        assert len(runtime.sessions()) == 1

    def test_reset_detaches(self):
        runtime.enable()
        net = Network()
        runtime.reset()
        assert net.trace.flight is None
        assert not net.telemetry.profiler.attached
        assert runtime.sessions() == []

    @pytest.mark.parametrize("options, error, named", [
        ({"flight_capcity": 1024}, TypeError, "flight_capcity"),
        ({"flight_capacity": 0}, ValueError, "flight_capacity"),
        ({"sample_every": 0}, ValueError, "sample_every"),
    ])
    def test_enable_rejects_bad_options_up_front(self, options, error, named):
        with pytest.raises(error, match=named):
            runtime.enable(**options)
        assert not runtime.is_enabled()
        assert Network().telemetry is None and runtime.sessions() == []


class TestOneSessionPerNetwork:
    @pytest.mark.parametrize("profile", [True, False])
    def test_second_session_is_refused_before_wiring(self, profile):
        net, prov, vpn, s1, s2 = two_pe_network()
        first = Telemetry(net, profile=profile)
        with pytest.raises(TelemetryAttachError, match="trace.flight"):
            Telemetry(net, profile=profile, slo=True, spans=True)
        # The network is untouched: the first session's collectors are
        # still the wired ones and nothing of the second's was attached.
        assert net.trace.flight is first.flight and net.trace.flows is first.flows
        assert net.trace.slo is None and not net.trace.active("link.down")
        assert first.profiler is None or first.profiler.attached
        prov.converge_bgp()
        h1, h2 = s1.hosts[0], s2.hosts[0]
        from repro.net.packet import IPHeader, Packet
        pkt = Packet(ip=IPHeader(h1.loopback, h2.loopback), payload_bytes=100,
                     flow="f1", seq=0)
        net.sim.schedule(0.0, lambda: h1.send(pkt))
        net.run(until=1.0)
        assert first.flight.path_of("f1")[-1].event == "deliver"
        first.detach()
        assert net.trace.flight is None and net.trace.flows is None
        assert net.sim._profile_hook is None

    def test_foreign_profiler_is_refused_before_wiring(self):
        from repro.obs.profiler import KernelProfiler
        net = Network()
        prof = KernelProfiler(net.sim).attach()
        with pytest.raises(TelemetryAttachError, match="profiler"):
            Telemetry(net)
        assert net.trace.flight is None and net.trace.flows is None
        assert prof.attached
        # Without its own profiler the session does not collide.
        Telemetry(net, profile=False).detach()


class TestManifest:
    def test_manifest_validates_against_schema(self):
        net, tel = vpn_run()
        m = tel.manifest(config={"experiment": "unit"})
        assert validate_manifest(m) == []
        assert m["schema"] == SCHEMA_ID and m["kind"] == "run"
        assert m["seed"] == 5  # two_pe_network default
        assert m["sim"]["nodes"] == len(net.nodes)
        json.dumps(m)  # fully serialisable

    def test_manifest_carries_all_sections(self):
        net, tel = vpn_run()
        m = tel.manifest()
        assert m["metrics"]["repro_node_rx_packets"]["series"]
        assert m["profile"]["events"] > 0
        assert any(k["events"] > 0 for k in m["profile"]["kinds"])
        assert m["flows"], "VPN traffic must produce flow-accounting rows"
        assert m["flight"]["recorded_total"] > 0
        assert m["git_rev"] is None or len(m["git_rev"]) == 40

    def test_scrape_is_idempotent(self):
        net, tel = vpn_run()
        a = tel.scrape().snapshot()
        b = tel.scrape().snapshot()
        assert a == b

    def test_class_families_have_a_series_per_class_queue(self):
        """A FIFO and a shaper are their own one class; a classful
        discipline's class queues are labelled by name, an unnamed one by
        its index."""
        from repro.qos.queues import DropTailFifo, PriorityScheduler
        from repro.qos.shaper import TokenBucketShaper
        net = Network(seed=1)
        for name in ("a", "b", "c"):
            net.add_router(name)
        net.connect("a", "b", 10e6, 1e-3)
        net.connect("b", "c", 10e6, 1e-3)
        net.node("a").interfaces["to-b"].qdisc = PriorityScheduler(
            [DropTailFifo(name="EF"), DropTailFifo()], lambda pkt: 0)
        net.node("b").interfaces["to-c"].qdisc = TokenBucketShaper(1e6, 1500)
        tel = Telemetry(net)
        series = tel.scrape().snapshot()["repro_class_enqueued_packets"]["series"]
        got = {(s["labels"]["node"], s["labels"]["iface"], s["labels"]["cls"])
               for s in series}
        assert got == {("a", "to-b", "EF"), ("a", "to-b", "class1"),
                       ("b", "to-a", "fifo"), ("b", "to-c", "shaper"),
                       ("c", "to-b", "fifo")}

    def test_drop_reasons_in_metrics(self):
        net, tel = vpn_run()
        from repro.net.address import IPv4Address
        from repro.net.drops import DropReason
        from repro.net.packet import IPHeader, Packet
        pkt = Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2)),
                     payload_bytes=10)
        net.node("pe1").drop(pkt, DropReason.TTL)
        snap = tel.scrape().snapshot()
        series = snap["repro_node_dropped_packets"]["series"]
        assert {"node": "pe1", "reason": "ttl"} in [s["labels"] for s in series]

    def test_prometheus_export_of_scrape(self):
        net, tel = vpn_run()
        tel.scrape()
        text = tel.registry.to_prometheus()
        assert 'repro_node_rx_packets{node="p"}' in text
        assert "# TYPE repro_iface_tx_bytes gauge" in text

    def test_write_creates_valid_json_file(self, tmp_path):
        net, tel = vpn_run()
        path = tel.write(tmp_path / "run.json")
        doc = json.loads(path.read_text())
        assert validate_manifest(doc) == []


class TestExperimentRunManifest:
    def test_none_when_disabled(self):
        from repro.experiments.common import ExperimentRun
        run = ExperimentRun(net=Network())
        assert run.manifest() is None

    def test_harness_config_folded_in(self):
        from repro.experiments.common import ExperimentRun
        runtime.enable()
        run = ExperimentRun(net=Network(), warmup_s=0.1, measure_s=0.2)
        m = run.manifest(config={"experiment": "x"})
        assert validate_manifest(m) == []
        assert m["config"]["warmup_s"] == 0.1
        assert m["config"]["experiment"] == "x"


class TestSchemaRejections:
    def test_not_a_dict(self):
        assert validate_manifest([1, 2]) != []

    def test_wrong_schema_id(self):
        net, tel = vpn_run()
        m = tel.manifest()
        m["schema"] = "bogus/v9"
        assert any("schema" in e for e in validate_manifest(m))

    def test_unknown_kind(self):
        assert any("kind" in e
                   for e in validate_manifest({"schema": SCHEMA_ID, "kind": "x"}))

    def test_missing_sections_reported(self):
        errs = validate_manifest({"schema": SCHEMA_ID, "kind": "run"})
        joined = "\n".join(errs)
        for key in ("sim", "metrics", "flows", "flight"):
            assert key in joined

    def test_bad_series_labels_reported(self):
        net, tel = vpn_run()
        m = tel.manifest()
        m["metrics"]["repro_node_rx_packets"]["series"][0]["labels"] = {"bad": "x"}
        assert any("label" in e for e in validate_manifest(m))

    def test_runtime_flag_of_an_older_writer_accepted(self):
        # Bundles written before the qdisc counters switch was removed
        # carry a fourth flag; `repro telemetry` must still read them.
        net, tel = vpn_run()
        m = tel.manifest()
        m["obs_runtime"]["packet_counters"] = True
        assert validate_manifest(m) == []

    def test_missing_runtime_flag_reported(self):
        net, tel = vpn_run()
        m = tel.manifest()
        del m["obs_runtime"]["spans"]
        assert any("obs_runtime" in e for e in validate_manifest(m))

    def test_bundle_validation(self):
        net, tel = vpn_run()
        good = {"schema": SCHEMA_ID, "kind": "bundle", "experiments": ["e2"],
                "options": {}, "runs": [tel.manifest()]}
        assert validate_manifest(good) == []
        bad = dict(good, runs=[{"kind": "nope"}])
        assert validate_manifest(bad) != []


class TestCli:
    def test_run_with_telemetry_writes_bundle(self, tmp_path, capsys):
        out = tmp_path / "e2.json"
        rc = main(["run", "e2", "--measure", "0.5", "--telemetry", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_manifest(doc) == []
        assert doc["kind"] == "bundle" and doc["experiments"] == ["e2"]
        assert len(doc["runs"]) >= 1
        assert all(r["config"]["experiment"] == "e2" for r in doc["runs"])
        # The switch is reset afterwards: later networks are untelemetered.
        assert Network().telemetry is None
        assert "telemetry" in capsys.readouterr().out

    def test_telemetry_subcommand_renders_bundle(self, tmp_path, capsys):
        out = tmp_path / "e2.json"
        main(["run", "e2", "--measure", "0.5", "--telemetry", str(out)])
        capsys.readouterr()
        rc = main(["telemetry", str(out), "--flows"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "runs" in printed
        assert "e2" in printed
        assert "hottest event kinds" in printed

    def test_telemetry_subcommand_rejects_invalid(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": "x", "kind": "run"}))
        rc = main(["telemetry", str(p)])
        assert rc == 1
        assert "not a valid telemetry document" in capsys.readouterr().out

    def test_run_without_flag_records_nothing(self, capsys):
        rc = main(["run", "e3"])
        assert rc == 0
        assert runtime.sessions() == []
