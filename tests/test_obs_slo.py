"""Live SLO engine: verdict identity, windowed conformance, telemetry.

The load-bearing contract is that the streaming engine's end-of-run
verdict — computed without retaining a single raw sample — is identical
to the batch oracle's on the seeded experiments, component flag by
component flag.  The windowed state on top (first violation, violation
seconds) is exercised with synthetic streams where the right answer is
known exactly.
"""

import json
import math

import pytest

from repro.metrics.probes import ProbeAgent
from repro.metrics.sla import VOICE_SLA, SlaSpec, evaluate
from repro.obs import runtime
from repro.obs.schema import validate_manifest
from repro.obs.slo import SloEngine, SloStream
from repro.sim.engine import Simulator


@pytest.fixture(autouse=True)
def _clean_runtime():
    runtime.reset()
    yield
    runtime.reset()


# ----------------------------------------------------------------------
# Verdict identity on E5: the acceptance criterion.


@pytest.mark.parametrize("stage", ["full", "none"])
def test_e5_streaming_verdict_identical_to_batch(stage):
    from repro.experiments.e5_sla import run_stage

    result = run_stage(stage, measure_s=2.0, streaming=True)
    for flow, batch_key in (("voice", "voice_sla"), ("data", "data_sla")):
        live = result["slo"][flow]
        batch = result[batch_key]
        assert live.conformant == batch.conformant, (stage, flow)
        # Not just the top-line bit: every component flag agrees.
        assert live.delay_ok == batch.delay_ok
        assert live.jitter_ok == batch.jitter_ok
        assert live.loss_ok == batch.loss_ok
        assert live.throughput_ok == batch.throughput_ok


def test_e5_class_streams_follow_vrf_mapping():
    from repro.experiments.e5_sla import run_stage

    result = run_stage("full", measure_s=2.0, streaming=True)
    engine = result["slo"]["engine"]
    # corp hosts see EF voice + AF data + BE bulk; the other VPN only bg.
    assert set(engine.classes) >= {("corp", "EF"), ("corp", "AF"),
                                   ("corp", "BE"), ("other", "BE")}
    assert engine.classes[("corp", "EF")].count == engine.flows["voice"].count
    assert engine.classes[("other", "BE")].count == engine.flows["bg"].count


# ----------------------------------------------------------------------
# Windowed conformance on synthetic streams.


def synthetic_stream(spec, window_s=0.5):
    return SloStream("syn", spec, window_s=window_s)


def test_window_delay_violation_sets_first_violation_timestamp():
    spec = SlaSpec("tight", max_p99_delay_s=0.010)
    s = synthetic_stream(spec)
    # Window [0, 0.5): all packets in budget.
    for i in range(10):
        s.observe(0.05 * i, 0.005, seq=i, wire_bytes=100)
    # Window [0.5, 1.0): every packet over budget.
    for i in range(10, 20):
        s.observe(0.05 * i, 0.020, seq=i, wire_bytes=100)
    s.observe(1.01, 0.005, seq=20, wire_bytes=100)  # closes both
    s.finalize()
    assert s.first_violation_s == 0.5
    assert s.violation_seconds == pytest.approx(0.5)
    assert s.worst_window["metrics"] == ["delay"]


def test_empty_window_counts_as_outage_when_loss_committed():
    spec = SlaSpec("lossy", max_loss_ratio=0.01)
    s = synthetic_stream(spec)
    for i in range(10):
        s.observe(0.05 * i, 0.001, seq=i, wire_bytes=100)
    # One second of silence (an outage), then traffic resumes.
    for i in range(10, 15):
        s.observe(1.5 + 0.05 * (i - 10), 0.001, seq=i + 50, wire_bytes=100)
    s.finalize()
    # Windows [0.5,1.0) and [1.0,1.5) were empty → two violated windows.
    assert s.violation_seconds == pytest.approx(1.0)
    assert s.first_violation_s == 0.5
    assert "loss" in s.worst_window["metrics"]


def test_trailing_silence_after_last_packet_is_not_an_outage():
    spec = SlaSpec("lossy", max_loss_ratio=0.01)
    s = synthetic_stream(spec)
    for i in range(10):
        s.observe(0.05 * i, 0.001, seq=i, wire_bytes=100)
    s.finalize()  # engine-style finalize: no `now`
    assert s.violation_seconds == 0.0
    assert s.first_violation_s is None


def test_inband_loss_from_sequence_gaps():
    s = synthetic_stream(None)
    for i, seq in enumerate([0, 1, 2, 5, 6, 7, 8, 9]):  # 3..4 lost
        s.observe(0.01 * i, 0.001, seq=seq, wire_bytes=100)
    assert s.inband_loss_ratio() == pytest.approx(2 / 10)


# ----------------------------------------------------------------------
# NaN consistency: empty streams answer like the batch path.


def test_empty_stream_stats_nan_semantics():
    engine = SloEngine(Simulator())
    stats = engine.stats("ghost", sent=7)
    assert math.isnan(stats.p99_delay_s)
    assert math.isnan(stats.mean_delay_s)
    assert math.isnan(stats.jitter_rfc3550_s)
    assert stats.loss_ratio == 1.0
    assert stats.throughput_bps == 0.0
    # NaN delay on a bounded metric fails the SLA, exactly like the oracle.
    verdict = evaluate(VOICE_SLA, stats)
    assert not verdict.conformant and not verdict.delay_ok


def test_probe_agent_delay_percentile_nan_guards():
    from repro.topology import Network, attach_host, build_line

    net = Network(seed=9)
    routers = build_line(net, 2, rate_bps=10e6)
    tx = attach_host(net, routers[0], "10.88.0.1", name="tx")
    rx = attach_host(net, routers[1], "10.88.0.2", name="rx")
    from repro.routing import converge

    converge(net)
    probe = ProbeAgent(net.sim, tx, rx, "10.88.0.1", "10.88.0.2")
    # Never started: no probes arrived — NaN, not an exception.
    assert math.isnan(probe.delay_percentile(50))
    probe.start(0.0, stop_at=1.0)
    net.run(until=1.5)
    assert probe.delay_percentile(50) > 0.0
    assert math.isnan(probe.delay_percentile(101))
    assert math.isnan(probe.delay_percentile(-1))


# ----------------------------------------------------------------------
# Telemetry wiring: manifest flags, SLO summary, cache gauges.


def test_manifest_records_obs_runtime_flags_and_slo_summary():
    from repro.experiments.e5_sla import run_stage
    from repro.obs.telemetry import Telemetry

    runtime.enable(profile=False)
    runtime.set_slo(True)
    result = run_stage("full", measure_s=1.0, streaming=False)
    session = result["net"].telemetry
    assert isinstance(session, Telemetry)
    assert session.slo is not None  # runtime switch attached an engine
    manifest = session.manifest()
    assert validate_manifest(manifest) == []
    flags = manifest["obs_runtime"]
    assert set(flags) == {"vector_mode", "slo", "spans"}
    assert flags["slo"] is True and flags["spans"] is False
    assert manifest["slo"]["delivered"] > 0
    assert manifest["spans"] is None
    json.dumps(manifest)  # JSON-able end to end


def test_manifest_without_slo_is_still_valid():
    from repro.experiments.e2_qos import run_config

    runtime.enable(profile=False)
    result = run_config("mpls-diffserv", measure_s=0.5)
    manifest = result["net"].telemetry.manifest()
    assert validate_manifest(manifest) == []
    assert manifest["obs_runtime"]["slo"] is False
    assert manifest["slo"] is None


def test_scrape_exports_cache_and_slo_metrics():
    from repro.experiments.e5_sla import run_stage

    runtime.enable(profile=False)
    runtime.set_slo(True)
    result = run_stage("full", measure_s=1.0)
    snap = result["net"].telemetry.scrape().snapshot()
    assert {"repro_cache_hits", "repro_cache_misses",
            "repro_cache_entries"} <= set(snap)
    assert {"repro_slo_received_packets",
            "repro_slo_p99_delay_seconds"} <= set(snap)
    cache_series = snap["repro_cache_hits"]["series"]
    assert any(s["labels"].get("cache") == "flow" for s in cache_series)
    assert any(s["value"] > 0 for s in cache_series)
    slo_series = snap["repro_slo_received_packets"]["series"]
    assert any(s["labels"]["stream"] == "voice" and s["value"] > 0
               for s in slo_series)
