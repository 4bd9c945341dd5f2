"""Convergence tracer: causal span chains under a scripted link flap.

The acceptance shape: cutting a link under the tracer yields one trace
whose spans are causally ordered (link.down first, control-plane repair
after the recovery delay, data-plane healing last), with the data-plane
healing time ≥ the control-plane time, and the whole chain exportable as
schema-valid JSONL.
"""

import json

import pytest

from repro.obs import runtime
from repro.obs.schema import validate_spans
from repro.obs.spans import SPAN_SCHEMA, ConvergenceTracer
from repro.routing.spf import reconverge
from repro.sim.trace import KINDS


def igp_flap(measure_s=4.0):
    from repro.experiments.e11_resilience import run_variant

    return run_variant("igp-tuned", "igp", 1.0, measure_s=measure_s,
                       trace_spans=True)


def test_igp_flap_produces_complete_causal_chain():
    result = igp_flap()
    spans = result["spans"]
    by_kind = {s.kind: s for s in spans}
    assert {"link.down", "spf.reconverge", "ldp.converge",
            "heal.first_packet"} <= set(by_kind)

    down = by_kind["link.down"]
    assert down.parent_id is None and down.t_start_s == pytest.approx(2.0)
    # Every other span is a child of the root, in one trace.
    for s in spans:
        if s is not down:
            assert s.parent_id == down.span_id
        assert s.trace_id == down.trace_id
        assert s.t_end_s >= s.t_start_s

    # Causality: failure < control-plane repair ≤ data-plane heal.
    spf = by_kind["spf.reconverge"]
    heal = by_kind["heal.first_packet"]
    assert down.t_start_s < spf.t_start_s  # repair came after the cut
    assert spf.t_start_s == pytest.approx(3.0)  # FAIL_AT + recovery delay
    assert spf.attrs["installs"] > 0
    assert heal.t_start_s == down.t_start_s  # heal span starts at the cut
    assert heal.t_end_s >= spf.t_end_s


def test_data_plane_healing_is_at_least_control_plane():
    result = igp_flap()
    (trace,) = result["tracer"].summary()["traces"]
    assert trace["event"] == "link.down" and trace["link"] == "G<->H"
    assert trace["cp_healing_s"] == pytest.approx(1.0)
    assert trace["dp_healing_s"] >= trace["cp_healing_s"]
    # The watch saw exactly one healing for the one flap.
    ((healing,),) = result["healing"]
    assert healing["dp_healing_s"] == pytest.approx(
        trace["dp_healing_s"], rel=1e-9
    )


def test_frr_flap_uses_frr_repair_span_and_heals_faster():
    from repro.experiments.e11_resilience import run_variant

    frr = run_variant("frr", "frr", 0.050, measure_s=4.0, trace_spans=True)
    kinds = {s.kind for s in frr["spans"]}
    assert "frr.repair" in kinds
    assert "spf.reconverge" not in kinds  # local repair, no global SPF
    (trace,) = frr["tracer"].summary()["traces"]
    assert trace["dp_healing_s"] >= trace["cp_healing_s"]

    igp = igp_flap()
    (igp_trace,) = igp["tracer"].summary()["traces"]
    # The paper's claim: FRR restores forwarding much faster than IGP.
    assert trace["dp_healing_s"] < igp_trace["dp_healing_s"] / 5


def test_healing_probe_stays_out_of_customer_accounting():
    result = igp_flap()
    # The healing probe flow never shows up in the sink's customer flows.
    heal_spans = [s for s in result["spans"] if s.kind == "heal.first_packet"]
    assert heal_spans[0].attrs["flow"].startswith("__heal")
    assert result["sent"] > 0  # probe accounting untouched by the watch


def test_span_docs_roundtrip_jsonl_and_validate(tmp_path):
    result = igp_flap()
    tracer = result["tracer"]
    docs = tracer.span_docs()
    assert validate_spans(docs) == []
    assert all(d["schema"] == SPAN_SCHEMA for d in docs)

    path = tmp_path / "spans.jsonl"
    n = tracer.to_jsonl(str(path))
    lines = path.read_text().splitlines()
    assert n == len(lines) == len(docs)
    assert [json.loads(line) for line in lines] == docs

    # The validator actually rejects malformed docs.
    bad = [dict(docs[0], t_end_s=docs[0]["t_start_s"] - 1.0)]
    assert validate_spans(bad)
    assert validate_spans([{"schema": "nope"}])


def test_default_run_has_no_tracer_and_identical_results():
    from repro.experiments.e11_resilience import run_variant

    plain = run_variant("igp-tuned", "igp", 1.0, measure_s=4.0)
    assert "tracer" not in plain and "spans" not in plain
    assert not any(plain["net"].trace.active(kind) for kind in KINDS)
    traced = igp_flap()
    # Healing probes ride the same network but must not perturb the
    # experiment's own loss accounting.
    assert traced["sent"] == plain["sent"]
    assert traced["received"] == plain["received"]


def test_duplex_link_event_deduplicated():
    """DuplexLink.set_up flips both simplex directions; one trace, not two."""
    result = igp_flap()
    tracer = result["tracer"]
    downs = [s for s in tracer.spans if s.kind == "link.down"]
    assert len(downs) == 1


def test_detach_unhooks_listener():
    from repro.experiments.e11_resilience import _build

    net = _build(seed=5)["net"]
    tracer = ConvergenceTracer(net).attach()
    assert net.trace.active("link.down") and net.trace.active("spf.reconverge")
    tracer.detach()
    tracer.detach()  # a second detach is a no-op
    assert not any(net.trace.active(kind) for kind in KINDS)
    net.link_between("G", "H").set_up(False)
    assert tracer.spans == []


def test_two_tracers_on_one_network_both_see_the_chain():
    """The telemetry session's tracer and E11's own share one network: each
    control-plane record reaches both, and detaching one leaves the other
    listening."""
    runtime.reset()
    runtime.enable()
    runtime.set_spans(True)
    try:
        result = igp_flap()
        (session,) = runtime.sessions()
        tracers = (session.tracer, result["tracer"])
        for tracer in tracers:
            kinds = {s.kind for s in tracer.spans}
            assert {"link.down", "spf.reconverge", "ldp.converge"} <= kinds
            (trace,) = tracer.summary()["traces"]
            assert trace["cp_healing_s"] == pytest.approx(1.0)

        net = result["net"]
        result["tracer"].detach()
        before = [len(t.spans) for t in tracers]
        net.link_between("G", "H").set_up(True)
        reconverge(net)
        assert len(result["tracer"].spans) == before[1]
        assert [s.kind for s in session.tracer.spans[before[0]:]] == [
            "link.up", "spf.reconverge"]
    finally:
        runtime.reset()
