"""Smoke test of the performance ledger (collected by ``pytest benchmarks``,
not by tier-1's ``testpaths = ["tests"]``).

Runs ``run.py --smoke`` — every workload at a twentieth of the size, two
repeats — and holds the result to the vocabulary in ``BENCHMARK.json``;
then shows in-process that a hook whose target is gone is skipped and
reported instead of breaking the run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


def test_result_uses_exactly_the_benchmark_vocabulary(smoke):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/ledger"]
    assert list(smoke["workloads"]) == [w["name"] for w in spec["workloads"]]
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    for doc in smoke["workloads"].values():
        assert list(doc["end_to_end"]) == e2e
        assert list(doc["per_layer"]) == layer
        for m in spec["end_to_end"]:
            got = doc["end_to_end"][m["name"]]
            # The file says what work_per_s counts; the contract line says 1/s.
            unit = f"{doc['work_unit']}/s" if m["name"] == "work_per_s" else m["unit"]
            assert (got["unit"], got["better"], got["bound"]) == (unit, m["better"], m["bound"])
            assert got["value"] > 0   # the contract: an end-to-end metric is never 0


def test_workload_specific_rows_are_gated_where_they_exist(smoke):
    rows = {name: set(doc["gated"]) for name, doc in smoke["workloads"].items()}
    assert rows.pop("churn_storm") == {"failed_share", "site_flap_p50_ms", "site_flap_p90_ms"}
    assert rows.pop("provision_scale") == {"failed_share", "state_bytes"}
    assert all(names == {"failed_share"} for names in rows.values())
    for doc in smoke["workloads"].values():
        assert doc["gated"]["failed_share"]["value"] == 0
    flaps = smoke["workloads"]["churn_storm"]["gated"]
    assert 0 < flaps["site_flap_p50_ms"]["value"] <= flaps["site_flap_p90_ms"]["value"]
    assert smoke["workloads"]["provision_scale"]["gated"]["state_bytes"]["value"] > 0


def test_outputs_are_correct_and_repeat_exactly(smoke):
    for name, doc in smoke["workloads"].items():
        assert doc["repeats"] == 2 and doc["traced_repeats"] == 1, name
        # Includes digest_equals_first_repeat, digest_equals_golden (the
        # default seed at smoke scale is in golden.json) and
        # traced_digest_equals_untraced.
        assert doc["failed"] == 0 and doc["attempted"] > 0, (name, doc["failed_checks"])
        assert doc["missing_hooks"] == [], name


def test_quiet_seconds_never_exceed_raw_seconds(smoke):
    for name, doc in smoke["workloads"].items():
        host = doc["host"]
        assert host["probe_samples"] > 0 and host["probe_floor_us"] > 0, name
        assert host["slowdown"]["value"] >= 1.0, name
        assert doc["end_to_end"]["wall_s"]["value"] <= host["wall_raw_s"]["value"], name
        assert doc["per_layer"]["host.wall_raw_s"]["value"] == host["wall_raw_s"]["value"], name


def test_layer_times_are_sane(smoke):
    for name, doc in smoke["workloads"].items():
        layers = doc["per_layer"]
        for metric, m in layers.items():
            if m["unit"] == "s":
                assert m["value"] is not None and m["value"] >= 0.0, (name, metric)
        assert layers["trace.unattributed_share"]["value"] <= 0.2, name
    layers = {n: d["per_layer"] for n, d in smoke["workloads"].items()}
    assert layers["fanin_burst"]["dataplane.tier_columnar_share"]["value"] >= 0.9
    assert layers["vpn_sla"]["dataplane.tier_columnar_share"]["value"] <= 0.1
    assert layers["elastic_aqm"]["dataplane.tier_columnar_share"]["value"] <= 0.1
    assert layers["vpn_sla"]["obs.self_s"]["value"] == 0.0
    assert layers["vpn_sla_obs"]["obs.self_s"]["value"] > 0.0
    assert layers["vpn_sla"]["vpn.core_vpn_routes"]["value"] == 0


def test_missing_hook_degrades_instead_of_crashing():
    sys.path[:0] = [str(REPO / "src"), str(HERE)]
    import metrics
    import tracer
    import workloads

    renamed = "repro.routing.spf:converge_was_renamed"
    hooks = tuple(
        (layer, group, renamed if target == "repro.routing.spf:converge" else target, kind)
        for layer, group, target, kind in tracer.HOOKS
    )
    w = workloads.WORKLOADS["fanin_burst"]
    inputs = w.prepare(7, w.sizes(0.01))
    plain = w.inspect(inputs, w.run(inputs, workloads.no_phase))
    tr = tracer.Tracer(hooks).install()
    try:
        traced = w.inspect(inputs, w.run(inputs, tr.span))
    finally:
        tr.uninstall()
    assert [m for m in tr.missing if renamed in m] == tr.missing and len(tr.missing) == 1
    assert workloads.digest(traced.semantic) == workloads.digest(plain.semantic)
    host = {"wall_s": 1.0, "wall_raw_s": 1.0, "slowdown": 1.0, "probe_floor_us": None}
    row = metrics.per_layer_values(tr, traced, 1.0, host, [plain.extras], None)
    assert row["trace.missing_hooks"] == 1
    assert row["routing.converge_s"] is None      # its only hook is gone
    assert row["mpls.ldp_s"] is not None and row["sim.self_s"] > 0.0
