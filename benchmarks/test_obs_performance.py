"""Observability overhead benchmarks: what the enabled modes cost.

The *disabled*-mode floor (SLO and span hooks add a ``None`` check per
delivery and a ``getattr`` per control-plane event, nothing more) is the
performance ledger's ``vpn_sla`` row in absolute units, next to
``vpn_sla_obs`` with everything on (``benchmarks/ledger``).  Enabled-mode
cost is *measured and recorded* here (soft floors): live SLO conformance
and convergence tracing are priced, not free, and
``benchmarks/out/obs.json`` documents the price.
"""

from time import perf_counter

from repro.obs import runtime
from repro.obs.flightrec import FlightRecorder
from repro.obs.sketch import QuantileSketch

# Enabled-mode budget (soft): live SLO may cost at most 30% end to end.
MAX_SLO_ENABLED_OVERHEAD = 1.30
# A whole telemetry session (flight recorder, flow accountant, kernel
# profiler) may cost at most 2x end to end (soft).
MAX_TELEMETRY_ENABLED_OVERHEAD = 2.0


def _best_of_pair(fn_new, fn_ref, rounds: int) -> tuple[float, float]:
    """Best-of-``rounds`` wall clock for both sides, interleaved so slow
    drift (thermal throttling, background load) lands on both."""
    best_new = best_ref = float("inf")
    for i in range(rounds):
        order = (fn_new, fn_ref) if i % 2 == 0 else (fn_ref, fn_new)
        for fn in order:
            t0 = perf_counter()
            fn()
            dt = perf_counter() - t0
            if fn is fn_new:
                best_new = min(best_new, dt)
            else:
                best_ref = min(best_ref, dt)
    return best_new, best_ref


def test_slo_enabled_overhead_documented(record, require_floor):
    """Price of live SLO conformance on E5 (streaming on vs off)."""
    from repro.experiments.e5_sla import run_stage

    def run_off():
        run_stage("full", measure_s=2.0, streaming=False)

    def run_on():
        run_stage("full", measure_s=2.0, streaming=True)

    t_off, t_on = _best_of_pair(run_off, run_on, rounds=3)
    overhead = t_on / t_off
    record("slo_enabled_e5", {
        "streaming_off_s": t_off,
        "streaming_on_s": t_on,
        "overhead": overhead,
        "max_budget": MAX_SLO_ENABLED_OVERHEAD,
    })
    # Soft: enabled mode is allowed to cost, the budget just flags drift.
    require_floor(MAX_SLO_ENABLED_OVERHEAD, overhead, (
        f"live SLO engine costs {overhead:.2f}x on e5 "
        f"(budget {MAX_SLO_ENABLED_OVERHEAD}x)"
    ), soft=True)


def test_telemetry_enabled_overhead_documented(record, require_floor):
    """Price of a telemetry session on E5: flight recorder, flow
    accountant and kernel profiler on vs off (the ledger's ``vpn_sla_obs``
    / ``vpn_sla`` pair is the same question at full size)."""
    from repro.experiments.e5_sla import run_stage

    def run_off():
        run_stage("full", measure_s=2.0)

    def run_on():
        runtime.enable()
        try:
            run_stage("full", measure_s=2.0)
        finally:
            runtime.reset()

    t_off, t_on = _best_of_pair(run_off, run_on, rounds=3)
    overhead = t_on / t_off
    record("telemetry_enabled_e5", {
        "telemetry_off_s": t_off,
        "telemetry_on_s": t_on,
        "overhead": overhead,
        "max_budget": MAX_TELEMETRY_ENABLED_OVERHEAD,
    })
    require_floor(MAX_TELEMETRY_ENABLED_OVERHEAD, overhead, (
        f"telemetry session costs {overhead:.2f}x on e5 "
        f"(budget {MAX_TELEMETRY_ENABLED_OVERHEAD}x)"
    ), soft=True)


def test_span_tracing_enabled_overhead_documented(record, require_floor):
    """Price of convergence tracing on an E11 flap (spans on vs off)."""
    from repro.experiments.e11_resilience import run_variant

    def run_off():
        run_variant("igp-tuned", "igp", 1.0, measure_s=4.0)

    def run_on():
        run_variant("igp-tuned", "igp", 1.0, measure_s=4.0, trace_spans=True)

    t_off, t_on = _best_of_pair(run_off, run_on, rounds=3)
    overhead = t_on / t_off
    record("spans_enabled_e11", {
        "tracing_off_s": t_off,
        "tracing_on_s": t_on,
        "overhead": overhead,
        "note": "includes the healing probe stream the tracer injects",
    })
    # The tracer's per-event cost is negligible; the healing probe is the
    # real (and intended) cost.  Record only; 2x is a drift tripwire.
    require_floor(2.0, overhead, (
        f"convergence tracing costs {overhead:.2f}x on e11 (tripwire 2x)"
    ), soft=True)


def test_sketch_insert_throughput(record, require_floor):
    """Streaming quantile sketch: inserts must stay cheap enough to ride
    the delivery path (soft floor: ≥1M inserts/s on any modern box)."""
    n = 200_000
    sk = QuantileSketch(k=2048)
    values = [(i * 2654435761 % 1000003) / 1000003.0 for i in range(n)]
    t0 = perf_counter()
    insert = sk.insert
    for v in values:
        insert(v)
    dt = perf_counter() - t0
    rate = n / dt
    # One query amortises the materialisation cost into the number.
    q = sk.query(99.0)
    record("sketch_insert_throughput", {
        "inserts": n,
        "wall_s": dt,
        "inserts_per_sec": rate,
        "retained": sk.retained,
        "p99_sample": q,
    })
    assert sk.retained < 16 * 2048  # bounded memory held
    require_floor(rate, 1e6, (
        f"sketch insert throughput {rate:.0f}/s < 1M/s"
    ), soft=True)


def test_flight_record_throughput(record, require_floor):
    """Flight recorder: a hop row must stay cheap enough to leave on
    (soft floor: ≥1M records/s).  Mixed labeled/unlabeled packets through
    the producers a transit hop calls, on a ring that is already full so
    every append also ages a row out."""
    from repro.net.address import IPv4Address
    from repro.net.packet import IPHeader, Packet

    ip = IPHeader(IPv4Address(1), IPv4Address(2))
    plain = Packet(ip=ip, payload_bytes=100, flow="plain", seq=1)
    labeled = Packet(ip=ip, payload_bytes=100, flow="labeled", seq=2)
    labeled.push_label(100)
    labeled.push_label(200)
    fr = FlightRecorder(capacity=4096)
    for _ in range(fr.capacity):
        fr.rx(0.0, "warm", plain, "eth0")
    rounds = 50_000
    rx, enqueue, dequeue, label_op = fr.rx, fr.enqueue, fr.dequeue, fr.label_op
    t0 = perf_counter()
    for _ in range(rounds):
        rx(1.0, "p1", plain, "eth0")
        enqueue(1.0, "p1", plain, "eth1", 3)
        dequeue(1.0, "p1", plain, "eth1", 2)
        rx(1.0, "p1", labeled, "eth0")
        label_op(1.0, "p1", labeled, "swap", old=200, new=201)
        enqueue(1.0, "p1", labeled, "eth1", 3)
        dequeue(1.0, "p1", labeled, "eth1", 2)
    dt = perf_counter() - t0
    n = 7 * rounds
    rate = n / dt
    assert fr.recorded == fr.capacity + n and len(fr) == fr.capacity
    # Reading is where HopRecords get built; price it into the record.
    t0 = perf_counter()
    materialised = fr.records()
    read_dt = perf_counter() - t0
    assert materialised[-1].event == "dequeue" and materialised[-1].labels == (100, 200)
    record("flight_record_throughput", {
        "records": n,
        "wall_s": dt,
        "records_per_sec": rate,
        "ring_capacity": fr.capacity,
        "read_us_per_record": read_dt / len(materialised) * 1e6,
    })
    require_floor(rate, 1e6, (
        f"flight recorder throughput {rate:.0f} records/s < 1M/s"
    ), soft=True)
