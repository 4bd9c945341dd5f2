"""E2 — Per-class QoS: best-effort IP vs DiffServ vs DiffServ-over-MPLS.

Claim C2: plain IP "has no direct mechanism to specify QoS"; frame relay /
ATM assign a QoS level to the whole connection, and MPLS+DiffServ restores
that ability to IP backbones.  We offer a three-class mix (EF voice CBR,
AF bursty on–off data, BE greedy filler) over a congested two-core-hop
path and measure per-class delay/jitter/loss under three backbones:

* ``ip-fifo``       — plain routers, single FIFO: every class shares the
  congestion (the §2.2 problem statement).
* ``ip-diffserv``   — plain routers but class-aware scheduling on DSCP.
* ``mpls-diffserv`` — LSR backbone, LDP tunnels, DSCP copied to EXP at the
  edge, core schedules on EXP (the paper's architecture).

The shape to expect: EF delay/jitter collapse by an order of magnitude as
soon as class scheduling appears, and the MPLS variant matches the
DiffServ one while also providing the tunnel substrate the VPN needs
(QoS equivalence is the point — MPLS moves the classification into the
label so it also survives encryption, which E4 shows).
"""

from __future__ import annotations

from typing import Any

from repro.control import converge_all
from repro.experiments.common import ExperimentRun, QdiscSpec
from repro.mpls.lsr import Lsr
from repro.qos.dscp import DSCP
from repro.routing.spf import converge
from repro.topology import Network, attach_host, build_line
from repro.traffic.generators import CbrSource, OnOffSource, voice_source

__all__ = ["run_config", "run_e2", "run_e2_load_sweep", "CONFIGS"]

BOTTLENECK_BPS = 5e6
CONFIGS = ("ip-fifo", "ip-diffserv", "mpls-diffserv")


def _build(config: str, seed: int) -> tuple[Network, Any, Any]:
    """Line backbone a - p1 - p2 - b with the config's node type + queues."""
    net = Network(seed=seed)
    net.default_qdisc_factory = QdiscSpec("fifo" if config == "ip-fifo" else "wfq")

    mpls = config == "mpls-diffserv"
    if mpls:
        routers = []
        for i in range(4):
            routers.append(net.add_node(Lsr(net.sim, f"r{i}")))
        for i in range(3):
            net.connect(routers[i], routers[i + 1], BOTTLENECK_BPS, 1e-3)
    else:
        routers = build_line(net, 4, rate_bps=BOTTLENECK_BPS)

    src_host = attach_host(net, routers[0], "10.50.0.1", name="tx")
    dst_host = attach_host(net, routers[3], "10.50.0.2", name="rx")
    if mpls:
        converge_all(net)
    else:
        converge(net)
    return net, src_host, dst_host


def run_config(
    config: str,
    seed: int = 21,
    measure_s: float = 8.0,
    streaming: bool = False,
    hybrid: bool = False,
    prebuilt: tuple[Network, Any, Any] | None = None,
) -> dict[str, Any]:
    """One config's per-class stats + labeled-hop accounting.

    ``prebuilt`` short-circuits the build: a ``(net, src_host, dst_host)``
    triple — in practice a converged network restored from a
    :mod:`repro.sim.snapshot` image by the warm-start sweep path — is used
    as-is instead of building and converging from scratch.  The network's
    RNG streams are reseeded to ``seed`` (builds consume no streams, so
    this is exactly equivalent to a cold build with that seed).

    ``streaming=True`` attaches a live :class:`repro.obs.slo.SloEngine`
    alongside the batch path; the result gains an ``"slo"`` block whose
    per-flow streaming stats are the parity subject of
    ``tests/test_obs_sketch.py`` (the batch stats stay the oracle).

    ``hybrid=True`` carries the BE bulk filler as a
    :class:`~repro.traffic.fluid.FluidAggregate` instead of a packet
    source.  The measurement flows (voice, data) stay real packets in
    both modes.  Since bulk's 6 Mb/s exceeds the 5 Mb/s bottleneck's
    headroom everywhere past the access link, the aggregate expands at
    the first core hop and the queues it contends in see real packets —
    ``tests/test_hybrid_parity.py`` pins how closely the two modes agree.
    """
    if prebuilt is not None:
        net, src_host, dst_host = prebuilt
        if net.streams.seed != seed:
            net.streams.reseed(seed)
    else:
        net, src_host, dst_host = _build(config, seed)

    engine = None
    if streaming:
        from repro.obs.slo import SloEngine

        engine = SloEngine(net.sim, window_s=0.5)
        engine.attach(net)

    run = ExperimentRun(net, warmup_s=0.5, measure_s=measure_s)
    sink = run.sink_at(dst_host)

    voice = run.add_source(
        voice_source(net.sim, src_host.send, "voice", "10.50.0.1", "10.50.0.2")
    )
    data = run.add_source(
        OnOffSource(
            net.sim, src_host.send, "data", "10.50.0.1", "10.50.0.2",
            payload_bytes=700, dscp=int(DSCP.AF11), proto="tcp",
            peak_bps=4e6, mean_on_s=0.2, mean_off_s=0.3,
            rng=net.streams.stream("e2.data"),
        )
    )
    if hybrid:
        from repro.traffic.fluid import FluidAggregate

        bulk = FluidAggregate(
            net.sim, "bulk", "10.50.0.1", "10.50.0.2",
            payload_bytes=1400, dscp=int(DSCP.BE), kind="cbr", rate_bps=6e6,
        )
        run.fluid_plane().add(bulk, src_host, dst_host)
    else:
        bulk = run.add_source(
            CbrSource(
                net.sim, src_host.send, "bulk", "10.50.0.1", "10.50.0.2",
                payload_bytes=1400, dscp=int(DSCP.BE), rate_bps=6e6,
            )
        )

    run.execute(drain_s=1.0)
    result = {
        "config": config,
        "voice": run.stats_for(voice, sink),
        "data": run.stats_for(data, sink),
        "bulk": (
            run.hybrid_stats_for(bulk, sink) if hybrid
            else run.stats_for(bulk, sink)
        ),
        "net": net,
        "hybrid": hybrid,
    }
    if hybrid:
        result["fluid"] = run.fluid.summary()
    if engine is not None:
        engine.finalize()
        result["slo"] = {
            "engine": engine,
            "stats": {
                "voice": engine.stats("voice", sent=voice.sent, duration_s=measure_s),
                "data": engine.stats("data", sent=data.sent, duration_s=measure_s),
                "bulk": engine.stats("bulk", sent=bulk.sent, duration_s=measure_s),
            },
        }
    return result


def run_e2_load_sweep(
    loads: tuple[float, ...] = (0.5, 0.8, 1.0, 1.2, 1.5),
    seed: int = 22,
    measure_s: float = 5.0,
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """The E2 *figure*: voice p99 delay as offered load sweeps past capacity.

    ``loads`` are bulk offered rates as fractions of the bottleneck.  The
    classic curve: under FIFO, voice delay tracks the shared queue and
    explodes as load crosses 1.0; under MPLS+DiffServ it stays flat at the
    EF service floor regardless of BE overload.  One row per (config,
    load), suitable for plotting delay-vs-load series.
    """
    rows: list[dict[str, Any]] = []
    raw: dict[str, Any] = {}
    for config in ("ip-fifo", "mpls-diffserv"):
        series = []
        for load in loads:
            net, src_host, dst_host = _build(config, seed)
            run = ExperimentRun(net, warmup_s=0.5, measure_s=measure_s)
            sink = run.sink_at(dst_host)
            voice = run.add_source(
                voice_source(net.sim, src_host.send, "voice",
                             "10.50.0.1", "10.50.0.2")
            )
            bulk = run.add_source(
                CbrSource(
                    net.sim, src_host.send, "bulk", "10.50.0.1", "10.50.0.2",
                    payload_bytes=1400, dscp=int(DSCP.BE),
                    rate_bps=load * BOTTLENECK_BPS,
                )
            )
            run.execute(drain_s=1.0)
            stats = run.stats_for(voice, sink)
            series.append((load, stats))
            rows.append(
                {
                    "config": config,
                    "offered_load": load,
                    "voice_p99_ms": round(stats.p99_delay_s * 1e3, 3),
                    "voice_loss%": round(stats.loss_ratio * 100, 2),
                }
            )
        raw[config] = series
    return rows, raw


def run_e2(
    seed: int = 21, measure_s: float = 8.0, hybrid: bool = False
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """The E2 table: config × class rows."""
    rows: list[dict[str, Any]] = []
    raw: dict[str, Any] = {}
    for config in CONFIGS:
        result = run_config(config, seed=seed, measure_s=measure_s, hybrid=hybrid)
        raw[config] = result
        for flow in ("voice", "data", "bulk"):
            stats = result[flow]
            rows.append({"config": config, **stats.row()})
    return rows, raw
