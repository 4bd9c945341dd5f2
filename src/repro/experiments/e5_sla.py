"""E5 — End-to-end SLA: CPE CBQ → DSCP marking → PE policing → EXP core.

The paper's §5 chain, verbatim: "the customer premises device could use
technologies such as CBQ to classify traffic and DiffServ/ToS to mark it
...  The network edge will then map the CPE-specified DiffServ/ToS service
level specification into the QoS field of the MPLS header, providing a way
to protect the service level definition on an end-to-end basis."

We provision a two-site MPLS VPN whose path has *two* bottlenecks — the
customer access uplink (CE→PE) and a shared core link congested by another
customer's bulk traffic — and switch each stage of the chain on/off:

* ``none``      — FIFO access, FIFO core: both bottlenecks hurt voice.
* ``cbq-only``  — CBQ at the CPE uplink, FIFO core: access fixed, core not.
* ``core-only`` — FIFO access, EXP-scheduled core: core fixed, access not.
* ``full``      — CBQ at CPE + DSCP→EXP at PE + WFQ-on-EXP core (+ an EF
  policer at the PE protecting the core from out-of-contract EF).

The verdict column evaluates the voice/data SLAs; only ``full`` should
pass both — end-to-end QoS needs every stage, which is the paper's thesis.
"""

from __future__ import annotations

from typing import Any

from repro.control import converge_all
from repro.experiments.common import ExperimentRun, QdiscSpec
from repro.metrics.sla import DATA_SLA, VOICE_SLA, evaluate
from repro.mpls.lsr import Lsr
from repro.qos.cbq import CbqClass, CbqScheduler
from repro.qos.classifier import ba_classifier
from repro.qos.dscp import CLASS_NAME_OF_DSCP, DSCP
from repro.qos.meter import TokenBucket, policer
from repro.topology import Network
from repro.traffic.generators import CbrSource, OnOffSource, voice_source
from repro.vpn.pe import PeRouter
from repro.vpn.provision import VpnProvisioner

__all__ = ["run_stage", "run_e5", "STAGES"]

ACCESS_BPS = 3e6
CORE_BPS = 5e6
STAGES = ("none", "cbq-only", "core-only", "full")


def _cpe_cbq() -> CbqScheduler:
    """The §5 CPE configuration: voice guaranteed + priority, data assured,
    bulk takes the leftovers (all may borrow spare uplink capacity except
    voice, which is deliberately capped at its allocation)."""
    classes = [
        CbqClass("voice", rate_bps=0.4e6, priority=0, can_borrow=False, burst_bytes=4000),
        CbqClass("data", rate_bps=1.2e6, priority=1, can_borrow=True),
        CbqClass("bulk", rate_bps=0.4e6, priority=2, can_borrow=True),
    ]
    return CbqScheduler(classes, ba_classifier)


def _is_ef(pkt: Any) -> bool:
    """The PE policer's match: EF-class customer packets."""
    return CLASS_NAME_OF_DSCP[pkt.ip.dscp] == "EF"


def _build(stage: str, seed: int) -> dict[str, Any]:
    net = Network(seed=seed)
    core_qos = stage in ("core-only", "full")
    net.default_qdisc_factory = QdiscSpec("wfq" if core_qos else "fifo")

    pe1 = net.add_node(PeRouter(net.sim, "pe1"))
    p1 = net.add_node(Lsr(net.sim, "p1"))
    p2 = net.add_node(Lsr(net.sim, "p2"))
    pe2 = net.add_node(PeRouter(net.sim, "pe2"))
    net.connect(pe1, p1, CORE_BPS, 1e-3)
    net.connect(p1, p2, CORE_BPS, 1e-3)   # the shared core bottleneck
    net.connect(p2, pe2, CORE_BPS, 1e-3)

    if not core_qos:
        pe1.impose_exp = pe2.impose_exp = 0

    prov = VpnProvisioner(net, access_rate_bps=ACCESS_BPS)
    corp = prov.create_vpn("corp")
    s1 = prov.add_site(corp, pe1, prefix="10.1.0.0/24")
    s2 = prov.add_site(corp, pe2, prefix="10.2.0.0/24")
    other = prov.create_vpn("other", supernet="10.0.0.0/8")
    o1 = prov.add_site(other, pe1, prefix="10.9.1.0/24")
    o2 = prov.add_site(other, pe2, prefix="10.9.2.0/24")
    converge_all(net, prov)

    if stage in ("cbq-only", "full"):
        s1.ce.interfaces[s1.ce_ifname].qdisc = _cpe_cbq()
    else:
        # The default qdisc factory applies network-wide, so a QoS core
        # would silently give the access uplink WFQ too; "core-only" must
        # keep the customer uplink dumb for the ablation to mean anything.
        s1.ce.interfaces[s1.ce_ifname].qdisc = QdiscSpec("fifo")(s1.ce, s1.ce_ifname)

    if stage == "full":
        # PE ingress protection: EF aggregate policed to its contract so a
        # runaway customer cannot flood the core's priority class.  (Our
        # conditioner model is egress-side: install it on the PE's
        # core-facing interface, matching EF-class customer packets.)
        ef_bucket = TokenBucket(rate_bps=0.5e6, burst_bytes=8000)
        pe1.interfaces["to-p1"].add_conditioner(policer(ef_bucket, match=_is_ef))

    return {
        "net": net, "prov": prov,
        "s1": s1, "s2": s2, "o1": o1, "o2": o2,
    }


def run_stage(
    stage: str,
    seed: int = 41,
    measure_s: float = 8.0,
    streaming: bool = False,
    hybrid: bool = False,
    prebuilt: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Run one ablation stage and evaluate the SLAs.

    ``prebuilt`` short-circuits the build: the ctx dict ``_build`` returns
    (``net``/``prov``/``s1``/``s2``/``o1``/``o2``) — in practice restored
    from a :mod:`repro.sim.snapshot` image by the warm-start sweep path —
    is used as-is, and the RNG streams are reseeded to ``seed`` (builds
    consume no streams, so this matches a cold build with that seed).

    With ``streaming=True`` a live :class:`repro.obs.slo.SloEngine` rides
    along: the same SLAs are checked continuously from bounded-memory
    estimators while the batch path below stays the parity oracle, and the
    result gains an ``"slo"`` block with the streaming verdicts and rows.

    With ``hybrid=True`` the other customer's background filler rides the
    fluid plane.  Its 4 Mb/s exceeds the 3 Mb/s access uplink's headroom,
    so the aggregate expands at the CE and the shared core still sees the
    congestion as real packets — the corp flows (all real) experience the
    same contention either way, within the parity tolerances.
    """
    if prebuilt is not None:
        ctx = prebuilt
        if ctx["net"].streams.seed != seed:
            ctx["net"].streams.reseed(seed)
    else:
        ctx = _build(stage, seed)
    net = ctx["net"]
    s1, s2, o1, o2 = ctx["s1"], ctx["s2"], ctx["o1"], ctx["o2"]
    h1, h2 = s1.hosts[0], s2.hosts[0]
    b1, b2 = o1.hosts[0], o2.hosts[0]

    engine = None
    if streaming:
        from repro.obs.slo import SloEngine

        engine = SloEngine(net.sim, window_s=0.5)
        engine.bind("voice", VOICE_SLA)
        engine.bind("data", DATA_SLA)
        engine.map_node_vrf(h2.name, "corp")
        engine.map_node_vrf(b2.name, "other")
        engine.attach(net)

    run = ExperimentRun(net, warmup_s=0.5, measure_s=measure_s)
    sink = run.sink_at(h2)
    bg_sink = run.sink_at(b2)

    voice = run.add_source(
        voice_source(net.sim, h1.send, "voice", str(h1.loopback), str(h2.loopback))
    )
    data = run.add_source(
        OnOffSource(
            net.sim, h1.send, "data", str(h1.loopback), str(h2.loopback),
            payload_bytes=700, dscp=int(DSCP.AF11), proto="tcp",
            peak_bps=2.5e6, mean_on_s=0.15, mean_off_s=0.35,
            rng=net.streams.stream("e5.data"),
        )
    )
    bulk = run.add_source(
        CbrSource(
            net.sim, h1.send, "bulk", str(h1.loopback), str(h2.loopback),
            payload_bytes=1400, dscp=int(DSCP.BE), rate_bps=4e6,
        )
    )
    # Another customer's bulk congests the shared core link only.
    if hybrid:
        from repro.traffic.fluid import FluidAggregate

        background = FluidAggregate(
            net.sim, "bg", str(b1.loopback), str(b2.loopback),
            payload_bytes=1400, dscp=int(DSCP.BE), kind="cbr", rate_bps=4e6,
        )
        run.fluid_plane().add(background, b1, b2)
    else:
        background = run.add_source(
            CbrSource(
                net.sim, b1.send, "bg", str(b1.loopback), str(b2.loopback),
                payload_bytes=1400, dscp=int(DSCP.BE), rate_bps=4e6,
            )
        )

    run.execute(drain_s=1.0)
    voice_stats = run.stats_for(voice, sink)
    data_stats = run.stats_for(data, sink)
    bulk_stats = run.stats_for(bulk, sink)
    result = {
        "stage": stage,
        "voice": voice_stats,
        "data": data_stats,
        "bulk": bulk_stats,
        "background": (
            run.hybrid_stats_for(background, bg_sink) if hybrid
            else run.stats_for(background, bg_sink)
        ),
        "voice_sla": evaluate(VOICE_SLA, voice_stats),
        "data_sla": evaluate(DATA_SLA, data_stats),
        "net": net,
        "hybrid": hybrid,
    }
    if hybrid:
        result["fluid"] = run.fluid.summary()
    if engine is not None:
        engine.finalize()
        # Same duration as run.stats_for so verdicts compare 1:1.
        result["slo"] = {
            "engine": engine,
            "voice": engine.verdict("voice", sent=voice.sent, duration_s=measure_s),
            "data": engine.verdict("data", sent=data.sent, duration_s=measure_s),
            "rows": engine.report(),
        }
    return result


def run_e5(
    seed: int = 41, measure_s: float = 8.0, hybrid: bool = False
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """The E5 table: stage × class with SLA verdicts."""
    rows: list[dict[str, Any]] = []
    raw: dict[str, Any] = {}
    for stage in STAGES:
        result = run_stage(stage, seed=seed, measure_s=measure_s, hybrid=hybrid)
        raw[stage] = result
        for flow, sla in (("voice", "voice_sla"), ("data", "data_sla"), ("bulk", None)):
            row = {"stage": stage, **result[flow].row()}
            if sla is not None:
                row["sla"] = "PASS" if result[sla].conformant else "FAIL"
            else:
                row["sla"] = "n/a"
            rows.append(row)
    return rows, raw
