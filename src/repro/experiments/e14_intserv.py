"""E14 — IntServ/RSVP per-flow QoS vs DiffServ aggregation: the cost of
"individually selectable QoS".

§2.2: carriers "are uncomfortable with individually selectable QoS" and
"users question the size of the administration task".  Here both
architectures deliver the *same* protection to N voice flows crossing a
congested core, and the table shows what each costs:

* **IntServ** — one RSVP reservation per flow: per-router state grows
  linearly with flows, soft-state refreshes burn PATH+RESV pairs every
  30 s forever, and every core hop multi-field-classifies every packet.
* **DiffServ/MPLS** — flows are aggregated into the EF class at the edge:
  core state is the class count (constant), no per-flow signaling exists,
  and the core classifies on 3 EXP bits.

Both columns include the measured p99 delay of the protected flows, to
show the aggregation costs nothing in delivered quality at this scale —
the paper's §2.2 argument, quantified.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.experiments.common import ExperimentRun, QdiscSpec, three_class_queues
from repro.qos.classifier import FlowMatch
from repro.qos.dscp import DSCP
from repro.qos.intserv import IntServ, intserv_classifier
from repro.routing.spf import converge
from repro.topology import Network, attach_host, build_line
from repro.traffic.generators import CbrSource, voice_source

__all__ = ["run_architecture", "run_e14"]

CORE_BPS = 8e6
N_HOPS = 4   # routers in the line


def _testbed(seed: int, classifier: Callable | None) -> dict[str, Any]:
    """The line every architecture runs on; ``classifier`` is the core
    WFQ's per-node classifier class (``None``: DiffServ's EXP/DSCP one on
    every node).  Built from importable values, so the network snapshots."""
    net = Network(seed=seed)
    net.default_qdisc_factory = QdiscSpec("wfq", classifier=classifier)
    routers = build_line(net, N_HOPS, rate_bps=CORE_BPS)
    tx = attach_host(net, routers[0], "10.140.0.1", name="tx", rate_bps=100e6)
    rx = attach_host(net, routers[-1], "10.140.0.2", name="rx", rate_bps=100e6)
    converge(net)
    return {"net": net, "routers": routers, "tx": tx, "rx": rx}


def run_architecture(
    arch: str, n_flows: int, seed: int = 141, measure_s: float = 6.0
) -> dict[str, Any]:
    """Protect ``n_flows`` voice flows with one architecture; count costs."""
    ctx = _testbed(seed, intserv_classifier if arch == "intserv" else None)
    net, routers, tx, rx = ctx["net"], ctx["routers"], ctx["tx"], ctx["rx"]

    intserv: IntServ | None = None
    if arch == "intserv":
        intserv = IntServ(net)
        for i in range(n_flows):
            intserv.reserve(
                "r0", f"r{N_HOPS - 1}",
                FlowMatch(dst_port=5004 + i, proto="udp"),
                rate_bps=80e3,
            )

    run = ExperimentRun(net, warmup_s=0.5, measure_s=measure_s)
    sink = run.sink_at(rx)
    voices = []
    for i in range(n_flows):
        # Under DiffServ the edge marks EF (dscp=46); under IntServ the
        # reservation filter identifies the flow and DSCP stays 0.
        dscp = int(DSCP.EF) if arch == "diffserv" else 0
        src = voice_source(net.sim, tx.send, f"v{i}", "10.140.0.1", "10.140.0.2",
                           dscp=dscp)
        src.dst_port = 5004 + i
        voices.append(run.add_source(src))
    bulk = run.add_source(
        CbrSource(net.sim, tx.send, "bulk", "10.140.0.1", "10.140.0.2",
                  payload_bytes=1400, dscp=int(DSCP.BE), rate_bps=9e6)
    )
    run.execute(drain_s=1.0)

    stats = [run.stats_for(v, sink) for v in voices]
    worst_p99 = max(s.p99_delay_s for s in stats)
    loss = sum(s.sent - s.received for s in stats) / max(1, sum(s.sent for s in stats))
    if arch == "intserv":
        assert intserv is not None
        state = intserv.state_per_router()
        core_state = max(state.values())
        signaling = (
            net.counters["rsvp.path_msgs"] + net.counters["rsvp.resv_msgs"]
        )
        refresh = intserv.refresh_messages_per_interval()
    else:
        core_state = len(three_class_queues())  # the class count, period
        signaling = 0
        refresh = 0
    return {
        "arch": arch,
        "flows": n_flows,
        "worst_p99_s": worst_p99,
        "voice_loss": loss,
        "core_state_per_router": core_state,
        "setup_messages": signaling,
        "refresh_msgs_per_30s": refresh,
        "stats": stats,
        "net": net,
    }


def run_e14(
    flow_counts: tuple[int, ...] = (8, 32), seed: int = 141, measure_s: float = 6.0
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """The E14 table: arch × flow-count, quality vs administration cost."""
    rows: list[dict[str, Any]] = []
    raw: dict[str, Any] = {}
    for n in flow_counts:
        for arch in ("intserv", "diffserv"):
            result = run_architecture(arch, n, seed=seed, measure_s=measure_s)
            raw[(arch, n)] = result
            rows.append(
                {
                    "arch": arch,
                    "flows": n,
                    "voice_p99_ms": round(result["worst_p99_s"] * 1e3, 2),
                    "voice_loss%": round(result["voice_loss"] * 100, 2),
                    "core_state/router": result["core_state_per_router"],
                    "setup_msgs": result["setup_messages"],
                    "refresh/30s": result["refresh_msgs_per_30s"],
                }
            )
    return rows, raw
