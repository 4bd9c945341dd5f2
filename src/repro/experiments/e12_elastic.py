"""E12 — Elastic (closed-loop) traffic under AQM, and class protection.

Two sub-questions the 1999/2000 QoS literature cared about, applied to
this architecture with *reactive* traffic instead of open-loop load:

* **E12a — AQM with closed loops.**  Four Reno-like flows share a 5 Mb/s
  bottleneck under DropTail vs RED.  With closed loops RED's early random
  drops keep the standing queue (and hence RTT) low while the flows' AIMD
  keeps the pipe full; DropTail fills the whole buffer before anybody
  backs off, so goodput is similar but queueing delay is far worse — the
  actual claim of the RED paper, reproducible only with elastic sources.
* **E12b — voice vs elastic.**  A voice flow shares the bottleneck with
  aggressive elastic flows; FIFO lets the adaptive flows bury the voice,
  while the EF class under WFQ is untouched no matter how hard TCP pushes
  — the VPN SLA story holds against greedy *adaptive* traffic too.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.common import QdiscSpec
from repro.metrics.probes import ProbeAgent
from repro.net.node import Host
from repro.qos.red import RedParams
from repro.routing.spf import converge
from repro.topology import Network, attach_host, build_line
from repro.traffic.elastic import ElasticSource

__all__ = ["run_e12a_aqm", "run_e12b_voice_vs_elastic", "run_e12"]

BOTTLENECK_BPS = 5e6
N_FLOWS = 4


def _elastic_testbed(net: Network, spec: QdiscSpec) -> tuple[Host, Host]:
    """A three-router line between two hosts on ``net``, every interface
    queueing through ``spec``."""
    net.default_qdisc_factory = spec
    routers = build_line(net, 3, rate_bps=BOTTLENECK_BPS)
    tx = attach_host(net, routers[0], "10.120.0.1", name="tx", rate_bps=100e6)
    rx = attach_host(net, routers[2], "10.120.0.2", name="rx", rate_bps=100e6)
    converge(net)
    return tx, rx


def run_e12a_aqm(
    seed: int = 121,
    duration_s: float = 15.0,
    background_bps: float = 0.0,
    hybrid: bool = False,
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """DropTail vs RED under four competing Reno flows.

    ``background_bps`` adds an open-loop BE filler sharing the
    bottleneck: as a real :class:`CbrSource` normally, or — with
    ``hybrid=True`` — as a fully-fluid aggregate (it stays under the
    bottleneck's headroom) whose load the elastic flows see only through
    the interface's reduced effective rate and the qdisc's standing
    backlog.  This exercises the fluid *background* path rather than the
    expansion path: AQM and AIMD react to analytic load.
    """
    cap_bytes = 100 * 1500
    red = RedParams(min_th=cap_bytes // 5, max_th=(4 * cap_bytes) // 5, max_p=0.03)
    rows: list[dict[str, Any]] = []
    raw: dict[str, Any] = {}
    for kind in ("droptail", "red"):
        net = Network(seed=seed)
        tx, rx = _elastic_testbed(net, QdiscSpec(
            kind, cap_bytes, net.streams.stream("e12.red"), red if kind == "red" else None
        ))
        flows = [
            ElasticSource(net.sim, tx, rx, "10.120.0.1", "10.120.0.2",
                          flow=f"tcp{i}", dst_port=8000 + i)
            for i in range(N_FLOWS)
        ]
        # A delay probe rides along to measure the standing queue.
        probe = ProbeAgent(net.sim, tx, rx, "10.120.0.1", "10.120.0.2",
                           dscp=0, interval_s=0.05)
        for i, f in enumerate(flows):
            f.start(0.1 * i)   # staggered starts avoid lockstep
        probe.start(1.0, stop_at=duration_s)

        background = None
        if background_bps > 0.0 and hybrid:
            from repro.traffic.fluid import FluidAggregate, FluidRouter

            background = FluidAggregate(
                net.sim, "bg", "10.120.0.1", "10.120.0.2",
                payload_bytes=1400, kind="cbr", rate_bps=background_bps,
            )
            router = FluidRouter(net)
            router.add(background, tx, rx)
            router.start(0.0, stop_at=duration_s)
        elif background_bps > 0.0:
            from repro.traffic.generators import CbrSource

            background = CbrSource(
                net.sim, tx.send, "bg", "10.120.0.1", "10.120.0.2",
                payload_bytes=1400, rate_bps=background_bps,
            )
            background.start(0.0, stop_at=duration_s)

        net.run(until=duration_s + 0.5)

        goodput = sum(f.goodput_bps(duration_s) for f in flows)
        raw[kind] = {
            "flows": flows, "probe": probe, "net": net,
            "background": background,
        }
        row = {
            "aqm": kind,
            "goodput_kbps": round(goodput / 1e3, 1),
            "utilization%": round(100 * goodput / BOTTLENECK_BPS, 1),
            "p50_delay_ms": round(1e3 * probe.delay_percentile(50), 2),
            "p95_delay_ms": round(1e3 * probe.delay_percentile(95), 2),
            "retransmits": sum(f.retransmits for f in flows),
            "timeouts": sum(f.timeouts for f in flows),
        }
        if background is not None:
            row["bg_kbps"] = round(background_bps / 1e3, 1)
        rows.append(row)
    return rows, raw


def run_e12b_voice_vs_elastic(
    seed: int = 123, duration_s: float = 12.0
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """A voice probe against four greedy Reno flows, FIFO vs WFQ-on-DSCP."""
    rows: list[dict[str, Any]] = []
    raw: dict[str, Any] = {}
    for kind in ("fifo", "wfq"):
        net = Network(seed=seed)
        tx, rx = _elastic_testbed(net, QdiscSpec(kind))
        flows = [
            ElasticSource(net.sim, tx, rx, "10.120.0.1", "10.120.0.2",
                          flow=f"tcp{i}", dst_port=8000 + i)
            for i in range(N_FLOWS)
        ]
        voice = ProbeAgent(net.sim, tx, rx, "10.120.0.1", "10.120.0.2",
                           dscp=46, interval_s=0.020, payload_bytes=160)
        for i, f in enumerate(flows):
            f.start(0.1 * i)
        voice.start(1.0, stop_at=duration_s)
        net.run(until=duration_s + 0.5)
        goodput = sum(f.goodput_bps(duration_s) for f in flows)
        raw[kind] = {"flows": flows, "voice": voice, "net": net}
        rows.append(
            {
                "scheduler": kind,
                "voice_p95_ms": round(1e3 * voice.delay_percentile(95), 2),
                "voice_loss%": round(100 * voice.loss_ratio(), 2),
                "elastic_goodput_kbps": round(goodput / 1e3, 1),
            }
        )
    return rows, raw


def run_e12(
    duration_s: float = 15.0, hybrid: bool = False
) -> dict[str, tuple[list[dict[str, Any]], dict[str, Any]]]:
    # Hybrid mode adds a 1 Mb/s filler so the fluid background path has
    # something to carry; pure runs keep the historical zero-background
    # shape unless asked.
    return {
        "aqm": run_e12a_aqm(
            duration_s=duration_s,
            background_bps=1e6 if hybrid else 0.0,
            hybrid=hybrid,
        ),
        "voice_vs_elastic": run_e12b_voice_vs_elastic(duration_s=max(duration_s - 3, 8.0)),
    }
