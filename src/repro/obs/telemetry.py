"""One telemetry session per :class:`~repro.topology.Network`.

A :class:`Telemetry` object is the glue between the passive collectors in
this package and one simulated network: constructing it installs the
flight recorder and flow accountant on the network's TraceBus and attaches
the kernel profiler to its simulator; :meth:`scrape` walks the live
node/interface/class counters into labeled gauge families; and
:meth:`manifest` folds everything — seed, git revision, config, metrics,
kernel profile, flow tables, flight-recorder summary — into one
JSON-serialisable run manifest (schema ``repro.telemetry/v1``, checked by
:mod:`repro.obs.schema`).

Scrapes populate *gauges* with absolute values so re-scraping is
idempotent: calling :meth:`scrape` twice does not double-count anything.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.obs import runtime
from repro.obs.flightrec import FlightRecorder
from repro.obs.flows import FlowAccountant
from repro.obs.profiler import KernelProfiler
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (topology imports us)
    from repro.topology import Network

__all__ = ["Telemetry", "TelemetryAttachError", "SCHEMA_ID"]

SCHEMA_ID = "repro.telemetry/v1"

_git_rev_cache: str | None | bool = False  # False = not looked up yet


def _git_rev() -> str | None:
    """Current git revision of the repo this module lives in (cached)."""
    global _git_rev_cache
    if _git_rev_cache is False:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True,
                text=True,
                timeout=5,
                check=True,
            )
            _git_rev_cache = out.stdout.strip() or None
        except Exception:
            _git_rev_cache = None
    return _git_rev_cache


class TelemetryAttachError(RuntimeError):
    """The network already carries a recorder, accountant or profiler."""


class Telemetry:
    """Measurement session bound to one network (see module docstring).

    One session per network: constructing a second one (or one on a
    network whose ``trace.flight``/``trace.flows``/profiler hook is
    otherwise occupied) raises :class:`TelemetryAttachError` before
    anything is wired, so the occupant keeps collecting.
    """

    def __init__(
        self,
        net: "Network",
        sample_every: int = 64,
        flight_capacity: int = 65536,
        profile: bool = True,
        slo: bool = False,
        spans: bool = False,
        slo_window_s: float = 0.5,
    ) -> None:
        busy = [
            what
            for what, occupant in (
                ("trace.flight", net.trace.flight),
                ("trace.flows", net.trace.flows),
                ("the kernel profiler hook", net.sim._profile_hook if profile else None),
            )
            if occupant is not None
        ]
        if busy:
            raise TelemetryAttachError(
                f"network already has a telemetry session: {', '.join(busy)} "
                "occupied; detach it first"
            )
        self.net = net
        self.registry = MetricsRegistry()
        self.flight = FlightRecorder(capacity=flight_capacity)
        self.flows = FlowAccountant()
        self.profiler: KernelProfiler | None = (
            KernelProfiler(net.sim, sample_every=sample_every) if profile else None
        )
        self.slo = None
        self.tracer = None
        if slo:
            from repro.obs.slo import SloEngine

            self.slo = SloEngine(net.sim, window_s=slo_window_s).attach(net)
        if spans:
            from repro.obs.spans import ConvergenceTracer

            self.tracer = ConvergenceTracer(net).attach()
        net.trace.flight = self.flight
        net.trace.flows = self.flows
        if self.profiler is not None:
            self.profiler.attach()

    # ------------------------------------------------------------------
    def detach(self) -> None:
        """Stop collecting; gathered data stays readable."""
        if self.net.trace.flight is self.flight:
            self.net.trace.flight = None
        if self.net.trace.flows is self.flows:
            self.net.trace.flows = None
        if self.slo is not None:
            self.slo.detach(self.net)
        if self.tracer is not None:
            self.tracer.detach()
        if self.profiler is not None:
            self.profiler.detach()

    # ------------------------------------------------------------------
    # Scrape: live counters -> labeled gauge families
    # ------------------------------------------------------------------
    def scrape(self) -> MetricsRegistry:
        """Walk the network's counters into the registry (idempotent)."""
        reg = self.registry
        self._scrape_sim(reg)
        self._scrape_nodes(reg)
        self._scrape_interfaces(reg)
        self._scrape_counters(reg)
        self._scrape_caches(reg)
        self._scrape_slo(reg)
        self._scrape_convergence(reg)
        return reg

    def _scrape_sim(self, reg: MetricsRegistry) -> None:
        sim = self.net.sim
        reg.gauge("repro_sim_now_seconds", "Simulation clock").set(sim.now)
        reg.gauge(
            "repro_sim_events_processed", "Callbacks executed by the kernel"
        ).set(sim.events_processed)
        reg.gauge("repro_sim_events_pending", "Events still in the heap").set(
            sim.pending
        )

    def _scrape_nodes(self, reg: MetricsRegistry) -> None:
        rx = reg.gauge("repro_node_rx_packets", "Packets received", ("node",))
        fwd = reg.gauge("repro_node_forwarded_packets", "Packets forwarded", ("node",))
        dlv = reg.gauge(
            "repro_node_delivered_packets", "Packets delivered locally", ("node",)
        )
        drops = reg.gauge(
            "repro_node_dropped_packets",
            "Packets dropped, by DropReason",
            ("node", "reason"),
        )
        for name, node in sorted(self.net.nodes.items()):
            s = node.stats
            rx.labels(node=name).set(s.rx_packets)
            fwd.labels(node=name).set(s.forwarded)
            dlv.labels(node=name).set(s.delivered)
            for reason, n in sorted(s.by_reason.items()):
                drops.labels(node=name, reason=reason).set(n)

    def _scrape_interfaces(self, reg: MetricsRegistry) -> None:
        ifl = ("node", "iface")
        tx_p = reg.gauge("repro_iface_tx_packets", "Packets transmitted", ifl)
        tx_b = reg.gauge("repro_iface_tx_bytes", "Bytes transmitted", ifl)
        enq = reg.gauge("repro_iface_enqueued_packets", "Packets enqueued", ifl)
        drp = reg.gauge("repro_iface_dropped_packets", "Queue drops", ifl)
        cnd = reg.gauge(
            "repro_iface_conditioner_dropped_packets", "Conditioner drops", ifl
        )
        busy = reg.gauge("repro_iface_busy_seconds", "Transmitter busy time", ifl)
        backlog = reg.gauge(
            "repro_iface_backlog_packets", "Instantaneous queue depth", ifl
        )
        cl = ("node", "iface", "cls")
        c_enq = reg.gauge("repro_class_enqueued_packets", "Per-class enqueues", cl)
        c_deq = reg.gauge("repro_class_dequeued_packets", "Per-class dequeues", cl)
        c_drp = reg.gauge("repro_class_dropped_packets", "Per-class drops", cl)
        c_byt = reg.gauge("repro_class_sent_bytes", "Per-class bytes sent", cl)
        for nname, node in sorted(self.net.nodes.items()):
            for ifname, iface in sorted(node.interfaces.items()):
                s = iface.stats
                lab = {"node": nname, "iface": ifname}
                tx_p.labels(**lab).set(s.tx_packets)
                tx_b.labels(**lab).set(s.tx_bytes)
                enq.labels(**lab).set(s.enqueued)
                drp.labels(**lab).set(s.dropped)
                cnd.labels(**lab).set(s.conditioner_dropped)
                busy.labels(**lab).set(s.busy_time)
                backlog.labels(**lab).set(len(iface.qdisc))
                # Each class queue (a DropTailFifo) by its name; a discipline
                # keeping none has no ``classes``.
                for cq in getattr(iface.qdisc, "classes", ()):
                    clab = {"node": nname, "iface": ifname, "cls": cq.name}
                    c_enq.labels(**clab).set(cq.enqueued)
                    c_deq.labels(**clab).set(cq.dequeued)
                    c_drp.labels(**clab).set(cq.dropped)
                    c_byt.labels(**clab).set(cq.bytes_sent)

    def _scrape_counters(self, reg: MetricsRegistry) -> None:
        fam = reg.gauge(
            "repro_control_counter", "Control-plane message/state counters", ("name",)
        )
        for name, n in self.net.counters:
            fam.labels(name=name).set(n)

    def _scrape_caches(self, reg: MetricsRegistry) -> None:
        """GenCache counters from every router's forwarding pipeline; a
        router that has built none (a CE that never forwarded) has none.

        A PE's VRF decision caches are labeled ``vrf:<name>`` so one gauge
        family covers the flow and VRF caches uniformly.
        """
        lab = ("node", "cache")
        hits = reg.gauge("repro_cache_hits", "Forwarding-cache hits", lab)
        miss = reg.gauge("repro_cache_misses", "Forwarding-cache misses", lab)
        inval = reg.gauge(
            "repro_cache_invalidations", "Generation-bump invalidations", lab
        )
        entries = reg.gauge("repro_cache_entries", "Entries currently cached", lab)

        def emit(node_name: str, cache_name: str, stats: dict[str, int]) -> None:
            clab = {"node": node_name, "cache": cache_name}
            hits.labels(**clab).set(stats["hits"])
            miss.labels(**clab).set(stats["misses"])
            inval.labels(**clab).set(stats["invalidations"])
            entries.labels(**clab).set(stats["entries"])

        for router in sorted(self.net.routers(), key=lambda r: r.name):
            pipe = router.built_pipeline()
            if pipe is None:  # never forwarded: no cache to scrape
                continue
            for cache_name, stats in sorted(pipe.cache_stats().items()):
                if cache_name == "vrf":
                    for vrf_name, vstats in sorted(stats.items()):
                        emit(router.name, f"vrf:{vrf_name}", vstats)
                else:
                    emit(router.name, cache_name, stats)

    def _scrape_slo(self, reg: MetricsRegistry) -> None:
        """Streaming SLO conformance state, when an engine is attached."""
        engine = self.slo
        if engine is None:
            return
        lab = ("stream",)
        recv = reg.gauge("repro_slo_received_packets", "Packets observed", lab)
        p99 = reg.gauge("repro_slo_p99_delay_seconds", "Streaming p99 delay", lab)
        jit = reg.gauge("repro_slo_jitter_seconds", "Streaming RFC3550 jitter", lab)
        viol = reg.gauge(
            "repro_slo_violation_seconds", "Seconds of violating windows", lab
        )
        first = reg.gauge(
            "repro_slo_first_violation_seconds",
            "Sim time of the first violating window (-1: none)",
            lab,
        )
        streams = list(engine.flows.values()) + list(engine.classes.values())
        for stream in streams:
            slab = {"stream": stream.key}
            recv.labels(**slab).set(stream.count)
            if stream.count:
                p99.labels(**slab).set(stream.quantile(99))
            jit.labels(**slab).set(stream.jitter.value)
            viol.labels(**slab).set(stream.violation_seconds)
            fv = stream.first_violation_s
            first.labels(**slab).set(-1.0 if fv is None else fv)

    def _scrape_convergence(self, reg: MetricsRegistry) -> None:
        """Control-plane vs data-plane healing time per churn trace."""
        tracer = self.tracer
        if tracer is None:
            return
        summary = tracer.summary()
        reg.gauge("repro_convergence_traces", "Churn traces recorded").set(
            len(summary["traces"])
        )
        reg.gauge("repro_convergence_spans", "Spans recorded").set(
            summary["spans"]
        )
        lab = ("trace", "link")
        cp = reg.gauge(
            "repro_convergence_cp_healing_seconds",
            "Link-down to last control-plane recovery action",
            lab,
        )
        dp = reg.gauge(
            "repro_convergence_dp_healing_seconds",
            "Link-down to first correctly-forwarded packet",
            lab,
        )
        for trace in summary["traces"]:
            tlab = {"trace": trace["trace_id"], "link": trace["link"] or ""}
            if trace["cp_healing_s"] is not None:
                cp.labels(**tlab).set(trace["cp_healing_s"])
            if trace["dp_healing_s"] is not None:
                dp.labels(**tlab).set(trace["dp_healing_s"])

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def manifest(self, config: dict[str, Any] | None = None) -> dict[str, Any]:
        """One JSON-serialisable document describing this run."""
        if self.slo is not None:
            self.slo.finalize()
        self.scrape()
        sim = self.net.sim
        return {
            "schema": SCHEMA_ID,
            "kind": "run",
            "seed": self.net.streams.seed,
            "git_rev": _git_rev(),
            "config": config,
            "sim": {
                "now_s": sim.now,
                "events_processed": sim.events_processed,
                "events_pending": sim.pending,
                "nodes": len(self.net.nodes),
                "links": len(self.net.duplex_links),
            },
            "metrics": self.registry.snapshot(),
            "profile": (
                self.profiler.snapshot() if self.profiler is not None else None
            ),
            "flows": self.flows.table(),
            "flight": self.flight.summary(),
            # Process-wide observability switches, with the SLO/span flags
            # overridden by this session's actual attachments — the
            # manifest must describe what *this* run collected even when a
            # session was constructed with explicit kwargs rather than
            # through the runtime switch.
            "obs_runtime": {
                **runtime.flags(),
                "slo": self.slo is not None,
                "spans": self.tracer is not None,
            },
            "slo": self.slo.summary() if self.slo is not None else None,
            "spans": self.tracer.summary() if self.tracer is not None else None,
        }

    def write(self, path: str | Path, config: dict[str, Any] | None = None) -> Path:
        """Write :meth:`manifest` to ``path`` as pretty-printed JSON."""
        p = Path(path)
        p.write_text(json.dumps(self.manifest(config=config), indent=2) + "\n")
        return p
