"""Live SLO engine: continuous SLA conformance from streaming estimators.

The batch path (:func:`repro.metrics.stats.summarize_flow` →
:func:`repro.metrics.sla.evaluate`) renders one verdict after the run
from raw sample arrays.  The :class:`SloEngine` instead observes every
local delivery *as it happens* — via the ``TraceBus.slo`` attachment
checked in :meth:`repro.net.node.Node.deliver_local` — and maintains
per-flow and per-VRF×class :class:`SloStream` s built on the bounded
estimators of :mod:`repro.obs.sketch`:

* **quantiles** from a :class:`~repro.obs.sketch.QuantileSketch` (exact
  up to ``k`` samples, documented rank error beyond);
* **jitter** from the RFC 3550 streaming estimator (bit-identical to
  the batch oracle);
* **loss** two ways — in-band (sequence gaps, available live) and
  end-of-run (against the generator's send counter, identical to the
  oracle when the generator is known).

On top of the estimators sits *continuous conformance*: time is cut
into fixed windows (``window_s``) and each closed window is judged
against the stream's bound :class:`~repro.metrics.sla.SlaSpec` —
producing the **first-violation timestamp**, cumulative
**violation-seconds**, and the **worst window** by severity.  Windowed
verdicts are in-band estimates (a window's "p99 proxy" is the fraction
of packets over the delay budget; an *empty* window after traffic has
started counts as full loss); the end-of-run :meth:`SloEngine.verdict`
— computed from the same streaming state — is the authoritative answer
and is verdict-identical to the batch oracle on the seeded experiments
(``tests/test_obs_slo.py``).

The engine never touches the hot path unless attached: ``trace.slo`` is
``None`` by default and ``deliver_local`` does one attribute check.
"""

from __future__ import annotations

from math import nan
from typing import Any, Optional

from repro.metrics.sla import SlaSpec, SlaVerdict, evaluate
from repro.metrics.stats import FlowStats
from repro.obs.sketch import QuantileSketch, StreamingJitter
from repro.qos.dscp import CLASS_NAME_OF_DSCP

__all__ = ["SloStream", "SloEngine"]

#: Fraction of a window's packets allowed over the delay budget before
#: the window counts as a delay violation — the windowed p99 proxy.
WINDOW_DELAY_QUANTILE = 0.01


class SloStream:
    """Streaming state for one measurement key (a flow, or a VRF×class).

    All per-packet state is O(1) except the sketch (bounded by design);
    nothing here retains raw samples.
    """

    __slots__ = (
        "key", "spec", "window_s", "sketch", "jitter",
        "count", "bytes", "sum_delay", "max_delay", "_mean", "_m2",
        "min_seq", "max_seq", "first_t", "last_t",
        "_win_index", "_win_count", "_win_over", "_win_min_seq", "_win_max_seq",
        "first_violation_s", "violation_seconds", "worst_window",
        "windows_closed", "windows_violated",
    )

    def __init__(
        self,
        key: str,
        spec: Optional[SlaSpec] = None,
        window_s: float = 0.5,
        sketch_k: int = 2048,
    ) -> None:
        self.key = key
        self.spec = spec
        self.window_s = window_s
        self.sketch = QuantileSketch(k=sketch_k)
        self.jitter = StreamingJitter()
        self.count = 0
        self.bytes = 0
        self.sum_delay = 0.0
        self.max_delay = 0.0
        self._mean = 0.0
        self._m2 = 0.0
        self.min_seq: int | None = None
        self.max_seq: int | None = None
        self.first_t: float | None = None
        self.last_t: float | None = None
        self._win_index: int | None = None
        self._win_count = 0
        self._win_over = 0
        self._win_min_seq: int | None = None
        self._win_max_seq: int | None = None
        self.first_violation_s: float | None = None
        self.violation_seconds = 0.0
        self.worst_window: dict[str, Any] | None = None
        self.windows_closed = 0
        self.windows_violated = 0

    # ------------------------------------------------------------------
    def observe(self, now: float, delay_s: float, seq: int, wire_bytes: int) -> None:
        idx = int(now / self.window_s)
        if self._win_index is None:
            self._win_index = idx
        while idx > self._win_index:
            self._close_window()
            self._win_index += 1

        self.count += 1
        self.bytes += wire_bytes
        self.sum_delay += delay_s
        if delay_s > self.max_delay:
            self.max_delay = delay_s
        # Welford's online variance (for delay_std without raw samples).
        d = delay_s - self._mean
        self._mean += d / self.count
        self._m2 += d * (delay_s - self._mean)
        self.sketch.insert(delay_s)
        # The batch oracle derives transit = arrival − (arrival − delay),
        # which is not bit-identical to the raw delay under IEEE rounding.
        # Reproduce its arithmetic so the streaming jitter matches the
        # oracle to the last bit.
        self.jitter.update(now - (now - delay_s))
        if self.min_seq is None or seq < self.min_seq:
            self.min_seq = seq
        if self.max_seq is None or seq > self.max_seq:
            self.max_seq = seq
        if self.first_t is None:
            self.first_t = now
        self.last_t = now

        self._win_count += 1
        spec = self.spec
        if spec is not None and spec.max_p99_delay_s is not None:
            if delay_s > spec.max_p99_delay_s:
                self._win_over += 1
        if self._win_min_seq is None or seq < self._win_min_seq:
            self._win_min_seq = seq
        if self._win_max_seq is None or seq > self._win_max_seq:
            self._win_max_seq = seq

    # ------------------------------------------------------------------
    def _close_window(self) -> None:
        spec = self.spec
        wcount = self._win_count
        wover = self._win_over
        wmin, wmax = self._win_min_seq, self._win_max_seq
        self._win_count = 0
        self._win_over = 0
        self._win_min_seq = None
        self._win_max_seq = None
        if spec is None:
            return
        self.windows_closed += 1
        metrics: list[str] = []
        severity = 0.0
        if wcount == 0:
            # Silence after traffic has started is the strongest in-band
            # loss signal a receiver has (a dead LSP looks exactly like
            # this) — judge it as 100% loss if loss is committed.
            if spec.max_loss_ratio is not None:
                metrics.append("loss")
                severity = max(severity, 1.0 / spec.max_loss_ratio)
        else:
            if spec.max_p99_delay_s is not None:
                frac_over = wover / wcount
                if frac_over > WINDOW_DELAY_QUANTILE:
                    metrics.append("delay")
                    severity = max(severity, frac_over / WINDOW_DELAY_QUANTILE)
            if (
                spec.max_jitter_s is not None
                and self.jitter.count >= 2
                and self.jitter.value > spec.max_jitter_s
            ):
                metrics.append("jitter")
                severity = max(severity, self.jitter.value / spec.max_jitter_s)
            if spec.max_loss_ratio is not None and wmin is not None:
                expected = wmax - wmin + 1  # type: ignore[operator]
                loss_w = 1.0 - wcount / expected if expected > 0 else 0.0
                if loss_w > spec.max_loss_ratio:
                    metrics.append("loss")
                    severity = max(severity, loss_w / spec.max_loss_ratio)
        if not metrics:
            return
        t_start = self._win_index * self.window_s  # type: ignore[operator]
        self.windows_violated += 1
        self.violation_seconds += self.window_s
        if self.first_violation_s is None:
            self.first_violation_s = t_start
        if self.worst_window is None or severity > self.worst_window["severity"]:
            self.worst_window = {
                "t_start_s": t_start,
                "severity": round(severity, 4),
                "metrics": metrics,
            }

    def finalize(self, now: float | None = None) -> None:
        """Close the trailing window at end of run.

        With ``now`` the silent windows up to ``now`` are judged too;
        without it only the window containing the last packet is closed.
        The engine calls the latter: once traffic stops, end-of-run drain
        silence is indistinguishable from end-of-service and must not be
        booked as an outage.  *Mid-run* silence is still always counted —
        when traffic resumes, :meth:`observe` rolls over the empty
        windows and judges each one.
        """
        if self._win_index is None:
            return
        if now is not None:
            idx = int(now / self.window_s)
            while idx > self._win_index:
                self._close_window()
                self._win_index += 1
        self._close_window()

    # ------------------------------------------------------------------
    @property
    def mean_delay_s(self) -> float:
        return self.sum_delay / self.count if self.count else nan

    @property
    def delay_std_s(self) -> float:
        return (self._m2 / self.count) ** 0.5 if self.count else nan

    def quantile(self, q: float) -> float:
        return self.sketch.query(q)

    def inband_loss_ratio(self) -> float:
        """Loss estimated from sequence gaps (no generator needed)."""
        if self.count == 0 or self.min_seq is None:
            return nan
        expected = self.max_seq - self.min_seq + 1  # type: ignore[operator]
        return 1.0 - self.count / expected if expected > 0 else 0.0

    def stats(self, flow: str, sent: int, duration_s: float | None = None) -> FlowStats:
        """A :class:`FlowStats` built from streaming state, mirroring
        :func:`repro.metrics.stats.summarize_flow` — including its NaN
        semantics for empty streams — so the same SLA evaluator applies."""
        if duration_s is None:
            duration_s = (
                float(self.last_t - self.first_t)  # type: ignore[operator]
                if self.count >= 2
                else 0.0
            )
        if self.count == 0:
            return FlowStats(
                flow=flow, sent=sent, received=0,
                mean_delay_s=nan, p50_delay_s=nan, p95_delay_s=nan,
                p99_delay_s=nan, max_delay_s=nan, jitter_rfc3550_s=nan,
                delay_std_s=nan, loss_ratio=1.0 if sent else 0.0,
                throughput_bps=0.0, duration_s=duration_s or 0.0,
            )
        loss = 1.0 - self.count / sent if sent else 0.0
        thru = self.bytes * 8.0 / duration_s if duration_s > 0 else 0.0
        return FlowStats(
            flow=flow,
            sent=sent,
            received=self.count,
            mean_delay_s=self.mean_delay_s,
            p50_delay_s=self.quantile(50),
            p95_delay_s=self.quantile(95),
            p99_delay_s=self.quantile(99),
            max_delay_s=self.max_delay,
            jitter_rfc3550_s=self.jitter.value if self.count >= 2 else 0.0,
            delay_std_s=self.delay_std_s,
            loss_ratio=max(0.0, loss),
            throughput_bps=thru,
            duration_s=duration_s,
        )

    def row(self) -> dict[str, Any]:
        """Flat live-report row (table / sweep / JSON friendly)."""
        fv = self.first_violation_s
        worst = self.worst_window
        return {
            "key": self.key,
            "spec": self.spec.name if self.spec else "",
            "recv": self.count,
            "p50_ms": round(1e3 * self.quantile(50), 3) if self.count else nan,
            "p95_ms": round(1e3 * self.quantile(95), 3) if self.count else nan,
            "p99_ms": round(1e3 * self.quantile(99), 3) if self.count else nan,
            "jitter_ms": round(1e3 * self.jitter.value, 3),
            "inband_loss%": (
                round(100 * self.inband_loss_ratio(), 3) if self.count else nan
            ),
            "first_viol_s": round(fv, 3) if fv is not None else "",
            "viol_s": round(self.violation_seconds, 3),
            "worst_win": (
                f"{worst['t_start_s']:.2f}s:{'+'.join(worst['metrics'])}"
                if worst
                else ""
            ),
        }


class SloEngine:
    """Per-network live SLO state: a :class:`SloStream` per flow and per
    VRF×class, fed by ``Node.deliver_local`` through ``trace.slo``.

    VRF attribution happens at the delivery node — register receiver
    nodes with :meth:`map_node_vrf` — so the PE forwarding pipeline is
    never touched.  Flows named ``__heal*``/``__probe*`` (the tracer's
    healing probes and ProbeAgent streams) are synthetic measurement
    traffic and are excluded from customer streams.
    """

    def __init__(self, sim, window_s: float = 0.5, sketch_k: int = 2048) -> None:
        self.sim = sim
        self.window_s = window_s
        self.sketch_k = sketch_k
        self.flows: dict[Any, SloStream] = {}
        self.classes: dict[tuple[str, str], SloStream] = {}
        self._flow_specs: dict[Any, SlaSpec] = {}
        self._node_vrf: dict[str, str] = {}
        self.delivered = 0
        #: flow -> {"packets", "bytes", "delay_s"} analytic deliveries
        #: reported by a FluidRouter for fully-fluid aggregates.
        self.fluid: dict[Any, dict[str, Any]] = {}

    # -- configuration --------------------------------------------------
    def bind(self, flow: Any, spec: SlaSpec) -> None:
        """Commit ``spec`` for ``flow`` (continuous windowed checking)."""
        self._flow_specs[flow] = spec
        stream = self.flows.get(flow)
        if stream is not None:
            stream.spec = spec

    def map_node_vrf(self, node_name: str, vrf: str) -> None:
        """Attribute deliveries at ``node_name`` to ``vrf`` for the
        per-VRF×class aggregate streams."""
        self._node_vrf[node_name] = vrf

    def attach(self, net) -> "SloEngine":
        net.trace.slo = self
        return self

    def detach(self, net) -> None:
        if getattr(net.trace, "slo", None) is self:
            net.trace.slo = None

    # -- hot path (only when attached) ----------------------------------
    def deliver(self, now: float, node_name: str, pkt) -> None:
        """TraceBus.slo protocol: called once per local delivery."""
        original = pkt
        while original.inner is not None:
            original = original.inner
        flow = original.flow
        if isinstance(flow, str) and flow.startswith(("__heal", "__probe")):
            return
        self.delivered += 1
        delay = now - original.created
        stream = self.flows.get(flow)
        if stream is None:
            stream = self.flows[flow] = SloStream(
                str(flow), self._flow_specs.get(flow),
                self.window_s, self.sketch_k,
            )
        size = original._wire or original.wire_bytes
        stream.observe(now, delay, original.seq, size)
        vrf = self._node_vrf.get(node_name)
        if vrf is not None:
            cls = CLASS_NAME_OF_DSCP[original.ip.dscp]
            ckey = (vrf, cls)
            cstream = self.classes.get(ckey)
            if cstream is None:
                cstream = self.classes[ckey] = SloStream(
                    f"{vrf}×{cls}", None,
                    self.window_s, self.sketch_k,
                )
            cstream.observe(now, delay, original.seq, size)

    def account_fluid(
        self, flow: Any, *, packets: int, bytes_: int, delay_s: float, now: float
    ) -> None:
        """Fold a fluid-regime delivery delta into the engine.

        Called by :class:`repro.traffic.fluid.FluidRouter` once per
        envelope epoch for aggregates that stayed fully fluid.  Analytic
        deliveries are tallied separately from packet streams — they
        carry a single deterministic delay, so pushing them through the
        windowed conformance sketches would only dilute the percentile
        state real packets earned.  ``summary()`` exposes them under
        ``"fluid"`` so manifests show the merged picture.
        """
        rec = self.fluid.get(flow)
        if rec is None:
            rec = self.fluid[flow] = {
                "packets": 0, "bytes": 0, "delay_s": delay_s, "last_s": now,
            }
        rec["packets"] += packets
        rec["bytes"] += bytes_
        rec["delay_s"] = delay_s
        rec["last_s"] = now

    # -- reporting ------------------------------------------------------
    def finalize(self) -> None:
        """Close trailing windows on every stream (call once, at end).

        Deliberately does *not* judge the silence between each stream's
        last packet and the end of the run — see
        :meth:`SloStream.finalize`."""
        for stream in self.flows.values():
            stream.finalize()
        for stream in self.classes.values():
            stream.finalize()

    def stats(self, flow: Any, sent: int, duration_s: float | None = None) -> FlowStats:
        stream = self.flows.get(flow)
        if stream is None:
            stream = SloStream(str(flow), None, self.window_s, self.sketch_k)
        return stream.stats(str(flow), sent, duration_s)

    def verdict(
        self,
        flow: Any,
        sent: int,
        duration_s: float | None = None,
        spec: SlaSpec | None = None,
    ) -> SlaVerdict:
        """End-of-run authoritative verdict from streaming state, via the
        same :func:`repro.metrics.sla.evaluate` as the batch path."""
        if spec is None:
            spec = self._flow_specs[flow]
        return evaluate(spec, self.stats(flow, sent, duration_s))

    def report(self) -> list[dict[str, Any]]:
        """Live rows: one per flow stream, then one per VRF×class."""
        rows = [s.row() for _k, s in sorted(self.flows.items(), key=lambda kv: str(kv[0]))]
        rows.extend(s.row() for _k, s in sorted(self.classes.items()))
        return rows

    def summary(self) -> dict[str, Any]:
        """JSON-able manifest fragment: conformance state per bound stream."""
        streams: dict[str, Any] = {}
        for _key, stream in sorted(self.flows.items(), key=lambda kv: str(kv[0])):
            if stream.spec is None:
                continue
            streams[stream.key] = {
                "spec": stream.spec.name,
                "received": stream.count,
                "first_violation_s": stream.first_violation_s,
                "violation_seconds": round(stream.violation_seconds, 6),
                "windows_closed": stream.windows_closed,
                "windows_violated": stream.windows_violated,
                "worst_window": stream.worst_window,
            }
        out: dict[str, Any] = {
            "window_s": self.window_s,
            "sketch_k": self.sketch_k,
            "delivered": self.delivered,
            "flows": len(self.flows),
            "class_streams": len(self.classes),
            "streams": streams,
        }
        if self.fluid:
            out["fluid"] = {
                str(flow): {
                    "packets": rec["packets"],
                    "bytes": rec["bytes"],
                    "delay_s": round(rec["delay_s"], 9),
                }
                for flow, rec in sorted(
                    self.fluid.items(), key=lambda kv: str(kv[0])
                )
            }
        return out
