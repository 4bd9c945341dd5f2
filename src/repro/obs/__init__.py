"""Unified observability layer (the backbone's "NMS").

Everything the simulator can measure flows through this package:

* :mod:`repro.obs.registry` — labeled counter/gauge/histogram families
  with JSON and Prometheus-text exporters.
* :mod:`repro.obs.profiler` — sampling kernel profiler for the event loop
  (per-kind dispatch counts, callback wall time, heap depth).
* :mod:`repro.obs.flightrec` — bounded per-hop packet flight recorder
  (enqueue/dequeue/label ops/drops) for post-mortem path reconstruction.
* :mod:`repro.obs.flows` — NetFlow-style per-PE/per-VRF/per-class
  accounting at VPN ingress and egress.
* :mod:`repro.obs.telemetry` — one session object tying the above to a
  :class:`~repro.topology.Network` and emitting a run manifest.
* :mod:`repro.obs.runtime` — process-wide enable/disable switch the CLI
  uses so experiments need no signature changes.
* :mod:`repro.obs.sketch` — bounded-memory streaming estimators
  (deterministic compacting quantile sketch, RFC 3550 jitter).
* :mod:`repro.obs.slo` — live SLO engine: continuous windowed SLA
  conformance per flow and per VRF×class over the streaming estimators.
* :mod:`repro.obs.spans` — convergence tracer: causal span chains from
  link state change to first correctly-forwarded packet.

Everything is strictly opt-in: with telemetry disabled the only residue on
the hot paths is a ``None`` check (same budget as the TraceBus fast path).
"""

from repro._exports import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "flightrec": ("FlightRecorder", "HopRecord"),
    "flows": ("FlowAccountant",),
    "profiler": ("KernelProfiler",),
    "registry": ("MetricsRegistry",),
    "sketch": ("QuantileSketch", "StreamingJitter"),
    "slo": ("SloEngine", "SloStream"),
    "spans": ("ConvergenceTracer", "HealingWatch", "Span"),
    "telemetry": ("Telemetry", "TelemetryAttachError"),
})
