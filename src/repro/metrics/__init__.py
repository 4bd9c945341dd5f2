"""Measurement: flow statistics, SLA conformance, result tables."""

from repro._exports import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "sla": ("BEST_EFFORT_SLA", "DATA_SLA", "VOICE_SLA", "SlaSpec", "SlaVerdict", "evaluate"),
    "probes": ("ProbeAgent",),
    "stats": ("FlowStats", "rfc3550_jitter", "summarize_flow", "summarize_hybrid_flow"),
    "timeseries": ("TimeSeries", "attach_flow_series", "attach_link_series"),
    "table": ("print_table", "render_table"),
})
