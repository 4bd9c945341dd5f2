"""Traffic generation and collection."""

from repro._exports import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "elastic": ("ElasticSource",),
    "fluid": ("FluidAggregate", "FluidPath", "FluidRouter", "PacketExpander"),
    "generators": (
        "CbrSource", "OnOffSource", "ParetoOnOffSource", "PoissonSource",
        "TrafficSource", "voice_source",
    ),
    "sink": ("FlowRecord", "FlowSink"),
})
