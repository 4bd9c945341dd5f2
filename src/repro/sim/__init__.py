"""Discrete-event simulation kernel: scheduler, RNG streams, tracing."""

from repro._exports import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "engine": ("Event", "Periodic", "SimulationError", "Simulator", "Timer"),
    "randomness": ("RandomStreams",),
    "trace": ("Counter", "TraceBus", "TraceRecord"),
})
