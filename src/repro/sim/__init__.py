"""Discrete-event simulation kernel: scheduler, RNG streams, tracing."""

from repro.sim.engine import (
    Event,
    Periodic,
    SimulationError,
    Simulator,
    Timer,
)
from repro.sim.randomness import RandomStreams
from repro.sim.trace import Counter, TraceBus, TraceRecord

__all__ = [
    "Event",
    "Periodic",
    "SimulationError",
    "Simulator",
    "Timer",
    "RandomStreams",
    "Counter",
    "TraceBus",
    "TraceRecord",
]
