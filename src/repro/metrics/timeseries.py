"""Time-binned measurement series.

The paper's figures are diagrams, but a production reproduction needs
*figure-shaped* output too: per-link utilization over time, per-class
throughput over time, recovery transients.  :class:`TimeSeries` is a
fixed-bin accumulator (NumPy array underneath) and
:func:`attach_link_series` taps an interface's transmissions into one —
enabling the E11-style "goodput vs time across a failure" figure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.link import Interface
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["TimeSeries", "attach_link_series", "attach_flow_series"]


class TimeSeries:
    """Fixed-width-bin accumulator over a [0, horizon) window.

    Values landing past the horizon extend the array (amortized growth),
    so a slightly-longer-than-planned run never crashes measurement.
    """

    def __init__(self, bin_s: float, horizon_s: float = 10.0) -> None:
        if bin_s <= 0 or horizon_s <= 0:
            raise ValueError("bin and horizon must be positive")
        import numpy as np

        self.bin_s = float(bin_s)
        self._bins = np.zeros(int(np.ceil(horizon_s / bin_s)) + 1)

    def add(self, t: float, value: float) -> None:
        """Accumulate ``value`` into the bin containing time ``t``."""
        if t < 0:
            raise ValueError("negative time")
        idx = int(t / self.bin_s)
        if idx >= len(self._bins):
            import numpy as np

            grown = np.zeros(idx + 16)
            grown[: len(self._bins)] = self._bins
            self._bins = grown
        self._bins[idx] += value

    # ------------------------------------------------------------------
    def totals(self) -> np.ndarray:
        """Raw per-bin sums."""
        return self._bins.copy()

    def rate(self) -> np.ndarray:
        """Per-bin sums divided by bin width (value/second series)."""
        return self._bins / self.bin_s

    def times(self) -> np.ndarray:
        """Left edge of each bin."""
        import numpy as np

        return np.arange(len(self._bins)) * self.bin_s

    def nonzero_span(self) -> tuple[float, float]:
        """(first, last) bin-start times carrying any value (0,0 if none)."""
        idx = self._bins.nonzero()[0]
        if len(idx) == 0:
            return (0.0, 0.0)
        return (float(idx[0] * self.bin_s), float(idx[-1] * self.bin_s))

    def __len__(self) -> int:
        return len(self._bins)


def attach_link_series(
    iface: Interface, bin_s: float = 0.1, horizon_s: float = 10.0
) -> TimeSeries:
    """Record an interface's transmitted bits into a new series.

    Implemented as an egress conditioner that never modifies the packet —
    it sees the packet at enqueue time, which for utilization purposes is
    equivalent at our bin widths.
    """
    series = TimeSeries(bin_s, horizon_s)

    def _tap(pkt: Packet, now: float):
        series.add(now, pkt.wire_bytes * 8)
        return pkt

    iface.add_conditioner(_tap)
    return series


def attach_flow_series(
    sink, flow, bin_s: float = 0.1, horizon_s: float = 10.0
):
    """Per-flow delivered-bits series from a :class:`FlowSink`'s arrivals.

    Returns the series; call after creating the sink but before traffic.
    """
    from repro.traffic.sink import FlowSink  # local import, avoid cycle

    assert isinstance(sink, FlowSink)
    series = TimeSeries(bin_s, horizon_s)
    original = sink.on_delivery

    def tapped(pkt: Packet) -> None:
        original(pkt)
        inner = pkt.innermost()
        if inner.flow == flow:
            series.add(sink.sim.now, inner.wire_bytes * 8)

    # Replace the bound method used by future attaches; nodes already
    # holding the old callback keep working because we wrap, not rebind.
    sink.on_delivery = tapped  # type: ignore[method-assign]
    return series
