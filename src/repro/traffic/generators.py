"""Open-loop traffic generators.

The experiment mixes follow the paper's motivating workloads: voice needs
EF (constant-bit-rate, small packets, tight delay/jitter), transactional
data needs AF (bursty on–off), and bulk/best-effort fills whatever is left
(greedy CBR at overload).  Generators are event-driven — each emission
schedules the next — and take a named RNG stream so traffic is identical
across configuration A/B runs (see repro.sim.randomness).

Every emission builds a new :class:`~repro.net.packet.Packet`, which the
far end's sinks own once it is delivered.  Sources emitting back-to-back
trains can pass ``burst > 1`` to amortise one scheduler event over the
whole train instead of paying one per packet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.net.address import IPv4Address
from repro.net.packet import IPHeader, Packet
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = [
    "TrafficSource",
    "CbrSource",
    "PoissonSource",
    "OnOffSource",
    "ParetoOnOffSource",
    "voice_source",
]

SendFn = Callable[[Packet], None]


class TrafficSource:
    """Base generator: identity, addressing, lifecycle, accounting.

    Parameters
    ----------
    sim:
        Simulation kernel.
    send:
        Callable injecting a packet into the network (usually
        ``host.send``).
    flow:
        Flow identifier stamped on every packet (sinks filter on it).
    src / dst:
        Addresses for the IP header.
    payload_bytes:
        L4 payload per packet.
    dscp / proto / ports:
        Header marking; DSCP 0 models an unmarked customer ("the CPE
        marks" scenarios instead install a marker conditioner).
    """

    def __init__(
        self,
        sim: Simulator,
        send: SendFn,
        flow: str,
        src: IPv4Address | str,
        dst: IPv4Address | str,
        payload_bytes: int = 1000,
        dscp: int = 0,
        proto: str = "udp",
        src_port: int = 0,
        dst_port: int = 0,
        burst: int = 1,
    ) -> None:
        self.sim = sim
        self._send = send
        self.flow = flow
        self.src = IPv4Address.parse(src)
        self.dst = IPv4Address.parse(dst)
        self.payload_bytes = payload_bytes
        self.dscp = dscp
        self.proto = proto
        self.src_port = src_port
        self.dst_port = dst_port
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self.burst = burst
        self.sent = 0
        self.bytes_sent = 0
        self._running = False
        self._stop_at: float | None = None
        # Vector emission: when ``send`` is a node's stock bound ``send``
        # and the node offers ``send_batch`` (Host does), a multi-packet
        # train is injected with one call instead of one per packet.
        # Customized send callables (test sinks, wrappers) always get the
        # scalar per-packet path.
        self._send_batch: Callable[[list[Packet]], None] | None = None
        owner = getattr(send, "__self__", None)
        if owner is not None and getattr(send, "__func__", None) is getattr(
            type(owner), "send", None
        ):
            from repro.obs.runtime import vector_mode_enabled

            if vector_mode_enabled():
                self._send_batch = getattr(owner, "send_batch", None)

    # ------------------------------------------------------------------
    def start(self, at: float = 0.0, stop_at: float | None = None) -> None:
        """Begin emitting at time ``at``; stop after ``stop_at`` if given."""
        self._stop_at = stop_at
        self._running = True
        self.sim.schedule_at(max(at, self.sim.now), self._emit)

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    def _make_packet(self, now: float) -> Packet:
        header = IPHeader(
            src=self.src,
            dst=self.dst,
            dscp=self.dscp,
            proto=self.proto,
            src_port=self.src_port,
            dst_port=self.dst_port,
        )
        return Packet(
            ip=header,
            payload_bytes=self.payload_bytes,
            flow=self.flow,
            seq=self.sent,
            created=now,
        )

    def _emit(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        if self._stop_at is not None and now >= self._stop_at:
            self._running = False
            return
        # One wake-up emits the whole burst (a back-to-back train shares
        # the timestamp) and schedules a single follow-up event; the gaps
        # the train would have consumed are summed into that one delay.
        gap: Optional[float] = None
        send_batch = self._send_batch
        if send_batch is not None and self.burst > 1:
            # Vector emission: build the train, inject it with one call.
            # Packet contents, seq numbers, and RNG draws are identical to
            # the scalar interleave — a gap draw neither reads nor affects
            # anything a send touches.
            train: list[Packet] = []
            append = train.append
            make = self._make_packet
            next_gap = self.next_gap
            for _ in range(self.burst):
                pkt = make(now)
                self.sent += 1
                self.bytes_sent += pkt.wire_bytes
                append(pkt)
                step = next_gap()
                if step is None:
                    gap = None
                    break
                gap = step if gap is None else gap + step
            if len(train) == 1:
                self._send(train[0])
            else:
                send_batch(train)
            if gap is not None:
                self.sim.schedule(gap, self._emit)
            return
        for _ in range(self.burst):
            pkt = self._make_packet(now)
            self.sent += 1
            self.bytes_sent += pkt.wire_bytes
            self._send(pkt)
            step = self.next_gap()
            if step is None:
                gap = None
                break
            gap = step if gap is None else gap + step
        if gap is not None:
            self.sim.schedule(gap, self._emit)

    def next_gap(self) -> Optional[float]:
        """Seconds until the next emission; None ends the flow."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    @property
    def offered_rate_bps(self) -> float:
        """Nominal offered load (subclasses refine)."""
        raise NotImplementedError


class CbrSource(TrafficSource):
    """Constant bit rate: fixed inter-packet gap."""

    def __init__(self, *args, rate_bps: float = 64e3, **kw) -> None:
        super().__init__(*args, **kw)
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.rate_bps = rate_bps

    def next_gap(self) -> float:
        # Gap derived from the *wire* size so offered load is exact.
        wire = self.payload_bytes + 20
        return wire * 8.0 / self.rate_bps

    @property
    def offered_rate_bps(self) -> float:
        return self.rate_bps


class PoissonSource(TrafficSource):
    """Poisson arrivals: exponential gaps at a mean rate."""

    def __init__(self, *args, rate_bps: float = 1e6, rng: np.random.Generator, **kw) -> None:
        super().__init__(*args, **kw)
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.rate_bps = rate_bps
        self.rng = rng
        wire = self.payload_bytes + 20
        self._mean_gap = wire * 8.0 / rate_bps

    def next_gap(self) -> float:
        return float(self.rng.exponential(self._mean_gap))

    @property
    def offered_rate_bps(self) -> float:
        return self.rate_bps


class OnOffSource(TrafficSource):
    """Markov on–off: exponential on/off sojourns, CBR at ``peak_bps`` while on.

    Mean rate = peak · on/(on+off).  The standard bursty-data model.
    """

    def __init__(
        self,
        *args,
        peak_bps: float = 2e6,
        mean_on_s: float = 0.1,
        mean_off_s: float = 0.4,
        rng: np.random.Generator,
        **kw,
    ) -> None:
        super().__init__(*args, **kw)
        if peak_bps <= 0 or mean_on_s <= 0 or mean_off_s < 0:
            raise ValueError("invalid on-off parameters")
        self.peak_bps = peak_bps
        self.mean_on_s = mean_on_s
        self.mean_off_s = mean_off_s
        self.rng = rng
        self._burst_remaining = 0.0

    def _draw_burst(self) -> None:
        self._burst_remaining = float(self.rng.exponential(self.mean_on_s))

    def next_gap(self) -> float:
        wire = self.payload_bytes + 20
        gap = wire * 8.0 / self.peak_bps
        if self._burst_remaining <= 0.0:
            self._draw_burst()
            off = float(self.rng.exponential(self.mean_off_s)) if self.mean_off_s > 0 else 0.0
            self._burst_remaining -= gap
            return off + gap
        self._burst_remaining -= gap
        return gap

    @property
    def offered_rate_bps(self) -> float:
        duty = self.mean_on_s / (self.mean_on_s + self.mean_off_s)
        return self.peak_bps * duty


class ParetoOnOffSource(OnOffSource):
    """Heavy-tailed on–off (Pareto sojourns): self-similar aggregate traffic.

    ``shape`` must exceed 1 for a finite mean; 1.5 is the classic choice
    that produces long-range dependence in the aggregate.
    """

    def __init__(self, *args, shape: float = 1.5, **kw) -> None:
        super().__init__(*args, **kw)
        if shape <= 1.0:
            raise ValueError("Pareto shape must exceed 1 for a finite mean")
        self.shape = shape

    def _pareto(self, mean: float) -> float:
        # Lomax/Pareto-II with given mean: scale = mean * (shape - 1).
        scale = mean * (self.shape - 1.0)
        return float(self.rng.pareto(self.shape) * scale)

    def _draw_burst(self) -> None:
        self._burst_remaining = self._pareto(self.mean_on_s)

    def next_gap(self) -> float:
        wire = self.payload_bytes + 20
        gap = wire * 8.0 / self.peak_bps
        if self._burst_remaining <= 0.0:
            self._draw_burst()
            off = self._pareto(self.mean_off_s) if self.mean_off_s > 0 else 0.0
            self._burst_remaining -= gap
            return off + gap
        self._burst_remaining -= gap
        return gap


def voice_source(
    sim: Simulator,
    send: SendFn,
    flow: str,
    src: IPv4Address | str,
    dst: IPv4Address | str,
    dscp: int = 46,
) -> CbrSource:
    """G.711-like voice: 160-byte payload every 20 ms (64 kbps codec)."""
    return CbrSource(
        sim, send, flow, src, dst,
        payload_bytes=160, dscp=dscp, proto="udp", dst_port=5004,
        rate_bps=(160 + 20) * 8 / 0.020,
    )
