"""Hybrid fluid/packet traffic plane: flow aggregates as rate envelopes.

The packet-level plane simulates every packet of every flow, so E2-class
QoS experiments top out at thousands of flows while E1 provisions 1000
sites.  This module adds the classic hybrid-simulation speedup: a
:class:`FluidAggregate` bundles many CBR/Poisson/on-off sources for one
(VRF, class, src→dst) tuple into a piecewise-constant *rate envelope*;
a :class:`FluidRouter` propagates envelopes along the already-computed
forwarding paths, charging link utilization analytically
(:meth:`repro.net.link.Interface.set_fluid_load`) and decrementing
nothing per packet.  Where the summed envelope rate exceeds a
configurable *headroom* fraction of a link's capacity — i.e. where
queueing actually decides loss/delay/jitter — a :class:`PacketExpander`
materializes real packets from the envelope and hands them to the
existing forwarding path (``Node.receive`` → ``ForwardingPipeline``),
so DiffServ queues, RED, shapers, and the SLO engine see genuine
packets exactly where it matters.

Envelope epochs ride the same event heap as packet events
(:meth:`repro.sim.engine.Simulator.every`), so fluid and packet state
stay causally ordered on one clock.  Determinism: all stochastic
envelope redraws come from named RNG streams
(:class:`repro.sim.randomness.RandomStreams`), so hybrid runs are
exactly repeatable and variance-isolated from the packet plane's draws.

What hybrid mode preserves, and what it abstracts (the parity contract
of ``tests/test_hybrid_parity.py``; see docs/ARCHITECTURE.md §12):

* Packets that cross a congested hop are *real* from the first such hop
  onward — their creation timestamps reproduce the source's emission
  schedule exactly (a virtual creation clock, offset by the analytic
  delay of the fluid prefix), so end-to-end delay distributions are
  comparable to pure-packet runs.
* On uncongested fluid segments, per-packet queueing noise is replaced
  by the analytic serialization + propagation delay; burstiness *within*
  an epoch is replaced by the envelope's constant rate.  Hybrid is
  therefore bit-inexact by design — it must only agree within the
  documented tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.net.address import IPv4Address
from repro.net.link import Interface
from repro.net.packet import IPHeader, Packet
from repro.sim.engine import Periodic, Simulator

__all__ = ["FluidAggregate", "PacketExpander", "FluidRouter", "FluidPath"]

#: Default fraction of link capacity the fluid plane may occupy before
#: aggregates crossing that link are expanded to real packets.
DEFAULT_HEADROOM = 0.85

#: Default envelope epoch length (seconds): how often stochastic
#: envelopes are redrawn and expansion points re-evaluated.
DEFAULT_UPDATE_S = 0.1


class FluidAggregate:
    """``n_flows`` homogeneous open-loop sources as one rate envelope.

    Parameters mirror :class:`repro.traffic.generators.TrafficSource`
    plus the aggregate shape:

    ``kind``
        ``"cbr"`` — constant ``n_flows * rate_bps`` envelope;
        ``"poisson"`` — same constant *mean* envelope (the fluid
        abstraction keeps only the mean; Poisson packetization noise is
        reintroduced at measurement points only if the aggregate is
        expanded);
        ``"onoff"`` — each epoch redraws the number of active sources
        ``~ Binomial(n_flows, duty)`` with ``duty = mean_on/(mean_on +
        mean_off)``, giving a piecewise-constant envelope at
        ``active * peak_bps``.  Requires ``rng`` (a named stream).

    Accounting is split by regime: while *fluid*, offered load is
    integrated analytically (``fluid_delivered_packets/bytes`` — no loss
    by construction, since expansion happens before any link the fluid
    plane would congest); while *expanded*, the expander's real packets
    carry the counts and losses happen in real queues.  ``sent`` is the
    merged offered-packet total, comparable to a ``TrafficSource.sent``.
    """

    def __init__(
        self,
        sim: Simulator,
        flow: str,
        src: IPv4Address | str,
        dst: IPv4Address | str,
        *,
        n_flows: int = 1,
        payload_bytes: int = 1000,
        dscp: int = 0,
        proto: str = "udp",
        src_port: int = 0,
        dst_port: int = 0,
        kind: str = "cbr",
        rate_bps: float | None = None,
        peak_bps: float | None = None,
        mean_on_s: float = 0.1,
        mean_off_s: float = 0.4,
        rng: Any = None,
    ) -> None:
        if kind not in ("cbr", "poisson", "onoff"):
            raise ValueError(f"unknown fluid kind {kind!r}")
        if n_flows < 1:
            raise ValueError("n_flows must be at least 1")
        if kind in ("cbr", "poisson"):
            if rate_bps is None or rate_bps <= 0:
                raise ValueError(f"{kind} aggregate needs a positive rate_bps")
        else:
            if peak_bps is None or peak_bps <= 0:
                raise ValueError("onoff aggregate needs a positive peak_bps")
            if mean_on_s <= 0 or mean_off_s < 0:
                raise ValueError("invalid on-off parameters")
            if rng is None:
                raise ValueError("onoff aggregate needs a named RNG stream")
        self.sim = sim
        self.flow = flow
        self.src = IPv4Address.parse(src)
        self.dst = IPv4Address.parse(dst)
        self.n_flows = n_flows
        self.payload_bytes = payload_bytes
        self.dscp = dscp
        self.proto = proto
        self.src_port = src_port
        self.dst_port = dst_port
        self.kind = kind
        self.rate_bps = rate_bps
        self.peak_bps = peak_bps
        self.mean_on_s = mean_on_s
        self.mean_off_s = mean_off_s
        self.rng = rng
        self.wire_bytes = payload_bytes + 20
        #: Current envelope rate (bps); piecewise constant between epochs.
        self.rate_now = self._mean_rate() if kind != "onoff" else 0.0
        #: Analytic end-to-end path delay, set by the owning FluidRouter.
        self.analytic_delay_s = 0.0
        # -- fluid-regime accounting (whole packets surface lazily) ----
        self._fluid_pkts = 0.0     # fractional offered-packet integral
        self._fluid_bits = 0.0
        self._slo_reported = 0     # packets already pushed to the SLO engine
        # -- expanded-regime accounting (bumped by the PacketExpander) --
        self.expanded_sent = 0
        self.expanded_bytes = 0

    # ------------------------------------------------------------------
    def _mean_rate(self) -> float:
        if self.kind in ("cbr", "poisson"):
            return self.n_flows * float(self.rate_bps)
        duty = self.mean_on_s / (self.mean_on_s + self.mean_off_s)
        return self.n_flows * float(self.peak_bps) * duty

    @property
    def offered_rate_bps(self) -> float:
        """Nominal mean offered load (same contract as TrafficSource)."""
        return self._mean_rate()

    def update_envelope(self) -> float:
        """Redraw the envelope rate for the coming epoch; returns it.

        Deterministic given the named stream — the draw order is one
        binomial per epoch per on-off aggregate, independent of the
        packet plane.
        """
        if self.kind == "onoff":
            duty = self.mean_on_s / (self.mean_on_s + self.mean_off_s)
            active = int(self.rng.binomial(self.n_flows, duty))
            self.rate_now = active * float(self.peak_bps)
        return self.rate_now

    # ------------------------------------------------------------------
    def account_fluid(self, dt: float) -> None:
        """Integrate one epoch of fully-fluid delivery at ``rate_now``."""
        if dt <= 0.0 or self.rate_now <= 0.0:
            return
        bits = self.rate_now * dt
        self._fluid_bits += bits
        self._fluid_pkts += bits / (self.wire_bytes * 8.0)

    @property
    def fluid_delivered_packets(self) -> int:
        return int(self._fluid_pkts)

    @property
    def fluid_delivered_bytes(self) -> int:
        return int(self._fluid_bits / 8.0)

    @property
    def sent(self) -> int:
        """Merged offered-packet count across both regimes."""
        return self.expanded_sent + int(self._fluid_pkts)

    @property
    def bytes_sent(self) -> int:
        return self.expanded_bytes + self.fluid_delivered_bytes


class PacketExpander:
    """Materializes real packets from an aggregate's envelope.

    Event-driven like a :class:`~repro.traffic.generators.TrafficSource`,
    but with a *virtual creation clock*: ``created`` stamps advance on
    the source's nominal emission grid (``start``, ``start + gap``, ...)
    while the emission events fire ``upstream_delay_s`` later — the
    analytic serialization + propagation delay of the fluid prefix — and
    inject at the expansion node's ``receive`` exactly where the packets
    would have arrived in a pure-packet run.  Sink-measured delay
    therefore spans the fluid prefix too, and for a CBR aggregate the
    emitted train is *identical* (timing, seq, headers) to the scalar
    source's.
    """

    def __init__(self, agg: FluidAggregate) -> None:
        self.agg = agg
        self.sim = agg.sim
        self._inject: Callable[[Packet], None] | None = None
        self.upstream_delay_s = 0.0
        self._vtime = 0.0
        self._stop_at: float | None = None
        self._running = False

    # ------------------------------------------------------------------
    def target(
        self, inject: Callable[[Packet], None], upstream_delay_s: float
    ) -> None:
        """(Re)point the expander at an injection site.

        ``inject`` is ``host.send`` when expanding at the source, or a
        bound ``node.receive(pkt, ifname)`` wrapper when expanding at an
        interior hop.  Retargeting mid-run keeps the creation clock — the
        offered schedule is a property of the aggregate, not the site.
        """
        self._inject = inject
        self.upstream_delay_s = upstream_delay_s

    def start(self, at: float, stop_at: float | None = None) -> None:
        """(Re)activate; creation clock resumes at ``max(at, clock)``."""
        if self._vtime < at:
            self._vtime = at
        self._stop_at = stop_at
        if not self._running:
            self._running = True
            self._schedule_next()

    def deactivate(self) -> None:
        """Stop emitting (the aggregate went fully fluid or the run ended)."""
        self._running = False

    @property
    def active(self) -> bool:
        return self._running

    # ------------------------------------------------------------------
    def _schedule_next(self) -> None:
        t = self._vtime + self.upstream_delay_s
        now = self.sim.now
        self.sim.schedule(t - now if t > now else 0.0, self._emit)

    def _emit(self) -> None:
        if not self._running:
            return
        agg = self.agg
        vt = self._vtime
        if self._stop_at is not None and vt >= self._stop_at:
            self._running = False
            return
        rate = agg.rate_now
        if rate <= 0.0:
            # Envelope at zero: park.  The router re-arms via start() at
            # the next epoch whose redraw brings the rate back up.
            self._running = False
            return
        header = IPHeader(
            src=agg.src, dst=agg.dst, dscp=agg.dscp, proto=agg.proto,
            src_port=agg.src_port, dst_port=agg.dst_port,
        )
        pkt = Packet(
            ip=header, payload_bytes=agg.payload_bytes, flow=agg.flow,
            seq=agg.expanded_sent, created=vt,
        )
        agg.expanded_sent += 1
        agg.expanded_bytes += pkt.wire_bytes
        # Advance the creation clock *before* injecting: forwarding may
        # mutate the packet synchronously (an LSR pushes its label during
        # receive), and the emission grid must use the source wire size —
        # exactly what CbrSource.next_gap charges.
        self._vtime = vt + agg.wire_bytes * 8.0 / rate
        self._inject(pkt)
        self._schedule_next()


#: One directed hop of a fluid path: the egress interface, the link's
#: propagation delay, and the far end (node + arrival ifname).
_Hop = tuple[Interface, float, Any, str]


@dataclass
class FluidPath:
    """One aggregate's routed path plus its current expansion state."""

    agg: FluidAggregate
    hops: list[_Hop]
    src_host: Any
    expand: str = "auto"          # "auto" | "source" | "never"
    expand_at_sink: bool = False  # force real packets at the last hop
    expander: PacketExpander | None = field(default=None, repr=False)
    #: Index of the hop whose queue sees real packets (None = fully fluid).
    exp_index: int | None = None


class FluidRouter:
    """Propagates envelopes along forwarding paths; owns expansion.

    The router is the fluid plane's control loop.  Once per epoch
    (:meth:`repro.sim.engine.Simulator.every`) it:

    1. *accounts* the closing epoch — fully-fluid aggregates integrate
       offered = delivered analytically (and stream the per-aggregate
       deltas into an attached :class:`repro.obs.slo.SloEngine`);
    2. *redraws* each aggregate's envelope from its named RNG stream;
    3. *reprograms* the plane: per-interface committed rates are summed
       over all aggregates' full paths, each aggregate expands at its
       first hop whose committed rate exceeds ``headroom × capacity``
       (conservative: an expanded aggregate's packets load the link just
       the same), fluid-prefix interfaces are charged via
       ``Interface.set_fluid_load`` + the qdisc background hook, and
       expanders are (re)targeted/started/parked.

    Paths are read off :meth:`repro.topology.Network.node_view` — the
    IGP's read-model over every node and live link — by the IGP's metric
    and tie-break, so envelopes follow the FIB/LFIB paths of the converged
    network.  ECMP limitation: one representative path per aggregate
    (documented in ARCHITECTURE §12).
    """

    def __init__(
        self,
        net: Any,
        headroom: float = DEFAULT_HEADROOM,
        update_interval_s: float = DEFAULT_UPDATE_S,
    ) -> None:
        if not 0.0 < headroom <= 1.0:
            raise ValueError("headroom must be in (0, 1]")
        self.net = net
        self.sim: Simulator = net.sim
        self.headroom = headroom
        self.update_interval_s = update_interval_s
        self.paths: list[FluidPath] = []
        self.epochs = 0
        self._periodic: Periodic | None = None
        self._last_t = 0.0
        self._stop_at: float | None = None
        self._started = False
        self._loaded: dict[Interface, float] = {}

    # ------------------------------------------------------------------
    def add(
        self,
        agg: FluidAggregate,
        src_host: Any,
        dst_host: Any,
        *,
        expand: str = "auto",
        expand_at_sink: bool = False,
    ) -> FluidPath:
        """Route ``agg`` from ``src_host`` to ``dst_host`` and register it.

        ``expand="source"`` forces full packetization at the source host
        (the aggregate behaves as a real source with fluid accounting
        off); ``"never"`` keeps it fluid end to end regardless of
        congestion (benchmark / capacity-planning mode — real queues
        then only see it as background load).  ``expand_at_sink`` forces
        real packets over the last hop even when uncongested, so a
        :class:`~repro.traffic.sink.FlowSink` at the destination records
        genuine arrivals for measurement aggregates.
        """
        if expand not in ("auto", "source", "never"):
            raise ValueError(f"unknown expand policy {expand!r}")
        view = self.net.node_view()
        nodes, nbr = view.routers, view.nbr
        idxs = view.route(src_host.name, dst_host.name)
        hops: list[_Hop] = []
        for i, j in zip(idxs, idxs[1:]):
            dl, out_ifname, _next_hop = nbr[i][j]
            hops.append((nodes[i].interfaces[out_ifname], dl.delay_s, nodes[j], nbr[j][i][1]))
        path = FluidPath(
            agg=agg, hops=hops, src_host=src_host,
            expand=expand, expand_at_sink=expand_at_sink,
        )
        agg.analytic_delay_s = sum(
            agg.wire_bytes * 8.0 / h[0].rate_bps + h[1] for h in hops
        )
        self.paths.append(path)
        return path

    # ------------------------------------------------------------------
    def start(self, at: float = 0.0, stop_at: float | None = None) -> None:
        """Begin the fluid plane at ``at``; retire it at ``stop_at``."""
        self._stop_at = stop_at
        self.sim.schedule_at(max(at, self.sim.now), self._begin)

    def stop(self) -> None:
        """Retire the plane: final accounting, uncharge links, park expanders.

        Expanders with a creation clock still short of ``stop_at`` finish
        their in-flight tail (packets *created* before the stop must
        still arrive); everything else stops here.
        """
        if not self._started:
            return
        self._account(self.sim.now)
        if self._periodic is not None:
            self._periodic.cancel()
            self._periodic = None
        for iface in self._loaded:
            iface.set_fluid_load(0.0)
            iface.qdisc.set_fluid_background(0, 0)
        self._loaded = {}
        if self._stop_at is None:
            for path in self.paths:
                if path.expander is not None:
                    path.expander.deactivate()
        self._started = False

    def _begin(self) -> None:
        self._started = True
        self._last_t = self.sim.now
        for path in self.paths:
            path.agg.update_envelope()
        self._reprogram()
        self._periodic = self.sim.every(self.update_interval_s, self._epoch)
        if self._stop_at is not None:
            self.sim.schedule_at(self._stop_at, self.stop)

    def _epoch(self) -> None:
        now = self.sim.now
        if self._stop_at is not None and now >= self._stop_at:
            return  # the stop() event owns the final accounting
        self._account(now)
        for path in self.paths:
            path.agg.update_envelope()
        self._reprogram()
        self.epochs += 1

    # ------------------------------------------------------------------
    def _account(self, now: float) -> None:
        dt = now - self._last_t
        self._last_t = now
        if dt <= 0.0:
            return
        slo = getattr(self.net.trace, "slo", None)
        for path in self.paths:
            if path.exp_index is not None:
                continue  # expanded: the real packets carry the counts
            agg = path.agg
            agg.account_fluid(dt)
            if slo is not None:
                delta = int(agg._fluid_pkts) - agg._slo_reported
                if delta > 0:
                    agg._slo_reported += delta
                    slo.account_fluid(
                        agg.flow,
                        packets=delta,
                        bytes_=delta * agg.wire_bytes,
                        delay_s=agg.analytic_delay_s,
                        now=now,
                    )

    def _reprogram(self) -> None:
        headroom = self.headroom
        # Pass 1: committed rate per interface over *all* aggregates'
        # full paths — conservative, since expansion does not reduce the
        # load a link carries, only whether it is analytic or real.
        committed: dict[Interface, float] = {}
        for path in self.paths:
            rate = path.agg.rate_now
            if rate <= 0.0:
                continue
            for hop in path.hops:
                iface = hop[0]
                committed[iface] = committed.get(iface, 0.0) + rate
        # Pass 2: per-aggregate expansion point + fluid-prefix charging.
        loads: dict[Interface, float] = {}
        wire_w: dict[Interface, float] = {}
        for path in self.paths:
            agg = path.agg
            hops = path.hops
            if path.expand == "source":
                j: int | None = 0
            elif path.expand == "never":
                j = None
            else:
                j = None
                for i, hop in enumerate(hops):
                    iface = hop[0]
                    if committed.get(iface, 0.0) > headroom * iface.rate_bps:
                        j = i
                        break
                if j is None and path.expand_at_sink:
                    j = len(hops) - 1
            rate = agg.rate_now
            if rate > 0.0:
                prefix = len(hops) if j is None else j
                for hop in hops[:prefix]:
                    iface = hop[0]
                    loads[iface] = loads.get(iface, 0.0) + rate
                    wire_w[iface] = wire_w.get(iface, 0.0) + rate * agg.wire_bytes
            self._set_expansion(path, j)
        # Apply the new charges; uncharge interfaces that lost theirs.
        for iface, bps in loads.items():
            rho = min(bps / iface.rate_bps, headroom)
            # M/M/1-shaped standing-backlog estimate at the rate-weighted
            # mean packet size: what the AQM on that egress should "see".
            standing = int(rho / (1.0 - rho) * (wire_w[iface] / bps))
            iface.set_fluid_load(bps)
            iface.qdisc.set_fluid_background(bps, standing)
        for iface in self._loaded:
            if iface not in loads:
                iface.set_fluid_load(0.0)
                iface.qdisc.set_fluid_background(0, 0)
        self._loaded = loads

    def _set_expansion(self, path: FluidPath, j: int | None) -> None:
        if j is None:
            if path.expander is not None:
                path.expander.deactivate()
            path.exp_index = None
            return
        agg = path.agg
        exp = path.expander
        if exp is None:
            exp = path.expander = PacketExpander(agg)
        if path.exp_index != j or exp._inject is None:
            hops = path.hops
            if j == 0:
                exp.target(path.src_host.send, 0.0)
            else:
                upstream = sum(
                    agg.wire_bytes * 8.0 / h[0].rate_bps + h[1]
                    for h in hops[:j]
                )
                _iface, _delay, node, ifname = hops[j - 1]
                receive = node.receive
                exp.target(
                    lambda pkt, _rx=receive, _if=ifname: _rx(pkt, _if), upstream
                )
            path.exp_index = j
        if not exp.active and agg.rate_now > 0.0:
            exp.start(self.sim.now, self._stop_at)

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """JSON-able state: per-aggregate counters + plane totals."""
        return {
            "headroom": self.headroom,
            "update_interval_s": self.update_interval_s,
            "epochs": self.epochs,
            "aggregates": [
                {
                    "flow": str(p.agg.flow),
                    "kind": p.agg.kind,
                    "n_flows": p.agg.n_flows,
                    "offered_rate_bps": p.agg.offered_rate_bps,
                    "expansion_hop": p.exp_index,
                    "fluid_packets": p.agg.fluid_delivered_packets,
                    "expanded_packets": p.agg.expanded_sent,
                }
                for p in self.paths
            ],
        }
