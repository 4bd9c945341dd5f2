"""Interfaces and links.

An :class:`Interface` is a node's attachment point with an *output queue*
and a transmitter; a :class:`Link` is a simplex channel with a bit rate and
propagation delay.  Duplex connectivity is two simplex links.

Transmission is store-and-forward: the egress interface serializes one
packet at a time (``wire_bytes * 8 / rate_bps`` seconds) and the link then
delays it by its propagation time before handing it to the remote node.
Queueing behaviour is delegated to a pluggable queue discipline (see
``repro.qos.queues``); the interface only drives the
enqueue → (free?) → dequeue → transmit cycle.

The transmitter knows when it is free instead of being told by an event:
when serialization starts at ``now`` it records ``free_at = now + tx_time``
and schedules the far-end arrival directly at ``free_at + delay_s``.  A
*drain* event (``_transmit_next`` at ``free_at``) exists only while
something waits behind the packet on the transmitter — scheduled at the
dequeue when the queue is still non-empty, otherwise armed by the first
``send`` that finds the transmitter serializing.  An idle or infinite-rate
link therefore costs one event per packet-hop and a backlogged one two.

Egress *conditioners* (classifier/meter/marker chains from ``repro.qos``)
run before the queue discipline and may drop or remark packets — this is
where the DiffServ traffic-conditioning block of claim C6 attaches.

Both classes are slotted: a provisioned site is two of each, and an
instance dict per object is what the cyclic collector would re-walk (and
what pickling an unslotted object materialises).  They take no attribute
that is not in ``__slots__``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.drops import DropReason
from repro.net.packet import Packet
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node
    from repro.qos.queues import QueueDiscipline

__all__ = ["Interface", "Link"]

Conditioner = Callable[[Packet, float], Optional[Packet]]


class Link:
    """Simplex channel: delivers packets to ``dst_node`` after ``delay_s``.

    The serialisation time lives in the sending :class:`Interface`; the link
    adds only propagation delay (so back-to-back packets can be "in flight"
    simultaneously, as on a real wire).

    A link is imaged as the tuple of its slot values (see ``__getstate__``):
    a network holds two per site, and an image that named every slot would
    spend more on the names than on the values.
    """

    __slots__ = (
        "sim", "name", "dst_node", "dst_ifname", "delay_s", "_up", "_tx_event",
        "on_state_change", "tx_iface",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        dst_node: "Node",
        dst_ifname: str,
        delay_s: float,
    ) -> None:
        self.sim = sim
        self.name = name
        self.dst_node = dst_node
        self.dst_ifname = dst_ifname
        self.delay_s = float(delay_s)
        if not 0.0 <= self.delay_s < math.inf:  # also rejects NaN
            raise ValueError(
                f"link {name}: delay_s must be finite and >= 0, got {delay_s}"
            )
        self._up = True
        # Arrival event of the packet the sending interface put on the wire
        # last; a link failure revokes it while the packet's tail has not
        # left the transmitter yet (see the ``up`` setter).
        self._tx_event = None
        # The interface transmitting onto this link (``Interface.attach``
        # wires it): a frame a failure cuts short is a drop at its node.
        self.tx_iface: "Interface | None" = None
        # Link state is routing-topology state: the owning Network wires
        # this to its topology-generation bump so *any* ``link.up`` write —
        # not just DuplexLink.set_up — invalidates cached domain views.
        # The changed link rides on the callback so the network can
        # announce *which* link flipped (``link.down`` / ``link.up`` on its
        # trace bus), and every link of a network shares the one callable.
        self.on_state_change: Optional[Callable[["Link"], None]] = None

    def __getstate__(self) -> tuple:
        return (
            self.sim, self.name, self.dst_node, self.dst_ifname, self.delay_s,
            self._up, self._tx_event, self.on_state_change, self.tx_iface,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.sim, self.name, self.dst_node, self.dst_ifname, self.delay_s,
            self._up, self._tx_event, self.on_state_change, self.tx_iface,
        ) = state

    @property
    def up(self) -> bool:
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        value = bool(value)
        changed = value != self._up
        self._up = value
        if not changed:
            return
        if not value:
            pkt = self._cut()
            if pkt is not None and self.tx_iface is not None:
                self.tx_iface.node.drop(pkt, DropReason.LINK_DOWN)
        if self.on_state_change is not None:
            self.on_state_change(self)

    def _cut(self) -> Optional[Packet]:
        """Revoke the arrival of the frame still on the transmitter.

        Packets already propagating still arrive; the one being serialized
        is cut short and lost.  It is the one whose arrival lies more than a
        propagation delay ahead.  Returns it (``None`` when there is none):
        the caller counts the loss.
        """
        ev = self._tx_event
        if ev is None or not self.sim.now + self.delay_s < ev.time:
            return None
        ev.cancel()
        self._tx_event = None
        return ev.args[0]

    def carry(self, pkt: Packet) -> None:
        """Propagate ``pkt`` to the far end (silently lost if link is down)."""
        if not self._up:
            return
        self.sim.schedule_call(self.delay_s, self.dst_node.receive, pkt, self.dst_ifname)

    def carry_batch(self, pkts: "list[Packet]") -> None:
        """Propagate a burst: one arrival event per packet, same timestamp.

        The scheduled events are bound ``Node.receive`` calls on one
        receiver, which is exactly what the kernel's burst extraction
        fuses back into a single ``receive_batch`` at the far end.
        """
        if not self._up:
            return
        schedule_call = self.sim.schedule_call
        delay = self.delay_s
        receive = self.dst_node.receive
        ifname = self.dst_ifname
        for pkt in pkts:
            schedule_call(delay, receive, pkt, ifname)


class Interface:
    """A node's egress attachment: conditioners + queue discipline + transmitter.

    Parameters
    ----------
    sim:
        The simulation kernel.
    node:
        Owning node (used for naming and receive dispatch on the peer).
    name:
        Interface name, unique within the node (``"eth0"``...).
    rate_bps:
        Transmit rate in bits per second.
    qdisc:
        Queue discipline instance; defaults are installed by the topology
        builder (a plain DropTail FIFO unless QoS is configured).  A
        discipline queues for one interface at a time (see :attr:`qdisc`).

    The egress counters are attributes the hot path writes directly:
    ``tx_packets`` / ``tx_bytes`` / ``busy_time`` are credited when a
    packet's serialization *starts* (a packet still on the transmitter when
    the run stops is already counted), ``enqueued`` / ``dropped`` when the
    discipline takes or refuses one, ``conditioner_dropped`` when a
    conditioner does.  :attr:`stats` is the interface itself, so
    ``iface.stats.tx_packets`` reads the live counter.
    """

    __slots__ = (
        "sim", "node", "name", "fluid_load_bps", "_rate_bps", "_eff_rate_bps",
        "_qdisc", "link", "conditioners",
        "tx_packets", "tx_bytes", "enqueued", "dropped", "conditioner_dropped", "busy_time",
        "_free_at", "_busy", "_retry_event", "_retry_time",
    )

    def __init__(
        self,
        sim: Simulator,
        node: "Node",
        name: str,
        rate_bps: float,
        qdisc: "QueueDiscipline",
    ) -> None:
        self.sim = sim
        self.node = node
        self.name = name
        # Fluid background load (hybrid traffic plane): analytic rate of
        # fluid aggregates currently crossing this interface.  Packets
        # share the transmitter with that load, so serialization runs at
        # the *effective* residual rate.  ``_eff_rate_bps`` is precomputed
        # whenever either input changes (the ``rate_bps`` property setter
        # and ``set_fluid_load``) so the hot path pays nothing when no
        # fluid is charged (it equals rate_bps exactly, same float).
        self.fluid_load_bps = 0.0
        self.rate_bps = rate_bps  # property setter: validates, derives _eff_rate_bps
        self._qdisc: "QueueDiscipline | None" = None
        self.qdisc = qdisc  # property setter: takes ownership, wires the drop callback
        self.link: Link | None = None
        # Empty and immutable until add_conditioner: most interfaces never
        # get one, and an empty tuple is shared, not an object per interface.
        self.conditioners: tuple[Conditioner, ...] = ()
        self.tx_packets = 0
        self.tx_bytes = 0
        self.enqueued = 0
        self.dropped = 0
        self.conditioner_dropped = 0
        self.busy_time = 0.0
        # Transmitter state: serializing until ``_free_at``; ``_busy`` is
        # true while a drain event is armed there (something is queued
        # behind the packet on the transmitter).
        self._free_at = 0.0
        self._busy = False
        # Pending wake-up for non-work-conserving qdiscs: one coalesced
        # timer at the earliest eligible time, not one per blocked enqueue.
        self._retry_event = None
        self._retry_time = math.inf

    # ------------------------------------------------------------------
    def attach(self, link: Link) -> None:
        """Wire this interface to its outgoing simplex link; the far end is
        the link's (``link.dst_node`` / ``link.dst_ifname``)."""
        self.link = link
        link.tx_iface = self

    def detach(self) -> None:
        """Unwire this interface (:meth:`repro.topology.Network.disconnect`).

        The frame on the transmitter is cut short as a link failure would
        cut it, and the link goes down; here that frame is a counted
        ``NO_IFACE`` drop at the owning node (not ``LINK_DOWN``), and so is
        every packet still queued behind it when the transmitter reaches it
        (see :meth:`_transmit_next`) — nothing an unwire loses is lost
        silently.
        """
        link = self.link
        if link is None:
            return
        cut = link._cut()
        link.up = False
        self.link = None
        if cut is not None:
            self.node.drop(cut, DropReason.NO_IFACE)

    def add_conditioner(self, fn: Conditioner) -> None:
        """Append an egress conditioner (classify/meter/mark/police stage)."""
        self.conditioners = (*self.conditioners, fn)

    @property
    def stats(self) -> "Interface":
        """The egress counters: the interface holds them itself (no record
        object per interface), so this is the interface."""
        return self

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the transmitter was busy."""
        return self.busy_time / elapsed if elapsed > 0 else 0.0

    @property
    def rate_bps(self) -> float:
        """Line rate.  Assignment (tests reshape links post-construction)
        re-derives the effective serialization rate under any fluid load."""
        return self._rate_bps

    @rate_bps.setter
    def rate_bps(self, value: float) -> None:
        rate = float(value)
        if not rate > 0.0:  # also rejects NaN; inf is a legal (zero-time) rate
            raise ValueError(
                f"interface {self.node.name}.{self.name}: rate_bps must be > 0, got {value}"
            )
        self._rate_bps = rate
        self.set_fluid_load(self.fluid_load_bps)

    def set_fluid_load(self, bps: float) -> None:
        """Charge ``bps`` of analytic (fluid) background load on this egress.

        Called by the hybrid traffic plane's FluidRouter at envelope
        epochs.  Real packets then serialize at the residual rate
        ``rate_bps - bps`` (floored at 0.1% of line rate so a transient
        overshoot cannot stall the transmitter), which is how packet-mode
        queues *see* fluid utilization they never enqueue.  ``bps = 0``
        restores the exact original rate — the pure-packet hot path is
        untouched (``Interface.rate_bps`` itself is never rewritten).
        """
        self.fluid_load_bps = float(bps)
        if bps <= 0.0:
            self._eff_rate_bps = self._rate_bps
        else:
            self._eff_rate_bps = max(self._rate_bps - bps, self._rate_bps * 1e-3)

    # ------------------------------------------------------------------
    # Queue discipline: assignment (including post-construction swaps by
    # experiments/tests) re-wires the drop callback so queue and AQM losses
    # always reach the TraceBus/flight recorder with their taxonomy.
    # Hot methods read ``_qdisc`` directly to skip the property descriptor.
    @property
    def qdisc(self) -> "QueueDiscipline":
        """The queue discipline.  Installing one records this interface as
        its ``interface`` and the interface itself as its drop callback.  A
        discipline another interface owns is refused by name before anything
        changes — two transmitters draining one queue would each send the
        other's packets, and the drops would be reported against whichever
        was wired last — and the one replaced is released, free to be
        installed elsewhere."""
        return self._qdisc

    @qdisc.setter
    def qdisc(self, q: "QueueDiscipline") -> None:
        owner = q.interface
        if owner is not None and owner is not self:
            raise ValueError(
                f"interface {self.node.name}.{self.name}: the {type(q).__name__} "
                f"already queues for interface {owner.node.name}.{owner.name}; "
                "give each interface its own queue discipline"
            )
        old = self._qdisc
        if old is not None and old is not q:
            old.interface = None
            old.set_drop_callback(None)
        q.interface = self
        q.set_drop_callback(self)
        self._qdisc = q

    def _queue_drop(self, pkt: Packet, reason: DropReason, now: float) -> None:
        """Called by the queue discipline when it refuses a packet.

        With telemetry off (no flight recorder, no drop subscribers) this
        is two attribute loads and two jumps — congestion experiments that
        drop thousands of packets pay nothing for the unobserved hooks.
        """
        trace = self.node.trace
        fl = trace.flight
        if fl is not None:
            fl.drop(now, self.node.name, pkt, reason.value, ifname=self.name)
        if trace.active("drop"):
            trace.publish(
                "drop",
                now,
                node=self.node.name,
                iface=self.name,
                reason=reason.value,
                pkt=pkt,
            )

    # The interface is its discipline's drop callback: one callable per
    # interface, where a bound method would be one more object per qdisc.
    __call__ = _queue_drop

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        """Run conditioners, enqueue, and kick the transmitter.

        Returns False when the packet was dropped (by a conditioner or the
        queue discipline).
        """
        now = self.sim.now
        if self.conditioners:
            for fn in self.conditioners:
                out = fn(pkt, now)
                if out is None:
                    self.conditioner_dropped += 1
                    self._queue_drop(pkt, DropReason.CONDITIONER, now)
                    return False
                pkt = out
        if not self._qdisc.enqueue(pkt, now):
            self.dropped += 1
            return False
        self.enqueued += 1
        fl = self.node.trace.flight
        if fl is not None:
            fl.enqueue(now, self.node.name, pkt, self.name, self._qdisc._count)
        if not self._busy:
            if now < self._free_at:
                # First packet to queue behind the one being serialized.
                self._busy = True
                self.sim.schedule_at(self._free_at, self._transmit_next)
            elif self._retry_event is None:
                self._transmit_next()
            else:
                # Transmitter idle but regulated: a retry timer is already
                # armed at the earliest eligible time.  Only act if this
                # arrival made something eligible sooner — either right now
                # (a borrow-capable / conformant class was empty until this
                # packet) or earlier than the armed wake-up.  Everything
                # else keeps the one coalesced timer instead of paying a
                # cancel + re-schedule + failed dequeue per blocked
                # enqueue.
                t = self._qdisc.next_eligible(now)
                if t <= now:
                    self._transmit_next()
                elif t < self._retry_time:
                    self._retry_event.cancel()
                    self._retry_time = t
                    self._retry_event = self.sim.schedule(
                        t - now, self._transmit_next
                    )
        return True

    def send_batch(self, pkts: "list[Packet]") -> None:
        """Enqueue a burst of packets: :meth:`send` per packet, loads hoisted.

        Each enqueue may trigger an immediate dequeue (on an infinite-rate
        link every one does), so the burst runs packet-at-a-time with the
        same kick logic as :meth:`send`; conditioned and regulated
        interfaces go through :meth:`send` itself.
        """
        send = self.send
        if self.conditioners:
            for pkt in pkts:
                send(pkt)
            return
        now = self.sim.now
        qdisc = self._qdisc
        fl = self.node.trace.flight
        for pkt in pkts:
            if self._retry_event is not None:
                send(pkt)  # regulated: full coalesced-timer logic
                continue
            if not qdisc.enqueue(pkt, now):
                self.dropped += 1
                continue
            self.enqueued += 1
            if fl is not None:
                fl.enqueue(now, self.node.name, pkt, self.name, qdisc._count)
            if not self._busy:
                if now < self._free_at:
                    self._busy = True
                    self.sim.schedule_at(self._free_at, self._transmit_next)
                else:
                    self._transmit_next()

    # ------------------------------------------------------------------
    def _transmit_next(self) -> None:
        """Start serializing the next eligible packet, if any.

        Runs when a packet meets a free transmitter, as the drain event at
        ``_free_at``, and as the regulated-qdisc retry timer.
        """
        if self._retry_event is not None:
            self._retry_event.cancel()
            self._retry_event = None
            self._retry_time = math.inf
        sim = self.sim
        now = sim.now
        qdisc = self._qdisc
        pkt = qdisc.dequeue(now)
        if pkt is None:
            self._busy = False
            # Non-work-conserving discipline with backlog: wake up when the
            # earliest regulated packet becomes eligible (e.g. CBQ class
            # waiting for its allocation bucket to refill).
            if qdisc._count > 0:
                t = qdisc.next_eligible(now)
                if t != float("inf"):
                    self._retry_time = t
                    self._retry_event = sim.schedule(
                        max(t - now, 1e-9), self._transmit_next
                    )
            return
        backlog = qdisc._count
        fl = self.node.trace.flight
        if fl is not None:
            fl.dequeue(now, self.node.name, pkt, self.name, backlog)
        wire = pkt._wire or pkt.wire_bytes
        tx_time = wire * 8.0 / self._eff_rate_bps
        self.busy_time += tx_time
        self.tx_packets += 1
        self.tx_bytes += wire
        self._free_at = free_at = now + tx_time
        # ``Link.carry`` is fused inline: one call frame per forwarded
        # packet matters at millions of packet-hops per experiment.  The
        # arrival is a bound ``Node.receive`` event (what burst extraction
        # matches on) at the float the serialize-then-propagate sum gives.
        link = self.link
        if link is not None and link._up:
            link._tx_event = sim.schedule_at(
                free_at + link.delay_s, link.dst_node.receive, pkt, link.dst_ifname
            )
        elif link is None:
            # Detached with this packet still queued: the same verdict
            # ``Node.transmit`` gives a packet that finds no interface.
            self.node.drop(pkt, DropReason.NO_IFACE)
        else:
            # Serialized onto a down link: lost on the wire, and counted.
            self.node.drop(pkt, DropReason.LINK_DOWN)
        if backlog:
            self._busy = True
            sim.schedule_at(free_at, self._transmit_next)
        else:
            self._busy = False

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while a packet is being serialized or a drain is armed."""
        return self._busy or self.sim.now < self._free_at

    @property
    def backlog_packets(self) -> int:
        return len(self.qdisc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Interface {self.node.name}.{self.name} {self.rate_bps/1e6:g}Mbps>"
