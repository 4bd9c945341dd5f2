"""Node base classes.

A :class:`Node` owns a set of interfaces and receives packets from links.
Concrete behaviours (IP router, LSR, PE, host) subclass :meth:`Node.handle`.

Per-packet *processing cost* is modeled explicitly because claim C4 of the
paper is about exactly this: a conventional router spends ``ip_lookup_s``
per packet on longest-prefix match and header inspection, while an LSR
spends ``label_lookup_s`` on an exact-match label lookup.  Costs default to
zero (infinite-speed lookup) so QoS experiments are not confounded; the
forwarding-cost experiment (E3) turns them on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.net.address import IPv4Address, Prefix
from repro.net.drops import DropReason
from repro.net.empty import EMPTY_MAP
from repro.net.link import Interface
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus

__all__ = [
    "Node",
    "Host",
    "ProcessingModel",
    "ZERO_COST",
    "NodeStats",
    "install_vector_dispatch",
    "remove_vector_dispatch",
]


@dataclass(frozen=True, slots=True)
class ProcessingModel:
    """Per-packet CPU costs, in seconds.

    ``crypto_bps`` models IPsec encrypt/decrypt throughput (bits/second of
    payload through the crypto engine); 0 disables crypto cost.  Frozen:
    every node built without one shares :data:`ZERO_COST`, so a node that
    models CPU is given its own instance instead of having fields rewritten.
    """

    ip_lookup_s: float = 0.0
    label_lookup_s: float = 0.0
    crypto_bps: float = 0.0

    def crypto_time(self, nbytes: int) -> float:
        """Seconds to push ``nbytes`` through the crypto engine."""
        if self.crypto_bps <= 0:
            return 0.0
        return nbytes * 8.0 / self.crypto_bps


#: What a node costs when none is modeled: every lookup free (the default).
ZERO_COST = ProcessingModel()


@dataclass(slots=True)
class NodeStats:
    """Aggregate per-node counters.

    ``by_reason`` splits ``dropped_total`` by
    :class:`~repro.net.drops.DropReason`, keyed by ``reason.value``: the
    shared empty mapping until :meth:`Node.drop` counts the first drop, a
    ``dict`` from then on.  Imaged as the tuple of its fields.
    """

    rx_packets: int = 0
    forwarded: int = 0
    delivered: int = 0
    dropped_total: int = 0
    by_reason: Mapping[str, int] = EMPTY_MAP

    def __getstate__(self) -> tuple:
        return self.rx_packets, self.forwarded, self.delivered, self.dropped_total, self.by_reason

    def __setstate__(self, state: tuple) -> None:
        (
            self.rx_packets, self.forwarded, self.delivered, self.dropped_total, self.by_reason,
        ) = state


class Node:
    """Base network element: interfaces + address ownership + dispatch.

    ``trace`` is the bus the node publishes to; :meth:`Network.add_node
    <repro.topology.Network.add_node>` replaces it with the network's, so a
    caller that builds a node for a network hands the network's bus in and
    no bus is built only to be thrown away.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        trace: TraceBus | None = None,
        processing: ProcessingModel | None = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.trace = trace if trace is not None else TraceBus()
        self.processing = processing if processing is not None else ZERO_COST
        self.interfaces: dict[str, Interface] = {}
        self.addresses: dict[IPv4Address, str] = {}  # address -> ifname ('' = loopback)
        self.connected_prefixes: dict[Prefix, str] = {}  # subnet -> ifname
        self.loopback: IPv4Address | None = None
        self._domain = "core"
        # The Network this node is in (add_node / remove_node keep it), so a
        # ``domain`` write after add_node reaches the per-domain index.
        self._network = None
        self.stats = NodeStats()
        # Empty and immutable until add_local_sink: only hosts that receive
        # traffic ever get one.
        self.local_sinks: tuple[Callable[[Packet], None], ...] = ()

    @property
    def domain(self) -> str:
        """Routing domain tag: provider routers are "core"; customer
        equipment is "customer" and stays out of the provider IGP (its
        addresses may overlap other customers')."""
        return self._domain

    @domain.setter
    def domain(self, value: str) -> None:
        changed = value != self._domain
        self._domain = value
        if changed and self._network is not None:
            self._network._domain_changed()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_interface(self, iface: Interface) -> Interface:
        if iface.name in self.interfaces:
            raise ValueError(f"{self.name}: duplicate interface {iface.name}")
        self.interfaces[iface.name] = iface
        return iface

    def set_loopback(self, addr: IPv4Address | str) -> None:
        """Assign the node's stable loopback address (used as router id)."""
        a = IPv4Address.parse(addr)
        self.loopback = a
        self.addresses[a] = ""

    def add_address(
        self, addr: IPv4Address | str, ifname: str, subnet: Prefix | None = None
    ) -> None:
        a = IPv4Address.parse(addr)
        self.addresses[a] = ifname
        if subnet is not None:
            self.connected_prefixes[subnet] = ifname

    def owns(self, addr: IPv4Address) -> bool:
        """True when ``addr`` is one of this node's own addresses."""
        return addr in self.addresses

    def add_local_sink(self, fn: Callable[[Packet], None]) -> None:
        """Register a callback for packets addressed to this node."""
        self.local_sinks = (*self.local_sinks, fn)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, pkt: Packet, ifname: str) -> None:
        """Entry point called by the incoming link."""
        self.stats.rx_packets += 1
        pkt.hops += 1
        fl = self.trace.flight
        if fl is not None:
            fl.rx(self.sim.now, self.name, pkt, ifname)
        self.handle(pkt, ifname)

    def handle(self, pkt: Packet, ifname: str) -> None:
        """Forward/deliver/drop ``pkt``; overridden by concrete nodes."""
        raise NotImplementedError

    def receive_batch(self, items: list[tuple[Packet, str]]) -> None:
        """Vector arrival entry point: a burst of same-time ``(pkt, ifname)``
        arrivals fused by the kernel (see ``install_vector_dispatch``).

        The base implementation is the scalar loop, so any node type is
        batch-safe by construction; fast-path nodes (``Host`` here with a
        hoisted loop, ``Router`` via the forwarding pipeline's
        uniform-burst tier) override it and must stay observationally
        identical — the flight-recorder interleave per packet is part of
        the contract (``tests/test_dataplane_batch.py``).
        """
        receive = self.receive
        for pkt, ifname in items:
            receive(pkt, ifname)

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def deliver_local(self, pkt: Packet) -> None:
        """Hand a packet addressed to this node to the local application(s).

        The packet belongs to the sinks from here on: nothing in the
        simulator touches it again, so a sink may keep it.
        """
        self.stats.delivered += 1
        fl = self.trace.flight
        if fl is not None:
            fl.deliver(self.sim.now, self.name, pkt)
        slo = self.trace.slo
        if slo is not None:
            slo.deliver(self.sim.now, self.name, pkt)
        for sink in self.local_sinks:
            sink(pkt)

    def drop(self, pkt: Packet, reason: DropReason) -> None:
        """Account and trace a packet drop."""
        text = reason.value
        stats = self.stats
        stats.dropped_total += 1
        counts = stats.by_reason
        if counts is EMPTY_MAP:
            counts = stats.by_reason = {}
        counts[text] = counts.get(text, 0) + 1
        fl = self.trace.flight
        if fl is not None:
            fl.drop(self.sim.now, self.name, pkt, text)
        if self.trace.active("drop"):
            self.trace.publish(
                "drop", self.sim.now, node=self.name, reason=text, pkt=pkt
            )

    def transmit(self, pkt: Packet, ifname: str) -> None:
        """Queue ``pkt`` on interface ``ifname`` for transmission."""
        iface = self.interfaces.get(ifname)
        if iface is None or iface.link is None:
            self.drop(pkt, DropReason.NO_IFACE)
            return
        self.stats.forwarded += 1
        iface.send(pkt)

    def transmit_batch(self, pkts: list[Packet], ifname: str) -> None:
        """Queue a burst of packets on one egress interface.

        Same per-packet semantics as :meth:`transmit` (the interface keeps
        enqueue→kick ordering scalar-exact); the batch form exists so a
        host's multi-packet emission pays one interface call.
        """
        iface = self.interfaces.get(ifname)
        if iface is None or iface.link is None:
            drop = self.drop
            for pkt in pkts:
                drop(pkt, DropReason.NO_IFACE)
            return
        self.stats.forwarded += len(pkts)
        iface.send_batch(pkts)

    def after_processing(self, cost_s: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after a modeled CPU cost (immediately when zero).

        Zero-cost processing bypasses the scheduler entirely — the common
        case — so experiments that do not model CPU pay nothing for the
        hook; a positive cost goes through ``Simulator.schedule_call``, so
        the arguments ride on the event instead of in a closure.  The
        forwarding pipeline (``repro.dataplane``) applies the same rule
        inline.
        """
        if cost_s <= 0.0:
            fn(*args)
        else:
            self.sim.schedule_call(cost_s, fn, *args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Host(Node):
    """End system: sources/sinks traffic, forwards everything to a gateway.

    A host delivers packets addressed to itself and sends everything else
    out its single interface (the access link towards its CE/router).
    """

    def __init__(self, sim: Simulator, name: str, **kw) -> None:
        super().__init__(sim, name, **kw)
        self.gateway_ifname: str | None = None

    def handle(self, pkt: Packet, ifname: str) -> None:
        if pkt.ip.dst in self.addresses:
            self.deliver_local(pkt)
            return
        self.send(pkt)

    def receive_batch(self, items: list[tuple[Packet, str]]) -> None:
        # Hoisted deliver-or-forward loop.  With the flight recorder
        # attached the scalar path runs instead: the per-packet rx record
        # must interleave with delivery records exactly as in scalar mode.
        if self.trace.flight is not None:
            receive = self.receive
            for pkt, ifname in items:
                receive(pkt, ifname)
            return
        self.stats.rx_packets += len(items)
        addresses = self.addresses
        deliver = self.deliver_local
        send = self.send
        for pkt, _ifname in items:
            pkt.hops += 1
            if pkt.ip.dst in addresses:
                deliver(pkt)
            else:
                send(pkt)

    def send(self, pkt: Packet) -> None:
        """Originate (or forward) a packet via the configured gateway."""
        out = self.gateway_ifname
        if out is None:
            if len(self.interfaces) != 1:
                self.drop(pkt, DropReason.NO_ROUTE)
                return
            out = next(iter(self.interfaces))
        self.transmit(pkt, out)

    def send_batch(self, pkts: list[Packet]) -> None:
        """Originate a burst via the gateway with one interface call.

        Detected by the traffic sources (``repro.traffic.generators``):
        a multi-packet emission tick funnels through here instead of N
        ``send`` calls.
        """
        out = self.gateway_ifname
        if out is None:
            if len(self.interfaces) != 1:
                drop = self.drop
                for pkt in pkts:
                    drop(pkt, DropReason.NO_ROUTE)
                return
            out = next(iter(self.interfaces))
        self.transmit_batch(pkts, out)


def _vector_dispatch(owner: Node, batch: list[tuple[Packet, str]]) -> None:
    owner.receive_batch(batch)


def install_vector_dispatch(sim: Simulator) -> None:
    """Enable burst extraction on ``sim``: same-time ``Node.receive``
    arrivals at one node are fused into a ``receive_batch`` call.

    Wired by ``Network.__init__`` when ``obs.runtime.vector_mode_enabled()``
    (the default); ``remove_vector_dispatch`` restores pure scalar dispatch
    (the parity oracle in ``tests/test_dataplane_batch.py`` runs both).
    No-op on kernels without burst extraction (the frozen reference engine
    in ``tests/reference/sim.py``, which is scalar by definition).
    """
    set_target = getattr(sim, "set_batch_target", None)
    if set_target is not None:
        set_target(Node.receive, _vector_dispatch)


def remove_vector_dispatch(sim: Simulator) -> None:
    """Disable burst extraction on ``sim`` (see ``install_vector_dispatch``)."""
    set_target = getattr(sim, "set_batch_target", None)
    if set_target is not None:
        set_target(None)
