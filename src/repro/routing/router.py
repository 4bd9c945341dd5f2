"""Conventional IP router: longest-prefix-match forwarding.

This is the baseline data plane of claim C2/C4 — every packet, at every
hop, gets a full header inspection and an LPM lookup against the FIB.  The
LSR in :mod:`repro.mpls.lsr` subclasses this so that an MPLS backbone can
still route unlabeled packets (the mixed deployment of the paper's Fig. 4).

Forwarding itself lives in :class:`repro.dataplane.ForwardingPipeline`;
this class composes the pipeline with just the lookup and dispatch stages
(no label-op, no VRF demux).
"""

from __future__ import annotations

from repro.dataplane.pipeline import ForwardingPipeline
from repro.net.address import Prefix
from repro.net.node import Node
from repro.net.packet import Packet
from repro.routing.fib import Fib, RouteEntry

__all__ = ["Router"]

_NOTHING: frozenset[Prefix] = frozenset()


class Router(Node):
    """IP router with a trie FIB."""

    def __init__(self, sim, name, **kw) -> None:
        super().__init__(sim, name, **kw)
        self.fib: Fib[RouteEntry] = Fib()
        # Extra prefixes this router injects into the IGP (host subnets it
        # fronts, redistributed statics...): written by :meth:`advertise`,
        # empty and immutable until then (no CE advertises any).
        self.advertised_prefixes: frozenset[Prefix] | set[Prefix] = _NOTHING
        # One staged forwarding engine, shared (by composition) with the
        # Lsr and PeRouter subclasses — see repro.dataplane.pipeline.
        self.pipeline = ForwardingPipeline(self, self.fib)

    def advertise(self, prefix: Prefix) -> None:
        """Inject ``prefix`` into the IGP from this router."""
        if not isinstance(self.advertised_prefixes, set):
            self.advertised_prefixes = set(self.advertised_prefixes)
        self.advertised_prefixes.add(prefix)

    # ------------------------------------------------------------------
    def handle(self, pkt: Packet, ifname: str) -> None:
        self.pipeline.ingress(pkt, ifname)

    def receive_batch(self, items: list[tuple[Packet, str]]) -> None:
        # Vector arrival (kernel burst extraction).  The pipeline's burst
        # tier stands in for ``handle``, so it is entered only where
        # ``handle`` is the pipeline trampoline above; a class that
        # overrides it (IPsec gateway, VC switch) gets every packet
        # through its override.
        if type(self).handle is Router.handle:
            self.pipeline.ingress_batch(items)
        else:
            Node.receive_batch(self, items)

    def dispatch(self, pkt: Packet, entry: RouteEntry) -> None:
        """Send ``pkt`` out the interface selected by ``entry`` (ECMP-aware).

        Kept as a public helper for gateways that resolve routes
        themselves (e.g. the IPsec gateway); delegates to the pipeline's
        egress-dispatch stage.
        """
        self.pipeline.dispatch(pkt, entry)
