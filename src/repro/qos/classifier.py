"""Packet classifiers.

Two classifier species exist in DiffServ (RFC 2475):

* **Multi-field (MF)** — matches on the 5-tuple plus DSCP; only usable where
  the IP header of the *customer* packet is visible (CPE, PE ingress).
* **Behaviour-aggregate (BA)** — matches only the DSCP (or, in the MPLS
  core, the EXP bits).  This is all an interior node can do, and for an
  encrypted IPsec tunnel it sees only the *outer* header — the structural
  fact behind claim C3.

Classifiers here produce scheduler class indices (ints) for the queue
disciplines, via small composable callables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.address import Prefix
from repro.net.packet import Packet
from repro.qos.dscp import CLASS_OF_DSCP, CLASS_OF_EXP

__all__ = [
    "ba_classifier",
    "exp_classifier",
    "mpls_aware_classifier",
    "llsp_classifier",
    "FlowMatch",
    "MultiFieldClassifier",
]


def ba_classifier(pkt: Packet) -> int:
    """Behaviour-aggregate classification on the *visible* (outer) DSCP.

    For an ESP-encrypted packet this is the tunnel header's DSCP — if the
    tunnel ingress did not copy the inner DSCP out, every flow lands in the
    same class and per-flow QoS is gone (claim C3).
    """
    return CLASS_OF_DSCP[pkt.ip.dscp]


def exp_classifier(pkt: Packet) -> int:
    """Core-LSR classification on the MPLS EXP bits (E-LSP model): EXP
    when labeled, outer DSCP otherwise — what a modern LSR does."""
    stack = pkt.mpls_stack
    if stack:
        return CLASS_OF_EXP[stack[-1].exp]
    return CLASS_OF_DSCP[pkt.ip.dscp]


mpls_aware_classifier = exp_classifier


class llsp_classifier:
    """RFC 3270 L-LSP classification: the *label* implies the class.

    A per-node classifier: labeled packets whose top label appears in the
    node's ``label_class`` map take that class; everything else falls back
    to EXP/DSCP (E-LSP behaviour), so both models coexist on one box.  A
    class rather than a closure, so a network holding one snapshots it.
    """

    __slots__ = ("node",)

    def __init__(self, node) -> None:
        self.node = node

    def __call__(self, pkt: Packet) -> int:
        top = pkt.top_label
        if top is not None:
            cls = self.node.label_class.get(top.label)
            if cls is not None:
                return cls
        return exp_classifier(pkt)


@dataclass(frozen=True, slots=True)
class FlowMatch:
    """One multi-field match rule.  ``None`` fields are wildcards."""

    src: Optional[Prefix] = None
    dst: Optional[Prefix] = None
    proto: Optional[str] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    dscp: Optional[int] = None

    def matches(self, pkt: Packet) -> bool:
        ip = pkt.ip
        if self.src is not None and not self.src.contains(ip.src):
            return False
        if self.dst is not None and not self.dst.contains(ip.dst):
            return False
        if self.proto is not None and ip.proto != self.proto:
            return False
        if self.src_port is not None and ip.src_port != self.src_port:
            return False
        if self.dst_port is not None and ip.dst_port != self.dst_port:
            return False
        if self.dscp is not None and ip.dscp != self.dscp:
            return False
        return True


class MultiFieldClassifier:
    """Ordered rule list mapping packets to class indices (first match wins).

    This is the CPE classifier of §5: the customer premises device inspects
    the full 5-tuple of its own cleartext traffic and assigns it to a CBQ
    class / DSCP marking.
    """

    def __init__(self, default_class: int = 0) -> None:
        self.rules: list[tuple[FlowMatch, int]] = []
        self.default_class = default_class

    def add_rule(self, match: FlowMatch, class_index: int) -> None:
        self.rules.append((match, class_index))

    def __call__(self, pkt: Packet) -> int:
        for match, idx in self.rules:
            if match.matches(pkt):
                return idx
        return self.default_class

    def __len__(self) -> int:
        return len(self.rules)
