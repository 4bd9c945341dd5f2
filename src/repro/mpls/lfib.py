"""Label Forwarding Information Base (LFIB) and FEC-to-NHLFE map (FTN).

The LFIB is the exact-match table claim C4 celebrates: one dict lookup per
packet, independent of routing-table size.  Entries encode the standard
label operations:

* ``SWAP``   — transit LSR: replace the top label, forward.
* ``POP``    — penultimate-hop popping: remove the top label, forward; the
  next hop sees the inner label or plain IP.
* ``POP_PROCESS`` — LSP egress: remove the label and process what remains
  locally (inner label lookup or IP forwarding).
* ``VPN``    — egress PE: the label identifies a VRF; pop and hand the
  customer packet to that VRF's forwarding logic.

The FTN (FEC-to-NHLFE) table drives label *imposition* at the ingress LER:
an IP destination prefix maps to the label stack to push and the egress
interface to use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.mpls.label import MAX_LABEL
from repro.net.address import Prefix

__all__ = ["LabelOp", "LfibEntry", "Lfib", "Nhlfe", "FtnTable"]


class LabelOp(Enum):
    SWAP = "swap"
    POP = "pop"                  # penultimate-hop pop, then forward
    POP_PROCESS = "pop_process"  # egress: pop, then process locally
    VPN = "vpn"                  # egress PE: pop, deliver into a VRF
    SWAP_PUSH = "swap_push"      # FRR local repair: swap, then push bypass label


@dataclass(frozen=True, slots=True)
class LfibEntry:
    """One incoming-label binding."""

    op: LabelOp
    out_label: int | None = None   # for SWAP / SWAP_PUSH (the swap target)
    out_ifname: str | None = None  # for SWAP / POP / SWAP_PUSH
    vrf: str | None = None         # for VPN
    push_label: int | None = None  # for SWAP_PUSH (the bypass tunnel label)
    lsp_id: str | None = None      # provenance (which LSP installed this)

    def __post_init__(self) -> None:
        if self.op is LabelOp.SWAP and (self.out_label is None or self.out_ifname is None):
            raise ValueError("SWAP needs out_label and out_ifname")
        if self.op is LabelOp.POP and self.out_ifname is None:
            raise ValueError("POP needs out_ifname")
        if self.op is LabelOp.VPN and self.vrf is None:
            raise ValueError("VPN needs a vrf name")
        if self.op is LabelOp.SWAP_PUSH and (
            self.out_label is None or self.push_label is None or self.out_ifname is None
        ):
            raise ValueError("SWAP_PUSH needs out_label, push_label, and out_ifname")
        # The label-op stage writes these into the packet's stack unchecked.
        for label in (self.out_label, self.push_label):
            if label is not None and not 0 <= label <= MAX_LABEL:
                raise ValueError(f"label out of 20-bit range: {label}")


class Lfib:
    """Exact-match incoming-label table.

    A lookup is one dict read, so the data plane reads it with no cache
    in front.  ``generation`` increments on every mutation (an LDP pass
    that writes, FRR bypass activation/restore), so a reader can tell a
    pass that changed the table from one that did not.
    """

    def __init__(self) -> None:
        self._entries: dict[int, LfibEntry] = {}
        self.lookups = 0
        self.generation = 0

    def install(self, in_label: int, entry: LfibEntry) -> None:
        self._entries[in_label] = entry
        self.generation += 1

    def install_many(self, items: list[tuple[int, LfibEntry]]) -> int:
        """Batch install with a single generation bump (LDP convergence
        writes one entry per FEC).  Returns the number of entries
        installed."""
        if not items:
            return 0
        self._entries.update(items)
        self.generation += 1
        return len(items)

    def remove(self, in_label: int) -> bool:
        removed = self._entries.pop(in_label, None) is not None
        if removed:
            self.generation += 1
        return removed

    def lookup(self, in_label: int) -> Optional[LfibEntry]:
        self.lookups += 1
        return self._entries.get(in_label)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, in_label: int) -> bool:
        return in_label in self._entries

    def entries(self) -> dict[int, LfibEntry]:
        return dict(self._entries)


@dataclass(frozen=True, slots=True)
class Nhlfe:
    """Next-Hop Label Forwarding Entry: what the ingress pushes and where.

    ``labels`` is given bottom-first: ``(vpn_label, tunnel_label)`` pushes
    the VPN label first so the tunnel label ends up on top.  A label equal
    to IMPLICIT_NULL (3) is skipped at push time — that is how a one-hop
    tunnel with PHP degenerates to an unlabeled (or VPN-label-only) packet.
    """

    out_ifname: str
    labels: tuple[int, ...]
    lsp_id: str | None = None

    def __post_init__(self) -> None:
        # Imposition (the scalar stage and the burst tier) pushes these
        # unchecked.
        for label in self.labels:
            if not 0 <= label <= MAX_LABEL:
                raise ValueError(f"label out of 20-bit range: {label}")


class FtnTable:
    """FEC-to-NHLFE map keyed by destination prefix.

    The ingress LER first does its normal LPM (the FIB decides the FEC),
    then consults this table with the *matched prefix*; a hit means "label
    this packet instead of IP-forwarding it".
    """

    def __init__(self) -> None:
        self._map: dict[Prefix, Nhlfe] = {}
        # Generation counter for the flow/tunnel caches: an imposition
        # decision derived from this table dies when a binding changes.
        self.generation = 0

    def bind(self, prefix: Prefix | str, nhlfe: Nhlfe) -> None:
        self._map[Prefix.parse(prefix) if isinstance(prefix, str) else prefix] = nhlfe
        self.generation += 1

    def bind_many(self, items: list[tuple[Prefix, Nhlfe]]) -> int:
        """Batch bind with a single generation bump; returns the count."""
        if not items:
            return 0
        self._map.update(items)
        self.generation += 1
        return len(items)

    def unbind(self, prefix: Prefix | str) -> bool:
        key = Prefix.parse(prefix) if isinstance(prefix, str) else prefix
        removed = self._map.pop(key, None) is not None
        if removed:
            self.generation += 1
        return removed

    def lookup(self, prefix: Prefix) -> Optional[Nhlfe]:
        return self._map.get(prefix)

    def __len__(self) -> int:
        return len(self._map)

    def entries(self) -> dict[Prefix, Nhlfe]:
        return dict(self._map)
