"""MPLS traffic engineering: CSPF and explicit-route LSP signaling.

This is claim C7's machinery.  Plain IP routing (repro.routing.spf) follows
static metrics and cannot see load; constraint-based routing here prunes
links whose *residual reservable bandwidth* is below the tunnel's demand
and then runs shortest-path on what is left — the Constraint-Based Routing
the paper's §5 cites.  Explicit LSPs are signaled RSVP-TE-style: admission
control and label allocation proceed from the egress back toward the
ingress, installing SWAP/POP state exactly along the requested path
regardless of what the IGP would have chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.mpls.label import IMPLICIT_NULL
from repro.mpls.lfib import LabelOp, LfibEntry, Nhlfe
from repro.mpls.lsr import Lsr
from repro.net.address import Prefix
from repro.routing.admission import AdmissionError, ReservationLedger
from repro.routing.spf_core import NoPathError

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology import Network

__all__ = ["AdmissionError", "TeLsp", "TrafficEngineering"]


@dataclass
class TeLsp:
    """One signaled explicit-route LSP.

    ``hop_labels[i]`` is the label carried on the link ``path[i] →
    path[i+1]`` (IMPLICIT_NULL on the last hop under PHP).
    """

    name: str
    path: list[str]
    bandwidth_bps: float
    hop_labels: list[int] = field(default_factory=list)
    php: bool = True
    up: bool = False
    # RFC 3270 L-LSP: scheduling class the LSP's labels imply (None = E-LSP,
    # where the EXP bits carry the class instead).
    scheduling_class: int | None = None

    @property
    def ingress(self) -> str:
        return self.path[0]

    @property
    def egress(self) -> str:
        return self.path[-1]


class TrafficEngineering(ReservationLedger):
    """CSPF path computation + LSP signaling + per-link reservations.

    Parameters
    ----------
    net:
        The network (IGP must be converged before signaling).
    domain:
        Routing domain of the participating LSRs.
    subscription:
        Fraction of each link's rate that is reservable (1.0 = the full
        line rate; >1 models oversubscription).
    """

    def __init__(self, net: "Network", domain: str = "core", subscription: float = 1.0) -> None:
        super().__init__(net, domain, subscription)
        self.lsps: dict[str, TeLsp] = {}

    # ------------------------------------------------------------------
    # Constraint-based routing
    # ------------------------------------------------------------------
    def cspf(
        self,
        src: str,
        dst: str,
        bandwidth_bps: float,
        avoid_nodes: Sequence[str] = (),
        avoid_links: Sequence[tuple[str, str]] = (),
    ) -> Optional[list[str]]:
        """Shortest metric path satisfying the bandwidth constraint.

        Returns ``None`` when no feasible path exists.  The search runs on
        the domain view's links pruned *per direction* — a link may be
        saturated toward the destination yet empty the other way — with
        the IGP's deterministic tie-breaking.
        """
        view = self.net.domain_view(self.domain)
        names = view.names
        avoid_n = set(avoid_nodes)
        avoid_l = {frozenset(l) for l in avoid_links}

        def admits(i: int, j: int) -> bool:
            u, v = names[i], names[j]
            return (
                u not in avoid_n
                and v not in avoid_n
                and frozenset((u, v)) not in avoid_l
                and self.residual(u, v) >= bandwidth_bps
            )

        try:
            path = view.route(src, dst, admits)
        except NoPathError:
            return None
        return [names[i] for i in path] if len(path) > 1 else None

    # ------------------------------------------------------------------
    # Signaling
    # ------------------------------------------------------------------
    def signal(
        self,
        name: str,
        path: Sequence[str],
        bandwidth_bps: float,
        php: bool = True,
        scheduling_class: int | None = None,
    ) -> TeLsp:
        """Set up an LSP along an explicit ``path`` with admission control.

        Raises :class:`AdmissionError` before anything is written — no
        reservation, message count, label or table entry — when a node is
        outside the domain or not an LSR, or a hop is not a live link or
        lacks bandwidth; counts one PATH + one RESV message per hop.

        ``scheduling_class`` makes this an **L-LSP** (RFC 3270): every node
        the LSP's labels arrive at records label → class, so an
        ``llsp_classifier``-equipped scheduler puts the traffic in that
        class regardless of EXP.  One LSP per class, instead of one LSP
        carrying all classes distinguished by EXP (the E-LSP default).
        """
        if name in self.lsps:
            raise ValueError(f"LSP name {name!r} already in use")
        path = list(path)
        if len(path) < 2:
            raise ValueError("path needs at least two nodes")
        view = self.net.domain_view(self.domain)
        lsrs: dict[str, Lsr] = {}
        for n in path:
            i = view.idx.get(n)
            if i is None:
                raise AdmissionError(f"{name}: {n} is not in domain {self.domain!r}")
            node = view.routers[i]
            if not isinstance(node, Lsr):
                raise AdmissionError(f"{name}: {n} is not an LSR")
            lsrs[n] = node
        self.admit(name, path, bandwidth_bps)
        hops = list(zip(path, path[1:]))
        self.net.counters.incr("rsvp.path_msgs", len(hops))
        self.net.counters.incr("rsvp.resv_msgs", len(hops))

        # Allocate labels from egress backward (RESV direction).
        hop_labels: list[int] = [0] * len(hops)
        downstream_label = IMPLICIT_NULL
        if not php:
            egress = lsrs[path[-1]]
            downstream_label = egress.labels.allocate()
            egress.lfib.install(
                downstream_label, LfibEntry(LabelOp.POP_PROCESS, lsp_id=name)
            )
        for i in range(len(hops) - 1, -1, -1):
            u, v = hops[i]
            hop_labels[i] = downstream_label
            if i == 0:
                break
            lsr = lsrs[u]
            in_label = lsr.labels.allocate()
            out_ifname = view.edge(u, v)[1]
            if downstream_label == IMPLICIT_NULL:
                entry = LfibEntry(LabelOp.POP, out_ifname=out_ifname, lsp_id=name)
            else:
                entry = LfibEntry(
                    LabelOp.SWAP,
                    out_label=downstream_label,
                    out_ifname=out_ifname,
                    lsp_id=name,
                )
            lsr.lfib.install(in_label, entry)
            downstream_label = in_label

        lsp = TeLsp(name, path, bandwidth_bps, hop_labels, php=php, up=True,
                    scheduling_class=scheduling_class)
        if scheduling_class is not None:
            # Scheduling happens at the *transmitting* interface, so each
            # node learns the class of the label it puts on its downstream
            # hop (hop_labels[i] on link path[i] -> path[i+1]).  The
            # receiver records it too — harmless, and it keeps the map
            # symmetric for diagnostics.
            for i, label in enumerate(hop_labels):
                if label == IMPLICIT_NULL:
                    continue
                for node_name in (path[i], path[i + 1]):
                    lsrs[node_name].label_class[label] = scheduling_class
        self.lsps[name] = lsp
        self.net.trace.publish(
            "te.lsp_up",
            self.net.sim.now,
            name=name,
            path=tuple(path),
            bandwidth_bps=bandwidth_bps,
            php=php,
            scheduling_class=scheduling_class,
        )
        return lsp

    def setup(
        self,
        name: str,
        src: str,
        dst: str,
        bandwidth_bps: float,
        php: bool = True,
        scheduling_class: int | None = None,
    ) -> TeLsp:
        """CSPF + signal in one step (the common case)."""
        path = self.cspf(src, dst, bandwidth_bps)
        if path is None:
            raise AdmissionError(f"{name}: no feasible path {src}->{dst}")
        return self.signal(name, path, bandwidth_bps, php=php,
                           scheduling_class=scheduling_class)

    def teardown(self, name: str) -> None:
        """Release the LSP's reservations and forwarding state."""
        lsp = self.lsps.pop(name, None)
        if lsp is None:
            raise ValueError(f"name: no LSP {name!r} is up (never signaled, or torn down)")
        self.release(lsp.path, lsp.bandwidth_bps)
        for n in lsp.path:
            node = self.net.nodes[n]
            if isinstance(node, Lsr):
                for in_label, entry in list(node.lfib.entries().items()):
                    if entry.lsp_id == lsp.name:
                        node.lfib.remove(in_label)
                        node.label_class.pop(in_label, None)
                        if in_label in node.labels:
                            node.labels.release(in_label)
                for prefix, nhlfe in list(node.ftn.entries().items()):
                    if nhlfe.lsp_id == lsp.name:
                        node.ftn.unbind(prefix)
        lsp.up = False
        self.net.trace.publish("te.lsp_down", self.net.sim.now, name=name)

    # ------------------------------------------------------------------
    # Routing traffic onto tunnels
    # ------------------------------------------------------------------
    def ingress_nhlfe(self, lsp: TeLsp) -> Nhlfe:
        """The NHLFE an ingress uses to put a packet on ``lsp``."""
        u, v = lsp.path[0], lsp.path[1]
        edge = self.net.domain_view(self.domain).edge(u, v)
        if edge is None:
            raise AdmissionError(
                f"{lsp.name}: no live link {u}->{v} in domain {self.domain!r}"
            )
        return Nhlfe(edge[1], (lsp.hop_labels[0],), lsp_id=lsp.name)

    def autoroute(self, lsp: TeLsp, prefixes: Sequence[Prefix | str]) -> None:
        """Bind destination ``prefixes`` at the ingress onto the tunnel.

        The ingress FIB must already know the prefixes (the FTN is keyed by
        the FIB's matched prefix), which converge() guarantees for
        infrastructure destinations.
        """
        ingress = self.net.nodes[lsp.ingress]
        assert isinstance(ingress, Lsr)
        nhlfe = self.ingress_nhlfe(lsp)
        for p in prefixes:
            ingress.ftn.bind(p, nhlfe)
