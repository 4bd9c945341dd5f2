"""MPLS fast reroute: facility (link-protection) bypass tunnels.

The resilience story behind the paper's "avoid ... disabled links" (§3):
waiting for the IGP to re-flood and re-run SPF leaves traffic blackholed
for the convergence time (seconds at year-2000 timer defaults).  RSVP-TE
fast reroute pre-signals a *bypass* LSP around each protected link; on
failure, the point of local repair (PLR) — the router immediately
upstream — rewrites its LFIB entry in place: swap to the label the merge
point expects, then push the bypass tunnel label.  Recovery is one local
table write (~tens of ms in practice, instantaneous here), invisible to
the ingress and the IGP.

Restrictions (documented, asserted): a hop can be protected only when the
merge point expects a *real* label — i.e. not the final hop of a PHP LSP
(the merge point would expect unlabeled traffic, which a bypass cannot
deliver mid-tunnel).  Signal protected LSPs with ``php=False`` to protect
every hop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpls.label import IMPLICIT_NULL
from repro.mpls.lfib import LabelOp, LfibEntry
from repro.mpls.lsr import Lsr
from repro.mpls.te import TeLsp, TrafficEngineering

__all__ = ["Bypass", "FrrError", "FastReroute"]


class FrrError(RuntimeError):
    """Protection impossible (no disjoint path, PHP final hop...)."""


@dataclass
class Bypass:
    """One installed link protection for one LSP hop."""

    lsp_name: str
    hop_index: int              # protects path[hop_index] -> path[hop_index+1]
    plr: str                    # point of local repair (upstream node)
    merge_point: str
    bypass_lsp: TeLsp
    in_label: int               # protected LSP's incoming label at the PLR
    primary_entry: LfibEntry    # entry to restore after repair
    active: bool = False


class FastReroute:
    """Pre-signal bypass LSPs and flip PLR state on failure.

    One bypass LSP per (PLR, merge point) pair is shared by every
    protected LSP crossing that link — the "facility backup" model.
    """

    def __init__(self, te: TrafficEngineering) -> None:
        self.te = te
        self.net = te.net
        self.bypasses: list[Bypass] = []
        # Shared facility tunnels keyed by (plr, merge_point).
        self._facility: dict[tuple[str, str], TeLsp] = {}

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _facility_tunnel(self, plr: str, mp: str, bandwidth_bps: float) -> TeLsp:
        key = (plr, mp)
        lsp = self._facility.get(key)
        if lsp is not None:
            return lsp
        path = self.te.cspf(plr, mp, bandwidth_bps, avoid_links=[(plr, mp)])
        if path is None:
            raise FrrError(f"no bypass path {plr}->{mp} avoiding the protected link")
        lsp = self.te.signal(f"bypass:{plr}->{mp}", path, bandwidth_bps, php=True)
        self._facility[key] = lsp
        return lsp

    def protect_hop(self, lsp: TeLsp, hop_index: int, bandwidth_bps: float | None = None) -> Bypass:
        """Install link protection for one transit hop of ``lsp``.

        ``hop_index`` must address a transit hop (1 ≤ i ≤ len(path)−2):
        the ingress hop has no LFIB state to rewrite (an ingress reroutes
        by re-running CSPF instead).
        """
        if not 1 <= hop_index <= len(lsp.path) - 2:
            raise FrrError(
                f"hop index {hop_index} not a protectable transit hop of "
                f"{lsp.name} (path length {len(lsp.path)})"
            )
        plr = lsp.path[hop_index]
        mp = lsp.path[hop_index + 1]
        expected = lsp.hop_labels[hop_index]
        if expected == IMPLICIT_NULL:
            raise FrrError(
                f"{lsp.name} hop {plr}->{mp}: merge point expects unlabeled "
                "traffic (PHP final hop); signal the LSP with php=False"
            )
        in_label = lsp.hop_labels[hop_index - 1]
        plr_node = self.net.nodes[plr]
        assert isinstance(plr_node, Lsr)
        primary = plr_node.lfib.lookup(in_label)
        if primary is None:
            raise FrrError(f"{lsp.name}: no LFIB state at PLR {plr}")
        bw = bandwidth_bps if bandwidth_bps is not None else lsp.bandwidth_bps
        bypass_lsp = self._facility_tunnel(plr, mp, bw)
        bypass = Bypass(
            lsp_name=lsp.name,
            hop_index=hop_index,
            plr=plr,
            merge_point=mp,
            bypass_lsp=bypass_lsp,
            in_label=in_label,
            primary_entry=primary,
        )
        self.bypasses.append(bypass)
        return bypass

    def protect_lsp(self, lsp: TeLsp) -> list[Bypass]:
        """Protect every protectable transit hop of ``lsp``."""
        out = []
        last = len(lsp.path) - 2
        for i in range(1, last + 1):
            if lsp.hop_labels[i] == IMPLICIT_NULL:
                continue  # unprotectable PHP final hop
            try:
                out.append(self.protect_hop(lsp, i))
            except FrrError:
                continue  # no disjoint path around this link
        return out

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def trigger_link_failure(self, a: str, b: str) -> int:
        """Activate every bypass protecting the (directed either way) link.

        Returns the number of LSPs locally repaired.  Called by the
        experiment at the failure instant — modeling loss-of-light
        detection at the PLR.
        """
        repaired = 0
        for bp in self.bypasses:
            if bp.active or {bp.plr, bp.merge_point} != {a, b}:
                continue
            plr_node = self.net.nodes[bp.plr]
            assert isinstance(plr_node, Lsr)
            nhlfe = self.te.ingress_nhlfe(bp.bypass_lsp)
            # The merge point expects the label the PLR's primary entry
            # would have swapped to (guaranteed real by the protection
            # preconditions); restore it, then tunnel over the bypass.
            plr_node.lfib.install(
                bp.in_label,
                LfibEntry(
                    LabelOp.SWAP_PUSH,
                    out_label=bp.primary_entry.out_label,
                    push_label=nhlfe.labels[0],
                    out_ifname=nhlfe.out_ifname,
                    lsp_id=f"frr:{bp.lsp_name}",
                ),
            )
            bp.active = True
            repaired += 1
        if repaired:
            self.net.counters.incr("frr.repairs", repaired)
            self.net.trace.publish(
                "frr.repair", self.net.sim.now, link=(a, b), repaired=repaired
            )
        return repaired

    def restore_link(self, a: str, b: str) -> int:
        """Revert local repairs after the link comes back."""
        restored = 0
        for bp in self.bypasses:
            if not bp.active or {bp.plr, bp.merge_point} != {a, b}:
                continue
            plr_node = self.net.nodes[bp.plr]
            assert isinstance(plr_node, Lsr)
            plr_node.lfib.install(bp.in_label, bp.primary_entry)
            bp.active = False
            restored += 1
        if restored:
            self.net.counters.incr("frr.restores", restored)
            self.net.trace.publish(
                "frr.restore", self.net.sim.now, link=(a, b), restored=restored
            )
        return restored

    @property
    def active_repairs(self) -> int:
        return sum(1 for bp in self.bypasses if bp.active)
