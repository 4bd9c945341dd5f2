"""LDP-style hop-by-hop label distribution.

Distributes label bindings for a set of FECs (by default, every LSR's
loopback host route — the tunnel endpoints BGP/MPLS VPNs need) along the
IGP shortest-path tree, exactly as downstream-unsolicited LDP with ordered
control would: the egress originates a binding, each upstream LSR allocates
its own incoming label and records the downstream label to swap to.

:func:`run_ldp` is the one writer of LDP state, and it follows the IGP:
LDP owns the LFIB and FTN entries whose ``lsp_id`` is ``ldp:<fec>``, and
each pass computes the bindings the current IGP view implies, reads the
ones LDP holds, and writes per LSR only the entries that differ.  An LSR
keeps its local label for a FEC while the FEC stays reachable (liberal
retention: a next-hop switch is a local rewrite); a label is allocated only
for a new binding and released when its binding goes away.  A fresh network
holds nothing, so its first pass allocates, writes and counts what a
one-shot install would.  After a topology change the chain
(:func:`repro.control.converge_all`) moves the labelled paths with the
routes.  An FTN slot another owner holds (a TE autoroute) is never
overwritten or removed; a slot left empty is bound.

Wire behaviour is abstracted to *message counting*: with liberal label
retention every LSR advertises each binding over every LDP session, so the
message count per FEC equals twice the number of LSR adjacencies.  A pass
counts the advertisements of its new bindings only.  These counters are the
MPLS side of experiment E1 — compare their growth in the number of VPN
sites against the O(N²) virtual-circuit mesh.

Penultimate-hop popping (PHP) is on by default; pass
``use_explicit_null=True`` to keep the label (and its EXP bits) until the
egress — RFC 3270 recommends this when QoS is carried in EXP, and ablation
E9c measures the difference.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from math import inf
from time import perf_counter
from typing import TYPE_CHECKING

from repro.mpls.label import EXPLICIT_NULL, IMPLICIT_NULL
from repro.mpls.lfib import LabelOp, LfibEntry, Nhlfe
from repro.mpls.lsr import Lsr
from repro.net.address import Prefix

if TYPE_CHECKING:  # pragma: no cover
    from repro.routing.spf_core import DomainView
    from repro.topology import Network

__all__ = ["LdpResult", "run_ldp", "reset_ldp"]


def _owned(entry: LfibEntry | Nhlfe) -> bool:
    """True for an LFIB / FTN entry LDP installed."""
    return entry.lsp_id is not None and entry.lsp_id.startswith("ldp:")


def reset_ldp(net: "Network", domain: str = "core") -> int:
    """Withdraw all LDP state (LFIB entries, FTN bindings, labels): the
    :func:`run_ldp` pass with no FEC.  Returns the number of LFIB and FTN
    entries withdrawn."""
    return run_ldp(net, fecs=[], domain=domain).withdrawn


@dataclass
class LdpResult:
    """Outcome of one LDP distribution pass.

    ``bindings[fec][node_name]`` is the incoming label that node advertised
    for the FEC (IMPLICIT_NULL / EXPLICIT_NULL at the egress under PHP /
    explicit-null).  ``sessions`` is the number of LDP adjacencies and
    ``mapping_messages`` the label-mapping advertisements of the bindings
    this pass created.  ``lfib_entries`` / ``ftn_entries`` count the entries
    the bindings imply; ``written`` / ``withdrawn`` the LFIB and FTN entries
    the pass installed or rewrote / removed to get there.
    """

    bindings: dict[Prefix, dict[str, int]] = field(default_factory=dict)
    sessions: int = 0
    mapping_messages: int = 0
    lfib_entries: int = 0
    ftn_entries: int = 0
    written: int = 0
    withdrawn: int = 0


def run_ldp(
    net: "Network",
    fecs: list[Prefix] | None = None,
    domain: str = "core",
    php: bool = True,
    use_explicit_null: bool = False,
) -> LdpResult:
    """Make the LDP state of ``domain``'s LSRs what the IGP implies for
    ``fecs``, writing only the difference (see module docstring).

    Requires a converged IGP (:func:`repro.routing.spf.converge`) since
    LDP follows IGP next hops.  State held for a FEC outside ``fecs`` is
    withdrawn.  Returns the binding table and the control-plane cost
    counters.
    """
    if php and use_explicit_null:
        raise ValueError("php and explicit-null are mutually exclusive")

    t0 = perf_counter()
    view = net.domain_view(domain)
    lsrs: dict[str, Lsr] = {
        name: net.nodes[name]  # type: ignore[misc]
        for name in view.order_names
        if isinstance(net.nodes[name], Lsr)
    }
    result = LdpResult()
    # LDP sessions: one per adjacency where both ends are LSRs.
    session_pairs = [
        (view.names[i], view.names[j])
        for i, j in view.edges
        if view.names[i] in lsrs and view.names[j] in lsrs
    ]
    result.sessions = len(session_pairs)
    net.counters.incr("ldp.sessions", len(session_pairs))

    if fecs is None:
        # Default FEC set: every LSR's loopback plus the prefixes it
        # explicitly injects into the IGP (host routes it fronts).  Link
        # /30s are deliberately excluded — the standard "host routes only"
        # LDP filter — since labeling infrastructure subnets buys nothing.
        fecs = []
        for lsr in lsrs.values():
            if lsr.loopback is not None:
                fecs.append(Prefix.of(lsr.loopback, 32))
            fecs.extend(sorted(lsr.advertised_prefixes))

    # Map each FEC to its egress LSR (the one advertising the prefix).
    owner_of: dict[Prefix, str] = {}
    for name, lsr in lsrs.items():
        if lsr.loopback is not None:
            owner_of[Prefix.of(lsr.loopback, 32)] = name
        for p in lsr.connected_prefixes:
            owner_of.setdefault(p, name)
        for p in lsr.advertised_prefixes:
            owner_of.setdefault(p, name)

    # Each LSR's local label per binding it holds.  The pass pops the ones
    # it keeps; what is left belongs to bindings that went away.
    kept: dict[str, dict[str, int]] = {
        name: {e.lsp_id: label for label, e in lsr.lfib.entries().items()
               if _owned(e) and label in lsr.labels}
        for name, lsr in lsrs.items()
    }
    held_fecs = {lsp_id for labels in kept.values() for lsp_id in labels}

    want_lfib: dict[str, dict[int, LfibEntry]] = defaultdict(dict)
    want_ftn: dict[str, dict[Prefix, Nhlfe]] = defaultdict(dict)
    for fec in dict.fromkeys(fecs):  # a FEC listed twice is one binding
        egress_name = owner_of.get(fec)
        if egress_name is None:
            continue  # FEC not originated by an LSR in this domain
        lsp_id = f"ldp:{fec}"
        # LSRs whose binding is new this pass; the egress's reserved-label
        # binding leaves no state of its own, so it is new with its FEC.
        new: set[str] = set() if lsp_id in held_fecs else {egress_name}
        bindings = _distribute_one(
            view, lsrs, fec, lsp_id, egress_name, php, use_explicit_null, result,
            kept, new, want_lfib, want_ftn,
        )
        result.bindings[fec] = bindings
        # Liberal retention: every LSR advertises a new binding to every
        # neighbour LSR.
        msgs = sum(1 for u, v in session_pairs for end in (u, v) if end in new)
        result.mapping_messages += msgs
        net.counters.incr("ldp.mapping_msgs", msgs)

    # Write per LSR only what differs: one batched install (one generation
    # bump), then the withdrawals, then the labels of bindings gone away.
    for name, lsr in lsrs.items():
        have = {label: e for label, e in lsr.lfib.entries().items() if _owned(e)}
        want = want_lfib.get(name, {})
        installs = [(label, e) for label, e in want.items() if have.get(label) != e]
        removals = [label for label in have if label not in want]
        lsr.lfib.install_many(installs)
        for label in removals:
            lsr.lfib.remove(label)
        for label in kept[name].values():
            lsr.labels.release(label)
        ftn, bind = lsr.ftn.entries(), want_ftn.get(name, {})
        binds = [
            (p, n) for p, n in bind.items()
            if (cur := ftn.get(p)) != n and (cur is None or _owned(cur))
        ]
        unbinds = [p for p, n in ftn.items() if _owned(n) and p not in bind]
        lsr.ftn.bind_many(binds)
        for p in unbinds:
            lsr.ftn.unbind(p)
        result.written += len(installs) + len(binds)
        result.withdrawn += len(removals) + len(unbinds)
    net.trace.publish(
        "ldp.converge",
        net.sim.now,
        sessions=result.sessions,
        mapping_messages=result.mapping_messages,
        lfib_entries=result.lfib_entries,
        ftn_entries=result.ftn_entries,
        fecs=len(result.bindings),
        withdrawn=result.withdrawn,
        wall_s=perf_counter() - t0,
    )
    return result


def _local_label(lsr: Lsr, kept: dict[str, int], lsp_id: str, new: set[str]) -> int:
    """``lsr``'s incoming label for ``lsp_id``: the one it holds, else a
    fresh one (and the binding is new)."""
    label = kept.pop(lsp_id, None)
    if label is None:
        label = lsr.labels.allocate()
        new.add(lsr.name)
    return label


def _distribute_one(
    view: "DomainView",
    lsrs: dict[str, Lsr],
    fec: Prefix,
    lsp_id: str,
    egress_name: str,
    php: bool,
    use_explicit_null: bool,
    result: LdpResult,
    kept: dict[str, dict[str, int]],
    new: set[str],
    want_lfib: dict[str, dict[int, LfibEntry]],
    want_ftn: dict[str, dict[Prefix, Nhlfe]],
) -> dict[str, int]:
    """Compute the LFIB/FTN state one FEC implies; returns node → incoming
    label.

    Runs on the cached domain view: one memoized SPF per *node* for the
    whole pass.  Labels are taken in the reference's order, so on a network
    that holds nothing every label value matches it exactly.
    """
    egress = lsrs[egress_name]
    bindings: dict[str, int] = {}

    if php:
        bindings[egress_name] = IMPLICIT_NULL
    else:
        label = (EXPLICIT_NULL if use_explicit_null
                 else _local_label(egress, kept[egress_name], lsp_id, new))
        bindings[egress_name] = label
        want_lfib[egress_name][label] = LfibEntry(LabelOp.POP_PROCESS, lsp_id=lsp_id)
        result.lfib_entries += 1

    # Ordered control: a node may only advertise a binding once its own next
    # hop toward the egress has one.  Processing nodes by increasing
    # distance-from-egress guarantees the downstream side is decided first,
    # and it naturally stops label distribution at non-MPLS routers in a
    # mixed backbone (Fig. 4): an LSR whose IGP next hop is a plain router
    # gets no binding and its upstream falls back to IP forwarding.
    idx = view.idx
    names = view.names
    ei = idx[egress_name]
    dist_e = view.spf(ei)[0]
    order = sorted(
        (name for name in lsrs if name != egress_name and dist_e[idx[name]] != inf),
        key=lambda n: (dist_e[idx[n]], n),
    )
    for name in order:
        lsr = lsrs[name]
        ni = idx[name]
        dist_n, pred_n, _disc = view.spf(ni)
        if dist_n[ei] == inf:
            continue  # partitioned
        # First hop toward the egress: walk the predecessor chain back from
        # the egress until the node whose predecessor is this source.
        j = ei
        while pred_n[j] != ni:
            j = pred_n[j]
        nh_name = names[j]
        if nh_name not in bindings:
            continue  # next hop is not label-capable for this FEC
        bindings[name] = _local_label(lsr, kept[name], lsp_id, new)

        out_ifname = view.nbr[ni][j][1]
        downstream = bindings[nh_name]
        if downstream == IMPLICIT_NULL:
            entry = LfibEntry(LabelOp.POP, out_ifname=out_ifname, lsp_id=lsp_id)
        else:
            entry = LfibEntry(
                LabelOp.SWAP,
                out_label=downstream,
                out_ifname=out_ifname,
                lsp_id=lsp_id,
            )
        want_lfib[name][bindings[name]] = entry
        result.lfib_entries += 1

        # Every LSR can also act as ingress for this FEC: bind the FTN so
        # unlabeled packets entering here get the tunnel label.
        want_ftn[name][fec] = Nhlfe(out_ifname, (downstream,), lsp_id=lsp_id)
        result.ftn_entries += 1
    return bindings
