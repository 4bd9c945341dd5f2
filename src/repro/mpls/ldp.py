"""LDP-style hop-by-hop label distribution.

Distributes label bindings for a set of FECs (by default, every LSR's
loopback host route — the tunnel endpoints BGP/MPLS VPNs need) along the
IGP shortest-path tree, exactly as downstream-unsolicited LDP with ordered
control would: the egress originates a binding, each upstream LSR allocates
its own incoming label and records the downstream label to swap to.

Wire behaviour is abstracted to *message counting*: with liberal label
retention every LSR advertises each binding over every LDP session, so the
message count per FEC equals twice the number of LSR adjacencies.  These
counters are the MPLS side of experiment E1 — compare their growth in the
number of VPN sites against the O(N²) virtual-circuit mesh.

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


def reset_ldp(net: "Network", domain: str = "core") -> int:
    """Withdraw all LDP-installed state (LFIB entries, FTN bindings, labels).

    Used together with :func:`repro.routing.spf.reconverge`: after the IGP
    moves, LDP bindings must follow the new next hops, so the resilience
    experiment resets and re-runs distribution.  Returns the number of
    LFIB entries removed.
    """
    removed = 0
    for node in net.nodes.values():
        if not isinstance(node, Lsr) or node.domain != domain:
            continue
        for in_label, entry in list(node.lfib.entries().items()):
            if entry.lsp_id and entry.lsp_id.startswith("ldp:"):
                node.lfib.remove(in_label)
                if in_label in node.labels:
                    node.labels.release(in_label)
                removed += 1
        for prefix, nhlfe in list(node.ftn.entries().items()):
            if nhlfe.lsp_id and nhlfe.lsp_id.startswith("ldp:"):
                node.ftn.unbind(prefix)
    net.trace.publish("ldp.reset", net.sim.now, removed=removed)
    return removed


@dataclass
class LdpResult:
    """Outcome of one LDP distribution pass.

    ``bindings[fec][node_name]`` is the incoming label that node advertised
    for the FEC (IMPLICIT_NULL / EXPLICIT_NULL at the egress under PHP /
    explicit-null).  ``sessions`` is the number of LDP adjacencies and
    ``mapping_messages`` the total label-mapping advertisements sent.
    """

    bindings: dict[Prefix, dict[str, int]] = field(default_factory=dict)
    sessions: int = 0
    mapping_messages: int = 0
    lfib_entries: int = 0
    ftn_entries: int = 0


def run_ldp(
    net: "Network",
    fecs: list[Prefix] | None = None,
    domain: str = "core",
    php: bool = True,
    use_explicit_null: bool = False,
) -> LdpResult:
    """Distribute labels for ``fecs`` among all in-domain LSRs.

    Requires a converged IGP (:func:`repro.routing.spf.converge`) since
    LDP follows IGP next hops.  Returns the binding table and the
    control-plane cost counters.
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

    # Batched install: every LFIB/FTN write for the whole pass lands per
    # node in one generation bump (nothing consults the tables mid-run).
    pending_lfib: dict[str, list[tuple[int, LfibEntry]]] = defaultdict(list)
    pending_ftn: dict[str, list[tuple[Prefix, Nhlfe]]] = defaultdict(list)
    for fec in fecs:
        egress_name = owner_of.get(fec)
        if egress_name is None:
            continue  # FEC not originated by an LSR in this domain
        bindings = _distribute_one(
            view, lsrs, fec, egress_name, php, use_explicit_null, result,
            pending_lfib, pending_ftn,
        )
        result.bindings[fec] = bindings
        # Liberal retention: every LSR advertises its binding to every
        # neighbour LSR; the egress advertises too.
        msgs = sum(
            1
            for u, v in session_pairs
            for end in (u, v)
            if end in bindings or end == egress_name
        )
        result.mapping_messages += msgs
        net.counters.incr("ldp.mapping_msgs", msgs)
    for name, items in pending_lfib.items():
        lsrs[name].lfib.install_many(items)
    for name, items in pending_ftn.items():
        lsrs[name].ftn.bind_many(items)
    net.trace.publish(
        "ldp.converge",
        net.sim.now,
        sessions=result.sessions,
        mapping_messages=result.mapping_messages,
        lfib_entries=result.lfib_entries,
        ftn_entries=result.ftn_entries,
        fecs=len(result.bindings),
        wall_s=perf_counter() - t0,
    )
    return result


def _distribute_one(
    view: "DomainView",
    lsrs: dict[str, Lsr],
    fec: Prefix,
    egress_name: str,
    php: bool,
    use_explicit_null: bool,
    result: LdpResult,
    pending_lfib: dict[str, list[tuple[int, LfibEntry]]],
    pending_ftn: dict[str, list[tuple[Prefix, Nhlfe]]],
) -> dict[str, int]:
    """Queue LFIB/FTN state for one FEC; returns node → incoming label.

    Runs on the cached domain view: one memoized SPF per *node* for the
    whole pass (the pre-PR implementation ran a fresh Dijkstra per
    (FEC, node) pair).  Label allocation order — and therefore every label
    value — matches the reference exactly.
    """
    lsp_id = f"ldp:{fec}"
    egress = lsrs[egress_name]
    bindings: dict[str, int] = {}

    if php:
        bindings[egress_name] = IMPLICIT_NULL
    elif use_explicit_null:
        bindings[egress_name] = EXPLICIT_NULL
        pending_lfib[egress_name].append(
            (EXPLICIT_NULL, LfibEntry(LabelOp.POP_PROCESS, lsp_id=lsp_id))
        )
        result.lfib_entries += 1
    else:
        label = egress.labels.allocate()
        bindings[egress_name] = label
        pending_lfib[egress_name].append(
            (label, LfibEntry(LabelOp.POP_PROCESS, lsp_id=lsp_id))
        )
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
        bindings[name] = lsr.labels.allocate()

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
        pending_lfib[name].append((bindings[name], entry))
        result.lfib_entries += 1

        # Every LSR can also act as ingress for this FEC: bind the FTN so
        # unlabeled packets entering here get the tunnel label.
        pending_ftn[name].append((fec, Nhlfe(out_ifname, (downstream,), lsp_id=lsp_id)))
        result.ftn_entries += 1
    return bindings
