"""Link-state shortest-path routing (converged-OSPF model).

Rather than simulating LSA flooding packet-by-packet, :func:`converge`
computes what a converged OSPF domain would have computed — per-router
shortest-path trees over the configured metrics — and installs the
resulting routes into every router's FIB.  This is the standard modeling
shortcut for steady-state studies and it keeps the data-plane experiments
unconfounded by IGP transients.

The paper's claim C2 hinges on a *property* of this protocol family: the
metric is static, so the IGP cannot route around load.  :func:`converge`
therefore takes no notice of traffic — by design.  Constraint-based routing
that does see residual bandwidth lives in :mod:`repro.mpls.te`.

Customer equipment (``node.domain != domain``) is excluded: its addresses
may overlap between customers and must never enter the provider IGP
(claim C5); reachability for them is the VPN layer's job.

All graph work runs on the network's cached
:class:`~repro.routing.spf_core.DomainView` (integer-indexed,
generation-stamped) — the one topology read-model, which CSPF, IntServ
admission and the fluid plane route on too — routes land in the FIB
through batched installs, and :func:`reconverge` is
*incremental*: it diffs the edge set against the snapshot of the last
convergence and recomputes only the sources whose shortest-path trees the
change can touch.  FIB contents are bit-identical to the reference
implementation (``tests/reference/routing.py``);
``tests/test_spf_parity.py`` holds that equivalence.
"""

from __future__ import annotations

from math import inf
from time import perf_counter
from typing import TYPE_CHECKING

from repro.net.address import IPv4Address, Prefix
from repro.routing.fib import RouteEntry
from repro.routing.router import Router
from repro.routing.spf_core import (
    TIE_EPS,
    SpfState,
    costs_equal,
    first_hop_array,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (topology -> routing)
    from repro.routing.spf_core import DomainView
    from repro.topology import Network

__all__ = ["converge", "spf_paths", "advertised_prefixes"]


def advertised_prefixes(router: "Router") -> list[Prefix]:
    """Prefixes ``router`` contributes to the IGP.

    Loopback host route + connected link subnets + explicitly injected
    prefixes (access subnets for hosts it fronts).
    """
    out: list[Prefix] = []
    if router.loopback is not None:
        out.append(Prefix.of(router.loopback, 32))
    out.extend(router.connected_prefixes)
    out.extend(router.advertised_prefixes)
    return out


def _install_spf_for_source(
    view: "DomainView", si: int, prefixes_by_idx: list[list[Prefix]]
) -> list[tuple[Prefix, RouteEntry]]:
    """The (prefix, entry) batch one source's SPF run wants installed.

    Destinations are iterated in Dijkstra *discovery order* — the
    reference implementation's ``paths`` dict order — because prefixes
    advertised by several routers (link /30s) resolve last-writer-wins.
    """
    dist, pred, disc = view.spf(si)
    nbr = view.nbr[si]
    src = view.routers[si]
    cp = src.connected_prefixes
    batch: list[tuple[Prefix, RouteEntry]] = [
        (subnet, RouteEntry(ifname, None, 0.0, "connected"))
        for subnet, ifname in cp.items()
    ]
    fh = first_hop_array(pred, disc, si, len(view.names))
    for k in range(1, len(disc)):
        v = disc[k]
        info = nbr[fh[v]]
        entry = RouteEntry(info[1], info[2], dist[v], "spf")
        for prefix in prefixes_by_idx[v]:
            if prefix in cp:
                continue  # already covered by the connected route
            batch.append((prefix, entry))
    # Shared prefixes (link /30s advertised by both endpoints) appear twice;
    # install_many writes in order, so last-writer-wins falls out — and the
    # duplicate counts toward the return value exactly as the per-route
    # implementation counted it.
    return batch


def _ecmp_entry_towards(
    view: "DomainView", sj: int, dist
) -> RouteEntry | None:
    """Source ``sj``'s ECMP route entry toward the destination whose
    distance array is ``dist`` (None when unreachable / no candidate)."""
    ds = dist[sj]
    if ds == inf:
        return None
    candidates: list[tuple[str, IPv4Address]] = []
    nbr = view.nbr[sj]
    for v, w in view.adj[sj]:
        dv = dist[v]
        if dv != inf and costs_equal(w + dv, ds):
            info = nbr[v]
            candidates.append((info[1], info[2]))
    if not candidates:
        return None
    (primary_if, primary_nh), *alts = candidates
    return RouteEntry(primary_if, primary_nh, ds, "spf", alternates=tuple(alts))


def _save_state(net: "Network", domain: str, view: "DomainView", ecmp: bool,
                prefixes_by_idx: list[list[Prefix]]) -> None:
    net._spf_state[domain] = SpfState(
        ecmp=ecmp,
        names=view.names,
        edges=dict(view.edges),
        prefixes=[tuple(p) for p in prefixes_by_idx],
        spf=dict(view._spf),
    )


def converge(net: "Network", domain: str = "core", ecmp: bool = False) -> int:
    """Compute and install SPF routes for every in-domain router.

    Returns the number of FIB entries installed.  Deterministic: equal-cost
    ties break toward the lexicographically smallest next-hop router name.
    With ``ecmp=True`` every equal-cost first hop is installed instead (the
    lowest-named one as primary, the rest as alternates) and routers spread
    *flows* across them by 5-tuple hash.
    """
    if ecmp:
        return _converge_ecmp(net, domain)
    view = net.domain_view(domain)
    prefixes_by_idx = [advertised_prefixes(r) for r in view.routers]
    installed = 0
    for si in view.order_idx:
        batch = _install_spf_for_source(view, si, prefixes_by_idx)
        installed += view.routers[si].fib.install_many(batch)
    _save_state(net, domain, view, False, prefixes_by_idx)
    return installed


def _converge_ecmp(net: "Network", domain: str) -> int:
    """ECMP variant of :func:`converge`: per-destination relaxation.

    For destination D, router S's equal-cost first hops are the neighbours
    v with ``metric(S,v) + dist_D(v) == dist_D(S)`` — the standard OSPF
    multipath condition.  Assumes symmetric link metrics (true for every
    link :meth:`repro.topology.Network.connect` creates), which lets one
    destination-rooted SPF serve every source.
    """
    view = net.domain_view(domain)
    prefixes_by_idx = [advertised_prefixes(r) for r in view.routers]
    installed = 0
    for si in view.order_idx:
        src = view.routers[si]
        batch = [
            (subnet, RouteEntry(ifname, None, 0.0, "connected"))
            for subnet, ifname in src.connected_prefixes.items()
        ]
        installed += src.fib.install_many(batch)
    batches: dict[int, list[tuple[Prefix, RouteEntry]]] = {
        i: [] for i in view.order_idx
    }
    for di in view.order_idx:
        dist, _pred, _disc = view.spf(di)
        prefixes = prefixes_by_idx[di]
        for sj in view.order_idx:
            if sj == di:
                continue
            entry = _ecmp_entry_towards(view, sj, dist)
            if entry is None:
                continue
            cp = view.routers[sj].connected_prefixes
            b = batches[sj]
            for prefix in prefixes:
                if prefix in cp:
                    continue
                b.append((prefix, entry))
    for sj in view.order_idx:
        installed += view.routers[sj].fib.install_many(batches[sj])
    _save_state(net, domain, view, True, prefixes_by_idx)
    return installed


def clear_routes(router: Router, sources: tuple[str, ...] = ("spf", "connected")) -> int:
    """Withdraw every FIB route whose provenance is in ``sources``.

    Used before reconvergence so stale paths through failed links vanish;
    static/BGP/bench routes survive.
    """
    doomed = [p for p, e in list(router.fib.routes()) if e.source in sources]
    return router.fib.withdraw_many(doomed)


def _full_reconverge(net: "Network", domain: str, ecmp: bool) -> int:
    view = net.domain_view(domain)
    for router in view.routers:
        clear_routes(router)
    return converge(net, domain, ecmp=ecmp)


def reconverge(net: "Network", domain: str = "core") -> int:
    """Recompute the IGP after a topology change — the public entry point.

    Thin wrapper over :func:`_reconverge_impl` that publishes
    ``spf.reconverge`` (``domain``, ``installs``, ``wall_s``) on the
    network's trace bus, timed only when someone listens.  Only this
    public entry publishes: the ``_full_reconverge`` → ``converge``
    internal path must not announce the same event twice.
    """
    trace = net.trace
    if not trace.active("spf.reconverge"):
        return _reconverge_impl(net, domain)
    t0 = perf_counter()
    installs = _reconverge_impl(net, domain)
    trace.publish("spf.reconverge", net.sim.now, domain=domain, installs=installs,
                  wall_s=perf_counter() - t0)
    return installs


def _reconverge_impl(net: "Network", domain: str = "core") -> int:
    """Recompute the IGP after a topology change (link failure/restore).

    Models the end state of an SPF re-run triggered by LSA flooding.  The
    *time* reconvergence takes (hello/dead timers + SPF delay) is an
    experiment parameter, not simulated here — the resilience experiment
    applies it as a delay before calling this.

    Incremental: the edge set is diffed against the snapshot of the last
    convergence and SPF re-runs only for sources (ECMP: destinations)
    whose shortest-path trees the change can touch; their FIBs receive the
    withdraw/install *delta*.  Contents are always identical to a full
    ``clear_routes`` + :func:`converge`, which remains the fallback for
    anything the diff can't localize (membership or prefix churn, several
    edges appearing at once).  The ECMP flag of the previous convergence
    is preserved — a domain converged with ``ecmp=True`` reconverges with
    ECMP, where the pre-fast-path implementation silently downgraded to
    single-path.  Returns the number of FIB installs performed.

    Cache contract: a FIB's generation moves iff its contents changed, so
    the data plane's generation-guarded flow caches revalidate exactly
    where forwarding could differ.  Routers whose FIB the event did not
    touch — including every router on a no-op reconverge — keep their
    generation, and their caches, intact.
    """
    state: SpfState | None = net._spf_state.get(domain)
    view = net.domain_view(domain)
    ecmp = state.ecmp if state is not None else False
    if state is None or state.names != view.names:
        return _full_reconverge(net, domain, ecmp)
    prefixes_by_idx = [advertised_prefixes(r) for r in view.routers]
    if [tuple(p) for p in prefixes_by_idx] != state.prefixes:
        return _full_reconverge(net, domain, ecmp)
    if state.edges == view.edges:
        # Nothing moved; the installed routes are already the converged
        # state.  FIB generations stay put: a generation moves iff the
        # FIB's contents changed, so an unchanged FIB means every flow
        # cache derived from it is still valid.  The delta paths below
        # keep the same contract for unaffected routers.
        return 0
    removed = [key for key, m in state.edges.items() if view.edges.get(key) != m]
    added = [(key, m) for key, m in view.edges.items() if state.edges.get(key) != m]
    if len(added) > 1:
        # Several new edges can enable each other (chained improvements);
        # the single-edge attractiveness test below is only sound alone.
        return _full_reconverge(net, domain, ecmp)
    if ecmp:
        return _reconverge_ecmp_delta(net, domain, view, state,
                                      prefixes_by_idx, removed, added)
    return _reconverge_spt_delta(net, domain, view, state,
                                 prefixes_by_idx, removed, added)


def _added_edge_affects(dist, key: tuple[int, int], w: float) -> bool:
    """Could a new edge ``key`` with metric ``w`` enter this root's
    shortest-path DAG (improve or tie any distance, or extend reach)?"""
    u, v = key
    du, dv = dist[u], dist[v]
    fu, fv = du != inf, dv != inf
    if fu and fv:
        return du + w <= dv + TIE_EPS or dv + w <= du + TIE_EPS
    return fu or fv  # reaches across the old reachability frontier


def _reconverge_spt_delta(
    net: "Network", domain: str, view: "DomainView", state: SpfState,
    prefixes_by_idx: list[list[Prefix]],
    removed: list[tuple[int, int]], added: list[tuple[tuple[int, int], float]],
) -> int:
    n = len(view.names)
    affected: list[int] = []
    for si in range(n):
        dist, pred, _disc = state.spf[si]
        hit = False
        for u, v in removed:
            # An edge changes this source's result only if its tree used it
            # (non-tree equal-cost alternatives don't move dists or the
            # lexicographic winner).
            if pred[u] == v or pred[v] == u:
                hit = True
                break
        if not hit:
            for key, w in added:
                if _added_edge_affects(dist, key, w):
                    hit = True
                    break
        if hit:
            affected.append(si)
    installs = 0
    for si in affected:
        src = view.routers[si]
        desired: dict[Prefix, RouteEntry] = {}
        for prefix, entry in _install_spf_for_source(view, si, prefixes_by_idx):
            if entry.source == "spf":
                desired[prefix] = entry
        current = {
            p: e for p, e in src.fib.routes() if e.source == "spf"
        }
        src.fib.withdraw_many([p for p in current if p not in desired])
        installs += src.fib.install_many(
            [(p, e) for p, e in desired.items() if current.get(p) != e]
        )
        state.spf[si] = view.spf(si)
    state.edges = dict(view.edges)
    return installs


def _reconverge_ecmp_delta(
    net: "Network", domain: str, view: "DomainView", state: SpfState,
    prefixes_by_idx: list[list[Prefix]],
    removed: list[tuple[int, int]], added: list[tuple[tuple[int, int], float]],
) -> int:
    n = len(view.names)
    affected: set[int] = set()
    for di in range(n):
        dist = state.spf[di][0]
        hit = False
        for key in removed:
            u, v = key
            du, dv = dist[u], dist[v]
            if du == inf or dv == inf:
                continue  # edge was outside this root's reachable DAG
            w_old = state.edges[key]
            if costs_equal(du, dv + w_old) or costs_equal(dv, du + w_old):
                hit = True  # edge sat in the shortest-path DAG
                break
        if not hit:
            for key, w in added:
                if _added_edge_affects(dist, key, w):
                    hit = True
                    break
        if hit:
            affected.add(di)
    if not affected:
        state.edges = dict(view.edges)
        return 0
    # Prefixes advertised by several routers resolve last-writer-wins in
    # destination order, so every co-advertiser of an affected router's
    # prefixes must be replayed too (their stored distance arrays still
    # hold — only the affected ones are recomputed).
    order_pos = {di: k for k, di in enumerate(view.order_idx)}
    adv: dict[Prefix, list[int]] = {}
    for di in view.order_idx:
        for p in prefixes_by_idx[di]:
            adv.setdefault(p, []).append(di)
    process: set[int] = set(affected)
    for di in affected:
        for p in prefixes_by_idx[di]:
            process.update(adv[p])
    desired: dict[int, dict[Prefix, RouteEntry]] = {}
    for di in view.order_idx:
        if di not in process:
            continue
        if di in affected:
            dist = view.spf(di)[0]
            state.spf[di] = view.spf(di)
        else:
            dist = state.spf[di][0]
        prefixes = prefixes_by_idx[di]
        pos_di = order_pos[di]
        # A later co-advertiser we are *not* replaying already owns the FIB
        # entry wherever it is reachable — don't overwrite it.
        standing: dict[Prefix, list[int]] = {}
        for p in prefixes:
            standing[p] = [
                k for k in adv[p]
                if k not in process and order_pos[k] > pos_di
            ]
        for sj in view.order_idx:
            if sj == di:
                continue
            entry = _ecmp_entry_towards(view, sj, dist)
            if entry is None:
                continue
            cp = view.routers[sj].connected_prefixes
            d_j = desired.setdefault(sj, {})
            for p in prefixes:
                if p in cp:
                    continue
                if any(state.spf[k][0][sj] != inf for k in standing[p]):
                    continue
                d_j[p] = entry
    # Withdrawals: a prefix of an affected router leaves a FIB only when no
    # co-advertiser reaches that source anymore.
    affected_prefixes: set[Prefix] = set()
    for di in affected:
        affected_prefixes.update(prefixes_by_idx[di])
    installs = 0
    for sj in view.order_idx:
        src = view.routers[sj]
        d_j = desired.get(sj, {})
        cp = src.connected_prefixes
        withdraws = []
        for p in affected_prefixes:
            if p in cp or p in d_j:
                continue
            if src.fib.get(p) is None:
                continue
            if any(state.spf[k][0][sj] != inf for k in adv[p]):
                continue  # some advertiser still reaches sj; entry stands
            withdraws.append(p)
        src.fib.withdraw_many(withdraws)
        if d_j:
            current = src.fib
            installs += src.fib.install_many(
                [(p, e) for p, e in d_j.items() if current.get(p) != e]
            )
    state.edges = dict(view.edges)
    return installs


def spf_paths(net: "Network", src: str, dst: str, domain: str = "core") -> list[str]:
    """The deterministic shortest path ``src → dst`` as a node-name list
    (:class:`~repro.routing.spf_core.NoPathError` when there is none)."""
    view = net.domain_view(domain)
    names = view.names
    return [names[i] for i in view.route(src, dst)]
