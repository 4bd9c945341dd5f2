"""Control-plane fast path primitives: indexed SPF over a cached domain view.

One read-model of the topology for everything that computes a path — the
IGP, LDP, CSPF, IntServ admission and the fluid plane:

* :class:`DomainView` — an integer-indexed snapshot of one routing domain
  (sorted-name index assignment, adjacency lists, per-neighbour egress
  info precomputed from the duplex links), cached on the
  :class:`~repro.topology.Network` behind its ``topology_generation``
  counter, the same structural-invalidation pattern the data plane's
  ``GenCache`` uses.
* :func:`dijkstra_pred` — a predecessor-map Dijkstra with heap keys
  ``(dist, node_index)``.  Because indices are assigned in sorted-name
  order, integer comparison *is* lexicographic name comparison, and the
  exact tie-break of the reference implementation (smallest path as a
  name sequence) is preserved by materializing candidate paths lazily —
  only when two candidates actually tie on cost.
* :meth:`DomainView.route` — the one shortest-path entry over a view:
  the memoized SPF tree, or, given an ``admits(i, j)`` filter on directed
  edges (CSPF's residual-bandwidth and avoid-list pruning), a
  :func:`dijkstra_pred` run over the edges the filter leaves.  Either way
  the metric and the tie-break are the IGP's, and the caller reads each
  hop's link, rate and egress interface off ``view.nbr``.
* :class:`SpfState` — the per-domain snapshot (edges + per-source SPF
  arrays) that :func:`repro.routing.spf.reconverge` diffs against to
  recompute only the sources whose shortest-path trees a link event
  touched.

Per-source results are stored as compact ``array`` triples
``(dist, pred, disc)`` — ``disc`` is the discovery order, which the
converge code must iterate to reproduce the reference FIB contents
bit-for-bit: prefixes advertised by several routers (link /30s) are
installed last-writer-wins, so destination order is part of the contract.

Assumes link metrics are positive and far larger than the 1e-12 tie
epsilon (true for every topology the builders create); under that
assumption pop order among equal-cost nodes cannot change any result.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field
from math import inf
from typing import TYPE_CHECKING, Callable

from repro.net.address import IPv4Address, Prefix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.routing.router import Router
    from repro.topology import DuplexLink, Network

__all__ = [
    "TIE_EPS",
    "costs_equal",
    "dijkstra_pred",
    "first_hop_array",
    "DomainView",
    "NoPathError",
    "SpfState",
]

#: Cost comparison tolerance.  One shared epsilon for *every* equal-cost
#: decision (Dijkstra tie-break, ECMP multipath condition, incremental
#: reconvergence tests) so float metric sums like 0.1+0.2 vs 0.3 are ties
#: everywhere or nowhere.
TIE_EPS = 1e-12


class NoPathError(LookupError):
    """No path ``src -> dst`` on the view: a node is not on it, or the live
    (and admitted) links do not connect the two."""


def costs_equal(a: float, b: float) -> bool:
    """True when two path costs are equal under the shared tolerance."""
    return abs(a - b) <= TIE_EPS


def dijkstra_pred(
    adj: list[list[tuple[int, float]]], src: int
) -> tuple[list[float], list[int], list[int]]:
    """Predecessor-map Dijkstra with exact lexicographic tie-breaking.

    ``adj[u]`` must be sorted by neighbour index (== sorted by name).
    Returns ``(dist, pred, disc)``: distance per node (``inf`` when
    unreachable), predecessor index (-1 for the source and unreached
    nodes), and indices in discovery order (source first).  The tree is
    identical to the reference path-tuple Dijkstra: among equal-cost
    candidates the one whose full node-name path is lexicographically
    smallest wins.
    """
    n = len(adj)
    dist: list[float] = [inf] * n
    pred: list[int] = [-1] * n
    disc: list[int] = [src]
    done = bytearray(n)
    dist[src] = 0.0
    heap: list[tuple[float, int]] = [(0.0, src)]
    pop, push = heapq.heappop, heapq.heappush
    # Final paths, materialized lazily: only consulted when two candidates
    # tie on cost, so the common case never allocates a path tuple.
    paths: dict[int, tuple[int, ...]] = {src: (src,)}
    eps = TIE_EPS

    def final_path(i: int) -> tuple[int, ...]:
        p = paths.get(i)
        if p is not None:
            return p
        stack: list[int] = []
        j = i
        while True:
            p = paths.get(j)
            if p is not None:
                break
            stack.append(j)
            j = pred[j]
        while stack:
            j = stack.pop()
            p = p + (j,)
            paths[j] = p
        return p

    while heap:
        d, u = pop(heap)
        if done[u]:
            continue
        done[u] = 1
        for v, w in adj[u]:
            if done[v]:
                continue
            nd = d + w
            dv = dist[v]
            if dv == inf:
                dist[v] = nd
                pred[v] = u
                disc.append(v)
                push(heap, (nd, v))
            elif nd < dv - eps:
                dist[v] = nd
                pred[v] = u
                push(heap, (nd, v))
            elif nd <= dv + eps:
                pu = pred[v]
                # Equal cost: keep the lexicographically smaller full path.
                # pred values compared here are finalized (their dist is
                # strictly smaller), so their paths are stable.
                if pu != u and final_path(u) + (v,) < final_path(pu) + (v,):
                    dist[v] = nd
                    pred[v] = u
                    push(heap, (nd, v))
    return dist, pred, disc


def first_hop_array(pred, disc, src: int, n: int) -> list[int]:
    """First-hop index per node for a tree rooted at ``src`` (-1 when
    undefined: the source itself and unreachable nodes).

    ``disc`` is first-*discovery* order, which is not topological with
    respect to the final ``pred`` map (a relaxation can re-point a node at
    a predecessor discovered later), so each entry is resolved by walking
    the predecessor chain, memoizing every node on the way — O(V) total.
    """
    fh = [-1] * n
    for k in range(1, len(disc)):
        v = disc[k]
        if fh[v] != -1:
            continue
        stack: list[int] = []
        j = v
        while fh[j] == -1 and pred[j] != src:
            stack.append(j)
            j = pred[j]
        if fh[j] != -1:
            h = fh[j]
        else:
            h = j  # pred[j] is the source: j is its own first hop
            fh[j] = j
        while stack:
            fh[stack.pop()] = h
    return fh


@dataclass
class SpfState:
    """Per-domain snapshot :func:`~repro.routing.spf.reconverge` diffs against.

    ``spf[i]`` holds the ``(dist, pred, disc)`` arrays of the tree rooted at
    index ``i`` at the last convergence; ``edges`` is the view's edge map
    (metric and chosen link per adjacency) those arrays were computed on.
    ``prefixes`` snapshots each router's advertised prefix list — prefix
    churn (``attach_host`` after converge) cannot be located from an edge
    diff, so it makes the next reconverge diff every router.
    """

    ecmp: bool
    names: list[str]
    edges: dict[tuple[int, int], tuple[float, "DuplexLink"]]
    prefixes: list[list[Prefix]]
    spf: dict[int, tuple[array, array, array]] = field(default_factory=dict)


class DomainView:
    """Indexed, generation-stamped snapshot of one routing domain.

    Node indices are assigned in sorted-name order so integer order ==
    lexicographic name order (what the deterministic tie-break needs).
    ``order_idx`` preserves :attr:`Network.nodes` insertion order — the
    iteration order of the reference implementation, and therefore part
    of the FIB-content contract for shared prefixes.

    Built by :meth:`repro.topology.Network.domain_view`, which caches one
    view per domain and rebuilds it when ``topology_generation`` has moved,
    from the domain's members and intra-domain links as the network keeps
    them — a rebuild never reads a node or link outside the domain.
    Per-source SPF results are memoized on the view, so they share its
    lifetime exactly.

    What a view leaves out, for every reader alike: links with a direction
    down, nodes outside the domain (and the links to them), and all but
    the lowest-metric link of a parallel set.  :meth:`Network.node_view`
    builds the same thing over *every* node — ``routers`` then holds hosts
    too — for paths that cross domains (the fluid plane's host-to-host ones).
    """

    __slots__ = (
        "generation", "domain", "names", "idx", "order_names", "order_idx",
        "routers", "adj", "nbr", "edges", "_spf",
    )

    def __init__(self) -> None:
        self.generation: int = -1
        self.domain: str = ""
        self.names: list[str] = []
        self.idx: dict[str, int] = {}
        self.order_names: list[str] = []
        self.order_idx: list[int] = []
        self.routers: list["Router"] = []
        self.adj: list[list[tuple[int, float]]] = []
        # nbr[i][j] = (duplex, out_ifname, next_hop_addr) for i -> j over
        # the lowest-metric parallel link.
        self.nbr: list[dict[int, tuple["DuplexLink", str, IPv4Address]]] = []
        # edges[(i, j)] = (metric, duplex) for i < j: the adjacency and the
        # link chosen for it (a failover between parallel links changes it).
        self.edges: dict[tuple[int, int], tuple[float, "DuplexLink"]] = {}
        self._spf: dict[int, tuple[array, array, array]] = {}

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, net: "Network", domain: str, members: list[str], links: list["DuplexLink"]
    ) -> "DomainView":
        """``members``: the domain's router names in ``net.nodes`` order;
        ``links``: the duplex links with both ends among them, in
        ``net.duplex_links`` order."""
        view = cls()
        view.generation = net.topology_generation
        view.domain = domain
        names = sorted(members)
        idx = {name: i for i, name in enumerate(names)}
        view.names = names
        view.idx = idx
        view.order_names = members
        view.order_idx = [idx[name] for name in members]
        view.routers = [net.nodes[name] for name in names]  # type: ignore[misc]

        # Lowest-metric live duplex per adjacency; ties keep the first link
        # in duplex_links order (matches the reference graph builder).
        best: dict[tuple[int, int], tuple[float, "DuplexLink"]] = {}
        for dl in links:
            if not (dl.link_ab.up and dl.link_ba.up):
                continue
            ia = idx[dl.a.name]
            ib = idx[dl.b.name]
            key = (ia, ib) if ia < ib else (ib, ia)
            cur = best.get(key)
            if cur is None or dl.metric < cur[0]:
                best[key] = (dl.metric, dl)

        n = len(names)
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        nbr: list[dict[int, tuple["DuplexLink", str, IPv4Address]]] = [
            {} for _ in range(n)
        ]
        for key, (metric, dl) in best.items():
            i, j = key
            adj[i].append((j, metric))
            adj[j].append((i, metric))
            ia = idx[dl.a.name]
            ib = idx[dl.b.name]
            nbr[ia][ib] = (dl, *dl.egress_a)
            nbr[ib][ia] = (dl, *dl.egress_b)
        for lst in adj:
            lst.sort()
        view.adj = adj
        view.nbr = nbr
        view.edges = best
        return view

    # ------------------------------------------------------------------
    def spf(self, i: int) -> tuple[array, array, array]:
        """Memoized SPF rooted at index ``i`` (symmetric metrics make one
        destination-rooted run serve every source, and vice versa)."""
        r = self._spf.get(i)
        if r is None:
            dist, pred, disc = dijkstra_pred(self.adj, i)
            r = (array("d", dist), array("q", pred), array("q", disc))
            self._spf[i] = r
        return r

    def edge(self, u: str, v: str) -> tuple["DuplexLink", str, IPv4Address] | None:
        """The view's link ``u → v`` as ``(duplex, u's egress interface,
        v's address on it)``; None when no live link joins the two here."""
        i = self.idx.get(u)
        return None if i is None else self.nbr[i].get(self.idx.get(v))

    def route(
        self, src: str, dst: str, admits: Callable[[int, int], bool] | None = None
    ) -> list[int]:
        """Node indices of the shortest path ``src → dst``.

        Metric and tie-break are the IGP's: among equal-cost paths the
        lexicographically smallest name sequence.  ``admits(i, j)`` keeps
        or drops the directed edge ``i → j`` before the search (a link may
        be full one way and empty the other); without it the memoized SPF
        tree is read.  Raises :class:`NoPathError` when either name is not
        on the view or nothing (admitted) connects them.
        """
        si = self.idx.get(src)
        di = self.idx.get(dst)
        if si is None or di is None:
            missing = src if si is None else dst
            raise NoPathError(f"{src} -> {dst}: {missing} is not in domain {self.domain!r}")
        if admits is None:
            dist, pred, _disc = self.spf(si)
        else:
            adj = [
                [(j, w) for j, w in row if admits(i, j)]
                for i, row in enumerate(self.adj)
            ]
            dist, pred, _disc = dijkstra_pred(adj, si)
        if dist[di] == inf:
            raise NoPathError(f"{src} -> {dst}: no path in domain {self.domain!r}")
        # Walked up the final predecessor chain: discovery order is not
        # topological (a relaxation can re-point a node at a predecessor
        # discovered after it).
        path = [di]
        while path[-1] != si:
            path.append(pred[path[-1]])
        path.reverse()
        return path
