"""Network container and topology builders.

:class:`Network` owns the simulator, the nodes, and the duplex links, and
provides the wiring helpers every experiment uses: create routers/LSRs/
hosts, connect them with rate+delay+metric links, hand the control plane
its indexed view of the topology (SPF, CSPF, admission, the fluid plane),
and collect link utilization at the end of a run.

Topology builders at the bottom create the recurring shapes of the
evaluation: a line, a star, the classic *fish* traffic-engineering
topology, and a 12-node reference ISP backbone modeled on the two-level
(core + POP) structure the paper's Fig. 4 sketches.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional

from repro.net.address import IPv4Address, Prefix
from repro.net.link import Interface, Link
from repro.net.node import Host, Node
from repro.qos.queues import DropTailFifo, QueueDiscipline
from repro.routing.router import Router
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.sim.trace import Counter, TraceBus

__all__ = [
    "DuplexLink",
    "Network",
    "build_line",
    "build_star",
    "build_full_mesh",
    "build_fish",
    "attach_host",
    "build_waxman",
    "build_backbone",
]

QdiscFactory = Callable[[Node, str], QueueDiscipline]


def _default_qdisc(node: Node, ifname: str) -> QueueDiscipline:
    return DropTailFifo(capacity_packets=100)


class DuplexLink:
    """Bookkeeping record for one bidirectional connection.

    ``addr_a``/``addr_b`` are set by :meth:`Network.connect`, and the
    ``egress_*`` pairs read off them, so the control plane resolves a next
    hop without scanning the peer's address table; ``net`` points back at
    the owning network so :meth:`set_up` can bump its topology generation
    (link state is part of the IGP topology), and is ``None`` again once
    :meth:`Network.disconnect` has taken the link out.  Compared by
    identity: a link *is* its record, and ``disconnect`` finds it among the
    network's links without a field-by-field compare of every record before
    it.  Slotted, like the interfaces and links it holds, and imaged like
    them as the tuple of its slot values.

    Invariant: every routing-relevant mutation must bump the owning
    network's ``topology_generation``, or cached domain views go stale.
    The writable surfaces are guarded — ``metric`` is a property that
    bumps on rewrite, and direct ``link_ab.up`` / ``link_ba.up`` writes
    bump through the :class:`~repro.net.link.Link` state-change hook
    :meth:`Network.connect` wires — so callers may mutate them directly
    instead of going through :meth:`set_up`.
    """

    __slots__ = (
        "a", "b", "if_ab", "if_ba", "link_ab", "link_ba",
        "_metric", "addr_a", "addr_b", "net",
    )

    def __init__(
        self,
        a: Node,
        b: Node,
        if_ab: Interface,
        if_ba: Interface,
        link_ab: Link,
        link_ba: Link,
        metric: float,
        addr_a: IPv4Address | None = None,
        addr_b: IPv4Address | None = None,
        net: "Network | None" = None,
    ) -> None:
        self.a, self.b = a, b
        self.if_ab, self.if_ba = if_ab, if_ba
        self.link_ab, self.link_ba = link_ab, link_ba
        self._metric = metric
        self.addr_a, self.addr_b = addr_a, addr_b
        self.net = net

    def __getstate__(self) -> tuple:
        return (
            self.a, self.b, self.if_ab, self.if_ba, self.link_ab, self.link_ba,
            self._metric, self.addr_a, self.addr_b, self.net,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.a, self.b, self.if_ab, self.if_ba, self.link_ab, self.link_ba,
            self._metric, self.addr_a, self.addr_b, self.net,
        ) = state

    @property
    def rate_bps(self) -> float:
        """Line rate, as the ``a`` end's transmitter has it (read-only)."""
        return self.if_ab.rate_bps

    @property
    def delay_s(self) -> float:
        """Propagation delay, as the ``a -> b`` link has it (read-only)."""
        return self.link_ab.delay_s

    @property
    def metric(self) -> float:
        """IGP cost.  IGP state, so a rewrite invalidates cached domain
        views exactly like a link up/down."""
        return self._metric

    @metric.setter
    def metric(self, value: float) -> None:
        changed = self._metric != value
        self._metric = value
        if changed and self.net is not None:
            self.net.topology_generation += 1

    @property
    def egress_a(self) -> tuple[str, IPv4Address | None]:
        """``a``'s way over the link: (out interface, next hop = ``b``'s address)."""
        return self.if_ab.name, self.addr_b

    @property
    def egress_b(self) -> tuple[str, IPv4Address | None]:
        """``b``'s way over the link: (out interface, next hop = ``a``'s address)."""
        return self.if_ba.name, self.addr_a

    def set_up(self, up: bool) -> None:
        """Raise/fail both directions (simulates a link cut)."""
        self.link_ab.up = up
        self.link_ba.up = up
        if self.net is not None:
            self.net.topology_generation += 1

    def utilization(self, elapsed: float) -> tuple[float, float]:
        """(a→b, b→a) transmitter utilization over ``elapsed`` seconds."""
        return self.if_ab.utilization(elapsed), self.if_ba.utilization(elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DuplexLink {self.a.name}-{self.b.name} metric={self._metric:g}>"


_DomainIndex = tuple[dict[str, Router], list[DuplexLink]]


class Network:
    """A simulated network: kernel + nodes + links + address plan.

    Infrastructure addressing is automatic: loopbacks from 172.16.0.0/16
    (one /32 per node) and point-to-point /30s from 192.168.0.0/16.  The
    10.0.0.0/8 space is deliberately left to *customers*, so VPN experiments
    can use overlapping 10/8 plans without colliding with the provider.

    What :meth:`connect` and :meth:`add_node` put in, :meth:`disconnect`
    and :meth:`remove_node` take out again — interfaces, addresses,
    connected prefixes and the /30, which goes back to the allocator and is
    the next one handed out (lowest first), so a circuit that flaps gets
    its subnet back.
    """

    LOOPBACK_POOL = Prefix.parse("172.16.0.0/16")
    LINKNET_POOL = Prefix.parse("192.168.0.0/16")

    def __init__(self, seed: int = 0) -> None:
        self.sim = Simulator()
        self.trace = TraceBus()
        self.streams = RandomStreams(seed)
        self.counters = Counter()
        self.nodes: dict[str, Node] = {}
        self.duplex_links: list[DuplexLink] = []
        self.default_qdisc_factory: QdiscFactory = _default_qdisc
        # Structural version of the routing topology (nodes, links, link
        # state).  The control plane caches its domain views behind this
        # counter — the GenCache pattern from ``repro.dataplane.caches``.
        self.topology_generation = 0
        self._domain_views: dict = {}
        self._spf_state: dict = {}
        # Routing domain -> (its routers by name, in add order; the duplex
        # links with both ends in it, in connect order).  Indexed by the
        # first domain_view() of a domain and kept in step from then on, so
        # a view rebuild reads the domain, not everything provisioned.
        self._domains: dict[str, _DomainIndex] = {}
        # The state-change hook connect() wires into every Link: one bound
        # method for the network, not one per link pair.
        self._link_hook = self._link_state_changed
        # Address allocators are plain integer cursors, not live iterators:
        # the network must serialize (repro.sim.snapshot pickles the whole
        # object graph) and a half-consumed generator cannot.
        self._next_loopback = 1
        self._next_linknet = 0
        # /30s disconnect() handed back, as pool indices in a heap.
        self._free_linknets: list[int] = []
        # ``None`` unless the process-wide telemetry switch is on (see
        # repro.obs.runtime); imported late so repro.topology stays importable
        # without pulling the whole observability stack into every user.
        from repro.obs.runtime import attach_if_enabled, vector_mode_enabled

        self.telemetry = attach_if_enabled(self)
        # Vector fast path (default on): fuse same-time arrivals at one
        # node into a receive_batch vector.  Observationally identical to
        # scalar dispatch; repro.obs.runtime.set_vector_mode(False) forces
        # the scalar parity oracle for networks built afterwards.
        if vector_mode_enabled():
            from repro.net.node import install_vector_dispatch

            install_vector_dispatch(self.sim)

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def add_node(self, node: Node, loopback: bool = True) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        node.trace = self.trace
        node._network = self
        indexed = self._domains.get(node.domain)
        if indexed is not None and isinstance(node, Router):
            indexed[0][node.name] = node
        self.topology_generation += 1
        if loopback and node.loopback is None:
            node.set_loopback(self._alloc_loopback())
        return node

    def remove_node(self, node: Node) -> None:
        """Take a node out of the network.

        Its links go first (:meth:`disconnect`): a node that still has an
        interface is refused by name, so no link is left pointing at a
        node the network no longer holds.  A loopback it was given is not
        handed out again.
        """
        if self.nodes.get(node.name) is not node:
            raise ValueError(f"node {node.name!r} is not in this network")
        if node.interfaces:
            raise ValueError(
                f"node {node.name!r} still has interfaces "
                f"{sorted(node.interfaces)}; disconnect its links first"
            )
        del self.nodes[node.name]
        node._network = None
        indexed = self._domains.get(node.domain)
        if indexed is not None:
            indexed[0].pop(node.name, None)
        self.topology_generation += 1

    def _domain_changed(self) -> None:
        """A node's ``domain`` was rewritten after :meth:`add_node`: who is
        in which domain is re-read by each domain's next view."""
        self._domains.clear()
        self.topology_generation += 1

    def _alloc_loopback(self) -> IPv4Address:
        """Next free loopback /32 (resumable: a restored network keeps
        allocating where the snapshotted one stopped)."""
        n = self._next_loopback
        if n >= self.LOOPBACK_POOL.num_addresses - 1:
            raise ValueError("loopback pool exhausted")
        self._next_loopback = n + 1
        return self.LOOPBACK_POOL.host(n)

    def _alloc_linknet(self) -> Prefix:
        """Lowest free point-to-point /30 of the linknet pool: one that
        :meth:`disconnect` handed back, else the next never used."""
        pool = self.LINKNET_POOL
        if self._free_linknets:
            n = heappop(self._free_linknets)
        else:
            n = self._next_linknet
            if n >= pool.num_addresses >> 2:
                raise ValueError(f"linknet pool {pool} exhausted: all {n} /30s are in use")
            self._next_linknet = n + 1
        return Prefix(pool.network + (n << 2), 30)

    def linknets_free(self) -> int:
        """Point-to-point /30s :meth:`connect` can still hand out."""
        return (
            (self.LINKNET_POOL.num_addresses >> 2)
            - self._next_linknet + len(self._free_linknets)
        )

    def add_router(self, name: str, **kw) -> Router:
        kw.setdefault("trace", self.trace)
        return self.add_node(Router(self.sim, name, **kw))  # type: ignore[return-value]

    def add_host(self, name: str, **kw) -> Host:
        kw.setdefault("trace", self.trace)
        return self.add_node(Host(self.sim, name, **kw), loopback=False)  # type: ignore[return-value]

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def routers(self) -> list[Router]:
        """All nodes with a FIB (plain routers, LSRs, PEs)."""
        return [n for n in self.nodes.values() if isinstance(n, Router)]

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(
        self,
        a: Node | str,
        b: Node | str,
        rate_bps: float = 10e6,
        delay_s: float = 1e-3,
        metric: float = 1.0,
        qdisc_factory: QdiscFactory | None = None,
    ) -> DuplexLink:
        """Create a duplex link between ``a`` and ``b``.

        Each direction gets its own interface (named ``to-<peer>``), queue
        discipline, and simplex :class:`Link`.  A fresh /30 subnet is
        assigned so routed next hops resolve to real addresses.
        ``qdisc_factory`` must hand each interface a discipline of its own.
        """
        na = self.nodes[a] if isinstance(a, str) else a
        nb = self.nodes[b] if isinstance(b, str) else b
        factory = qdisc_factory or self.default_qdisc_factory

        if_ab_name = self._ifname(na, nb)
        if_ba_name = self._ifname(nb, na)
        # Interface and Link reject impossible rates / delays and a queue
        # discipline another interface owns, and the pool may be spent
        # (ValueError all): build all four and take the /30 before touching
        # the nodes, so a refused connect leaves the network as it was.
        q_ab, q_ba = factory(na, if_ab_name), factory(nb, if_ba_name)
        if q_ab is q_ba:
            raise ValueError(
                f"interfaces {na.name}.{if_ab_name} and {nb.name}.{if_ba_name} were "
                f"handed one {type(q_ab).__name__}; give each interface its own "
                "queue discipline"
            )
        if_ab = Interface(self.sim, na, if_ab_name, rate_bps, q_ab)
        if_ba = Interface(self.sim, nb, if_ba_name, rate_bps, q_ba)
        link_ab = Link(self.sim, f"{na.name}->{nb.name}", nb, if_ba_name, delay_s)
        link_ba = Link(self.sim, f"{nb.name}->{na.name}", na, if_ab_name, delay_s)
        subnet = self._alloc_linknet()
        na.add_interface(if_ab)
        nb.add_interface(if_ba)

        addr_a, addr_b = subnet.host(1), subnet.host(2)
        na.add_address(addr_a, if_ab_name, subnet)
        nb.add_address(addr_b, if_ba_name, subnet)

        link_ab.on_state_change = link_ba.on_state_change = self._link_hook
        if_ab.attach(link_ab)
        if_ba.attach(link_ba)

        dl = DuplexLink(
            na, nb, if_ab, if_ba, link_ab, link_ba, metric,
            addr_a=addr_a, addr_b=addr_b, net=self,
        )
        self.duplex_links.append(dl)
        indexed = self._domain_holding(na, nb)
        if indexed is not None:
            indexed[1].append(dl)
        self.topology_generation += 1
        return dl

    def disconnect(self, dl: DuplexLink) -> None:
        """Take a duplex link out of the graph: the inverse of :meth:`connect`.

        Both directions go down first (:meth:`Interface.detach`: what is on
        a transmitter or in a queue ends as a counted ``NO_IFACE`` drop, what
        is already propagating still arrives), then each end loses the
        interface, its address and its connected prefix, and the /30 goes
        back to the allocator.  Routes and bindings that name the interface
        are their owners' to remove (``PeRouter.unbind_circuit``, the next
        ``reconverge``).
        """
        if dl.net is not self:
            raise ValueError(f"link {dl.a.name}-{dl.b.name} is not in this network")
        dl.if_ab.detach()
        dl.if_ba.detach()
        subnet = Prefix.of(dl.addr_a, 30)
        for node, iface, addr in ((dl.a, dl.if_ab, dl.addr_a), (dl.b, dl.if_ba, dl.addr_b)):
            del node.interfaces[iface.name]
            del node.addresses[addr]
            if node.connected_prefixes.get(subnet) == iface.name:
                del node.connected_prefixes[subnet]
        self.duplex_links.remove(dl)
        indexed = self._domain_holding(dl.a, dl.b)
        if indexed is not None:
            indexed[1].remove(dl)
        heappush(self._free_linknets, (subnet.network - self.LINKNET_POOL.network) >> 2)
        dl.net = None
        self.topology_generation += 1

    def _domain_holding(self, na: Node, nb: Node) -> _DomainIndex | None:
        """The indexed domain a link between ``na`` and ``nb`` is inside."""
        indexed = self._domains.get(na.domain)
        if indexed is not None and na.name in indexed[0] and nb.name in indexed[0]:
            return indexed
        return None

    @staticmethod
    def _ifname(node: Node, peer: Node) -> str:
        base = f"to-{peer.name}"
        name = base
        n = 2
        while name in node.interfaces:
            name = f"{base}.{n}"
            n += 1
        return name

    def _link_state_changed(self, link: Link) -> None:
        """Link up-state hook (wired into every Link by :meth:`connect`):
        bump the topology generation and announce ``link.up`` /
        ``link.down`` for the simplex link on the trace bus."""
        self.topology_generation += 1
        self.trace.publish("link.up" if link.up else "link.down", self.sim.now, link=link)

    def link_between(self, a: str, b: str) -> Optional[DuplexLink]:
        """First duplex link between the two named nodes, if any."""
        for dl in self.duplex_links:
            if {dl.a.name, dl.b.name} == {a, b}:
                return dl
        return None

    # ------------------------------------------------------------------
    # Topology views & reporting
    # ------------------------------------------------------------------
    def domain_view(self, domain: str = "core"):
        """Cached indexed snapshot of one routing domain (see ``spf_core``).

        Rebuilt when ``topology_generation`` has moved — every structural
        change bumps it, a ``node.domain`` reassignment (the inter-AS
        experiments do this) included — from the domain's own routers and
        links: the rebuild after a core link flap costs the core, not the
        access circuits provisioned around it.
        """
        from repro.routing.spf_core import DomainView

        view = self._domain_views.get(domain)
        if view is not None and view.generation == self.topology_generation:
            return view
        indexed = self._domains.get(domain)
        if indexed is None:
            members = {
                name: node for name, node in self.nodes.items()
                if isinstance(node, Router) and node.domain == domain
            }
            links = [
                dl for dl in self.duplex_links
                if dl.a.name in members and dl.b.name in members
            ]
            indexed = self._domains[domain] = (members, links)
        view = DomainView.build(self, domain, list(indexed[0]), indexed[1])
        self._domain_views[domain] = view
        return view

    def node_view(self):
        """The same read-model over every node and live link, routing
        domains ignored: what a host-to-host path (host, CE, PE, core) is
        computed on.  Cached like a domain's view, under the key ``None``."""
        from repro.routing.spf_core import DomainView

        view = self._domain_views.get(None)
        if view is None or view.generation != self.topology_generation:
            view = DomainView.build(self, "*", list(self.nodes), self.duplex_links)
            self._domain_views[None] = view
        return view

    def run(self, until: float) -> float:
        """Run the simulation to ``until`` seconds."""
        return self.sim.run(until=until)

    def link_utilization(self, elapsed: float) -> dict[str, float]:
        """Per-direction transmitter utilization ``{"A->B": frac, ...}``."""
        out: dict[str, float] = {}
        for dl in self.duplex_links:
            ua, ub = dl.utilization(elapsed)
            out[f"{dl.a.name}->{dl.b.name}"] = ua
            out[f"{dl.b.name}->{dl.a.name}"] = ub
        return out

    def total_drops(self) -> int:
        """All queue + conditioner drops across every interface."""
        return sum(
            i.dropped + i.conditioner_dropped
            for n in self.nodes.values()
            for i in n.interfaces.values()
        )


def attach_host(
    net: Network,
    router: Node,
    addr: str,
    name: str | None = None,
    rate_bps: float = 100e6,
    delay_s: float = 0.1e-3,
    advertise: bool = True,
) -> Host:
    """Create a host with address ``addr`` behind ``router``, fully wired.

    Installs the router's host route, the host's gateway, and (optionally)
    injects the /32 into the IGP so every core router can reach it after
    :func:`repro.routing.spf.converge`.
    """
    from repro.net.address import IPv4Address, Prefix
    from repro.routing.fib import RouteEntry
    from repro.routing.router import Router as _Router

    if isinstance(router, str):
        # connect() resolves names too, but the route installation below
        # needs the node object — a bare name would silently skip it and
        # leave the host unreachable.
        router = net.nodes[router]
    host = net.add_host(name or f"h-{addr.replace('.', '-')}")
    dl = net.connect(host, router, rate_bps, delay_s)
    host.gateway_ifname = dl.if_ab.name
    a = IPv4Address.parse(addr)
    host.add_address(a, dl.if_ab.name)
    host.set_loopback(a)
    if isinstance(router, _Router):
        # Register the host /32 as a *connected* prefix: the IGP builds the
        # router's connected routes from that map, and reconverge withdraws
        # a connected route it does not build.
        router.connected_prefixes[Prefix.of(a, 32)] = dl.if_ba.name
        router.fib.install(
            Prefix.of(a, 32), RouteEntry(dl.if_ba.name, None, source="connected")
        )
        if advertise:
            router.advertise(Prefix.of(a, 32))
    return host


# ---------------------------------------------------------------------------
# Topology builders
# ---------------------------------------------------------------------------

def build_line(
    net: Network, n: int, prefix: str = "r", rate_bps: float = 10e6, delay_s: float = 1e-3
) -> list[Router]:
    """``r0 - r1 - ... - r{n-1}`` chain of routers."""
    routers = [net.add_router(f"{prefix}{i}") for i in range(n)]
    for i in range(n - 1):
        net.connect(routers[i], routers[i + 1], rate_bps, delay_s)
    return routers


def build_star(
    net: Network, n_leaves: int, rate_bps: float = 10e6, delay_s: float = 1e-3
) -> tuple[Router, list[Router]]:
    """Hub router with ``n_leaves`` spokes (the paper's small-WAN case)."""
    hub = net.add_router("hub")
    leaves = [net.add_router(f"leaf{i}") for i in range(n_leaves)]
    for leaf in leaves:
        net.connect(hub, leaf, rate_bps, delay_s)
    return hub, leaves


def build_full_mesh(
    net: Network, n: int, prefix: str = "m", rate_bps: float = 10e6, delay_s: float = 1e-3
) -> list[Router]:
    """Complete graph on ``n`` routers — the O(N²) shape of claim C1."""
    routers = [net.add_router(f"{prefix}{i}") for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            net.connect(routers[i], routers[j], rate_bps, delay_s)
    return routers


def build_fish(
    net: Network,
    rate_bps: float = 10e6,
    slow_rate_bps: float | None = None,
    trunk_rate_bps: float | None = None,
    delay_s: float = 1e-3,
    node_factory: Callable[[Network, str], Router] | None = None,
) -> dict[str, Router]:
    """The classic traffic-engineering "fish".

    ::

              C --- D
             /       \\
        A - B         E - F
             \\       /
              G --- H

    Both branches are three links, but the top branch carries metric 2 per
    link so *all* shortest-path traffic piles onto the bottom (B-G-H-E) —
    the congestion CSPF then relieves by placing overflow tunnels on the
    top branch (E6).
    """
    make = node_factory or (lambda n, name: n.add_router(name))
    names = ["A", "B", "C", "D", "E", "F", "G", "H"]
    nodes = {name: make(net, name) for name in names}
    slow = slow_rate_bps if slow_rate_bps is not None else rate_bps
    trunk = trunk_rate_bps if trunk_rate_bps is not None else rate_bps
    net.connect(nodes["A"], nodes["B"], trunk, delay_s)               # head trunk
    net.connect(nodes["B"], nodes["C"], rate_bps, delay_s, metric=2)  # top branch
    net.connect(nodes["C"], nodes["D"], rate_bps, delay_s, metric=2)
    net.connect(nodes["D"], nodes["E"], rate_bps, delay_s, metric=2)
    net.connect(nodes["B"], nodes["G"], slow, delay_s)                # bottom branch
    net.connect(nodes["G"], nodes["H"], slow, delay_s)
    net.connect(nodes["H"], nodes["E"], slow, delay_s)
    net.connect(nodes["E"], nodes["F"], trunk, delay_s)               # tail trunk
    return nodes


def build_waxman(
    net: Network,
    n: int,
    alpha: float = 0.4,
    beta: float = 0.4,
    rate_bps: float = 10e6,
    delay_per_unit_s: float = 5e-3,
    prefix: str = "w",
    node_factory: Callable[[Network, str], Router] | None = None,
    rng=None,
) -> list[Router]:
    """Waxman random graph: the standard synthetic ISP topology model.

    Nodes scatter uniformly on the unit square; an edge (u, v) exists with
    probability ``alpha * exp(-d(u,v) / (beta * sqrt(2)))``.  Link
    propagation delay scales with Euclidean distance.  A spanning chain is
    added first so the result is always connected (common practice —
    disconnected samples are useless for routing studies).

    ``rng`` defaults to the network's "topology.waxman" stream.
    """
    import math

    if not 0 < alpha <= 1 or beta <= 0:
        raise ValueError("need 0 < alpha <= 1 and beta > 0")
    make = node_factory or (lambda nn, name: nn.add_router(name))
    gen = rng if rng is not None else net.streams.stream("topology.waxman")
    routers = [make(net, f"{prefix}{i}") for i in range(n)]
    xy = gen.random((n, 2))
    max_d = math.sqrt(2.0)

    def connect(i: int, j: int) -> None:
        d = float(math.dist(xy[i], xy[j]))
        net.connect(routers[i], routers[j], rate_bps,
                    max(1e-4, d * delay_per_unit_s))

    for i in range(n - 1):          # connectivity backbone
        connect(i, i + 1)
    for i in range(n):
        for j in range(i + 2, n):   # chain already covers j == i+1
            d = float(math.dist(xy[i], xy[j]))
            if gen.random() < alpha * math.exp(-d / (beta * max_d)):
                connect(i, j)
    return routers


#: Adjacency of the 12-node reference backbone: 4 fully-meshed core routers
#: (P1..P4) and 8 POP edge routers, two per core, dual-homed for resilience.
BACKBONE_EDGES: tuple[tuple[str, str], ...] = (
    ("P1", "P2"), ("P1", "P3"), ("P1", "P4"), ("P2", "P3"), ("P2", "P4"), ("P3", "P4"),
    ("E1", "P1"), ("E1", "P2"), ("E2", "P1"), ("E2", "P3"),
    ("E3", "P2"), ("E3", "P4"), ("E4", "P2"), ("E4", "P1"),
    ("E5", "P3"), ("E5", "P1"), ("E6", "P3"), ("E6", "P4"),
    ("E7", "P4"), ("E7", "P2"), ("E8", "P4"), ("E8", "P3"),
)


def build_backbone(
    net: Network,
    core_rate_bps: float = 45e6,     # DS3-class trunks of the era
    edge_rate_bps: float = 10e6,
    delay_s: float = 2e-3,
    node_factory: Callable[[Network, str], Router] | None = None,
) -> dict[str, Router]:
    """12-node two-level reference ISP backbone (Fig. 4's deployment target).

    Core links run at ``core_rate_bps``, edge-to-core links at
    ``edge_rate_bps``.  Returns name → router.
    """
    make = node_factory or (lambda n, name: n.add_router(name))
    names = [f"P{i}" for i in range(1, 5)] + [f"E{i}" for i in range(1, 9)]
    nodes = {name: make(net, name) for name in names}
    for a, b in BACKBONE_EDGES:
        core = a.startswith("P") and b.startswith("P")
        rate = core_rate_bps if core else edge_rate_bps
        net.connect(nodes[a], nodes[b], rate, delay_s)
    return nodes
