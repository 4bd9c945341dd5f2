"""Property-based parity for the burst data plane (hypothesis).

``ForwardingPipeline.ingress_batch`` claims *observational equivalence*
with the scalar per-packet pipeline: same counters, same cache
arithmetic, same drops in the same buckets, same field mutations on
every delivered packet.  Three suites hold it to that, each running the
identical burst through both modes on identically-seeded fixtures and
comparing the full observable state:

* **Random mixed bursts** — mixed VRFs, label depths 0–3, TTL=1 expiry
  edges, mixed DSCP codepoints, local/no-route/unknown-label rows, FRR
  ``SWAP_PUSH``, ``POP_PROCESS`` stacks, labeled rows on a circuit — with
  ``COLUMNAR_MIN`` pinned to 1.  Every one meets a cold cache (and few
  are uniform), so this is the bounce path: a burst handed to
  ``node.receive`` row by row.
* **Uniform bursts** — n >= ``COLUMNAR_MIN`` copies of one kind (plain
  route, implicit-null, imposition with one or two labels or a pinned
  EXP, swap, pop; 0–3 labels below the top) on a warm cache: the one
  shape the tier serves itself, checked to really have been served
  without a single ``receive`` call.  A swap or pop burst is served cold
  too: the LFIB has no cache in front of it.
* **Bounce cases** — each one row or one condition away from uniform: the
  tier must hand the whole burst over before any counter has moved.

A further suite turns the flight recorder *on* and demands
uid-normalized traces bit-identical to scalar mode, for bursts of every
size.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.control import converge_all
import repro.dataplane.pipeline as pipeline_mod
from repro.mpls import Lsr
from repro.mpls.lfib import LabelOp, LfibEntry, Nhlfe
from repro.net.address import IPv4Address, Prefix
from repro.net.packet import IPHeader, MplsEntry, Packet
from repro.obs import runtime
from repro.obs.flightrec import FlightRecorder
from repro.qos.queues import DropTailFifo
from repro.routing.fib import RouteEntry
from repro.topology import Network, attach_host
from repro.vpn.pe import PeRouter
from repro.vpn.provision import VpnProvisioner

# ----------------------------------------------------------------------
# Fixture: pe1 - p1 - p2 - pe2 backbone, two VPNs, one global host, and a
# plain IP router ``cr`` (no label stage) with its own host behind pe2.
#
# Four nodes so the transit LSRs carry real SWAP entries (with only one
# P router, PHP turns every transit entry into a POP).  Injection
# happens at two points: edge bursts at pe1 (imposition, VRF demux,
# local delivery, no-route) and labeled bursts at p1 (SWAP/POP/unknown
# label, deep stacks).  p1 also carries hand-installed entries for the
# ops LDP never produces on a line: an activated FRR repair
# (``SWAP_PUSH``, built the way ``FastReroute`` installs it) and a chain
# of ``POP_PROCESS`` labels.  pe1's ``vpn_deliver`` is a customized hook.
# pe2 owns one more ``POP_PROCESS`` label, the bottom of the two-label
# imposition the uniform suite binds at pe1; p1 one more SWAP entry whose
# in- and out-label differ (every LSR allocates from the same pool in the
# same order, so LDP's own swaps on this line rewrite a label to itself);
# cr carries a hand-installed ECMP route and a route out of an interface
# that does not exist.
# ----------------------------------------------------------------------

_FRR_LABEL = 99001
_POPP_LABELS = (99002, 99003, 99004)
_PE2_POPP_LABEL = 99005
_SWAP_LABEL = 99006


class _TapFifo(DropTailFifo):
    """Logs every packet as an egress interface queues it: the headers
    each hop's forwarding left, seen from outside the pipeline and in
    per-interface order."""

    def __init__(self, log: list, where: tuple) -> None:
        super().__init__()
        self.log = log
        self.where = where

    def enqueue(self, pkt, now):
        self.log.append((
            self.where, pkt.flow, pkt.seq, pkt.ip.ttl, pkt.hops,
            tuple((m.label, m.exp, m.ttl) for m in pkt.mpls_stack),
            pkt.wire_bytes,
        ))
        return super().enqueue(pkt, now)


def _fixture():
    net = Network(seed=11)
    pe1 = net.add_node(PeRouter(net.sim, "pe1"))
    p1 = net.add_node(Lsr(net.sim, "p1"))
    p2 = net.add_node(Lsr(net.sim, "p2"))
    pe2 = net.add_node(PeRouter(net.sim, "pe2"))
    net.connect(pe1, p1)
    net.connect(p1, p2)
    net.connect(p2, pe2)
    cr = net.add_router("cr")
    net.connect(pe2, cr)
    gh = attach_host(net, pe2, "10.99.0.2", name="gh")
    gh2 = attach_host(net, cr, "10.98.0.2", name="gh2")
    prov = VpnProvisioner(net)
    corp = prov.create_vpn("corp")
    c1 = prov.add_site(corp, pe1, prefix="10.1.0.0/24")
    c2 = prov.add_site(corp, pe2, prefix="10.2.0.0/24")
    acme = prov.create_vpn("acme")
    a1 = prov.add_site(acme, pe1, prefix="10.3.0.0/24")
    a2 = prov.add_site(acme, pe2, prefix="10.4.0.0/24")
    converge_all(net, prov)

    to_pe2 = p1.ftn.lookup(Prefix.of(pe2.loopback, 32))
    p1.lfib.install(_FRR_LABEL, LfibEntry(
        LabelOp.SWAP_PUSH, out_label=pe2.vrfs["corp"].vpn_label,
        push_label=to_pe2.labels[0], out_ifname=to_pe2.out_ifname,
        lsp_id="frr:test",
    ))
    for label in _POPP_LABELS:
        p1.lfib.install(label, LfibEntry(LabelOp.POP_PROCESS))
    pe2.lfib.install(_PE2_POPP_LABEL, LfibEntry(LabelOp.POP_PROCESS))
    p1.lfib.install(_SWAP_LABEL, LfibEntry(
        LabelOp.SWAP, out_label=to_pe2.labels[0],
        out_ifname=to_pe2.out_ifname,
    ))
    cr.fib.install("10.96.0.0/24", RouteEntry(
        "to-pe2", alternates=(("to-pe2", None),)))
    cr.fib.install("10.95.0.0/24", RouteEntry("nowhere"))
    sinks: list[tuple] = []

    def custom_deliver(pkt, vrf_name):
        sinks.append(("vpn_deliver", pkt.flow, vrf_name))
        pe1.pipeline.vpn_egress(pkt, vrf_name)

    pe1.vpn_deliver = custom_deliver

    def host_addr(site, stem):
        h = site.hosts[0]
        return str(next(a for a in h.addresses if str(a).startswith(stem)))

    info = {
        "corp_circuit": c1.pe_ifname,
        "acme_circuit": a1.pe_ifname,
        "corp_dst": host_addr(c2, "10.2.0."),
        "acme_dst": host_addr(a2, "10.4.0."),
        "corp_local_dst": host_addr(c1, "10.1.0."),
        "acme_local_dst": host_addr(a1, "10.3.0."),
        "pe1_vpn_labels": [("corp", pe1.vrfs["corp"].vpn_label),
                           ("acme", pe1.vrfs["acme"].vpn_label)],
        "p1_local": str(p1.loopback),
        "global_dst": "10.99.0.2",
        "pe1_local": str(pe1.loopback or next(iter(pe1.addresses))),
        "pe1_core": "to-p1",
        "p1_core": "to-pe1",
        "plain_dst": "10.98.0.2",
        "ecmp_dst": "10.96.0.9",
        "noiface_dst": "10.95.0.9",
        "cr_local": str(cr.loopback),
        "swap_labels": sorted(
            l for l, e in p1.lfib._entries.items() if e.op is LabelOp.SWAP
        ),
        "php_labels": sorted(
            l for l, e in p1.lfib._entries.items() if e.op is LabelOp.POP
        ),
        "pop_labels": sorted(
            l for l, e in p1.lfib._entries.items()
            if e.op in (LabelOp.POP, LabelOp.POP_PROCESS)
        ),
    }

    def tap(node):
        node.add_local_sink(
            lambda pkt, _n=node.name: sinks.append((
                _n, pkt.flow, pkt.seq, pkt.ip.ttl, pkt.ip.dscp, pkt.hops,
                tuple((m.label, m.exp, m.ttl) for m in pkt.mpls_stack),
                pkt.wire_bytes,
            ))
        )

    for node in (pe1, p1, cr, gh, gh2, c1.hosts[0], a1.hosts[0], c2.hosts[0],
                 a2.hosts[0]):
        tap(node)
    for node in (pe1, p1, p2, pe2, cr):
        for ifname, iface in node.interfaces.items():
            iface.qdisc = _TapFifo(sinks, ("tx", node.name, ifname))
    return net, (pe1, p1, p2, pe2, cr), info, sinks


# Row = (kind, ttl, dscp, pick).  ``pick`` selects among same-kind
# variants (which SWAP/POP in-label, inner-stack depth).
_CORE_KINDS = ["swap", "swapdeep", "pop", "badlbl", "swappush", "popproc"]
_KINDS = [
    "ip", "vrf_corp", "vrf_acme", "local", "noroute", "vpn", "circlbl",
] + _CORE_KINDS
_ROW = st.tuples(
    st.sampled_from(_KINDS),
    st.sampled_from([1, 2, 64]),          # TTL=1 rows expire mid-burst
    st.sampled_from([0, 10, 26, 46, 63]),  # BE / AF11 / AF31 / EF / edge
    st.integers(0, 3),
)
_SPEC = st.lists(_ROW, min_size=1, max_size=24)


def _build_bursts(spec, info):
    """Materialize a spec into (pe1_items, p1_items) arrival lists."""
    edge: list[tuple[Packet, str]] = []
    core: list[tuple[Packet, str]] = []
    for i, (kind, ttl, dscp, pick) in enumerate(spec):
        ip = None
        stack: list[MplsEntry] = []
        if kind == "ip":
            ip = IPHeader(IPv4Address.parse("10.50.0.1"),
                          IPv4Address.parse(info["global_dst"]),
                          dscp=dscp, ttl=ttl)
            where, ifn = edge, info["pe1_core"]
        elif kind == "vrf_corp":
            ip = IPHeader(IPv4Address.parse("10.1.0.9"),
                          IPv4Address.parse(info["corp_dst"]),
                          dscp=dscp, ttl=ttl)
            where, ifn = edge, info["corp_circuit"]
        elif kind == "vrf_acme":
            ip = IPHeader(IPv4Address.parse("10.3.0.9"),
                          IPv4Address.parse(info["acme_dst"]),
                          dscp=dscp, ttl=ttl)
            where, ifn = edge, info["acme_circuit"]
        elif kind == "local":
            ip = IPHeader(IPv4Address.parse("10.50.0.1"),
                          IPv4Address.parse(info["pe1_local"]),
                          dscp=dscp, ttl=ttl)
            where, ifn = edge, info["pe1_core"]
        elif kind == "noroute":
            ip = IPHeader(IPv4Address.parse("10.50.0.1"),
                          IPv4Address.parse("203.0.113.9"),
                          dscp=dscp, ttl=ttl)
            where, ifn = edge, info["pe1_core"]
        elif kind in ("vpn", "circlbl"):
            # A VPN label at the egress PE: from the core it reaches the
            # (customized) vpn_deliver hook; pushed by a CE onto its own
            # attachment circuit it must be refused — ``pick`` chooses
            # whose label, so half the circuit rows spoof the other VPN.
            vrf_name, label = info["pe1_vpn_labels"][pick % 2]
            ip = IPHeader(IPv4Address.parse("10.50.0.1"),
                          IPv4Address.parse(info[f"{vrf_name}_local_dst"]),
                          dscp=dscp, ttl=64)
            stack.append(MplsEntry(label=label, exp=dscp % 8, ttl=ttl))
            where = edge
            ifn = info["pe1_core"] if kind == "vpn" else info["corp_circuit"]
        elif kind == "popproc":
            # 1-3 labels that are all p1's own: depth 1 is the tier's hot
            # pop-then-route shape, deeper stacks (and the local
            # destination) continue in the scalar stage.
            dst = info["p1_local"] if pick == 3 else info["global_dst"]
            ip = IPHeader(IPv4Address.parse("10.50.0.1"),
                          IPv4Address.parse(dst), dscp=dscp, ttl=64)
            for label in _POPP_LABELS[: 1 + pick % 3]:
                stack.append(MplsEntry(label=label, exp=dscp % 8, ttl=ttl))
            where, ifn = core, info["p1_core"]
        else:
            # Labeled rows arrive at the transit LSR.  The inner stack
            # (depth 0–2 below the top) is arbitrary — SWAP never looks
            # below the top, POP exposes it to the next hop's LFIB.
            ip = IPHeader(IPv4Address.parse("10.50.0.1"),
                          IPv4Address.parse(info["global_dst"]),
                          dscp=dscp, ttl=64)
            depth_below = pick % 3 if kind == "swapdeep" else pick % 2
            for d in range(depth_below):
                stack.append(MplsEntry(label=70 + d, exp=d % 8, ttl=9 + d))
            if kind in ("swap", "swapdeep"):
                labels = info["swap_labels"]
            elif kind == "swappush":
                labels = [_FRR_LABEL]
            elif kind == "pop":
                labels = info["pop_labels"] or info["swap_labels"]
            else:  # badlbl: never allocated by the LDP label pool
                labels = [99999]
            top = labels[pick % len(labels)]
            stack.append(MplsEntry(label=top, exp=dscp % 8, ttl=ttl))
            where, ifn = core, info["p1_core"]
        pkt = Packet(ip=ip, payload_bytes=100 + i, mpls_stack=stack,
                     flow=("prop", i), seq=i)
        where.append((pkt, ifn))
    return edge, core


def _snapshot(net, nodes, sinks):
    out: list = [tuple(sinks)]
    for n in nodes:
        s = n.stats
        out.append((n.name, s.rx_packets, s.forwarded, s.delivered,
                    s.dropped_total, tuple(sorted(s.by_reason.items()))))
        for ifn in sorted(n.interfaces):
            st_ = n.interfaces[ifn].stats
            out.append((n.name, ifn, st_.tx_packets, st_.tx_bytes,
                        st_.enqueued, st_.dropped, st_.conditioner_dropped))
        pl = n.pipeline
        fc = pl.flow_cache
        out.append((n.name, "flow", fc.hits, fc.misses, fc.invalidations))
        for vname in sorted(getattr(pl, "vrf_caches", {})):
            vc = pl.vrf_caches[vname]
            out.append((n.name, "vrf", vname, vc.hits, vc.misses))
        lf = getattr(n, "lfib", None)
        if lf is not None:
            out.append((n.name, "lfib", lf.lookups))
        out.append((n.name, "fib", n.fib.lookups))
    return tuple(out)


def _count_receives(node, on_first=None) -> list[int]:
    """Count ``node.receive`` calls from now on (the tier hands a burst
    it does not serve to exactly that method); ``on_first`` runs before
    the first one is processed."""
    calls = [0]
    receive = node.receive

    def spy(pkt, ifname):
        if not calls[0] and on_first is not None:
            on_first()
        calls[0] += 1
        receive(pkt, ifname)

    node.receive = spy
    return calls


def _inject(node, items, vector: bool) -> None:
    """Hand ``items`` to ``node`` as one burst (vector) or packet by
    packet (scalar)."""
    if vector:
        if items:
            node.receive_batch(items)
    else:
        for pkt, ifn in items:
            node.receive(pkt, ifn)


def _run(spec, vector: bool):
    """One full fixture + injection + drain under the given mode."""
    runtime.set_vector_mode(vector)
    saved = pipeline_mod.COLUMNAR_MIN
    pipeline_mod.COLUMNAR_MIN = 1
    try:
        net, nodes, info, sinks = _fixture()
        edge, core = _build_bursts(spec, info)
        _inject(nodes[0], edge, vector)
        _inject(nodes[1], core, vector)
        net.run(until=net.sim.now + 10.0)
        return _snapshot(net, nodes, sinks)
    finally:
        pipeline_mod.COLUMNAR_MIN = saved
        runtime.set_vector_mode(True)


prop_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@prop_settings
@given(spec=_SPEC)
def test_columnar_burst_matches_scalar(spec) -> None:
    """Random burst composition: ``ingress_batch`` ≡ scalar, full state."""
    assert _run(spec, vector=True) == _run(spec, vector=False)


@prop_settings
@given(spec=st.lists(
    st.tuples(st.sampled_from(_CORE_KINDS),
              st.sampled_from([1, 2, 64]),
              st.sampled_from([0, 10, 26, 46, 63]),
              st.integers(0, 3)),
    min_size=4, max_size=24))
def test_columnar_labeled_core_matches_scalar(spec) -> None:
    """All-labeled bursts at the transit LSR, mixed ops and TTLs."""
    assert _run(spec, vector=True) == _run(spec, vector=False)


# ----------------------------------------------------------------------
# Uniform bursts: the one shape the tier serves itself.
# ----------------------------------------------------------------------

_UNIFORM_KINDS = ["ip", "ipnull", "impose", "impose2", "imposefix",
                  "swap", "pop"]
# Row = (ttl, dscp): nothing expires, but TTL, DSCP and size vary per row.
_UROWS = st.lists(
    st.tuples(st.sampled_from([2, 3, 64]), st.sampled_from([0, 10, 26, 46, 63])),
    min_size=pipeline_mod.COLUMNAR_MIN, max_size=24,
)


def _burst_of(kind, below, rows, nodes, info, flow="uni"):
    """``(node, items)``: ``len(rows)`` packets of one ``kind`` arriving at
    ``node``; labeled kinds carry ``below`` further labels under the top."""
    pe1, p1, p2, _pe2, cr = nodes
    node, ifn, dst, top = {
        "ip": (cr, "to-pe2", info["plain_dst"], None),       # plain route
        "ecmp": (cr, "to-pe2", info["ecmp_dst"], None),
        "noiface": (cr, "to-pe2", info["noiface_dst"], None),
        "crlocal": (cr, "to-pe2", info["cr_local"], None),
        "ipnull": (p2, "to-p1", info["global_dst"], None),   # implicit null
        "impose": (pe1, info["pe1_core"], info["global_dst"], None),
        "swap": (p1, info["p1_core"], info["global_dst"],
                 info["swap_labels"][below % len(info["swap_labels"])]),
        "pop": (p1, info["p1_core"], info["global_dst"],
                info["php_labels"][below % len(info["php_labels"])]),
        "swappush": (p1, info["p1_core"], info["global_dst"], _FRR_LABEL),
    }[{"impose2": "impose", "imposefix": "impose"}.get(kind, kind)]
    items = []
    for i, (ttl, dscp) in enumerate(rows):
        stack = []
        if top is not None:
            stack = [MplsEntry(label=70 + d, exp=d, ttl=9 + d)
                     for d in range(below)]
            stack.append(MplsEntry(label=top, exp=dscp % 8, ttl=ttl))
        ip = IPHeader(IPv4Address.parse("10.50.0.1"), IPv4Address.parse(dst),
                      dscp=dscp, ttl=64 if stack else ttl)
        pkt = Packet(ip=ip, payload_bytes=100 + i, mpls_stack=stack,
                     flow=(flow, i), seq=i)
        if i % 2:
            # Arrival state off a real link: the upstream transmitter
            # read, and so memoized, the wire size.
            pkt.wire_bytes
        items.append((pkt, ifn))
    return node, items


def _counters(node) -> tuple:
    """Everything the tier moves when it serves a burst."""
    pl = node.pipeline
    return (
        node.stats.rx_packets, node.stats.forwarded,
        pl.flow_cache.hits, pl.flow_cache.misses,
        None if pl.lfib is None else pl.lfib.lookups,
        node.fib.lookups,
    )


def _run_uniform(kind, below, rows, vector: bool, warm: bool = True,
                 mutate=None):
    """Warm the cache with one packet of ``kind``, then send the burst.

    Returns ``(snapshot, receive calls the burst made, whether a counter
    had moved when the first of them started)``.  ``mutate(items, net,
    info)`` edits the burst or the network after the warm-up.
    """
    runtime.set_vector_mode(vector)
    try:
        net, nodes, info, sinks = _fixture()
        pe1 = nodes[0]
        if kind == "impose2":
            # Two labels: pe2's POP_PROCESS label under the LDP tunnel label.
            prefix, _route = pe1.fib.lookup_prefix(
                IPv4Address.parse(info["global_dst"]))
            ldp = pe1.ftn.lookup(prefix)
            pe1.ftn.bind(prefix, Nhlfe(ldp.out_ifname,
                                       (_PE2_POPP_LABEL, *ldp.labels)))
        elif kind == "imposefix":
            pe1.impose_exp = 5
        if warm:
            node, first = _burst_of(kind, below, [(64, 0)], nodes, info,
                                         flow="warm")
            _inject(node, first, False)
            net.run(until=net.sim.now + 10.0)
        node, items = _burst_of(kind, below, rows, nodes, info)
        if mutate is not None:
            mutate(items, net, info)
        before = _counters(node)
        moved: list[bool] = []
        calls = _count_receives(
            node, on_first=lambda: moved.append(_counters(node) != before))
        _inject(node, items, vector)
        received = calls[0]
        net.run(until=net.sim.now + 10.0)
        return _snapshot(net, nodes, sinks), received, moved
    finally:
        runtime.set_vector_mode(True)


@pytest.mark.parametrize("kind", _UNIFORM_KINDS)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(below=st.integers(0, 3), rows=_UROWS)
def test_uniform_burst_matches_scalar(kind, below, rows) -> None:
    """A warm uniform burst is served without one ``receive`` call and
    leaves exactly the state the scalar stages leave."""
    fast, fast_calls, _ = _run_uniform(kind, below, rows, vector=True)
    slow, slow_calls, _ = _run_uniform(kind, below, rows, vector=False)
    assert fast == slow
    assert (fast_calls, slow_calls) == (0, len(rows))


@pytest.mark.parametrize("kind", ["swap", "pop"])
def test_cold_labeled_burst_is_served(kind) -> None:
    """The LFIB has no cache to warm: the first uniform labeled burst a
    node sees is served without a ``receive`` call, moves ``lfib.lookups``
    by the burst size on commit and leaves exactly the scalar state."""
    rows = [(64, 0), (3, 46), (2, 10), (64, 26), (64, 63), (5, 0)]
    fast, fast_calls, _ = _run_uniform(kind, 1, rows, vector=True, warm=False)
    slow, slow_calls, _ = _run_uniform(kind, 1, rows, vector=False, warm=False)
    assert fast == slow
    assert (fast_calls, slow_calls) == (0, len(rows))


def _edit_row(row: int, **fields):
    """Bounce-case mutation: overwrite header fields of one row."""
    def mutate(items, net, info):
        pkt = items[row][0]
        for name, value in fields.items():
            if name == "dst":
                pkt.ip.dst = IPv4Address.parse(info[value])
            elif name == "ifname":
                items[row] = (pkt, info[value])
            elif name == "unlabel":
                pkt.mpls_stack.clear()
            elif pkt.mpls_stack:
                setattr(pkt.mpls_stack[-1], name, value)
            else:
                setattr(pkt.ip, name, value)
    return mutate


def _attach_recorder(items, net, info):
    net.trace.flight = FlightRecorder(capacity=1 << 12)


# name -> (kind, warm cache?, mutation): each is one row or one condition
# away from a burst the tier serves.
_BOUNCES = {
    "ttl1-row-ip": ("ip", True, _edit_row(2, ttl=1)),
    "ttl1-row-labeled": ("swap", True, _edit_row(2, ttl=1)),
    "odd-label": ("swap", True, _edit_row(1, label=_FRR_LABEL)),
    "odd-destination": ("impose", True, _edit_row(3, dst="pe1_local")),
    "unlabeled-row": ("pop", True, _edit_row(1, unlabel=True)),
    "cold-cache-ip": ("ip", False, None),
    "missing-egress-interface": ("noiface", True, None),
    "local-destination": ("crlocal", True, None),
    "ecmp-route": ("ecmp", True, None),
    "swap-push-entry": ("swappush", True, None),
    "flight-recorder": ("swap", True, _attach_recorder),
    "circuit-row": ("impose", True, _edit_row(0, ifname="corp_circuit")),
}


@pytest.mark.parametrize("case", sorted(_BOUNCES))
def test_near_uniform_burst_bounces_untouched(case) -> None:
    """The tier hands the whole burst to ``receive`` before ``rx_packets``,
    a cache ``hits``/``misses`` or a lookup counter has moved, and the
    final state equals scalar."""
    kind, warm, mutate = _BOUNCES[case]
    rows = [(64, 0), (3, 46), (2, 10), (64, 26), (64, 63), (5, 0)]
    fast, calls, moved = _run_uniform(kind, 1, rows, True, warm, mutate)
    slow, _, _ = _run_uniform(kind, 1, rows, False, warm, mutate)
    assert calls == len(rows)
    assert moved == [False]
    assert fast == slow


# ----------------------------------------------------------------------
# Observability on: a flight recorder sends every burst through the
# scalar stages, so records interleave exactly as in scalar mode
# (per-row rx/label ops, per-packet sends).
# ----------------------------------------------------------------------


def _run_traced(spec, vector: bool, columnar_min: int = 1, warm: bool = False):
    """``_run`` with the flight recorder on; returns
    ``(snapshot, trace, receive calls the measured bursts made)``.
    ``warm`` first sends a copy of both bursts packet by packet, so the
    measured bursts find every decision cached."""
    runtime.set_vector_mode(vector)
    saved = pipeline_mod.COLUMNAR_MIN
    pipeline_mod.COLUMNAR_MIN = columnar_min
    runtime.reset()
    runtime.enable(flight_capacity=1 << 20, profile=False)
    try:
        net, nodes, info, sinks = _fixture()
        pe1, p1 = nodes[0], nodes[1]
        if warm:
            edge, core = _build_bursts(spec, info)
            _inject(pe1, edge, False)
            _inject(p1, core, False)
            net.run(until=net.sim.now + 10.0)
        edge, core = _build_bursts(spec, info)
        calls = [_count_receives(pe1), _count_receives(p1)]
        _inject(pe1, edge, vector)
        _inject(p1, core, vector)
        received = [c[0] for c in calls]
        net.run(until=net.sim.now + 10.0)
        snap = _snapshot(net, nodes, sinks)
        records = []
        for session in runtime.sessions():
            records.extend(session.flight.records())
        ids: dict[int, int] = {}
        trace = []
        for r in records:
            u = ids.setdefault(r.uid, len(ids))
            trace.append((
                r.time, r.node, r.event, u, r.flow, r.seq, r.ifname,
                r.labels, r.in_label, r.out_label, r.reason, r.backlog,
            ))
        return snap, trace, received
    finally:
        runtime.reset()
        pipeline_mod.COLUMNAR_MIN = saved
        runtime.set_vector_mode(True)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(spec=_SPEC)
def test_obs_enabled_batch_parity(spec) -> None:
    """Counters + flight recorder on: batch mode stays trace-identical."""
    fast_snap, fast_trace, _ = _run_traced(spec, vector=True)
    slow_snap, slow_trace, _ = _run_traced(spec, vector=False)
    assert fast_trace == slow_trace
    assert fast_snap == slow_snap


@pytest.mark.parametrize("n", [2, 3])
def test_small_traced_bursts_match_scalar(n) -> None:
    """Bursts below the real ``COLUMNAR_MIN`` with the recorder on — the
    e7/e13 shape (same-time arrivals from two or three sources) — are
    served per packet and stay trace-identical to scalar mode."""
    assert n < pipeline_mod.COLUMNAR_MIN
    # One n-packet burst at pe1 and one n-packet labeled burst at p1.
    edge = [("vrf_corp", 64, 46, 0), ("vpn", 64, 10, 1), ("circlbl", 64, 0, 1)]
    core = [("swappush", 2, 26, 0), ("swap", 64, 10, 1), ("popproc", 64, 0, 2)]
    spec = edge[:n] + core[:n]
    real = pipeline_mod.COLUMNAR_MIN
    fast = _run_traced(spec, vector=True, columnar_min=real)
    slow = _run_traced(spec, vector=False, columnar_min=real)
    assert fast == slow
    assert {ev[2] for ev in fast[1]} >= {"rx", "push", "pop", "swap"}


def test_traced_uniform_burst_is_served_per_packet() -> None:
    """With a flight recorder attached, even a warm uniform burst of at
    least the real ``COLUMNAR_MIN`` goes through ``receive`` row by row:
    the records come from the scalar stages, so the trace is the scalar
    trace by construction."""
    real = pipeline_mod.COLUMNAR_MIN
    n = 2 * real
    # One n-row imposition burst at pe1 and one n-row swap burst at p1.
    spec = [("ip", 64, 0, 0)] * n + [("swap", 64, 10, 1)] * n
    fast = _run_traced(spec, vector=True, columnar_min=real, warm=True)
    slow = _run_traced(spec, vector=False, columnar_min=real, warm=True)
    assert fast == slow
    assert fast[2] == [n, n]  # every row of both bursts met receive()
    assert {ev[2] for ev in fast[1]} >= {"rx", "push", "swap"}
