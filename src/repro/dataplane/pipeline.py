"""The unified data-plane forwarding engine.

One :class:`ForwardingPipeline` instance per forwarding node replaces the
three hand-duplicated ``handle()`` implementations that ``Router``,
``Lsr``, and ``PeRouter`` used to carry.  The pipeline is staged::

    ingress ─→ [vrf-demux] ─→ [label-op] ─→ lookup ─→ [qos-mark] ─→ egress

Bracketed stages are enabled by composition, not subclass overrides: a
plain ``Router`` runs ingress → lookup → egress; an ``Lsr`` enables the
label-op stage (LFIB processing, FTN label imposition with DSCP→EXP
marking); a ``PeRouter`` additionally enables VRF demux for its
attachment circuits.  The per-hop semantics — TTL decrement before
lookup, drop taxonomy, flight-recorder event ordering — live here once,
which is what the paper's claim C4 ("label swapping makes the per-hop
data plane cheap and uniform") looks like as code.

Performance notes (measured: the ledger's ``vpn_sla`` row, benchmarks/ledger):

* Zero-closure hot path: when a node's modeled processing cost is zero —
  the default — stages call each other directly; when a nonzero cost
  forces a trip through the scheduler, :meth:`Simulator.schedule_call`
  stores the arguments on the event, so no closure is built either way.
* Exact-match fast caches: the destination→decision flow cache fronts the
  LPM trie and the FTN (``(route, NHLFE)``), and a PE's per-VRF caches
  front each VRF table and the FTN alike (``(route, tunnel NHLFE)``).  Both
  are generation-stamped (``GenCache``) so SPF reconvergence, LDP passes
  and VRF churn invalidate them without any notification protocol.  The
  LFIB is already one exact-match dict read and has no cache in front of
  it.
* ``flow_hash`` memoizes its CRC32 on the packet — the 5-tuple is
  immutable for a packet's lifetime, so the ECMP key is computed at most
  once per packet rather than once per hop.
* Each mechanism is paid once per hop.  The ownership test is the stage's
  own ``pkt.ip.dst in node.addresses`` (an address hashes in C; no
  ``owns`` call).  SWAP / POP / SWAP_PUSH decrement the TTL of, and write
  the label into, the ``top`` entry the stage already holds; the
  IP-path TTL stays in ``Packet.decrement_ttl``.  A push or pop moves the
  packet's wire-size memo by one shim instead of clearing it.  Field
  checks sit where a value is made — an ``Nhlfe``'s and an ``LfibEntry``'s
  labels in their constructors, a pinned EXP in the ``impose_exp`` setter
  (the stages read its checked backing field ``_impose_exp``) — so neither
  tier re-checks them per packet.  Calls per packet-hop on E5 ``full``:
  44.97 -> 41.45, and 68.23 -> 54.91 with telemetry on
  (``tests/test_hop_budget.py``).

Logical lookup counters (``fib.lookups``, ``lfib.lookups``) are bumped on
cache hits and burst rows too, so experiment E8's per-node lookup census
keeps its meaning ("packets that consulted this table") regardless of
cache state or tier.

The scalar stages are the only definition of forwarding.  Beside them
sits one accelerator, the uniform-burst tier (``ingress_batch``): a big
enough burst whose rows all get one already-cached verdict — the train of
one FEC a core LSR sees — is materialized in a single loop; every other
burst is handed packet by packet to the stages.  See ARCHITECTURE §11.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any

from repro.dataplane.caches import GenCache
from repro.net.address import IPv4Address, Prefix
from repro.net.drops import DropReason
from repro.net.empty import EMPTY_MAP
from repro.net.packet import MPLS_SHIM_BYTES, MplsEntry, Packet

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.mpls.lfib import FtnTable, Lfib, Nhlfe
    from repro.routing.fib import Fib, RouteEntry

# MPLS symbols are resolved the first time a node enables the label-op
# stage: ``repro.mpls``'s package init pulls FRR → Lsr → Router, and Router
# imports this module, so a load-time import would close the cycle.  Until
# then the names are None — every code path that touches them is only
# reachable on MPLS-enabled pipelines.  The DSCP→EXP table of the qos-mark
# stage rides along: ``repro.qos``'s package init pulls IntServ → SPF →
# Router, the same cycle.
LabelOp: Any = None
IMPLICIT_NULL: Any = None
EXP_OF_DSCP: Any = None


def _resolve_mpls_symbols() -> None:
    global LabelOp, IMPLICIT_NULL, EXP_OF_DSCP
    if LabelOp is None:
        from repro.mpls.label import IMPLICIT_NULL as _implicit_null
        from repro.mpls.lfib import LabelOp as _label_op
        from repro.qos.dscp import EXP_OF_DSCP as _exp_of_dscp

        LabelOp = _label_op
        IMPLICIT_NULL = _implicit_null
        EXP_OF_DSCP = _exp_of_dscp

__all__ = ["ForwardingPipeline", "flow_hash", "COLUMNAR_MIN"]

#: Minimum burst size for the uniform-burst tier: below it the per-burst
#: uniformity checks cost more than the one loop saves.  Module-level and
#: read at call time so the parity tests can lower it (and the ledger's
#: tracer reads it to attribute bursts to a tier — hence the kept name).
COLUMNAR_MIN = 4


def flow_hash(pkt: Packet) -> int:
    """Stable per-flow hash over the 5-tuple (the classic ECMP key).

    CRC32 rather than ``hash()`` so path selection is identical across
    processes and Python versions — determinism again.  The result is
    memoized on the packet: the 5-tuple never mutates in flight, so the
    key string is built at most once per packet instead of at every ECMP
    hop.
    """
    h = pkt.flow_hash_cache
    if h is None:
        ip = pkt.ip
        key = f"{ip.src.value}|{ip.dst.value}|{ip.proto}|{ip.src_port}|{ip.dst_port}"
        h = zlib.crc32(key.encode("ascii"))
        pkt.flow_hash_cache = h
    return h


class ForwardingPipeline:
    """Staged forwarding engine shared by Router, Lsr, and PeRouter.

    The owning node supplies environment (interfaces, stats, trace bus,
    processing model) and the tables; the pipeline owns the per-packet
    control flow and the fast caches.  Stages read mutable node policy
    (``impose_exp``, ``exp_mode``, ``vpn_deliver``) at packet time so
    experiments can flip them mid-run.
    """

    __slots__ = (
        "node", "sim", "fib", "lfib", "ftn", "vrf_of_circuit", "vrfs",
        "flow_cache", "vrf_caches",
    )

    def __init__(self, node, fib: "Fib") -> None:
        self.node = node
        self.sim = node.sim
        self.fib = fib
        self.lfib: Lfib | None = None
        self.ftn: FtnTable | None = None
        self.vrf_of_circuit: dict | None = None
        self.vrfs: dict | None = None
        self.flow_cache = GenCache(fib)
        # One decision cache per VRF on a PE; the shared empty mapping until
        # enable_vrf_demux, so a router that is not a PE holds no dict here.
        self.vrf_caches: dict[str, GenCache] = EMPTY_MAP

    # ------------------------------------------------------------------
    # Stage composition
    # ------------------------------------------------------------------
    def enable_mpls(self, lfib: Lfib, ftn: FtnTable) -> None:
        """Plug in the label-op stage (LSR): LFIB processing + imposition.

        The flow cache is rebuilt to also watch the FTN generation — an
        IP-path decision now includes "does this FEC have a binding".
        """
        _resolve_mpls_symbols()
        self.lfib = lfib
        self.ftn = ftn
        self.flow_cache = GenCache(self.fib, ftn)

    def enable_vrf_demux(self, vrf_of_circuit: dict, vrfs: dict) -> None:
        """Plug in the VRF demux stage (PE): circuit→VRF ingress mapping."""
        assert self.ftn is not None, "VRF demux requires the MPLS stage"
        self.vrf_of_circuit = vrf_of_circuit
        self.vrfs = vrfs
        self.vrf_caches = {}

    def stages(self) -> tuple[str, ...]:
        """The composed stage sequence (for conformance tests and docs)."""
        out = ["ingress"]
        if self.vrf_of_circuit is not None:
            out.append("vrf-demux")
        if self.lfib is not None:
            out.append("label-op")
        out.append("lookup")
        if self.lfib is not None:
            out.append("qos-mark")
        out.append("egress")
        return tuple(out)

    # ------------------------------------------------------------------
    # Ingress stage
    # ------------------------------------------------------------------
    def ingress(self, pkt: Packet, ifname: str) -> None:
        """Entry point from ``Node.handle``: demux to the right stage.

        Zero modeled cost (the default) falls straight through to the
        next stage — no closure, no scheduler round-trip.  Nonzero costs
        go through ``schedule_call``, which stores the stage arguments on
        the event rather than allocating a closure.
        """
        node = self.node
        if self.vrf_of_circuit is not None:
            vrf = self.vrf_of_circuit.get(ifname)
            if vrf is not None:
                if pkt.mpls_stack:
                    # A CE is untrusted: label-switching what it hands us
                    # would let it push another VPN's label and land in
                    # that VRF (RFC 4364 §13.1).  Refused before any LFIB
                    # probe or counter moves.
                    node.drop(pkt, DropReason.LABELED_ON_CIRCUIT)
                    return
                # Customer packet entering its VPN at this PE.
                cost = node.processing.ip_lookup_s
                if cost <= 0.0:
                    self.customer_stage(pkt, vrf)
                else:
                    self.sim.schedule_call(cost, self.customer_stage, pkt, vrf)
                return
            if ifname not in node.interfaces:
                # Arrived over a circuit unwired while it was on the wire:
                # no VRF claims it, and the provider's table must not.
                node.drop(pkt, DropReason.NO_IFACE)
                return
        if pkt.mpls_stack:
            if self.lfib is None:
                # Labeled packet at a non-MPLS router: the deployment
                # scenario of Fig. 4 never lets this happen (LSPs terminate
                # at LSR edges); treat it as a configuration error rather
                # than silently routing.
                node.drop(pkt, DropReason.LABELED_AT_IP_ROUTER)
                return
            cost = node.processing.label_lookup_s
            if cost <= 0.0:
                self.mpls_stage(pkt)
            else:
                self.sim.schedule_call(cost, self.mpls_stage, pkt)
            return
        if pkt.ip.dst in node.addresses:
            node.deliver_local(pkt)
            return
        cost = node.processing.ip_lookup_s
        if cost <= 0.0:
            self.ip_stage(pkt)
        else:
            self.sim.schedule_call(cost, self.ip_stage, pkt)

    # ------------------------------------------------------------------
    # Vector entry point: the uniform-burst tier
    # ------------------------------------------------------------------
    def ingress_batch(self, items: "list[tuple[Packet, str]]") -> None:
        """Vector entry point (``Router.receive_batch``): dispatch one burst.

        A burst of at least ``COLUMNAR_MIN`` same-time arrivals that is
        *uniform* (:meth:`_uniform_burst`) is materialized in one loop.
        Every other burst is the loop over ``node.receive`` — the scalar
        stages, which define forwarding — so the two are observationally
        identical by construction (``tests/test_dataplane_batch.py``).
        """
        if len(items) < COLUMNAR_MIN or not self._uniform_burst(items):
            receive = self.node.receive
            for pkt, ifname in items:
                receive(pkt, ifname)

    def _uniform_burst(self, items: "list[tuple[Packet, str]]") -> bool:
        """Forward ``items`` in one loop if the burst is uniform.

        Uniform means every row gets the same verdict from one decision:
        one top label whose LFIB entry is SWAP or POP, or one non-local
        destination whose flow-cache entry the scalar stage has *already
        cached* as a plain route or an imposition — with a usable egress
        interface, nothing expiring (min TTL > 1), no attachment-circuit
        row (nor, at a PE, one over an interface it no longer has), no
        flight recorder and no modeled per-packet CPU cost.  Then the
        per-row work is header writes only, and hit / logical-lookup / rx
        / forwarded counters move by the burst size to exactly the
        per-packet totals.

        Anything else returns ``False`` **before any counter, cache entry
        or packet is touched** (a cold flow decision too: the scalar
        stage fills the cache, and the next burst is served here), so
        this method performs no counted lookup, cache fill or drop of its
        own: the LFIB entry is read uncounted and counted only on commit.
        The one shared side effect is :meth:`GenCache.sync` — the guard
        refresh the first scalar ``get`` would do — which is why it runs
        last, once every check that could keep the scalar path away from
        that cache has passed.  Sound because no table mutates
        mid-burst: control-plane changes are scheduled events.
        """
        node = self.node
        processing = node.processing
        if (
            processing.ip_lookup_s > 0.0
            or processing.label_lookup_s > 0.0
            or node.trace.flight is not None
        ):
            return False
        voc = self.vrf_of_circuit
        if voc is not None:
            ifnames = {ifn for _, ifn in items}
            if not ifnames.isdisjoint(voc) or not ifnames <= node.interfaces.keys():
                return False
        n = len(items)
        pkts = [p for p, _ in items]
        if pkts[0].mpls_stack:
            if self.lfib is None:
                return False
            try:
                tops = [p.mpls_stack[-1] for p in pkts]
            except IndexError:  # an unlabeled row further down
                return False
            label = tops[0].label
            ttls = [t.ttl for t in tops]
            if [t.label for t in tops].count(label) != n or min(ttls) <= 1:
                return False
            entry = self.lfib._entries.get(label)  # counted below, on commit
            if entry is None:
                return False
            op = entry.op
            if op is not LabelOp.SWAP and op is not LabelOp.POP:
                return False
            iface = node.interfaces.get(entry.out_ifname)
            if iface is None or iface.link is None:
                return False
            self.lfib.lookups += n
            if op is LabelOp.SWAP:
                out_label = entry.out_label
                for pkt, top, t in zip(pkts, tops, ttls):
                    pkt.hops += 1
                    top.ttl = t - 1
                    top.label = out_label
            else:
                for pkt, t in zip(pkts, ttls):
                    pkt.hops += 1
                    stack = pkt.mpls_stack
                    stack.pop()
                    if stack:
                        stack[-1].ttl = t - 1
                    else:
                        pkt.ip.ttl = t - 1
                    w = pkt._wire
                    if w is not None:
                        pkt._wire = w - MPLS_SHIM_BYTES
        else:
            ttls = [p.ip.ttl for p in pkts if not p.mpls_stack]
            if len(ttls) != n or min(ttls) <= 1:
                return False
            dst = pkts[0].ip.dst
            key = dst.value
            if (
                [p.ip.dst.value for p in pkts].count(key) != n
                or dst in node.addresses
            ):
                return False
            cache = self.flow_cache
            decision = cache.sync().get(key)
            if decision is None:
                return False
            route, nhlfe = decision
            if nhlfe is not None:
                labels = [lbl for lbl in nhlfe.labels if lbl != IMPLICIT_NULL]
                out_ifname = nhlfe.out_ifname
            elif route is None or route.alternates:
                return False  # no-route drops, ECMP sprays: per-row verdicts
            else:
                labels = ()
                out_ifname = route.out_ifname
            iface = node.interfaces.get(out_ifname)
            if iface is None or iface.link is None:
                return False
            cache.hits += n
            if self.ftn is None:
                self.fib.lookups += n
            if not labels:
                for pkt, t in zip(pkts, ttls):
                    pkt.hops += 1
                    pkt.ip.ttl = t - 1
            else:
                # Entries skip the dataclass __init__/__post_init__:
                # labels come from the NHLFE (checked by ``Nhlfe``), EXP
                # from ``EXP_OF_DSCP`` or the node's ``impose_exp``
                # (checked by its setter) — validated where they were set.
                new = object.__new__
                exp_fixed = node._impose_exp
                exp_of_dscp = EXP_OF_DSCP
                grow = MPLS_SHIM_BYTES * len(labels)
                for pkt, t in zip(pkts, ttls):
                    pkt.hops += 1
                    t -= 1
                    ip = pkt.ip
                    ip.ttl = t
                    exp = exp_fixed if exp_fixed is not None else exp_of_dscp[ip.dscp]
                    stack = pkt.mpls_stack
                    for lbl in labels:
                        m = new(MplsEntry)
                        m.label = lbl
                        m.exp = exp
                        m.ttl = t
                        stack.append(m)
                    w = pkt._wire
                    if w is not None:
                        pkt._wire = w + grow
        stats = node.stats
        stats.rx_packets += n
        stats.forwarded += n
        iface.send_batch(pkts)
        return True

    # ------------------------------------------------------------------
    # Label-op stage (MPLS fast path)
    # ------------------------------------------------------------------
    def mpls_stage(self, pkt: Packet) -> None:
        """LFIB processing for the top of stack; iterative across pops.

        ``POP_PROCESS`` on a multi-level stack continues the loop instead
        of recursing, so label-stack depth costs no Python stack frames.
        """
        node = self.node
        sim = self.sim
        lookup = self.lfib.lookup
        fl = node.trace.flight
        while True:
            top = pkt.mpls_stack[-1]
            label = top.label
            entry = lookup(label)
            if entry is None:
                node.drop(pkt, DropReason.NO_LABEL)
                return
            op = entry.op
            # SWAP, POP and SWAP_PUSH write the TTL and the label into the
            # ``top`` entry held here; the out label passed its 20-bit check
            # when the LfibEntry was built.
            if op is LabelOp.SWAP:
                ttl = top.ttl = top.ttl - 1
                if ttl <= 0:
                    node.drop(pkt, DropReason.TTL)
                    return
                if fl is not None:
                    fl.label_op(sim.now, node.name, pkt, "swap",
                                old=label, new=entry.out_label)
                top.label = entry.out_label  # EXP is preserved across swaps
                node.transmit(pkt, entry.out_ifname)
                return
            if op is LabelOp.POP:
                ttl = top.ttl = top.ttl - 1
                if ttl <= 0:
                    node.drop(pkt, DropReason.TTL)
                    return
                if fl is not None:
                    fl.label_op(sim.now, node.name, pkt, "pop", old=label)
                pkt.pop_label()
                node.transmit(pkt, entry.out_ifname)
                return
            if op is LabelOp.POP_PROCESS:
                if fl is not None:
                    fl.label_op(sim.now, node.name, pkt, "pop", old=label)
                pkt.pop_label()
                if pkt.mpls_stack:
                    continue  # inner label is also ours
                if pkt.ip.dst in node.addresses:
                    node.deliver_local(pkt)
                else:
                    self.ip_stage(pkt)
                return
            if op is LabelOp.SWAP_PUSH:
                # FRR local repair: restore the label the merge point
                # expects, then tunnel it over the bypass LSP.  EXP is
                # copied onto the bypass entry so the detour keeps the class.
                ttl = top.ttl = top.ttl - 1
                if ttl <= 0:
                    node.drop(pkt, DropReason.TTL)
                    return
                if fl is not None:
                    fl.label_op(sim.now, node.name, pkt, "swap",
                                old=label, new=entry.out_label)
                    fl.label_op(sim.now, node.name, pkt, "push",
                                new=entry.push_label)
                top.label = entry.out_label
                pkt.push_label(entry.push_label, exp=top.exp)
                node.transmit(pkt, entry.out_ifname)
                return
            if op is LabelOp.VPN:
                if fl is not None:
                    fl.label_op(sim.now, node.name, pkt, "pop", old=label)
                pkt.pop_label()
                vpn_deliver = node.vpn_deliver
                if vpn_deliver is None:
                    node.drop(pkt, DropReason.VPN_LABEL_NO_VRF)
                else:
                    vpn_deliver(pkt, entry.vrf)
                return
            node.drop(pkt, DropReason.BAD_LFIB_OP)  # pragma: no cover
            return

    # ------------------------------------------------------------------
    # Lookup stage (IP path, with optional label imposition)
    # ------------------------------------------------------------------
    def ip_stage(self, pkt: Packet) -> None:
        """TTL, flow-cache / LPM lookup, FTN imposition check, dispatch."""
        node = self.node
        if pkt.decrement_ttl() <= 0:
            node.drop(pkt, DropReason.TTL)
            return
        dst = pkt.ip.dst
        decision = self.flow_cache.get(dst.value)
        if decision is None:
            decision = self._flow_miss(dst)
        elif self.ftn is None:
            self.fib.lookups += 1  # logical lookup served from the cache
        route, nhlfe = decision
        if nhlfe is not None:
            self.impose(pkt, nhlfe)
            return
        if route is None:
            node.drop(pkt, DropReason.NO_ROUTE)
            return
        self.dispatch(pkt, route)

    def _flow_miss(self, dst: IPv4Address) -> "tuple[RouteEntry | None, Nhlfe | None]":
        """Flow-cache miss: the real LPM (+ FTN binding) lookup, memoized.

        :meth:`ip_stage` has already counted the miss.  "No route" is
        cached too, as ``(None, None)``.
        """
        if self.ftn is None:
            decision = (self.fib.lookup(dst), None)
        else:
            match = self.fib.lookup_prefix(dst)
            decision = (
                (None, None) if match is None
                else (match[1], self.ftn.lookup(match[0]))
            )
        self.flow_cache.put(dst.value, decision)
        return decision

    # ------------------------------------------------------------------
    # QoS-mark stage (label imposition with DSCP→EXP)
    # ------------------------------------------------------------------
    def impose(self, pkt: Packet, nhlfe: Nhlfe, vpn_label: int | None = None) -> None:
        """Push the NHLFE's label stack and transmit: every imposition.

        At a PE's VPN ingress ``vpn_label`` goes on first, under the
        tunnel's labels.  Implicit-null labels in the NHLFE are not pushed
        (PHP on a one-hop tunnel).  EXP comes from the packet's DSCP unless
        the node's ``impose_exp`` pins a fixed value; the VPN label gets 0
        instead when the PE's ``exp_mode`` is ``"outer-only"`` (E9c).
        """
        node = self.node
        impose_exp = node._impose_exp
        exp = impose_exp if impose_exp is not None else EXP_OF_DSCP[pkt.ip.dscp]
        fl = node.trace.flight
        if vpn_label is not None:
            if fl is not None:
                fl.label_op(self.sim.now, node.name, pkt, "push", new=vpn_label)
            pkt.push_label(vpn_label, exp=exp if node.exp_mode == "both" else 0)
        for label in nhlfe.labels:
            if label == IMPLICIT_NULL:
                continue
            if fl is not None:
                fl.label_op(self.sim.now, node.name, pkt, "push", new=label)
            pkt.push_label(label, exp=exp)
        node.transmit(pkt, nhlfe.out_ifname)

    # ------------------------------------------------------------------
    # Egress dispatch stage
    # ------------------------------------------------------------------
    def dispatch(self, pkt: Packet, entry: "RouteEntry") -> None:
        """Send ``pkt`` out the interface selected by ``entry``.

        With ECMP alternates present, the egress is chosen by the
        (memoized) flow hash — all packets of one flow share a path (no
        reordering), while distinct flows spread across the equal-cost set.
        """
        if entry.alternates:
            paths = entry.all_paths
            out_ifname, _nh = paths[flow_hash(pkt) % len(paths)]
            self.node.transmit(pkt, out_ifname)
            return
        self.node.transmit(pkt, entry.out_ifname)

    # ------------------------------------------------------------------
    # VRF stages (PE)
    # ------------------------------------------------------------------
    def _vrf_lookup(self, vrf, dst: IPv4Address) -> "tuple[Any, Nhlfe | None] | None":
        """Cached VRF decision: ``(route, tunnel)``, or ``None`` for no route.

        The PE's flow cache: the tunnel is the FTN's NHLFE for the egress
        PE's loopback (an LDP binding or a TE autoroute) — ``None`` for a
        local route or a remote one with no LSP — so each cache is guarded
        by its VRF *and* the FTN, as the flow cache is by the FIB and the
        FTN.  "No route" is not cached.  The caches are keyed by VRF
        *name* but each is guarded by the ``Vrf`` object, so a cache built
        for a removed VRF must not serve a re-created one of the same name.
        """
        cache = self.vrf_caches.get(vrf.name)
        if cache is None or cache._primary is not vrf:
            cache = self.vrf_caches[vrf.name] = GenCache(vrf, self.ftn)
        decision = cache.get(dst.value)
        if decision is None:
            route = vrf.lookup(dst)
            if route is None:
                return None
            decision = (route, None if route.kind == "local"
                        else self.ftn.lookup(Prefix.of(route.remote_pe, 32)))
            cache.put(dst.value, decision)
        return decision

    def customer_stage(self, pkt: Packet, vrf) -> None:
        """Customer packet arriving on an attachment circuit (VPN ingress).

        A remote route enters the tunnel to the egress PE under its VPN
        label (:meth:`impose`); a local one is site-to-site through this PE.
        """
        node = self.node
        fa = node.trace.flows
        if fa is not None:
            fa.ingress(node.name, vrf.name, pkt)
        if pkt.decrement_ttl() <= 0:
            node.drop(pkt, DropReason.TTL)
            return
        decision = self._vrf_lookup(vrf, pkt.ip.dst)
        if decision is None:
            node.drop(pkt, DropReason.NO_VRF_ROUTE)
            return
        route, tunnel = decision
        if tunnel is not None:
            self.impose(pkt, tunnel, route.vpn_label)
        elif route.kind == "local":
            node.transmit(pkt, route.out_ifname)
        else:
            node.drop(pkt, DropReason.NO_TUNNEL)  # before any label is pushed

    def vpn_egress(self, pkt: Packet, vrf_name: str) -> None:
        """Egress side: tunnel label already removed, VPN label popped."""
        node = self.node
        vrfs = self.vrfs
        vrf = vrfs.get(vrf_name) if vrfs is not None else None
        if vrf is None:
            node.drop(pkt, DropReason.UNKNOWN_VRF)
            return
        fa = node.trace.flows
        if fa is not None:
            fa.egress(node.name, vrf.name, pkt)
        decision = self._vrf_lookup(vrf, pkt.ip.dst)
        if decision is None or decision[0].kind != "local":
            # Hairpinning remote->remote through an egress PE would be a
            # provisioning loop; refuse rather than bounce across the core.
            node.drop(pkt, DropReason.NO_VRF_ROUTE)
            return
        node.transmit(pkt, decision[0].out_ifname)

    # ------------------------------------------------------------------
    def cache_stats(self) -> dict[str, Any]:
        """Counters for every enabled cache (observability/test hook)."""
        out: dict[str, Any] = {"flow": self.flow_cache.stats()}
        if self.vrf_caches:
            out["vrf"] = {name: c.stats() for name, c in self.vrf_caches.items()}
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ForwardingPipeline {self.node.name} {'+'.join(self.stages())}>"
