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

Performance notes (measured, see benchmarks/test_simulator_performance.py):

* Zero-closure hot path: when a node's modeled processing cost is zero —
  the default — stages call each other directly; closures are allocated
  only when a nonzero cost forces a trip through the scheduler, and even
  then :meth:`Simulator.schedule_call` stores the arguments on the event
  instead of building a ``bind()`` closure.
* Exact-match fast caches: the destination→decision flow cache fronts the
  LPM trie, the label→entry cache fronts the LFIB, and per-VRF caches
  front the VRF tables.  All are generation-stamped (``GenCache``) so SPF
  reconvergence, ``reset_ldp``, FRR activation, and VRF churn invalidate
  them without any notification protocol.
* ``flow_hash`` memoizes its CRC32 on the packet — the 5-tuple is
  immutable for a packet's lifetime, so the ECMP key is computed at most
  once per packet rather than once per hop.

Logical lookup counters (``fib.lookups``, ``lfib.lookups``) are bumped on
cache hits too, so experiment E8's per-node lookup census keeps its
meaning ("packets that consulted this table") regardless of cache state.
"""

from __future__ import annotations

import zlib
from itertools import repeat
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.dataplane.caches import GenCache
from repro.dataplane.columns import PacketColumns, group_rows
from repro.net.address import IPv4Address, Prefix
from repro.net.drops import DropReason
from repro.net.packet import MplsEntry, Packet

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

#: Minimum burst size for the columnar (struct-of-arrays) path: below it
#: the ndarray setup costs more than the per-row loop saves.  Module-level
#: and read at call time so the parity tests can force tiny bursts through
#: the columnar resolver (monkeypatch it to 1).
COLUMNAR_MIN = 4

# Row action codes for the columnar resolve/apply split.  Resolution fills
# an int action column + a decision index per row; the apply loop is a
# single in-order pass that materializes each action back onto the packet.
# The list is closed: these are the hot actions the ledger shows traffic
# for, and everything else is _A_SCALAR — the row continues in the scalar
# stage that defines its semantics.
_A_PENDING = 0      # awaiting the dst-key gather (the ip stage)
_A_IP = 1           # plain IP forward (includes implicit-null imposition)
_A_IMPOSE = 2       # push the NHLFE's label stack, then forward
_A_ECMP = 3         # IP forward, per-flow path choice
_A_SWAP = 4         # label swap
_A_POP = 5          # penultimate-hop pop
_A_SCALAR = 6       # any other row: per-row scalar continuation
_A_DROP = 7         # drop; no header mutation happened
_A_DROPW = 8        # drop after writing back the decremented TTL

# Label-stack entries built on the imposition fast path skip the dataclass
# __init__/__post_init__ (labels come from the NHLFE, EXP from the
# ``EXP_OF_DSCP`` table — both validated at install time).
_NEW_MPLS = object.__new__


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
    (``impose_exp``, ``qos_exp_mapping``, ``exp_mode``, ``vpn_deliver``)
    at packet time so experiments can flip them mid-run.
    """

    __slots__ = (
        "node", "sim", "fib", "lfib", "ftn", "vrf_of_circuit", "vrfs",
        "flow_cache", "label_cache", "tunnel_cache", "vrf_caches",
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
        self.label_cache: GenCache | None = None
        self.tunnel_cache: GenCache | None = None
        self.vrf_caches: dict[str, GenCache] = {}

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
        self.label_cache = GenCache(lfib)

    def enable_vrf_demux(self, vrf_of_circuit: dict, vrfs: dict) -> None:
        """Plug in the VRF demux stage (PE): circuit→VRF ingress mapping."""
        assert self.ftn is not None, "VRF demux requires the MPLS stage"
        self.vrf_of_circuit = vrf_of_circuit
        self.vrfs = vrfs
        self.tunnel_cache = GenCache(self.ftn)

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
        if node.owns(pkt.ip.dst):
            node.deliver_local(pkt)
            return
        cost = node.processing.ip_lookup_s
        if cost <= 0.0:
            self.ip_stage(pkt)
        else:
            self.sim.schedule_call(cost, self.ip_stage, pkt)

    # ------------------------------------------------------------------
    # Vector fast path
    # ------------------------------------------------------------------
    def ingress_batch(self, items: "list[tuple[Packet, str]]") -> None:
        """Vector entry point (``Router.receive_batch``): dispatch one burst.

        Two tiers, observationally identical (the parity contract of
        ``tests/test_dataplane_batch.py``):

        * Per-packet ``node.receive`` — the scalar stages — for bursts
          below ``COLUMNAR_MIN`` (the ndarray setup would cost more than
          it saves) and for nodes with modeled per-packet CPU cost (their
          stages go through the scheduler anyway).
        * The **columnar** path (:meth:`_ingress_columns`) otherwise: the
          burst is transposed into
          :class:`~repro.dataplane.columns.PacketColumns`, the hot
          actions are resolved per *unique* key with vectorized
          gathers/masks and materialized in one in-order apply pass, and
          every other row continues in its scalar stage.  Capacity-
          bounded caches are fine here: they evict at per-burst epoch
          boundaries (:meth:`GenCache.sync`), never on insert, so no fill
          can invalidate another group's pre-gathered entry mid-burst.
        """
        processing = self.node.processing
        if (
            len(items) < COLUMNAR_MIN
            or processing.ip_lookup_s > 0.0
            or processing.label_lookup_s > 0.0
        ):
            receive = self.node.receive
            for pkt, ifname in items:
                receive(pkt, ifname)
            return
        self._ingress_columns(items)

    # ------------------------------------------------------------------
    # Columnar fast path (struct-of-arrays)
    # ------------------------------------------------------------------
    def _ingress_columns(self, items: "list[tuple[Packet, str]]") -> None:
        """Struct-of-arrays burst resolution: classify → gather → apply.

        An accelerator over the scalar stages, not a second definition of
        them.  The burst is transposed into :class:`PacketColumns` (one
        O(n) object walk) and only a closed list of *hot actions* is
        resolved per unique key and applied inline: plain IP forward,
        label imposition, ECMP spray, label swap, penultimate-hop pop,
        single-level ``POP_PROCESS`` transit (pop, then the ip gather),
        and their TTL / no-route / unknown-label / labeled-at-IP-router
        drops.  Every other row — attachment-circuit ingress, a VPN
        label, local delivery, FRR's swap-and-push, a multi-level
        ``POP_PROCESS`` stack, a bad op — gets the one ``_A_SCALAR``
        action: the apply pass flushes the open egress run and calls the
        scalar stage itself, handing over what the gather already
        resolved *and counted* (``mpls_stage(pkt, entry)``,
        ``customer_stage(pkt, vrf)``) or, when nothing was resolved, the
        whole of :meth:`ingress`.  A new forwarding rule is therefore
        written once, in a scalar stage.

        1. **Circuit rows** — rows arriving on an attachment circuit go
           scalar before any table is probed (a labeled one must be
           refused by ``ingress`` with no LFIB counter moved).
        2. **Label groups** — unique top labels in first-arrival order,
           one LFIB/cache probe per group; hit/miss/logical-lookup
           counters are bumped by group size to exactly the per-row
           totals.
        3. **Local delivery** — one set-membership test on the dst-key
           column over the unlabeled rows.
        4. **Mass TTL** — one masked decrement over the hot rows (scalar
           rows decrement in their own stage), the expiry mask rewriting
           actions to drops.
        5. **Dst-key gather** — unique destinations of the surviving
           ip-stage rows against the flow cache, same group arithmetic;
           misses resolve through :meth:`_flow_miss`, the call the scalar
           path makes.
        6. **Apply** — one in-order pass materializing header writes
           (TTL, swaps, pushes via direct slot stores, pops).  Untraced,
           consecutive same-interface rows flush through one
           ``send_batch`` carrying the wire-bytes column, and a burst
           that is one swap / one route / one imposition group skips the
           pass for a uniform loop; with a flight recorder or drop
           subscriber attached every row emits its records and sends per
           packet, so the interleave is the scalar sequence.

        Packet objects are only touched in the build pass and at
        materialization boundaries — egress write-back, drops, scalar
        continuations, trace hooks — which is the lazy-materialization
        contract documented in ARCHITECTURE §11.
        """
        node = self.node
        stats = node.stats
        n = len(items)
        stats.rx_packets += n
        cols = PacketColumns(items)
        trace = node.trace
        fl = trace.flight
        vec_tx = fl is None and not trace.active("drop")
        addresses = node.addresses
        interfaces = node.interfaces
        lfib = self.lfib
        act = np.zeros(n, dtype=np.int64)
        didx = np.zeros(n, dtype=np.int64)
        # decisions[0] is the "nothing resolved" payload of _A_SCALAR rows.
        decisions: list[Any] = [None]

        def assign(rows: Any, kind: int, payload: Any) -> None:
            """Give the same action and decision to every row of ``rows``
            (a row-index sequence or a boolean mask)."""
            if not isinstance(rows, np.ndarray):
                rows = slice(None) if len(rows) == n else np.fromiter(
                    rows, np.int64, count=len(rows)
                )
            act[rows] = kind
            didx[rows] = len(decisions)
            decisions.append(payload)

        def egress(out: str) -> Any:
            """The interface named ``out`` if it can transmit, else None."""
            iface = interfaces.get(out)
            return iface if iface is not None and iface.link is not None else None

        # ---- phase 1: attachment-circuit rows -----------------------
        lab_rows = cols.lab_rows
        voc = self.vrf_of_circuit
        circuit: set[int] = set()
        if voc is not None and not voc.keys().isdisjoint(
            [ifn for _, ifn in items]
        ):
            for r, (pkt, ifn) in enumerate(items):
                vrf = voc.get(ifn)
                if vrf is not None:
                    circuit.add(r)
                    act[r] = _A_SCALAR
                    if not pkt.mpls_stack:  # a labeled one: ingress refuses it
                        didx[r] = len(decisions)
                        decisions.append((self.customer_stage, vrf))
            lab_rows = [r for r in lab_rows if r not in circuit]

        # ``special`` tracks whether any row is not a plain ip-stage row —
        # while False, phases 4/5 take the uniform-shape shortcuts.
        # ``uni_swap`` is the all-rows single-group SWAP entry: the core-
        # LSR shape whose action/didx writes are deferred (made real only
        # on a fallback) because the uniform apply loop never reads them.
        special = bool(lab_rows or circuit)
        uni_swap: Any = None
        popp: list[bool] | None = None

        # ---- phase 2: label-op groups -------------------------------
        if lab_rows and lfib is None:
            assign(lab_rows, _A_DROP, DropReason.LABELED_AT_IP_ROUTER)
        elif lab_rows:
            popp = [False] * n
            label_cache = self.label_cache
            label_l = cols.label_list
            ukeys, buckets = group_rows(
                lab_rows,
                label_l if len(lab_rows) == n else [label_l[r] for r in lab_rows],
            )
            probed = label_cache.probe_many(ukeys)
            op_swap = LabelOp.SWAP
            op_pop = LabelOp.POP
            for key, entry, rows_l in zip(ukeys, probed, buckets or (lab_rows,)):
                c = len(rows_l)
                if entry is None:
                    # Scalar row 1: miss + real lookup (+fill); rows 2..c
                    # then hit the fresh entry.  An unknown label is never
                    # cached, so every row of its group misses and
                    # consults the LFIB.
                    label_cache.misses += 1
                    entry = lfib.lookup(key)
                    lfib.lookups += c - 1
                    if entry is None:
                        label_cache.misses += c - 1
                        assign(rows_l, _A_DROP, DropReason.NO_LABEL)
                        continue
                    label_cache.put(key, entry)
                    label_cache.hits += c - 1
                else:
                    label_cache.hits += c
                    lfib.lookups += c
                op = entry.op
                if op is op_swap:
                    if c == n:
                        uni_swap = entry
                    else:
                        assign(rows_l, _A_SWAP, entry)
                    continue
                if op is op_pop:
                    assign(rows_l, _A_POP, entry)
                    continue
                if op is LabelOp.POP_PROCESS:
                    # Single-level transit rows stay pending for the ip
                    # gather, flagged pop-first; deeper stacks and local
                    # destinations continue in the scalar stage.
                    depth = cols.depth_col()
                    rest = []
                    for r in rows_l:
                        if depth[r] > 1 or items[r][0].ip.dst in addresses:
                            rest.append(r)
                        else:
                            popp[r] = True
                    rows_l = rest
                if rows_l:
                    assign(rows_l, _A_SCALAR, (self.mpls_stage, entry))

        # ---- phase 3: local delivery --------------------------------
        if addresses and len(cols.lab_rows) < n:
            # Set membership on the plain dst-key list: the address table
            # is a handful of host entries, so building the int-value set
            # per burst is far cheaper than np.isin, and the C-level
            # isdisjoint scan settles the common transit burst (no local
            # traffic) without the filter pass.
            dst_l = cols.dst_keys()
            avals = {a.value for a in addresses}
            if not avals.isdisjoint(dst_l):
                skip = circuit.union(cols.lab_rows)
                loc = [
                    r for r in range(n) if dst_l[r] in avals and r not in skip
                ]
                if loc:
                    assign(loc, _A_SCALAR, None)
                    special = True

        # ---- phase 4: mass TTL decrement + expiry mask --------------
        ttl_l: list[int] | None = cols.ttl_list
        if (not special or uni_swap is not None) and min(ttl_l) > 1:
            # Uniform shape (every row PENDING, or one SWAP group covering
            # the burst) with nothing expiring: the decrement fuses into
            # the apply loops (``None`` is the fused-decrement sentinel).
            ttl_l = None
        else:
            if uni_swap is not None:
                # The expiry mask needs per-row actions to override.
                assign(lab_rows, _A_SWAP, uni_swap)
                uni_swap = None
            ttl = np.array(ttl_l, dtype=np.int64)
            decr = (act == _A_PENDING) | (act == _A_SWAP) | (act == _A_POP)
            ttl[decr] -= 1
            low = decr & (ttl <= 0)
            if low.any():
                assign(low, _A_DROPW, DropReason.TTL)
            special = True
            ttl_l = ttl.tolist()

        # ---- phase 5: dst-key gather (the ip stage) -----------------
        if uni_swap is not None:
            iface = egress(uni_swap.out_ifname)
            if vec_tx and iface is not None:
                self._apply_uniform_swap(items, cols, uni_swap, iface)
                return
            # Missing egress (the generic loop drops each row with
            # NO_IFACE) or a traced burst.
            assign(lab_rows, _A_SWAP, uni_swap)
        else:
            pend: Any = (
                np.nonzero(act == _A_PENDING)[0].tolist() if special
                else range(n)
            )
            if pend:
                dst_l = cols.dst_keys()
                ukeys, buckets = group_rows(
                    pend, [dst_l[r] for r in pend] if special else dst_l
                )
                probed = self.flow_cache.probe_many(ukeys)
                for decision, rows_l in zip(probed, buckets or (pend,)):
                    kind, payload = self._resolve_dst_group(
                        decision, items[rows_l[0]][0].ip.dst, len(rows_l)
                    )
                    if ttl_l is None and buckets is None and vec_tx:
                        # Homogeneous untraced burst — one destination,
                        # one decision (a traffic train into one remote):
                        # a uniform apply loop with no per-row dispatch.
                        # ECMP sprays per row and a missing egress drops
                        # per row, so both take the generic pass.
                        if kind == _A_IP:
                            iface = egress(payload)
                            if iface is not None:
                                self._apply_uniform_ip(items, cols, iface)
                                return
                        elif kind == _A_IMPOSE:
                            iface = egress(payload[1])
                            if iface is not None:
                                self._apply_uniform_impose(
                                    items, cols, payload[0], iface
                                )
                                return
                    assign(rows_l, kind, payload)

        # ---- phase 6: in-order apply / materialization --------------
        if ttl_l is None:
            # Fused-decrement sentinel from a uniform shape that fell
            # back here: every such shape decrements all rows.
            ttl_l = [t - 1 for t in cols.ttl_list]
        drop = node.drop
        name = node.name
        now = self.sim.now
        impose_exp = node.impose_exp if lfib is not None else None
        lut = EXP_OF_DSCP
        run_name: str | None = None
        run_iface: Any = None
        run_pkts: list[Packet] | None = None
        run_wire: list[int] | None = None

        def flush_run() -> None:
            nonlocal run_name, run_iface, run_pkts, run_wire
            if run_name is not None:
                stats.forwarded += len(run_pkts)
                run_iface.send_batch(run_pkts, run_wire)
                run_name = run_iface = run_pkts = run_wire = None

        def tx_cold(pkt: Packet, out: str, w: int) -> None:
            # Run boundary: resolve the interface, flush the open run,
            # start the next one.
            nonlocal run_name, run_iface, run_pkts, run_wire
            iface = egress(out)
            if iface is None:
                drop(pkt, DropReason.NO_IFACE)
            elif not vec_tx:
                # Traced: per-packet send keeps the record interleave
                # bit-identical to the scalar sequence (run_name stays
                # None, so every row lands here).
                stats.forwarded += 1
                iface.send(pkt)
            else:
                flush_run()
                run_name = out
                run_iface = iface
                run_pkts = [pkt]
                run_wire = [w]

        for (pkt, ifname), a, di, t, w, pop_first in zip(
            items, act.tolist(), didx.tolist(), ttl_l, cols.wire_col(),
            popp or repeat(False),
        ):
            pkt.hops += 1
            if fl is not None:
                fl.rx(now, name, pkt, ifname)
            if pop_first:
                # POP_PROCESS transit: the pop (and its record) comes
                # before the TTL / route verdict, as in ``mpls_stage``.
                if fl is not None:
                    fl.label_op(now, name, pkt, "pop",
                                old=pkt.mpls_stack[-1].label)
                pkt.mpls_stack.pop()
                w -= 4
                pkt._wire = w
            if a == _A_IP:
                pkt.ip.ttl = t
                out = decisions[di]
            elif a == _A_SWAP:
                entry = decisions[di]
                top = pkt.mpls_stack[-1]
                if fl is not None:
                    fl.label_op(now, name, pkt, "swap",
                                old=top.label, new=entry.out_label)
                top.ttl = t
                top.label = entry.out_label
                out = entry.out_ifname
            elif a == _A_IMPOSE:
                labels, out = decisions[di]
                pkt.ip.ttl = t
                e = impose_exp
                if e is None:
                    e = lut[pkt.ip.dscp]
                stack = pkt.mpls_stack
                for lbl in labels:
                    if fl is not None:
                        fl.label_op(now, name, pkt, "push", new=lbl)
                    m = _NEW_MPLS(MplsEntry)
                    m.label = lbl
                    m.exp = e
                    m.ttl = t
                    stack.append(m)
                w += 4 * len(labels)
                pkt._wire = w
            elif a == _A_ECMP:
                pkt.ip.ttl = t
                paths = decisions[di]
                out = paths[flow_hash(pkt) % len(paths)][0]
            elif a == _A_POP:
                stack = pkt.mpls_stack
                if fl is not None:
                    fl.label_op(now, name, pkt, "pop", old=stack[-1].label)
                stack.pop()
                if stack:
                    stack[-1].ttl = t
                else:
                    pkt.ip.ttl = t
                w -= 4
                pkt._wire = w
                out = decisions[di].out_ifname
            else:
                if a == _A_SCALAR:
                    # The continuation may transmit, deliver or inject
                    # traffic: the open run goes out first.
                    flush_run()
                    stage = decisions[di]
                    if stage is None:
                        self.ingress(pkt, ifname)
                    else:
                        stage[0](pkt, stage[1])
                    continue
                if a == _A_DROPW:
                    # The decremented TTL is written back before the drop.
                    if pkt.mpls_stack:
                        pkt.mpls_stack[-1].ttl = t
                    else:
                        pkt.ip.ttl = t
                drop(pkt, decisions[di])
                continue
            if out == run_name:
                run_pkts.append(pkt)
                run_wire.append(w)
            else:
                tx_cold(pkt, out, w)
        flush_run()

    def _resolve_dst_group(
        self, decision: Any, dst: IPv4Address, c: int
    ) -> tuple[int, Any]:
        """Resolve one flow-cache group: ``c`` rows destined to ``dst``.

        ``decision`` is the pre-gathered cache entry (``None`` on miss).
        Returns ``(action, payload)``: ``_A_IP`` with an out-interface
        name, ``_A_IMPOSE`` with ``(labels, out_ifname)``, ``_A_ECMP``
        with the path list, or ``_A_DROPW`` with ``NO_ROUTE``.  Counter
        arithmetic is the exact per-row scalar total: a miss costs one
        real lookup plus ``c - 1`` hits, a hit costs ``c`` hits, and the
        logical FIB lookup counter moves only on the plain-IP path —
        identical to ``ip_stage`` called ``c`` times.
        """
        flow_cache = self.flow_cache
        if decision is None:
            flow_cache.misses += 1
            decision = self._flow_miss(dst)
            c -= 1
        flow_cache.hits += c
        if self.ftn is None:
            self.fib.lookups += c
        route, nhlfe = decision
        if nhlfe is not None:
            implicit_null = IMPLICIT_NULL
            labels = [lbl for lbl in nhlfe.labels if lbl != implicit_null]
            if labels:
                return _A_IMPOSE, (labels, nhlfe.out_ifname)
            return _A_IP, nhlfe.out_ifname
        if route is None:
            return _A_DROPW, DropReason.NO_ROUTE
        if route.alternates:
            return _A_ECMP, route.all_paths
        return _A_IP, route.out_ifname

    # ------------------------------------------------------------------
    # Uniform apply loops: the whole burst shares one resolved decision
    # (single dst group on an edge, single swap group in the core), so the
    # action/didx bookkeeping and per-row dispatch of the generic apply
    # pass collapse into one tight materialization loop ending in a single
    # ``send_batch``.  Observable effects are row-for-row identical to the
    # generic loop: hops, TTL write-back, header edits, counter and
    # byte accounting all match (held by the parity suite).
    # ------------------------------------------------------------------
    def _apply_uniform_ip(
        self, items: "list[tuple[Packet, str]]", cols: PacketColumns, iface
    ) -> None:
        """Whole burst routed unlabeled out one interface.

        Reached only through the fused-decrement gate (no expiry), so
        the TTL write is ``t - 1`` inline — the loop touches each packet
        exactly twice (hops, ttl) before the batched egress hand-off.
        The packet column is comprehension-built first so the hot loop
        zips flat lists with no per-row tuple unpack.
        """
        wire = cols.wire_col()
        out: list[Packet] = [p for p, _ in items]
        for pkt, t in zip(out, cols.ttl_list):
            pkt.hops += 1
            pkt.ip.ttl = t - 1
        self.node.stats.forwarded += len(out)
        iface.send_batch(out, wire)

    def _apply_uniform_swap(
        self,
        items: "list[tuple[Packet, str]]",
        cols: PacketColumns,
        entry: Any,
        iface,
    ) -> None:
        """Whole burst = one SWAP group: the core-LSR hot shape."""
        lbl = entry.out_label
        wire = cols.wire_col()
        out: list[Packet] = [p for p, _ in items]
        for pkt, top, t in zip(out, cols.tops, cols.ttl_list):
            pkt.hops += 1
            top.ttl = t - 1
            top.label = lbl
        self.node.stats.forwarded += len(out)
        iface.send_batch(out, wire)

    def _apply_uniform_impose(
        self,
        items: "list[tuple[Packet, str]]",
        cols: PacketColumns,
        labels: list[int],
        iface,
    ) -> None:
        """Whole burst imposes one (non-null) label stack: ingress-PE shape.

        The wire column updates as one shifted comprehension; the packet
        loop is specialized for the overwhelmingly common single-label
        NHLFE so no inner iterator is set up per row.
        """
        node = self.node
        wadd = 4 * len(labels)
        wire_l = [w + wadd for w in cols.wire_col()]
        lut = EXP_OF_DSCP
        e_fixed = node.impose_exp
        out: list[Packet] = [p for p, _ in items]
        if len(labels) == 1 and e_fixed is None:
            # Hot variant: single-label NHLFE, per-packet DSCP→EXP copy
            # (the DiffServ default) — no inner iterator, no fixed-EXP
            # branch per row.
            lbl = labels[0]
            for pkt, t0, w in zip(out, cols.ttl_list, wire_l):
                pkt.hops += 1
                t = t0 - 1
                ip = pkt.ip
                ip.ttl = t
                m = _NEW_MPLS(MplsEntry)
                m.label = lbl
                m.exp = lut[ip.dscp]
                m.ttl = t
                pkt.mpls_stack.append(m)
                pkt._wire = w
        else:
            for pkt, t0, w in zip(out, cols.ttl_list, wire_l):
                pkt.hops += 1
                t = t0 - 1
                ip = pkt.ip
                ip.ttl = t
                e = e_fixed
                if e is None:
                    e = lut[ip.dscp]
                stack = pkt.mpls_stack
                for lbl in labels:
                    m = _NEW_MPLS(MplsEntry)
                    m.label = lbl
                    m.exp = e
                    m.ttl = t
                    stack.append(m)
                pkt._wire = w
        node.stats.forwarded += len(out)
        iface.send_batch(out, wire_l)

    # ------------------------------------------------------------------
    # Label-op stage (MPLS fast path)
    # ------------------------------------------------------------------
    def mpls_stage(self, pkt: Packet, entry: Any = None) -> None:
        """LFIB processing for the top of stack; iterative across pops.

        ``POP_PROCESS`` on a multi-level stack continues the loop instead
        of recursing, so label-stack depth costs no Python stack frames.
        ``entry`` is the columnar tier's continuation: the top label's
        LFIB entry, already resolved *and counted* by the group gather.
        """
        node = self.node
        sim = self.sim
        lfib = self.lfib
        cache = self.label_cache
        fl = node.trace.flight
        while True:
            top = pkt.mpls_stack[-1]
            label = top.label
            if entry is None:
                entry = cache.get(label)
                if entry is None:
                    entry = lfib.lookup(label)
                    if entry is None:
                        node.drop(pkt, DropReason.NO_LABEL)
                        return
                    cache.put(label, entry)
                else:
                    lfib.lookups += 1  # logical lookup served from the cache
            op = entry.op
            if op is LabelOp.SWAP:
                if pkt.decrement_ttl() <= 0:
                    node.drop(pkt, DropReason.TTL)
                    return
                if fl is not None:
                    fl.label_op(sim.now, node.name, pkt, "swap",
                                old=label, new=entry.out_label)
                pkt.swap_label(entry.out_label)  # EXP is preserved across swaps
                node.transmit(pkt, entry.out_ifname)
                return
            if op is LabelOp.POP:
                if pkt.decrement_ttl() <= 0:
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
                    entry = None
                    continue  # inner label is also ours
                if node.owns(pkt.ip.dst):
                    node.deliver_local(pkt)
                else:
                    self.ip_stage(pkt)
                return
            if op is LabelOp.SWAP_PUSH:
                # FRR local repair: restore the label the merge point
                # expects, then tunnel it over the bypass LSP.  EXP is
                # copied onto the bypass entry so the detour keeps the class.
                if pkt.decrement_ttl() <= 0:
                    node.drop(pkt, DropReason.TTL)
                    return
                exp = top.exp
                if fl is not None:
                    fl.label_op(sim.now, node.name, pkt, "swap",
                                old=label, new=entry.out_label)
                    fl.label_op(sim.now, node.name, pkt, "push",
                                new=entry.push_label)
                pkt.swap_label(entry.out_label)
                pkt.push_label(entry.push_label, exp=exp)
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

        Shared by :meth:`ip_stage` and the columnar dst-key gather; the
        caller has already counted the miss.  "No route" is cached too,
        as ``(None, None)``.
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
    def impose(self, pkt: Packet, nhlfe: Nhlfe) -> None:
        """Push the NHLFE's label stack and transmit.

        Implicit-null labels in the stack are not pushed (PHP on a one-hop
        tunnel).  EXP comes from the packet's DSCP unless the node's
        ``impose_exp`` pins a fixed value.
        """
        node = self.node
        impose_exp = node.impose_exp
        exp = impose_exp if impose_exp is not None else EXP_OF_DSCP[pkt.ip.dscp]
        fl = node.trace.flight
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
    def _vrf_lookup(self, vrf, dst: IPv4Address) -> Any:
        """Cached LPM inside one VRF; negative results are not cached.

        The caches are keyed by VRF *name* but each is guarded by the
        ``Vrf`` object's generation, so a cache built for a removed VRF
        must not serve a re-created one of the same name.
        """
        cache = self.vrf_caches.get(vrf.name)
        if cache is None or cache._primary is not vrf:
            cache = self.vrf_caches[vrf.name] = GenCache(vrf)
        route = cache.get(dst.value)
        if route is None:
            route = vrf.lookup(dst)
            if route is not None:
                cache.put(dst.value, route)
        return route

    def customer_stage(self, pkt: Packet, vrf) -> None:
        """Customer packet arriving on an attachment circuit (VPN ingress)."""
        node = self.node
        fa = node.trace.flows
        if fa is not None:
            fa.ingress(node.name, vrf.name, pkt)
        if pkt.decrement_ttl() <= 0:
            node.drop(pkt, DropReason.TTL)
            return
        route = self._vrf_lookup(vrf, pkt.ip.dst)
        if route is None:
            node.drop(pkt, DropReason.NO_VRF_ROUTE)
            return
        if route.kind == "local":
            # Site-to-site through one PE (both sites on this PE).
            node.transmit(pkt, route.out_ifname)
            return
        self.remote_stage(pkt, route)

    def remote_stage(self, pkt: Packet, route) -> None:
        """Impose the two-level VPN stack and enter the tunnel to the
        egress PE (QoS-mark: DSCP copied into EXP per the node's policy)."""
        node = self.node
        exp = EXP_OF_DSCP[pkt.ip.dscp] if node.qos_exp_mapping else 0
        inner_exp = exp if node.exp_mode == "both" else 0
        fl = node.trace.flight
        if fl is not None:
            fl.label_op(self.sim.now, node.name, pkt, "push", new=route.vpn_label)
        pkt.push_label(route.vpn_label, exp=inner_exp)
        # Resolve the tunnel to the egress PE's loopback through the FTN
        # (an LDP binding or a TE tunnel autoroute).
        tunnel = self._tunnel_nhlfe(route.remote_pe)
        if tunnel is None:
            pkt.pop_label()
            node.drop(pkt, DropReason.NO_TUNNEL)
            return
        for label in tunnel.labels:
            if label != IMPLICIT_NULL:
                if fl is not None:
                    fl.label_op(self.sim.now, node.name, pkt, "push", new=label)
                pkt.push_label(label, exp=exp)
        node.transmit(pkt, tunnel.out_ifname)

    def _tunnel_nhlfe(self, remote_pe: IPv4Address) -> Nhlfe | None:
        """Cached FTN resolution of an egress-PE loopback (/32 FEC)."""
        cache = self.tunnel_cache
        nhlfe = cache.get(remote_pe.value)
        if nhlfe is None:
            nhlfe = self.ftn.lookup(Prefix.of(remote_pe, 32))
            if nhlfe is not None:
                cache.put(remote_pe.value, nhlfe)
        return nhlfe

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
        route = self._vrf_lookup(vrf, pkt.ip.dst)
        if route is None or route.kind != "local":
            # Hairpinning remote->remote through an egress PE would be a
            # provisioning loop; refuse rather than bounce across the core.
            node.drop(pkt, DropReason.NO_VRF_ROUTE)
            return
        node.transmit(pkt, route.out_ifname)

    # ------------------------------------------------------------------
    def cache_stats(self) -> dict[str, Any]:
        """Counters for every enabled cache (observability/test hook)."""
        out: dict[str, Any] = {"flow": self.flow_cache.stats()}
        if self.label_cache is not None:
            out["label"] = self.label_cache.stats()
        if self.tunnel_cache is not None:
            out["tunnel"] = self.tunnel_cache.stats()
        if self.vrf_caches:
            out["vrf"] = {name: c.stats() for name, c in self.vrf_caches.items()}
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ForwardingPipeline {self.node.name} {'+'.join(self.stages())}>"
