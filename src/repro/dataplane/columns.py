"""Struct-of-arrays view of one packet burst (the columnar data plane).

The paper's architectural bet is that MPLS/DiffServ reduces the per-hop
decision to a handful of aggregate header fields — top label, EXP/DSCP,
destination key — so the backbone can forward on exact-match state.  A
struct-of-arrays layout is what that access pattern looks like in memory:
one :class:`PacketColumns` per burst holds parallel columns of exactly
the hot fields, the pipeline resolves forwarding decisions per *unique*
key with batched cache gathers and masks, and the heap :class:`~repro.
net.packet.Packet` objects are only touched again at materialization
time — the egress write-back, a drop, a local delivery, or a trace
boundary.

Column inventory (per ISSUE/ARCHITECTURE §11):

``ttl_list``
    The *active* TTL per row — top-of-stack TTL for labeled rows, the IP
    header TTL otherwise.
``label_list`` / ``tops``
    Top label per row (−1 for unlabeled rows in a mixed burst) and, for
    all-labeled bursts, the top :class:`MplsEntry` objects themselves so
    the apply loop writes swaps without re-walking the stacks.
``stacks_col()`` / ``lab_rows``
    The label-stack references (one attribute walk, reused by every
    later column; lazy — the all-labeled core shape never builds it)
    and the labeled row indices — ``range(n)`` when the whole burst is
    labeled, ``()`` when none is.
``wire_col()`` / ``dst_keys()`` / ``depth_col()``
    Lazy columns: wire bytes (egress byte accounting; skipped entirely
    for drop-only bursts), destination keys (never built for a pure
    label-switching burst — the backbone-forwards-on-labels claim,
    visible in the profile), and label-stack depth (only consulted by
    ``POP_PROCESS`` rows).

Representation note (measure-first): the columns are plain Python lists,
not ndarrays.  At simulation burst scale (10²–10³ rows) C-level list
comprehensions over heap ``Packet`` objects beat ``np.fromiter`` +
ndarray scalar reads several-fold — the object-attribute gather, not the
arithmetic, is the cost — while the *pipeline's* action/index arrays and
the TTL expiry masking stay vectorized numpy where whole-burst masks pay
for themselves (see ``ForwardingPipeline._ingress_columns``).  DSCP→EXP
marking reads ``repro.qos.dscp.EXP_OF_DSCP`` per imposition row; the ECMP
flow hash stays memoized on the packet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.net.packet import IPV4_HEADER_BYTES, MPLS_SHIM_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.packet import Packet

__all__ = ["PacketColumns", "group_rows"]


def group_rows(
    rows: Iterable[int], keys: list
) -> tuple[list, list[list[int]] | None]:
    """Partition ``rows`` by ``keys`` in *first-arrival* order.

    Returns ``(ukeys, buckets)``: the unique keys ordered by first
    occurrence (``dict.fromkeys`` — one C-level pass) and, aligned with
    them, the per-group row-index lists.  ``buckets`` is ``None`` when
    the burst is homogeneous — the overwhelmingly common case (one label
    in the core, a traffic train into one remote at the edge), settled
    by a C-level ``count`` before any dict is built — where callers skip
    the partition entirely and treat ``rows`` as the single group.
    First-arrival order matters for parity: cache fills happen in
    exactly the order the scalar loop would perform them.
    """
    if keys.count(keys[0]) == len(keys):
        return keys[:1], None
    ukd: dict[Any, list[int]] = dict.fromkeys(keys)  # type: ignore[arg-type]
    for k in ukd:
        ukd[k] = []
    for r, k in zip(rows, keys):
        ukd[k].append(r)
    return list(ukd), list(ukd.values())


class PacketColumns:
    """One burst, transposed: parallel columns over ``items``.

    ``items`` is the kernel's burst — a list of ``(pkt, ifname)`` arrival
    tuples — and stays the row identity: row *i* of every column describes
    ``items[i][0]``.  The build is shape-adaptive: a pure-IP burst never
    touches label state, an all-labeled burst gathers straight off the
    top-of-stack entries, and only a mixed burst pays for a row-by-row
    walk.  Everything after construction operates on the columns until
    the materialization loop writes the decisions back.
    """

    __slots__ = ("items", "n", "tops", "ttl_list", "label_list",
                 "lab_rows", "all_labeled", "_stacks", "_wire", "_dst",
                 "_depth")

    def __init__(self, items: "list[tuple[Packet, str]]") -> None:
        self.items = items
        n = len(items)
        self.n = n
        self._stacks: list | None = None
        self._wire: list[int] | None = None
        self._dst: list[int] | None = None
        self._depth: list[int] | None = None
        # EAFP shape probe: gather the top-of-stack entries directly.  An
        # unlabeled row raises IndexError immediately (row 0 for a pure-IP
        # burst — the probe costs one exception), so the all-labeled core
        # shape pays exactly one pass over the packets and never builds
        # the stack column at all.
        try:
            tops: list | None = [p.mpls_stack[-1] for p, _ in items]
        except IndexError:
            tops = None
        if tops:
            # All-labeled burst (the core shape): gather off the tops;
            # keep the entry objects for in-place swap materialization.
            self.all_labeled = True
            self.lab_rows: Any = range(n)
            self.tops = tops
            self.label_list: list[int] | None = [t.label for t in tops]
            self.ttl_list = [t.ttl for t in tops]
            return
        self.all_labeled = False
        self.tops = None
        # Pure-IP probe, same trick in the other direction: gather IP
        # TTLs for unlabeled rows only — a full column means no row is
        # labeled (the edge shape), in one fused pass.
        ttl_ip = [p.ip.ttl for p, _ in items if not p.mpls_stack]
        if len(ttl_ip) == n:
            self.lab_rows = ()
            self.label_list = None
            self.ttl_list = ttl_ip
            return
        # Mixed burst: one manual walk fills both views.
        stacks = [p.mpls_stack for p, _ in items]
        self._stacks = stacks
        lab_rows: list[int] = []
        lab_append = lab_rows.append
        ttl_l = [0] * n
        label_l = [-1] * n
        i = 0
        for pkt, _ifname in items:
            s = stacks[i]
            if s:
                top = s[-1]
                lab_append(i)
                ttl_l[i] = top.ttl
                label_l[i] = top.label
            else:
                ttl_l[i] = pkt.ip.ttl
            i += 1
        self.lab_rows = lab_rows
        self.label_list = label_l
        self.ttl_list = ttl_l

    # ------------------------------------------------------------------
    # Lazy columns — assembled only when a stage asks for them.
    # ------------------------------------------------------------------
    def stacks_col(self) -> list:
        """The label-stack references, one attribute walk, memoized.
        Built eagerly only for mixed bursts (their row walk needs it);
        the uniform shapes materialize this lazily — usually never."""
        s = self._stacks
        if s is None:
            s = self._stacks = [p.mpls_stack for p, _ in self.items]
        return s

    def wire_col(self) -> list[int]:
        """Wire bytes per row, inlining the ``wire_bytes`` arithmetic.

        Memo-first: a packet that already crossed a hop (its transmitter
        read ``wire_bytes``) carries the byte count in ``_wire``, so the
        common arrival shape is one flat gather plus a C-level ``None``
        scan.  Only a burst with cold rows pays the arithmetic walk
        (encapsulated packets — ``inner`` set — take the recursive
        property).  The pipeline mutates this column in place on label
        pushes/pops and hands it to ``send_batch`` so queue byte
        accounting never re-reads the packets.
        """
        w = self._wire
        if w is None:
            w = [p._wire for p, _ in self.items]
            if None in w:
                hdr = IPV4_HEADER_BYTES
                shim = MPLS_SHIM_BYTES
                w = [
                    wv if (wv := p._wire) is not None
                    else (
                        p.wire_bytes if p.inner is not None
                        else hdr + shim * len(s) + p.payload_bytes
                        + p.encap_overhead
                    )
                    for (p, _), s in zip(self.items, self.stacks_col())
                ]
            self._wire = w
        return w

    def dst_keys(self) -> list[int]:
        """Destination key (``ip.dst.value``) per row — the flow-cache
        gather / local-delivery membership key.  Never built for a burst
        the label stages fully consume."""
        d = self._dst
        if d is None:
            d = self._dst = [p.ip.dst.value for p, _ in self.items]
        return d

    def depth_col(self) -> list[int]:
        """Label-stack depth per row (``POP_PROCESS`` rows only)."""
        d = self._depth
        if d is None:
            d = self._depth = list(map(len, self.stacks_col()))
        return d

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PacketColumns n={self.n} "
            f"labeled={len(self.lab_rows)}>"
        )
