"""Unit + property tests for packets and MPLS label-stack operations."""

import pytest
from hypothesis import given, strategies as st

from repro.mpls.lfib import LabelOp, LfibEntry
from repro.mpls.lsr import Lsr
from repro.net.address import IPv4Address
from repro.net.packet import (
    IPV4_HEADER_BYTES,
    MPLS_SHIM_BYTES,
    IPHeader,
    MplsEntry,
    Packet,
    PacketError,
)
from repro.topology import Network


def mk(payload=100, dscp=0, ttl=64):
    return Packet(
        ip=IPHeader(IPv4Address.parse("10.0.0.1"), IPv4Address.parse("10.0.0.2"),
                    dscp=dscp, ttl=ttl),
        payload_bytes=payload,
    )


class TestWireSize:
    def test_plain_ip(self):
        assert mk(100).wire_bytes == 100 + IPV4_HEADER_BYTES

    def test_each_label_adds_shim(self):
        p = mk(100)
        for depth in range(1, 4):
            p.push_label(15 + depth)
            assert p.wire_bytes == 100 + IPV4_HEADER_BYTES + depth * MPLS_SHIM_BYTES

    def test_encapsulation_nests(self):
        inner = mk(100)
        outer = Packet(
            ip=IPHeader(IPv4Address(1), IPv4Address(2)),
            inner=inner, encrypted=True, encap_overhead=30,
        )
        assert outer.wire_bytes == inner.wire_bytes + 30 + IPV4_HEADER_BYTES

    def test_encap_overhead_without_inner(self):
        p = mk(100)
        p.encap_overhead = 8
        assert p.wire_bytes == 100 + 8 + IPV4_HEADER_BYTES

    @given(st.integers(0, 1500), st.booleans(),
           st.lists(st.booleans(), max_size=12))
    def test_push_pop_keep_a_warm_memo_exact(self, payload, wrapped, ops):
        """Any push / pop sequence leaves ``_wire`` equal to the size a
        fresh computation gives: the mutators move a warm memo by one shim
        instead of clearing it (the queues read ``pkt._wire`` first)."""
        p = mk(payload)
        if wrapped:
            p = Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2)), inner=p,
                       encap_overhead=30)
        p.wire_bytes  # warm the memo
        for push in ops:
            if push or not p.mpls_stack:
                p.push_label(16 + len(p.mpls_stack))
            else:
                p.pop_label()
            memo = p._wire
            p._wire = None
            assert memo == p.wire_bytes

    def test_push_pop_leave_a_cold_memo_cold(self):
        p = mk(100)
        p.push_label(16)
        p.push_label(17)
        p.pop_label()
        assert p._wire is None
        assert p.wire_bytes == 100 + IPV4_HEADER_BYTES + MPLS_SHIM_BYTES


def swapped_at_lsr(p, out_label):
    """``p`` after an LSR's SWAP stage: what the next hop receives from an
    LSR whose LFIB swaps ``p``'s top label for ``out_label``."""
    net = Network(seed=1)
    a = net.add_node(Lsr(net.sim, "a"))
    b = net.add_node(Lsr(net.sim, "b"))
    net.connect(a, b, 10e6, 0.001)
    a.lfib.install(p.top_label.label,
                   LfibEntry(LabelOp.SWAP, out_label=out_label, out_ifname="to-b"))
    got = []
    b.handle = lambda pk, ifn: got.append(pk)
    net.sim.schedule(0.0, lambda: a.handle(p, "in"))
    net.run(until=1.0)
    assert a.stats.by_reason == {}
    (out,) = got
    return out


class TestLabelStack:
    def test_push_swap_pop_cycle(self):
        p = mk()
        p.push_label(100, exp=5)
        assert p.top_label.label == 100 and p.top_label.exp == 5
        p = swapped_at_lsr(p, 200)
        assert p.top_label.label == 200
        assert p.top_label.exp == 5  # EXP preserved across swap
        assert p.wire_bytes == 100 + IPV4_HEADER_BYTES + MPLS_SHIM_BYTES
        entry = p.pop_label()
        assert entry.label == 200
        assert p.top_label is None

    def test_two_level_stack_order(self):
        p = mk()
        p.push_label(30)   # VPN label (bottom)
        p.push_label(40)   # tunnel label (top)
        assert p.top_label.label == 40
        p.pop_label()
        assert p.top_label.label == 30

    def test_unlabeled_packet_is_never_swapped(self):
        """The label stage runs on a labeled packet only: an unlabeled one
        at an LSR that swaps takes the IP path (no route here) and leaves
        with no label written."""
        net = Network(seed=1)
        a = net.add_node(Lsr(net.sim, "a"))
        a.lfib.install(16, LfibEntry(LabelOp.SWAP, out_label=17, out_ifname="to-b"))
        p = mk()
        a.handle(p, "in")
        assert a.stats.by_reason == {"no_route": 1}
        assert p.mpls_stack == []

    def test_pop_empty_raises(self):
        with pytest.raises(PacketError):
            mk().pop_label()

    def test_label_range_validation(self):
        with pytest.raises(PacketError):
            mk().push_label(1 << 20)
        with pytest.raises(PacketError):
            MplsEntry(label=5, exp=9)
        # A swap writes the label of an LFIB entry, which refuses one
        # outside 20 bits where it is made.
        with pytest.raises(ValueError, match="20-bit"):
            LfibEntry(LabelOp.SWAP, out_label=1 << 20, out_ifname="to-b")

    @given(st.lists(st.integers(min_value=16, max_value=0xFFFFF), min_size=1, max_size=8))
    def test_push_pop_lifo(self, labels):
        p = mk()
        for lbl in labels:
            p.push_label(lbl)
        popped = [p.pop_label().label for _ in labels]
        assert popped == list(reversed(labels))
        assert p.top_label is None


class TestTtl:
    def test_push_inherits_ip_ttl(self):
        p = mk(ttl=37)
        p.push_label(16)
        assert p.top_label.ttl == 37

    def test_push_inherits_label_ttl(self):
        p = mk(ttl=37)
        p.push_label(16)
        p.top_label.ttl = 9
        p.push_label(17)
        assert p.top_label.ttl == 9

    def test_decrement_targets_top_label(self):
        p = mk(ttl=10)
        p.push_label(16)
        assert p.decrement_ttl() == 9
        assert p.ip.ttl == 10  # IP TTL untouched while labeled

    def test_pop_propagates_ttl_down_to_ip(self):
        """RFC 3443 uniform model: MPLS TTL writes back on pop."""
        p = mk(ttl=10)
        p.push_label(16)
        p.decrement_ttl()
        p.decrement_ttl()
        p.pop_label()
        assert p.ip.ttl == 8

    def test_pop_propagates_between_labels(self):
        p = mk(ttl=20)
        p.push_label(16)
        p.push_label(17)
        p.decrement_ttl()
        p.pop_label()
        assert p.top_label.ttl == 19

    def test_decrement_ip_when_unlabeled(self):
        p = mk(ttl=2)
        assert p.decrement_ttl() == 1
        assert p.decrement_ttl() == 0


class TestEncapsulation:
    def test_innermost_unwraps_chain(self):
        inner = mk()
        mid = Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2)), inner=inner)
        outer = Packet(ip=IPHeader(IPv4Address(3), IPv4Address(4)), inner=mid)
        assert outer.innermost() is inner
        assert inner.innermost() is inner

    def test_classifiable_dscp_is_outer(self):
        inner = mk(dscp=46)
        outer = Packet(
            ip=IPHeader(IPv4Address(1), IPv4Address(2), dscp=0),
            inner=inner, encrypted=True,
        )
        assert outer.classifiable_dscp() == 0  # claim C3: inner EF invisible
        assert inner.classifiable_dscp() == 46

    def test_uids_unique(self):
        assert mk().uid != mk().uid

    def test_header_copy_is_independent(self):
        h = IPHeader(IPv4Address(1), IPv4Address(2), dscp=10)
        c = h.copy()
        c.dscp = 20
        assert h.dscp == 10
