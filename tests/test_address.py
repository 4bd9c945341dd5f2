"""Unit + property tests for IPv4 addresses and prefixes."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.net.address import MASKS, AddressError, IPv4Address, Prefix

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)
lengths = st.integers(min_value=0, max_value=32)


class TestIPv4Address:
    def test_parse_dotted_quad(self):
        assert IPv4Address.parse("10.0.0.1").value == 0x0A000001
        assert IPv4Address.parse("255.255.255.255").value == 0xFFFFFFFF
        assert IPv4Address.parse("0.0.0.0").value == 0

    def test_parse_int_and_passthrough(self):
        a = IPv4Address.parse(42)
        assert a.value == 42
        assert IPv4Address.parse(a) is a

    @pytest.mark.parametrize("bad", ["256.0.0.1", "1.2.3", "a.b.c.d", "1.2.3.4.5", ""])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            IPv4Address.parse(bad)

    def test_out_of_range_rejected(self):
        with pytest.raises(AddressError):
            IPv4Address(1 << 32)
        with pytest.raises(AddressError):
            IPv4Address(-1)

    def test_str_roundtrip_examples(self):
        for text in ("192.168.1.254", "10.255.0.3", "172.16.31.1"):
            assert str(IPv4Address.parse(text)) == text

    @given(addresses)
    def test_str_parse_roundtrip(self, value):
        a = IPv4Address(value)
        assert IPv4Address.parse(str(a)) == a

    def test_ordering_and_add(self):
        assert IPv4Address(1) < IPv4Address(2)
        assert IPv4Address(1) + 5 == IPv4Address(6)
        assert int(IPv4Address(9)) == 9

    def test_in_prefix(self):
        p = Prefix.parse("10.1.0.0/16")
        assert IPv4Address.parse("10.1.2.3").in_prefix(p)
        assert not IPv4Address.parse("10.2.0.0").in_prefix(p)


class TestPrefix:
    def test_parse_normalises_host_bits(self):
        assert str(Prefix.parse("10.1.2.3/8")) == "10.0.0.0/8"

    def test_parse_rejects_missing_length(self):
        with pytest.raises(AddressError):
            Prefix.parse("10.0.0.0")

    @pytest.mark.parametrize("bad", ["10.0.0.0/33", "10.0.0.0/-1", "10.0.0.0/x"])
    def test_parse_rejects_bad_length(self, bad):
        with pytest.raises(AddressError):
            Prefix.parse(bad)

    def test_of_builds_containing_prefix(self):
        p = Prefix.of("10.1.2.3", 24)
        assert str(p) == "10.1.2.0/24"
        assert p.contains("10.1.2.3")

    def test_mask_and_sizes(self):
        p = Prefix.parse("192.168.4.0/30")
        assert p.mask == MASKS[30]
        assert p.num_addresses == 4
        assert str(p.first) == "192.168.4.0"
        assert str(p.last) == "192.168.4.3"

    def test_zero_length_contains_everything(self):
        default = Prefix.parse("0.0.0.0/0")
        assert default.contains("255.1.2.3")
        assert default.contains("0.0.0.0")

    def test_host_route(self):
        p = Prefix.parse("10.0.0.5/32")
        assert p.contains("10.0.0.5")
        assert not p.contains("10.0.0.6")
        assert p.num_addresses == 1

    @given(addresses, lengths)
    def test_contains_its_own_network_and_broadcast(self, value, length):
        p = Prefix.of(IPv4Address(value), length)
        assert p.contains(p.first)
        assert p.contains(p.last)

    @given(addresses, lengths)
    def test_str_parse_roundtrip(self, value, length):
        p = Prefix.of(IPv4Address(value), length)
        assert Prefix.parse(str(p)) == p

    @given(addresses, st.integers(min_value=1, max_value=32))
    def test_neighbouring_prefix_disjoint(self, value, length):
        p = Prefix.of(IPv4Address(value), length)
        if p.last.value < 0xFFFFFFFF:
            nxt = IPv4Address(p.last.value + 1)
            assert not p.contains(nxt)

    def test_contains_prefix(self):
        outer = Prefix.parse("10.0.0.0/8")
        inner = Prefix.parse("10.5.0.0/16")
        assert outer.contains_prefix(inner)
        assert not inner.contains_prefix(outer)
        assert outer.contains_prefix(outer)

    def test_overlaps(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.5.0.0/16")
        c = Prefix.parse("11.0.0.0/8")
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    @given(addresses, lengths, addresses, lengths)
    def test_overlap_symmetric(self, v1, l1, v2, l2):
        p1 = Prefix.of(IPv4Address(v1), l1)
        p2 = Prefix.of(IPv4Address(v2), l2)
        assert p1.overlaps(p2) == p2.overlaps(p1)

    def test_subnets_partition(self):
        p = Prefix.parse("10.0.0.0/22")
        subs = list(p.subnets(24))
        assert len(subs) == 4
        assert subs[0] == Prefix.parse("10.0.0.0/24")
        assert subs[-1] == Prefix.parse("10.0.3.0/24")
        # Disjoint and covering.
        total = sum(s.num_addresses for s in subs)
        assert total == p.num_addresses
        for i, s in enumerate(subs):
            for t in subs[i + 1:]:
                assert not s.overlaps(t)

    def test_subnets_rejects_shorter(self):
        with pytest.raises(AddressError):
            list(Prefix.parse("10.0.0.0/24").subnets(16))
        with pytest.raises(AddressError):
            list(Prefix.parse("10.0.0.0/24").subnets(33))

    def test_host_indexing(self):
        p = Prefix.parse("10.1.1.0/24")
        assert str(p.host(0)) == "10.1.1.0"
        assert str(p.host(255)) == "10.1.1.255"
        with pytest.raises(AddressError):
            p.host(256)
        with pytest.raises(AddressError):
            p.host(-1)

    def test_prefixes_hashable_for_dict_keys(self):
        d = {Prefix.parse("10.0.0.0/8"): 1}
        assert d[Prefix.parse("10.1.0.0/8")] == 1  # normalised to same key


class TestPrefixIsATupleValue:
    """The value-type contract: Prefix is an immutable (network, length)
    tuple that only the checked, normalising constructor can build."""

    def test_constructor_checks_and_normalises(self):
        assert Prefix(0x0A010203, 8) == Prefix(0x0A000000, 8)
        assert Prefix(0x0A010203, 8).network == 0x0A000000
        for network, length in ((0, 33), (0, -1), (1 << 32, 8), (-1, 8)):
            with pytest.raises(AddressError):
                Prefix(network, length)

    def test_attributes_are_read_only(self):
        p = Prefix.parse("10.0.0.0/8")
        with pytest.raises(AttributeError):
            p.network = 1
        with pytest.raises(AttributeError):
            p.length = 9
        with pytest.raises(AttributeError):
            p.note = "no instance dict"

    def test_sorted_is_network_then_length_order(self):
        texts = ["10.1.0.0/16", "10.0.0.0/24", "9.255.0.0/16", "10.0.0.0/8", "0.0.0.0/0"]
        ps = [Prefix.parse(t) for t in texts]
        assert sorted(ps) == sorted(ps, key=lambda p: (p.network, p.length))
        assert [str(p) for p in sorted(ps)] == [
            "0.0.0.0/0", "9.255.0.0/16", "10.0.0.0/8", "10.0.0.0/24", "10.1.0.0/16",
        ]

    @pytest.mark.parametrize("protocol", [2, 3, 4, 5])
    def test_pickle_keeps_type_and_value(self, protocol):
        p = Prefix.parse("10.1.2.0/24")
        q = pickle.loads(pickle.dumps(p, protocol))
        assert type(q) is Prefix and q == p and hash(q) == hash(p)

    def test_pickle_rebuilds_through_the_checks(self):
        # Protocol 2+ calls Prefix.__new__(*__getnewargs__()): an image
        # edited to carry host bits comes back normalised, not as stored.
        blob = pickle.dumps(Prefix(0x0A000000, 8), 2)
        dirty = blob.replace((0x0A000000).to_bytes(4, "little"), (0x0A010203).to_bytes(4, "little"))
        assert dirty != blob
        assert pickle.loads(dirty) == Prefix(0x0A000000, 8)

    def test_copy_and_deepcopy_keep_type_and_value(self):
        p = Prefix.parse("10.1.2.0/24")
        for q in (copy.copy(p), copy.deepcopy(p), copy.deepcopy([p])[0]):
            assert type(q) is Prefix and q == p

    @given(st.lists(st.tuples(addresses, lengths), max_size=30), st.tuples(addresses, lengths))
    def test_containers_behave_as_containers_of_pairs(self, raw, probe):
        """A dict / set / sorted list of Prefix is the same container of
        plain (network, length) pairs: same members, same order, and each
        kind of key finds the other's entry."""
        prefixes = [Prefix(n, l) for n, l in raw]
        pairs = [(n & MASKS[l], l) for n, l in raw]
        assert sorted(prefixes) == sorted(pairs)
        assert set(prefixes) == set(pairs)
        assert len(set(prefixes)) == len(set(pairs))
        by_prefix = {p: i for i, p in enumerate(prefixes)}
        by_pair = {t: i for i, t in enumerate(pairs)}
        assert by_prefix == by_pair
        assert list(by_prefix) == list(by_pair)           # same insertion order
        p, t = Prefix(*probe), (probe[0] & MASKS[probe[1]], probe[1])
        assert hash(p) == hash(t)
        assert (p in by_pair) == (t in by_prefix) == (t in by_pair)
        assert by_prefix.get(t) == by_pair.get(p)


class TestIPv4AddressIsATupleValue:
    """The address is a one-field tuple, as Prefix is a pair: hashing,
    ``==`` and ordering run in C, and only the checked constructor builds
    one."""

    @given(addresses)
    def test_hash_and_eq_agree_across_parse_and_constructor(self, value):
        made = IPv4Address(value)
        for other in (IPv4Address.parse(str(made)), IPv4Address.parse(value),
                      IPv4Address(value)):
            assert other == made and hash(other) == hash(made)
            assert {made: 1}[other] == 1

    @given(st.lists(addresses, max_size=30))
    def test_order_is_the_integer_order(self, values):
        addrs = [IPv4Address(v) for v in values]
        assert [a.value for a in sorted(addrs)] == sorted(values)
        if len(addrs) >= 2:
            a, b = addrs[0], addrs[1]
            assert (a < b) == (a.value < b.value)
            assert (a <= b) == (a.value <= b.value)

    @pytest.mark.parametrize("protocol", [2, 3, 4, 5])
    def test_pickle_keeps_type_value_and_hash(self, protocol):
        a = IPv4Address.parse("10.1.2.3")
        b = pickle.loads(pickle.dumps(a, protocol))
        assert type(b) is IPv4Address and b == a and hash(b) == hash(a)
        for c in (copy.copy(a), copy.deepcopy(a)):
            assert type(c) is IPv4Address and c == a

    def test_pickle_rebuilds_through_the_range_check(self):
        # Protocol 2+ calls IPv4Address.__new__(*__getnewargs__()): an
        # image edited to hold -1 (the same four bytes, all ones) fails on
        # load instead of coming back as an address.
        blob = pickle.dumps(IPv4Address(0x7FFFFFF0), 2)
        edited = blob.replace((0x7FFFFFF0).to_bytes(4, "little"), b"\xff" * 4)
        assert edited != blob
        with pytest.raises(AddressError):
            pickle.loads(edited)

    @given(addresses)
    def test_equals_its_one_field_tuple(self, value):
        a = IPv4Address(value)
        assert a == (value,) and hash(a) == hash((value,))
        assert {(value,): "pair"}[a] == "pair"
        assert {a: "addr"}[(value,)] == "addr"

    def test_attributes_are_read_only(self):
        a = IPv4Address(1)
        with pytest.raises(AttributeError):
            a.value = 2
        with pytest.raises(AttributeError):
            a.note = "no instance dict"
