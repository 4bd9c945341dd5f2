"""Unit + property tests for the LPM trie FIB."""

import pickle

from hypothesis import given, settings, strategies as st

from repro.net.address import IPv4Address, Prefix
from repro.routing.fib import Fib, RouteEntry


def entry(tag):
    return RouteEntry(out_ifname=tag)


class TestBasicLpm:
    def test_empty_fib_returns_none(self):
        assert Fib().lookup(IPv4Address.parse("10.0.0.1")) is None

    def test_exact_prefix_match(self):
        fib = Fib()
        fib.install("10.1.0.0/16", entry("a"))
        assert fib.lookup(IPv4Address.parse("10.1.2.3")).out_ifname == "a"
        assert fib.lookup(IPv4Address.parse("10.2.0.0")) is None

    def test_longest_prefix_wins(self):
        fib = Fib()
        fib.install("10.0.0.0/8", entry("short"))
        fib.install("10.1.0.0/16", entry("mid"))
        fib.install("10.1.2.0/24", entry("long"))
        assert fib.lookup(IPv4Address.parse("10.1.2.3")).out_ifname == "long"
        assert fib.lookup(IPv4Address.parse("10.1.9.9")).out_ifname == "mid"
        assert fib.lookup(IPv4Address.parse("10.9.9.9")).out_ifname == "short"

    def test_default_route(self):
        fib = Fib()
        fib.install("0.0.0.0/0", entry("default"))
        assert fib.lookup(IPv4Address.parse("200.1.2.3")).out_ifname == "default"
        fib.install("10.0.0.0/8", entry("specific"))
        assert fib.lookup(IPv4Address.parse("10.0.0.1")).out_ifname == "specific"

    def test_host_route(self):
        fib = Fib()
        fib.install("10.0.0.5/32", entry("host"))
        assert fib.lookup(IPv4Address.parse("10.0.0.5")).out_ifname == "host"
        assert fib.lookup(IPv4Address.parse("10.0.0.4")) is None

    def test_reinstall_replaces(self):
        fib = Fib()
        fib.install("10.0.0.0/8", entry("old"))
        fib.install("10.0.0.0/8", entry("new"))
        assert fib.lookup(IPv4Address.parse("10.0.0.1")).out_ifname == "new"
        assert len(fib) == 1

    def test_int_lookup_accepted(self):
        fib = Fib()
        fib.install("10.0.0.0/8", entry("a"))
        assert fib.lookup(0x0A000001).out_ifname == "a"


class TestWithdraw:
    def test_withdraw_removes(self):
        fib = Fib()
        fib.install("10.0.0.0/8", entry("a"))
        assert fib.withdraw("10.0.0.0/8") is True
        assert fib.lookup(IPv4Address.parse("10.0.0.1")) is None
        assert len(fib) == 0

    def test_withdraw_missing_false(self):
        assert Fib().withdraw("10.0.0.0/8") is False

    def test_withdraw_reveals_shorter(self):
        fib = Fib()
        fib.install("10.0.0.0/8", entry("short"))
        fib.install("10.1.0.0/16", entry("long"))
        fib.withdraw("10.1.0.0/16")
        assert fib.lookup(IPv4Address.parse("10.1.0.1")).out_ifname == "short"


class TestLookupPrefix:
    def test_returns_matching_prefix(self):
        fib = Fib()
        fib.install("10.1.0.0/16", entry("a"))
        pfx, ent = fib.lookup_prefix(IPv4Address.parse("10.1.2.3"))
        assert pfx == Prefix.parse("10.1.0.0/16")
        assert ent.out_ifname == "a"

    def test_none_when_no_match(self):
        assert Fib().lookup_prefix(IPv4Address.parse("1.2.3.4")) is None

    def test_default_route_prefix(self):
        fib = Fib()
        fib.install("0.0.0.0/0", entry("d"))
        pfx, _ = fib.lookup_prefix(IPv4Address.parse("9.9.9.9"))
        assert pfx == Prefix.parse("0.0.0.0/0")


class TestAccounting:
    def test_routes_iteration(self):
        fib = Fib()
        fib.install("10.0.0.0/8", entry("a"))
        fib.install("11.0.0.0/8", entry("b"))
        routes = dict(fib.routes())
        assert len(routes) == 2
        assert Prefix.parse("10.0.0.0/8") in fib

    def test_get(self):
        fib = Fib()
        fib.install("10.0.0.0/8", entry("a"))
        assert fib.get("10.0.0.0/8").out_ifname == "a"
        assert fib.get("12.0.0.0/8") is None

    def test_lookup_counter(self):
        fib = Fib()
        fib.install("10.0.0.0/8", entry("a"))
        fib.lookup(IPv4Address.parse("10.0.0.1"))
        fib.lookup(IPv4Address.parse("10.0.0.2"))
        assert fib.lookups == 2


# Brute-force oracle: linear scan over installed prefixes.
def oracle_prefix(routes, value):
    """Longest match as ``(prefix, entry)``, or ``None``."""
    hits = [p for p in routes if p.contains(IPv4Address(value))]
    if not hits:
        return None
    best = max(hits, key=lambda p: p.length)
    return best, routes[best]


def _oracle(routes, value):
    match = oracle_prefix(routes, value)
    return None if match is None else match[1]


@st.composite
def route_tables(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    routes = {}
    for i in range(n):
        value = draw(st.integers(min_value=0, max_value=0xFFFFFFFF))
        length = draw(st.integers(min_value=0, max_value=32))
        routes[Prefix.of(IPv4Address(value), length)] = entry(f"if{i}")
    return routes


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(route_tables(), st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF),
                                    min_size=1, max_size=30))
    def test_trie_matches_linear_scan(self, routes, queries):
        fib = Fib()
        for pfx, ent in routes.items():
            fib.install(pfx, ent)
        for value in queries:
            got = fib.lookup(IPv4Address(value))
            want = _oracle(routes, value)
            if want is None:
                assert got is None
            else:
                # Several prefixes may tie in length only if identical, so
                # the entries must agree exactly.
                assert got is not None
                got_pfx, _ = fib.lookup_prefix(IPv4Address(value))
                assert got_pfx.contains(IPv4Address(value))
                assert got == want

    @settings(max_examples=30, deadline=None)
    @given(route_tables())
    def test_every_installed_prefix_findable(self, routes):
        fib = Fib()
        for pfx, ent in routes.items():
            fib.install(pfx, ent)
        for pfx, ent in routes.items():
            got_pfx, got_ent = fib.lookup_prefix(pfx.first)
            # The match is at least as specific as the installed prefix.
            assert got_pfx.length >= pfx.length


# ----------------------------------------------------------------------
# Stateful: any interleaving of mutations, lookups and pickle round trips,
# checked against the linear scan.  The trie is written by the readers (the
# first lookup after a change walks in whatever is stale), so the sequence
# decides where the syncs land: a prefix withdrawn before the trie ever held
# it, a withdrawn one re-installed across a sync, a restored table that has
# only its routes.  Every step checks the route dict; only a drawn "lookup"
# — and the end of the sequence — reads the trie.  Prefixes come from a
# small nested pool (a /0, /1s, a 10/8 ladder down to /32s) so sequences
# re-install, shadow and withdraw the same routes instead of scattering
# over the address space.

_POOL_ADDRS = (0x00000000, 0x0A000000, 0x0A010000, 0x0A010200, 0x0A010203,
               0x0A800000, 0xC0A80001, 0xFFFFFFFF)
_POOL_LENGTHS = (0, 1, 8, 16, 24, 31, 32)
POOL = sorted({Prefix.of(IPv4Address(a), n) for a in _POOL_ADDRS for n in _POOL_LENGTHS})
QUERIES = sorted(
    {v & 0xFFFFFFFF for a in _POOL_ADDRS for v in (a, a + 1, a ^ 0x80, a ^ 0x8000, a ^ 0x800000)}
)

pool_prefixes = st.sampled_from(POOL)


def check_routes(table, model):
    """``table`` (a ``Fib``) holds exactly ``model`` — no trie read."""
    assert len(table) == len(model)
    assert dict(table.routes()) == model
    for pfx in POOL:
        assert (pfx in table) == (pfx in model)
        assert table.get(pfx) == model.get(pfx)


def check_table(table, model):
    """``table`` holds exactly ``model`` and answers like it."""
    check_routes(table, model)
    for value in QUERIES:
        assert table.lookup_prefix(IPv4Address(value)) == oracle_prefix(model, value)
        assert table.lookup(value) == _oracle(model, value)


_fib_ops = st.one_of(
    st.tuples(st.just("install"), pool_prefixes, st.integers(0, 9)),
    st.tuples(st.just("install_many"),
              st.lists(st.tuples(pool_prefixes, st.integers(0, 9)), max_size=6)),
    st.tuples(st.just("withdraw"), pool_prefixes),
    st.tuples(st.just("withdraw_many"), st.lists(pool_prefixes, max_size=6)),
    st.tuples(st.just("lookup")),
    st.tuples(st.just("pickle")),
)


class TestStateful:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_fib_ops, min_size=1, max_size=25))
    def test_any_mutation_sequence_matches_linear_scan(self, ops):
        fib = Fib()
        model = {}
        for op in ops:
            before = fib.generation
            changed = False
            if op[0] == "install":
                _, pfx, tag = op
                fib.install(pfx, entry(f"if{tag}"))
                model[pfx] = entry(f"if{tag}")
                changed = True
            elif op[0] == "install_many":
                items = [(pfx, entry(f"if{tag}")) for pfx, tag in op[1]]
                assert fib.install_many(items) == len(items)
                model.update(items)
                changed = bool(items)
            elif op[0] == "withdraw":
                changed = op[1] in model
                assert fib.withdraw(op[1]) is changed
                model.pop(op[1], None)
            elif op[0] == "withdraw_many":
                present = {p for p in op[1] if p in model}
                assert fib.withdraw_many(op[1]) == len(present)
                for pfx in present:
                    del model[pfx]
                changed = bool(present)
            elif op[0] == "lookup":
                check_table(fib, model)
            else:
                lookups = fib.lookups
                fib = pickle.loads(pickle.dumps(fib))
                assert fib.lookups == lookups
            # One bump per call that changed the table, none otherwise —
            # a lookup, its sync and a round trip included.
            assert fib.generation == before + changed
            check_routes(fib, model)
        check_table(fib, model)

    def test_reinstall_across_a_sync_reuses_the_leaf(self):
        fib = Fib()
        pfx = Prefix.parse("10.1.2.0/24")
        fib.install(pfx, entry("a"))
        assert fib.lookup(0x0A010203) == entry("a")
        rows = len(fib._entries)
        fib.withdraw(pfx)
        assert fib.lookup(0x0A010203) is None
        fib.install(pfx, entry("b"))
        assert fib.lookup(0x0A010203) == entry("b")
        assert len(fib._entries) == rows

    def test_image_is_the_routes(self):
        fib = Fib()
        fib.install_many([(pfx, entry("a")) for pfx in POOL])
        fib.lookup(0)
        routes, lookups, generation = fib.__getstate__()
        assert (routes, lookups, generation) == (dict(fib.routes()), 1, 1)
        back = pickle.loads(pickle.dumps(fib))
        # Back to no trie at all — not an empty one — until the first lookup.
        assert not hasattr(back, "_entries") and not hasattr(back, "_leaf")
        check_table(back, dict(fib.routes()))
        assert len(back._entries) == len(fib._entries)
