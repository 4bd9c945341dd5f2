"""Property tests for incremental reconvergence.

:func:`repro.routing.spf.reconverge` diffs each router it selects against
the routes the domain should now hold and writes only the difference.
The property held here is the strongest one available: after *any*
sequence of single-link fail/restore events, isolated routers joining the
domain and hosts attached behind its routers, the incrementally maintained
FIBs equal what a from-scratch ``clear + converge`` produces on a twin
network — for both the unipath and the ECMP control plane — and a FIB's
generation moves iff its contents changed.  A third twin runs plain
``converge`` after each step, with no flush: it withdraws what the step
made stale, so it reaches the same FIBs and leaves ``reconverge`` nothing
to write.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.address import Prefix
from repro.net.packet import IPHeader, Packet
from repro.routing.router import Router
from repro.routing.spf import converge, reconverge
from repro.topology import Network, attach_host, build_backbone, build_fish, build_waxman
from tests.reference.routing import clear_routes_reference

slow_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def fib_snapshot(net):
    return {
        name: dict(node.fib.routes())
        for name, node in net.nodes.items()
        if isinstance(node, Router)
    }


def generations(net):
    return {name: node.fib.generation for name, node in net.nodes.items()
            if isinstance(node, Router)}


def full_reconverge(net, ecmp):
    """The oracle: flush every in-domain FIB and converge from scratch."""
    for node in net.nodes.values():
        if isinstance(node, Router) and node.domain == "core":
            clear_routes_reference(node)
    converge(net, ecmp=ecmp)


def build_parallel(net):
    """A ring of four routers, every hop a pair of equal-metric links, and a
    heavier chord: failing the link in use must move routes onto its twin."""
    routers = [net.add_router(f"r{i}") for i in range(4)]
    for i in range(4):
        for _ in range(2):
            net.connect(routers[i], routers[(i + 1) % 4])
    net.connect(routers[0], routers[2], metric=3.0)


BUILDERS = {
    "backbone": lambda net: build_backbone(net),
    "fish": lambda net: build_fish(net),
    "waxman9": lambda net: build_waxman(net, 9, alpha=0.9, beta=0.9),
    "parallel": build_parallel,
}

#: One step of a sequence: an int fails or restores that link, "router"
#: adds an isolated router to the domain, "host" attaches a host behind a
#: router (new connected and advertised prefixes).
STEPS = st.one_of(st.integers(min_value=0, max_value=63), st.sampled_from(["router", "host"]))


def _apply(net, step, k):
    if step == "router":
        net.add_router(f"x{k}")
    elif step == "host":
        routers = [n for n in net.nodes.values() if isinstance(n, Router)]
        attach_host(net, routers[k % len(routers)], f"10.66.{k}.1", name=f"hx{k}")
    else:
        dl = net.duplex_links[step % len(net.duplex_links)]
        dl.set_up(not dl.link_ab.up)


def _run_sequence(topo, ecmp, steps):
    """Apply a step sequence to triplet nets: incremental, plain
    ``converge`` and from-scratch."""
    inc, plain, oracle = (Network(seed=47) for _ in range(3))
    for net in (inc, plain, oracle):
        BUILDERS[topo](net)
        converge(net, ecmp=ecmp)
    for k, step in enumerate(steps):
        for net in (inc, plain, oracle):
            _apply(net, step, k)
        before, gens = fib_snapshot(inc), generations(inc)
        installs = reconverge(inc)
        full_reconverge(oracle, ecmp)
        after = fib_snapshot(inc)
        assert after == fib_snapshot(oracle)
        converge(plain, ecmp=ecmp)
        assert fib_snapshot(plain) == fib_snapshot(oracle)
        assert reconverge(plain) == 0
        # installs counts the writes that changed a route, and only a FIB
        # whose contents changed moves its generation.
        assert installs == sum(
            1 for name, routes in after.items() for p, e in routes.items()
            if before[name].get(p) != e
        )
        moved = {name for name, g in generations(inc).items() if g != gens[name]}
        assert moved == {name for name in after if after[name] != before[name]}


class TestIncrementalMatchesFullRecompute:
    @pytest.mark.parametrize("ecmp", [False, True])
    @pytest.mark.parametrize("topo", sorted(BUILDERS))
    @slow_settings
    @given(steps=st.lists(STEPS, min_size=1, max_size=6))
    def test_single_link_sequences(self, topo, ecmp, steps):
        _run_sequence(topo, ecmp, steps)

    def test_flap_same_link_repeatedly(self):
        # Down/up/down on one core trunk: the restore path exercises the
        # added-edge attractiveness test, the repeat the snapshot update.
        _run_sequence("backbone", False, [0, 0, 0])

    def test_partition_and_heal(self):
        # Failing both of E1's uplinks partitions it; restoring heals.
        net = Network(seed=47)
        build_backbone(net)
        oracle = Network(seed=47)
        build_backbone(oracle)
        converge(net)
        converge(oracle)
        for pair in (("E1", "P1"), ("E1", "P2")):
            net.link_between(*pair).set_up(False)
            oracle.link_between(*pair).set_up(False)
            reconverge(net)
            full_reconverge(oracle, False)
            assert fib_snapshot(net) == fib_snapshot(oracle)
        for pair in (("E1", "P1"), ("E1", "P2")):
            net.link_between(*pair).set_up(True)
            oracle.link_between(*pair).set_up(True)
            reconverge(net)
            full_reconverge(oracle, False)
            assert fib_snapshot(net) == fib_snapshot(oracle)

    def test_reconverge_without_change_is_noop_and_keeps_generations(self):
        net = Network(seed=47)
        build_backbone(net)
        converge(net)
        before = fib_snapshot(net)
        gens = generations(net)
        assert reconverge(net) == 0
        assert fib_snapshot(net) == before
        # Contract: a FIB generation moves iff the FIB's contents changed,
        # so unchanged FIBs keep their flow caches warm.
        assert generations(net) == gens

    def test_reconverge_delta_keeps_unaffected_generations(self):
        # Same contract on the incremental path: routers whose FIB the
        # link event did not change keep their generation (warm caches);
        # routers whose FIB changed must move theirs.
        net = Network(seed=47)
        build_backbone(net)
        oracle = Network(seed=47)
        build_backbone(oracle)
        converge(net)
        converge(oracle)
        gens = generations(net)
        before = fib_snapshot(net)
        net.link_between("P1", "P2").set_up(False)
        oracle.link_between("P1", "P2").set_up(False)
        reconverge(net)
        full_reconverge(oracle, False)
        after = fib_snapshot(net)
        assert after == fib_snapshot(oracle)
        for name, node in net.nodes.items():
            if not isinstance(node, Router):
                continue
            if after[name] == before[name]:
                assert node.fib.generation == gens[name], name
            else:
                assert node.fib.generation > gens[name], name

    def test_direct_link_up_write_invalidates_cached_view(self):
        # Bypassing DuplexLink.set_up and writing link state directly must
        # still invalidate the cached domain view (the Link.up property
        # hook bumps topology_generation).
        inc = Network(seed=47)
        build_backbone(inc)
        oracle = Network(seed=47)
        build_backbone(oracle)
        converge(inc)
        converge(oracle)
        gen = inc.topology_generation
        inc.link_between("P1", "P2").link_ab.up = False  # one direction drops the edge
        assert inc.topology_generation > gen
        oracle.link_between("P1", "P2").set_up(False)
        reconverge(inc)
        full_reconverge(oracle, False)
        assert fib_snapshot(inc) == fib_snapshot(oracle)

    def test_metric_rewrite_invalidates_cached_view(self):
        # Same invariant for the other writable IGP input: dl.metric is a
        # property that bumps topology_generation on rewrite.
        inc = Network(seed=47)
        build_backbone(inc)
        oracle = Network(seed=47)
        build_backbone(oracle)
        converge(inc)
        converge(oracle)
        gen = inc.topology_generation
        for net in (inc, oracle):
            net.link_between("P1", "P2").metric = 10.0
        assert inc.topology_generation > gen
        reconverge(inc)
        full_reconverge(oracle, False)
        assert fib_snapshot(inc) == fib_snapshot(oracle)

    def test_reconverge_preserves_ecmp_mode(self):
        net = Network(seed=47)
        build_backbone(net)
        oracle = Network(seed=47)
        build_backbone(oracle)
        converge(net, ecmp=True)
        converge(oracle, ecmp=True)
        net.link_between("P1", "P2").set_up(False)
        oracle.link_between("P1", "P2").set_up(False)
        reconverge(net)  # sticky: stays in ECMP mode
        full_reconverge(oracle, True)
        assert fib_snapshot(net) == fib_snapshot(oracle)


@pytest.mark.parametrize("ecmp", [False, True])
def test_failing_one_of_two_parallel_links_moves_the_route(ecmp):
    """Two equal-metric links join A and B.  The view routes over the first;
    when it fails, the view picks the second with the same metric, and the
    routes must follow it: a FIB left on the down interface loses every
    packet it forwards there without a count."""
    net = Network(seed=47)
    a, b, c = (net.add_router(name) for name in "ABC")
    first = net.connect(a, b)
    second = net.connect(a, b)
    net.connect(b, c)
    tx = attach_host(net, a, "10.66.0.1", name="tx")
    rx = attach_host(net, c, "10.66.0.2", name="rx")
    converge(net, ecmp=ecmp)
    towards_rx = Prefix.of(rx.loopback, 32)
    assert a.fib.get(towards_rx).out_ifname == first.if_ab.name
    first.set_up(False)
    assert reconverge(net) > 0
    assert a.fib.get(towards_rx).out_ifname == second.if_ab.name
    got = []
    rx.add_local_sink(got.append)
    probe = Packet(ip=IPHeader(tx.loopback, rx.loopback), payload_bytes=100)
    net.sim.schedule(0.0, lambda: tx.send(probe))
    net.run(until=1.0)
    assert got == [probe]


@pytest.mark.parametrize("up", [False, True])
def test_a_link_no_tree_uses_still_orders_shared_prefixes(up):
    """A ring of four and a heavy r0-r2 chord no shortest path uses.  From
    r2 the chord still *discovers* r0 first (r2 pops first), so r0 comes
    before r1 in r2's discovery order and the r0-r1 /30, which both
    advertise, resolves toward r1, the one discovered last.  Failing the
    chord reverses that; restoring it reverses it back."""
    nets = []
    for _ in range(2):
        net = Network(seed=47)
        routers = [net.add_router(f"r{i}") for i in range(4)]
        for i in range(4):
            net.connect(routers[i], routers[(i + 1) % 4])
        chord = net.connect(routers[0], routers[2], metric=3.0)
        if up:
            chord.set_up(False)
        converge(net)
        chord.set_up(up)
        nets.append(net)
    inc, oracle = nets
    assert reconverge(inc) > 0
    full_reconverge(oracle, False)
    assert fib_snapshot(inc) == fib_snapshot(oracle)


@pytest.mark.parametrize("ecmp", [False, True])
def test_membership_change_keeps_unchanged_generations(ecmp):
    """A router joining the domain with no link changes no other router's
    routes: nothing is written and no flow cache is flushed."""
    net = Network(seed=47)
    build_backbone(net)
    converge(net, ecmp=ecmp)
    before, gens = fib_snapshot(net), generations(net)
    net.add_router("X")
    assert reconverge(net) == 0
    after = fib_snapshot(net)
    assert after.pop("X") == {}
    assert after == before
    assert {name: g for name, g in generations(net).items() if name != "X"} == gens
