"""System-level property-based tests (hypothesis).

These go beyond per-module invariants: they generate random topologies,
random LSP churn, and random VPN provisioning plans, and assert the
architectural guarantees the experiments rely on — reservation accounting,
LDP binding consistency, VPN isolation, and packet conservation.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.control import converge_all
from repro.mpls import IMPLICIT_NULL, AdmissionError, Lsr, TrafficEngineering, run_ldp
from repro.mpls.lfib import LabelOp
from repro.net.address import IPv4Address
from repro.net.packet import IPHeader, Packet
from repro.routing import converge
from repro.topology import Network, build_backbone
from repro.vpn import PeRouter, VpnProvisioner

slow_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ---------------------------------------------------------------------------
# Random LSR topologies
# ---------------------------------------------------------------------------

@st.composite
def lsr_topologies(draw):
    """A random connected LSR graph: a spanning chain + extra chords."""
    n = draw(st.integers(min_value=3, max_value=8))
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=6,
    ))
    net = Network(seed=draw(st.integers(0, 2**16)))
    lsrs = [net.add_node(Lsr(net.sim, f"n{i}")) for i in range(n)]
    for i in range(n - 1):
        net.connect(lsrs[i], lsrs[i + 1], 10e6, 1e-3)
    for a, b in extra:
        if a != b and net.link_between(f"n{a}", f"n{b}") is None:
            net.connect(lsrs[a], lsrs[b], 10e6, 1e-3)
    converge(net)
    return net, lsrs


class TestLdpConsistency:
    @slow_settings
    @given(lsr_topologies())
    def test_every_binding_chain_reaches_its_egress(self, topo):
        """From any LSR holding a binding for a FEC, following LFIB swaps
        hop by hop must reach the FEC's egress in < n steps, never hitting
        a missing entry."""
        net, lsrs = topo
        result = run_ldp(net)
        for fec, bindings in result.bindings.items():
            egress = next(
                name for name, lbl in bindings.items() if lbl == IMPLICIT_NULL
            )
            for start, in_label in bindings.items():
                if start == egress:
                    continue
                node = net.nodes[start]
                label = in_label
                for _hop in range(len(lsrs) + 1):
                    assert isinstance(node, Lsr)
                    entry = node.lfib.lookup(label)
                    assert entry is not None, f"broken chain at {node.name}"
                    iface = node.interfaces[entry.out_ifname]
                    nxt = iface.link.dst_node
                    if entry.op is LabelOp.POP:
                        assert nxt.name == egress
                        break
                    assert entry.op is LabelOp.SWAP
                    node, label = nxt, entry.out_label
                else:
                    pytest.fail("label chain did not terminate")

    @slow_settings
    @given(lsr_topologies())
    def test_bindings_unique_per_platform(self, topo):
        """No two FECs may share an incoming label on one LSR."""
        net, lsrs = topo
        result = run_ldp(net)
        per_node: dict[str, list[int]] = {}
        for fec, bindings in result.bindings.items():
            for name, label in bindings.items():
                if label == IMPLICIT_NULL:
                    continue
                per_node.setdefault(name, []).append(label)
        for name, labels in per_node.items():
            assert len(labels) == len(set(labels)), f"label collision on {name}"


# ---------------------------------------------------------------------------
# TE reservation accounting under random churn
# ---------------------------------------------------------------------------

class TestTeReservationInvariant:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(
        st.tuples(st.sampled_from(["up", "down"]),
                  st.floats(min_value=0.5e6, max_value=6e6)),
        min_size=1, max_size=25,
    ))
    def test_reservations_never_exceed_capacity_and_teardown_restores(self, ops):
        net = Network(seed=1)
        lsrs = [net.add_node(Lsr(net.sim, f"r{i}")) for i in range(4)]
        for i in range(3):
            net.connect(lsrs[i], lsrs[i + 1], 10e6, 1e-3)
        net.connect(lsrs[0], lsrs[3], 10e6, 1e-3)  # alternate path
        converge(net)
        te = TrafficEngineering(net)
        live: list[str] = []
        counter = itertools.count()
        for action, bw in ops:
            if action == "up":
                name = f"lsp{next(counter)}"
                try:
                    te.setup(name, "r0", "r3", bw)
                    live.append(name)
                except AdmissionError:
                    pass
            elif live:
                te.teardown(live.pop())
            # Invariant: no directed link over-reserved.
            for (u, v), reserved in te.reserved.items():
                assert reserved <= te.capacity(u, v) + 1e-6
                assert reserved >= -1e-6
        # Teardown everything: accounting returns to zero, labels freed.
        for name in live:
            te.teardown(name)
        assert all(abs(r) < 1e-6 for r in te.reserved.values())
        assert all(r.labels.in_use == 0 for r in lsrs)
        assert all(len(r.lfib) == 0 for r in lsrs)


# ---------------------------------------------------------------------------
# VPN isolation over random provisioning plans
# ---------------------------------------------------------------------------

@st.composite
def provisioning_plans(draw):
    """2-3 VPNs, each with 2-4 sites on random edge PEs, prefixes chosen
    from a *shared* pool so overlap across VPNs is common."""
    n_vpns = draw(st.integers(2, 3))
    pool = [f"10.0.{i}.0/24" for i in range(4)]
    plans = []
    for v in range(n_vpns):
        n_sites = draw(st.integers(2, 4))
        sites = []
        used = set()
        for _ in range(n_sites):
            pe = draw(st.sampled_from([f"E{i}" for i in range(1, 9)]))
            pfx = draw(st.sampled_from([p for p in pool if p not in used] or pool))
            used.add(pfx)
            sites.append((pe, pfx))
        plans.append(sites)
    return plans


class TestVpnIsolationProperty:
    @slow_settings
    @given(provisioning_plans())
    def test_no_vrf_ever_resolves_to_a_foreign_vpn(self, plans):
        """For every VPN and every address in every other VPN's sites, the
        VRF lookup must resolve to *this* VPN's own site (overlap) or miss —
        never to a route originated by another VPN."""
        net = Network(seed=9)

        def factory(n, name):
            cls = PeRouter if name.startswith("E") else Lsr
            return n.add_node(cls(n.sim, name))

        nodes = build_backbone(net, node_factory=factory)
        prov = VpnProvisioner(net)
        all_sites = {}
        for v, plan in enumerate(plans):
            vpn = prov.create_vpn(f"vpn{v}")
            for pe_name, pfx in plan:
                site = prov.add_site(vpn, nodes[pe_name], prefix=pfx, num_hosts=0)
                all_sites.setdefault(f"vpn{v}", []).append(site)
        converge_all(net, prov)

        own_sites = {
            name: {s.site_id for s in sites} for name, sites in all_sites.items()
        }
        for vpn_name, sites in all_sites.items():
            for pe in prov.pes():
                vrf = pe.vrfs.get(vpn_name)
                if vrf is None:
                    continue
                for other_name, other_sites in all_sites.items():
                    for osite in other_sites:
                        route = vrf.lookup(osite.prefix.host(10))
                        if route is None or route.origin_site is None:
                            continue
                        assert route.origin_site in own_sites[vpn_name], (
                            f"{vpn_name} VRF resolved {osite.prefix} to a "
                            f"route from site {route.origin_site}"
                        )


# ---------------------------------------------------------------------------
# Packet conservation across a loaded backbone
# ---------------------------------------------------------------------------

class TestConservation:
    def test_sent_equals_delivered_plus_accounted_drops(self):
        """Soak the reference backbone with 8 random flows and verify
        every packet is either delivered or shows up in a drop counter —
        the simulator neither loses nor duplicates packets."""
        from repro.topology import attach_host
        from repro.traffic import CbrSource, FlowSink

        net = Network(seed=77)
        nodes = build_backbone(net, core_rate_bps=3e6, edge_rate_bps=2e6)
        hosts = {}
        for i, e in enumerate([f"E{k}" for k in range(1, 9)]):
            hosts[e] = attach_host(net, nodes[e], f"10.99.0.{i + 1}")
        converge(net)

        sinks = {e: FlowSink(net.sim).attach(h) for e, h in hosts.items()}
        pairs = [("E1", "E8"), ("E2", "E7"), ("E3", "E6"), ("E4", "E5"),
                 ("E8", "E1"), ("E7", "E2"), ("E6", "E3"), ("E5", "E4")]
        sources = []
        for i, (a, b) in enumerate(pairs):
            src = CbrSource(net.sim, hosts[a].send, f"f{i}",
                            str(hosts[a].loopback), str(hosts[b].loopback),
                            payload_bytes=700, rate_bps=2.5e6)
            src.start(0.0, stop_at=2.0)
            sources.append((src, sinks[b]))
        net.run(until=5.0)

        total_sent = sum(s.sent for s, _ in sources)
        total_recv = sum(sink.received(f"f{i}") for i, (_s, sink) in enumerate(sources))
        queue_drops = net.total_drops()
        node_drops = sum(n.stats.dropped_total for n in net.nodes.values())
        assert total_sent == total_recv + queue_drops + node_drops
        assert total_recv > 0 and queue_drops > 0  # actually congested


class TestTtlUniformModel:
    """RFC 3443 uniform-model property: total hop count is conserved in
    the TTL regardless of how many push/pop/decrement cycles happen."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(["push", "pop", "dec"]),
                    min_size=1, max_size=40))
    def test_ttl_decrements_equal_dec_operations(self, ops):
        from repro.net.packet import IPHeader, Packet
        p = Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2), ttl=255),
                   payload_bytes=10)
        decs = 0
        for op in ops:
            if op == "push":
                if len(p.mpls_stack) < 8:
                    p.push_label(16 + len(p.mpls_stack))
            elif op == "pop":
                if p.mpls_stack:
                    p.pop_label()
            else:
                p.decrement_ttl()
                decs += 1
        # Unwind the stack: the effective TTL must be exactly 255 - decs.
        while p.mpls_stack:
            p.pop_label()
        assert p.ip.ttl == 255 - decs


class TestCbqLongRunShares:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=4))
    def test_priority_class_gets_its_allocation(self, ratio):
        """Whatever the competing load, a no-borrow class drains at most
        (and under saturation, almost exactly) its allocated rate."""
        from repro.net.packet import IPHeader, Packet
        from repro.qos.cbq import CbqClass, CbqScheduler

        alloc = 8e3 * ratio  # bytes/s = 1000*ratio
        classes = [
            CbqClass("a", rate_bps=alloc, priority=0, can_borrow=False,
                     burst_bytes=500, capacity_packets=100000),
            CbqClass("b", rate_bps=8e3, priority=1, can_borrow=True,
                     capacity_packets=100000),
        ]
        sched = CbqScheduler(classes, lambda p: p.flow)
        for _ in range(3000):
            sched.enqueue(Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2)),
                                 payload_bytes=80, flow=0), 0.0)
            sched.enqueue(Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2)),
                                 payload_bytes=80, flow=1), 0.0)
        # Serve for 10 simulated seconds at fine steps.
        sent = {0: 0, 1: 0}
        t = 0.0
        while t < 10.0:
            pkt = sched.dequeue(t)
            if pkt is not None:
                sent[pkt.flow] += pkt.wire_bytes
            t += 0.001
        expected = 500 + alloc / 8.0 * 10.0   # burst + rate * time
        assert sent[0] <= expected * 1.05
        assert sent[0] >= expected * 0.8
