"""Hypothesis round-trip properties for repro.sim.snapshot.

Random PE/LSR topologies with a random VPN plan are converged (SPF + LDP
+ MP-BGP), loaded with pending future events, snapshotted, and restored —
and the restored graph must be indistinguishable from the original:

* FIB/LFIB/FTN *contents* per router (routes, label ops, FEC bindings),
* every generation counter (tables, VRFs, DomainView vs topology),
* the pending-event schedule, including same-timestamp FIFO order,
* the audit findings, GenCache notes included (restore neither invents
  staleness nor discards warm state),
* RNG stream states — mid-stream draws continue identically.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.audit import audit
from repro.control import converge_all
from repro.mpls import Lsr
from repro.sim.snapshot import (
    pending_schedule,
    restore_network,
    snapshot_network,
)
from repro.topology import Network
from repro.vpn import PeRouter, VpnProvisioner

slow_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def provisioned_networks(draw):
    """Connected LSR/PE graph + random VPN plan, fully converged."""
    n = draw(st.integers(min_value=3, max_value=7))
    pe_count = draw(st.integers(min_value=2, max_value=min(4, n)))
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=5,
    ))
    net = Network(seed=draw(st.integers(0, 2**16)))
    nodes = []
    for i in range(n):
        cls = PeRouter if i < pe_count else Lsr
        nodes.append(net.add_node(cls(net.sim, f"n{i}")))
    for i in range(n - 1):
        net.connect(nodes[i], nodes[i + 1], 10e6, 1e-3)
    for a, b in extra:
        if a != b and net.link_between(f"n{a}", f"n{b}") is None:
            net.connect(nodes[a], nodes[b], 10e6, 1e-3)

    prov = VpnProvisioner(net)
    n_vpns = draw(st.integers(min_value=1, max_value=2))
    for v in range(n_vpns):
        vpn = prov.create_vpn(f"vpn{v}", supernet=f"10.{40 + v}.0.0/16")
        sites = draw(st.integers(min_value=1, max_value=3))
        for s in range(sites):
            pe = nodes[draw(st.integers(0, pe_count - 1))]
            prov.add_site(vpn, pe, num_hosts=draw(st.integers(0, 1)))
    converge_all(net, prov)

    # Pending future events, including deliberate same-timestamp pairs
    # (FIFO order within a bucket is part of the schedule contract).
    times = draw(st.lists(
        st.floats(min_value=0.001, max_value=5.0,
                  allow_nan=False, allow_infinity=False),
        min_size=0, max_size=6,
    ))
    for i, t in enumerate(times):
        net.sim.schedule_call(t, net.counters.incr, f"probe.{i}")
        if draw(st.booleans()):
            net.sim.schedule_call(t, net.counters.incr, f"probe.{i}.twin")
    return net, prov


def _fib_contents(net: Network) -> dict:
    """JSON-able dump of every router's FIB/LFIB/FTN + generations."""
    out: dict = {}
    for name, node in sorted(net.nodes.items()):
        fib = getattr(node, "fib", None)
        if fib is None:
            continue
        entry: dict = {
            "fib_gen": fib.generation,
            "routes": sorted(
                (str(prefix), r.out_ifname, str(r.next_hop), r.source)
                for prefix, r in fib.routes()
            ),
        }
        lfib = getattr(node, "lfib", None)
        if lfib is not None:
            entry["lfib_gen"] = lfib.generation
            entry["lfib"] = sorted(
                (label, repr(e)) for label, e in lfib.entries().items()
            )
        ftn = getattr(node, "ftn", None)
        if ftn is not None:
            entry["ftn_gen"] = ftn.generation
            entry["ftn"] = sorted(
                (str(f), repr(e)) for f, e in ftn.entries().items()
            )
        vrfs = getattr(node, "vrfs", None)
        if vrfs:
            entry["vrfs"] = {
                vname: {
                    "gen": vrf.generation,
                    "label": vrf.vpn_label,
                    "rd": str(vrf.rd),
                    "routes": sorted(
                        (str(p), repr(r)) for p, r in vrf.routes().items()
                    ),
                }
                for vname, vrf in sorted(vrfs.items())
            }
        out[name] = entry
    return out


class TestSnapshotRoundTrip:
    @slow_settings
    @given(provisioned_networks())
    def test_tables_generations_and_schedule_survive(self, built) -> None:
        net, _prov = built
        # Materialize a domain view so its cached generation is part of
        # the round-trip subject.
        view = net.domain_view()
        before_tables = _fib_contents(net)
        before_sched = pending_schedule(net.sim)
        before_audit = audit(net)
        assert [f for f in before_audit if f.severity == "error"] == []

        net2, _ = restore_network(snapshot_network(net))

        assert _fib_contents(net2) == before_tables
        assert pending_schedule(net2.sim) == before_sched
        assert audit(net2) == before_audit
        assert net2.topology_generation == net.topology_generation
        view2 = net2.domain_view()
        assert view2.generation == view.generation
        assert view2.order_names == view.order_names
        # The restored view is a cache *hit*: its generation matches the
        # restored topology counter, so no SPF state was thrown away.
        assert view2.generation == net2.topology_generation

    @slow_settings
    @given(provisioned_networks(), st.integers(0, 2**16))
    def test_rng_streams_continue_identically(self, built, draws_seed) -> None:
        net, _prov = built
        g = net.streams.stream("prop.traffic")
        g.random(7)  # advance mid-stream before the checkpoint
        blob = snapshot_network(net)
        expect = g.random(5).tolist()
        net2, _ = restore_network(blob)
        assert net2.streams.stream("prop.traffic").random(5).tolist() == expect
        assert net2.streams.names() == net.streams.names()

    @slow_settings
    @given(provisioned_networks())
    def test_pending_events_fire_identically(self, built) -> None:
        net, _prov = built
        net2, _ = restore_network(snapshot_network(net))
        net.sim.run(until=6.0)
        net2.sim.run(until=6.0)
        probes = {k: v for k, v in net.counters if k.startswith("probe.")}
        probes2 = {k: v for k, v in net2.counters if k.startswith("probe.")}
        assert probes2 == probes
        assert net2.sim.events_processed == net.sim.events_processed
