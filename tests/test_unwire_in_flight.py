"""Packets in flight across ``remove_site``: the first concrete instance of
the rule "a probe is delivered inside its VPN or dropped with a named
``DropReason``; it never crosses a VPN boundary and never raises".

Two VPNs on the same 10/8 plan (same site prefixes, same host addresses)
over pe1 - p - pe2: two near sites and a far site per VPN, both near hosts
sending to the far host and the far host sending back, each at 1.5x the
access rate, so at any instant packets sit in both queues of the far
site's access link, on both its transmitters and on the wire.  That site is
unwired under them — live, and on a network restored from a snapshot taken
mid-run — and every packet every source sent is accounted for:

    sent = delivered + dropped (by reason, at a node or a queue) + queued + on the wire

with the removed CE, host, interfaces and queues still counted (the test
keeps them), at the instant of the unwire and once everything has drained.
"""

from repro.control import converge_all
from repro.mpls import Lsr
from repro.net.drops import DropReason
from repro.sim.snapshot import restore_network, snapshot_network
from repro.topology import Network
from repro.traffic import CbrSource, FlowSink
from repro.vpn import PeRouter, VpnProvisioner

ACCESS_BPS = 1e6
STOP_AT = 2.0
DRAINED_AT = 4.0


def _two_vpns_under_load(seed: int = 7) -> dict:
    net = Network(seed=seed)
    pe1 = net.add_node(PeRouter(net.sim, "pe1"))
    p = net.add_node(Lsr(net.sim, "p"))
    pe2 = net.add_node(PeRouter(net.sim, "pe2"))
    net.connect(pe1, p)
    net.connect(p, pe2)
    prov = VpnProvisioner(net, access_rate_bps=ACCESS_BPS)
    sites, sources, sinks = {}, [], {}
    for name in ("red", "blue"):
        vpn = prov.create_vpn(name)
        sites[name] = (
            prov.add_site(vpn, pe1, prefix="10.1.0.0/24"),
            prov.add_site(vpn, pe2, prefix="10.2.0.0/24"),
            prov.add_site(vpn, pe1, prefix="10.3.0.0/24"),
        )
    converge_all(net, prov)
    for name, (a, b, c) in sites.items():
        sinks[name] = FlowSink(net.sim)
        for site in (a, b, c):
            sinks[name].attach(site.hosts[0])
        for tag, here, there in (("ab", a, b), ("cb", c, b), ("ba", b, a)):
            src = CbrSource(
                net.sim, here.hosts[0].send, f"{name}-{tag}",
                str(here.host_addr()), str(there.host_addr()),
                payload_bytes=400, rate_bps=1.5 * ACCESS_BPS,
            )
            src.start(0.0, stop_at=STOP_AT)
            sources.append(src)
    assert sites["red"][1].host_addr() == sites["blue"][1].host_addr()
    return {"net": net, "prov": prov, "sites": sites, "sources": sources, "sinks": sinks}


class _Books:
    """Every node and interface the run ever had, removed ones included."""

    def __init__(self, net: Network) -> None:
        self.net = net
        self.nodes: dict[int, object] = {}
        self.ifaces: dict[int, object] = {}
        self.see()

    def see(self) -> None:
        for node in self.net.nodes.values():
            self.nodes[id(node)] = node
            for iface in node.interfaces.values():
                self.ifaces[id(iface)] = iface

    def check(self, sources: list, drained: bool) -> dict[str, int]:
        sent = sum(src.sent for src in sources)
        delivered = sum(n.stats.delivered for n in self.nodes.values())
        by_reason: dict[str, int] = {}
        for node in self.nodes.values():
            for reason, count in node.stats.by_reason.items():
                by_reason[reason] = by_reason.get(reason, 0) + count
        assert sum(by_reason.values()) == sum(
            n.stats.dropped_total for n in self.nodes.values()
        )
        assert set(by_reason) <= {reason.value for reason in DropReason}
        queue_drops = sum(
            i.stats.dropped + i.stats.conditioner_dropped for i in self.ifaces.values()
        )
        queued = sum(len(i.qdisc) for i in self.ifaces.values())
        on_wire = sent - delivered - sum(by_reason.values()) - queue_drops - queued
        # Each packet on a transmitter or a wire holds one pending event.
        assert 0 <= on_wire <= self.net.sim.pending, (sent, delivered, by_reason, queued)
        if drained:
            assert queued == 0 and on_wire == 0
        return by_reason


def _assert_no_vpn_crossed(sinks: dict[str, FlowSink]) -> None:
    for name, sink in sinks.items():
        assert sink.flows and all(flow.startswith(f"{name}-") for flow in sink.flows)


def _assert_access_link_is_loaded(site) -> None:
    access = site.links[0]              # connect(ce, pe): a is the CE end
    assert len(access.if_ab.qdisc) > 0 and len(access.if_ba.qdisc) > 0
    for link in (access.link_ab, access.link_ba):
        assert link._tx_event is not None and link._tx_event.time > link.sim.now


def test_remove_site_under_queued_and_in_flight_packets():
    w = _two_vpns_under_load()
    net, prov, sources, sinks = w["net"], w["prov"], w["sources"], w["sinks"]
    red_far = w["sites"]["red"][1]
    books = _Books(net)
    net.run(until=1.0)
    _assert_access_link_is_loaded(red_far)
    queued = sum(len(dl.if_ab.qdisc) + len(dl.if_ba.qdisc) for dl in red_far.links)
    books.check(sources, drained=False)

    prov.remove_site(red_far)
    assert red_far.ce.name not in net.nodes and not red_far.ce.interfaces
    at_unwire = books.check(sources, drained=False)
    # The two frames cut short on the access link's transmitters.
    assert at_unwire.get("no_iface", 0) >= 2

    net.run(until=DRAINED_AT)
    assert net.sim.pending == 0
    end = books.check(sources, drained=True)
    # What was queued on the unwired links, what the removed host kept
    # sending, what the far site kept sending to a prefix that is gone.
    assert end["no_iface"] >= queued and end["no_vrf_route"] > 0
    _assert_no_vpn_crossed(sinks)
    # The other VPN, same addresses, same PEs, never noticed.
    for flow in ("blue-ab", "blue-ba"):
        assert sinks["blue"].record(flow).arrival_times[-1] > STOP_AT - 0.1
    assert sinks["red"].record("red-ab").arrival_times[-1] < 1.1


def test_arrival_over_a_removed_circuit_is_a_named_drop():
    """What is already on the wire still arrives (a link failure's rule) —
    here over a circuit the PE no longer has.  No VRF claims it, and the
    provider's own table must not either: a customer packet addressed to a
    provider loopback ends as a counted ``NO_IFACE`` drop at pe2, and every
    packet is still accounted for."""
    w = _two_vpns_under_load()
    net, prov = w["net"], w["prov"]
    red_far = w["sites"]["red"][1]
    pe2, p = red_far.pe, net.nodes["p"]
    to_core = CbrSource(
        net.sim, red_far.hosts[0].send, "red-to-core",
        str(red_far.host_addr()), str(p.loopback),
        payload_bytes=400, rate_bps=0.2 * ACCESS_BPS,
    )
    to_core.start(0.0, stop_at=STOP_AT)
    books = _Books(net)
    access = red_far.links[0].link_ab       # CE -> PE
    net.run(until=1.0)
    # Bound, the circuit's VRF has no route to a provider address.
    assert pe2.stats.by_reason["no_vrf_route"] > 0 and p.stats.delivered == 0
    # Unwire with one's tail off the transmitter and its head not in yet
    # (the access link is saturated: the next frame is already behind it).
    while access._tx_event.args[0].flow != "red-to-core":
        assert net.sim.now < STOP_AT
        net.run(until=net.sim.now + 1e-3)
    net.run(until=access._tx_event.time - access.delay_s / 2)
    prov.remove_site(red_far)
    # Dropped by name at pe2 so far, and still queued toward the gone CE
    # (each one dropped by name when the transmitter reaches it).
    cut = pe2.stats.by_reason.get("no_iface", 0)
    queued = len(red_far.links[0].if_ba.qdisc)
    net.run(until=DRAINED_AT)
    assert p.stats.delivered == 0
    assert pe2.stats.by_reason["no_iface"] == cut + queued + 1
    books.check([*w["sources"], to_core], drained=True)


def test_flap_after_snapshot_restore_mid_run():
    live = _two_vpns_under_load()
    live["net"].run(until=0.8)
    blob = snapshot_network(
        live["net"], {k: live[k] for k in ("prov", "sites", "sources", "sinks")}
    )
    net, w = restore_network(blob)
    prov, sources, sinks = w["prov"], w["sources"], w["sinks"]
    red_far = w["sites"]["red"][1]
    books = _Books(net)
    net.run(until=1.0)
    _assert_access_link_is_loaded(red_far)
    subnet = red_far.links[0].addr_a

    prov.remove_site(red_far)
    books.check(sources, drained=False)
    again = prov.add_site("red", red_far.pe, prefix=red_far.prefix)
    prov.bgp_engine().export_delta(again.pe, again.pe.vrfs["red"])
    assert again.links[0].addr_a == subnet      # the /30 came back
    sinks["red"].attach(again.hosts[0])
    books.see()

    net.run(until=DRAINED_AT)
    assert net.sim.pending == 0
    books.check(sources, drained=True)
    _assert_no_vpn_crossed(sinks)
    # The re-attached site is served again; its old host's source is not.
    assert sinks["red"].record("red-ab").arrival_times[-1] > STOP_AT - 0.1
    assert sinks["red"].record("red-ba").arrival_times[-1] < 1.1
    # The live network, untouched by the restored one's flap, still drains clean.
    live_books = _Books(live["net"])
    live["net"].run(until=DRAINED_AT)
    live_books.check(live["sources"], drained=True)
