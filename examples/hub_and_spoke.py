#!/usr/bin/env python3
"""Hub-and-spoke VPN: central policy enforcement via route-target design.

A bank wants every branch-to-branch packet to transit the head office
(where the firewalls and loggers live).  With RFC 2547 that is pure
routing *policy*: spokes import only the hub's route target, the hub's
dual-VRF attachment re-advertises the whole company supernet, and
spoke-to-spoke traffic hairpins through the hub CE — no tunnels to
reconfigure when a branch is added.

Run:  python examples/hub_and_spoke.py
"""

from repro.control import converge_all
from repro.mpls import Lsr
from repro.net.packet import IPHeader, Packet
from repro.topology import Network
from repro.vpn import PeRouter, VpnProvisioner


def main() -> None:
    net = Network(seed=3)
    core = net.add_node(Lsr(net.sim, "core"))
    pes = [net.add_node(PeRouter(net.sim, f"pe{i}")) for i in range(3)]
    for pe in pes:
        net.connect(pe, core, 45e6, 1e-3)

    prov = VpnProvisioner(net)
    bank = prov.create_hub_spoke_vpn("bank")
    hq = prov.add_site(bank, pes[0], prefix="10.0.0.0/24", role="hub")
    branch1 = prov.add_site(bank, pes[1], prefix="10.0.1.0/24")
    branch2 = prov.add_site(bank, pes[2], prefix="10.0.2.0/24")
    converge_all(net, prov)

    print("Route targets:")
    print(f"  hub exports  {bank.rt_hub}   (the supernet: 'everything is via HQ')")
    print(f"  spokes export {bank.rt_spoke}, import only {bank.rt_hub}")
    spoke_vrf = pes[1].vrfs["bank-spoke"]
    print(f"\nBranch-1 PE VRF ({len(spoke_vrf)} routes — no direct branch-2 route):")
    for prefix, route in sorted(spoke_vrf.routes().items()):
        target = route.out_ifname if route.kind == "local" else f"hub PE {route.remote_pe}"
        print(f"  {prefix}  ->  {route.kind}: {target}")

    # Prove the hairpin: branch1 -> branch2 transits the HQ CE.
    h1, h2 = branch1.hosts[0], branch2.hosts[0]
    got = []
    h2.add_local_sink(got.append)
    before = hq.ce.stats.rx_packets
    for i in range(5):
        p = Packet(ip=IPHeader(h1.loopback, h2.loopback), payload_bytes=100, seq=i)
        net.sim.schedule(i * 0.01, lambda p=p: h1.send(p))
    net.run(until=1.0)
    print(f"\nbranch1 → branch2: sent 5, delivered {len(got)}, "
          f"HQ CE inspected {hq.ce.stats.rx_packets - before} of them")
    assert len(got) == 5
    assert hq.ce.stats.rx_packets - before == 5


if __name__ == "__main__":
    main()
