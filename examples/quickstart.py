#!/usr/bin/env python3
"""Quickstart: provision a two-site BGP/MPLS VPN and ping across it.

Builds the smallest interesting deployment — two PEs around one P router,
one customer VPN with a site behind each PE — then runs LDP + MP-BGP and
sends traffic end to end.  Prints the control-plane state the provisioning
created and the measured one-way delay.

Run:  python examples/quickstart.py
"""

from repro.control import converge_all
from repro.mpls import Lsr
from repro.topology import Network
from repro.traffic import CbrSource, FlowSink
from repro.metrics import print_table, summarize_flow
from repro.vpn import PeRouter, VpnProvisioner


def main() -> None:
    # 1. Provider backbone: pe1 -- p1 -- pe2 at 10 Mb/s.
    net = Network(seed=1)
    pe1 = net.add_node(PeRouter(net.sim, "pe1"))
    p1 = net.add_node(Lsr(net.sim, "p1"))
    pe2 = net.add_node(PeRouter(net.sim, "pe2"))
    net.connect(pe1, p1, rate_bps=10e6, delay_s=1e-3)
    net.connect(p1, pe2, rate_bps=10e6, delay_s=1e-3)

    # 2. Customer VPN: one site behind each PE (CE + host are created for
    #    you; the site prefixes may overlap any other customer's plan).
    prov = VpnProvisioner(net)
    vpn = prov.create_vpn("acme")
    site_a = prov.add_site(vpn, pe1, prefix="10.1.0.0/24")
    site_b = prov.add_site(vpn, pe2, prefix="10.2.0.0/24")

    # 3. Control plane: converge the IGP, distribute labels, run MP-BGP.
    _igp, ldp, bgp = converge_all(net, prov)
    print(f"LDP: {ldp.sessions} sessions, {ldp.mapping_messages} label mappings")
    print(f"BGP: {bgp.sessions} session(s), {bgp.updates_sent} updates, "
          f"{bgp.routes_imported} routes imported")
    print(f"pe1 VRF '{vpn.name}' routes:")
    for prefix, route in sorted(pe1.vrfs["acme"].routes().items()):
        where = route.out_ifname if route.kind == "local" else (
            f"PE {route.remote_pe} label {route.vpn_label}")
        print(f"  {prefix}  ->  {route.kind}: {where}")

    # 4. Data plane: 1 Mb/s CBR from the site-A host to the site-B host.
    h_a, h_b = site_a.hosts[0], site_b.hosts[0]
    sink = FlowSink(net.sim).attach(h_b)
    src = CbrSource(net.sim, h_a.send, "ping", str(h_a.loopback),
                    str(h_b.loopback), payload_bytes=500, rate_bps=1e6)
    src.start(at=0.0, stop_at=2.0)
    net.run(until=2.5)

    stats = summarize_flow(src, sink, duration_s=2.0)
    print_table([stats.row()], title="\nEnd-to-end flow over the VPN")


if __name__ == "__main__":
    main()
