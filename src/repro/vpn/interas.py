"""Inter-provider (inter-AS) VPNs — option A: back-to-back VRFs.

The paper's §5 closes with exactly this: "This cross-network SLA
capability allows the building of VPNs using multiple carriers as
necessary, an option not available with most frame relay offerings."

Option A (RFC 2547 §10a, the interconnect every provider pair can deploy
first) treats the neighbour's ASBR as a CE: the two ASBRs are joined by
one attachment circuit *per VPN*, each side binds its end into the VPN's
VRF, and per-VRF eBGP exchanges the customer routes across.  Each provider
then redistributes the foreign routes over its own iBGP.  QoS survives the
border because the inter-AS circuit carries cleartext customer IP whose
DSCP both sides' edges map into their own MPLS EXP — the end-to-end SLA
crosses the provider boundary, which experiment E10 measures.

Topology-wise both providers live in one :class:`Network`, separated by
routing domains ("core-a", "core-b"): the domain tag already keeps their
IGPs, LDP meshes, and iBGP systems fully independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.net.address import IPv4Address
from repro.vpn.pe import PeRouter

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology import Network

__all__ = ["InterAsCircuit", "connect_option_a", "exchange_option_a"]


@dataclass
class InterAsCircuit:
    """One per-VPN attachment circuit between two ASBRs."""

    vpn_name: str
    asbr_a: PeRouter
    asbr_b: PeRouter
    a_ifname: str
    b_ifname: str
    a_addr: IPv4Address
    b_addr: IPv4Address
    ebgp_updates: int = 0


def connect_option_a(
    net: "Network",
    asbr_a: PeRouter,
    asbr_b: PeRouter,
    vpn_name: str,
    rate_bps: float = 45e6,
    delay_s: float = 1e-3,
) -> InterAsCircuit:
    """Create the per-VPN circuit and bind each end into the VPN's VRF.

    Both ASBRs must already hold a VRF named ``vpn_name`` (create it with
    the provider's own RD/RT policy before calling).  The circuit's link
    subnet moves into the VRFs like any attachment circuit, so it never
    leaks into either IGP.
    """
    for asbr in (asbr_a, asbr_b):
        if vpn_name not in asbr.vrfs:
            raise ValueError(f"{asbr.name} has no VRF {vpn_name!r}")
    dl = net.connect(asbr_a, asbr_b, rate_bps, delay_s)
    a_if, b_if = dl.if_ab.name, dl.if_ba.name
    asbr_a.bind_circuit(a_if, vpn_name)
    asbr_b.bind_circuit(b_if, vpn_name)
    return InterAsCircuit(vpn_name, asbr_a, asbr_b, a_if, b_if, dl.addr_a, dl.addr_b)


def exchange_option_a(net: "Network", circuit: InterAsCircuit) -> int:
    """Run the per-VRF eBGP exchange over ``circuit``.

    Each side advertises every route in its VRF (local *and* iBGP-learned
    — an ASBR re-advertises its whole VPN table); the receiver installs
    them as *local* routes pointing out the inter-AS circuit, exactly the
    CE-route treatment option A prescribes.  Returns the number of routes
    exchanged; counters record the eBGP update messages.

    Call order for a two-provider deployment:

    1. per-domain :func:`repro.control.converge_all` (IGP + LDP);
    2. per-domain iBGP (so each ASBR's VRF holds its own side's routes);
    3. ``exchange_option_a`` (this function);
    4. per-domain iBGP again (so the PEs learn the foreign routes the
       ASBR now originates).
    """
    vrf_a = circuit.asbr_a.vrfs[circuit.vpn_name]
    vrf_b = circuit.asbr_b.vrfs[circuit.vpn_name]
    # Snapshot both tables first: the exchange must not echo routes back.
    a_routes = dict(vrf_a.routes())
    b_routes = dict(vrf_b.routes())
    exchanged = 0
    for prefix, route in sorted(a_routes.items()):
        if prefix in b_routes:
            continue  # the circuit subnet itself, or already known
        vrf_b.add_local(prefix, circuit.b_ifname, next_hop=circuit.a_addr,
                        origin_site=route.origin_site)
        exchanged += 1
    for prefix, route in sorted(b_routes.items()):
        if prefix in a_routes:
            continue
        vrf_a.add_local(prefix, circuit.a_ifname, next_hop=circuit.b_addr,
                        origin_site=route.origin_site)
        exchanged += 1
    circuit.ebgp_updates += exchanged
    net.counters.incr("interas.ebgp_updates", exchanged)
    return exchanged
