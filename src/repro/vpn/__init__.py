"""BGP/MPLS VPNs (RFC 2547) plus overlay and IPsec baselines."""

from repro.vpn.bgp import BgpResult, MpBgp, VpnRoute
from repro.vpn.ce import CeRouter
from repro.vpn.ipsec import (
    IKEV1_HANDSHAKE_MESSAGES,
    IpsecGateway,
    SecurityAssociation,
    esp_overhead_bytes,
)
from repro.vpn.overlay import (
    OverlayResult,
    OverlayVpnBuilder,
    VcRouter,
    VirtualCircuit,
    expected_full_mesh_circuits,
)
from repro.vpn.interas import InterAsCircuit, connect_option_a, exchange_option_a
from repro.vpn.pe import PeRouter
from repro.vpn.profiles import BRONZE, GOLD, SILVER, QosProfile, apply_profile
from repro.vpn.provision import ProvisioningError, Site, Vpn, VpnProvisioner
from repro.vpn.rd_rt import RouteDistinguisher, RouteTarget, VpnPrefix
from repro.vpn.vrf import Vrf, VrfRoute

__all__ = [
    "BgpResult", "MpBgp", "VpnRoute",
    "CeRouter",
    "IKEV1_HANDSHAKE_MESSAGES", "IpsecGateway", "SecurityAssociation",
    "esp_overhead_bytes",
    "OverlayResult", "OverlayVpnBuilder", "VcRouter", "VirtualCircuit",
    "expected_full_mesh_circuits",
    "PeRouter",
    "InterAsCircuit", "connect_option_a", "exchange_option_a",
    "ProvisioningError", "Site", "Vpn", "VpnProvisioner",
    "BRONZE", "GOLD", "SILVER", "QosProfile", "apply_profile",
    "RouteDistinguisher", "RouteTarget", "VpnPrefix",
    "Vrf", "VrfRoute",
]
