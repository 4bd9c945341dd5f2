"""BGP/MPLS VPNs (RFC 2547) plus overlay and IPsec baselines."""

from repro._exports import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "bgp": ("BgpResult", "MpBgp", "VpnRoute"),
    "ce": ("CeRouter",),
    "ipsec": (
        "IKEV1_HANDSHAKE_MESSAGES", "IpsecGateway", "SecurityAssociation", "esp_overhead_bytes",
    ),
    "overlay": (
        "OverlayResult", "OverlayVpnBuilder", "VcRouter", "VirtualCircuit",
        "expected_full_mesh_circuits",
    ),
    "interas": ("InterAsCircuit", "connect_option_a", "exchange_option_a"),
    "pe": ("PeRouter",),
    "profiles": ("BRONZE", "GOLD", "SILVER", "QosProfile", "apply_profile"),
    "provision": ("ProvisioningError", "Site", "Vpn", "VpnProvisioner"),
    "rd_rt": ("RouteDistinguisher", "RouteTarget", "VpnPrefix"),
    "vrf": ("Vrf", "VrfRoute"),
})
