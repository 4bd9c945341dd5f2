"""Per-VPN QoS service tiers.

§2.2 of the paper, verbatim: "A more manageable strategy would be simply
assign a QoS level to an entire VPN, and this is how frame relay or ATM
networks would work."  A :class:`QosProfile` is that assignment — the
provider sells the *VPN* a class (gold / silver / bronze), and applying a
profile configures the managed CPE of every site:

* a DSCP marker stamping the tier's codepoint on **all** of the site's
  upstream traffic (the customer does not mark anything — the tier does);
* a policer holding the marked traffic to the tier's committed rate, with
  the excess demoted to best effort rather than dropped (a srTCM-style
  soft contract).

The backbone then needs nothing per-VPN: the PE's standard DSCP→EXP
mapping and the core's class queues do the rest — which is precisely why
this is "more manageable" than per-flow QoS (contrast the IntServ
baseline in :mod:`repro.qos.intserv`).
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.qos.dscp import DSCP
from repro.qos.meter import SrTCM, dscp_marker, srtcm_remarker
from repro.vpn.provision import Vpn

__all__ = ["QosProfile", "GOLD", "SILVER", "BRONZE", "apply_profile"]


@dataclass(frozen=True, slots=True)
class QosProfile:
    """One sellable service tier.

    ``dscp`` is the class the whole VPN rides in; ``cir_bps`` the
    committed rate per site (0 disables policing — pure marking);
    ``excess_dscp`` where out-of-contract traffic lands.
    """

    name: str
    dscp: int
    cir_bps: float = 0.0
    burst_bytes: int = 16_000
    excess_bytes: int = 16_000
    excess_dscp: int = int(DSCP.BE)

    def conditioner(self):
        """Build this tier's CPE conditioner chain element."""
        if self.cir_bps <= 0:
            return dscp_marker(self.dscp)
        meter = SrTCM(self.cir_bps, self.burst_bytes, self.excess_bytes)
        return srtcm_remarker(
            meter,
            green_dscp=self.dscp,
            yellow_dscp=self.excess_dscp,
            red_action="remark",
            red_dscp=self.excess_dscp,
        )


#: Premium tier: the whole VPN rides EF, 2 Mb/s committed per site.
GOLD = QosProfile("gold", dscp=int(DSCP.EF), cir_bps=2e6)

#: Business tier: assured forwarding, 4 Mb/s committed per site.
SILVER = QosProfile("silver", dscp=int(DSCP.AF11), cir_bps=4e6)

#: Economy tier: best effort, unpoliced.
BRONZE = QosProfile("bronze", dscp=int(DSCP.BE))


def apply_profile(vpn: Vpn, profile: QosProfile) -> int:
    """Install ``profile`` on every provisioned site of ``vpn``.

    The conditioner attaches to each CE's uplink toward its PE (the
    provider-managed CPE of §5), so site traffic is tier-marked and
    policed *before* it enters the backbone.  Returns the number of sites
    configured.  Call again after adding sites (idempotent per site is NOT
    guaranteed — apply once, after provisioning).
    """
    configured = 0
    for site in vpn.sites:
        uplinks = [site.ce_ifname]
        if site.role == "hub":
            uplinks.append(site.ce_up_ifname)
        for ifname in uplinks:
            site.ce.interfaces[ifname].add_conditioner(profile.conditioner())
        configured += 1
    return configured
