"""The provider control plane as one call: the IGP, then LDP, then MP-BGP.

The IGP carries the PE loopbacks, LDP labels them and MP-BGP next hops
resolve over those LSPs (the paper's Fig. 3/4).  :func:`converge_all` runs
the layers in that order, at build and after any topology change, with no
layer options: SPF keeps its last ECMP mode, the provisioner its one
engine's RR layout (``prov.bgp_engine(route_reflector=...)``, before the
first call or between two: it re-lays the sessions in place).  Each layer
writes only what differs, so a second call writes nothing, and a PE that
took its first site since the last call joins the engine it had.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.mpls.ldp import LdpResult, run_ldp
from repro.routing.spf import reconverge

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology import Network
    from repro.vpn.bgp import BgpResult
    from repro.vpn.provision import VpnProvisioner

__all__ = ["Converged", "converge_all"]


class Converged(NamedTuple):
    """One pass: the FIB routes it installed, the LDP result, and the MP-BGP
    result (``None`` without a provisioner)."""

    igp: int
    ldp: LdpResult
    bgp: "BgpResult | None"


def converge_all(
    net: "Network", prov: "VpnProvisioner | None" = None, domain: str = "core"
) -> Converged:
    """Converge ``domain``'s IGP, then its LDP, then ``prov``'s MP-BGP."""
    igp = reconverge(net, domain)
    ldp = run_ldp(net, domain=domain)
    return Converged(igp, ldp, None if prov is None else prov.converge_bgp())
