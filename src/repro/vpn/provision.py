"""VPN provisioning: the ISP workflow of the paper's §4.

"An ISP can deploy a VPN by provisioning a set of LSPs to provide
connectivity among the different sites in the VPN.  Each site then
advertises to the ISP a set of prefixes that are reachable within the
local site."  :class:`VpnProvisioner` automates exactly that:

1. ``create_vpn``   — allocate RD/RT, pick the customer supernet.
2. ``add_site``     — create the CE (+ optional hosts), wire the access
   link, bind the PE interface into the VPN's VRF, and register the site
   prefix (the *membership discovery* + *reachability exchange* functions
   of §4.1/§4.2).
3. ``converge_bgp`` — run MP-BGP over the PEs, on the one engine the
   provisioner keeps for its life (PEs join it as they take sites); tunnels
   come from LDP or TE (run separately, once, for the whole provider — they
   are shared by all VPNs, which is the heart of the scalability claim C1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.net.address import IPv4Address, Prefix
from repro.net.node import Host
from repro.vpn.bgp import BgpResult, MpBgp
from repro.vpn.ce import CeRouter
from repro.vpn.pe import PeRouter
from repro.vpn.rd_rt import RouteDistinguisher, RouteTarget

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology import DuplexLink, Network

__all__ = ["ProvisioningError", "Site", "Vpn", "VpnProvisioner"]

# Sentinel for "topology argument not given" on bgp_engine/converge_bgp:
# distinguishes a bare call (keep the engine's layout) from an explicit
# ``route_reflector=None, rr_clusters=None`` (re-lay it as a full mesh).
_KEEP: object = object()


def _vrf_names(vpn: str, role: str) -> tuple[str, ...]:
    """The VRFs a site of ``role`` is bound to on its PE: the naming rule."""
    if role == "hub":
        return (f"{vpn}-hub-dn", f"{vpn}-hub-up")
    if role == "spoke":
        return (f"{vpn}-spoke",)
    return (vpn,)


class ProvisioningError(ValueError):
    """A provisioning call named something it cannot provision.

    The message starts with the offending argument, and it is raised before
    anything is allocated: no node, link, site id or site prefix is spent on
    a call that ends in one.
    """


def _rt_policy(v: Vpn, role: str) -> tuple[tuple[set, set], ...]:
    """(import RTs, export RTs) of each VRF of :func:`_vrf_names`, in order."""
    if role == "hub":
        return (set(), {v.rt_hub}), ({v.rt_spoke}, set())
    if role == "spoke":
        return (({v.rt_hub}, {v.rt_spoke}),)
    return (({v.rt}, {v.rt}),)


def _role(v: Vpn, role: str | None) -> str:
    """The role a site of ``v`` is provisioned in (``None``: the default)."""
    roles = ("spoke", "hub") if v.topology == "hub-spoke" else ("mesh",)
    if role is None:
        return roles[0]
    if role not in roles:
        raise ProvisioningError(
            f"role: {role!r} is not a role of {v.topology} VPN {v.name}; "
            f"its sites are {' or '.join(map(repr, roles))}"
        )
    return role


@dataclass(eq=False, slots=True)
class Site:
    """One provisioned customer site.

    Compared by identity: a site *is* its provisioning record, and
    ``remove_site`` finds it among a VPN's sites without a field-by-field
    compare of every record before it.  Slotted (one per site, so no
    instance dict) and imaged as the tuple of its fields, and ``hosts`` is
    a tuple the provisioner writes once: most sites of a scale run have
    none.
    """

    vpn_name: str
    site_id: int
    pe: PeRouter
    ce: CeRouter
    prefix: Prefix
    # Everything add_site wired for this site — the access circuit first
    # (``connect(ce, pe)``: the CE is its ``a`` end), then the hub's second
    # circuit, then one link per host: what remove_site takes out again.
    links: list["DuplexLink"]
    hosts: tuple[Host, ...] = ()
    role: str = "mesh"   # "mesh" | "spoke" | "hub"

    def __getstate__(self) -> tuple:
        return (
            self.vpn_name, self.site_id, self.pe, self.ce, self.prefix, self.links,
            self.hosts, self.role,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.vpn_name, self.site_id, self.pe, self.ce, self.prefix, self.links,
            self.hosts, self.role,
        ) = state

    @property
    def pe_ifname(self) -> str:
        """The PE's interface toward the CE."""
        return self.links[0].if_ba.name

    @property
    def ce_ifname(self) -> str:
        """The CE's interface toward the PE."""
        return self.links[0].if_ab.name

    @property
    def pe_up_ifname(self) -> str:
        """A hub's second circuit, the PE's end (bound to the up VRF)."""
        return self._up_circuit().if_ba.name

    @property
    def ce_up_ifname(self) -> str:
        """A hub's second circuit, the CE's end (its default route)."""
        return self._up_circuit().if_ab.name

    def _up_circuit(self) -> "DuplexLink":
        if self.role != "hub":
            raise AttributeError(f"{self.vpn_name} site {self.site_id} is not a hub")
        return self.links[1]

    def host_addr(self, index: int = 0) -> IPv4Address:
        """Address of the ``index``-th host in this site."""
        return self.hosts[index].loopback or next(iter(self.hosts[index].addresses))


@dataclass
class Vpn:
    """One customer VPN: identity + policy + its sites.

    ``topology`` is ``"mesh"`` (any-to-any, import = export = ``rt``) or
    ``"hub-spoke"`` (spokes exchange routes only with the hub; spoke-to-
    spoke traffic hairpins through the hub site — the classic RFC 2547
    asymmetric-RT pattern, using ``rt_hub``/``rt_spoke``).
    """

    name: str
    rd: RouteDistinguisher
    rt: RouteTarget
    supernet: Prefix
    topology: str = "mesh"
    rt_hub: RouteTarget | None = None
    rt_spoke: RouteTarget | None = None
    sites: list[Site] = field(default_factory=list)
    # Cursor into the supernet's /24s — an index rather than a live
    # generator so a provisioned VPN can be snapshotted (pickled) and
    # keeps allocating where it left off after a restore.
    _next_site_prefix: int = field(default=0, repr=False)

    def next_site_prefix(self) -> Prefix:
        step = 1 << (32 - 24)
        base = self.supernet.network + self._next_site_prefix * step
        if base >= self.supernet.network + self.supernet.num_addresses:
            raise ValueError(f"VPN {self.name}: site-prefix pool exhausted")
        self._next_site_prefix += 1
        return Prefix(base, 24)


class VpnProvisioner:
    """Builds VPNs over an existing MPLS backbone."""

    def __init__(
        self,
        net: "Network",
        asn: int = 65000,
        access_rate_bps: float = 10e6,
        access_delay_s: float = 0.5e-3,
    ) -> None:
        if not access_rate_bps > 0.0:  # Interface's rule: NaN refused, inf legal
            raise ProvisioningError(f"access_rate_bps: {access_rate_bps} is not a rate > 0")
        if not 0.0 <= access_delay_s < math.inf:  # Link's rule
            raise ProvisioningError(f"access_delay_s: {access_delay_s} is not finite and >= 0")
        self.net = net
        self.asn = asn
        self.access_rate_bps = access_rate_bps
        self.access_delay_s = access_delay_s
        self.vpns: dict[str, Vpn] = {}
        # PE name -> sites it hosts; what pes() answers from, so no churn
        # op walks every provisioned site to learn the PE set.
        self._sites_on: dict[str, int] = {}
        # Integer cursors (not itertools.count objects) so the provisioner
        # serializes with the network in a simulator snapshot.
        self._next_rd_number = 1
        self._next_site_id = 1
        # The one MP-BGP engine (built by the first bgp_engine()); its
        # Adj-RIB is what makes site/VPN churn incremental.
        self._bgp: MpBgp | None = None

    def _vpn(self, vpn: Vpn | str) -> Vpn:
        if not isinstance(vpn, str):
            return vpn
        found = self.vpns.get(vpn)
        if found is None:
            raise ProvisioningError(f"vpn: no VPN named {vpn!r}")
        return found

    def _check_attachment(
        self, pe: PeRouter, num_hosts: int, host_rate_bps: float, circuits: int = 1
    ) -> None:
        if not isinstance(pe, PeRouter):
            raise ProvisioningError(
                f"pe: {getattr(pe, 'name', pe)!r} is a {type(pe).__name__}, "
                "not a PeRouter — only a PE can hold a VRF"
            )
        if num_hosts < 0:
            raise ProvisioningError(f"num_hosts: {num_hosts} is negative")
        if not host_rate_bps > 0.0:
            raise ProvisioningError(f"host_rate_bps: {host_rate_bps} is not a rate > 0")
        free = self.net.linknets_free()
        if free < circuits + num_hosts:
            raise ProvisioningError(
                f"linknet pool {self.net.LINKNET_POOL} exhausted: the site needs "
                f"{circuits + num_hosts} point-to-point /30s, {free} are free"
            )

    def _alloc_rd_number(self) -> int:
        n = self._next_rd_number
        self._next_rd_number = n + 1
        return n

    def _alloc_site_id(self) -> int:
        n = self._next_site_id
        self._next_site_id = n + 1
        return n

    # ------------------------------------------------------------------
    def create_vpn(self, name: str, supernet: str | Prefix = "10.0.0.0/8") -> Vpn:
        """Register a VPN; note that *every* VPN may use the same supernet —
        overlapping plans are the E7 scenario and are fully supported."""
        if name in self.vpns:
            raise ValueError(f"duplicate VPN {name!r}")
        supernet = Prefix.parse(supernet)  # before an RD number is spent on it
        number = self._alloc_rd_number()
        vpn = Vpn(
            name=name,
            rd=RouteDistinguisher(self.asn, number),
            rt=RouteTarget(self.asn, number),
            supernet=supernet,
        )
        self.vpns[name] = vpn
        return vpn

    def create_hub_spoke_vpn(
        self, name: str, supernet: str | Prefix = "10.0.0.0/8"
    ) -> Vpn:
        """Register a hub-and-spoke VPN (distinct hub/spoke route targets)."""
        vpn = self.create_vpn(name, supernet)
        number = self._alloc_rd_number()
        vpn.topology = "hub-spoke"
        vpn.rt_hub = RouteTarget(self.asn, number)
        vpn.rt_spoke = RouteTarget(self.asn, number + 50000)
        return vpn

    # ------------------------------------------------------------------
    def add_site(
        self,
        vpn: Vpn | str,
        pe: PeRouter,
        prefix: Prefix | str | None = None,
        num_hosts: int = 1,
        host_rate_bps: float = 100e6,
        role: str | None = None,
    ) -> Site:
        """Provision one site behind ``pe``.

        Creates the CE, one access circuit per VRF of the site's ``role``,
        the VRF bindings, and ``num_hosts`` hosts inside the site prefix.  A
        mesh VPN's sites are ``"mesh"`` (import = export = the VPN's RT); a
        hub-and-spoke VPN's are ``"spoke"`` (the default) or ``"hub"``.  A
        role's VRFs are created on first use of this PE by this VPN.

        The hub attaches with *two* circuits, the standard dual-VRF
        construction: the **down** VRF receives spoke traffic (it exports
        the VPN supernet + hub prefix with ``rt_hub`` and imports nothing),
        the **up** VRF carries traffic the hub CE sends back toward the
        spokes (it imports ``rt_spoke`` and exports nothing).  Spoke-to-
        spoke packets therefore hairpin through the hub CE — giving the
        customer a central enforcement point, the reason this topology
        exists.
        """
        v = self._vpn(vpn)
        role = _role(v, role)
        names = _vrf_names(v.name, role)
        self._check_attachment(pe, num_hosts, host_rate_bps, circuits=len(names))
        site_prefix = self._pick_prefix(v, prefix)
        site_id = self._alloc_site_id()

        tag = "hub" if role == "hub" else "s"
        ce = CeRouter(self.net.sim, self._node_name(f"ce-{v.name}-{tag}{site_id}"),
                      trace=self.net.trace)
        self.net.add_node(ce, loopback=False)
        links = [self.net.connect(ce, pe, self.access_rate_bps, self.access_delay_s)
                 for _ in names]
        # The CE is the ``a`` end of connect(ce, pe); its default route
        # (a hub's spoke-bound traffic) leaves over the last circuit.
        ce.set_default_route(links[-1].if_ab.name, links[-1].addr_b)

        if names[0] not in pe.vrfs:  # a role's VRFs come and go together
            for name, (imports, exports) in zip(names, _rt_policy(v, role)):
                pe.add_vrf(name, v.rd, imports, exports)
        for name, dl in zip(names, links):
            pe.bind_circuit(dl.if_ba.name, name)
        # The first VRF owns the site prefix; a hub's down VRF also owns the
        # whole supernet: spokes learn "everything lives at the hub".
        dl = links[0]
        owned = (site_prefix, v.supernet) if role == "hub" else (site_prefix,)
        for owned_prefix in owned:
            pe.vrfs[names[0]].add_local(
                owned_prefix, dl.if_ba.name, next_hop=dl.addr_a, origin_site=site_id
            )

        site = Site(v.name, site_id, pe, ce, site_prefix, links, role=role)
        site.hosts = tuple(self._add_host(site, h, host_rate_bps) for h in range(num_hosts))
        self._register(v, site)
        return site

    # ------------------------------------------------------------------
    def _register(self, v: Vpn, site: Site) -> None:
        v.sites.append(site)
        self._sites_on[site.pe.name] = self._sites_on.get(site.pe.name, 0) + 1
        self.net.counters.incr("vpn.sites")

    def _pick_prefix(self, v: Vpn, prefix: Prefix | str | None) -> Prefix:
        if prefix is None:
            return v.next_site_prefix()
        return Prefix.parse(prefix) if isinstance(prefix, str) else prefix

    def _node_name(self, base: str) -> str:
        """Prefer the short name; disambiguate by ASN when two providers
        provision same-named VPNs into one Network (inter-AS scenarios)."""
        if base not in self.net.nodes:
            return base
        return f"{base}-as{self.asn}"

    def _add_host(self, site: Site, index: int, rate_bps: float) -> Host:
        host = Host(self.net.sim,
                    self._node_name(f"h-{site.vpn_name}-s{site.site_id}-{index}"),
                    trace=self.net.trace)
        self.net.add_node(host, loopback=False)
        dl = self.net.connect(host, site.ce, rate_bps, 0.1e-3)
        site.links.append(dl)
        host_ifname, ce_ifname = dl.if_ab.name, dl.if_ba.name
        host.gateway_ifname = host_ifname
        # Host address inside the site prefix (offset past the link /30s).
        addr = site.prefix.host(10 + index)
        host.add_address(addr, host_ifname)
        host.set_loopback(addr)
        site.ce.add_host_route(addr, ce_ifname)
        return host

    # ------------------------------------------------------------------
    def pes(self) -> list[PeRouter]:
        """All PEs hosting at least one site, in name order."""
        nodes = self.net.nodes
        return [nodes[name] for name in sorted(self._sites_on)]  # type: ignore[misc]

    def bgp_engine(
        self,
        route_reflector: str | None = _KEEP,
        rr_clusters=_KEEP,
    ) -> MpBgp:
        """The provisioner's one MP-BGP engine, built over :meth:`pes` on
        first use and never replaced: a PE serving a site joins it here
        (``MpBgp.add_pe``) and stays, its VRFs importing after its last site
        left, and explicit topology arguments re-lay its sessions in place
        (``MpBgp.relayout``; both ``None`` is a full mesh, both left out
        keep the layout).  Its Adj-RIB makes ``converge_bgp`` after churn an
        incremental resync, and a drain outlives any change of the PE set.
        """
        layout = (None if route_reflector is _KEEP else route_reflector,
                  None if rr_clusters is _KEEP else rr_clusters)
        if self._bgp is None:
            self._bgp = MpBgp(self.net, self.pes(), *layout)
        for pe in self.pes():
            if pe not in self._bgp.pes:
                self._bgp.add_pe(pe)
        if route_reflector is not _KEEP or rr_clusters is not _KEEP:
            self._bgp.relayout(*layout)   # a no-op for the layout it has
        return self._bgp

    def converge_bgp(
        self,
        route_reflector: str | None = _KEEP,
        rr_clusters=_KEEP,
    ) -> BgpResult:
        """Run MP-BGP over every involved PE (tunnels must already exist)."""
        return self.bgp_engine(
            route_reflector=route_reflector, rr_clusters=rr_clusters
        ).converge()

    # ------------------------------------------------------------------
    # Churn: de-provisioning and maintenance
    # ------------------------------------------------------------------
    def remove_site(self, site: Site) -> Site:
        """De-provision one site: unbind its circuit(s) — which withdraws
        every local route learned over them — take what ``add_site`` wired
        (the CE, the hosts, their links, the PE-side interface(s) and the
        /30s) out of the network, then push the withdrawal through MP-BGP
        as a delta.  A packet still queued on or crossing the access link
        is dropped by name (``Network.disconnect``) or arrives.
        """
        v = self.vpns.get(site.vpn_name)
        if v is None or site not in v.sites:
            raise ProvisioningError(
                f"site: {site.vpn_name} site {site.site_id} is not provisioned "
                "(already removed?)"
            )
        pe = site.pe
        names = _vrf_names(v.name, site.role)
        for dl in site.links[:len(names)]:
            pe.unbind_circuit(dl.if_ba.name)
        for dl in site.links:
            self.net.disconnect(dl)
        for node in (*site.hosts, site.ce):
            self.net.remove_node(node)
        v.sites.remove(site)
        self._sites_on[pe.name] -= 1
        if not self._sites_on[pe.name]:
            del self._sites_on[pe.name]
        self.net.counters.incr("vpn.sites", -1)
        # Behind a drained PE there is nobody to tell: its peers dropped its
        # routes when the sessions went down, and restore_pe() re-reads the
        # PE's locals before it re-advertises.  A PE that took its first
        # site after the last bgp_engine() call has not joined the engine
        # and never advertised: the next bgp_engine() joins it if it still
        # serves a site.
        engine = self._bgp
        if engine is not None and pe in engine.pes and pe.name not in engine.drained:
            for vrf_name in names:
                vrf = pe.vrfs.get(vrf_name)
                if vrf is not None:
                    engine.export_delta(pe, vrf)
        return site

    def remove_vpn(self, name: str) -> Vpn:
        """Tear down a whole VPN: every site, then every VRF it created.

        A VRF outlives the last site behind its PE, so the VRFs are found on
        the PEs, not through the sites: every VRF named by the VPN's roles
        that carries its RD (another provider's same-named VPN has another).
        """
        v = self._vpn(name)
        for site in list(reversed(v.sites)):
            self.remove_site(site)
        roles = ("mesh",) if v.topology == "mesh" else ("spoke", "hub")
        vrf_names = [n for role in roles for n in _vrf_names(name, role)]
        engine = self._bgp
        for pe in self.net.nodes.values():
            if not isinstance(pe, PeRouter):
                continue
            for vrf_name in vrf_names:
                vrf = pe.vrfs.get(vrf_name)
                if vrf is None or vrf.rd != v.rd:
                    continue
                if engine is not None and pe in engine.pes:
                    engine.withdraw(pe, vrf=vrf_name)
                    engine.forget_vrf(pe, vrf_name)
                pe.remove_vrf(vrf_name)
        del self.vpns[name]
        return v

    def drain_pe(self, pe: PeRouter | str) -> BgpResult:
        """Maintenance drain: take the PE's iBGP sessions down (implicit
        withdraw of its routes everywhere, flush of its own imports)."""
        if self._bgp is None:
            raise ValueError("no BGP engine yet; run converge_bgp() first")
        return self._bgp.peer_down(pe)

    def restore_pe(self, pe: PeRouter | str) -> BgpResult:
        """Bring a drained PE back into the mesh and refresh its VRFs."""
        if self._bgp is None:
            raise ValueError("no BGP engine yet; run converge_bgp() first")
        return self._bgp.peer_up(pe)

    # ------------------------------------------------------------------
    def state_census(self) -> dict[str, int]:
        """Aggregate per-device VPN state for the E1 comparison."""
        pes = self.pes()
        vrf_entries = sum(pe.vrf_state_entries() for pe in pes)
        vrf_count = sum(len(pe.vrfs) for pe in pes)
        sites = sum(len(v.sites) for v in self.vpns.values())
        return {
            "sites": sites,
            "pes": len(pes),
            "vrfs": vrf_count,
            "vrf_routes_total": vrf_entries,
            "bgp_sessions": self.net.counters["bgp.sessions"],
            "bgp_updates": self.net.counters["bgp.updates"],
        }
