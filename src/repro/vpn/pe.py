"""Provider Edge router.

The PE is where RFC 2547 happens: customer-facing interfaces are bound to
VRFs, customer packets are looked up in *their* VRF only, and remote
destinations get the two-level label stack — inner VPN label (selects the
VRF at the egress PE), outer tunnel label (the LDP/TE LSP to the egress
PE's loopback).  The core never sees customer addresses, which is both the
scalability argument (claim C1: P routers keep no per-VPN state) and the
isolation argument (claim C5).

QoS at the edge (claim C6): the PE copies the customer's DSCP into the
EXP bits of both imposed labels, so the core can schedule on EXP without
ever parsing the customer header.  That is the LSR's ``impose_exp``
policy, which covers VPN imposition too: ``None`` maps DSCP to EXP, an
int pins it (``PeRouter(..., qos_exp_mapping=False)`` pins 0).

Data-plane mechanics (VRF demux, customer lookup, two-level imposition,
egress delivery) live in the shared
:class:`~repro.dataplane.ForwardingPipeline`; this class enables its
vrf-demux stage and keeps the control plane (VRF provisioning, circuit
binding).
"""

from __future__ import annotations

from typing import Optional

from repro.mpls.lfib import LabelOp, LfibEntry
from repro.mpls.lsr import Lsr
from repro.net.packet import Packet
from repro.vpn.rd_rt import RouteDistinguisher, RouteTarget
from repro.vpn.vrf import Vrf

__all__ = ["PeRouter"]


class PeRouter(Lsr):
    """LSR + VRFs + attachment circuits.

    ``impose_exp`` (the LSR's) sets the EXP of the VPN stack as well, and
    ``exp_mode`` says whether the VPN label carries it or gets 0.
    """

    def __init__(self, sim, name, qos_exp_mapping: bool = True, **kw) -> None:
        super().__init__(sim, name, **kw)
        self.vrfs: dict[str, Vrf] = {}
        # Attachment circuit name -> its VRF: the one record of a binding.
        self._vrf_of_circuit: dict[str, Vrf] = {}
        if not qos_exp_mapping:
            self.impose_exp = 0
        # Which stack entries carry the class: "both" (RFC 3270's safe
        # choice) or "outer-only" (loses the class at penultimate-hop pop —
        # the E9c ablation shows the resulting last-hop QoS hole).
        self.exp_mode = "both"
        self.vpn_deliver = self._vpn_deliver
        # Turn on the pipeline's vrf-demux stage: customer packets arriving
        # on attachment circuits are looked up in their VRF only.
        self.pipeline.enable_vrf_demux(self._vrf_of_circuit, self.vrfs)

    # ------------------------------------------------------------------
    # Control plane / provisioning
    # ------------------------------------------------------------------
    def add_vrf(
        self,
        name: str,
        rd: RouteDistinguisher,
        import_rts: frozenset[RouteTarget] | set[RouteTarget],
        export_rts: frozenset[RouteTarget] | set[RouteTarget],
    ) -> Vrf:
        """Create a VRF and allocate its aggregate VPN label.

        The label is installed in this PE's LFIB with the VPN op, so
        tunnel-decapsulated packets carrying it land in the right table.
        """
        if name in self.vrfs:
            raise ValueError(f"{self.name}: duplicate VRF {name!r}")
        label = self.labels.allocate()
        vrf = Vrf(name, rd, frozenset(import_rts), frozenset(export_rts), label)
        self.vrfs[name] = vrf
        self.lfib.install(label, LfibEntry(LabelOp.VPN, vrf=name, lsp_id=f"vrf:{name}"))
        return vrf

    def bind_circuit(self, ifname: str, vrf_name: str) -> None:
        """Attach a customer-facing interface to a VRF.

        The interface's connected subnet is *moved* out of the global
        routing context into the VRF so it never enters the provider IGP.
        """
        if ifname not in self.interfaces:
            raise ValueError(f"{self.name}: no interface {ifname!r}")
        vrf = self.vrfs[vrf_name]
        self._vrf_of_circuit[ifname] = vrf
        for subnet, owner_if in list(self.connected_prefixes.items()):
            if owner_if == ifname:
                del self.connected_prefixes[subnet]
                vrf.add_local(subnet, ifname)

    def unbind_circuit(self, ifname: str) -> list:
        """Detach a customer-facing interface from its VRF.

        Every local route learned over this circuit (the site prefixes
        *and* the access /30 that :meth:`bind_circuit` moved in) is
        withdrawn in one batch; the freed prefixes are returned so the
        provisioner can drive the MP-BGP withdraw.  The interface itself
        is the network's to remove (``Network.disconnect``, which
        ``VpnProvisioner.remove_site`` calls next).
        """
        vrf = self._vrf_of_circuit.pop(ifname, None)
        if vrf is None:
            raise ValueError(f"{self.name}: {ifname!r} is not bound to a VRF")
        gone = vrf.circuit_prefixes(ifname)
        vrf.remove_many(gone)
        return gone

    def remove_vrf(self, name: str) -> Vrf:
        """Delete a VRF: free its aggregate label and LFIB entry.

        All circuits must be unbound first — a VRF with live attachment
        circuits still owns customer traffic.
        """
        vrf = self.vrfs.get(name)
        if vrf is None:
            raise ValueError(f"{self.name}: no VRF {name!r}")
        if vrf in self._vrf_of_circuit.values():
            raise ValueError(f"{self.name}: VRF {name!r} still has circuits")
        del self.vrfs[name]
        # The per-VRF decision cache is guarded by this Vrf object; a later
        # VRF of the same name must start from its own.
        self.pipeline.vrf_caches.pop(name, None)
        self.lfib.remove(vrf.vpn_label)
        self.labels.release(vrf.vpn_label)
        return vrf

    def vrf_of_circuit(self, ifname: str) -> Optional[Vrf]:
        return self._vrf_of_circuit.get(ifname)

    # ------------------------------------------------------------------
    # Data plane (delegated to the pipeline)
    # ------------------------------------------------------------------
    def _vpn_deliver(self, pkt: Packet, vrf_name: str) -> None:
        """Egress side: tunnel label already removed, VPN label popped."""
        self.pipeline.vpn_egress(pkt, vrf_name)

    # ------------------------------------------------------------------
    def vrf_state_entries(self) -> int:
        """Total per-VPN state on this PE (for the E1 state census)."""
        return Vrf.total_entries(self.vrfs.values())
