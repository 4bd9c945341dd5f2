"""One network auditor: the invariants a built network must hold.

``audit(net)`` sweeps a built network and returns a list of
:class:`Finding`, errors first, then warnings, then notes.  The rules, by
``check`` name:

* ``interface`` (error): an interface with no attached link, or with a
  non-positive rate.
* ``address`` (error): an address held by two routers of one provider
  domain.  Customer addresses may overlap freely across VPNs.
* ``lfib`` / ``ftn`` (error): an entry pointing at a missing interface; a
  PE's VPN label naming a VRF the PE does not hold.
* ``c1`` (error): a non-PE node holding a VRF, or an LFIB entry bound to
  one.  Claim C1: core LSRs hold only the transport labels every VPN
  shares.
* ``igp`` (error): an ``spf`` FIB route with a path (primary or ECMP
  alternate) out of a missing interface, or out of one whose link is down.
  The IGP writes only on convergence: between a link flap and the
  ``converge_all`` after it, the routes the flap cut are reported here.
* ``ldp`` (error): an LDP-owned LFIB SWAP / POP or FTN entry that leaves
  on a down interface, or on one the FIB's route for its FEC does not use
  (ECMP alternates count); or that sends a label its next hop does not hold
  for the same FEC.  LDP follows the IGP: between a ``reconverge`` and the
  ``run_ldp`` after it, the entries the flap moved are reported here.
* ``loopback`` (error): a PE with VRFs and no loopback (MP-BGP's next hop).
* ``vrf`` (error / warning): a VRF bound to a missing interface; a VRF
  with no circuits and no routes.
* ``cache`` (note): a ``GenCache`` whose captured generation trails its
  source table's.  This is legal live state (the guard flushes on the next
  probe), so the snapshot contract is that a restore leaves the list
  identical: it neither invents staleness nor discards warm state.
* ``keys`` (error): a FIB or VRF table keyed by something that is not a
  :class:`~repro.net.address.Prefix`, or a VRF route target that is not a
  :class:`~repro.vpn.rd_rt.RouteTarget` — and, given the MP-BGP engine
  (``bgp=``), the same of its Adj-RIB-Out and RT index, reported under the
  node ``mp-bgp``.  A plain ``(network, length)`` tuple
  hashes and compares like the ``Prefix`` it spells, so a key that lost its
  type in a restore (or was written around the constructors) answers
  lookups and fails only where the type is read.
* ``importers`` (error, given ``bgp=``): the engine's RT -> importing-VRF
  index (if built: never here) lists a VRF its PE dropped or that does not
  import the RT, or misses one with a sync record (a hand policy, till converge).
* ``imports`` (error, given ``bgp=``): a VRF entry that is not a local
  (so an advertisement object, :class:`~repro.vpn.bgp.VpnRoute`, what the
  engine imports) in a VRF of one of the engine's PEs that is not the
  route the Adj-RIB-Out holds for that prefix from its origin, that comes
  from a drained PE or sits on one, or that carries no RT of the import
  policy the engine acts on for that VRF.  The table is the engine's only record of its imports, so this is
  the check that the record says what the Adj-RIB-Out does.  Reported under
  the PE holding the VRF.

The auditor only reads.  It looks nothing up, probes no cache and moves no
counter, so it may run on the live graph the warm-start sweep shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.mpls.label import EXPLICIT_NULL, IMPLICIT_NULL
from repro.mpls.ldp import _owned as _ldp_owned
from repro.mpls.lfib import LabelOp
from repro.mpls.lsr import Lsr
from repro.net.address import Prefix
from repro.routing.router import Router
from repro.vpn.pe import PeRouter
from repro.vpn.rd_rt import RouteTarget

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataplane.pipeline import ForwardingPipeline
    from repro.net.node import Node
    from repro.topology import Network
    from repro.vpn.bgp import MpBgp

__all__ = ["Finding", "audit"]

_RANK = {"error": 0, "warning": 1, "note": 2}
_Rule = Iterator[tuple[str, str, str]]  # (severity, check, message)


@dataclass(frozen=True, slots=True)
class Finding:
    """One audit result; ``check`` names the rule that made it."""

    severity: str   # "error" | "warning" | "note"
    check: str
    node: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.node}: {self.message}"


def audit(net: "Network", bgp: "MpBgp | None" = None) -> list[Finding]:
    """Run every rule on every node, and the engine rules on ``bgp`` when
    the network's MP-BGP engine is given; see module docstring.  Sorted by
    severity, then by node, in emission order within one node."""
    seen: dict = {}  # (provider domain, address) -> first router holding it
    found = [
        Finding(severity, check, node.name, message)
        for node in net.nodes.values()
        for severity, check, message in _node_rules(node, seen)
    ]
    if bgp is not None:
        found.extend(Finding(*f) for f in _engine_keys(bgp))
        found.extend(Finding(*f) for f in _engine_imports(bgp))
    found.sort(key=lambda f: (_RANK[f.severity], f.node))
    return found


def _node_rules(node: "Node", seen: dict) -> _Rule:
    for ifname, iface in node.interfaces.items():
        if iface.link is None:
            yield "error", "interface", f"interface {ifname} has no attached link"
        if iface.rate_bps <= 0:
            yield "error", "interface", f"interface {ifname} has non-positive rate"
    if not isinstance(node, Router):
        return
    if node.domain != "customer":
        for addr in node.addresses:
            holder = seen.setdefault((node.domain, addr), node.name)
            if holder != node.name:
                yield "error", "address", f"{node.domain} address {addr} also on {holder}"
    yield from _igp_routes(node)
    if isinstance(node, Lsr):
        yield from _label_state(node)
    if isinstance(node, PeRouter):
        yield from _vrf_state(node)
    yield from _bad_keys("FIB", node.fib.prefixes(), Prefix)
    for vrf in getattr(node, "vrfs", {}).values():
        yield from _bad_keys(f"VRF {vrf.name} table", vrf.prefixes(), Prefix)
        yield from _bad_keys(f"VRF {vrf.name} route targets",
                             (*vrf.import_rts, *vrf.export_rts), RouteTarget)
    yield from _cache_notes(node.pipeline)


def _bad_keys(what: str, keys: Iterable, cls: type) -> _Rule:
    """One ``keys`` error for a collection holding keys of another type."""
    bad = [k for k in keys if type(k) is not cls]
    if bad:
        yield "error", "keys", (f"{what}: {len(bad)} key(s) not a {cls.__name__}, "
                                f"e.g. {bad[0]!r} ({type(bad[0]).__name__})")


def _engine_keys(bgp: "MpBgp") -> Iterator[tuple[str, str, str, str]]:
    """The ``keys`` rule over the engine's prefix- and RT-keyed state."""
    for (pe, vrf), routes in bgp._rib.items():
        for severity, check, message in _bad_keys(f"Adj-RIB-Out of {pe}/{vrf}", routes, Prefix):
            yield severity, check, "mp-bgp", message
    for severity, check, message in _bad_keys("RT index", bgp._rt_index, RouteTarget):
        yield severity, check, "mp-bgp", message
    for rt, by_prefix in bgp._rt_index.items():
        for severity, check, message in _bad_keys(f"RT index {rt}", by_prefix, Prefix):
            yield severity, check, "mp-bgp", message
    yield from _engine_importers(bgp)


def _engine_importers(bgp: "MpBgp") -> Iterator[tuple[str, str, str, str]]:
    """The ``importers`` rule; an index not built yet has nothing to check."""
    index, bad = bgp._importers, ("error", "importers", "mp-bgp")
    if index is None:
        return
    for rt, entries in index.items():
        for (pe, name), vrf in entries.items():
            if bgp._pe_by_name[pe].vrfs.get(name) is not vrf or rt not in vrf.import_rts:
                yield *bad, f"importers of {rt} list {pe}/{name}, not a VRF of {pe} importing it"
    for (pe, name), (vrf, *_) in bgp._synced.items():
        for rt in vrf.import_rts:
            if index.get(rt, {}).get((pe, name)) is not vrf:
                yield *bad, f"importers of {rt} miss {pe}/{name}, which imports it"


def _engine_imports(bgp: "MpBgp") -> Iterator[tuple[str, str, str, str]]:
    """The ``imports`` rule: every entry of a VRF of the engine's PEs that is
    not a local is advertised, in session and under the VRF's policy."""
    advertised = {route for rib in bgp._rib.values() for route in rib.values()}
    down = bgp._down
    for pe in bgp.pes:
        for vrf in pe.vrfs.values():
            policy = bgp._policy((pe.name, vrf.name), vrf)
            for prefix, route in vrf.entries().items():
                if route.kind == "local":
                    continue
                what = f"VRF {vrf.name} import of {prefix} from {route.origin_pe}"
                if route.prefix != prefix or route not in advertised:
                    yield "error", "imports", pe.name, f"{what} is not in its Adj-RIB-Out"
                if route.origin_pe in down or pe.name in down:
                    yield "error", "imports", pe.name, f"{what} crosses a drained PE"
                if route.route_targets.isdisjoint(policy):
                    yield "error", "imports", pe.name, f"{what} carries no RT the VRF imports"


def _igp_routes(node: Router) -> _Rule:
    """The ``igp`` rule: every path of an IGP route leaves on a live interface."""
    interfaces = node.interfaces
    for prefix, route in node.fib.routes():
        if route.source != "spf":
            continue
        for ifname, _nh in route.all_paths:
            iface = interfaces.get(ifname)
            if iface is None:
                yield "error", "igp", f"IGP route {prefix} leaves on missing interface {ifname!r}"
            elif iface.link is not None and not iface.link.up:
                yield "error", "igp", f"IGP route {prefix} leaves on {ifname!r}, which is down"


def _label_state(node: Lsr) -> _Rule:
    core = not isinstance(node, PeRouter)
    vrfs = getattr(node, "vrfs", {})
    for in_label, entry in node.lfib.entries().items():
        if entry.out_ifname is not None and entry.out_ifname not in node.interfaces:
            yield "error", "lfib", (f"LFIB label {in_label} points to missing "
                                    f"interface {entry.out_ifname!r}")
        if core and entry.vrf is not None:
            yield "error", "c1", f"LFIB label {in_label} is bound to VRF {entry.vrf!r} on a non-PE"
        elif entry.op is LabelOp.VPN and entry.vrf not in vrfs:
            yield "error", "lfib", f"LFIB label {in_label} targets unknown VRF {entry.vrf!r}"
        if _ldp_owned(entry) and entry.op in (LabelOp.SWAP, LabelOp.POP):
            yield from _ldp_hop(node, f"LDP label {in_label}", entry.lsp_id,
                                entry.out_ifname, entry.out_label)
    if core:
        for name in vrfs:
            yield "error", "c1", f"non-PE holds VRF {name!r}"
    for prefix, nhlfe in node.ftn.entries().items():
        if nhlfe.out_ifname not in node.interfaces:
            yield "error", "ftn", f"FTN {prefix} points to missing interface {nhlfe.out_ifname!r}"
        elif _ldp_owned(nhlfe):
            pushed = nhlfe.labels[-1]
            yield from _ldp_hop(node, "LDP FTN", nhlfe.lsp_id, nhlfe.out_ifname,
                                None if pushed == IMPLICIT_NULL else pushed)


def _ldp_hop(node: Lsr, what: str, lsp_id: str, ifname: str, out_label: int | None) -> _Rule:
    """The ``ldp`` rule for one LDP-owned entry: it leaves where the IGP
    does, and the label it sends (``None``: unlabelled) is held downstream."""
    iface = node.interfaces.get(ifname)
    if iface is None or iface.link is None:
        return  # the lfib / ftn / interface rules name it
    fec = lsp_id.partition(":")[2]
    route = node.fib.get(fec)
    if not iface.link.up:
        yield "error", "ldp", f"{what} for {fec} leaves on {ifname!r}, which is down"
    elif route is None or all(ifname != out for out, _nh in route.all_paths):
        yield "error", "ldp", (f"{what} for {fec} leaves on {ifname!r}, which the "
                               f"FIB route for {fec} does not use")
    if out_label is None:
        return
    peer = iface.link.dst_node
    held = peer.lfib.entries().get(out_label) if isinstance(peer, Lsr) else None
    if held is None or not (held.lsp_id == lsp_id or (
            out_label == EXPLICIT_NULL and held.op is LabelOp.POP_PROCESS)):
        yield "error", "ldp", (f"{what} for {fec} sends label {out_label} to "
                               f"{peer.name}, which does not hold it for {fec}")


def _vrf_state(node: PeRouter) -> _Rule:
    if node.vrfs and node.loopback is None:
        yield "error", "loopback", "PE has VRFs but no loopback (MP-BGP next hop)"
    bound = node._vrf_of_circuit
    for ifname, vrf in bound.items():
        if ifname not in node.interfaces:
            yield "error", "vrf", f"VRF {vrf.name} bound to missing interface {ifname!r}"
    for vrf in node.vrfs.values():
        if len(vrf) == 0 and vrf not in bound.values():
            yield "warning", "vrf", f"VRF {vrf.name} has no circuits and no routes"


def _cache_notes(pipe: "ForwardingPipeline") -> _Rule:
    caches = [("flow_cache", pipe.flow_cache),
              *((f"vrf[{name}]", cache) for name, cache in pipe.vrf_caches.items())]
    for name, cache in caches:
        for which, captured, source in (("primary", cache._gen_p, cache._primary),
                                        ("secondary", cache._gen_s, cache._secondary)):
            if source is not None and captured != source.generation:
                yield "note", "cache", (f"{name} captured {which} gen {captured} "
                                        f"!= source gen {source.generation}")
