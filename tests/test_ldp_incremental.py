"""Property tests for LDP following the IGP.

:func:`repro.mpls.ldp.run_ldp` diffs the bindings the current IGP view
implies against the LFIB / FTN entries LDP holds and writes only the
difference, keeping each LSR's label while its FEC stays reachable.  The
property: after *any* sequence of single-link fail/restore events, each
followed by ``reconverge`` + ``run_ldp``, the label forwarding state equals
what the reference LDP installs on a fresh rebuild with the same links up
(compared modulo label values), every allocated label is one LDP holds, and
an immediate second pass writes nothing — under PHP, explicit-null and
no-PHP alike.  Then the same on the E15 base across one core flap: the
labels in use do not move, the audit is clean, only the LSRs whose first
hop changed write, and a VPN packet whose LSP crossed the link arrives.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.audit import audit
from repro.experiments.e1_scalability import mpls_base
from repro.mpls.label import EXPLICIT_NULL, IMPLICIT_NULL
from repro.mpls.ldp import run_ldp
from repro.mpls.lfib import LabelOp
from repro.mpls.lsr import Lsr
from repro.net.address import Prefix
from repro.net.packet import IPHeader, Packet
from repro.routing.spf import converge, reconverge
from repro.topology import Network, build_backbone, build_fish
from tests.reference.routing import converge_reference, run_ldp_reference

slow_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _lsr(net, name):
    return net.add_node(Lsr(net.sim, name))


def build_parallel(net):
    """A ring of four LSRs, every hop a pair of equal-metric links, and a
    heavier chord: failing the link in use must move the LSPs onto its twin."""
    lsrs = [_lsr(net, f"r{i}") for i in range(4)]
    for i in range(4):
        for _ in range(2):
            net.connect(lsrs[i], lsrs[(i + 1) % 4])
    net.connect(lsrs[0], lsrs[2], metric=3.0)


BUILDERS = {
    "backbone": lambda net: build_backbone(net, node_factory=_lsr),
    "fish": lambda net: build_fish(net, node_factory=_lsr),
    "parallel": build_parallel,
}

MODES = {
    "php": {"php": True, "use_explicit_null": False},
    "explicit_null": {"php": False, "use_explicit_null": True},
    "no_php": {"php": False, "use_explicit_null": False},
}


def lsrs(net):
    return [node for node in net.nodes.values() if isinstance(node, Lsr)]


def _downstream(node, ifname, label):
    """A sent label named by the binding it selects: the reserved values
    as themselves, any other as (next hop, the FEC it holds the label for)."""
    if label in (IMPLICIT_NULL, EXPLICIT_NULL):
        return label
    peer = node.interfaces[ifname].link.dst_node
    entry = peer.lfib.entries().get(label)
    return peer.name, None if entry is None else entry.lsp_id


def forwarding(net):
    """Per LSR and FEC: the LFIB op, out interface and downstream binding,
    and the FTN's out interface and downstream binding — no label values."""
    state = {}
    for node in lsrs(net):
        for entry in node.lfib.entries().values():
            down = (None if entry.out_label is None
                    else _downstream(node, entry.out_ifname, entry.out_label))
            state[node.name, "lfib", entry.lsp_id] = (entry.op, entry.out_ifname, down)
        for fec, nhlfe in node.ftn.entries().items():
            state[node.name, "ftn", fec] = (
                nhlfe.lsp_id, nhlfe.out_ifname,
                _downstream(node, nhlfe.out_ifname, nhlfe.labels[-1]),
            )
    return state


def tables(net):
    """Everything a pass may write: entries, generations, allocated labels."""
    return {
        node.name: (node.lfib.entries(), node.ftn.entries(), node.lfib.generation,
                    node.ftn.generation, list(node.labels.allocated()))
        for node in lsrs(net)
    }


def fresh_reference(topo, net, mode):
    """The oracle: the same topology rebuilt with ``net``'s link states, then
    the reference IGP and LDP from scratch."""
    ref = Network(seed=47)
    BUILDERS[topo](ref)
    for dl_ref, dl in zip(ref.duplex_links, net.duplex_links):
        dl_ref.set_up(dl.link_ab.up)
    converge_reference(ref)
    run_ldp_reference(ref, **MODES[mode])
    return ref


def _run_sequence(topo, mode, steps):
    net = Network(seed=47)
    BUILDERS[topo](net)
    converge(net)
    run_ldp(net, **MODES[mode])
    for step in steps:
        dl = net.duplex_links[step % len(net.duplex_links)]
        dl.set_up(not dl.link_ab.up)
        reconverge(net)
        run_ldp(net, **MODES[mode])
        assert forwarding(net) == forwarding(fresh_reference(topo, net, mode))
        # Nothing leaks: every allocated label is an incoming label LDP holds.
        for node in lsrs(net):
            held = sorted(label for label in node.lfib.entries() if label != EXPLICIT_NULL)
            assert list(node.labels.allocated()) == held, node.name
        before = tables(net)
        again = run_ldp(net, **MODES[mode])
        assert (again.written, again.withdrawn, again.mapping_messages) == (0, 0, 0)
        assert tables(net) == before


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("topo", sorted(BUILDERS))
@slow_settings
@given(steps=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=6))
def test_flap_sequences_match_a_fresh_distribution(topo, mode, steps):
    _run_sequence(topo, mode, steps)


def test_partition_and_heal():
    # Failing both of E1's uplinks partitions it: every binding for its
    # loopback is withdrawn and its labels released; restoring rebinds.
    _run_sequence("backbone", "no_php", [6, 7, 6, 7])


# ---------------------------------------------------------------------------
# The E15 base (one 40-site VPN on the reference backbone) across a core flap
# ---------------------------------------------------------------------------

def labels_in_use(net):
    return sum(node.labels.in_use for node in lsrs(net))


def lsp_path(net, ingress, fec):
    """The LSRs a labelled packet for ``fec`` visits from ``ingress``."""
    node = net.nodes[ingress]
    nhlfe = node.ftn.lookup(fec)
    path, ifname, label = [ingress], nhlfe.out_ifname, nhlfe.labels[-1]
    while True:
        node = node.interfaces[ifname].link.dst_node
        path.append(node.name)
        if label == IMPLICIT_NULL:
            return path  # popped one hop upstream
        entry = node.lfib.entries()[label]
        if entry.op is LabelOp.POP_PROCESS:
            return path
        ifname = entry.out_ifname
        label = entry.out_label if entry.op is LabelOp.SWAP else IMPLICIT_NULL


def first_hops(net, fecs):
    """(LSR, FEC) -> the interface its FIB route for the FEC leaves on."""
    return {
        (node.name, fec): route.out_ifname
        for node in lsrs(net) for fec in fecs
        if (route := node.fib.get(fec)) is not None
    }


def test_pass_on_an_unchanged_igp_writes_nothing():
    ctx = mpls_base(40)
    net = ctx["net"]
    before, msgs = tables(net), net.counters["ldp.mapping_msgs"]
    res = run_ldp(net)
    assert (res.written, res.withdrawn, res.mapping_messages) == (0, 0, 0)
    assert res.bindings == ctx["ldp"].bindings       # every label kept
    assert tables(net) == before                     # no write, no generation, no label
    assert net.counters["ldp.mapping_msgs"] == msgs


def test_one_pass_follows_a_core_flap():
    ctx = mpls_base(40)
    net, prov, nodes = ctx["net"], ctx["prov"], ctx["nodes"]
    vpn = prov.vpns["corp"]
    src, dst = prov.add_site(vpn, nodes["E2"]), prov.add_site(vpn, nodes["E3"])
    prov.converge_bgp()
    fec = Prefix.of(nodes["E3"].loopback, 32)
    assert lsp_path(net, "E2", fec) == ["E2", "P1", "P2", "E3"]
    assert labels_in_use(net) == 140
    fecs = list(ctx["ldp"].bindings)
    hops, gens = first_hops(net, fecs), {n.name: (n.lfib.generation, n.ftn.generation)
                                        for n in lsrs(net)}

    net.link_between("P1", "P2").set_up(False)
    reconverge(net)
    res = run_ldp(net)

    assert res.mapping_messages == 0 and res.withdrawn == 0
    assert labels_in_use(net) == 140
    assert [f for f in audit(net) if f.severity == "error"] == []
    assert lsp_path(net, "E2", fec) == ["E2", "P1", "P4", "E3"]
    # Only an LSR whose first hop toward some FEC changed rewrote anything.
    changed = {name for (name, f), out in first_hops(net, fecs).items() if hops[name, f] != out}
    moved = {n.name for n in lsrs(net) if (n.lfib.generation, n.ftn.generation) != gens[n.name]}
    assert moved == changed == {"E2", "E3", "E5", "E7", "P1", "P2"}
    # A VPN packet whose LSP crossed P1-P2 is delivered inside its VPN.
    h1, h2 = src.hosts[0], dst.hosts[0]
    got = []
    h2.add_local_sink(got.append)
    probe = Packet(ip=IPHeader(h1.loopback, h2.loopback), payload_bytes=100)
    net.sim.schedule(0.0, lambda: h1.send(probe))
    net.run(until=net.sim.now + 1.0)
    assert got == [probe]
