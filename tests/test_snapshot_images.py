"""Every per-site record is imaged as the flat tuple of its fields, and a
CE builds its forwarding pipeline on its first packet.

The drift guard: one round trip per class imaged that way, from a live
instance with every field set away from its default, compared field by
field.  A field added to a class without its entry in the image comes back
missing (or at its class default) and fails here, naming the class and the
field.  The frozen route and label records are rebuilt through their
constructors, so a restored one is checked again as a new one is.

A router that never forwarded holds no pipeline and no flow cache, and the
readers that look at pipelines (the audit, telemetry) build none.
"""

from __future__ import annotations

import dataclasses
import pickle
from typing import Any

import pytest

from repro.audit import audit
from repro.control import converge_all
from repro.experiments.e1_scalability import mpls_base
from repro.mpls.lfib import LabelOp, LfibEntry
from repro.mpls.lsr import Lsr
from repro.net.address import IPv4Address
from repro.obs import runtime as obs_runtime
from repro.qos.queues import DropTailFifo, PriorityScheduler
from repro.qos.shaper import TokenBucketShaper
from repro.routing.fib import RouteEntry
from repro.sim.snapshot import restore_network, snapshot_network
from repro.topology import Network
from repro.vpn.pe import PeRouter
from repro.vpn.provision import VpnProvisioner
from repro.vpn.vrf import VrfRoute

def _site():
    net = Network(seed=3)
    pe = net.add_node(PeRouter(net.sim, "pe"))
    prov = VpnProvisioner(net)
    return net, prov.add_site(prov.create_vpn("v"), pe, num_hosts=0)


def _live(name: str) -> Any:
    """A live instance of the class ``name``, as a built network holds it."""
    if name == "TokenBucketShaper":
        return TokenBucketShaper(1e6, 3000)
    net, site = _site()
    duplex = site.links[0]
    return {
        "Link": duplex.link_ab,
        "Interface": duplex.if_ab,
        "DropTailFifo": duplex.if_ab.qdisc,
        "DuplexLink": duplex,
        "Site": site,
        "NodeStats": site.ce.stats,
    }[name]


def _fields(obj: Any) -> list[str]:
    """What an instance of ``type(obj)`` may hold: its slots along the MRO,
    its instance attributes, and the plain class defaults an instance may
    shadow (``DropTailFifo.name``, ``QueueDiscipline.interface``, ...)."""
    names = dict.fromkeys(
        slot for cls in type(obj).__mro__ for slot in vars(cls).get("__slots__", ())
    )
    names.update(dict.fromkeys(getattr(obj, "__dict__", {})))
    for cls in type(obj).__mro__[:-1]:
        for key, value in vars(cls).items():
            if not key.startswith("__") and not callable(value) and not isinstance(
                value, (property, staticmethod, classmethod)
            ):
                names[key] = None
    return list(names)


_TUPLE_IMAGED = ["Link", "Interface", "DropTailFifo", "TokenBucketShaper",
                 "DuplexLink", "Site", "NodeStats"]


@pytest.mark.parametrize("name", _TUPLE_IMAGED)
def test_every_field_survives_the_round_trip(name: str) -> None:
    obj = _live(name)
    assert type(obj).__name__ == name
    marks = {}
    for field in _fields(obj):
        marks[field] = f"{name}.{field}"
        object.__setattr__(obj, field, marks[field])
    back = pickle.loads(pickle.dumps(obj, protocol=4))
    assert type(back) is type(obj)
    for field, mark in marks.items():
        got = getattr(back, field, "<missing>")
        assert got == mark, f"{name}.{field} is not in its image (restored as {got!r})"
    assert set(_fields(back)) == set(marks), f"{name}: the image adds a field"


#: A non-default value for every field of each frozen record.
_RECORDS = {
    RouteEntry: dict(out_ifname="eth1", next_hop=IPv4Address.parse("10.1.2.3"), metric=7.0,
                     source="spf", alternates=(("eth2", IPv4Address.parse("10.1.2.4")),)),
    VrfRoute: dict(out_ifname="to-ce", next_hop=IPv4Address.parse("10.9.0.2"), origin_site=4),
    LfibEntry: dict(op=LabelOp.SWAP_PUSH, out_label=1001, out_ifname="to-p1", vrf="v",
                    push_label=1002, lsp_id="frr:p1-p2"),
}


@pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda c: c.__name__)
def test_frozen_record_is_rebuilt_through_its_constructor(cls: type) -> None:
    values = _RECORDS[cls]
    for field in dataclasses.fields(cls):
        assert field.name in values, f"{cls.__name__}.{field.name} has no test value"
        assert values[field.name] != field.default, f"{cls.__name__}.{field.name} is its default"
    rec = cls(**values)
    assert rec.__reduce__()[0] is cls
    back = pickle.loads(pickle.dumps(rec, protocol=4))
    assert type(back) is cls
    for field in dataclasses.fields(cls):
        assert getattr(back, field.name) == values[field.name], (
            f"{cls.__name__}.{field.name} is not in its image"
        )


def test_restored_lfib_entry_is_checked_again() -> None:
    entry = LfibEntry(LabelOp.SWAP, out_label=1001, out_ifname="to-p1")
    object.__setattr__(entry, "out_label", 1 << 20)  # past the 20-bit range
    blob = pickle.dumps(entry, protocol=4)
    with pytest.raises(ValueError, match="20-bit"):
        pickle.loads(blob)


def _to_class_0(_pkt) -> int:
    return 0


def test_fifo_restores_the_class_defaults_it_shadows() -> None:
    """A class queue's given name, an installed FIFO's interface and drop
    callback and a fluid standing backlog are instance values over class
    defaults; the image keeps each, and a FIFO that shadows none still reads
    the class's."""
    net = Network(seed=3)
    net.add_router("a")
    net.add_router("b")
    duplex = net.connect("a", "b")
    prio = PriorityScheduler([DropTailFifo(name="ef"), DropTailFifo()], _to_class_0)
    duplex.if_ab.qdisc = prio
    fifo = duplex.if_ba.qdisc
    fifo.set_fluid_background(2e6, 4500)
    back = pickle.loads(pickle.dumps(duplex, protocol=4))
    assert [cq.name for cq in back.if_ab.qdisc.classes] == ["ef", "class1"]
    assert all(cq.on_drop is back.if_ab for cq in back.if_ab.qdisc.classes)
    assert back.if_ab.qdisc.interface is back.if_ab
    rfifo = back.if_ba.qdisc
    assert rfifo.interface is back.if_ba and rfifo.on_drop is back.if_ba
    assert (rfifo.fluid_background_bps, rfifo.fluid_standing_bytes) == (2e6, 4500)
    plain = pickle.loads(pickle.dumps(DropTailFifo(), protocol=4))
    assert (plain.name, plain.interface, plain.fluid_standing_bytes) == ("fifo", None, 0)
    shaper = pickle.loads(pickle.dumps(TokenBucketShaper(1e6, 3000), protocol=4))
    assert shaper.name == "shaper" and shaper.bucket.burst_bytes == 3000


# ----------------------------------------------------------------------
# A pipeline on the first packet


def test_audit_of_e1_builds_no_pipeline_and_reads_alike_restored() -> None:
    ctx = mpls_base(1000)
    net = ctx["net"]
    ces = [site.ce for vpn in ctx["prov"].vpns.values() for site in vpn.sites]
    assert len(ces) == 1000
    assert all(ce.built_pipeline() is None for ce in ces)
    # An LSR and a PE enable their stages on theirs at construction.
    assert all(r.built_pipeline() is not None for r in net.routers() if isinstance(r, Lsr))
    live = audit(net)
    assert all(ce.built_pipeline() is None for ce in ces)
    net2, _extras = restore_network(snapshot_network(net))
    assert audit(net2) == live
    assert all(net2.nodes[ce.name].built_pipeline() is None for ce in ces)


def test_first_packet_builds_the_pipeline_once() -> None:
    net, site = _site()
    ce = site.ce
    assert ce.built_pipeline() is None
    pipe = ce.pipeline
    assert ce.built_pipeline() is pipe and ce.pipeline is pipe
    assert pipe.node is ce and pipe.fib is ce.fib


def test_telemetry_scrape_builds_no_pipeline() -> None:
    obs_runtime.reset()
    obs_runtime.enable(profile=False)
    try:
        net, site = _site()
        converge_all(net, None)
        snap = net.telemetry.scrape().snapshot()
    finally:
        obs_runtime.reset()
    assert site.ce.built_pipeline() is None
    nodes = {s["labels"]["node"] for s in snap["repro_cache_hits"]["series"]}
    assert nodes == {"pe"}
