"""RSVP-style admission, written once (``repro.routing.admission``).

Three things the two copies got wrong, each of which fails on the commit
before this file existed, and the invariant the one ledger is held to:

* admission reads the link the reservation's packets use (the domain
  view's: live, lowest metric), not the first one connected;
* a refused ``signal`` / ``teardown`` is a named error raised before
  anything is written;
* on the E6 fish, after any sequence of setups, teardowns, refusals and
  link flaps, what the ledger holds is exactly what the live LSPs booked.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

import repro.mpls.te
import repro.qos.intserv
from repro.mpls import Lsr, TrafficEngineering
from repro.qos.classifier import FlowMatch
from repro.qos.intserv import IntServ
from repro.routing import AdmissionError, ReservationLedger, converge
from repro.topology import Network, build_fish


def lsr_net(*links):
    """LSRs and links from ``(u, v, rate_bps, metric)`` tuples, in order."""
    net = Network()
    for u, v, *_ in links:
        for name in (u, v):
            if name not in net.nodes:
                net.add_node(Lsr(net.sim, name))
    for u, v, rate, metric in links:
        net.connect(u, v, rate_bps=rate, metric=metric)
    converge(net)
    return net


def test_one_admission_error_and_one_ledger():
    assert repro.mpls.te.AdmissionError is repro.qos.intserv.AdmissionError is AdmissionError
    assert issubclass(TrafficEngineering, ReservationLedger)
    assert issubclass(IntServ, ReservationLedger)


class TestAdmissionReadsTheRateTheWireHas:
    """A transmitter reshaped after ``connect`` is booked at the rate it
    has, each direction on its own.  Admission used to read the rate
    ``connect`` copied onto the duplex link, and booked 5 Mb/s on a 2 Mb/s
    transmitter."""

    def test_a_reshaped_transmitter(self):
        net = lsr_net(("a", "b", 10e6, 1.0))
        dl = net.link_between("a", "b")
        dl.if_ab.rate_bps = 2e6
        ledger = ReservationLedger(net)
        assert (ledger.capacity("a", "b"), ledger.capacity("b", "a")) == (2e6, 10e6)
        with pytest.raises(AdmissionError, match=r"^x: link a->b has 2000000bps < 5000000bps"):
            ledger.admit("x", ["a", "b"], 5e6)
        assert ledger.reserved == {}
        ledger.admit("y", ["b", "a"], 5e6)
        assert ledger.reserved == {("b", "a"): 5e6}

    def test_the_duplex_link_reads_its_rate_and_delay_off_the_wire(self):
        net = lsr_net(("a", "b", 10e6, 1.0))
        dl = net.link_between("a", "b")
        dl.if_ab.rate_bps = 2e6
        assert (dl.rate_bps, dl.delay_s) == (2e6, dl.link_ab.delay_s)
        with pytest.raises(AttributeError):
            dl.rate_bps = 1e6


class TestAdmissionReadsTheLinkTheLspUses:
    """``a=b`` twice — 10 Mb/s at metric 10 connected first, 100 Mb/s at
    metric 1 second — then ``b-c``.  The IGP, and so every LSP and flow,
    crosses the 100 Mb/s link."""

    def _net(self):
        return lsr_net(("a", "b", 10e6, 10.0), ("a", "b", 100e6, 1.0), ("b", "c", 100e6, 1.0))

    @pytest.mark.parametrize("subscription", [1.0, 0.75])
    def test_te(self, subscription):
        net = self._net()
        te = TrafficEngineering(net, subscription=subscription)
        assert te.residual("a", "b") == 100e6 * subscription
        lsp = te.setup("t", "a", "c", 50e6)
        assert lsp.path == ["a", "b", "c"]
        fast = net.duplex_links[1]
        assert fast.rate_bps == 100e6
        assert te.ingress_nhlfe(lsp).out_ifname == fast.if_ab.name == "to-b.2"
        assert te.residual("a", "b") == 100e6 * subscription - 50e6

    @pytest.mark.parametrize("subscription", [1.0, 0.75])
    def test_intserv(self, subscription):
        isv = IntServ(self._net(), subscription=subscription)
        assert isv.residual("a", "b") == 100e6 * subscription
        res = isv.reserve("a", "c", FlowMatch(proto="udp"), 50e6)
        assert res.path == ("a", "b", "c")
        assert isv.residual("a", "b") == 100e6 * subscription - 50e6


def control_state(net, te):
    """Everything ``signal`` / ``teardown`` may write."""
    lsrs = [n for n in net.nodes.values() if isinstance(n, Lsr)]
    return {
        "reserved": dict(te.reserved),
        "lsps": sorted(te.lsps),
        "rsvp": (net.counters["rsvp.path_msgs"], net.counters["rsvp.resv_msgs"]),
        "labels": {n.name: (n.labels._next, list(n.labels._free), sorted(n.labels.allocated()))
                   for n in lsrs},
        "lfib": {n.name: dict(n.lfib.entries()) for n in lsrs},
        "ftn": {n.name: dict(n.ftn.entries()) for n in lsrs},
        "label_class": {n.name: dict(n.label_class) for n in lsrs},
    }


class TestARefusedSignalLeavesNothing:
    def _net(self):
        """``a-b-c-d`` plus ``b-d``; ``x`` is an LSR in another domain, ``r``
        a plain router, both wired to ``c``."""
        net = lsr_net(("a", "b", 10e6, 1.0), ("b", "c", 10e6, 1.0),
                      ("c", "d", 10e6, 1.0), ("b", "d", 10e6, 1.0))
        net.add_node(Lsr(net.sim, "x")).domain = "elsewhere"
        net.add_router("r")
        net.connect("c", "x")
        net.connect("c", "r")
        converge(net)
        te = TrafficEngineering(net)
        te.setup("standing", "a", "d", 2e6, php=False, scheduling_class=1)
        return net, te

    def _refused(self, net, te, path, names, **kw):
        before = control_state(net, te)
        with pytest.raises(AdmissionError, match=f"^probe: .*{names}"):
            te.signal("probe", path, 1e6, **kw)
        assert control_state(net, te) == before

    @pytest.mark.parametrize("kw", [{}, {"php": False, "scheduling_class": 2}])
    def test_down_hop(self, kw):
        net, te = self._net()
        net.link_between("c", "d").set_up(False)
        self._refused(net, te, ["a", "b", "c", "d"], "c->d", **kw)

    def test_absent_hop(self):
        net, te = self._net()
        self._refused(net, te, ["a", "b", "c", "a"], "c->a")

    def test_node_outside_the_domain(self):
        net, te = self._net()
        self._refused(net, te, ["a", "b", "c", "x"], "x is not in domain 'core'")

    def test_unknown_node(self):
        net, te = self._net()
        self._refused(net, te, ["a", "b", "nope"], "nope is not in domain 'core'")

    def test_not_an_lsr(self):
        net, te = self._net()
        self._refused(net, te, ["a", "b", "c", "r"], "r is not an LSR")

    def test_no_bandwidth_on_the_last_hop(self):
        net, te = self._net()
        te.setup("fill", "c", "d", 9e6)
        before = control_state(net, te)
        with pytest.raises(AdmissionError, match="^probe: link c->d has 1000000bps < 2000000bps"):
            te.signal("probe", ["a", "b", "c", "d"], 2e6)
        assert control_state(net, te) == before

    def test_teardown_of_a_name_not_up(self):
        net, te = self._net()
        before = control_state(net, te)
        with pytest.raises(ValueError, match="^name: no LSP 'ghost'"):
            te.teardown("ghost")
        assert control_state(net, te) == before
        te.teardown("standing")
        after = control_state(net, te)
        assert after["lsps"] == [] and set(after["reserved"].values()) == {0.0}
        with pytest.raises(ValueError, match="^name: no LSP 'standing'"):
            te.teardown("standing")
        assert control_state(net, te) == after

    def test_intserv_refusals_name_the_flow(self):
        net, _te = self._net()
        isv = IntServ(net)
        msgs = net.counters.snapshot()
        for dst, why in (("x", "x is not in domain 'core'"), ("a", ".*at least one hop")):
            with pytest.raises(AdmissionError, match=f"^a -> {dst}: {why}"):
                isv.reserve("a", dst, FlowMatch(), 1e6)
        net.link_between("a", "b").set_up(False)
        with pytest.raises(AdmissionError, match="^a -> d: no path"):
            isv.reserve("a", "d", FlowMatch(), 1e6)
        assert isv.reserved == {} and isv.reservations == []
        assert net.counters.snapshot() == msgs


FISH_LINKS = [("B", "C"), ("C", "D"), ("G", "H"), ("H", "E")]


class FishLedger(RuleBasedStateMachine):
    """ROADMAP item 7's "no double booking", in embryo: on the E6 fish the
    ledger holds exactly what the live LSPs booked, whatever happened."""

    def __init__(self):
        super().__init__()
        self.net = Network(seed=6)
        build_fish(self.net, node_factory=lambda n, name: n.add_node(Lsr(n.sim, name)))
        converge(self.net)
        self.te = TrafficEngineering(self.net, subscription=1.5)
        self.live: list[str] = []
        self.n = 0

    def _name(self):
        self.n += 1
        return f"lsp{self.n}"

    @rule(bw=st.sampled_from((1e6, 4e6, 7e6, 12e6)), php=st.booleans())
    def set_up(self, bw, php):
        name = self._name()
        try:
            self.te.setup(name, "A", "F", bw, php=php)
        except AdmissionError:
            assert name not in self.te.lsps
        else:
            self.live.append(name)

    @rule(path=st.sampled_from((list("ABGHEF"), list("ABCDEF"), list("ABGEF"), list("ABCDEZ"))),
          bw=st.sampled_from((1e6, 6e6, 40e6)))
    def signal(self, path, bw):
        """An explicit route: refused when a hop is down or absent, a node
        unknown, or the bandwidth is not there — and then nothing moved."""
        name = self._name()
        before = control_state(self.net, self.te)
        try:
            self.te.signal(name, path, bw)
        except AdmissionError as exc:
            assert str(exc).startswith(f"{name}: ")
            assert control_state(self.net, self.te) == before
        else:
            self.live.append(name)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def tear_down(self, data):
        name = data.draw(st.sampled_from(self.live))
        self.live.remove(name)
        self.te.teardown(name)

    @rule(pair=st.sampled_from(FISH_LINKS), up=st.booleans())
    def flap(self, pair, up):
        self.net.link_between(*pair).set_up(up)

    @invariant()
    def ledger_is_what_live_lsps_booked(self):
        te = self.te
        assert sorted(te.lsps) == sorted(self.live)
        booked = sum(l.bandwidth_bps * (len(l.path) - 1) for l in te.lsps.values())
        assert sum(te.reserved.values()) == pytest.approx(booked, abs=1e-3)
        for (u, v), bps in te.reserved.items():
            ceiling = self.net.link_between(u, v).rate_bps * te.subscription
            assert -1e-3 <= bps <= ceiling + 1e-3, (u, v, bps)


TestFishLedger = FishLedger.TestCase
TestFishLedger.settings = settings(max_examples=40, stateful_step_count=30, deadline=None)
