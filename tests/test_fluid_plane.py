"""Unit tests for the hybrid fluid plane: envelopes, expansion, charging.

Parity with pure-packet experiments lives in ``test_hybrid_parity.py``;
this file pins the mechanisms — the ``Simulator.every`` periodic channel,
interface/qdisc fluid charging, envelope determinism, expansion policies,
and the SLO engine's fluid accounting block.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import ExperimentRun
from repro.obs.slo import SloEngine
from repro.qos.queues import DropTailFifo
from repro.routing import NoPathError
from repro.routing.spf import converge
from repro.sim.engine import SimulationError, Simulator
from repro.sim.randomness import RandomStreams
from repro.topology import Network, attach_host, build_line
from repro.traffic.fluid import FluidAggregate, FluidRouter


def small_net(seed=5, rate_bps=10e6):
    net = Network(seed=seed)
    routers = build_line(net, 3, rate_bps=rate_bps)
    tx = attach_host(net, routers[0], "10.9.0.1", name="tx")
    rx = attach_host(net, routers[2], "10.9.0.2", name="rx")
    converge(net)
    return net, tx, rx, routers


class TestPeriodic:
    def test_every_fires_on_the_grid(self):
        sim = Simulator()
        ticks = []
        sim.every(0.1, lambda: ticks.append(sim.now))
        sim.run(until=0.35)
        assert ticks == pytest.approx([0.1, 0.2, 0.3])

    def test_first_delay_overrides_initial_interval(self):
        sim = Simulator()
        ticks = []
        sim.every(0.1, lambda: ticks.append(sim.now), first_delay=0.0)
        sim.run(until=0.25)
        assert ticks == pytest.approx([0.0, 0.1, 0.2])

    def test_cancel_stops_future_fires(self):
        sim = Simulator()
        ticks = []
        p = sim.every(0.1, lambda: ticks.append(sim.now))
        sim.schedule_at(0.25, p.cancel)
        sim.run(until=1.0)
        assert ticks == pytest.approx([0.1, 0.2])
        assert not p.active

    def test_cancel_from_inside_callback(self):
        sim = Simulator()
        ticks = []
        p = sim.every(0.1, lambda: (ticks.append(sim.now), p.cancel()))
        sim.run(until=1.0)
        assert len(ticks) == 1

    def test_invalid_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.every(float("inf"), lambda: None)


class TestInterfaceFluidLoad:
    def test_effective_rate_reduced_and_exactly_restored(self):
        net, tx, rx, routers = small_net()
        iface = next(iter(routers[0].interfaces.values()))
        original = iface.rate_bps
        iface.set_fluid_load(4e6)
        assert iface._eff_rate_bps == pytest.approx(original - 4e6)
        iface.set_fluid_load(0.0)
        # Exact float restore: zero fluid load must not perturb parity.
        assert iface._eff_rate_bps == original

    def test_load_floor_keeps_rate_positive(self):
        net, tx, rx, routers = small_net()
        iface = next(iter(routers[0].interfaces.values()))
        iface.set_fluid_load(iface.rate_bps * 10)
        assert iface._eff_rate_bps == pytest.approx(iface.rate_bps * 1e-3)


class TestQdiscFluidBackground:
    def test_standing_bytes_consume_capacity(self):
        from repro.net.packet import IPHeader, Packet
        from repro.net.address import IPv4Address

        q = DropTailFifo(capacity_packets=None, capacity_bytes=3000)
        pkt = Packet(
            ip=IPHeader(
                src=IPv4Address.parse("10.0.0.1"),
                dst=IPv4Address.parse("10.0.0.2"),
            ),
            payload_bytes=1000,
        )
        q.set_fluid_background(5e6, standing_bytes=2500)
        assert q.enqueue(pkt, now=0.0) is False  # 1020 + 2500 > 3000
        q.set_fluid_background(0, 0)
        assert q.enqueue(pkt, now=0.0) is True


class TestFluidAggregate:
    def test_onoff_redraw_is_stream_deterministic(self):
        draws = []
        for _ in range(2):
            sim = Simulator()
            streams = RandomStreams(123)
            agg = FluidAggregate(
                sim, "f", "10.0.0.1", "10.0.0.2",
                n_flows=100, kind="onoff", peak_bps=1e5,
                mean_on_s=0.1, mean_off_s=0.4, rng=streams.stream("t.env"),
            )
            draws.append([agg.update_envelope() for _ in range(10)])
        assert draws[0] == draws[1]
        assert any(r != draws[0][0] for r in draws[0])  # actually stochastic

    def test_account_fluid_integrates_offered_load(self):
        sim = Simulator()
        agg = FluidAggregate(
            sim, "f", "10.0.0.1", "10.0.0.2",
            n_flows=10, payload_bytes=980, kind="cbr", rate_bps=1e6,
        )
        agg.account_fluid(2.0)  # 10 Mb/s × 2 s = 20 Mb = 2500 packets
        assert agg.fluid_delivered_packets == 2500
        assert agg.fluid_delivered_bytes == 2_500_000
        assert agg.sent == 2500

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FluidAggregate(sim, "f", "1.2.3.4", "5.6.7.8", kind="nope")
        with pytest.raises(ValueError):
            FluidAggregate(sim, "f", "1.2.3.4", "5.6.7.8", kind="cbr")
        with pytest.raises(ValueError):  # onoff needs a named stream
            FluidAggregate(
                sim, "f", "1.2.3.4", "5.6.7.8", kind="onoff", peak_bps=1e6
            )


class TestFluidRouter:
    def test_fully_fluid_path_charges_and_uncharges_links(self):
        net, tx, rx, routers = small_net(rate_bps=10e6)
        router = FluidRouter(net)
        agg = FluidAggregate(
            net.sim, "f", "10.9.0.1", "10.9.0.2",
            payload_bytes=980, kind="cbr", rate_bps=2e6,  # under headroom
        )
        path = router.add(agg, tx, rx)
        router.start(0.0, stop_at=1.0)
        net.run(until=0.5)
        assert path.exp_index is None
        core_ifaces = [h[0] for h in path.hops]
        assert all(i.fluid_load_bps == 2e6 for i in core_ifaces)
        assert all(i._eff_rate_bps < i.rate_bps for i in core_ifaces)
        net.run(until=1.5)  # past stop_at
        assert all(i.fluid_load_bps == 0.0 for i in core_ifaces)
        assert all(i._eff_rate_bps == i.rate_bps for i in core_ifaces)
        # 2 Mb/s × 1 s at 1000 B wire = 250 packets, delivered analytically.
        assert agg.fluid_delivered_packets == pytest.approx(250, abs=1)
        assert agg.expanded_sent == 0

    def test_congested_hop_triggers_expansion(self):
        net, tx, rx, routers = small_net(rate_bps=10e6)
        run = ExperimentRun(net, warmup_s=0.1, measure_s=0.5)
        sink = run.sink_at(rx)
        agg = FluidAggregate(
            net.sim, "f", "10.9.0.1", "10.9.0.2",
            payload_bytes=980, kind="cbr", rate_bps=9.5e6,  # > 85% of 10M
        )
        path = run.fluid_plane().add(agg, tx, rx)
        run.execute(drain_s=0.2)
        assert path.exp_index == 1  # first core hop, not the access link
        assert agg.expanded_sent > 0
        assert sink.record("f").count > 0

    def test_expand_source_policy_forces_host_injection(self):
        net, tx, rx, routers = small_net(rate_bps=10e6)
        run = ExperimentRun(net, warmup_s=0.1, measure_s=0.3)
        sink = run.sink_at(rx)
        agg = FluidAggregate(
            net.sim, "f", "10.9.0.1", "10.9.0.2",
            payload_bytes=980, kind="cbr", rate_bps=1e6,
        )
        path = run.fluid_plane().add(agg, tx, rx, expand="source")
        run.execute(drain_s=0.2)
        assert path.exp_index == 0
        assert agg.fluid_delivered_packets == 0
        assert sink.record("f").count == agg.expanded_sent > 0

    def test_expand_never_policy_stays_fluid_under_congestion(self):
        net, tx, rx, routers = small_net(rate_bps=10e6)
        router = FluidRouter(net)
        agg = FluidAggregate(
            net.sim, "f", "10.9.0.1", "10.9.0.2",
            payload_bytes=980, kind="cbr", rate_bps=20e6,  # 2× the line
        )
        path = router.add(agg, tx, rx, expand="never")
        router.start(0.0, stop_at=0.5)
        net.run(until=0.3)
        assert path.exp_index is None
        assert agg.expanded_sent == 0
        # Charge is applied, effective rate floored but positive.
        iface = path.hops[1][0]
        assert iface.fluid_load_bps == 20e6
        assert iface._eff_rate_bps > 0
        net.run(until=1.0)

    def test_expand_at_sink_delivers_real_packets(self):
        net, tx, rx, routers = small_net(rate_bps=10e6)
        run = ExperimentRun(net, warmup_s=0.1, measure_s=0.5)
        sink = run.sink_at(rx)
        agg = FluidAggregate(
            net.sim, "f", "10.9.0.1", "10.9.0.2",
            payload_bytes=980, kind="cbr", rate_bps=1e6,
        )
        path = run.fluid_plane().add(agg, tx, rx, expand_at_sink=True)
        run.execute(drain_s=0.2)
        assert path.exp_index == len(path.hops) - 1
        assert sink.record("f").count == agg.expanded_sent > 0

    def test_unknown_expand_policy_rejected(self):
        net, tx, rx, _ = small_net()
        router = FluidRouter(net)
        agg = FluidAggregate(
            net.sim, "f", "10.9.0.1", "10.9.0.2", kind="cbr", rate_bps=1e6
        )
        with pytest.raises(ValueError):
            router.add(agg, tx, rx, expand="sometimes")

    def test_headroom_validation(self):
        net, *_ = small_net()
        with pytest.raises(ValueError):
            FluidRouter(net, headroom=0.0)
        with pytest.raises(ValueError):
            FluidRouter(net, headroom=1.5)


def diamond_net():
    """``a-{b,c}-d`` at equal metrics, the ``c`` branch connected first; the
    IGP's tie-break (smallest name sequence) forwards ``a -> b -> d``."""
    net = Network(seed=5)
    for name in "abcd":
        net.add_router(name)
    for u, v in (("a", "c"), ("c", "d"), ("a", "b"), ("b", "d")):
        net.connect(u, v, 10e6, 1e-3)
    tx = attach_host(net, net.nodes["a"], "10.9.0.1", name="tx")
    rx = attach_host(net, net.nodes["d"], "10.9.0.2", name="rx")
    converge(net)
    return net, tx, rx


class TestFluidFollowsTheIgp:
    def _agg(self, net, name, rate_bps):
        return FluidAggregate(
            net.sim, name, "10.9.0.1", "10.9.0.2",
            payload_bytes=980, kind="cbr", rate_bps=rate_bps,
        )

    def test_path_is_the_fib_chains_on_an_equal_cost_diamond(self):
        net, tx, rx = diamond_net()
        fib_chain, node = ["tx", "a"], net.nodes["a"]
        while node is not net.nodes["d"]:
            out = node.fib.lookup(rx.loopback).out_ifname
            node = node.interfaces[out].link.dst_node
            fib_chain.append(node.name)
        assert fib_chain == ["tx", "a", "b", "d"]
        path = FluidRouter(net).add(self._agg(net, "f", 1e6), tx, rx)
        assert [h[0].node.name for h in path.hops] == fib_chain
        assert [h[2].name for h in path.hops] == ["a", "b", "d", "rx"]
        assert [h[0].name for h in path.hops[1:3]] == ["to-b", "to-d"]

    def test_fluid_charge_and_expanded_packets_share_interfaces(self):
        net, tx, rx = diamond_net()
        router = FluidRouter(net)
        big = router.add(self._agg(net, "big", 9.5e6), tx, rx)        # expands at a
        router.add(self._agg(net, "bg", 0.4e6), tx, rx, expand="never")  # stays fluid
        router.start(0.0, stop_at=1.0)
        net.run(until=0.5)
        a, b, c = (net.nodes[n] for n in "abc")
        assert big.exp_index == 1 and big.hops[1][0] is a.interfaces["to-b"]
        # The branch the packets take is the branch that is charged ...
        assert a.interfaces["to-b"].fluid_load_bps == 0.4e6
        assert b.interfaces["to-d"].fluid_load_bps == 0.4e6
        assert a.interfaces["to-b"].stats.tx_packets > 0
        assert b.interfaces["to-d"].stats.tx_packets > 0
        # ... and the other one sees neither.
        for iface in (a.interfaces["to-c"], c.interfaces["to-d"]):
            assert iface.fluid_load_bps == 0.0 and iface.stats.tx_packets == 0
        net.run(until=1.5)

    def test_one_spf_per_source_not_per_aggregate(self):
        net, tx, rx = diamond_net()
        router = FluidRouter(net)
        for i in range(5):
            router.add(self._agg(net, f"f{i}", 1e5), tx, rx)
        view = net.node_view()
        assert list(view._spf) == [view.idx["tx"]]
        assert net.node_view() is view
        net.link_between("a", "b").set_up(False)  # a new generation re-reads
        path = router.add(self._agg(net, "g", 1e5), tx, rx)
        assert [h[2].name for h in path.hops] == ["a", "c", "d", "rx"]

    def test_unroutable_demand_is_a_named_error(self):
        net, tx, rx = diamond_net()
        router = FluidRouter(net)
        net.link_between("d", "rx").set_up(False)
        with pytest.raises(NoPathError, match="^tx -> rx: no path"):
            router.add(self._agg(net, "f", 1e6), tx, rx)
        assert router.paths == []


class TestSloFluidAccounting:
    def test_fluid_deliveries_reach_the_engine_summary(self):
        net, tx, rx, routers = small_net(rate_bps=10e6)
        engine = SloEngine(net.sim, window_s=0.5).attach(net)
        router = FluidRouter(net)
        agg = FluidAggregate(
            net.sim, "f", "10.9.0.1", "10.9.0.2",
            payload_bytes=980, kind="cbr", rate_bps=2e6,
        )
        router.add(agg, tx, rx)
        router.start(0.0, stop_at=1.0)
        net.run(until=1.5)
        summary = engine.summary()
        assert "fluid" in summary
        rec = summary["fluid"]["f"]
        assert rec["packets"] == agg.fluid_delivered_packets > 0
        assert rec["delay_s"] == pytest.approx(agg.analytic_delay_s)
        # Analytic deliveries are tallied apart from packet streams.
        assert engine.delivered == 0

    def test_no_fluid_block_without_fluid_traffic(self):
        sim = Simulator()
        engine = SloEngine(sim)
        assert "fluid" not in engine.summary()
