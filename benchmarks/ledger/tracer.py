"""Layer tracing from outside the program.

The ledger measures where a repeat's wall-clock goes without adding a
line to ``src/``: before the scenario is built, :class:`Tracer` replaces
the layers' public callables (class attributes and module functions,
resolved *by name* from :data:`HOOKS`) with timing wrappers.  Every
wrapper pushes a child-time accumulator on one stack, so a layer's *self*
time is its span minus the spans opened inside it, and the self times of
all layers sum to the traced wall-clock minus whatever ran outside every
hook (``trace.unattributed_share``).

A hook whose module, class or attribute no longer exists is skipped and
listed in ``Tracer.missing`` — later PRs rename and delete tiers and may
not edit this directory, so a vanished target must cost a metric, not
the run.  Untraced repeats never touch this module.

Wrappers carry their state in keyword-only defaults rather than closure
cells: ``repro.sim.snapshot`` marshals any function that has a closure,
and a wrapped ``Node.receive`` is reachable from every simulator
(``set_batch_target``), so a closure here would change the snapshot image
the ``provision_scale`` workload measures.
"""

from __future__ import annotations

import importlib
import sys
from functools import partial
from time import perf_counter
from types import FunctionType, ModuleType
from typing import Any, Callable

__all__ = ["HOOKS", "LAYERS", "Tracer"]

#: Layer names are this repo's packages (``repro.<layer>``).
LAYERS = (
    "sim", "net", "dataplane", "qos", "traffic", "metrics",
    "routing", "mpls", "vpn", "obs", "topology",
)

#: One in this many calls of a per-packet hook is kept as a span.
SAMPLE_EVERY = 1024

# (layer, group, target, kind).  ``target`` is ``module:attr`` or
# ``module:Class.attr``.  kind "fast" = per-packet boundary (totals plus a
# sampled span), "coarse" = phase or control-plane op (every call a span).
# A metric ``<layer>.<group>_s`` is the self time summed over the group.
HOOKS: tuple[tuple[str, str, str, str], ...] = (
    # --- sim ---------------------------------------------------------
    ("sim", "run", "repro.sim.engine:Simulator.run", "coarse"),
    ("sim", "schedule", "repro.sim.engine:Simulator.schedule", "fast"),
    ("sim", "schedule", "repro.sim.engine:Simulator.schedule_call", "fast"),
    ("sim", "schedule", "repro.sim.engine:Simulator.schedule_at", "fast"),
    ("sim", "schedule", "repro.sim.engine:Simulator.call_soon", "fast"),
    ("sim", "cancel", "repro.sim.engine:Event.cancel", "fast"),
    ("sim", "snapshot_save", "repro.sim.snapshot:snapshot_network", "coarse"),
    ("sim", "snapshot_restore", "repro.sim.snapshot:restore_network", "coarse"),
    # --- net ---------------------------------------------------------
    ("net", "send", "repro.net.link:Interface.send", "fast"),
    ("net", "send", "repro.net.link:Interface.send_batch", "fast"),
    ("net", "carry", "repro.net.link:Link.carry", "fast"),
    ("net", "carry", "repro.net.link:Link.carry_batch", "fast"),
    ("net", "receive", "repro.net.node:Node.receive", "fast"),
    ("net", "receive_batch", "repro.net.node:Node.receive_batch", "fast"),
    ("net", "receive_batch", "repro.net.node:Host.receive_batch", "fast"),
    ("net", "receive_batch", "repro.routing.router:Router.receive_batch", "fast"),
    ("net", "transmit", "repro.net.node:Node.transmit", "fast"),
    ("net", "transmit", "repro.net.node:Node.transmit_batch", "fast"),
    ("net", "deliver", "repro.net.node:Node.deliver_local", "fast"),
    ("net", "drop", "repro.net.node:Node.drop", "fast"),
    ("net", "host_send", "repro.net.node:Host.send", "fast"),
    ("net", "host_send", "repro.net.node:Host.send_batch", "fast"),
    ("net", "sinks", "repro.net.node:Node.add_local_sink", "fast"),
    ("net", "conditioners", "repro.net.link:Interface.add_conditioner", "fast"),
    # --- dataplane ---------------------------------------------------
    ("dataplane", "ingress", "repro.dataplane.pipeline:ForwardingPipeline.ingress", "fast"),
    ("dataplane", "ingress_batch",
     "repro.dataplane.pipeline:ForwardingPipeline.ingress_batch", "fast"),
    ("dataplane", "egress", "repro.dataplane.pipeline:ForwardingPipeline.dispatch", "fast"),
    ("dataplane", "egress", "repro.dataplane.pipeline:ForwardingPipeline.impose", "fast"),
    ("dataplane", "egress", "repro.dataplane.pipeline:ForwardingPipeline.vpn_egress", "fast"),
    # --- qos: every QueueDiscipline subclass, see _install_qdiscs ------
    ("qos", "*", "repro.qos.queues:QueueDiscipline", "fast"),
    # --- traffic -----------------------------------------------------
    ("traffic", "start", "repro.traffic.generators:TrafficSource.start", "fast"),
    ("traffic", "start", "repro.traffic.elastic:ElasticSource.start", "fast"),
    # --- metrics -----------------------------------------------------
    ("metrics", "on_delivery", "repro.traffic.sink:FlowSink.on_delivery", "fast"),
    ("metrics", "stats", "repro.metrics.stats:summarize_flow", "coarse"),
    ("metrics", "stats", "repro.metrics.stats:summarize_hybrid_flow", "coarse"),
    ("metrics", "stats", "repro.metrics.stats:delay_percentile", "coarse"),
    ("metrics", "stats", "repro.metrics.stats:rfc3550_jitter", "coarse"),
    ("metrics", "stats", "repro.metrics.sla:evaluate", "coarse"),
    ("metrics", "stats", "repro.metrics.probes:ProbeAgent.stats", "coarse"),
    ("metrics", "stats", "repro.metrics.probes:ProbeAgent.delay_percentile", "coarse"),
    ("metrics", "stats", "repro.metrics.probes:ProbeAgent.loss_ratio", "coarse"),
    ("metrics", "stats", "repro.traffic.elastic:ElasticSource.goodput_bps", "coarse"),
    # --- routing -----------------------------------------------------
    ("routing", "converge", "repro.routing.spf:converge", "coarse"),
    ("routing", "reconverge", "repro.routing.spf:reconverge", "coarse"),
    ("routing", "fib_lookup", "repro.routing.fib:Fib.lookup", "fast"),
    ("routing", "fib_lookup", "repro.routing.fib:Fib.lookup_prefix", "fast"),
    # --- mpls --------------------------------------------------------
    ("mpls", "ldp", "repro.mpls.ldp:run_ldp", "coarse"),
    ("mpls", "ldp", "repro.mpls.ldp:reset_ldp", "coarse"),
    ("mpls", "lfib_lookup", "repro.mpls.lfib:Lfib.lookup", "fast"),
    ("mpls", "lfib_lookup", "repro.mpls.lfib:FtnTable.lookup", "fast"),
    # --- vpn ---------------------------------------------------------
    ("vpn", "provision", "repro.vpn.provision:VpnProvisioner.create_vpn", "coarse"),
    ("vpn", "provision", "repro.vpn.provision:VpnProvisioner.add_site", "coarse"),
    ("vpn", "provision", "repro.vpn.provision:VpnProvisioner.remove_site", "coarse"),
    ("vpn", "provision", "repro.vpn.provision:VpnProvisioner.remove_vpn", "coarse"),
    ("vpn", "provision", "repro.vpn.provision:VpnProvisioner.state_census", "coarse"),
    ("vpn", "provision", "repro.vpn.provision:VpnProvisioner.drain_pe", "coarse"),
    ("vpn", "provision", "repro.vpn.provision:VpnProvisioner.restore_pe", "coarse"),
    ("vpn", "provision", "repro.vpn.provision:VpnProvisioner.converge_bgp", "coarse"),
    ("vpn", "provision", "repro.vpn.provision:VpnProvisioner.bgp_engine", "fast"),
    ("vpn", "bgp_converge", "repro.vpn.bgp:MpBgp.converge", "coarse"),
    ("vpn", "bgp_delta", "repro.vpn.bgp:MpBgp.export_delta", "coarse"),
    ("vpn", "bgp_delta", "repro.vpn.bgp:MpBgp.withdraw", "coarse"),
    ("vpn", "bgp_delta", "repro.vpn.bgp:MpBgp.peer_down", "coarse"),
    ("vpn", "bgp_delta", "repro.vpn.bgp:MpBgp.peer_up", "coarse"),
    ("vpn", "bgp_delta", "repro.vpn.bgp:MpBgp.forget_vrf", "coarse"),
    ("vpn", "vrf_lookup", "repro.vpn.vrf:Vrf.lookup", "fast"),
    # --- obs ---------------------------------------------------------
    ("obs", "session", "repro.obs.telemetry:Telemetry.__init__", "coarse"),
    ("obs", "session", "repro.obs.telemetry:Telemetry.scrape", "coarse"),
    ("obs", "session", "repro.obs.telemetry:Telemetry.manifest", "coarse"),
    ("obs", "session", "repro.obs.telemetry:Telemetry.detach", "coarse"),
    ("obs", "flight", "repro.obs.flightrec:FlightRecorder.rx", "fast"),
    ("obs", "flight", "repro.obs.flightrec:FlightRecorder.enqueue", "fast"),
    ("obs", "flight", "repro.obs.flightrec:FlightRecorder.dequeue", "fast"),
    ("obs", "flight", "repro.obs.flightrec:FlightRecorder.deliver", "fast"),
    ("obs", "flight", "repro.obs.flightrec:FlightRecorder.drop", "fast"),
    ("obs", "flight", "repro.obs.flightrec:FlightRecorder.label_op", "fast"),
    ("obs", "flows", "repro.obs.flows:FlowAccountant.ingress", "fast"),
    ("obs", "flows", "repro.obs.flows:FlowAccountant.egress", "fast"),
    ("obs", "slo", "repro.obs.slo:SloEngine.deliver", "fast"),
    ("obs", "slo", "repro.obs.slo:SloEngine.finalize", "coarse"),
    ("obs", "spans", "repro.obs.spans:ConvergenceTracer.on_reconverge", "coarse"),
    ("obs", "spans", "repro.obs.spans:ConvergenceTracer.on_ldp_converged", "coarse"),
    # --- topology ----------------------------------------------------
    ("topology", "build", "repro.topology:Network.__init__", "fast"),
    ("topology", "build", "repro.topology:Network.add_node", "fast"),
    ("topology", "build", "repro.topology:Network.connect", "fast"),
    ("topology", "build", "repro.topology:build_backbone", "coarse"),
    ("topology", "build", "repro.topology:build_line", "coarse"),
    ("topology", "build", "repro.topology:attach_host", "coarse"),
)

_QDISC_METHODS = ("enqueue", "enqueue_batch", "dequeue", "next_eligible")


def _layer_of_module(module: str | None) -> str | None:
    """``repro.<layer>[...]`` -> layer; anything else is not a layer."""
    if not module or not module.startswith("repro."):
        return None
    head = module.split(".")[1]
    return head if head in LAYERS else None


class Tracer:
    """Installs the hooks, accumulates self times, keeps the spans."""

    def __init__(self, hooks: tuple[tuple[str, str, str, str], ...] = HOOKS) -> None:
        self.hooks = hooks
        self.clock = perf_counter
        # Child-time accumulators of the open spans, innermost last.
        self.stack: list[float] = []
        # "layer.group" -> [self seconds, calls, items]
        self.cells: dict[str, list] = {}
        self.spans: list[tuple] = []          # (id, parent, name, t0, t1)
        self.sampled: list[tuple] = []        # (name, t0, t1, coarse parent)
        self.open_coarse: list[int] = [0]     # ids of open coarse spans (0 = root)
        self.next_id = [1]
        self.missing: list[str] = []
        self.counts: dict[str, float] = {}
        self.seen: dict[str, Any] = {}        # objects captured for later reading
        self._undo: list[tuple[Any, str, Any]] = []
        self._traced: set = set()             # wrapper functions (keep identity)
        self._tramps: dict[Any, Callable] = {}
        self.installed = False

    # ------------------------------------------------------------------
    # Accounting cells
    # ------------------------------------------------------------------
    def cell(self, layer: str, group: str) -> list:
        key = f"{layer}.{group}"
        c = self.cells.get(key)
        if c is None:
            c = self.cells[key] = [0.0, 0, 0]
        return c

    def reset(self) -> None:
        """Zero every total between traced repeats (hooks stay installed)."""
        for c in self.cells.values():
            c[0], c[1], c[2] = 0.0, 0, 0
        self.counts.clear()
        self.seen.clear()
        del self.spans[:], self.sampled[:], self.stack[:]
        self.open_coarse[:] = [0]
        self.next_id[0] = 1

    def self_seconds(self, layer: str, group: str | None = None) -> float | None:
        """Self time of one group, or of the whole layer; ``None`` when no
        hook of it was installed (metric reads null)."""
        prefix = f"{layer}." if group is None else f"{layer}.{group}"
        vals = [
            c[0] for k, c in self.cells.items()
            if (k.startswith(prefix) if group is None else k == prefix)
        ]
        return sum(vals) if vals else None

    def calls(self, layer: str, group: str) -> int | None:
        """Calls into a group; ``None`` when none of its hooks resolved."""
        c = self.cells.get(f"{layer}.{group}")
        return c[1] if c else None

    def items(self, layer: str, group: str) -> int | None:
        """Packets handed to a group's batch entry points (``None`` as above)."""
        c = self.cells.get(f"{layer}.{group}")
        return c[2] if c else None

    def bump(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    # ------------------------------------------------------------------
    # Wrapper factories (state in keyword-only defaults, no closures)
    # ------------------------------------------------------------------
    def _fast(self, fn: Callable, cell: list, name: str,
              before: Callable | None = None, after: Callable | None = None) -> Callable:
        if before is None and after is None:
            def traced(*a, _f=fn, _c=cell, _st=self.stack, _clk=self.clock,
                       _sm=self.sampled, _oc=self.open_coarse, _n=name, **k):
                _st.append(0.0)
                t0 = _clk()
                try:
                    return _f(*a, **k)
                finally:
                    dt = _clk() - t0
                    _c[0] += dt - _st.pop()
                    n = _c[1] = _c[1] + 1
                    if _st:
                        _st[-1] += dt
                    if not n % SAMPLE_EVERY:
                        _sm.append((_n, t0, t0 + dt, _oc[-1]))
        else:
            def traced(*a, _f=fn, _c=cell, _st=self.stack, _clk=self.clock,
                       _b=before, _a=after, _tr=self, **k):
                _st.append(0.0)
                t0 = _clk()
                try:
                    if _b is not None:
                        a = _b(_tr, _c, a) or a
                    out = _f(*a, **k)
                    if _a is not None:
                        _a(_tr, _c, a, out)
                    return out
                finally:
                    dt = _clk() - t0
                    _c[0] += dt - _st.pop()
                    _c[1] += 1
                    if _st:
                        _st[-1] += dt
        return traced

    def _coarse(self, fn: Callable, cell: list, name: str,
                after: Callable | None = None) -> Callable:
        def traced(*a, _f=fn, _c=cell, _st=self.stack, _clk=self.clock,
                   _sp=self.spans, _oc=self.open_coarse, _id=self.next_id,
                   _n=name, _a=after, _tr=self, **k):
            sid = _id[0]
            _id[0] = sid + 1
            parent = _oc[-1]
            _oc.append(sid)
            _st.append(0.0)
            t0 = _clk()
            try:
                out = _f(*a, **k)
                if _a is not None:
                    _a(_tr, _c, a, out)
                return out
            finally:
                dt = _clk() - t0
                _c[0] += dt - _st.pop()
                _c[1] += 1
                if _st:
                    _st[-1] += dt
                _oc.pop()
                _sp.append((sid, parent, _n, t0, t0 + dt))
        return traced

    def span(self, name: str):
        """Context manager for a harness phase (root-level coarse span that
        belongs to no layer: its self time stays unattributed)."""
        return _Phase(self, name)

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        if self.installed:
            raise RuntimeError("tracer already installed")
        self.installed = True
        for layer, group, target, kind in self.hooks:
            try:
                if group == "*":
                    self._install_qdiscs(layer, target)
                else:
                    self._install_one(layer, group, target, kind)
            except (ImportError, AttributeError) as exc:
                self.missing.append(f"{target} ({type(exc).__name__})")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._traced.clear()
        self._tramps.clear()
        self.installed = False

    def _resolve(self, target: str) -> tuple[Any, str, Any]:
        modname, _, path = target.partition(":")
        module = importlib.import_module(modname)
        owner: Any = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        # vars() not getattr(): wrap the attribute where it is *defined*, so
        # an inherited method is not copied down onto a subclass.
        try:
            return owner, attr, vars(owner)[attr]
        except KeyError:
            raise AttributeError(target) from None

    def _set(self, owner: Any, attr: str, original: Any, wrapper: Callable) -> None:
        for name in ("__name__", "__qualname__", "__doc__", "__module__"):
            try:
                setattr(wrapper, name, getattr(original, name))
            except AttributeError:
                pass
        wrapper.__wrapped__ = original
        self._traced.add(wrapper)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, ModuleType):
            # ``from module import fn`` copies: patch every importer too.
            holders = [
                m for n, m in list(sys.modules.items())
                if m is not None and n.startswith("repro")
            ]
            for mod in holders:
                if mod is owner:
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def _install_one(self, layer: str, group: str, target: str, kind: str) -> None:
        owner, attr, original = self._resolve(target)
        if not isinstance(original, FunctionType):
            raise AttributeError(f"{target} is not a plain function")
        cell = self.cell(layer, group)
        before, after = _OBSERVERS.get(target, (None, None))
        if kind == "coarse":
            wrapper = self._coarse(original, cell, target.partition(":")[2], after)
        else:
            wrapper = self._fast(original, cell, target.partition(":")[2], before, after)
        self._set(owner, attr, original, wrapper)

    def _install_qdiscs(self, layer: str, target: str) -> None:
        """Wrap enqueue/dequeue on the queue-discipline base class and on
        every subclass that overrides them (found by walking the tree, so
        a discipline added later is covered without editing this file)."""
        modname, _, clsname = target.partition(":")
        # Importing the module imports its package, and ``repro.qos`` imports
        # every discipline, so the subclass tree is complete here.
        base = getattr(importlib.import_module(modname), clsname)
        todo, seen = [base], set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            for meth in _QDISC_METHODS:
                original = vars(cls).get(meth)
                if not isinstance(original, FunctionType):
                    continue
                group = "dequeue" if meth in ("dequeue", "next_eligible") else "enqueue"
                after = _after_enqueue if meth == "enqueue" else None
                wrapper = self._fast(
                    original, self.cell(layer, group), f"{cls.__name__}.{meth}", None, after
                )
                self._set(cls, meth, original, wrapper)

    # ------------------------------------------------------------------
    # Callback trampolines: who the engine dispatches into
    # ------------------------------------------------------------------
    def trampoline_for(self, callback: Callable) -> Callable | None:
        """The layer trampoline for a scheduled ``callback``, or ``None``
        when it must be scheduled untouched: it is itself a traced
        boundary (``Node.receive`` — burst extraction matches on that
        function's identity) or belongs to no layer."""
        func = getattr(callback, "__func__", callback)
        if func in self._traced:
            return None
        owner = getattr(callback, "__self__", None)
        inner = getattr(owner, "callback", None)  # Timer / Periodic payload
        if callable(inner):
            func = getattr(inner, "__func__", inner)
        tramp = self._tramps.get(func, self)
        if tramp is self:
            layer = _layer_of_module(getattr(func, "__module__", None))
            tramp = None
            if layer is not None:
                tramp = self._fast(_call, self.cell(layer, "callbacks"), f"{layer}.callback")
            self._tramps[func] = tramp
        return tramp

    def wrap_callable(self, fn: Callable, group: str) -> Callable:
        """Trace a callable registered with a layer boundary (a local
        sink, an egress conditioner) under the layer that defines it."""
        func = getattr(fn, "__func__", fn)
        layer = _layer_of_module(getattr(func, "__module__", None))
        if layer is None or func in self._traced:
            return fn
        return partial(self._fast(_call, self.cell(layer, group), f"{layer}.{group}"), fn)


def _call(cb: Callable, *args: Any) -> Any:
    return cb(*args)


class _Phase:
    __slots__ = ("tr", "name", "sid", "t0")

    def __init__(self, tr: Tracer, name: str) -> None:
        self.tr, self.name = tr, name

    def __enter__(self) -> "_Phase":
        tr = self.tr
        self.sid = tr.next_id[0]
        tr.next_id[0] += 1
        tr.open_coarse.append(self.sid)
        self.t0 = tr.clock()
        return self

    def __exit__(self, *exc: Any) -> None:
        tr = self.tr
        t1 = tr.clock()
        tr.open_coarse.pop()
        tr.spans.append((self.sid, tr.open_coarse[-1], self.name, self.t0, t1))


# ----------------------------------------------------------------------
# Observers: counts taken at the same boundaries as the times
# ----------------------------------------------------------------------
def _before_schedule_call(tr: Tracer, cell: list, a: tuple) -> tuple | None:
    # (sim, delay, callback, *args) -> (sim, delay, trampoline, callback, *args)
    tramp = tr.trampoline_for(a[2])
    if tramp is None:
        return None
    return (a[0], a[1], tramp) + a[2:]


def _before_schedule(tr: Tracer, cell: list, a: tuple) -> tuple | None:
    # schedule / schedule_at take a zero-argument callable.
    tramp = tr.trampoline_for(a[2])
    if tramp is None:
        return None
    return (a[0], a[1], partial(tramp, a[2]))


def _before_call_soon(tr: Tracer, cell: list, a: tuple) -> tuple | None:
    tramp = tr.trampoline_for(a[1])
    if tramp is None:
        return None
    return (a[0], partial(tramp, a[1]))


def _before_batch_items(tr: Tracer, cell: list, a: tuple) -> None:
    cell[2] += len(a[1])


def _before_ingress_batch(tr: Tracer, cell: list, a: tuple) -> None:
    """Which tier serves this burst, decided the way the pipeline documents
    it: entry point, modeled CPU cost, burst length vs ``COLUMNAR_MIN``."""
    pipe, items = a[0], a[1]
    n = len(items)
    cell[2] += n
    proc = pipe.node.processing
    if proc.ip_lookup_s > 0.0 or proc.label_lookup_s > 0.0:
        return  # falls back to per-packet receive(); counted by ingress
    threshold = getattr(sys.modules.get("repro.dataplane.pipeline"), "COLUMNAR_MIN", None)
    if threshold is None:
        tr.bump("dataplane.tier_unknown", n)
    elif n >= threshold:
        tr.bump("dataplane.tier_columnar", n)
    else:
        tr.bump("dataplane.tier_hoisted", n)


def _before_ingress(tr: Tracer, cell: list, a: tuple) -> None:
    cell[2] += 1


def _after_enqueue(tr: Tracer, cell: list, a: tuple, out: Any) -> None:
    depth = len(a[0])
    if depth > tr.counts.get("qos.max_backlog_pkts", 0):
        tr.counts["qos.max_backlog_pkts"] = depth


def _after_installs(tr: Tracer, cell: list, a: tuple, out: Any) -> None:
    if isinstance(out, int):
        tr.bump("routing.spf_installs", out)


def _after_ldp(tr: Tracer, cell: list, a: tuple, out: Any) -> None:
    tr.bump("mpls.ldp_msgs", getattr(out, "mapping_messages", 0))


def _after_bgp(tr: Tracer, cell: list, a: tuple, out: Any) -> None:
    tr.seen["bgp_engine"] = a[0]


def _before_add_sink(tr: Tracer, cell: list, a: tuple) -> tuple:
    return (a[0], tr.wrap_callable(a[1], "sinks"))


def _before_add_conditioner(tr: Tracer, cell: list, a: tuple) -> tuple:
    return (a[0], tr.wrap_callable(a[1], "conditioners"))


_OBSERVERS: dict[str, tuple[Callable | None, Callable | None]] = {
    "repro.sim.engine:Simulator.schedule_call": (_before_schedule_call, None),
    "repro.sim.engine:Simulator.schedule": (_before_schedule, None),
    "repro.sim.engine:Simulator.schedule_at": (_before_schedule, None),
    "repro.sim.engine:Simulator.call_soon": (_before_call_soon, None),
    "repro.net.node:Node.receive_batch": (_before_batch_items, None),
    "repro.net.node:Host.receive_batch": (_before_batch_items, None),
    "repro.routing.router:Router.receive_batch": (_before_batch_items, None),
    "repro.net.node:Node.add_local_sink": (_before_add_sink, None),
    "repro.net.link:Interface.add_conditioner": (_before_add_conditioner, None),
    "repro.dataplane.pipeline:ForwardingPipeline.ingress": (_before_ingress, None),
    "repro.dataplane.pipeline:ForwardingPipeline.ingress_batch": (_before_ingress_batch, None),
    "repro.routing.spf:converge": (None, _after_installs),
    "repro.routing.spf:reconverge": (None, _after_installs),
    "repro.mpls.ldp:run_ldp": (None, _after_ldp),
    "repro.vpn.bgp:MpBgp.converge": (None, _after_bgp),
    "repro.vpn.bgp:MpBgp.export_delta": (None, _after_bgp),
}
