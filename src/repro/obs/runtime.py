"""Process-wide telemetry switch.

The experiment harnesses construct their own :class:`~repro.topology.Network`
objects deep inside ``run_eN()`` functions, so the CLI cannot hand a
telemetry session to them directly.  Instead the CLI flips this module's
switch before running and every ``Network.__init__`` asks
:func:`attach_if_enabled`; sessions accumulate here and the CLI collects
their manifests afterwards.

Disabled (the default) this costs one module-level boolean check per
*network construction* — nothing at all per event or per packet — and
importing this module imports no telemetry code: :class:`Telemetry` is
imported when the first session attaches, and :func:`enable` reads the
option names from its signature on its first call.
"""

from __future__ import annotations

import inspect
from functools import cache
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.telemetry import Telemetry
    from repro.topology import Network

__all__ = [
    "enable",
    "disable",
    "is_enabled",
    "attach_if_enabled",
    "sessions",
    "reset",
    "set_vector_mode",
    "vector_mode_enabled",
    "set_slo",
    "set_spans",
    "flags",
]

#: The smallest value ``enable(**options)`` allows for the counted options.
_OPTION_FLOORS = {"sample_every": 1, "flight_capacity": 1}

_enabled = False
_options: dict[str, Any] = {}
_sessions: list[Telemetry] = []
_vector_mode = True
_slo = False
_spans = False


def enable(**options: Any) -> None:
    """Turn telemetry on; ``options`` are passed to every new session
    (``sample_every``, ``flight_capacity``, ``profile``, ...).

    Names and ranges are checked here, naming the option, so a typo fails
    at the switch and not from inside a ``Network.__init__`` deep in an
    experiment; a rejected call leaves the switch as it was.
    """
    global _enabled, _options
    accepted = _session_options()
    for name, value in options.items():
        if name not in accepted:
            raise TypeError(
                f"enable(): unknown option {name!r} "
                f"(expected one of {', '.join(sorted(accepted))})"
            )
        floor = _OPTION_FLOORS.get(name)
        if floor is not None and (
            isinstance(value, bool) or not isinstance(value, int) or value < floor
        ):
            raise ValueError(f"enable(): {name} must be an integer >= {floor}, got {value!r}")
    _enabled = True
    _options = dict(options)


@cache
def _session_options() -> frozenset[str]:
    """What ``enable(**options)`` accepts: the :class:`Telemetry` keyword
    arguments."""
    from repro.obs.telemetry import Telemetry

    return frozenset(inspect.signature(Telemetry.__init__).parameters) - {"self", "net"}


def disable() -> None:
    """Stop attaching to new networks (existing sessions keep collecting)."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    return _enabled


def attach_if_enabled(net: "Network") -> Telemetry | None:
    """Called by ``Network.__init__``; returns the session or ``None``."""
    if not _enabled:
        return None
    opts = dict(_options)
    # The SLO/span switches ride along unless the caller pinned them in
    # enable(**options) explicitly.
    opts.setdefault("slo", _slo)
    opts.setdefault("spans", _spans)
    from repro.obs.telemetry import Telemetry

    session = Telemetry(net, **opts)
    _sessions.append(session)
    return session


def sessions() -> list[Telemetry]:
    """Sessions created since the last :func:`reset`, in creation order."""
    return list(_sessions)


def reset() -> None:
    """Disable and forget all sessions (detaching them first)."""
    global _options, _slo, _spans
    disable()
    for s in _sessions:
        s.detach()
    _sessions.clear()
    _options = {}
    _slo = False
    _spans = False


def set_vector_mode(on: bool) -> None:
    """Choose the data-plane dispatch for *subsequently built* networks.

    On (the default), ``Network.__init__`` installs the kernel's burst
    extraction (``repro.net.node.install_vector_dispatch``): same-time
    arrivals at one node are fused into a ``receive_batch`` vector.  Off
    forces pure scalar dispatch — the parity oracle.  Both paths are
    required to produce bit-identical traces (tests/test_dataplane_batch.py),
    so this switch changes speed, never results.  Existing networks are
    unaffected; flip their simulator directly via
    ``install_vector_dispatch``/``remove_vector_dispatch``.
    """
    global _vector_mode
    _vector_mode = bool(on)


def vector_mode_enabled() -> bool:
    return _vector_mode


def set_slo(on: bool) -> None:
    """Arm the streaming SLO engine for subsequently attached sessions.

    When on, every new :class:`Telemetry` session builds an
    :class:`~repro.obs.slo.SloEngine` and attaches it to the network's
    ``trace.slo`` hook (one per-delivery callback).  Off — the default —
    the hot path pays a single ``None`` check per delivery.
    """
    global _slo
    _slo = bool(on)


def set_spans(on: bool) -> None:
    """Arm the convergence tracer for subsequently attached sessions.

    When on, every new :class:`Telemetry` session attaches a
    :class:`~repro.obs.spans.ConvergenceTracer` to the network's trace
    bus.  Costs nothing per packet; only link flaps and reconvergence
    events are observed.
    """
    global _spans
    _spans = bool(on)


def flags() -> dict[str, bool]:
    """The process-wide observability switch state, for manifests.

    A manifest must fully determine the run configuration; these three
    switches are the ones that change what a run collects (or how it
    dispatches packets) without appearing anywhere else in the config.
    """
    return {
        "vector_mode": _vector_mode,
        "slo": _slo,
        "spans": _spans,
    }
