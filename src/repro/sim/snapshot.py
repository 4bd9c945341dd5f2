"""Converged-state snapshots: checkpoint/restore of a whole simulation.

A snapshot captures everything a run depends on in one consistent image:
the :class:`~repro.sim.engine.Simulator` clock and pending event buckets,
the named RNG streams, the :class:`~repro.topology.Network` object graph —
nodes, links, FIB/LFIB/FTN tables, VRFs, provisioning state, queue
disciplines — plus arbitrary caller ``extras`` (provisioner handles, site
records, control-plane result objects).  Restore rebuilds the identical
graph in a fresh (or forked) process; the parity contract is *bit-
identical traces*: a seeded run resumed from a snapshot must produce
exactly the packet trace the uninterrupted run would have
(``tests/test_snapshot.py`` holds it to that).

Format
------
A snapshot is ``MAGIC`` + a length-prefixed JSON header + a pickle
payload::

    b"RSNP1\\n"  |  u32 header length  |  header JSON  |  pickle bytes

The header names the schema (``repro.snapshot/20``), the ``repro`` version
that wrote it, the Python major.minor, the pickle protocol, and the
payload's length and CRC32.  Restore fails fast with :class:`SnapshotError`
on any mismatch of these, before anything is unpickled.  An image is the
pickled object graph, so one written under another schema holds state in a
shape this reader's classes no longer have (a ``/12`` image, for one,
holds a provisioner's engine signature and an engine's route reflector
beside its clusters; a ``/14`` image's PEs hold a ``qos_exp_mapping``
flag this reader never consults, so a QoS-blind edge would come back
mapping DSCP to EXP; a ``/15`` image holds each address as a slotted
object, which this reader's tuple ``IPv4Address`` cannot load, and each
LSR's EXP policy as ``impose_exp``, which this reader's checked property
shadows; a ``/16`` image holds each class queue of a classful discipline
as a ``ClassQueue`` with a ``ClassStats`` record, classes this reader no
longer has; a ``/17`` image's FIFOs carry no packet count, which this
reader's disciplines admit and report their backlog by; a ``/18`` E12a
image holds its qdisc factory as a class private to ``e12_elastic``, and a
``/19`` image of an E2, E4, E5, E9, E10, E12, E13 or E14 network as a
``partial`` over a function of ``experiments.common``, the AQM studies'
class there, or a module function of ``e9_ablations`` or ``e14_intserv``:
names this reader no longer has, since one
``experiments.common.QdiscSpec`` record replaces them all);
it unpickles into a wrong graph or fails deep inside it, and so
does one with a flipped bit (about one in six still unpickles).  The header exists to refuse both up front.

A table is imaged as its routes (:class:`~repro.routing.fib.Fib` pickles
``(routes, lookups, generation)``): the LPM trie is an index the first
lookup after a restore builds, so a restored table answers every lookup
as the live one did without the image carrying a byte of it, and holds
nothing but its routes until then.  An idle queue discipline is imaged
with its packet store as the empty tuple and an idle cache, drop counter or
round-robin map as the shared empty mapping (both load as the shared
objects), so a site that never queued a packet adds no container to the
image.  The per-site classes (interface, link, duplex link, site, table,
VRF) are slotted, so dumping one does not leave an instance dict behind on
the live object and loading one builds none; a link is imaged as the tuple
of its slot values.  Each advertisement is one object in the image, shared
by the MP-BGP engine's Adj-RIB-Out and RT index and by every VRF table that
imports it, and the tables are the engine's only record of its imports.

A graph holds only importable callables
---------------------------------------
The payload is written by the standard :class:`pickle.Pickler`: the graph
is plain data plus callables pickle writes by name (module-level
functions, bound methods, :func:`functools.partial` over them, instances
of importable classes; a :class:`~repro.traffic.sink.FlowSink` is its own
local sink).  A lambda or a local function is refused by name, with a
:class:`SnapshotError` carrying pickle's message (``Can't pickle local
object 'outer.<locals>.inner'``); a live generator is refused the same
way.  The header still pins the Python version: a snapshot is a
checkpoint on one interpreter, not an archival format.

Cache-generation contract
-------------------------
Generation-stamped state (``Fib``/``Lfib``/``FtnTable``/``Vrf`` counters,
``topology_generation``, the :class:`~repro.dataplane.caches.GenCache`
captured generations) is pickled *together with* the tables it guards, so
a restored graph is exactly as coherent as the live one: every cache's
captured generation still equals (or validly trails) its source table's.
:func:`repro.audit.audit` reports each trailing capture as a ``cache``
note, and the round-trip suites hold its findings identical across a
restore.

Telemetry sessions are intentionally *not* snapshotted: a session holds
process-global hooks (profiler, flight ring) whose lifecycle belongs to
the process, not the network.  Snapshotting a network with an attached
session raises; restore re-attaches a fresh session if the process-wide
telemetry switch is on, and re-syncs vector dispatch to the current
process switch — same rules as ``Network.__init__``.
"""

from __future__ import annotations

import gc
import io
import json
import pickle
import struct
import sys
import types
import zlib
from typing import Any, Callable

import repro
from repro.sim.engine import Event, Simulator

__all__ = [
    "SnapshotError",
    "SCHEMA",
    "snapshot_network",
    "restore_network",
    "save",
    "load",
    "read_header",
    "pending_schedule",
]

MAGIC = b"RSNP1\n"
SCHEMA = "repro.snapshot/20"
_PROTOCOL = 4  # stable, supports qualname globals; identical across workers
_LEN = struct.Struct("<I")


class SnapshotError(RuntimeError):
    """Raised when state cannot be serialized, or a blob cannot be loaded."""


# ---------------------------------------------------------------------------
# Snapshot / restore
# ---------------------------------------------------------------------------

def _uncollected(fn: Callable, arg: Any) -> Any:
    """``fn(arg)`` with the cyclic collector off, then put back as the caller
    had it.  What a dump or a load allocates stays referenced until it
    returns, so a pass inside one frees nothing and only re-walks a growing
    graph of hundreds of thousands of objects (40 % of an E1 N=1000 restore)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return fn(arg)
    finally:
        if was_enabled:
            gc.enable()


def _header(payload: memoryview) -> dict[str, Any]:
    return {
        "schema": SCHEMA,
        "repro_version": repro.__version__,
        "python": f"{sys.version_info[0]}.{sys.version_info[1]}",
        "pickle_protocol": _PROTOCOL,
        "payload_bytes": len(payload),
        "payload_crc32": zlib.crc32(payload),
    }


def snapshot_network(net: Any, extras: dict[str, Any] | None = None) -> bytes:
    """Serialize ``net`` (and caller ``extras``) into a snapshot blob.

    ``extras`` is an arbitrary picklable dict riding in the same pickle as
    the network, so shared references (a provisioner holding the same node
    objects, say) are preserved — restore hands back the *same* object
    graph, not parallel copies.

    The network must not have a telemetry session attached (sessions hold
    process-scoped hooks); detach or ``repro.obs.runtime.reset()`` first.
    """
    if getattr(net, "telemetry", None) is not None:
        raise SnapshotError(
            "cannot snapshot a network with an attached telemetry session; "
            "telemetry is process-scoped — detach it (obs.runtime.reset()) "
            "and re-enable after restore"
        )
    sim = net.sim
    if getattr(sim, "_running", False):
        raise SnapshotError("cannot snapshot while the simulator is running")
    if getattr(sim, "_profile_hook", None) is not None:
        raise SnapshotError(
            "cannot snapshot with a kernel profiler attached; detach first"
        )
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=_PROTOCOL)
    try:
        _uncollected(pickler.dump, {"net": net, "extras": extras or {}})
    except Exception as exc:
        raise SnapshotError(f"snapshot failed: {exc!r}") from exc
    payload = buf.getbuffer()
    header = json.dumps(_header(payload), sort_keys=True).encode("utf-8")
    return b"".join((MAGIC, _LEN.pack(len(header)), header, payload))


def _parse_header(blob: bytes) -> tuple[dict[str, Any], int]:
    if blob[: len(MAGIC)] != MAGIC:
        raise SnapshotError(
            "not a repro snapshot (bad magic); expected a blob written by "
            "repro.sim.snapshot.snapshot_network/save"
        )
    off = len(MAGIC)
    if len(blob) < off + _LEN.size:
        raise SnapshotError("truncated snapshot (no header length)")
    (hlen,) = _LEN.unpack_from(blob, off)
    off += _LEN.size
    if len(blob) < off + hlen:
        raise SnapshotError("truncated snapshot (header shorter than declared)")
    try:
        header = json.loads(blob[off : off + hlen].decode("utf-8"))
    except ValueError as exc:
        raise SnapshotError(f"corrupt snapshot header: {exc}") from exc
    return header, off + hlen


def _check_header(header: dict[str, Any], payload: memoryview) -> None:
    if header.get("schema") != SCHEMA:
        raise SnapshotError(
            f"snapshot schema {header.get('schema')!r} does not match this "
            f"reader ({SCHEMA!r}); re-create the snapshot with this version"
        )
    if header.get("repro_version") != repro.__version__:
        raise SnapshotError(
            f"snapshot written by repro {header.get('repro_version')!r} but "
            f"this is repro {repro.__version__!r}; snapshots do not cross "
            "versions — re-create it"
        )
    here = f"{sys.version_info[0]}.{sys.version_info[1]}"
    if header.get("python") != here:
        raise SnapshotError(
            f"snapshot written under Python {header.get('python')} but this "
            f"is Python {here}; a snapshot is a checkpoint on one interpreter "
            "— re-create it"
        )
    want = header.get("payload_bytes"), header.get("payload_crc32")
    got = len(payload), zlib.crc32(payload)
    if got != want:
        raise SnapshotError(
            f"snapshot payload is (bytes, CRC32) {got} but the header declares "
            f"{want}; the file is truncated or corrupt — re-create the snapshot"
        )


def restore_network(blob: bytes) -> tuple[Any, dict[str, Any]]:
    """Rebuild the ``(net, extras)`` graph from a snapshot blob.

    Validates the header (schema, versions, the payload's length and CRC32)
    before unpickling anything, then re-applies the process-scoped switches
    the pickle deliberately excludes: a fresh telemetry session is attached
    if the process-wide switch is on, and kernel vector dispatch is synced
    to the current ``repro.obs.runtime.set_vector_mode`` setting — the same
    two steps ``Network.__init__`` performs.
    """
    header, off = _parse_header(blob)
    body = memoryview(blob)[off:]
    _check_header(header, body)
    try:
        payload = _uncollected(pickle.loads, body)
    except Exception as exc:
        raise SnapshotError(f"snapshot payload failed to load: {exc!r}") from exc
    net, extras = payload["net"], payload["extras"]

    from repro.obs.runtime import attach_if_enabled, vector_mode_enabled

    net.telemetry = attach_if_enabled(net)
    from repro.net.node import install_vector_dispatch, remove_vector_dispatch

    if vector_mode_enabled():
        install_vector_dispatch(net.sim)
    else:
        remove_vector_dispatch(net.sim)
    return net, extras


def save(path: str, net: Any, extras: dict[str, Any] | None = None) -> int:
    """Snapshot ``net`` to ``path``; returns the byte size written."""
    blob = snapshot_network(net, extras)
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def load(path: str) -> tuple[Any, dict[str, Any]]:
    """Restore ``(net, extras)`` from a snapshot file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    return restore_network(blob)


def read_header(path: str) -> dict[str, Any]:
    """Parse just the header of a snapshot file (no payload load)."""
    with open(path, "rb") as fh:
        blob = fh.read(len(MAGIC) + _LEN.size + 4096)
    header, _off = _parse_header(blob)
    return header


# ---------------------------------------------------------------------------
# Inspection helper (used by the parity and property tests)
# ---------------------------------------------------------------------------

def pending_schedule(sim: Simulator) -> list[tuple[float, str, tuple]]:
    """Deterministic listing of the live pending events, in firing order.

    Walks the time heap and buckets *without executing anything*: for each
    live event, ``(time, callback description, args repr tuple)``.  Two
    simulators with identical schedules produce identical listings, which
    is how the round-trip property suite compares pending-event order.
    """
    out: list[tuple[float, str, tuple]] = []
    for t in sorted(sim._times):
        bucket = sim._buckets.get(t)
        if bucket is None:
            continue
        events = bucket if type(bucket) is not Event else (bucket,)
        for ev in events:
            if ev.cancelled:
                continue
            cb = ev.callback
            if isinstance(cb, types.MethodType):
                desc = f"{type(cb.__self__).__name__}.{cb.__func__.__name__}"
                owner = getattr(cb.__self__, "name", None)
                if owner is not None:
                    desc += f"@{owner}"
            else:
                desc = getattr(cb, "__qualname__", repr(cb))
            out.append((t, desc, tuple(repr(a) for a in ev.args)))
    return out
