"""Exact-count gate on the per-hop cost of the headline path.

A count, not a time: function calls per packet-hop on ``vpn_sla``'s
scenario (E5 ``full``: CPE CBQ, EF policer at the PE, WFQ on EXP in a
congested core), as cProfile counts them.  Host seconds gate only in
ten-pair ledger comparisons; this catches the same regressions — a
per-packet property call, a classifier call chain, an extra scheduling
frame on the egress cycle — deterministically and in about a second.

Recorded values (seed 1, ``measure_s=2.0``, 10 420 packet-hops):
59.29 calls/hop and 5.50 ``wire_bytes`` calls/hop before the egress cycle
was trimmed, 46.65 and 0.73 after; 45.26 and 0.73 with sources building
plain ``Packet`` objects and ``Node.drop`` taking the enum only; 45.41 and
0.73 measured again with the LFIB read without a cache in front of it (the
cache's ``get`` was one call per label hop, as the lookup is); 44.97 and
0.73 with the ingress PE's VRF decision holding the tunnel (one cache
probe per VPN ingress, not two) and its VPN stack pushed by ``impose``;
41.45 and 0.30 with addresses hashed in C (a tuple ``IPv4Address``), the
ownership test a dict probe in the stage itself, the wire-size memo kept
in step by push / pop, the label-op stage writing TTL and label into the
top entry it holds and E5's EF match reading the DSCP -> class-name
table; 38.43 and 0.30 with the interface reading its discipline's packet
count as an attribute (no ``__len__`` frame per dequeue or flight-recorder
row).  The gate is that plus 3 %.

The telemetry-on twin runs the same scenario as the ledger's
``vpn_sla_obs`` does (flight recorder, flow accountant, kernel profiler,
streaming SLO and span tracing): 68.23 calls/hop before each obs producer
was made one frame, 54.91 after (the kernel profiler's one dict probe per
event, the flight recorder's label copy through ``map``, the flow
accountant's and the SLO engine's class name from a table), 49.89 with
the packet count read as an attribute; its gate is that plus 3 %.
"""

import cProfile
import pstats

from repro.experiments.e5_sla import run_stage
from repro.obs import runtime as obs_runtime

MAX_CALLS_PER_HOP = 39.6
MAX_WIRE_BYTES_CALLS_PER_HOP = 2.0
MAX_CALLS_PER_HOP_TELEMETRY_ON = 51.4


def _profile_run() -> tuple[pstats.Stats, int]:
    """cProfile stats and packet-hops of one E5 ``full`` run at seed 1."""
    # Lazy imports and first-use caches fill outside the counted run.
    run_stage("full", seed=1, measure_s=0.05)
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = run_stage("full", seed=1, measure_s=2.0)
    finally:
        profile.disable()
    hops = sum(
        iface.stats.tx_packets
        for node in result["net"].nodes.values()
        for iface in node.interfaces.values()
    )
    assert hops > 10_000
    return pstats.Stats(profile), hops


def test_vpn_sla_calls_per_packet_hop():
    stats, hops = _profile_run()
    wire_bytes_calls = sum(
        ncalls for (_file, _line, name), (_cc, ncalls, *_rest) in stats.stats.items()
        if name == "wire_bytes"
    )
    assert stats.total_calls / hops <= MAX_CALLS_PER_HOP, (
        f"{stats.total_calls} calls / {hops} packet-hops"
    )
    assert wire_bytes_calls / hops <= MAX_WIRE_BYTES_CALLS_PER_HOP, (
        f"{wire_bytes_calls} wire_bytes calls / {hops} packet-hops"
    )


def test_vpn_sla_calls_per_packet_hop_telemetry_on():
    obs_runtime.reset()
    obs_runtime.enable(sample_every=64, flight_capacity=65536, profile=True)
    obs_runtime.set_slo(True)
    obs_runtime.set_spans(True)
    try:
        stats, hops = _profile_run()
        assert obs_runtime.sessions()  # telemetry really rode along
    finally:
        obs_runtime.reset()
    assert stats.total_calls / hops <= MAX_CALLS_PER_HOP_TELEMETRY_ON, (
        f"{stats.total_calls} calls / {hops} packet-hops"
    )
