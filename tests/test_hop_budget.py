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
cache's ``get`` was one call per label hop, as the lookup is).
"""

import cProfile
import pstats

from repro.experiments.e5_sla import run_stage

MAX_CALLS_PER_HOP = 50.0
MAX_WIRE_BYTES_CALLS_PER_HOP = 2.0


def test_vpn_sla_calls_per_packet_hop():
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
    stats = pstats.Stats(profile)
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
