"""Unified data plane: one staged forwarding engine for Router/LSR/PE.

``ForwardingPipeline`` owns the per-packet control flow (ingress →
vrf-demux → label-op → lookup → qos-mark → egress); ``GenCache`` provides
the generation-stamped exact-match caches that front the LPM trie, the
LFIB, and the VRF tables.  See ``docs/ARCHITECTURE.md`` §"Data-plane
pipeline".
"""

from repro._exports import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "caches": ("GenCache",),
    "pipeline": ("ForwardingPipeline", "flow_hash"),
})
