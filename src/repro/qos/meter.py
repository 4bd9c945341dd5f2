"""Traffic meters, policers, shapers, and markers.

The DiffServ traffic-conditioning block (RFC 2475) at the provider edge
meters each customer's traffic against its SLA profile and polices (drops),
re-marks (demotes drop precedence), or shapes (delays) the excess.  These
are the "granular Service Level Agreements" of the paper's §3.1.

* :class:`TokenBucket` — the basic (rate, burst) meter.
* :class:`SrTCM` — single-rate three-color marker (RFC 2697): green/yellow/
  red against CIR, CBS, EBS; drives AF drop-precedence remarking.
* :func:`policer` / :func:`remarker` / :func:`dscp_marker` — conditioner
  callables pluggable into an interface's egress chain.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Optional

from repro.net.packet import Packet
from repro.qos.dscp import EXP_OF_DSCP, check_dscp

__all__ = [
    "TokenBucket",
    "Color",
    "SrTCM",
    "TrTCM",
    "policer",
    "dscp_marker",
    "srtcm_remarker",
    "exp_from_dscp_marker",
]


class TokenBucket:
    """Classic token bucket: ``rate_bps`` fill, ``burst_bytes`` depth.

    Tokens are lazily accrued on each call, so there is no per-tick event —
    essential for simulation performance (one O(1) update per packet).
    """

    def __init__(self, rate_bps: float, burst_bytes: int, start_full: bool = True) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        if burst_bytes <= 0:
            raise ValueError("burst must be positive")
        self.rate_bps = float(rate_bps)
        self.burst_bytes = float(burst_bytes)
        self._tokens = float(burst_bytes) if start_full else 0.0
        self._last = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last:
            self._tokens = min(
                self.burst_bytes,
                self._tokens + (now - self._last) * self.rate_bps / 8.0,
            )
            self._last = now

    def tokens(self, now: float) -> float:
        """Current token level in bytes."""
        self._refill(now)
        return self._tokens

    def conforms(self, nbytes: int, now: float) -> bool:
        """True and consume if ``nbytes`` fit in the bucket; else False."""
        self._refill(now)
        if self._tokens >= nbytes:
            self._tokens -= nbytes
            return True
        return False

    def time_until(self, nbytes: int, now: float) -> float:
        """Seconds until ``nbytes`` of tokens will be available (0 if now)."""
        self._refill(now)
        deficit = nbytes - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit * 8.0 / self.rate_bps


class Color(Enum):
    """srTCM marking result."""

    GREEN = "green"
    YELLOW = "yellow"
    RED = "red"


class SrTCM:
    """Single-rate three-color marker (RFC 2697), color-blind mode.

    Two buckets share one fill rate (CIR): the committed bucket (depth CBS)
    colors green; overflow tokens spill into the excess bucket (depth EBS)
    which colors yellow; everything else is red.
    """

    def __init__(self, cir_bps: float, cbs_bytes: int, ebs_bytes: int) -> None:
        if cir_bps <= 0 or cbs_bytes <= 0 or ebs_bytes < 0:
            raise ValueError("invalid srTCM parameters")
        self.cir_bps = float(cir_bps)
        self.cbs = float(cbs_bytes)
        self.ebs = float(ebs_bytes)
        self._tc = float(cbs_bytes)
        self._te = float(ebs_bytes)
        self._last = 0.0
        self.marked = {Color.GREEN: 0, Color.YELLOW: 0, Color.RED: 0}

    def _refill(self, now: float) -> None:
        if now <= self._last:
            return
        add = (now - self._last) * self.cir_bps / 8.0
        self._last = now
        room_c = self.cbs - self._tc
        if add <= room_c:
            self._tc += add
        else:
            self._tc = self.cbs
            self._te = min(self.ebs, self._te + (add - room_c))

    def color(self, nbytes: int, now: float) -> Color:
        """Color a packet of ``nbytes`` and consume the matching tokens."""
        self._refill(now)
        if self._tc >= nbytes:
            self._tc -= nbytes
            c = Color.GREEN
        elif self._te >= nbytes:
            self._te -= nbytes
            c = Color.YELLOW
        else:
            c = Color.RED
        self.marked[c] += 1
        return c

    def counts(self) -> dict[str, int]:
        """Per-color packet counts since creation (for telemetry scrapes)."""
        return {c.value: n for c, n in self.marked.items()}


class TrTCM:
    """Two-rate three-color marker (RFC 2698), color-blind mode.

    Unlike srTCM's single rate with an excess *burst*, trTCM has two
    independent rates: traffic above the peak rate (PIR bucket empty) is
    red; within PIR but above the committed rate (CIR bucket empty) is
    yellow; within both is green.  This is the meter behind the classic
    "CIR/PIR" service contract the paper's SLA discussion implies.
    """

    def __init__(self, cir_bps: float, cbs_bytes: int, pir_bps: float, pbs_bytes: int) -> None:
        if cir_bps <= 0 or pir_bps <= 0 or cbs_bytes <= 0 or pbs_bytes <= 0:
            raise ValueError("invalid trTCM parameters")
        if pir_bps < cir_bps:
            raise ValueError("PIR must be >= CIR")
        self.committed = TokenBucket(cir_bps, cbs_bytes)
        self.peak = TokenBucket(pir_bps, pbs_bytes)
        self.marked = {Color.GREEN: 0, Color.YELLOW: 0, Color.RED: 0}

    def color(self, nbytes: int, now: float) -> Color:
        """Color a packet and consume tokens per RFC 2698 §3 (color-blind)."""
        # Check peak first: exceeding PIR is red regardless of CIR credit,
        # and red packets consume nothing.
        if self.peak.tokens(now) < nbytes:
            self.marked[Color.RED] += 1
            return Color.RED
        if self.committed.tokens(now) < nbytes:
            self.peak.conforms(nbytes, now)
            self.marked[Color.YELLOW] += 1
            return Color.YELLOW
        self.peak.conforms(nbytes, now)
        self.committed.conforms(nbytes, now)
        self.marked[Color.GREEN] += 1
        return Color.GREEN

    def counts(self) -> dict[str, int]:
        """Per-color packet counts since creation (for telemetry scrapes)."""
        return {c.value: n for c, n in self.marked.items()}


# ---------------------------------------------------------------------------
# Conditioner builders — return callables with the Interface conditioner
# signature: (pkt, now) -> pkt | None (None = drop).
# ---------------------------------------------------------------------------

def policer(
    bucket: TokenBucket,
    match: Callable[[Packet], bool] | None = None,
) -> Callable[[Packet, float], Optional[Packet]]:
    """Hard policer: drop packets exceeding the bucket profile.

    ``match`` restricts which packets are metered (others pass untouched);
    the PE ingress uses one policer per customer class.
    """
    return _Policer(bucket, match)


class _Policer:
    """:func:`policer`'s conditioner.  A class, not a closure, so a network
    holding it snapshots it by name, and the ledger's tracer, which books a
    conditioner under the layer of its ``__module__``, keeps it in ``qos``."""

    __slots__ = ("bucket", "match")

    def __init__(self, bucket: TokenBucket, match: Callable[[Packet], bool] | None) -> None:
        self.bucket = bucket
        self.match = match

    def __call__(self, pkt: Packet, now: float) -> Optional[Packet]:
        match = self.match
        if match is not None and not match(pkt):
            return pkt
        return pkt if self.bucket.conforms(pkt._wire or pkt.wire_bytes, now) else None


def dscp_marker(
    dscp: int,
    match: Callable[[Packet], bool] | None = None,
) -> Callable[[Packet, float], Optional[Packet]]:
    """Set the DSCP of (matching) packets — the CPE marking stage of §5."""
    check_dscp(dscp)
    return _Marker(dscp, match)


class _Marker:
    """:func:`dscp_marker`'s conditioner (a class for the reasons
    :class:`_Policer` is one)."""

    __slots__ = ("dscp", "match")

    def __init__(self, dscp: int, match: Callable[[Packet], bool] | None) -> None:
        self.dscp = dscp
        self.match = match

    def __call__(self, pkt: Packet, now: float) -> Optional[Packet]:
        if self.match is None or self.match(pkt):
            pkt.ip.dscp = self.dscp
        return pkt


def srtcm_remarker(
    meter: SrTCM | TrTCM,
    green_dscp: int,
    yellow_dscp: int,
    red_action: str = "drop",
    red_dscp: int | None = None,
    match: Callable[[Packet], bool] | None = None,
) -> Callable[[Packet, float], Optional[Packet]]:
    """Three-color conditioner: green/yellow remark, red drop or remark.

    ``meter`` is either three-color meter: a :class:`TrTCM` makes this the
    two-rate CIR/PIR contract as an egress stage.
    """
    if red_action not in ("drop", "remark"):
        raise ValueError(f"unknown red_action {red_action!r}")
    if red_action == "remark" and red_dscp is None:
        raise ValueError("red_action='remark' requires red_dscp")
    for dscp in (green_dscp, yellow_dscp, red_dscp):
        if dscp is not None:
            check_dscp(dscp)
    red = None if red_action == "drop" else red_dscp    # None: drop red
    return _Remarker(meter, green_dscp, yellow_dscp, red, match)


class _Remarker:
    """:func:`srtcm_remarker`'s conditioner (a class for the reasons
    :class:`_Policer` is one); ``red_dscp`` ``None`` drops red."""

    __slots__ = ("meter", "green_dscp", "yellow_dscp", "red_dscp", "match")

    def __init__(self, meter, green_dscp, yellow_dscp, red_dscp, match) -> None:
        self.meter = meter
        self.green_dscp = green_dscp
        self.yellow_dscp = yellow_dscp
        self.red_dscp = red_dscp
        self.match = match

    def __call__(self, pkt: Packet, now: float) -> Optional[Packet]:
        if self.match is not None and not self.match(pkt):
            return pkt
        color = self.meter.color(pkt._wire or pkt.wire_bytes, now)
        if color is Color.GREEN:
            pkt.ip.dscp = self.green_dscp
        elif color is Color.YELLOW:
            pkt.ip.dscp = self.yellow_dscp
        elif self.red_dscp is None:
            return None
        else:
            pkt.ip.dscp = self.red_dscp
        return pkt


def exp_from_dscp_marker() -> Callable[[Packet, float], Optional[Packet]]:
    """Copy the (visible) DSCP into the top MPLS label's EXP bits.

    Installed on PE egress toward the core *after* label imposition; no-op
    for unlabeled packets.  This is the DSCP→EXP edge mapping of claim C6.
    """
    return _exp_from_dscp


def _exp_from_dscp(pkt: Packet, now: float) -> Optional[Packet]:
    stack = pkt.mpls_stack
    if stack:
        stack[-1].exp = EXP_OF_DSCP[pkt.ip.dscp]
    return pkt
