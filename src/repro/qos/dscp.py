"""DiffServ codepoints, per-hop behaviours, and MPLS EXP mappings.

The paper's end-to-end QoS chain (§5) is: CPE marks DSCP → provider edge
maps DSCP into the 3-bit MPLS EXP field → core LSRs schedule on EXP.  This
module defines the standard codepoints (RFC 2474/2597/3246), the service
classes the experiments use, and the DSCP↔EXP mapping tables (the "E-LSP"
model of RFC 3270, where one LSP carries all classes distinguished by EXP).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

__all__ = [
    "DSCP",
    "ServiceClass",
    "PHB_OF_DSCP",
    "CLASS_OF_DSCP",
    "CLASS_NAME_OF_DSCP",
    "CLASS_OF_EXP",
    "EXP_OF_DSCP",
    "check_dscp",
    "dscp_to_exp",
    "exp_to_class",
    "dscp_to_class",
    "DEFAULT_CLASS_ORDER",
]


class DSCP(IntEnum):
    """Standard DiffServ codepoints (6-bit values)."""

    BE = 0          # best effort / default PHB
    CS1 = 8
    AF11 = 10
    AF12 = 12
    AF13 = 14
    CS2 = 16
    AF21 = 18
    AF22 = 20
    AF23 = 22
    CS3 = 24
    AF31 = 26
    AF32 = 28
    AF33 = 30
    CS4 = 32
    AF41 = 34
    AF42 = 36
    AF43 = 38
    CS5 = 40
    EF = 46         # expedited forwarding (voice)
    CS6 = 48
    CS7 = 56


@dataclass(frozen=True, slots=True)
class ServiceClass:
    """One of the simulator's scheduling classes.

    ``index`` is the scheduler class number: 0 is highest priority by
    convention (EF), the last index is best effort.  ``drop_precedence``
    distinguishes AFx1/AFx2/AFx3 inside one queue for WRED.
    """

    name: str
    index: int
    drop_precedence: int = 0


# Scheduling-class order used throughout the experiments:
#   0 = EF (voice), 1 = AF (assured data), 2 = BE (best effort)
DEFAULT_CLASS_ORDER: tuple[str, ...] = ("EF", "AF", "BE")

# Map every codepoint to (class name, drop precedence).
PHB_OF_DSCP: dict[int, tuple[str, int]] = {
    int(DSCP.EF): ("EF", 0),
    int(DSCP.CS5): ("EF", 0),
    int(DSCP.AF11): ("AF", 0), int(DSCP.AF12): ("AF", 1), int(DSCP.AF13): ("AF", 2),
    int(DSCP.AF21): ("AF", 0), int(DSCP.AF22): ("AF", 1), int(DSCP.AF23): ("AF", 2),
    int(DSCP.AF31): ("AF", 0), int(DSCP.AF32): ("AF", 1), int(DSCP.AF33): ("AF", 2),
    int(DSCP.AF41): ("AF", 0), int(DSCP.AF42): ("AF", 1), int(DSCP.AF43): ("AF", 2),
    int(DSCP.BE): ("BE", 0),
    int(DSCP.CS1): ("BE", 1),
}


# ---------------------------------------------------------------------------
# MPLS EXP mapping (E-LSP model).  The 3-bit EXP field carries the class:
#   EXP 5 = EF, EXP 4..1 = AF (4 minus drop precedence), EXP 0 = BE.
# This is the edge mapping of claim C6: the provider edge copies the
# CPE-specified DSCP service level into the MPLS header so that core LSRs —
# which never look at the (possibly encrypted) IP header — still schedule
# correctly.
# ---------------------------------------------------------------------------

# Dense per-codepoint tables, built once from PHB_OF_DSCP: classification
# and edge marking run on every packet-hop, so the per-packet work is one
# tuple subscript.  Codepoints without a PHB are best effort.
_index = DEFAULT_CLASS_ORDER.index
_PHBS = [PHB_OF_DSCP.get(d, ("BE", 0)) for d in range(64)]
CLASS_OF_DSCP: tuple[int, ...] = tuple(_index(name) for name, _prec in _PHBS)
CLASS_NAME_OF_DSCP: tuple[str, ...] = tuple(name for name, _prec in _PHBS)
EXP_OF_DSCP: tuple[int, ...] = tuple(
    5 if name == "EF" else 4 - min(prec, 3) if name == "AF" else 0
    for name, prec in _PHBS
)
CLASS_OF_EXP: tuple[int, ...] = tuple(
    _index("EF" if exp >= 5 else "AF" if exp >= 1 else "BE") for exp in range(8)
)


def check_dscp(dscp: int) -> None:
    """``ValueError`` unless ``dscp`` is a 6-bit codepoint: markers write
    their configured codepoint into headers unchecked, and the tables above
    are indexed with whatever a header holds."""
    if not 0 <= dscp <= 63:
        raise ValueError(f"DSCP out of 6-bit range: {dscp}")


def dscp_to_class(dscp: int) -> int:
    """Scheduler class index for a DSCP (unknown codepoints → best effort)."""
    return CLASS_OF_DSCP[dscp if 0 <= dscp < 64 else 0]


def dscp_to_exp(dscp: int) -> int:
    """Map a DSCP to the MPLS EXP bits used across the backbone."""
    return EXP_OF_DSCP[dscp if 0 <= dscp < 64 else 0]


def exp_to_class(exp: int) -> int:
    """Scheduler class index for an EXP value (core LSR classification)."""
    return CLASS_OF_EXP[min(max(exp, 0), 7)]
