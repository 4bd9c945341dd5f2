"""MPLS: labels, LFIB, LSR data plane, LDP distribution, traffic engineering."""

from repro._exports import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "label": (
        "EXPLICIT_NULL", "FIRST_UNRESERVED", "IMPLICIT_NULL", "MAX_LABEL",
        "LabelExhausted", "LabelSpace",
    ),
    "frr": ("Bypass", "FastReroute", "FrrError"),
    "ldp": ("LdpResult", "reset_ldp", "run_ldp"),
    "lfib": ("FtnTable", "LabelOp", "Lfib", "LfibEntry", "Nhlfe"),
    "lsr": ("Lsr",),
    "te": ("AdmissionError", "TeLsp", "TrafficEngineering"),
})
