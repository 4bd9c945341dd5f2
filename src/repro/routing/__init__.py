"""IP routing: FIB with longest-prefix match, SPF control plane, router node."""

from repro._exports import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "admission": ("AdmissionError", "ReservationLedger"),
    "fib": ("Fib", "RouteEntry"),
    "router": ("Router",),
    "spf": ("advertised_prefixes", "converge", "reconverge", "spf_paths"),
    "spf_core": ("NoPathError",),
})
