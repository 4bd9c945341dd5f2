"""IP routing: FIB with longest-prefix match, SPF control plane, router node."""

from repro.routing.admission import AdmissionError, ReservationLedger
from repro.routing.fib import Fib, RouteEntry
from repro.routing.router import Router
from repro.routing.spf import advertised_prefixes, converge, reconverge, spf_paths
from repro.routing.spf_core import NoPathError

__all__ = [
    "AdmissionError", "Fib", "NoPathError", "ReservationLedger", "RouteEntry",
    "Router", "advertised_prefixes", "converge", "reconverge", "spf_paths",
]
