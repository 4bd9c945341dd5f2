"""E3 — Forwarding cost: exact-match label lookup vs longest-prefix match.

Claim C4 (§3): "The labels enable routers and switches to forward traffic
based on information in the labels instead of having to inspect the
various fields deep within each and every packet.  The less time devices
spend inspecting traffic, the more time they have to forward it."

Two measurements:

* **Micro** — wall-clock lookups/second on the actual data structures: a
  binary-trie FIB loaded with a realistic prefix mix (sampled lengths
  /16–/24 like a provider table) versus the LFIB dict.  The LFIB wins by a
  factor that *grows with the routing-table size*, which is the argument's
  real content (an LPM is O(address bits), an exact match is O(1)).
* **Macro** — the same ratio pushed through the simulator: a line of
  routers whose ``ProcessingModel`` lookup costs are set from the micro
  measurement; packets-per-second throughput of a labeled vs an unlabeled
  path then shows the end-to-end effect.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Sequence

from repro.mpls.lfib import LabelOp, Lfib, LfibEntry
from repro.net.address import IPv4Address, Prefix
from repro.routing.fib import Fib, RouteEntry

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = [
    "build_random_fib",
    "build_random_lfib",
    "measure_lookup_rate",
    "run_e3",
]


def build_random_fib(n_prefixes: int, rng: np.random.Generator) -> tuple[Fib, np.ndarray]:
    """A FIB with ``n_prefixes`` random routes and addresses that hit them.

    Prefix lengths are drawn from a provider-like mix (mostly /24 with
    /16–/23 tails); returns (fib, matching address values).
    """
    import numpy as np

    fib = Fib()
    lengths = rng.choice(
        [16, 18, 20, 22, 24], size=n_prefixes, p=[0.05, 0.10, 0.15, 0.20, 0.50]
    )
    nets = rng.integers(0x0B000000, 0xDF000000, size=n_prefixes, dtype=np.int64)
    addrs = np.empty(n_prefixes, dtype=np.int64)
    for i in range(n_prefixes):
        length = int(lengths[i])
        pfx = Prefix.of(IPv4Address(int(nets[i])), length)
        fib.install(pfx, RouteEntry("eth0", None, source="bench"))
        # An address inside the prefix (random host bits).
        host = int(rng.integers(0, pfx.num_addresses))
        addrs[i] = pfx.network + host
    return fib, addrs


def build_random_lfib(n_labels: int) -> tuple[Lfib, np.ndarray]:
    """An LFIB with ``n_labels`` swap entries and the labels to look up."""
    import numpy as np

    lfib = Lfib()
    labels = np.arange(16, 16 + n_labels, dtype=np.int64)
    for label in labels:
        lfib.install(int(label), LfibEntry(LabelOp.SWAP, out_label=int(label) + 1, out_ifname="eth0"))
    return lfib, labels


def measure_lookup_rate(lookup, keys: Sequence[int], repeats: int = 3) -> float:
    """Best-of-N lookups/second for ``lookup`` over ``keys``."""
    keys = [int(k) for k in keys]
    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        for k in keys:
            lookup(k)
        dt = time.perf_counter() - t0
        best = max(best, len(keys) / dt if dt > 0 else 0.0)
    return best


def run_e3(
    table_sizes: Sequence[int] = (1_000, 10_000, 50_000),
    n_lookups: int = 20_000,
    seed: int = 81,
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """The E3 table: lookups/s for FIB-LPM vs LFIB across table sizes."""
    import numpy as np

    rng = np.random.default_rng(seed)
    rows: list[dict[str, Any]] = []
    raw: dict[str, Any] = {}
    for size in table_sizes:
        fib, addrs = build_random_fib(size, rng)
        lfib, labels = build_random_lfib(size)
        addr_keys = rng.choice(addrs, size=n_lookups)
        label_keys = rng.choice(labels, size=n_lookups)
        fib_rate = measure_lookup_rate(fib.lookup, addr_keys)
        lfib_rate = measure_lookup_rate(lfib.lookup, label_keys)
        raw[size] = {"fib_rate": fib_rate, "lfib_rate": lfib_rate}
        rows.append(
            {
                "table_size": size,
                "lpm_lookups_per_s": int(fib_rate),
                "label_lookups_per_s": int(lfib_rate),
                "speedup": round(lfib_rate / fib_rate, 2),
            }
        )
    return rows, raw
