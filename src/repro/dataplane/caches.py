"""Generation-stamped exact-match caches for the forwarding pipeline.

A :class:`GenCache` sits in front of a slower (or allocation-heavier)
lookup structure — the LPM trie, a VRF table, the FTN — and memoizes
fully-resolved forwarding decisions keyed by an exact-match integer
(the destination address value).  Correctness under control-
plane churn is the whole design problem: a cached decision must never
outlive the tables it was derived from.

The guard is a *generation counter* on each source table (``Fib``,
``FtnTable``, ``Vrf``), bumped on every mutation — route install/withdraw,
FTN bind/unbind.  Every cache read first compares the sources' current
generations against the ones captured when the cache was last (re)filled;
any mismatch flushes the whole cache in O(1) amortized (one
``dict.clear``) and reports a miss.  SPF reconvergence, LDP passes and VRF
route churn all mutate their tables through the counted entry points, so
stale entries are structurally unreachable — there is no
event-subscription protocol to forget.

The full-flush policy (rather than per-entry invalidation) is deliberate:
topology events are rare and coarse (a reconvergence rewrites most of the
table anyway), while per-entry dependency tracking would put bookkeeping
on the hot path.  See docs/ARCHITECTURE.md §"Data-plane pipeline".
"""

from __future__ import annotations

from typing import Any

from repro.net.empty import EMPTY_MAP

__all__ = ["GenCache"]


class GenCache:
    """Exact-match decision cache guarded by source-table generations.

    Parameters
    ----------
    primary:
        Object exposing an integer ``generation`` attribute that changes
        whenever a derived decision could change (e.g. a ``Fib``).
    secondary:
        Optional second generation source when a decision is derived from
        two tables (the LSR's IP path reads the FIB *and* the FTN, a PE's
        VRF decision the VRF *and* the FTN).

    Residency is unbounded: an entry leaves only when a generation change
    flushes the whole cache, so a cache holds at most one entry per key
    looked up since the last table mutation.

    The entries are the shared empty mapping until the first :meth:`put`
    (and again after a flush): a cache nothing has been memoized in holds
    no dict of its own.

    ``None`` is not a cacheable value — :meth:`get` returns ``None`` for
    a miss, so negative decisions must be encoded (the flow cache stores
    the tuple ``(None, None)`` for "no route") or simply left uncached.
    """

    __slots__ = (
        "_primary", "_secondary", "_gen_p", "_gen_s", "_entries",
        "hits", "misses", "invalidations",
    )

    def __init__(self, primary: Any, secondary: Any = None) -> None:
        self._primary = primary
        self._secondary = secondary
        self._gen_p = primary.generation
        self._gen_s = secondary.generation if secondary is not None else 0
        self._entries: dict[int, Any] = EMPTY_MAP
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    def get(self, key: int) -> Any:
        """Cached decision for ``key``, or ``None`` on miss/stale."""
        if self._gen_p != self._primary.generation or (
            self._secondary is not None
            and self._gen_s != self._secondary.generation
        ):
            self._entries = EMPTY_MAP
            self._gen_p = self._primary.generation
            if self._secondary is not None:
                self._gen_s = self._secondary.generation
            self.invalidations += 1
            self.misses += 1
            return None
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: int, value: Any) -> None:
        """Memoize ``value`` under the generations observed by :meth:`get`.

        Callers must :meth:`get` first (the miss refreshes the captured
        generations), which the pipeline's lookup stages always do.
        """
        entries = self._entries
        if entries is EMPTY_MAP:
            entries = self._entries = {}
        entries[key] = value

    def sync(self) -> dict[int, Any]:
        """Refresh the generation guard once and return the live entries.

        The guard half of :meth:`get` without the probe: a stale cache is
        flushed (one invalidation) and no ``hits``/``misses`` move.  The
        pipeline's uniform-burst tier calls this once per burst, reads
        its one key from the returned dict and bumps ``hits`` by the
        burst size itself, so every counter comes out as per-packet
        :meth:`get` calls would leave it — also when the key is absent
        and the burst is handed to the scalar stages, whose first ``get``
        then finds the guard fresh and counts only its miss.  Sound only
        because no source table can mutate mid-burst: control-plane
        mutations are scheduled events, never run synchronously from
        packet delivery.
        """
        if self._gen_p != self._primary.generation or (
            self._secondary is not None
            and self._gen_s != self._secondary.generation
        ):
            self._entries = EMPTY_MAP
            self._gen_p = self._primary.generation
            if self._secondary is not None:
                self._gen_s = self._secondary.generation
            self.invalidations += 1
        return self._entries

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Hit/miss/invalidation counters plus current residency."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "entries": len(self._entries),
        }
