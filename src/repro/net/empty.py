"""The shared empty mapping idle state starts from.

A mapping most owners never fill — a node's drop-reason split, a decision
cache nothing has been looked up in, a scheduler's round-robin pointers, a
non-PE's VRF caches — starts as :data:`EMPTY_MAP` and is swapped for a
``dict`` by its owner's first write, so an idle object holds no empty
mutable container of its own.  Reads behave as on ``{}`` (``get``, ``in``,
``len``, truth, iteration, ``items``, ``== {}``); it has no write methods.
It is one object per process: pickling or copying it yields the same
object, so a restored idle owner shares it too.

(The queue disciplines' idle packet stores are the empty tuple, the
sequence counterpart: see :data:`repro.qos.queues.IDLE`.)
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Iterator

__all__ = ["EMPTY_MAP"]


class _EmptyMap(Mapping):
    """Read-only, always-empty mapping; :data:`EMPTY_MAP` is its one instance."""

    __slots__ = ()

    def __getitem__(self, key: Any) -> Any:
        raise KeyError(key)

    def get(self, key: Any, default: Any = None) -> Any:
        return default

    def __iter__(self) -> Iterator[Any]:
        return iter(())

    def __len__(self) -> int:
        return 0

    # Immutable, so hashable like ``()`` — which also makes it a legal
    # dataclass field default.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return "{}"

    def __reduce__(self) -> str:
        # Pickled by reference: loads as this module's EMPTY_MAP.
        return "EMPTY_MAP"


EMPTY_MAP: Mapping[Any, Any] = _EmptyMap()
