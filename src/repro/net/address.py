"""IPv4 addresses and prefixes.

We implement our own minimal IPv4 types (rather than ``ipaddress``) for two
reasons: (1) the VPN experiments need *overlapping* customer address spaces
handled as plain integers with no global-uniqueness assumptions, and (2) the
forwarding hot path compares and masks millions of addresses — plain ints
with precomputed masks profile ~3x faster than ``ipaddress.IPv4Address``
objects.

Addresses are 32-bit ints wrapped in a tiny value type; prefixes are
(network-int, length) pairs.  Everything is hashable and immutable so they
can key FIB/VRF dictionaries.

Both types are tuples (``NamedTuple`` subclasses), because both are hashed
on the hot paths: a :class:`Prefix` keys every RIB, RT-index and FIB dict,
and an :class:`IPv4Address` is looked up in a node's ``addresses`` dict on
every IP-path hop and every host delivery.  Hashing, ``==``, ``<`` and
``sorted()`` then run in C with no Python frame per key; ``__new__`` keeps
the range checks.  Measured per operation under CPython 3.11 on a shared
two-core x86-64 host (``timeit``, best of seven, ranges over three runs),
the slotted dataclass the address used to be (a Python ``__hash__`` and a
generated ``__eq__``, one frame each) against the tuple it is now: dict
membership of a present key 260-390 ns -> 50-70 ns, construction 470-560
ns -> 340-410 ns, ``.value`` read 14-17 ns -> 23-37 ns (a tuple-field
getter, not a slot).  An IP-path hop makes one membership test and one
``.value`` read, so the tuple wins on every hop.

A tuple equals the plain tuple of its fields: ``Prefix(n, l) == (n & mask,
l)`` and ``IPv4Address(v) == (v,)``, with the same hashes.  Build both
through their constructors, never ``tuple.__new__`` / ``_make`` /
``_replace``, which skip the checks.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

__all__ = ["IPv4Address", "Prefix", "AddressError", "MASKS"]

# MASKS[p] is the netmask for prefix length p (host bits cleared).
MASKS: tuple[int, ...] = tuple(
    (0xFFFFFFFF << (32 - p)) & 0xFFFFFFFF if p else 0 for p in range(33)
)

_DOTTED_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


class AddressError(ValueError):
    """Malformed address or prefix."""


class _AddressFields(NamedTuple):
    value: int


_tuple_new = tuple.__new__


class IPv4Address(_AddressFields):
    """A 32-bit IPv4 address.

    Accepts an ``int`` or dotted-quad ``str`` via :meth:`parse`.  Pickle
    and ``copy`` rebuild through the constructor (``__getnewargs__`` of the
    tuple base), so a restored address has passed the range check too.
    """

    __slots__ = ()

    def __new__(cls, value: int) -> "IPv4Address":
        if not 0 <= value <= 0xFFFFFFFF:
            raise AddressError(f"address out of range: {value:#x}")
        return _tuple_new(cls, (value,))

    @classmethod
    def parse(cls, text: str | int | "IPv4Address") -> "IPv4Address":
        """Parse a dotted quad, an int, or pass through an address."""
        if isinstance(text, IPv4Address):
            return text
        if isinstance(text, int):
            return cls(text)
        m = _DOTTED_RE.match(text.strip())
        if not m:
            raise AddressError(f"not a dotted quad: {text!r}")
        octets = [int(g) for g in m.groups()]
        if any(o > 255 for o in octets):
            raise AddressError(f"octet out of range in {text!r}")
        return cls((octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3])

    def __str__(self) -> str:
        v = self.value
        return f"{v >> 24 & 255}.{v >> 16 & 255}.{v >> 8 & 255}.{v & 255}"

    def __repr__(self) -> str:
        return f"IPv4Address({self})"

    def __int__(self) -> int:
        return self.value

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address(self.value + offset)

    def in_prefix(self, prefix: "Prefix") -> bool:
        """True when this address falls inside ``prefix``."""
        return (self.value & MASKS[prefix.length]) == prefix.network


class _PrefixFields(NamedTuple):
    network: int
    length: int


class Prefix(_PrefixFields):
    """An IPv4 prefix: masked network int + prefix length.

    The constructor *normalises* (clears host bits), so ``Prefix.parse``
    accepts e.g. ``10.1.2.3/8`` and stores ``10.0.0.0/8``.  Pickle and
    ``copy`` rebuild through the constructor too (``__getnewargs__`` of the
    tuple base), so a restored prefix has passed the same checks.
    """

    __slots__ = ()

    def __new__(cls, network: int, length: int) -> "Prefix":
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range: {length}")
        if not 0 <= network <= 0xFFFFFFFF:
            raise AddressError(f"network out of range: {network:#x}")
        return _tuple_new(cls, (network & MASKS[length], length))

    @classmethod
    def parse(cls, text: str | "Prefix") -> "Prefix":
        """Parse ``a.b.c.d/len`` notation (host bits tolerated and cleared)."""
        if isinstance(text, Prefix):
            return text
        addr_part, sep, len_part = text.partition("/")
        if not sep:
            raise AddressError(f"missing /length in {text!r}")
        addr = IPv4Address.parse(addr_part)
        try:
            length = int(len_part)
        except ValueError:
            raise AddressError(f"bad prefix length in {text!r}") from None
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range in {text!r}")
        return cls(addr.value & MASKS[length], length)

    @classmethod
    def of(cls, addr: IPv4Address | str, length: int) -> "Prefix":
        """Prefix containing ``addr`` with the given length."""
        a = IPv4Address.parse(addr)
        return cls(a.value & MASKS[length], length)

    def __str__(self) -> str:
        return f"{IPv4Address(self.network)}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix({self})"

    @property
    def mask(self) -> int:
        return MASKS[self.length]

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self.length)

    @property
    def first(self) -> IPv4Address:
        return IPv4Address(self.network)

    @property
    def last(self) -> IPv4Address:
        return IPv4Address(self.network | (~MASKS[self.length] & 0xFFFFFFFF))

    def contains(self, addr: IPv4Address | str) -> bool:
        """True when ``addr`` is inside this prefix."""
        a = IPv4Address.parse(addr)
        return (a.value & MASKS[self.length]) == self.network

    def contains_prefix(self, other: "Prefix") -> bool:
        """True when ``other`` is equal to or more specific than this prefix."""
        return other.length >= self.length and (
            other.network & MASKS[self.length]
        ) == self.network

    def overlaps(self, other: "Prefix") -> bool:
        """True when the two prefixes share any address."""
        return self.contains_prefix(other) or other.contains_prefix(self)

    def subnets(self, new_length: int) -> Iterator["Prefix"]:
        """Iterate the subnets of this prefix at ``new_length``.

        Used by the provisioning helpers to carve per-site subnets out of a
        customer supernet.
        """
        if new_length < self.length:
            raise AddressError(
                f"new length {new_length} shorter than prefix {self.length}"
            )
        if new_length > 32:
            raise AddressError(f"new length {new_length} > 32")
        step = 1 << (32 - new_length)
        for net in range(self.network, self.network + self.num_addresses, step):
            yield Prefix(net, new_length)

    def host(self, index: int) -> IPv4Address:
        """The ``index``-th address inside the prefix (0-based)."""
        if not 0 <= index < self.num_addresses:
            raise AddressError(f"host index {index} out of {self}")
        return IPv4Address(self.network + index)
