"""Route distinguishers and route targets (RFC 2547 §4.1/§4.3).

A *route distinguisher* (RD) makes customer routes globally unique even
when customers use overlapping address space: the VPN-IPv4 address family
is simply ``RD : IPv4-prefix``.  A *route target* (RT) is the extended
community controlling which VRFs import a route — RDs disambiguate, RTs
authorize.  The distinction matters: two VPNs can share an RT (extranet)
while keeping distinct RDs, which the E7 leak tests exercise.

All three types are tuples (``NamedTuple`` subclasses): they key the RT
index and sit inside every advertised route, so their hash, ``==`` and
``<`` must not cost a Python frame per key.  An RD and an RT carry the
same two numbers, so each stores a leading *kind* tag that keeps
``RouteDistinguisher(a, n) != RouteTarget(a, n)`` under plain tuple
equality.  The tag is an int, not a string: string hashes are salted per
process, and the iteration order of a set of RTs (hence import order)
must not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from typing import ClassVar, NamedTuple, Self

from repro.net.address import Prefix

__all__ = ["RouteDistinguisher", "RouteTarget", "VpnPrefix"]


class _AsnNumberFields(NamedTuple):
    kind: int
    asn: int
    number: int


class _AsnNumber(_AsnNumberFields):
    """What an RD and an RT share: ``(kind, asn, number)``, built and
    rebuilt (pickle, ``copy``) from ``(asn, number)`` through the checks."""

    __slots__ = ()
    _KIND: ClassVar[int]

    def __new__(cls, asn: int, number: int) -> Self:
        if not 0 <= asn <= 0xFFFF:
            raise ValueError(f"ASN out of 16-bit range: {asn}")
        if not 0 <= number <= 0xFFFFFFFF:
            raise ValueError(f"{cls.__name__} number out of 32-bit range: {number}")
        return tuple.__new__(cls, (cls._KIND, asn, number))

    def __getnewargs__(self) -> tuple[int, int]:
        return self[1:]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(asn={self.asn}, number={self.number})"


class RouteDistinguisher(_AsnNumber):
    """Type-0 RD: ``asn:assigned_number``."""

    __slots__ = ()
    _KIND = 0

    def __str__(self) -> str:
        return f"{self.asn}:{self.number}"

    @classmethod
    def parse(cls, text: str) -> "RouteDistinguisher":
        asn, _, num = text.partition(":")
        return cls(int(asn), int(num))


class RouteTarget(_AsnNumber):
    """Route-target extended community, also written ``asn:number``."""

    __slots__ = ()
    _KIND = 1

    def __str__(self) -> str:
        return f"target:{self.asn}:{self.number}"

    @classmethod
    def parse(cls, text: str) -> "RouteTarget":
        body = text.removeprefix("target:")
        asn, _, num = body.partition(":")
        return cls(int(asn), int(num))


class VpnPrefix(NamedTuple):
    """A VPN-IPv4 route key: RD + customer prefix.

    Distinct VPNs announcing the *same* 10.0.0.0/8 produce distinct
    VpnPrefix values — the mechanism that lets one BGP system carry every
    customer's overlapping plan (claim C5).
    """

    rd: RouteDistinguisher
    prefix: Prefix

    def __str__(self) -> str:
        return f"{self.rd}:{self.prefix}"
