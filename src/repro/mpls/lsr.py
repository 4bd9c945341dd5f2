"""Label Switching Router data plane.

An :class:`Lsr` extends the conventional :class:`~repro.routing.router.Router`
with the MPLS fast path: labeled packets hit the LFIB (exact match, cost
``label_lookup_s``); unlabeled packets take the normal LPM path, and — if
the matched FEC has a bound NHLFE — get labels *imposed* and enter an LSP.
This dual behaviour is exactly the mixed deployment of the paper's Fig. 4:
the same box label-switches traffic that has a tunnel and IP-routes traffic
that does not.

The per-packet logic lives in the shared
:class:`~repro.dataplane.ForwardingPipeline`; this class merely enables
the pipeline's label-op and qos-mark stages and owns the MPLS tables.
"""

from __future__ import annotations

from typing import Callable

from repro.mpls.label import LabelSpace
from repro.mpls.lfib import FtnTable, Lfib
from repro.net.packet import Packet
from repro.routing.router import Router

__all__ = ["Lsr"]


class Lsr(Router):
    """IP router + MPLS label switching."""

    def __init__(self, sim, name, **kw) -> None:
        super().__init__(sim, name, **kw)
        self.lfib = Lfib()
        self.ftn = FtnTable()
        self.labels = LabelSpace()
        # RFC 3270 L-LSP support: labels whose *value* implies the
        # scheduling class (populated by TE signaling with a
        # scheduling_class; empty for E-LSPs, where EXP carries the class).
        self.label_class: dict[int, int] = {}
        # Hook the PE subclass installs to receive VPN-labeled packets.
        self.vpn_deliver: Callable[[Packet, str], None] | None = None
        # The checked backing field of ``impose_exp``, read by the
        # forwarding pipeline at every imposition.
        self._impose_exp: int | None = None
        # Turn on the pipeline's label-op stage: same engine as the plain
        # Router, now with LFIB processing and FTN label imposition.
        self.pipeline.enable_mpls(self.lfib, self.ftn)

    @property
    def impose_exp(self) -> int | None:
        """EXP policy at every label imposition, a PE's VPN stack included.

        ``None`` copies the packet's DSCP into EXP (the RFC 3270 edge
        behaviour, claim C6); an int 0..7 forces a fixed value (0 models a
        QoS-blind edge for the ablations).  Anything else is a
        ``ValueError`` here, so the imposition that writes it into a
        label-stack entry (the scalar stage and the burst tier alike) needs
        no check of its own.
        """
        return self._impose_exp

    @impose_exp.setter
    def impose_exp(self, value: int | None) -> None:
        if value is not None and not (
            isinstance(value, int) and not isinstance(value, bool) and 0 <= value <= 7
        ):
            raise ValueError(
                f"{self.name}: impose_exp must be None or an EXP value 0..7, got {value!r}"
            )
        self._impose_exp = value
