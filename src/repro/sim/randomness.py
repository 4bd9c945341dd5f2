"""Named, reproducible random-number streams.

Every stochastic component in the simulator (traffic generators, RED,
jittered control-plane timers) draws from its *own* named stream derived
from a single experiment seed.  This gives two properties the experiments
rely on:

* **Reproducibility** — the same seed replays the identical packet trace.
* **Variance isolation** — adding a new random component (say, enabling RED)
  does not perturb the draw sequence of existing components, so A/B
  comparisons between configurations see the same offered traffic.

Streams are ``numpy.random.Generator`` instances seeded via
``SeedSequence.spawn``-style derivation: the child seed is the SHA-independent
hash of (root seed, stream name), which NumPy's ``SeedSequence`` supports
directly through its ``spawn_key`` mechanism.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["RandomStreams"]


class RandomStreams:
    """Factory of named, independently-seeded ``numpy.random.Generator`` streams.

    Examples
    --------
    >>> rs = RandomStreams(seed=42)
    >>> g1 = rs.stream("traffic.voice.0")
    >>> g2 = rs.stream("traffic.voice.0")
    >>> g1 is g2          # same name -> same generator object
    True
    >>> rs2 = RandomStreams(seed=42)
    >>> float(rs2.stream("traffic.voice.0").random()) == float(g1.random())
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The mapping name→stream is stable across processes and Python
        versions (it uses CRC32, not the salted builtin ``hash``).
        """
        gen = self._streams.get(name)
        if gen is None:
            import numpy as np

            spawn_key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(self._seed, spawn_key=(spawn_key,))
            gen = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = gen
        return gen

    # ------------------------------------------------------------------
    # State capture/restore — the snapshot layer serializes every named
    # stream's bit-generator state so a restored run draws the exact same
    # variates an uninterrupted run would have.
    def get_state(self) -> dict:
        """Snapshot of the whole factory: seed + per-stream PCG64 state.

        The per-stream payload is ``Generator.bit_generator.state``, a
        plain dict of ints/strings, so the result is JSON/pickle-safe.
        """
        return {
            "seed": self._seed,
            "streams": {
                name: gen.bit_generator.state
                for name, gen in self._streams.items()
            },
        }

    def set_state(self, state: dict) -> None:
        """Restore a :meth:`get_state` snapshot, recreating every stream.

        Streams absent from ``state`` are dropped; streams present are
        rebuilt with their saved bit-generator state, so the next draw on
        each continues exactly where the snapshot left off.
        """
        self._seed = int(state["seed"])
        self._streams = {}
        for name, bg_state in state["streams"].items():
            gen = self.stream(name)       # derive fresh, then overwrite
            gen.bit_generator.state = bg_state

    def reseed(self, seed: int) -> None:
        """Change the root seed of a *pristine* factory.

        Warm-started sweep tasks restore a converged snapshot (whose build
        consumed no streams) and reseed before the first draw.  Reseeding
        after streams exist would silently split one run across two seeds,
        so that is an error.
        """
        if self._streams:
            raise RuntimeError(
                "cannot reseed RandomStreams after streams were created "
                f"({sorted(self._streams)}); reseed before the first draw"
            )
        self._seed = int(seed)

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __len__(self) -> int:
        return len(self._streams)

    def names(self) -> list[str]:
        """Names of all streams created so far, in creation order."""
        return list(self._streams)
