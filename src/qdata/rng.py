"""Reproducible random streams.

Every stochastic routine in this package draws from an :class:`RngStream`,
which wraps a counter-based bit generator keyed by ``(seed, stream_id)``
when the stream first draws.  Identical pairs produce identical draw
sequences on every platform; parallel consumers must hold distinct stream
ids, which :meth:`RngStream.child` derives with an order-sensitive 64-bit
mix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RngStream", "mix64", "splitmix64"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (Steele/Lea/Flood constants)."""
    x = (x + _GOLDEN) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix64(*parts: int) -> int:
    """Fold integers into a single 64-bit label, order-sensitively.

    ``mix64(a, b) != mix64(b, a)`` in general, so hierarchical labels
    (cell index, detector index, replication index, ...) stay distinct.
    """
    h = 0
    for p in parts:
        h = splitmix64(h ^ (int(p) & _MASK64))
    return h


@dataclass(eq=False)
class RngStream:
    """A labelled, reproducible random stream.

    seed:
        Master seed shared by a whole run.
    stream_id:
        64-bit label separating this stream from its siblings.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        self._generator = None

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (stateful; draws advance it).

        It is keyed on first access, so a stream that never draws costs
        only its two integers.
        """
        if self._generator is None:
            # Philox is counter-based, so the draw sequence depends only on
            # the key below and never on platform word size or threading.
            key = np.array(
                [
                    splitmix64(self.seed & _MASK64),
                    splitmix64(splitmix64(self.stream_id & _MASK64) ^ _GOLDEN),
                ],
                dtype=np.uint64,
            )
            self._generator = np.random.Generator(np.random.Philox(key=key))
        return self._generator

    def child(self, *indices: int) -> "RngStream":
        """Derive an independent stream for a labelled sub-task.

        Children of distinct index tuples never collide with each other or
        with the parent, so loops can hand one to each iteration.
        """
        return RngStream(self.seed, mix64(self.stream_id, *indices))
