"""Reproducible random streams.

Every stochastic routine in this package draws from an :class:`RngStream`,
which wraps a counter-based bit generator keyed by ``(seed, stream_id)``
when the stream first draws.  Identical pairs produce identical draw
sequences on every platform; parallel consumers must hold distinct stream
ids, which :meth:`RngStream.child` derives with an order-sensitive 64-bit
mix.  A stream and its children share one tally, to which each draw site
adds the samples it draws.

Bulk draws skip the per-stream generator: ``_child_keys`` lists the Philox
keys of many children without building them, and ``_keyed_multinomials``
re-keys one per-thread Philox for each row, so every row draws exactly what
a fresh generator with that key would.
"""

from __future__ import annotations

import threading
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


def _philox_key(seed: int, stream_id: int) -> tuple:
    """The two 64-bit Philox key words of the stream ``(seed, stream_id)``."""
    return (
        splitmix64(seed & _MASK64),
        splitmix64(splitmix64(stream_id & _MASK64) ^ _GOLDEN),
    )


def _child_keys(streams, count: int) -> np.ndarray:
    """Philox keys of ``streams[k].child(i)`` for i < count, one row per child, k-major.

    Row ``k * count + i`` is the key that child's generator would get.
    """
    keys = [_philox_key(s.seed, mix64(s.stream_id, i)) for s in streams for i in range(count)]
    return np.array(keys, dtype=np.uint64).reshape(-1, 2)


_per_thread = threading.local()


def _keyed_multinomials(keys: np.ndarray, n: int, pvals: np.ndarray) -> np.ndarray:
    """Row r is ``multinomial(n, pvals[r])`` drawn as a fresh ``Philox(key=keys[r])`` draws it.

    One Philox per thread is re-keyed for each row: key r, counter 0, an
    empty buffer and no buffered 32-bit half, which is the whole state of a
    freshly keyed Philox.  The generator never leaves this function.
    """
    gen = getattr(_per_thread, "generator", None)
    if gen is None:
        gen = _per_thread.generator = np.random.Generator(np.random.Philox(0))
    bit_generator = gen.bit_generator
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    counts = np.empty(pvals.shape, dtype=np.int64)
    for r, key in enumerate(keys.tolist()):
        state["state"]["key"] = key
        bit_generator.state = state
        counts[r] = gen.multinomial(n, pvals[r])
    return counts


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
        self._tally = [0]

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (stateful; draws advance it).

        It is keyed on first access, so a stream that never draws costs
        only its two integers.
        """
        if self._generator is None:
            # Philox is counter-based, so the draw sequence depends only on
            # the key below and never on platform word size or threading.
            key = np.array(_philox_key(self.seed, self.stream_id), dtype=np.uint64)
            self._generator = np.random.Generator(np.random.Philox(key=key))
        return self._generator

    def child(self, *indices: int) -> "RngStream":
        """Derive an independent stream for a labelled sub-task.

        Children of distinct index tuples never collide with each other or
        with the parent, so loops can hand one to each iteration.  The child
        shares the parent's sample tally.
        """
        child = RngStream(self.seed, mix64(self.stream_id, *indices))
        child._tally = self._tally
        return child

    @property
    def samples(self) -> int:
        """Samples drawn so far from this stream's family, as tallied by the draws."""
        return self._tally[0]

    def tally(self, samples: int) -> None:
        """Add ``samples`` drawn samples to the tally the family shares."""
        self._tally[0] += samples
