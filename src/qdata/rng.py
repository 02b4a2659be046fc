"""Reproducible random streams.

Every stochastic routine in this package draws from an :class:`RngStream`,
which wraps a counter-based bit generator keyed by ``(seed, stream_id)``
when the stream first draws.  Identical pairs produce identical draw
sequences on every platform; parallel consumers must hold distinct stream
ids, which :meth:`RngStream.child` derives with an order-sensitive 64-bit
mix.  A stream and its children share one tally, to which each draw site
adds the samples it draws.

Bulk draws build no stream and no per-stream generator: ``_child_keys``
lists the Philox keys of the children of one seed and a list of stream ids,
mixing all of them at once in numpy ``uint64`` arithmetic, and one
per-thread Philox, re-keyed for each row or stream (``_rekeying``), draws
exactly what a fresh generator with that key would.  ``_keyed_multinomials``
draws a row per key that way (tomography's counts), and ``_draw_each`` a
stack of streams' draws (``helstrom_tests``' trials and the Ginibre blocks
of ``qdata.channels._random_channels``).
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
    """The two 64-bit Philox key words of the stream ``(seed, stream_id)``, any integers
    (Python or numpy ones), each masked to 64 bits as :func:`mix64` masks it."""
    return (
        splitmix64(int(seed) & _MASK64),
        splitmix64(splitmix64(int(stream_id) & _MASK64) ^ _GOLDEN),
    )


# splitmix64's constants as numpy scalars, so the array mixer never mixes in
# a Python int and never converts one per call
_GOLDEN64, _MUL1, _MUL2 = np.uint64(_GOLDEN), np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SHIFTS = np.uint64(30), np.uint64(27), np.uint64(31)


def _splitmix64s(x: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` of every entry of the ``uint64`` array ``x``, in place.

    numpy's ``uint64`` arithmetic wraps mod 2**64, as the masks of the
    scalar mixer do, so each entry is that mixer's value bit for bit.
    """
    x += _GOLDEN64
    x ^= x >> _SHIFTS[0]
    x *= _MUL1
    x ^= x >> _SHIFTS[1]
    x *= _MUL2
    x ^= x >> _SHIFTS[2]
    return x


def _child_keys(seed: int, ids, count: int) -> np.ndarray:
    """Philox keys of ``RngStream(seed, ids[k]).child(i)`` for i < count, k-major.

    Row ``k * count + i`` is the key that child's generator would get:
    ``_philox_key(seed, mix64(ids[k], i))``.  An id is any integer (a
    Python or numpy one), masked to 64 bits as :func:`mix64` masks it; no
    ids give a (0, 2) array.  Every id and child index is mixed at once
    (:func:`_splitmix64s`), and the seed's key word once per call.
    """
    folded = _splitmix64s(np.array([int(i) & _MASK64 for i in ids], dtype=np.uint64))  # mix64(id)
    words = (folded[:, None] ^ np.arange(count, dtype=np.uint64)).reshape(-1)
    _splitmix64s(words)  # mix64(id, i), the child's stream id
    _splitmix64s(words)
    words ^= _GOLDEN64
    keys = np.empty((words.size, 2), dtype=np.uint64)
    keys[:, 0] = splitmix64(seed & _MASK64)
    keys[:, 1] = _splitmix64s(words)
    return keys


_per_thread = threading.local()


def _rekeying():
    """``rekey(key)``, which re-keys this thread's one Philox generator to ``key``, a pair of
    64-bit words, and returns it.

    Re-keying sets the key, counter 0, an empty buffer and no buffered
    32-bit half, which is the whole state of a freshly keyed Philox, so
    until this thread re-keys it again the generator draws exactly what a
    fresh ``Philox(key=key)`` would.  Draw from it before anything else
    re-keys it.
    """
    rekey = getattr(_per_thread, "rekey", None)
    if rekey is None:
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

        def rekey(key) -> np.random.Generator:
            state["state"]["key"] = key
            bit_generator.state = state
            return gen

        _per_thread.rekey = rekey
    return rekey


def _keyed_multinomials(keys: np.ndarray, n: int, pvals: np.ndarray) -> np.ndarray:
    """Row r is ``multinomial(n, pvals[r])`` drawn as a fresh ``Philox(key=keys[r])`` draws it,
    on the per-thread generator re-keyed for each row (:func:`_rekeying`).

    numpy's multinomial draws a row's first count as a binomial of the
    first probability over the remaining mass, 1.0, and leaves the rest to
    the last count, so a row of two outcomes is drawn here as
    ``binomial(n, p0)`` and ``n - x``, the same bits at a third less cost;
    wider rows draw ``multinomial``.  That binomial draws ``n - X`` from
    ``1 - p0`` when p0 > 0.5, so two rows one ulp either side of 0.5 swap
    their counts rather than move them by at most one: any change that
    moves a Born row's last bit can move its counts far.
    """
    rekey = _rekeying()
    if pvals.shape[1] == 2:
        pairs = zip(keys.tolist(), pvals[:, 0].tolist())
        first = np.array([rekey(key).binomial(n, p) for key, p in pairs], dtype=np.int64)
        return np.stack([first, n - first], axis=1)
    counts = np.empty(pvals.shape, dtype=np.int64)
    for r, key in enumerate(keys.tolist()):
        counts[r] = rekey(key).multinomial(n, pvals[r])
    return counts


def _draw_each(streams, draw, rows) -> list:
    """``draw(generator, row)`` for each stream and row, on the generator the stream's own
    draws would come from next, bit for bit.

    A stream that has not drawn yet builds no generator: it draws on the
    per-thread Philox re-keyed to its key (:func:`_rekeying`) and keeps
    ``(draw, row)``, which its own generator, if it is ever built, repeats
    first, so its later draws continue from there.  ``draw`` draws, and
    does nothing else: it neither re-keys the per-thread generator nor
    depends on anything but its arguments.
    """
    rekey = _rekeying()
    out = []
    for stream, row in zip(streams, rows):
        if stream._generator is not None or stream._drawn is not None:
            out.append(draw(stream.generator, row))
            continue
        out.append(draw(rekey(_philox_key(stream.seed, stream.stream_id)), row))
        stream._drawn = (draw, row)
    return out


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
        # the draw a generator of this stream repeats when it is built (_draw_each)
        self._drawn = None
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
            if self._drawn is not None:
                draw, row = self._drawn
                draw(self._generator, row)
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
