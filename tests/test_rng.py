"""Deterministic stream derivation: splitmix64, mix64, RngStream children."""

import sys
import threading

import numpy as np
import pytest

from qdata import RngStream, mix64, splitmix64
from qdata import rng as rng_module
from qdata.rng import _child_keys, _keyed_multinomials

EDGE_VALUES = (0, 2**63 + 5, 2**64 - 1)


def test_splitmix64_known_values():
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1
    assert splitmix64(2**64 - 1) == splitmix64(2**64 - 1)


def test_splitmix64_wraps_to_u64():
    for x in (0, 1, 2**63, 2**64 - 1):
        assert 0 <= splitmix64(x) < 2**64


def test_mix64_is_order_sensitive():
    assert mix64(1, 2) != mix64(2, 1)
    assert mix64(0, 1, 2) != mix64(0, 2, 1)
    assert mix64(5) == mix64(5)


def test_mix64_distinguishes_arity():
    assert mix64(7) != mix64(7, 0)
    assert mix64(7, 0) != mix64(7, 0, 0)


def test_same_key_same_sequence():
    a = RngStream(42, 3).generator.integers(0, 2**32, 16)
    b = RngStream(42, 3).generator.integers(0, 2**32, 16)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(42, 0).generator.integers(0, 2**32, 16)
    b = RngStream(42, 1).generator.integers(0, 2**32, 16)
    c = RngStream(43, 0).generator.integers(0, 2**32, 16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_children_share_a_tally_and_a_fresh_stream_does_not():
    root = RngStream(5, 9)
    child, grandchild = root.child(1), root.child(2).child(3)
    root.tally(1)
    child.tally(4)
    grandchild.tally(6)
    assert root.samples == child.samples == grandchild.samples == root.child(7).samples == 11
    assert RngStream(5, 9).samples == 0
    assert RngStream(5, child.stream_id).samples == 0


def test_child_matches_mix64_construction():
    direct = RngStream(5, mix64(9, 3, 4)).generator.integers(0, 2**32, 8)
    derived = RngStream(5, 9).child(3, 4).generator.integers(0, 2**32, 8)
    assert np.array_equal(direct, derived)


def test_children_are_pairwise_distinct():
    root = RngStream(1234, 0)
    seqs = [tuple(root.child(i).generator.integers(0, 2**32, 8)) for i in range(64)]
    seqs.append(tuple(root.generator.integers(0, 2**32, 8)))
    assert len(set(seqs)) == len(seqs)


def test_nested_child_indices_do_not_collide():
    root = RngStream(9, 9)
    flat = tuple(root.child(1, 2).generator.integers(0, 2**32, 8))
    nested = tuple(root.child(1).child(2).generator.integers(0, 2**32, 8))
    sibling = tuple(root.child(2, 1).generator.integers(0, 2**32, 8))
    assert flat != sibling
    assert flat != nested


def test_generator_is_cached_per_stream():
    s = RngStream(7, 7)
    assert s.generator is s.generator
    first = s.generator.integers(0, 2**32, 4)
    fresh = RngStream(7, 7).generator.integers(0, 2**32, 4)
    assert np.array_equal(first, fresh)


@pytest.mark.parametrize(
    "seed, stream_id, first_draws",
    [
        (0, 0, [2166428135, 2144645128, 15008122, 1974301718]),
        (1, mix64(3, 0), [3397196044, 422466760, 3629644963, 3501646067]),
        (2**64 - 1, 2**63 + 5, [1578105276, 1094831700, 212181686, 465550431]),
        (0xD1CE5EED, 12345, [572919996, 996880553, 1670201404, 2621500197]),
    ],
)
def test_lazy_stream_draws_equal_an_eagerly_keyed_philox(seed, stream_id, first_draws):
    key = np.array(
        [splitmix64(seed), splitmix64(splitmix64(stream_id) ^ 0x9E3779B97F4A7C15)],
        dtype=np.uint64,
    )
    eager = np.random.Generator(np.random.Philox(key=key)).integers(0, 2**32, 4)
    lazy = RngStream(seed, stream_id).generator.integers(0, 2**32, 4)
    assert lazy.tolist() == eager.tolist() == first_draws


def test_a_stream_keys_its_philox_on_first_access_only(monkeypatch):
    keyed = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        keyed.append(kwargs["key"])
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    root = RngStream(5, 6)
    child = root.child(1).child(2, 3)
    assert keyed == []
    child.generator.random()
    child.generator.random()
    assert len(keyed) == 1


def _stream_key(stream: RngStream) -> list:
    return stream.generator.bit_generator.state["state"]["key"].tolist()


def test_child_keys_equal_the_keys_of_the_child_generators():
    streams = [RngStream(seed, stream_id) for seed in EDGE_VALUES for stream_id in EDGE_VALUES]
    keys = _child_keys(streams, 5)
    assert keys.dtype == np.uint64 and keys.shape == (len(streams) * 5, 2)
    for k, stream in enumerate(streams):
        for i in range(5):
            assert keys[k * 5 + i].tolist() == _stream_key(stream.child(i)), (k, i)


def _random_rows(gen, rows: int, outcomes: int) -> np.ndarray:
    p = gen.random((rows, outcomes))
    p[::3, 0] = 0.0  # exact zeros, as a pure source gives
    return p / p.sum(axis=1, keepdims=True)


def _fresh_multinomials(streams, count: int, n: int, pvals: np.ndarray) -> np.ndarray:
    children = [s.child(i) for s in streams for i in range(count)]
    return np.array([c.generator.multinomial(n, p) for c, p in zip(children, pvals)])


def test_keyed_multinomials_equal_fresh_generators_bit_for_bit():
    gen = np.random.default_rng(50)
    streams = [RngStream(seed, stream_id) for seed in EDGE_VALUES for stream_id in (1, 2**63 + 5)]
    for outcomes, n in ((2, 1), (2, 4000), (4, 900), (4, 10**6)):
        pvals = _random_rows(gen, len(streams) * 9, outcomes)
        got = _keyed_multinomials(_child_keys(streams, 9), n, pvals)
        assert got.dtype == np.int64
        assert np.array_equal(got, _fresh_multinomials(streams, 9, n, pvals)), (outcomes, n)


def _plain(state: dict) -> dict:
    return {k: _plain(v) if isinstance(v, dict) else np.asarray(v).tolist() for k, v in state.items()}


def test_keyed_multinomials_ignore_what_the_thread_generator_drew_before():
    streams = [RngStream(51, k) for k in range(4)]
    keys = _child_keys(streams, 3)
    pvals = _random_rows(np.random.default_rng(51), 12, 4)
    want = _fresh_multinomials(streams, 3, 700, pvals)
    assert np.array_equal(_keyed_multinomials(keys, 700, pvals), want)
    # an odd number of 32-bit draws leaves a buffered half; doubles leave
    # the buffer part used and the counter advanced
    thread_generator = rng_module._per_thread.generator
    thread_generator.integers(0, 2**32, size=3, dtype=np.uint32)
    thread_generator.random()
    while thread_generator.bit_generator.state["buffer_pos"] == 4:
        thread_generator.random()
    state = thread_generator.bit_generator.state
    assert state["has_uint32"] == 1 and state["state"]["counter"].any()
    assert np.array_equal(_keyed_multinomials(keys, 700, pvals), want)
    # the whole state, multinomial-unused fields included, is the fresh one's
    last = streams[-1].child(2).generator
    last.multinomial(700, pvals[-1])
    assert _plain(thread_generator.bit_generator.state) == _plain(last.bit_generator.state)


def test_keyed_multinomials_from_concurrent_threads_equal_the_serial_draws():
    streams = [RngStream(52, k) for k in range(40)]
    keys = _child_keys(streams, 9)
    pvals = _random_rows(np.random.default_rng(52), 360, 4)
    want = _keyed_multinomials(keys, 4000, pvals)
    start = threading.Barrier(4)
    results: dict = {}

    def draw(name):
        start.wait(timeout=10)
        results[name] = [_keyed_multinomials(keys, 4000, pvals) for _ in range(10)]

    # more threads than CPUs, switching as often as the interpreter allows
    threads = [threading.Thread(target=draw, args=(name,)) for name in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4
    for runs in results.values():
        assert len(runs) == 10 and all(np.array_equal(run, want) for run in runs)
