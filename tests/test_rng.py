"""Deterministic stream derivation: splitmix64, mix64, RngStream children."""

import numpy as np
import pytest

from qdata import RngStream, mix64, splitmix64


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
