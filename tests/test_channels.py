"""CPTP channel representations: Choi, Kraus, composition, named families."""

import math
import tracemalloc

import numpy as np
import pytest

from qdata import (
    DensityMatrix,
    InvalidChannelError,
    InvalidInputError,
    InvalidShapeError,
    PureState,
    QuantumChannel,
    RngStream,
    choi_from_kraus,
    ket,
    kraus_from_choi,
    max_entangled,
    plus_state,
    random_channel,
)
from qdata.linalg import _haar_columns


def random_density(dim, rng):
    g = rng.generator
    a = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m))


def test_identity_choi_is_unnormalized_bell_projector():
    choi = choi_from_kraus([np.eye(2, dtype=complex)], 2, 2)
    bell = max_entangled(2).projector()
    assert np.allclose(np.asarray(choi).reshape(4, 4), 2 * bell, atol=1e-12)


def test_identity_channel_preserves_states():
    ch = QuantumChannel.identity(2)
    rho = random_density(2, RngStream(20, 0))
    assert np.allclose(ch.apply(rho).matrix, rho.matrix, atol=1e-12)


def test_fully_depolarizing_sends_everything_to_mixed():
    ch = QuantumChannel.depolarizing(1.0)
    rho = random_density(2, RngStream(20, 1))
    assert np.allclose(ch.apply(rho).matrix, np.eye(2) / 2, atol=1e-12)


def test_amplitude_damping_on_excited_state():
    ch = QuantumChannel.amplitude_damping(0.3)
    out = ch.apply(ket(1).density())
    assert np.allclose(out.matrix, np.diag([0.3, 0.7]), atol=1e-12)


def test_amplitude_damping_fixes_ground_state():
    ch = QuantumChannel.amplitude_damping(0.77)
    out = ch.apply(ket(0).density())
    assert np.allclose(out.matrix, ket(0).density().matrix, atol=1e-12)


def test_dephasing_kills_coherences():
    ch = QuantumChannel.dephasing(1.0)
    out = ch.apply(plus_state().density())
    assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)
    partial = QuantumChannel.dephasing(0.5).apply(plus_state().density())
    assert abs(partial.matrix[0, 1] - 0.25) < 1e-12


def test_depolarizing_choi_analytic_form():
    p = 0.3
    ch = QuantumChannel.depolarizing(p)
    bell = max_entangled(2).projector()
    expected = (1 - p) * 2 * bell + p * np.eye(4) / 2
    assert np.allclose(ch.choi.reshape(4, 4), expected, atol=1e-12)


def test_kraus_round_trip_preserves_action():
    ch = QuantumChannel.depolarizing(0.3)
    ops = kraus_from_choi(ch.choi, 2, 2)
    back = QuantumChannel.from_kraus(ops, 2, 2)
    root = RngStream(20, 2)
    for k in range(20):
        rho = random_density(2, root.child(k))
        assert np.allclose(ch.apply(rho).matrix, back.apply(rho).matrix, atol=1e-8)


def test_kraus_rank_matches_choi_rank():
    assert len(kraus_from_choi(QuantumChannel.identity(2).choi, 2, 2)) == 1
    assert len(kraus_from_choi(QuantumChannel.depolarizing(1.0).choi, 2, 2)) == 4
    assert len(kraus_from_choi(QuantumChannel.amplitude_damping(0.4).choi, 2, 2)) == 2


def test_from_kraus_rejects_incomplete_set():
    bad = [np.eye(2, dtype=complex) * math.sqrt(1 - 1e-3)]
    with pytest.raises(InvalidChannelError):
        QuantumChannel.from_kraus(bad, 2, 2)


def test_kraus_comes_only_from_from_kraus():
    ops = [math.sqrt(0.8) * np.eye(2), math.sqrt(0.2) * np.diag([1.0, -1.0])]
    ch = QuantumChannel.from_kraus(ops, 2, 2)
    assert len(ch.kraus) == 2
    assert all(np.array_equal(k, op) for k, op in zip(ch.kraus, ops))
    assert QuantumChannel(ch.choi, 2, 2).kraus is None
    with pytest.raises(TypeError):
        QuantumChannel(ch.choi, 2, 2, kraus=ops)


@pytest.mark.parametrize(
    "make",
    [
        lambda: QuantumChannel.depolarizing(0.3),
        lambda: QuantumChannel.dephasing(0.4).compose(QuantumChannel.amplitude_damping(0.2)),
    ],
    ids=["depolarizing", "composed"],
)
def test_canonical_kraus_operators_are_computed_once(make, monkeypatch):
    import qdata.channels

    ch = make()
    assert ch.kraus is None
    calls = []

    def counting(*args):
        calls.append(args)
        return kraus_from_choi(*args)

    monkeypatch.setattr(qdata.channels, "kraus_from_choi", counting)
    first = ch.kraus_operators()
    for _ in range(3):
        again = ch.kraus_operators()
        assert all(a is b for a, b in zip(first, again))
    assert len(calls) == 1
    uncached = kraus_from_choi(ch.choi, ch.dim_in, ch.dim_out)
    assert len(first) == len(uncached)
    assert all(np.array_equal(a, b) for a, b in zip(first, uncached))
    with pytest.raises(ValueError):
        first[0][0, 0] = 0.0


def test_choi_validation_rejects_non_trace_preserving():
    choi = QuantumChannel.identity(2).choi * 1.01
    with pytest.raises(InvalidChannelError):
        QuantumChannel(choi, 2, 2)


def test_choi_validation_rejects_non_cp():
    # transpose map: trace preserving but not completely positive
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[2 * i + j, 2 * j + i] = 1.0
    with pytest.raises(InvalidChannelError):
        QuantumChannel(swap, 2, 2)


def test_from_unitary_rejects_non_unitary():
    with pytest.raises(InvalidInputError):
        QuantumChannel.from_unitary(np.array([[1, 0], [0, 0.5]], dtype=complex))


def test_compose_matches_sequential_application():
    a = QuantumChannel.amplitude_damping(0.4)
    b = QuantumChannel.dephasing(0.6)
    both = b.compose(a)
    root = RngStream(20, 3)
    for k in range(10):
        rho = random_density(2, root.child(k))
        assert np.allclose(both.apply(rho).matrix, b.apply(a.apply(rho)).matrix, atol=1e-10)


def assert_cptp(ch):
    w = np.linalg.eigvalsh(ch.choi)
    assert w.min() >= -1e-12
    marginal = np.einsum("iaja->ij", ch.choi4)
    assert np.max(np.abs(marginal - np.eye(ch.dim_in))) <= 1e-12


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 4)])
def test_compose_and_tensor_of_random_rectangular_channels(dims):
    # unequal dimensions make every index of the link product distinct, so
    # an index-order mistake that square 2x2 channels hide fails here
    d_in, d_mid, d_out = dims
    root = RngStream(22, d_in)
    for k in range(20):
        first = random_channel(d_in, d_mid, root.child(3 * k))
        second = random_channel(d_mid, d_out, root.child(3 * k + 1))
        both = second.compose(first)
        assert (both.dim_in, both.dim_out) == (d_in, d_out)
        assert_cptp(both)
        rho = random_density(d_in, root.child(3 * k + 2))
        staged = second.apply(first.apply(rho)).matrix
        assert np.max(np.abs(both.apply(rho).matrix - staged)) <= 1e-12
        joint = first.tensor(second)
        assert (joint.dim_in, joint.dim_out) == (d_in * d_mid, d_mid * d_out)
        assert_cptp(joint)


def test_tensor_of_identities_is_identity():
    ch = QuantumChannel.identity(2).tensor(QuantumChannel.identity(2))
    assert np.max(np.abs(ch.choi - QuantumChannel.identity(4).choi)) < 1e-12


def test_tensor_acts_locally_on_products():
    gamma = QuantumChannel.amplitude_damping(0.5)
    ext = gamma.tensor(QuantumChannel.identity(2))
    rho = random_density(2, RngStream(20, 4))
    sig = random_density(2, RngStream(20, 5))
    joint = ext.apply(rho.tensor(sig))
    expected = gamma.apply(rho).tensor(sig)
    assert np.allclose(joint.matrix, expected.matrix, atol=1e-10)
    # untouched marginal survives entangled inputs too
    bell = DensityMatrix(max_entangled(2).projector())
    out = ext.apply(bell)
    assert np.allclose(out.reduce((2, 2), (1,)).matrix, np.eye(2) / 2, atol=1e-10)


def test_random_channel_is_cptp_and_deterministic():
    root = RngStream(21, 0)
    for k in range(25):
        ch = random_channel(2, 2, root.child(k))  # constructor validates CPTP
        again = random_channel(2, 2, root.child(k))
        assert np.array_equal(ch.choi, again.choi)
    random_channel(2, 3, RngStream(21, 1))
    random_channel(3, 2, RngStream(21, 2))


def _isometry_formula(dim_in, dim_out, rng, env_dim):
    """V[a, e, i]: the phase-fixed QR of a (dim_out * env) x dim_in Ginibre block."""
    env = env_dim if env_dim is not None else dim_in * dim_out
    g = rng.generator
    shape = (dim_out * env, dim_in)
    q, r = np.linalg.qr((g.standard_normal(shape) + 1j * g.standard_normal(shape)) / np.sqrt(2.0))
    d = np.diag(r)
    return (q * (d / np.abs(d))).reshape(dim_out, env, dim_in)


# every pair of dimensions and environment with room for an isometry
ORACLE_CASES = [
    (d_in, d_out, env)
    for d_in, d_out in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 4)]
    for env in [None, 1, 2, 6, 16]
    if d_out * (env or d_in * d_out) >= d_in
]


@pytest.mark.parametrize("d_in, d_out, env_dim", ORACLE_CASES)
def test_random_channel_equals_the_isometry_formula_bit_for_bit(d_in, d_out, env_dim):
    # bit for bit: the Gram matrix of V's rows regrouped by (input, output);
    # to 1e-12: the dilation's Choi matrix written out index by index
    n = d_in * d_out
    for seed in (1, 2, 7, 21, 30, 45):
        for i in range(4):
            ch = random_channel(d_in, d_out, RngStream(seed, i), env_dim)
            v = _isometry_formula(d_in, d_out, RngStream(seed, i), env_dim)
            w = v.transpose(2, 0, 1).reshape(n, -1)
            assert np.array_equal(ch.choi, w @ w.conj().T)
            dilation = np.einsum("aei,bej->iajb", v, v.conj()).reshape(n, n)
            assert np.max(np.abs(ch.choi - dilation)) <= 1e-12


@pytest.mark.parametrize("d_in, d_out, env_dim", [(2, 2, None), (2, 3, 1), (3, 2, 2)])
def test_random_channel_draws_are_haar_on_average(d_in, d_out, env_dim):
    # a Haar isometry V into dimension N has E[V V^dagger] = (d_in / N) I, so
    # the mean Choi matrix is I / d_out, and E|V_00|^4 = 2 / (N (N + 1)) (a
    # real orthogonal draw would give 3 / (N (N + 2))); each mean over 2,000
    # draws must lie within six of its standard errors
    root = RngStream(46, 10 * d_in + d_out)
    total = d_out * (env_dim or d_in * d_out)
    draws = 2000
    chois = np.empty((draws, d_in * d_out, d_in * d_out), dtype=complex)
    fourth = np.empty(draws)
    for k in range(draws):
        chois[k] = random_channel(d_in, d_out, root.child(k), env_dim).choi
        v = _haar_columns(total, d_in, root.child(k))
        assert np.max(np.abs(v.conj().T @ v - np.eye(d_in))) <= 1e-12
        fourth[k] = abs(v[0, 0]) ** 4
    error = np.max(np.abs(chois.mean(axis=0) - np.eye(d_in * d_out) / d_out))
    assert error <= 6 * chois.std(axis=0).max() / math.sqrt(draws)
    error = abs(fourth.mean() - 2 / (total * (total + 1)))
    assert error <= 6 * fourth.std() / math.sqrt(draws)


class _NoDraws:
    """A stand-in stream that fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"random_channel used rng.{name}")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"env_dim": 2.5}, "env_dim must be an integer"),
        ({"env_dim": True}, "env_dim must be an integer"),
        ({"env_dim": 0}, "env_dim must be at least 1"),
        ({"dim_in": 2.0}, "dim_in must be an integer"),
        ({"dim_in": True}, "dim_in must be an integer"),
        ({"dim_out": np.float64(2)}, "dim_out must be an integer"),
        ({"dim_out": 0}, "dim_out must be at least 1"),
    ],
    ids=["env-float", "env-bool", "env-0", "in-float", "in-bool", "out-float", "out-0"],
)
def test_random_channel_dimensions_follow_the_count_rule(kwargs, message):
    args = {"dim_in": 2, "dim_out": 2, "rng": _NoDraws(), **kwargs}
    with pytest.raises(InvalidInputError, match=message):
        random_channel(**args)


def test_an_oversized_channel_fails_before_its_choi_matrix_is_built():
    # each Choi matrix would be 1024 wide (16 MB), the last one 4096 wide (268 MB)
    inner = random_channel(32, 2, RngStream(21, 8), env_dim=16)
    outer = random_channel(2, 32, RngStream(21, 9), env_dim=1)
    builds = [
        (lambda: QuantumChannel.identity(32), 1024),
        (lambda: QuantumChannel.from_unitary(np.eye(32)), 1024),
        (lambda: QuantumChannel.identity(4).tensor(QuantumChannel.identity(8)), 1024),
        (lambda: outer.compose(inner), 1024),
        (lambda: random_channel(32, 32, RngStream(21, 10), env_dim=2), 1024),
        (lambda: QuantumChannel.identity(64), 4096),
    ]
    for build, dim in builds:
        tracemalloc.start()
        try:
            with pytest.raises(InvalidShapeError, match=rf"dimension {dim} outside supported range \[1, 64\]"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (dim, peak)


def test_random_channel_accepts_numpy_integers():
    ch = random_channel(np.int64(2), np.int32(2), RngStream(21, 7), env_dim=np.uint8(2))
    assert np.array_equal(ch.choi, random_channel(2, 2, RngStream(21, 7), env_dim=2).choi)


def test_random_channel_env_one_is_unitary():
    ch = random_channel(2, 2, RngStream(21, 3), env_dim=1)
    w = np.linalg.eigvalsh(ch.choi.reshape(4, 4))
    assert sum(w > 1e-10) == 1


def _gram_of(v):
    """The Choi matrix of the isometry V[a, e, i]: the Gram matrix of its rows regrouped by (i, a)."""
    w = v.transpose(2, 0, 1).reshape(v.shape[2] * v.shape[0], -1)
    return w @ w.conj().T


@pytest.mark.parametrize("d_in, d_out, env_dim", ORACLE_CASES)
def test_stacked_random_channels_equal_one_at_a_time_bit_for_bit(d_in, d_out, env_dim):
    from qdata.channels import _random_channels

    for seed in (1, 2, 7, 21):
        channels = _random_channels(d_in, d_out, [RngStream(seed, i) for i in range(17)], env_dim)
        assert len(channels) == 17
        for i, ch in enumerate(channels):
            assert (ch.dim_in, ch.dim_out, ch.kraus) == (d_in, d_out, None)
            alone = random_channel(d_in, d_out, RngStream(seed, i), env_dim)
            assert ch.choi.tobytes() == alone.choi.tobytes()
            v = _isometry_formula(d_in, d_out, RngStream(seed, i), env_dim)
            assert ch.choi.tobytes() == _gram_of(v).tobytes()


# seeds and stream ids as Python ints, np.int64 (negative too) and np.uint64,
# beyond 63 bits, and a Python int beyond 64 bits, which is masked
MIXED_STREAMS = [
    (7, 3),
    (np.int64(7), np.uint64(2**63 + 5)),
    (np.uint64(2**64 - 1), np.int64(-4)),
    (2**64 + 9, 11),
    (np.int64(3), 2**64 - 2),
    (0, np.uint64(0)),
]


def test_stacked_random_channels_key_each_stream_whatever_its_integer_types():
    from qdata.channels import _random_channels

    streams = [RngStream(seed, stream_id) for seed, stream_id in MIXED_STREAMS]
    for ch, (seed, stream_id) in zip(_random_channels(2, 3, streams, 2), MIXED_STREAMS, strict=True):
        # the formula draws on the stream's own generator, keyed by RngStream.generator
        v = _isometry_formula(2, 3, RngStream(seed, stream_id), 2)
        assert ch.choi.tobytes() == _gram_of(v).tobytes()


def test_a_stream_with_its_own_generator_draws_on_it_in_a_stack():
    from qdata.channels import _random_channels

    streams = [RngStream(31, i) for i in range(5)]
    streams[1].generator.standard_normal(3)  # advanced: the stack continues from here
    streams[3].generator  # built, nothing drawn
    refs = [RngStream(31, i) for i in range(5)]
    refs[1].generator.standard_normal(3)
    for ch, ref in zip(_random_channels(3, 2, streams), refs, strict=True):
        assert ch.choi.tobytes() == _gram_of(_isometry_formula(3, 2, ref, None)).tobytes()
    # and a second stack on the same streams continues every one of them
    for ch, ref in zip(_random_channels(3, 2, streams), refs, strict=True):
        assert ch.choi.tobytes() == _gram_of(_isometry_formula(3, 2, ref, None)).tobytes()


def test_after_a_stacked_draw_each_generator_continues_as_if_it_had_drawn_alone():
    from qdata.channels import _random_channels

    streams = [RngStream(32, i) for i in range(6)]
    _random_channels(2, 2, streams, 6)
    assert all(stream._generator is None for stream in streams)
    for i, stream in enumerate(streams):
        ref = RngStream(32, i)
        _isometry_formula(2, 2, ref, 6)
        assert np.array_equal(stream.generator.standard_normal(5), ref.generator.standard_normal(5))


def test_a_stack_of_random_channels_is_checked_once_as_a_whole(monkeypatch):
    import qdata.channels
    from qdata.channels import _check_chois, _random_channels, _tensors

    checked = []

    def counting(c, dim_in, dim_out):
        checked.append((c.shape, dim_in, dim_out))
        return _check_chois(c, dim_in, dim_out)

    monkeypatch.setattr(qdata.channels, "_check_chois", counting)
    firsts = _random_channels(2, 3, [RngStream(33, i) for i in range(16)])
    assert checked == [((16, 6, 6), 2, 3)]
    seconds = _random_channels(3, 2, [RngStream(33, 16 + i) for i in range(16)], 2)
    checked.clear()
    _tensors(firsts, seconds)
    assert checked == [((16, 36, 36), 6, 6)]
    checked.clear()
    random_channel(2, 2, RngStream(33, 40))
    assert checked == [((1, 4, 4), 2, 2)]


def test_stacked_tensors_equal_the_one_pair_formula_bit_for_bit():
    from qdata.channels import _random_channels, _tensors

    firsts = _random_channels(2, 3, [RngStream(34, i) for i in range(12)], 2)
    seconds = _random_channels(3, 2, [RngStream(34, 12 + i) for i in range(12)])
    for joint, a, b in zip(_tensors(firsts, seconds), firsts, seconds, strict=True):
        assert (joint.dim_in, joint.dim_out) == (6, 6)
        want = np.einsum("iajc,kbld->ikabjlcd", a.choi4, b.choi4).reshape(36, 36)
        assert joint.choi.tobytes() == want.tobytes()
        assert joint.choi.tobytes() == a.tensor(b).choi.tobytes()


@pytest.mark.parametrize(
    "dim_in, dim_out, env_dim, error, message",
    [
        (2, 2, 2.5, InvalidInputError, "env_dim must be an integer"),
        (2, 0, None, InvalidInputError, "dim_out must be at least 1"),
        (True, 2, None, InvalidInputError, "dim_in must be an integer"),
        (4, 1, 2, InvalidShapeError, "environment too small"),
        (16, 8, 2, InvalidShapeError, "dimension 128 outside"),  # the Choi matrix
        (2, 4, 32, InvalidShapeError, "dimension 128 outside"),  # the dilation
    ],
)
def test_invalid_stack_dimensions_raise_before_any_draw(dim_in, dim_out, env_dim, error, message):
    from qdata.channels import _random_channels

    with pytest.raises(error, match=message):
        _random_channels(dim_in, dim_out, [_NoDraws(), _NoDraws()], env_dim)


def _purity(rho):
    return np.trace(rho.matrix @ rho.matrix).real


def test_random_channel_outputs_are_noisy_on_average():
    g = RngStream(21, 4)
    mixed = DensityMatrix(np.eye(2, dtype=complex) / 2)
    purities = [_purity(random_channel(2, 2, g).apply(mixed)) for _ in range(1000)]
    assert np.mean(purities) < 0.9


def test_random_channel_law_invariant_under_unitary_conjugation():
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
    u = QuantumChannel.from_unitary(
        np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    )
    g1, g2 = RngStream(21, 5), RngStream(21, 6)
    plain = np.mean([_purity(random_channel(2, 2, g1).apply(rho)) for _ in range(10_000)])
    conj = np.mean(
        [_purity(u.apply(random_channel(2, 2, g2).apply(rho))) for _ in range(10_000)]
    )
    assert abs(plain - conj) < 0.01


def _composed_chois_formula(outer, inner):
    """One composed Choi matrix as the one-pair link product wrote it out."""
    choi4 = np.einsum("iajb,acbd->icjd", inner.choi4, outer.choi4)
    return choi4.reshape(inner.dim_in * outer.dim_out, -1)


def test_stacked_link_products_equal_compose_bit_for_bit():
    from qdata.channels import _check_chois, _link_products

    gammas = [k / 149 for k in range(150)]
    root = RngStream(55, 0)
    stacks = [
        (QuantumChannel.dephasing(0.3), [QuantumChannel.amplitude_damping(g) for g in gammas]),
        (QuantumChannel.amplitude_damping(0.4), [QuantumChannel.dephasing(g) for g in gammas]),
        # rectangular 2 -> 3 -> 2, where every index of the link product is distinct
        (random_channel(3, 2, root.child(0)), [random_channel(2, 3, root.child(1 + k)) for k in range(40)]),
    ]
    for outer, inners in stacks:
        chois = _link_products(outer, inners)
        assert chois.shape == (len(inners), 2 * outer.dim_out, 2 * outer.dim_out)
        _check_chois(chois, 2, outer.dim_out)
        for choi, inner in zip(chois, inners):
            assert choi.tobytes() == outer.compose(inner).choi.tobytes()
            assert choi.tobytes() == _composed_chois_formula(outer, inner).tobytes()


def _not_cptp_chois():
    """Choi matrices of 2 -> 2 maps that fail one channel check each."""
    swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)  # the transpose map: TP, not CP
    skewed = QuantumChannel.identity(2).choi.copy()
    skewed[0, 3] += 1e-6j  # not Hermitian
    return {
        "map is not completely positive": swap,
        "map is not trace preserving": 0.9 * QuantumChannel.identity(2).choi,
        "Choi matrix is not Hermitian": skewed,
    }


@pytest.mark.parametrize("message", sorted(_not_cptp_chois()))
def test_a_stack_of_chois_fails_a_check_as_its_failing_channel_does(message):
    from qdata.channels import _check_chois

    bad = _not_cptp_chois()[message]
    with pytest.raises(InvalidChannelError, match=message):
        QuantumChannel(bad, 2, 2)
    good = [QuantumChannel.amplitude_damping(g).choi for g in (0.1, 0.5, 0.9)]
    for position in range(4):
        stack = np.array(good[:position] + [bad] + good[position:])
        with pytest.raises(InvalidChannelError, match=message):
            _check_chois(stack, 2, 2)
    _check_chois(np.array(good), 2, 2)
