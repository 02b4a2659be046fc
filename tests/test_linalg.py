"""Dense operator helpers: products, partial traces, spectra, metrics."""

import math

import numpy as np
import pytest

from qdata import (
    InvalidInputError,
    InvalidShapeError,
    RngStream,
    eig_hermitian,
    haar_random_state,
    haar_random_unitary,
    hermitian_basis,
    ket,
    kron,
    nearest_density_matrix,
    partial_trace,
    plus_state,
    rotation_y,
    trace_distance,
    trace_norm,
    uhlmann_fidelity,
    worst_fidelity,
)
from qdata import linalg
from qdata.linalg import _haar_columns, as_integer, as_seed, is_hermitian, trace_norms

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _ginibre_density(dim, rng):
    g = rng.generator
    a = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m)


def test_kron_pauli_flip_on_basis_state():
    v00 = np.zeros(4, dtype=complex)
    v00[0] = 1.0
    v11 = np.zeros(4, dtype=complex)
    v11[3] = 1.0
    assert np.allclose(kron(SX, SX) @ v00, v11, atol=1e-12)


def test_kron_identity_and_shapes():
    a = np.arange(6, dtype=complex).reshape(2, 3)
    assert kron(np.eye(1), a).shape == (2, 3)
    assert np.allclose(kron(np.eye(1), a), a)
    assert kron(a, np.eye(2)).shape == (4, 6)


def test_kron_bilinear_and_associative():
    g = RngStream(2, 0).generator
    a, b, c = (g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2)) for _ in range(3))
    assert np.allclose(kron(a + b, c), kron(a, c) + kron(b, c), atol=1e-12)
    assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)


def test_kron_mixed_product_rule():
    g = RngStream(2, 1).generator
    a, b, c, d = (g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2)) for _ in range(4))
    assert np.allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12)


def test_partial_trace_of_product_recovers_factors():
    rho = _ginibre_density(2, RngStream(3, 0))
    sig = _ginibre_density(3, RngStream(3, 1))
    joint = kron(rho, sig)
    assert np.allclose(partial_trace(joint, (2, 3), (0,)), rho, atol=1e-12)
    assert np.allclose(partial_trace(joint, (2, 3), (1,)), sig, atol=1e-12)


def test_partial_trace_of_bell_state_is_maximally_mixed():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    proj = np.outer(bell, bell.conj())
    assert np.allclose(partial_trace(proj, (2, 2), (0,)), np.eye(2) / 2, atol=1e-12)
    assert np.allclose(partial_trace(proj, (2, 2), (1,)), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_three_qubits_keeps_order_and_trace():
    rho = _ginibre_density(8, RngStream(3, 2))
    kept = partial_trace(rho, (2, 2, 2), (0, 2))
    assert kept.shape == (4, 4)
    assert abs(np.trace(kept) - 1) < 1e-12
    # keeping everything is the identity operation
    assert np.allclose(partial_trace(rho, (2, 2, 2), (0, 1, 2)), rho, atol=1e-12)


def test_eig_hermitian_sigma_z():
    w, v = eig_hermitian(SZ)
    assert np.allclose(w, [1.0, -1.0], atol=1e-12)
    assert abs(abs(v[0, 0]) - 1) < 1e-12
    assert abs(abs(v[1, 1]) - 1) < 1e-12


def test_eig_hermitian_sigma_x_eigenvectors():
    w, v = eig_hermitian(SX)
    assert np.allclose(w, [1.0, -1.0], atol=1e-12)
    # +1 eigenvector proportional to |+>
    assert abs(abs(v[:, 0] @ plus_state().vector.conj()) - 1) < 1e-12


def test_eig_hermitian_reconstructs_random_operator():
    g = RngStream(3, 3).generator
    a = g.standard_normal((8, 8)) + 1j * g.standard_normal((8, 8))
    h = a + a.conj().T
    w, v = eig_hermitian(h)
    assert np.all(np.diff(w) <= 1e-12)
    assert np.allclose((v * w) @ v.conj().T, h, atol=1e-10)


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(InvalidInputError):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_trace_norm_examples():
    rho = _ginibre_density(3, RngStream(4, 0))
    assert abs(trace_norm(rho) - 1) < 1e-12
    assert abs(trace_norm(SZ) - 2) < 1e-12
    half_diff = 0.5 * ket(0).projector() - 0.5 * plus_state().projector()
    assert abs(trace_norm(half_diff) - math.sqrt(0.5)) < 1e-12


def test_trace_distance_examples():
    assert abs(trace_distance(ket(0).density(), ket(1).density()) - 1) < 1e-12
    d = trace_distance(ket(0).density(), plus_state().density())
    assert abs(d - 1 / math.sqrt(2)) < 1e-12
    assert trace_distance(ket(0).density(), ket(0).density()) < 1e-12


def test_uhlmann_fidelity_examples():
    assert abs(uhlmann_fidelity(ket(0).density(), plus_state().density()) - 0.5) < 1e-12
    assert abs(uhlmann_fidelity(ket(0).density(), ket(0).density()) - 1) < 1e-12
    assert uhlmann_fidelity(ket(0).density(), ket(1).density()) < 1e-12


def test_fuchs_van_de_graaf_bounds_on_random_pairs():
    root = RngStream(4, 1)
    for k in range(1000):
        dim = 2 + (k % 3)
        r = _ginibre_density(dim, root.child(k, 0))
        s = _ginibre_density(dim, root.child(k, 1))
        td = trace_distance(r, s)
        f = uhlmann_fidelity(r, s)
        assert 1 - math.sqrt(f) <= td + 1e-9
        assert td <= math.sqrt(1 - f) + 1e-9


def test_nearest_density_matrix_clips_negative_eigenvalue():
    out = nearest_density_matrix(np.diag([1.2, -0.2]).astype(complex))
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_nearest_density_matrix_postconditions():
    root = RngStream(4, 2)
    for k in range(50):
        g = root.child(k).generator
        a = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
        h = (a + a.conj().T) / 8
        h = h + np.eye(4) * (1 - np.trace(h).real) / 4  # unit trace, maybe indefinite
        out = nearest_density_matrix(h)
        w = np.linalg.eigvalsh(out)
        assert w.min() >= -1e-12
        assert abs(np.trace(out).real - 1) < 1e-10
        assert np.allclose(out, out.conj().T, atol=1e-12)


def test_nearest_density_matrix_fixes_valid_input():
    rho = _ginibre_density(3, RngStream(4, 3))
    assert np.allclose(nearest_density_matrix(rho), rho, atol=1e-10)


def _reference_projection(a):
    """The one-matrix simplex projection, written out on its own."""
    w, v = np.linalg.eigh(a)
    w, v = w[::-1], v[:, ::-1]
    css = np.cumsum(w)
    k = np.arange(1, len(w) + 1)
    above = np.nonzero(w - (css - 1.0) / k > 0)[0]
    kmax = int(above[-1]) + 1
    shift = (css[kmax - 1] - 1.0) / kmax
    w2 = np.clip(w - shift, 0.0, None)
    return (v * w2) @ v.conj().T


def _projection_panel(dim):
    """Hermitian inputs with trace near 1: random (most of them indefinite, so
    some eigenvalues clip), rank-deficient, and with degenerate spectra."""
    root = RngStream(4, 10 + dim)
    panel = []
    for k in range(12):
        g = root.child(k).generator
        a = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
        h = (a + a.conj().T) / (2 * dim)
        panel.append(h + np.eye(dim) * (1 - np.trace(h).real) / dim)
    for k in range(6):
        u = haar_random_unitary(dim, root.child(100 + k))
        rank = 1 + k % (dim - 1)
        spectrum = np.zeros(dim)
        spectrum[:rank] = 1.0 / rank  # rank-deficient, degenerate support
        panel.append((u * spectrum) @ u.conj().T)
        spectrum = np.full(dim, 0.3 / dim)
        spectrum[0] += 0.7  # degenerate bottom of the spectrum
        panel.append((u * spectrum) @ u.conj().T)
        spectrum = np.linspace(0.8, -0.2, dim)
        spectrum += (1.0 - spectrum.sum()) / dim  # unit trace, clipped tail
        panel.append((u * spectrum) @ u.conj().T)
    panel.append(np.eye(dim, dtype=complex) / dim)
    panel.append(np.eye(dim, dtype=complex) * 1.3 / dim)
    panel.append(np.diag(np.r_[1.2, np.full(dim - 1, -0.2 / (dim - 1))]).astype(complex))
    return np.array(panel)


@pytest.mark.parametrize("dim", [2, 4])
def test_stacked_projection_equals_the_one_matrix_routine_bit_for_bit(dim):
    from qdata.linalg import _project_to_density

    panel = _projection_panel(dim)
    want = np.array([_reference_projection(h) for h in panel])
    for h, one in zip(panel, want):
        assert _project_to_density(h).tobytes() == one.tobytes()
        assert nearest_density_matrix(h).tobytes() == one.tobytes()
    assert nearest_density_matrix(panel).tobytes() == want.tobytes()
    grouped = panel.reshape(-1, 3, dim, dim)
    assert nearest_density_matrix(grouped).tobytes() == want.tobytes()
    assert nearest_density_matrix(panel[:1]).shape == (1, dim, dim)


def test_nearest_density_matrix_rejects_wild_trace():
    with pytest.raises(InvalidInputError):
        nearest_density_matrix(np.eye(2, dtype=complex) * 3.0)


def test_trace_norm_is_the_descending_absolute_eigenvalue_sum_bit_for_bit():
    gen = RngStream(71, 0).generator
    for d in range(2, 7):
        for _ in range(20):
            g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
            h = (g + g.conj().T) / 2
            assert trace_norm(h) == np.sum(np.abs(np.linalg.eigh(h)[0][::-1]))


def test_operator_size_cap():
    big = np.eye(65, dtype=complex)
    with pytest.raises(InvalidShapeError):
        trace_norm(big)


def test_is_hermitian_checks_every_matrix_of_a_stack():
    stack = np.array([np.eye(2), SX, SY, SZ], dtype=complex)
    assert is_hermitian(stack) and is_hermitian(stack[2])
    stack[2, 0, 1] += 1e-9
    assert not is_hermitian(stack)
    assert is_hermitian(stack, atol=1e-8)
    assert is_hermitian(np.delete(stack, 2, axis=0))


def _whole_matrix_is_hermitian(m, atol=1e-12):
    # the check as it compared every entry with its mirror
    a = np.asarray(m, dtype=complex)
    return bool(abs(a - a.swapaxes(-1, -2).conj()).max() <= atol)


def test_is_hermitian_rules_as_the_whole_matrix_comparison():
    gen = np.random.default_rng(60)
    specials = (np.nan, np.inf, -np.inf, 1e308, 5e-13, 1e-12, np.nextafter(1e-12, 1.0), -0.0)
    # small inputs are compared whole, larger ones by triangles
    shapes = ((1, 1), (2, 2), (3, 3), (4, 4), (3, 2, 2), (2, 3, 4, 4), (5, 8, 8))
    shapes += ((300, 2, 2), (150, 4, 4), (5, 30, 3, 3), (20, 8, 8), (40, 40))
    assert max(math.prod(s) for s in shapes[:7]) <= linalg._WHOLE_CHECK_SIZE
    assert min(math.prod(s) for s in shapes[7:]) > linalg._WHOLE_CHECK_SIZE
    for shape in shapes:
        d = shape[-1]
        for trial in range(40):
            a = gen.normal(size=shape) + 1j * gen.normal(size=shape)
            a = (a + a.conj().swapaxes(-1, -2)) / 2
            flat = a.reshape(-1)
            # infinities meet their mirrors here and in both checks, which warn alike
            with np.errstate(over="ignore", invalid="ignore"):
                # a few entries moved off Hermitian by small, tolerance-sized or special amounts
                for _ in range(trial % 4):
                    k = gen.integers(flat.size)
                    value = specials[gen.integers(len(specials))]
                    flat[k] += value if gen.integers(2) else 1j * value
                if trial % 5 == 0:
                    i, j = gen.integers(d, size=2)
                    a[..., i, j] = a[..., j, i].conj() + 1e-12 * gen.choice((1, 1j))
                for atol in (1e-12, 1e-9, 0.0):
                    assert is_hermitian(a, atol) == _whole_matrix_is_hermitian(a, atol), (shape, trial, atol)
    real = np.array([[1.0, 2.0], [2.0 + 1e-13, 3.0]])
    assert is_hermitian(real) == _whole_matrix_is_hermitian(real) is True
    assert is_hermitian(real, 1e-14) == _whole_matrix_is_hermitian(real, 1e-14) is False
    for bad in (np.zeros((2, 3)), np.zeros(4), np.zeros((5, 2, 3)), np.zeros((300, 2, 3))):
        with pytest.raises(ValueError):
            _whole_matrix_is_hermitian(bad)
        with pytest.raises(ValueError):
            is_hermitian(bad)


def test_is_hermitian_on_a_stack_allocates_about_one_stack():
    import tracemalloc

    gen = np.random.default_rng(61)
    a = gen.normal(size=(150, 4, 4)) + 1j * gen.normal(size=(150, 4, 4))
    stack = a + a.conj().swapaxes(-1, -2)
    assert is_hermitian(stack)  # the per-dimension index tables are built
    tracemalloc.start()
    try:
        assert is_hermitian(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the upper triangle and its mirror take 5/4 of the stack, where the
    # whole difference matrix peaked near three stacks
    assert peak <= 1.4 * stack.nbytes, (peak, stack.nbytes)


def test_trace_norms_rejects_a_non_hermitian_member():
    stack = np.array([SZ, SX + 1j * SZ], dtype=complex)
    with pytest.raises(InvalidInputError, match="matrix is not Hermitian within tolerance"):
        trace_norms(stack)


def test_as_integer_checks_the_lower_bound():
    assert as_integer(-5, "n") == -5
    assert as_integer(0, "n", least=0) == 0
    assert as_integer(np.int64(3), "n", least=1) == 3
    with pytest.raises(InvalidInputError, match="n must be at least 1"):
        as_integer(0, "n", least=1)
    with pytest.raises(InvalidInputError, match="n must be at least 0"):
        as_integer(-1, "n", least=0)
    with pytest.raises(InvalidInputError, match="n must be an integer"):
        as_integer(True, "n", least=0)


def test_as_seed_is_an_integer_in_64_unsigned_bits():
    assert as_seed(0) == 0
    assert as_seed(2**64 - 1) == 2**64 - 1
    assert as_seed(np.uint64(7), "master_seed") == 7
    with pytest.raises(InvalidInputError, match="seed must be at least 0 to fit in 64 unsigned bits"):
        as_seed(-1)
    with pytest.raises(InvalidInputError, match="master_seed must fit in 64 unsigned bits"):
        as_seed(2**64, "master_seed")
    for bad in (1.0, True, "1"):
        with pytest.raises(InvalidInputError, match="seed must be an integer"):
            as_seed(bad)


def test_haar_state_moments():
    g = RngStream(3, 0)
    n = 100_000
    m2 = 0.0
    m4 = 0.0
    for _ in range(n):
        p = abs(haar_random_state(2, g)[0]) ** 2
        m2 += p
        m4 += p * p
    assert abs(m2 / n - 0.5) < 0.01
    assert abs(m4 / n - 1 / 3) < 0.01


def test_haar_unitary_is_unitary():
    root = RngStream(5, 0)
    for k in range(20):
        dim = 2 + (k % 4)
        u = haar_random_unitary(dim, root.child(k))
        assert np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-10)
        assert abs(abs(np.linalg.det(u)) - 1) < 1e-8


@pytest.mark.parametrize("dim", [1, 2, 4, 9, 16, 64])
def test_haar_unitary_is_the_phase_fixed_qr_of_the_full_draw(dim):
    # the stream layout: the whole real block, then the whole imaginary block
    for seed in (1, 7):
        g = RngStream(seed, dim).generator
        z = (g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.diag(r)
        assert np.array_equal(haar_random_unitary(dim, RngStream(seed, dim)), q * (d / np.abs(d)))


@pytest.mark.parametrize("dim", [2, 3, 8, 16, 64])
def test_haar_columns_are_the_phase_fixed_qr_of_their_draw_bit_for_bit(dim):
    # the stream layout: a dim x cols real block, then a dim x cols imaginary
    # block, phase-fixed QR; with cols == dim that is haar_random_unitary
    for cols in sorted({1, 2, dim // 2, dim - 1, dim} - {0}):
        for seed in (1, 2, 7):
            g = RngStream(seed, cols).generator
            z = (g.standard_normal((dim, cols)) + 1j * g.standard_normal((dim, cols))) / np.sqrt(2.0)
            q, r = np.linalg.qr(z)
            d = np.diag(r)
            got = _haar_columns(dim, cols, RngStream(seed, cols))
            assert np.array_equal(got, q * (d / np.abs(d)))
            if cols == dim:
                assert np.array_equal(got, haar_random_unitary(dim, RngStream(seed, cols)))


class _NoDraws:
    """A stand-in stream that fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"_haar_columns used rng.{name}")


@pytest.mark.parametrize("cols", [0, -1, 5, 64])
def test_haar_columns_outside_one_to_dim_fail_before_any_draw(cols):
    with pytest.raises(InvalidShapeError, match=rf"{cols} columns outside \[1, 4\]"):
        _haar_columns(4, cols, _NoDraws())


def test_hermitian_basis_is_orthonormal():
    for dim in (2, 3, 4):
        basis = hermitian_basis(dim)
        assert len(basis) == dim * dim
        assert np.allclose(basis[0], np.eye(dim) / math.sqrt(dim), atol=1e-12)
        for i, a in enumerate(basis):
            assert np.allclose(a, a.conj().T, atol=1e-12)
            if i > 0:
                assert abs(np.trace(a)) < 1e-12
            for j, b in enumerate(basis):
                want = 1.0 if i == j else 0.0
                assert abs(np.trace(a.conj().T @ b) - want) < 1e-12


def test_rotation_y_convention():
    assert np.allclose(rotation_y(0.0), np.eye(2), atol=1e-15)
    assert np.allclose(rotation_y(math.pi), np.array([[0, -1], [1, 0]]), atol=1e-12)
    theta = 0.7
    expected = (
        math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * SY
    )
    assert np.allclose(rotation_y(theta), expected, atol=1e-12)


def test_bitwise_reproducibility_of_random_helpers():
    a = haar_random_unitary(3, RngStream(6, 1))
    b = haar_random_unitary(3, RngStream(6, 1))
    assert np.array_equal(a, b)
    sa = haar_random_state(4, RngStream(6, 2))
    sb = haar_random_state(4, RngStream(6, 2))
    assert np.array_equal(sa, sb)


def _reference_uhlmann_fidelity(r, s):
    """One pair's fidelity with both matrices checked and diagonalized for that pair alone."""
    for m in (r, s):
        assert abs(np.trace(m).real - 1.0) <= 1e-8
    wa, va = eig_hermitian(r, atol=1e-8)
    wb, _ = eig_hermitian(s, atol=1e-8)
    assert min(np.min(wa), np.min(wb)) >= -1e-10
    sqrt_a = (va * np.sqrt(np.clip(wa, 0.0, None))) @ va.conj().T
    w = np.clip(np.linalg.eigvalsh(sqrt_a @ s @ sqrt_a), 0.0, None)
    return min(max(float(np.sum(np.sqrt(w)) ** 2), 0.0), 1.0)


def _projected_choi_panel():
    from qdata import LinearBox, NonlinearBloch, TomographyRun, canonical_probe_basis
    from qdata import process_tomography_direct, random_channel

    boxes = [LinearBox(random_channel(2, 2, RngStream(53, k))) for k in range(6)]
    boxes += [NonlinearBloch(1.7), NonlinearBloch(4.0)]
    panel = []
    for b, box in enumerate(boxes):
        chois = []
        for k, delta in enumerate((0.0, 0.6, 1.1, 2.0)):
            rec = process_tomography_direct(
                box, canonical_probe_basis(2, delta), TomographyRun(40), RngStream(54, b).child(k)
            )
            chois.append(nearest_density_matrix(rec.normalized_choi()))
        panel.append(chois)
    return panel


def test_worst_fidelity_equals_the_pairwise_loop_bit_for_bit():
    for chois in _projected_choi_panel():
        for n in (2, 3, 4):
            group = chois[:n]
            want = 1.0
            for i in range(n):
                for j in range(i + 1, n):
                    want = min(want, _reference_uhlmann_fidelity(group[i], group[j]))
            assert worst_fidelity(group) == want
            assert worst_fidelity(group) < 1.0
        assert uhlmann_fidelity(chois[1], chois[0]) == _reference_uhlmann_fidelity(chois[1], chois[0])
    assert worst_fidelity([ket(0).density()]) == 1.0
    # a stack of groups, shape (groups, n, d, d), gives each group's loop value
    panel = np.array(_projected_choi_panel())
    for n in (1, 2, 3, 4):
        want = [
            min([1.0] + [_reference_uhlmann_fidelity(g[i], g[j]) for i in range(n) for j in range(i + 1, n)])
            for g in panel[:, :n]
        ]
        got = worst_fidelity(panel[:, :n])
        assert got.shape == (len(panel),) and got.tolist() == want
        assert worst_fidelity(panel[None, :, :n]).tolist() == [want]
    pairs = uhlmann_fidelity(panel[:, 1], panel[:, 0])
    assert pairs.tolist() == [_reference_uhlmann_fidelity(g[1], g[0]) for g in panel]


def test_fidelity_arguments_are_checked_at_every_position():
    good = ket(0).density().matrix
    for bad, message in (
        (np.eye(2, dtype=complex) * 0.6, "unit trace"),
        (np.diag([1.5, -0.5]).astype(complex), "below PSD floor"),
        (np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex), "not Hermitian"),
    ):
        for position in range(3):
            group = [good, good, good]
            group[position] = bad
            with pytest.raises(InvalidInputError, match=message):
                worst_fidelity(group)
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(InvalidInputError, match=message):
                uhlmann_fidelity(*pair)
    with pytest.raises(InvalidShapeError):
        worst_fidelity([good, np.eye(4) / 4])


def _raised(call, *args):
    with pytest.raises(Exception) as info:
        call(*args)
    return type(info.value), str(info.value)


def test_a_stack_with_one_bad_matrix_raises_as_that_matrix_alone():
    good = np.array(_projected_choi_panel()[0][:3])
    off = good[1].copy()
    off[0, 1] += 1e-6  # not Hermitian, at either tolerance
    projection_cases = {
        "not Hermitian": (off, "not Hermitian"),
        "trace far above 1": (good[1] * 1.6, "trace 1.6000 too far"),
        "trace far below 1": (good[1] * 0.4, "trace 0.4000 too far"),
    }
    for name, (bad, message) in projection_cases.items():
        alone = _raised(nearest_density_matrix, bad)
        assert alone[0] is InvalidInputError and message in alone[1], name
        stack = np.array([good, good, good])
        stack[1, 2] = bad
        assert _raised(nearest_density_matrix, stack) == alone, name
        assert _raised(nearest_density_matrix, stack.reshape(-1, 4, 4)) == alone, name
    negative = np.diag([0.7, 0.3 + 2e-10, 0.0, -2e-10]).astype(complex)
    fidelity_cases = {
        "not Hermitian": (off, "not Hermitian"),
        "trace off by more than 1e-8": (good[1] * (1 + 2e-8), "unit trace"),
        "eigenvalue below -1e-10": (negative, "eigenvalue -2.000e-10 below PSD floor"),
    }
    for name, (bad, message) in fidelity_cases.items():
        # a single call: one group of one matrix, then of two, with the bad one at either place
        alone = _raised(worst_fidelity, [bad])
        assert alone[0] is InvalidInputError and message in alone[1], name
        assert _raised(worst_fidelity, [good[0], bad]) == alone, name
        assert _raised(worst_fidelity, [bad, good[0]]) == alone, name
        assert _raised(uhlmann_fidelity, good[0], bad) == alone, name
        for position in range(3):
            stack = np.array([good, good, good, good])
            stack[2, position] = bad
            assert _raised(worst_fidelity, stack) == alone, (name, position)
        assert _raised(uhlmann_fidelity, stack[:, 0], stack[:, 2]) == alone, name
    assert worst_fidelity(good[:1]) == 1.0


def test_nearest_density_matrix_rejects_non_hermitian_input():
    with pytest.raises(InvalidInputError, match="not Hermitian"):
        nearest_density_matrix(np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex))
