"""State containers, measurements, and named fixtures."""

import math

import numpy as np
import pytest

from qdata import (
    DensityMatrix,
    Ensemble,
    InvalidInputError,
    InvalidShapeError,
    Povm,
    PureState,
    RngStream,
    born_probabilities,
    ket,
    max_entangled,
    measure_prepare_strategy,
    minus_i_state,
    minus_state,
    plus_i_state,
    plus_state,
)
from qdata.states import born_distributions, check_densities, sample_inverse_cdf


def z_povm():
    return Povm((ket(0).projector(), ket(1).projector()))


def x_povm():
    return Povm((plus_state().projector(), minus_state().projector()))


def test_pure_state_requires_normalization():
    with pytest.raises(InvalidInputError):
        PureState(np.array([1.0, 1e-5], dtype=complex))
    PureState(np.array([1.0, 0.0], dtype=complex))


def test_pure_state_dimension_cap():
    with pytest.raises(InvalidShapeError):
        PureState(np.ones(65, dtype=complex) / math.sqrt(65))


def test_named_states():
    assert abs(ket(0).overlap(ket(1))) < 1e-15
    assert abs(plus_state().overlap(minus_state())) < 1e-15
    assert abs(plus_i_state().overlap(minus_i_state())) < 1e-15
    assert abs(abs(plus_state().overlap(ket(0))) ** 2 - 0.5) < 1e-12
    assert ket(2, dim=4).vector[2] == 1.0


def test_bloch_round_trip():
    root = RngStream(10, 0)
    for k in range(50):
        g = root.child(k).generator
        theta = float(g.uniform(0.05, math.pi - 0.05))
        phi = float(g.uniform(0.0, 2 * math.pi - 0.1))
        psi = PureState.from_bloch(theta, phi)
        t2, p2 = psi.bloch_angles()
        assert abs(t2 - theta) < 1e-10
        assert abs((p2 - phi + math.pi) % (2 * math.pi) - math.pi) < 1e-10


def test_bloch_poles():
    assert abs(PureState.from_bloch(0.0, 0.0).overlap(ket(0))) ** 2 > 1 - 1e-12
    assert abs(PureState.from_bloch(math.pi, 0.0).overlap(ket(1))) ** 2 > 1 - 1e-12


def test_density_matrix_validation():
    with pytest.raises(InvalidInputError):
        DensityMatrix(np.diag([0.6, 0.6]).astype(complex))
    with pytest.raises(InvalidInputError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(InvalidInputError):
        DensityMatrix(np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex))


def test_density_matrix_purity_and_bloch():
    mixed = DensityMatrix(np.eye(2, dtype=complex) / 2).matrix
    pure = ket(0).density().matrix
    assert abs(np.trace(mixed @ mixed).real - 0.5) < 1e-12
    assert abs(np.trace(pure @ pure).real - 1.0) < 1e-12
    bv = plus_state().density().bloch_vector()
    assert np.allclose(bv, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(ket(1).density().bloch_vector(), [0.0, 0.0, -1.0], atol=1e-12)


def test_tensor_and_reduce():
    joint = ket(0).density().tensor(plus_state().density())
    assert joint.dim == 4
    assert np.allclose(joint.reduce((2, 2), (0,)).matrix, ket(0).density().matrix, atol=1e-12)
    assert np.allclose(joint.reduce((2, 2), (1,)).matrix, plus_state().density().matrix, atol=1e-12)


def test_max_entangled_marginals():
    phi = max_entangled(2)
    rho = DensityMatrix(phi.projector())
    assert np.allclose(rho.reduce((2, 2), (0,)).matrix, np.eye(2) / 2, atol=1e-12)
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[3] = 1 / math.sqrt(2)
    assert np.allclose(phi.vector, expected, atol=1e-15)


def test_eigen_ensemble_reconstructs_density():
    g = RngStream(10, 1).generator
    a = g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))
    rho = DensityMatrix((a @ a.conj().T) / np.trace(a @ a.conj().T))
    ens = rho.eigen_ensemble()
    rebuilt = sum(w * s.density().matrix for w, s in zip(ens.weights, ens.states))
    assert np.allclose(rebuilt, rho.matrix, atol=1e-10)
    assert all(w > 1e-12 for w in ens.weights)


def test_povm_validation():
    with pytest.raises(InvalidInputError):
        Povm((np.eye(2, dtype=complex) * 0.6, np.eye(2, dtype=complex) * 0.5))
    with pytest.raises(InvalidInputError):
        Povm((np.diag([1.5, 0.0]).astype(complex), np.diag([-0.5, 1.0]).astype(complex)))
    assert len(z_povm()) == 2


def test_ensemble_validation():
    with pytest.raises(InvalidInputError):
        Ensemble((0.5, 0.6), (ket(0), ket(1)))
    with pytest.raises(InvalidShapeError):
        Ensemble((0.5, 0.5), (ket(0), ket(0, dim=4)))
    ens = Ensemble((0.5, 0.5), (ket(0), ket(1)))
    assert np.allclose(ens.density().matrix, np.eye(2) / 2, atol=1e-12)


def test_ensemble_density_is_built_once_and_equals_the_weighted_sum():
    ens = Ensemble((0.25, 0.75), (plus_i_state(), ket(1)))
    rho = ens.density()
    assert ens.density() is rho
    expected = 0.25 * plus_i_state().projector() + 0.75 * ket(1).projector()
    assert np.array_equal(rho.matrix, expected)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0


def test_bloch_helpers_match_the_wrapped_forms():
    from qdata.states import bloch_angles, bloch_ket

    for theta, phi in [(0.0, 0.0), (0.7, -1.2), (math.pi / 2, 2.5), (math.pi, 0.3)]:
        vector = bloch_ket(theta, phi)
        state = PureState.from_bloch(theta, phi)
        assert np.array_equal(state.vector, vector)
        assert bloch_angles(vector) == state.bloch_angles()


def test_born_probabilities_examples():
    assert np.allclose(born_probabilities(ket(0), z_povm()), [1.0, 0.0], atol=1e-12)
    assert np.allclose(born_probabilities(plus_state(), z_povm()), [0.5, 0.5], atol=1e-12)
    assert np.allclose(born_probabilities(plus_state(), x_povm()), [1.0, 0.0], atol=1e-12)


def test_born_probabilities_match_bloch_vector():
    root = RngStream(10, 2)
    for k in range(20):
        psi = PureState.haar(2, root.child(k))
        rx = psi.density().bloch_vector()[0]
        p = born_probabilities(psi, x_povm())
        assert abs(p[0] - (1 + rx) / 2) < 1e-12
        assert abs(p[1] - (1 - rx) / 2) < 1e-12


# ---------------------------------------------------------------- batched forms


def test_born_distributions_match_born_probabilities():
    povm = measure_prepare_strategy().alice_povm
    root = RngStream(17, 0)
    vectors = np.array(
        [
            PureState.haar(2, root.child(k, 0)).tensor(PureState.haar(2, root.child(k, 1))).vector
            for k in range(250)
        ]
    )
    batched = born_distributions(vectors, povm)
    for v, row in zip(vectors, batched):
        assert np.max(np.abs(row - born_probabilities(PureState(v), povm))) <= 1e-15


def test_born_distributions_reject_non_distributions():
    with pytest.raises(InvalidInputError):
        born_distributions(np.array([[2.0, 0.0]]), z_povm())


def test_sample_inverse_cdf_matches_searchsorted():
    rows = [
        (0.25, 0.25, 0.25, 0.25),
        (0.0, 0.5, 0.0, 0.5),
        (0.125, 0.375, 0.5, 0.0),
        (1.0, 0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
    ]
    # interior points plus every CDF step exactly
    us = [0.0, 0.1, 0.125, 0.25, 0.3, 0.5, 0.5 + 2**-53, 0.75, 0.9, 1.0 - 2**-53]
    for p in rows:
        p = np.array(p)
        u = np.array(us)
        got = sample_inverse_cdf(np.tile(p, (u.size, 1)), u)
        want = [np.searchsorted(np.cumsum(p), x, side="right") for x in u]
        assert got.tolist() == want


def test_check_densities_rejects_any_bad_member():
    good = np.array([np.eye(2) / 2, ket(0).projector()], dtype=complex)
    check_densities(good)
    for bad in (
        np.array([[0.5, 0.1], [0.0, 0.5]]),  # not Hermitian
        np.eye(2) * 0.6,  # trace 1.2
        np.diag([1.2, -0.2]),  # negative eigenvalue
    ):
        with pytest.raises(InvalidInputError):
            check_densities(np.concatenate([good, bad[None].astype(complex)]))


def test_pure_state_density_is_built_once_and_read_only():
    psi = PureState.from_bloch(0.3, 1.1)
    rho = psi.density()
    assert psi.density() is rho
    assert np.array_equal(rho.matrix, np.outer(psi.vector, psi.vector.conj()))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0
