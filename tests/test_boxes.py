"""Box models: pure-state branching, ensemble response, composition, game pairs."""

import math
import sys
import threading

import numpy as np
import pytest

from qdata import (
    BoxModel,
    CollapseNonlinear,
    ComposedBox,
    DensityMatrix,
    Ensemble,
    InvalidInputError,
    InvalidShapeError,
    LinearBox,
    NonlinearBloch,
    NsqChannelPair,
    ProbeBasis,
    PureState,
    QracOracle,
    QracQuantum,
    QuantumChannel,
    RngStream,
    canonical_probe_basis,
    compose_boxes,
    concatenate_tests,
    ket,
    kraus_from_choi,
    max_entangled,
    measure_prepare_strategy,
    minus_state,
    plus_state,
    random_channel,
    rotation_y,
    trace_distance,
    uhlmann_fidelity,
    warp_polar_angle,
)

RY45 = rotation_y(math.pi / 4)


def equal_density_pair():
    e1 = Ensemble((0.5, 0.5), (ket(0), ket(1)))
    e2 = Ensemble((0.5, 0.5), (plus_state(), minus_state()))
    return e1, e2


# ---------------------------------------------------------------- warp map


def test_warp_fixed_points():
    for kappa in (0.5, 1.0, 2.0, 4.0, 7.5):
        assert warp_polar_angle(0.0, kappa) == 0.0
        assert abs(warp_polar_angle(math.pi / 2, kappa) - math.pi / 2) < 1e-12
        assert abs(warp_polar_angle(math.pi, kappa) - math.pi) < 1e-12


def test_warp_identity_at_unit_exponent():
    for theta in np.linspace(0.01, math.pi - 0.01, 41):
        assert abs(warp_polar_angle(float(theta), 1.0) - theta) < 1e-12


def test_warp_monotone_and_onto():
    thetas = np.linspace(0.0, math.pi, 201)
    for kappa in (0.5, 2.0, 4.0):
        gs = [warp_polar_angle(float(t), kappa) for t in thetas]
        assert all(b - a > -1e-12 for a, b in zip(gs, gs[1:]))
        assert gs[0] == 0.0
        assert abs(gs[-1] - math.pi) < 1e-12
        assert all(-1e-12 <= g <= math.pi + 1e-12 for g in gs)


def test_warp_frozen_values_at_kappa_four():
    g = warp_polar_angle(math.pi / 4, 4.0)
    assert abs(g - 0.05885750594708123) < 1e-14
    # exact closed form: sin g = 1/17, cos g = 12*sqrt(2)/17
    assert abs(math.sin(g) - 1 / 17) < 1e-14
    assert abs(math.cos(g) - 12 * math.sqrt(2) / 17) < 1e-14
    south = warp_polar_angle(3 * math.pi / 4, 4.0)
    assert abs(math.sin(south) - 1 / 3) < 1e-14
    assert south > math.pi / 2


def test_warp_hemispheres_use_different_exponents():
    # a mirror-symmetric warp would keep antipodal pairs antipodal
    theta = math.pi / 4
    gap = abs(warp_polar_angle(math.pi - theta, 4.0) - (math.pi - warp_polar_angle(theta, 4.0)))
    assert gap > 0.25


def test_warp_rejects_bad_exponent():
    with pytest.raises(InvalidInputError):
        warp_polar_angle(1.0, 0.0)
    with pytest.raises(InvalidInputError):
        warp_polar_angle(1.0, -2.0)


# ---------------------------------------------------------------- linear boxes


def test_linear_box_is_ensemble_independent():
    e1, e2 = equal_density_pair()
    for ch in (
        QuantumChannel.identity(2),
        QuantumChannel.amplitude_damping(0.5),
        QuantumChannel.depolarizing(0.3),
        random_channel(2, 2, RngStream(30, 0)),
    ):
        box = LinearBox(ch)
        out1 = box.ensemble_output_density(e1)
        out2 = box.ensemble_output_density(e2)
        assert trace_distance(out1, out2) < 1e-10


def test_linear_box_matches_channel_action():
    ch = QuantumChannel.amplitude_damping(0.4)
    box = LinearBox(ch)
    rho = ket(1).density()
    assert np.allclose(box.ensemble_output_density(rho).matrix, ch.apply(rho).matrix, atol=1e-12)


@pytest.mark.parametrize("ref_dim", [1, 2, 3])
def test_linear_box_entangled_probe_matches_the_extended_channel(ref_dim):
    # Kraus-built channels and channels whose Kraus operators come from the Choi matrix
    for ch in (
        QuantumChannel.identity(2),
        QuantumChannel.amplitude_damping(0.3),
        QuantumChannel.depolarizing(0.4),
        random_channel(2, 2, RngStream(30, 5)),
    ):
        joint = PureState.haar(2 * ref_dim, RngStream(30, 6 + ref_dim))
        expected = ch.tensor(QuantumChannel.identity(ref_dim)).apply(joint.density())
        out = LinearBox(ch).probe_with_reference(joint)
        assert np.max(np.abs(out.matrix - expected.matrix)) <= 1e-14


def test_linear_box_single_branch_needs_no_rng():
    box = LinearBox(QuantumChannel.from_unitary(RY45))
    ((_, out),) = box.branch_distribution(ket(0))
    assert abs(abs(out.overlap(PureState(RY45[:, 0]))) - 1) < 1e-12


def test_linear_box_builds_its_probe_outputs_once_per_basis_across_threads():
    boxes = [LinearBox(random_channel(2, 2, RngStream(30, 7 + k))) for k in range(20)]
    basis = canonical_probe_basis(2, 0.3)
    start = threading.Barrier(8)
    seen = []

    def probe():
        start.wait(timeout=10)
        seen.append([box.probe_outputs(basis) for box in boxes])

    threads = [threading.Thread(target=probe) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(seen) == 8
    for k, box in enumerate(boxes):
        first = box.probe_outputs(basis)
        assert all(outputs[k] is first for outputs in seen), k
        assert not first.flags.writeable
        want = np.array([box.ensemble_output_density(p).matrix for p in basis.states])
        assert np.array_equal(first, want)
    other = canonical_probe_basis(2, 0.0)
    assert not np.array_equal(boxes[0].probe_outputs(other), boxes[0].probe_outputs(basis))


def test_linear_box_keys_its_probe_outputs_by_the_basis_states():
    box = LinearBox(QuantumChannel.amplitude_damping(0.3))
    basis = canonical_probe_basis(2, 0.3)
    # a basis hashes and compares by the identities of its states
    same_states = ProbeBasis(basis.states)
    assert same_states == basis and hash(same_states) == hash(basis)
    assert box.probe_outputs(same_states) is box.probe_outputs(basis)
    copies = ProbeBasis(tuple(PureState(s.vector.copy()) for s in basis.states))
    assert copies != basis
    assert box.probe_outputs(copies) is not box.probe_outputs(basis)
    assert np.array_equal(box.probe_outputs(copies), box.probe_outputs(basis))


# ---------------------------------------------------------------- nonlinear boxes


def test_nonlinear_bloch_identity_when_unwarped():
    box = NonlinearBloch(1.0)
    psi = PureState.haar(2, RngStream(30, 1))
    ((_, out),) = box.branch_distribution(psi)
    assert abs(abs(out.overlap(psi)) - 1) < 1e-12


def test_nonlinear_bloch_warps_polar_angle():
    box = NonlinearBloch(4.0)
    theta, phi = math.pi / 4, 0.9
    ((_, out),) = box.branch_distribution(PureState.from_bloch(theta, phi))
    t2, p2 = out.bloch_angles()
    assert abs(t2 - 0.05885750594708123) < 1e-12
    assert abs(p2 - phi) < 1e-10


def test_nonlinear_bloch_sees_ensemble_difference():
    box = NonlinearBloch(4.0, pre_unitary=RY45)
    e1, e2 = equal_density_pair()
    gap = trace_distance(box.ensemble_output_density(e1), box.ensemble_output_density(e2))
    assert abs(gap - 7 / 51) < 1e-15
    assert gap > 0.1


def test_nonlinear_bloch_unitary_sandwich():
    u = rotation_y(0.6)
    box = NonlinearBloch(1.0, pre_unitary=u, post_unitary=u.conj().T)
    psi = PureState.haar(2, RngStream(30, 2))
    ((_, out),) = box.branch_distribution(psi)
    assert abs(abs(out.overlap(psi)) - 1) < 1e-12


def _three_wrap_warp(box, psi):
    """The warp as it read when each intermediate state was a checked PureState."""
    rotated = PureState(box.pre_unitary @ psi.vector)
    theta, phi = rotated.bloch_angles()
    warped = PureState.from_bloch(warp_polar_angle(theta, box.kappa), phi)
    return PureState(box.post_unitary @ warped.vector)


def test_warp_on_raw_vectors_is_bitwise_the_three_wrap_warp():
    u = rotation_y(0.6) @ np.diag([1.0, np.exp(0.4j)])
    boxes = (
        NonlinearBloch(4.0, pre_unitary=RY45),
        NonlinearBloch(1.75, pre_unitary=u, post_unitary=u.conj().T),
        CollapseNonlinear((plus_state(), minus_state()), kappa=3.0, post_unitary=RY45),
    )
    inputs = [ket(0), ket(1), plus_state()] + [PureState.haar(2, RngStream(31, k)) for k in range(20)]
    for box in boxes:
        for psi in inputs:
            assert np.array_equal(box._warp_pure(psi).vector, _three_wrap_warp(box, psi).vector)


def test_the_warp_still_checks_what_it_returns(monkeypatch):
    import qdata.boxes

    # the intermediate states are no longer wrapped: a fault in the
    # re-prepared ket is caught by the one check on the result, and a
    # non-unitary rotation by the check at construction
    bloch_ket = qdata.boxes.bloch_ket
    monkeypatch.setattr(qdata.boxes, "bloch_ket", lambda theta, phi: 1.001 * bloch_ket(theta, phi))
    with pytest.raises(InvalidInputError, match="not normalized"):
        NonlinearBloch(2.0).branch_distribution(plus_state())
    with pytest.raises(InvalidInputError, match="not unitary"):
        NonlinearBloch(2.0, pre_unitary=1.001 * np.eye(2))
    with pytest.raises(InvalidInputError, match="not unitary"):
        NonlinearBloch(2.0, post_unitary=1.001 * np.eye(2))


def test_nonlinear_bloch_entangled_probe_collapses_branches():
    box = NonlinearBloch(1.0)
    singlet = PureState(np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0))
    out = box.probe_with_reference(singlet)
    expected = 0.5 * (
        np.kron(ket(0).projector(), ket(1).projector())
        + np.kron(ket(1).projector(), ket(0).projector())
    )
    assert np.allclose(out.matrix, expected, atol=1e-12)


def test_nonlinear_bloch_preserves_reference_marginal():
    for box in (NonlinearBloch(4.0, pre_unitary=RY45), NonlinearBloch(2.0), CollapseNonlinear((plus_state(), minus_state()), kappa=3.0)):
        joint = PureState.haar(4, RngStream(30, 3))
        out = box.probe_with_reference(joint)
        ref_in = DensityMatrix(joint.projector()).reduce((2, 2), (1,))
        ref_out = out.reduce((2, 2), (1,))
        assert trace_distance(ref_in, ref_out) < 1e-10


# ---------------------------------------------------------------- collapse boxes


def test_collapse_computational_basis_dephases():
    box = CollapseNonlinear((ket(0), ket(1)), kappa=4.0, pre_unitary=RY45)
    e1, e2 = equal_density_pair()
    gap = trace_distance(box.ensemble_output_density(e1), box.ensemble_output_density(e2))
    assert gap < 1e-10


def test_collapse_branch_distribution_follows_born_rule():
    box = CollapseNonlinear((plus_state(), minus_state()))
    branches = box.branch_distribution(ket(0))
    weights = sorted(w for w, _ in branches)
    assert np.allclose(weights, [0.5, 0.5], atol=1e-12)
    out = box.ensemble_output_density(ket(0))
    assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_collapse_basis_must_be_orthonormal():
    with pytest.raises(InvalidInputError):
        CollapseNonlinear((ket(0), plus_state()))
    with pytest.raises(InvalidInputError):
        CollapseNonlinear((ket(0),))


def test_collapse_beyond_qubits_requires_trivial_warp():
    basis3 = tuple(ket(i, dim=3) for i in range(3))
    CollapseNonlinear(basis3)  # kappa = 1 accepted
    with pytest.raises(InvalidInputError):
        CollapseNonlinear(basis3, kappa=2.0)


def test_collapse_warps_branch_states():
    box = CollapseNonlinear((ket(0), ket(1)), kappa=4.0)
    # collapse of |+> onto the poles leaves the fixed points unwarped
    out = box.ensemble_output_density(plus_state())
    assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)
    tilted = CollapseNonlinear((plus_state(), minus_state()), kappa=4.0)
    rho = tilted.ensemble_output_density(ket(0))
    # equatorial basis states warp away from the equator symmetrically
    assert abs(rho.matrix[0, 0] - 0.5) < 1e-12
    assert abs(rho.matrix[0, 1]) < 1e-12


# ---------------------------------------------------------------- box contract

RY04 = rotation_y(0.4)
TILTED = CollapseNonlinear(
    (PureState(RY04 @ ket(0).vector), PureState(RY04 @ ket(1).vector)), kappa=3.0
)
WARP = NonlinearBloch(4.0, pre_unitary=RY04)
DEPHASE = LinearBox(QuantumChannel.dephasing(0.4))
# label -> (box, whether a NonlinearBloch stage collapses a joint probe)
CONTRACT_BOXES = {
    "linear": (LinearBox(QuantumChannel.amplitude_damping(0.3)), False),
    "nonlinear-bloch": (WARP, True),
    "tilted-collapse": (TILTED, False),
    "linear-then-collapse": (compose_boxes(DEPHASE, TILTED), False),
    "nonlinear-then-linear": (compose_boxes(WARP, DEPHASE), True),
}


def test_joint_branches_is_the_one_enumeration():
    assert BoxModel.__abstractmethods__ == frozenset({"joint_branches"})
    for family in (LinearBox, NonlinearBloch, CollapseNonlinear, ComposedBox):
        assert family.branch_distribution is BoxModel.branch_distribution


def branch_sum(branches):
    return sum(p * phi.projector() for p, phi in branches)


@pytest.mark.parametrize("label", CONTRACT_BOXES)
def test_plain_input_is_a_joint_input_with_a_one_dimensional_reference(label):
    box, _ = CONTRACT_BOXES[label]
    root = RngStream(32, 0)
    for k in range(50):
        psi = PureState.haar(2, root.child(k))
        plain = branch_sum(box.branch_distribution(psi))
        joint = branch_sum(box.joint_branches(psi, 1))
        assert np.max(np.abs(plain - joint)) <= 1e-15, label


@pytest.mark.parametrize("label", CONTRACT_BOXES)
def test_product_probe_matches_plain_output_unless_the_box_warps(label):
    box, warps = CONTRACT_BOXES[label]
    root = RngStream(32, 1)
    for k in range(50):
        psi = PureState.haar(2, root.child(k))
        probed = box.probe_with_reference(psi.tensor(ket(0))).matrix
        plain = np.kron(box.ensemble_output_density(psi).matrix, ket(0).projector())
        gap = np.max(np.abs(probed - plain))
        if warps:
            # a NonlinearBloch stage collapses one half of a joint probe by design
            assert gap > 1e-3, label
        else:
            assert gap <= 1e-12, label


# ---------------------------------------------------------------- composition


def test_compose_linear_boxes_composes_channels():
    a = QuantumChannel.amplitude_damping(0.4)
    b = QuantumChannel.dephasing(0.6)
    box = compose_boxes(LinearBox(a), LinearBox(b))
    assert isinstance(box, LinearBox)
    assert np.max(np.abs(box.channel.choi - b.compose(a).choi)) < 1e-10


def test_compose_boxes_rejects_mismatched_dimensions():
    qutrit = LinearBox(QuantumChannel.identity(3))
    for first in (LinearBox(QuantumChannel.identity(2)), NonlinearBloch(2.0)):
        with pytest.raises(InvalidShapeError):
            compose_boxes(first, qutrit)


def test_compose_identity_is_neutral():
    target = NonlinearBloch(4.0, pre_unitary=RY45)
    box = compose_boxes(LinearBox(QuantumChannel.identity(2)), target)
    root = RngStream(31, 0)
    for k in range(20):
        psi = PureState.haar(2, root.child(k))
        assert trace_distance(
            box.ensemble_output_density(psi), target.ensemble_output_density(psi)
        ) < 1e-10


def test_composed_box_flattens_stages():
    b1 = LinearBox(QuantumChannel.amplitude_damping(0.2))
    b2 = NonlinearBloch(2.0)
    b3 = CollapseNonlinear((ket(0), ket(1)))
    box = compose_boxes(b1, compose_boxes(b2, b3))
    assert isinstance(box, ComposedBox)
    assert len(box.boxes) == 3


def test_two_stage_collapse_grinds_to_mixed():
    b1 = CollapseNonlinear((plus_state(), minus_state()))
    b2 = CollapseNonlinear((ket(0), ket(1)))
    out = compose_boxes(b1, b2).ensemble_output_density(ket(0))
    assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_concatenate_tests_matches_composed_channel():
    b1 = LinearBox(QuantumChannel.amplitude_damping(0.4))
    b2 = LinearBox(QuantumChannel.dephasing(0.3))
    psi = PureState.from_bloch(2.0, 0.4)
    est = concatenate_tests(b1, b2, psi, shots=40_000, rng=RngStream(31, 1))
    exact = compose_boxes(b1, b2).ensemble_output_density(psi)
    assert trace_distance(est, exact) < 0.05


def test_concatenate_tests_requires_rng():
    b = LinearBox(QuantumChannel.identity(2))
    with pytest.raises(TypeError):
        concatenate_tests(b, b, ket(0))


# ---------------------------------------------------------------- game pairs


def test_oracle_round_mechanics():
    oracle = QracOracle()
    psi0 = PureState.from_bloch(1.1, 0.3)
    psi1 = PureState.from_bloch(2.2, 4.0)
    n = 400
    x = np.arange(n) % 2
    a, b, rho = oracle.play_rounds(
        np.tile(psi0.vector, (n, 1)), np.tile(psi1.vector, (n, 1)), x,
        RngStream(32, 0).generator,
    )
    kept = dropped = 0
    for i in range(n):
        if a[i] == b[i]:
            kept += 1
            target = psi0 if x[i] == 0 else psi1
            assert abs(uhlmann_fidelity(rho[i], target.density()) - 1) < 1e-12
        else:
            dropped += 1
            assert np.allclose(rho[i], np.eye(2) / 2, atol=1e-12)
    assert kept > 0 and dropped > 0


def test_measure_prepare_round_on_basis_states():
    pair = measure_prepare_strategy()
    n = 200
    x = np.arange(n) % 2
    a, b, rho = pair.play_rounds(
        np.tile(ket(0).vector, (n, 1)), np.tile(ket(1).vector, (n, 1)), x,
        RngStream(32, 1).generator,
    )
    assert np.all(a == 1)  # product measurement reads the bits exactly
    for i in np.flatnonzero(a == b):
        want = ket(0) if x[i] == 0 else ket(1)
        assert abs(uhlmann_fidelity(rho[i], want.density()) - 1) < 1e-12


def test_round_input_validation():
    oracle = QracOracle()
    gen = RngStream(32, 2).generator
    with pytest.raises(InvalidInputError):
        oracle.play_rounds([ket(0, dim=3).vector], [ket(0).vector], [0], gen)
    with pytest.raises(InvalidInputError):
        oracle.play_rounds([ket(0).vector], [ket(1).vector], [2], gen)


def test_qrac_quantum_validation():
    povm_effects = tuple(np.eye(4, dtype=complex) / 4 for _ in range(4))
    from qdata import Povm

    good_povm = Povm(povm_effects)
    with pytest.raises(InvalidInputError):
        QracQuantum(good_povm, [QuantumChannel.identity(2)] * 3)
    with pytest.raises(InvalidInputError):
        QracQuantum(Povm((np.eye(2, dtype=complex) / 2,) * 2), [QuantumChannel.identity(2)] * 4)


def test_nsq_pair_checks_dims_and_refuses_game():
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[2 * j + i, 2 * i + j] = 1.0
    pair = NsqChannelPair(QuantumChannel.from_unitary(swap), (2, 2))
    with pytest.raises(InvalidInputError):
        pair.play_rounds([ket(0).vector], [ket(1).vector], [0], RngStream(32, 3).generator)
    with pytest.raises(Exception):
        NsqChannelPair(QuantumChannel.identity(4), (2, 3))
