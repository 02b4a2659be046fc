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
    output_densities,
    plus_state,
    random_channel,
    rotation_y,
    trace_distance,
    uhlmann_fidelity,
    warp_polar_angle,
)
from qdata.boxes import BRANCH_CUTOFF, _chain, _warp_rows
from qdata.linalg import haar_random_unitary

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


@pytest.mark.parametrize("theta", [float("nan"), math.inf, -math.inf])
def test_warp_rejects_a_non_finite_angle(theta):
    # a finite angle outside [0, pi] is clamped, a non-finite one is an error
    assert warp_polar_angle(-0.5, 2.0) == 0.0
    with pytest.raises(InvalidInputError, match="polar angle must be finite"):
        warp_polar_angle(theta, 2.0)


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
    joint = PureState.haar(4, RngStream(30, 42))
    start = threading.Barrier(8)
    seen = []
    seen_joint = []

    def probe():
        start.wait(timeout=10)
        seen.append([box.probe_outputs(basis) for box in boxes])
        seen_joint.append([box.probe_with_reference(joint) for box in boxes])

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
        first_joint = box.probe_with_reference(joint)
        assert all(outputs[k] is first_joint for outputs in seen_joint), k
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


def test_linear_box_builds_its_joint_output_once_per_probe():
    from qdata.boxes import BoxModel

    box = LinearBox(QuantumChannel.amplitude_damping(0.3))
    joint = PureState.haar(4, RngStream(30, 40))
    first = box.probe_with_reference(joint)
    assert box.probe_with_reference(joint) is first
    assert not first.matrix.flags.writeable
    assert np.array_equal(first.matrix, BoxModel.probe_with_reference(box, joint).matrix)
    # keyed by the probe's identity: an equal copy gets its own, equal, output
    copy = PureState(joint.vector.copy())
    assert box.probe_with_reference(copy) is not first
    assert np.array_equal(box.probe_with_reference(copy).matrix, first.matrix)
    with pytest.raises(InvalidShapeError):
        box.probe_with_reference(PureState.haar(3, RngStream(30, 41)))


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


def _warp_one(box, psi):
    """The row warp of one qubit row, on the parameters of ``box``."""
    one = np.ones(1)
    return _warp_rows(psi.vector[None], box.kappa * one, box.pre_unitary[None], box.post_unitary[None])[0]


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
            assert _warp_one(box, psi).tobytes() == _three_wrap_warp(box, psi).vector.tobytes()


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


# ---------------------------------------------------------------- reference enumeration
#
# The branch math written out one branch at a time, apart from the row
# enumerations the stock classes run: a Kraus branch is kron(K, I_ref) @ v, a
# collapse branch the warped basis state times the normalized reference
# amplitude, a composite the stage-by-stage product, and the output a plain
# loop over the weighted branch projectors.


def _reference_branches(box, vector, ref):
    """(p, vector) branches of ``box`` acting on the first factor of the joint ``vector``."""
    if isinstance(box, ComposedBox):
        current = [(1.0, vector)]
        for stage in box.boxes:
            products = [(p * q, chi) for p, phi in current for q, chi in _reference_branches(stage, phi, ref)]
            current = [(w, chi) for w, chi in products if w > BRANCH_CUTOFF]
        return current
    if isinstance(box, LinearBox):
        vectors = [np.kron(k, np.eye(ref)) @ vector for k in box.channel.kraus_operators()]
        weighted = [(float(np.real(np.vdot(v, v))), v) for v in vectors]
        return [(p, v / math.sqrt(p)) for p, v in weighted if p > BRANCH_CUTOFF]
    if isinstance(box, NonlinearBloch) and ref == 1:
        return [(1.0, _three_wrap_warp(box, PureState(vector)).vector)]
    branches = []
    for b in box.basis:
        amp = b.vector.conj() @ vector.reshape(-1, ref)
        p = float(np.real(np.vdot(amp, amp)))
        if p > BRANCH_CUTOFF:
            warped = _three_wrap_warp(box, b).vector if b.dim == 2 else b.vector
            branches.append((p, np.kron(warped, amp / math.sqrt(p))))
    return branches


def _reference_sum(weighted, dim):
    out = np.zeros((dim, dim), dtype=complex)
    for weight, branches in weighted:
        for p, phi in branches:
            out += weight * p * np.outer(phi, phi.conj())
    return out


def _reference_output(box, source):
    if isinstance(source, DensityMatrix):
        source = source.eigen_ensemble()
    if not isinstance(source, Ensemble):
        source = Ensemble((1.0,), (source,))
    weighted = [(w, _reference_branches(box, s.vector, 1)) for w, s in zip(source.weights, source.states)]
    return _reference_sum(weighted, box.dim_out)


def _reference_boxes():
    root = RngStream(57, 0)
    warp = NonlinearBloch(2.5, pre_unitary=RY45, post_unitary=rotation_y(1.3))
    collapse = CollapseNonlinear((plus_state(), minus_state()), kappa=3.0, post_unitary=RY45)
    qutrit = CollapseNonlinear(tuple(PureState(c) for c in haar_random_unitary(3, root.child(0)).T))
    damping = LinearBox(QuantumChannel.amplitude_damping(0.3))
    tilted = (PureState(rotation_y(2e-3) @ ket(0).vector), PureState(rotation_y(2e-3) @ ket(1).vector))
    return {
        "damping": damping,
        "random-linear": LinearBox(random_channel(2, 2, root.child(1))),
        "depolarizing": LinearBox(QuantumChannel.depolarizing(0.3)),
        "warp": warp,
        "plain-warp": NonlinearBloch(0.4),
        "collapse": collapse,
        "computational-collapse": CollapseNonlinear((ket(0), ket(1)), kappa=4.0, pre_unitary=RY45),
        "qutrit-collapse": qutrit,
        "rectangular-then-qutrit": ComposedBox([LinearBox(random_channel(2, 3, root.child(2))), qutrit]),
        "linear-then-warp": ComposedBox([LinearBox(random_channel(2, 2, root.child(3))), warp]),
        "warp-then-collapse": ComposedBox([warp, CollapseNonlinear((ket(0), ket(1)), kappa=4.0, pre_unitary=RY45)]),
        "three-stage": ComposedBox([damping, warp, collapse]),
        # both stages keep the branch through |1> of a faint input, but not their product
        "faint-product": ComposedBox([CollapseNonlinear((ket(0), ket(1))), CollapseNonlinear(tilted)]),
    }


REFERENCE_BOXES = _reference_boxes()


def _reference_inputs(dim, root):
    """Plain pure inputs of dimension ``dim``: basis states, a faint tilt and Haar draws."""
    faint = np.zeros(dim, dtype=complex)
    faint[:2] = math.sqrt(1.0 - 1e-8), 1e-4
    inputs = [ket(0, dim), ket(dim - 1, dim), PureState(faint)]
    return inputs + [PureState.haar(dim, root.child(k)) for k in range(6)]


@pytest.mark.parametrize("ref", [1, 2, 3])
@pytest.mark.parametrize("label", REFERENCE_BOXES)
def test_stock_branches_and_probe_outputs_equal_a_reference_written_out_bit_for_bit(label, ref):
    box = REFERENCE_BOXES[label]
    root = RngStream(57, 10 + ref)
    plain = _reference_inputs(box.dim_in, root.child(0))
    # product probes, entangled Haar probes and the maximally entangled probe
    joints = [psi.tensor(ket(ref - 1, ref)) if ref > 1 else psi for psi in plain]
    joints += [PureState.haar(box.dim_in * ref, root.child(1, k)) for k in range(4)]
    if ref == box.dim_in:
        joints.append(max_entangled(ref))
    for n, joint in enumerate(joints):
        want = _reference_branches(box, joint.vector, ref)
        got = box.joint_branches(joint, ref)
        assert [p for p, _ in got] == [p for p, _ in want], (label, n)
        assert [phi.vector.tobytes() for _, phi in got] == [phi.tobytes() for _, phi in want], (label, n)
        want_joint = _reference_sum([(1.0, want)], box.dim_out * ref)
        assert box.probe_with_reference(joint).matrix.tobytes() == want_joint.tobytes(), (label, n)
        if ref == 1:
            assert [phi.vector.tobytes() for _, phi in box.branch_distribution(joint)] == [
                phi.tobytes() for _, phi in want
            ], (label, n)


@pytest.mark.parametrize("label", REFERENCE_BOXES)
def test_stock_ensemble_and_probe_basis_outputs_equal_a_reference_written_out_bit_for_bit(label):
    box = REFERENCE_BOXES[label]
    root = RngStream(57, 2)
    dim = box.dim_in
    plain = _reference_inputs(dim, root.child(0))
    mixed = Ensemble((0.2, 0.3, 0.5), plain[-3:])
    uneven = Ensemble((0.1, 0.2, 0.3, 0.4), (plain[2], plain[0], plain[3], plain[1]))
    inputs = plain + [plain[3].vector, mixed, uneven, mixed.density()]
    if dim == 2:
        basis = canonical_probe_basis(2, 0.3)
    else:
        basis = ProbeBasis(tuple(PureState.haar(dim, root.child(1, k)) for k in range(dim * dim)))
    # a linear box computes its ensemble and probe-basis outputs at the channel level
    if isinstance(box, LinearBox):
        densities = [x if isinstance(x, (DensityMatrix, Ensemble, PureState)) else PureState(x) for x in inputs]
        want = [box.channel.apply(x if isinstance(x, DensityMatrix) else x.density()).matrix for x in densities]
        want_probes = [box.channel.apply(probe).matrix for probe in basis.states]
    else:
        want = [_reference_output(box, x) for x in inputs]
        want_probes = [_reference_output(box, probe) for probe in basis.states]
    got = output_densities([box], inputs)[0]
    for n, source in enumerate(inputs):
        assert box.ensemble_output_density(source).matrix.tobytes() == want[n].tobytes(), (label, n)
        assert got[n].tobytes() == want[n].tobytes(), (label, n)
    assert box.probe_outputs(basis).tobytes() == np.array(want_probes).tobytes(), label


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


# ---------------------------------------------------------------- stacked outputs


class _ShiftedInput(LinearBox):
    """A linear box with its own output method, so a stack runs that method as is."""

    def ensemble_output_density(self, ensemble):
        return super().ensemble_output_density(plus_state())


def test_output_densities_equal_each_box_alone_bit_for_bit():
    damping = LinearBox(QuantumChannel.amplitude_damping(0.35))
    warped = NonlinearBloch(2.5, RY45)
    boxes = [
        damping,
        LinearBox(random_channel(2, 2, RngStream(8, 0))),
        warped,
        NonlinearBloch(0.4),
        CollapseNonlinear((plus_state(), minus_state()), kappa=3.0, post_unitary=RY45),
        ComposedBox([damping, warped, CollapseNonlinear((ket(0), ket(1)))]),
        compose_boxes(warped, LinearBox(QuantumChannel.dephasing(0.3))),
        _ShiftedInput(QuantumChannel.depolarizing(0.2)),
    ]
    e1, e2 = equal_density_pair()
    mixed = Ensemble((0.2, 0.3, 0.5), (PureState.from_bloch(0.3, 1.0), ket(1), plus_state()))
    inputs = [PureState.from_bloch(1.1, 0.4), ket(0).vector, e1, e2, mixed, mixed.density()]
    got = output_densities(boxes, inputs)
    assert got.shape == (len(boxes), len(inputs), 2, 2)
    for k, box in enumerate(boxes):
        for n, source in enumerate(inputs):
            assert got[k, n].tobytes() == box.ensemble_output_density(source).matrix.tobytes(), (k, n)
    assert output_densities([], inputs).shape == (0, len(inputs), 0, 0)
    assert output_densities(boxes, []).shape == (len(boxes), 0, 2, 2)


def test_output_densities_raise_where_a_box_alone_raises():
    boxes = [LinearBox(QuantumChannel.identity(2)), NonlinearBloch(2.0)]
    for stack in (boxes, boxes[::-1]):
        with pytest.raises(InvalidShapeError):
            output_densities(stack, [ket(0, 3)])
        # inputs of mixed dimensions are checked before they are stacked
        with pytest.raises(InvalidShapeError, match="does not match the channel input"):
            output_densities(stack, [ket(0), ket(0, 3)])
    with pytest.raises(InvalidShapeError, match="differ in output dimension"):
        output_densities(boxes + [LinearBox(QuantumChannel.identity(3))], [ket(0)])


def test_the_stacked_warp_is_the_scalar_warp_bit_for_bit():
    root = RngStream(33, 0)
    plus_i = PureState(np.array([1.0, 1.0j]) / math.sqrt(2.0))
    # |a| or |b| below 1e-15 zeroes the azimuth; theta = 3.1 drives the
    # upper-hemisphere exponent of kappa = 2000 past the clamp at 700
    tiny = [np.array([1.0, 4e-16j]), np.array([3e-16, -1.0j]), np.array([0.0, 1.0])]
    panel = [ket(0), ket(1), plus_state(), plus_i, PureState.from_bloch(3.1, 0.7)]
    panel += [PureState(v / np.linalg.norm(v)) for v in tiny]
    panel += [PureState.haar(2, root.child(k)) for k in range(60)]
    identity = np.eye(2, dtype=complex)
    boxes = []
    for k, kappa in enumerate((0.2, 1.0, 2.5, 2000.0)):
        boxes.append(NonlinearBloch(kappa))
        for j in range(3):
            pre, post = (haar_random_unitary(2, root.child(100 + 10 * k + j, side)) for side in (0, 1))
            boxes.append(NonlinearBloch(kappa, pre_unitary=pre, post_unitary=post))
        boxes.append(NonlinearBloch(kappa, post_unitary=rotation_y(0.9)))
    rows = [(box, psi) for box in boxes for psi in panel]
    got = _warp_rows(
        np.array([psi.vector for _, psi in rows]),
        np.array([box.kappa for box, _ in rows]),
        np.array([box.pre_unitary for box, _ in rows]),
        np.array([box.post_unitary for box, _ in rows]),
    )
    assert any(np.array_equal(box.pre_unitary, identity) for box in boxes)
    for r, (box, psi) in enumerate(rows):
        assert got[r].tobytes() == _three_wrap_warp(box, psi).vector.tobytes(), r
    # the panel reaches the clamp: kappa = 2000 sends theta = 3.1 to the south pole
    assert warp_polar_angle(panel[4].bloch_angles()[0], 2000.0) == math.pi


def test_stock_boxes_stack_without_their_own_output_methods(monkeypatch):
    root = RngStream(33, 4)
    warp = NonlinearBloch(2.5, pre_unitary=RY45, post_unitary=rotation_y(1.3))
    qutrit = CollapseNonlinear(tuple(PureState(c) for c in haar_random_unitary(3, root.child(0)).T))
    qubits = [
        LinearBox(QuantumChannel.amplitude_damping(0.35)),
        warp,
        CollapseNonlinear((plus_state(), minus_state()), kappa=3.0, post_unitary=RY45),
        ComposedBox([LinearBox(random_channel(2, 2, root.child(1))), warp, CollapseNonlinear((ket(0), ket(1)))]),
    ]
    qutrits = [qutrit, ComposedBox([LinearBox(random_channel(3, 3, root.child(2))), qutrit])]
    e1, e2 = equal_density_pair()
    stacks = [
        (qubits, [PureState.haar(2, root.child(3)), ket(1), e1, e2, e1.density()]),
        (qutrits, [ket(2, 3), PureState.haar(3, root.child(4)), DensityMatrix(np.diag([0.5, 0.3, 0.2]))]),
    ]
    alone = [[[box.ensemble_output_density(x).matrix for x in inputs] for box in boxes] for boxes, inputs in stacks]

    def refuse(*args):
        raise AssertionError("a stock box left the stacked path")

    monkeypatch.setattr(BoxModel, "ensemble_output_density", refuse)
    monkeypatch.setattr(BoxModel, "branch_distribution", refuse)
    monkeypatch.setattr(LinearBox, "ensemble_output_density", refuse)
    for (boxes, inputs), expected in zip(stacks, alone):
        assert output_densities(boxes, inputs).tobytes() == np.array(expected).tobytes()


# subclasses of the stock classes with no overrides: not in the table by exact type
class _LinearSubclass(LinearBox):
    pass


class _WarpSubclass(NonlinearBloch):
    pass


class _CollapseSubclass(CollapseNonlinear):
    pass


class _ComposedSubclass(ComposedBox):
    pass


def test_subclasses_and_nested_composites_run_their_own_method_bit_for_bit():
    damping = LinearBox(QuantumChannel.amplitude_damping(0.35))
    warp = NonlinearBloch(2.5, pre_unitary=RY45)
    collapse = CollapseNonlinear((plus_state(), minus_state()), kappa=3.0)
    boxes = [
        _LinearSubclass(QuantumChannel.dephasing(0.3)),
        _WarpSubclass(2.5, pre_unitary=RY45),
        _CollapseSubclass((plus_state(), minus_state()), kappa=3.0),
        _ComposedSubclass([damping, warp]),
        ComposedBox([ComposedBox([damping, warp]), collapse]),
        ComposedBox([damping, _WarpSubclass(0.4)]),
    ]
    assert all(_chain(box) is None for box in boxes)
    e1, e2 = equal_density_pair()
    inputs = [PureState.from_bloch(1.1, 0.4), ket(0), e1, e2, e2.density()]
    _assert_stack_is_each_box_alone(boxes + [damping, warp, collapse], inputs)


class _HalfBranches(BoxModel):
    """A box with its own enumeration: the input and its flip, half each."""

    dim_in = dim_out = 2

    def joint_branches(self, joint, ref_dim):
        flipped = PureState(np.kron(np.array([[0, 1], [1, 0]]), np.eye(ref_dim)) @ joint.vector)
        return [(0.5, joint), (0.5, flipped)]


class _OwnDistribution(NonlinearBloch):
    """A warp box with its own plain-input distribution, so a stack runs that method as is."""

    def branch_distribution(self, psi):
        return [(1.0, PureState(psi.vector[::-1].copy()))]


def _assert_stack_is_each_box_alone(boxes, inputs):
    got = output_densities(boxes, inputs)
    for k, box in enumerate(boxes):
        for n, source in enumerate(inputs):
            assert got[k, n].tobytes() == box.ensemble_output_density(source).matrix.tobytes(), (k, n)


def test_output_densities_of_dropped_and_uneven_branches_equal_each_box_alone_bit_for_bit():
    root = RngStream(33, 1)
    tilted = (PureState(rotation_y(2e-3) @ ket(0).vector), PureState(rotation_y(2e-3) @ ket(1).vector))
    warp = NonlinearBloch(2.5, pre_unitary=RY45, post_unitary=rotation_y(1.3))
    collapse = CollapseNonlinear((ket(0), ket(1)), kappa=4.0, post_unitary=RY45)
    damped = [LinearBox(QuantumChannel.amplitude_damping(g)) for g in (0.0, 1.0, 0.3)]
    boxes = [
        # the projection on |1> drops where the input is |0>
        collapse,
        # mid-chain, gamma = 0 drops its decay branch on every row, and gamma = 1
        # its other branch on each row the collapse leaves at (nearly) |1>
        ComposedBox([warp, damped[0], collapse]),
        ComposedBox([CollapseNonlinear((ket(0), ket(1)), kappa=4.0), damped[1], warp]),
        # one, two, four and eight branches per input in one stack
        warp,
        _HalfBranches(),
        ComposedBox([damped[2], _HalfBranches(), collapse]),
        ComposedBox([LinearBox(random_channel(2, 2, root.child(0))), collapse, _HalfBranches()]),
        ComposedBox([collapse, compose_boxes(damped[2], warp)]),
        _OwnDistribution(1.5),
        compose_boxes(warp, LinearBox(random_channel(2, 2, root.child(1)))),
        # both stages keep the branch through |1> of ``faint``, but not their product
        ComposedBox([CollapseNonlinear((ket(0), ket(1))), CollapseNonlinear(tilted)]),
    ]
    mixed = Ensemble((0.25, 0.75), (ket(1), PureState.haar(2, root.child(2))))
    faint = PureState(np.array([math.sqrt(1.0 - 1e-8), 1e-4]))
    inputs = [ket(0), ket(1), plus_state(), PureState.haar(2, root.child(3)), mixed, mixed.density(), faint]
    _assert_stack_is_each_box_alone(boxes, inputs)
    _assert_stack_is_each_box_alone(boxes[::-1], inputs[::-1])
    # the branches these cases drop are dropped
    assert len(collapse.branch_distribution(ket(0))) == 1
    assert [len(box.branch_distribution(plus_state())) for box in boxes[1:3]] == [2, 2]
    assert len(boxes[-1].branch_distribution(faint)) == 3


def test_output_densities_of_qutrit_and_rectangular_stages_equal_each_box_alone_bit_for_bit():
    root = RngStream(33, 2)
    qutrit = CollapseNonlinear(tuple(PureState(c) for c in haar_random_unitary(3, root.child(0)).T))
    boxes = [
        qutrit,
        CollapseNonlinear((ket(0, 3), ket(1, 3), ket(2, 3))),
        ComposedBox([LinearBox(random_channel(3, 3, root.child(1))), qutrit]),
        ComposedBox([qutrit, LinearBox(random_channel(3, 3, root.child(2)))]),
    ]
    inputs = [ket(2, 3), PureState.haar(3, root.child(3)), DensityMatrix(np.diag([0.5, 0.3, 0.2]))]
    _assert_stack_is_each_box_alone(boxes, inputs)
    # a qutrit-to-qubit stage feeds a warp: every row changes dimension mid-chain
    narrowing = [
        ComposedBox([LinearBox(random_channel(3, 2, root.child(4))), NonlinearBloch(3.0, RY45)]),
        ComposedBox([qutrit, LinearBox(random_channel(3, 2, root.child(5))), NonlinearBloch(0.5)]),
    ]
    _assert_stack_is_each_box_alone(narrowing, inputs)


class _UnevenBranches(BoxModel):
    """A faulty box whose branches do not sum to one."""

    dim_in = dim_out = 2

    def joint_branches(self, joint, ref_dim):
        return [(0.5, joint)]


class _RaisingBranches(_UnevenBranches):
    def joint_branches(self, joint, ref_dim):
        raise ArithmeticError("no branches")


@pytest.mark.parametrize("case", ["trace", "own-error", "stage-error", "input-dimension", "warp-norm"])
def test_a_stack_raises_what_its_failing_box_raises_alone(case, monkeypatch):
    good = [
        NonlinearBloch(2.0, post_unitary=RY45),
        ComposedBox([DEPHASE, TILTED]),
        LinearBox(QuantumChannel.identity(2)),
    ]
    inputs = [plus_state(), Ensemble((0.5, 0.5), (ket(0), ket(1)))]
    if case == "trace":
        failing = _UnevenBranches()
    elif case == "own-error":
        failing = _RaisingBranches()
    elif case == "stage-error":
        failing = ComposedBox([DEPHASE, _RaisingBranches()])
    elif case == "input-dimension":
        failing = ComposedBox([LinearBox(random_channel(3, 2, RngStream(33, 3))), WARP])
    else:
        import qdata.boxes

        monkeypatch.setattr(qdata.boxes, "warp_polar_angle", lambda theta, kappa: math.nan)
        failing = ComposedBox([DEPHASE, NonlinearBloch(2.0)])
        good = good[2:]
    with pytest.raises(Exception) as alone:
        failing.ensemble_output_density(inputs[0])
    for stack in (good + [failing], [failing] + good):
        with pytest.raises(Exception) as stacked:
            output_densities(stack, inputs)
        assert stacked.type is alone.type, case


def _gap_firsts(root):
    """First boxes of one stack: stock linear boxes, a linear subclass, warp and composed boxes."""
    return [
        *(LinearBox(QuantumChannel.amplitude_damping(g)) for g in (0.0, 0.35, 1.0)),
        LinearBox(random_channel(2, 2, root.child(0))),
        _LinearSubclass(QuantumChannel.dephasing(0.6)),
        NonlinearBloch(2.5, pre_unitary=RY45),
        LinearBox(QuantumChannel.depolarizing(0.6)),
        CollapseNonlinear((plus_state(), minus_state()), kappa=3.0),
        ComposedBox([LinearBox(QuantumChannel.amplitude_damping(0.2)), NonlinearBloch(1.5)]),
    ]


def test_composed_outputs_equal_the_composite_boxes_bit_for_bit():
    from qdata.boxes import _composed_outputs

    root = RngStream(56, 0)
    firsts = _gap_firsts(root)
    e1, e2 = equal_density_pair()
    inputs = [PureState.from_bloch(1.0, 0.0), PureState.from_bloch(2.2, 0.7), e2, e1.density()]
    seconds = [
        LinearBox(QuantumChannel.dephasing(0.3)),
        LinearBox(random_channel(2, 3, root.child(1))),  # a rectangular second box
        NonlinearBloch(4.0),
        _LinearSubclass(QuantumChannel.amplitude_damping(0.5)),
    ]
    for second in seconds:
        got = _composed_outputs(firsts, second, inputs)
        want = output_densities([compose_boxes(box, second) for box in firsts], inputs)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), second
        for k in (0, 5):
            assert got[k:k + 1].tobytes() == _composed_outputs(firsts[k:k + 1], second, inputs).tobytes()


def test_composed_outputs_of_linear_boxes_build_no_composite_channel(monkeypatch):
    from qdata import boxes as boxes_module
    from qdata.boxes import _composed_outputs
    from qdata.channels import _check_chois

    firsts = [LinearBox(QuantumChannel.amplitude_damping(g)) for g in (0.1, 0.5, 0.9)]
    second = LinearBox(QuantumChannel.dephasing(0.3))
    want = output_densities([compose_boxes(box, second) for box in firsts], [ket(0), plus_state()])

    def refuse(*args):
        raise AssertionError("a channel was composed alone")

    checked = []

    def check(chois, dim_in, dim_out):
        checked.append((chois.shape, dim_in, dim_out))
        return _check_chois(chois, dim_in, dim_out)

    monkeypatch.setattr(QuantumChannel, "compose", refuse)
    monkeypatch.setattr(boxes_module, "_check_chois", check)
    assert _composed_outputs(firsts, second, [ket(0), plus_state()]).tobytes() == want.tobytes()
    # the composed Choi matrices are checked as channels, once over the stack
    assert checked == [((3, 4, 4), 2, 2)]
    assert _composed_outputs([], second, [ket(0)]).shape == (0, 1, 2, 2)


def test_composed_outputs_raise_where_a_composite_raises():
    from qdata.boxes import _composed_outputs

    second = LinearBox(QuantumChannel.dephasing(0.3))
    qubits = [LinearBox(QuantumChannel.amplitude_damping(0.3)), NonlinearBloch(2.0)]
    odd = [
        LinearBox(random_channel(3, 2, RngStream(56, 2))),  # a qutrit input for a qubit probe
        LinearBox(random_channel(2, 3, RngStream(56, 3))),  # an output the second box cannot take
    ]
    for box in odd:
        with pytest.raises(InvalidShapeError):
            output_densities([compose_boxes(box, second)], [ket(0)])
        for stack in ([box], qubits + [box], [box] + qubits[::-1]):
            with pytest.raises(InvalidShapeError):
                _composed_outputs(stack, second, [ket(0)])


def test_output_densities_of_ensemble_rows_equal_their_ensembles_bit_for_bit():
    from qdata.states import _eigen_rows
    from qdata.tomography import TomographyRun, _state_tomographies

    root = RngStream(56, 4)
    sources = np.array([PureState.haar(2, root.child(k)).density().matrix for k in range(6)] + [np.eye(2) / 2])
    for shots in (1, 50):
        streams = [root.child(10 + shots, k) for k in range(len(sources))]
        rows = _eigen_rows(_state_tomographies(sources, TomographyRun(shots), streams))
        boxes = _gap_firsts(root) + [_WarpSubclass(0.4)]
        got = output_densities(boxes, rows)
        assert got.tobytes() == output_densities(boxes, rows.ensembles()).tobytes()
        for k, box in enumerate(boxes):
            for n, ensemble in enumerate(rows.ensembles()):
                assert got[k, n].tobytes() == box.ensemble_output_density(ensemble).matrix.tobytes()
    qutrit_rows = _eigen_rows(np.array([np.eye(3) / 3]))
    with pytest.raises(InvalidShapeError, match="does not match the channel input"):
        output_densities([LinearBox(QuantumChannel.identity(2))], qutrit_rows)
    with pytest.raises(InvalidShapeError, match="box expects dimension 2, got 3"):
        output_densities([NonlinearBloch(2.0)], qutrit_rows)


# ---------------------------------------------------------------- kept probe outputs


def _kept_families() -> dict:
    damping = LinearBox(QuantumChannel.amplitude_damping(0.3))
    return {
        "nonlinear-bloch": NonlinearBloch(2.5, pre_unitary=RY45),
        "collapse": CollapseNonlinear((plus_state(), minus_state()), kappa=3.0, post_unitary=RY45),
        "stock-composed": ComposedBox([damping, NonlinearBloch(2.0), CollapseNonlinear((ket(0), ket(1)))]),
        "custom-composed": ComposedBox([damping, _HalfBranches()]),
        "linear": LinearBox(random_channel(2, 2, RngStream(57, 1))),
    }


def _counting_exact_outputs(monkeypatch) -> list:
    """Count each probe stack and each joint output a box computes."""
    from qdata.boxes import BoxModel

    computed = []
    for cls, name in ((BoxModel, "_probe_stack"), (LinearBox, "_probe_stack"), (BoxModel, "_joint_output")):
        compute = cls.__dict__[name]

        def counting(self, probe, compute=compute):
            computed.append((self, probe))
            return compute(self, probe)

        monkeypatch.setattr(cls, name, counting)
    return computed


@pytest.mark.parametrize("family", list(_kept_families()))
def test_every_family_keeps_one_read_only_output_per_probe_across_threads(family, monkeypatch):
    from qdata.boxes import _branch_sum

    box = _kept_families()[family]
    bases = [canonical_probe_basis(2, d) for d in (0.0, 0.3, 1.1)]
    joints = [max_entangled(2), PureState.haar(4, RngStream(57, 2)), PureState.haar(6, RngStream(57, 3))]
    computed = _counting_exact_outputs(monkeypatch)
    start = threading.Barrier(8)
    seen = []

    def probe():
        start.wait(timeout=10)
        seen.append(([box.probe_outputs(b) for b in bases], [box.probe_with_reference(j) for j in joints]))

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
    # racing threads may each compute a probe, but all of them keep the first
    kept_outputs, kept_joints = seen[0]
    for outputs, joint_outputs in seen:
        assert all(a is b for a, b in zip(outputs, kept_outputs))
        assert all(a is b for a, b in zip(joint_outputs, kept_joints))
    computed.clear()
    assert all(a is b for a, b in zip((box.probe_outputs(b) for b in bases), kept_outputs))
    assert all(a is b for a, b in zip((box.probe_with_reference(j) for j in joints), kept_joints))
    assert computed == []
    fresh = _kept_families()[family]
    for basis, outputs in zip(bases, kept_outputs):
        assert not outputs.flags.writeable
        assert outputs.tobytes() == output_densities([fresh], basis.states)[0].tobytes()
    for joint, output in zip(joints, kept_joints):
        assert not output.matrix.flags.writeable
        ref = joint.dim // 2
        want = _branch_sum(fresh.joint_branches(joint, ref), 2 * ref)
        assert output.matrix.tobytes() == want.matrix.tobytes()


def test_a_probe_given_as_a_vector_is_computed_and_not_kept():
    box = NonlinearBloch(2.0)
    vector = max_entangled(2).vector.copy()
    first = box.probe_with_reference(vector)
    assert box.probe_with_reference(vector) is not first
    assert np.array_equal(box.probe_with_reference(vector).matrix, first.matrix)
    assert box.__dict__.get("_memo", {}) == {}


def test_a_tomography_job_pair_probes_each_distinct_basis_of_a_box_once(monkeypatch):
    from qdata import ancilla_consistency_test, basis_invariance_test, detectors
    from qdata import boxes as boxes_module
    from qdata import tomography

    # calibrate both budgets first, so only the job's own probes are counted
    monkeypatch.setattr(detectors, "_calibration_cache", {})
    for test in (basis_invariance_test, ancilla_consistency_test):
        test(NonlinearBloch(2.0), shots=64, rng=RngStream(57, 4))
    stacks, rows = [], []
    outputs, checked = boxes_module.output_densities, tomography.checked_distributions
    monkeypatch.setattr(boxes_module, "output_densities", lambda *a: stacks.append(a) or outputs(*a))
    monkeypatch.setattr(tomography, "checked_distributions", lambda p: rows.append(p) or checked(p))
    box = NonlinearBloch(2.0)
    basis_invariance_test(box, shots=64, rng=RngStream(57, 5))
    ancilla_consistency_test(box, shots=64, rng=RngStream(57, 6))
    # the three rotations, the evidence and the ancilla job's direct scheme share
    # the delta-0 basis; the Bell probe's joint output is the fourth Born stack
    assert len(stacks) == 3 and len(rows) == 4


@pytest.mark.parametrize("family", list(_kept_families()))
def test_a_mismatched_probe_or_run_raises_and_leaves_no_memo_entry(family):
    from qdata import TomographyRun, process_tomography_ancilla, process_tomography_direct

    box = _kept_families()[family]
    basis = canonical_probe_basis(2, 0.0)
    with pytest.raises(InvalidShapeError):
        process_tomography_direct(box, basis, TomographyRun(100, 2), RngStream(57, 7))
    with pytest.raises(InvalidShapeError):
        process_tomography_ancilla(box, TomographyRun(100), RngStream(57, 8))
    with pytest.raises(InvalidShapeError):
        box.probe_outputs(canonical_probe_basis(4))
    with pytest.raises(InvalidShapeError):
        box.probe_with_reference(PureState.haar(3, RngStream(57, 9)))
    assert box.__dict__.get("_memo", {}) == {}
    # a matching run keeps the probe outputs and their Born rows, once
    process_tomography_direct(box, basis, TomographyRun(100), RngStream(57, 10))
    process_tomography_direct(box, basis, TomographyRun(100), RngStream(57, 11))
    assert list(box.__dict__["_memo"]) == [basis, (basis, 1)]
