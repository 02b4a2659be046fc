"""Statistical tests rendering post-quantum verdicts, with calibrated nulls."""

import math
import tracemalloc

import numpy as np
import pytest

from qdata import (
    CollapseNonlinear,
    DensityMatrix,
    Ensemble,
    HelstromSetup,
    InvalidInputError,
    InvalidShapeError,
    LinearBox,
    NonlinearBloch,
    PureState,
    QracOracle,
    QuantumChannel,
    RngStream,
    TestVerdict,
    ancilla_consistency_test,
    basis_invariance_test,
    canonical_ensemble_pair,
    ensemble_signalling_test,
    haar_random_unitary,
    helstrom_test,
    ket,
    measure_prepare_strategy,
    minus_state,
    nsq_random_survey,
    nsq_signalling_measure,
    plus_state,
    qrac_fidelity_estimate,
    random_channel,
    rotation_y,
)
from qdata import detectors
from qdata.boxes import BoxPair, NsqChannelPair
from qdata.detectors import NSQ_BLOCK, QRAC_BLOCK, _kernel_direction
from qdata.linalg import hermitian_basis, kron, partial_trace, trace_distance, trace_norm, trace_norms
from qdata.states import born_probabilities

RY45 = rotation_y(math.pi / 4)


def canonical_setup():
    return HelstromSetup(
        (0.5, 0.5),
        (
            PureState.from_bloch(math.pi / 2 - math.pi / 8, 0.0),
            PureState.from_bloch(math.pi / 2 + math.pi / 8, 0.0),
        ),
    )


# ---------------------------------------------------------------- verdict rule


def test_decide_flags_only_three_sigma_excess():
    assert TestVerdict(1.0, 0.5, 0.1, 100).verdict == "post-quantum"
    assert TestVerdict(0.8, 0.5, 0.1, 100).verdict == "post-quantum"  # exactly 3 sigma
    assert TestVerdict(0.7, 0.5, 0.1, 100).verdict == "inconclusive"
    assert TestVerdict(0.15, 0.5, 0.1, 100).verdict == "quantum-consistent"
    assert TestVerdict(0.0, 0.75, 0.25, 10).verdict == "quantum-consistent"  # exactly 3 sigma
    assert TestVerdict(0.45, 0.5, 0.1, 100).verdict == "inconclusive"


def test_a_verdict_carries_its_evidence_outside_comparison_and_repr():
    with_eye = TestVerdict(0.1, 0.5, 0.1, 5, reconstructions={"choi": np.eye(2)})
    with_zeros = TestVerdict(0.1, 0.5, 0.1, 5, reconstructions={"choi": np.zeros((2, 2))})
    assert with_eye == with_zeros == TestVerdict(0.1, 0.5, 0.1, 5)
    assert repr(with_eye) == repr(TestVerdict(0.1, 0.5, 0.1, 5))


def test_decide_with_zero_spread():
    assert TestVerdict(0.1, 0.0, 0.0, 1).verdict == "post-quantum"
    assert TestVerdict(-0.1, 0.0, 0.0, 1).verdict == "quantum-consistent"
    assert TestVerdict(0.0, 0.0, 0.0, 1).verdict == "inconclusive"


def test_decide_with_unusable_spread():
    assert TestVerdict(10.0, 0.0, float("nan"), 5).verdict == "inconclusive"
    assert TestVerdict(10.0, 0.0, float("inf"), 5).verdict == "inconclusive"


def test_verdict_invariant_is_enforced():
    with pytest.raises(TypeError):
        TestVerdict(0.1, 0.5, 0.01, 100, verdict="quantum-consistent")
    # a stale positional verdict cannot slip into ``extras``
    with pytest.raises(TypeError):
        TestVerdict(0.9, 0.5, 0.01, 100, "post-quantum")
    v = TestVerdict(0.9, 0.5, 0.01, 100, extras={})
    assert v.verdict == "post-quantum"
    assert v.n_trials == 100


# ---------------------------------------------------------------- helstrom


def test_helstrom_bound_frozen_example():
    bound = canonical_setup().bound
    assert abs(bound - (1 + math.sin(math.pi / 8)) / 2) < 1e-9
    assert abs(bound - 0.6913417161825449) < 1e-9


def test_helstrom_bound_orthogonal_and_identical():
    assert abs(HelstromSetup((0.3, 0.7), (ket(0), ket(1))).bound - 1) < 1e-12
    assert abs(HelstromSetup((0.5, 0.5), (ket(0), ket(0))).bound - 0.5) < 1e-12


def test_helstrom_bound_closed_form_on_random_pairs():
    root = RngStream(50, 0)
    for k in range(200):
        g = root.child(k)
        psi1 = PureState.haar(2, g.child(0))
        psi2 = PureState.haar(2, g.child(1))
        p1 = float(g.child(2).generator.uniform(0.05, 0.95))
        setup = HelstromSetup((p1, 1 - p1), (psi1, psi2))
        ov2 = abs(psi1.overlap(psi2)) ** 2
        closed = 0.5 * (1 + math.sqrt(max(0.0, 1 - 4 * p1 * (1 - p1) * ov2)))
        assert abs(setup.bound - closed) < 1e-10


def test_helstrom_bound_invariant_under_rotations():
    setup = canonical_setup()
    base = setup.bound
    root = RngStream(50, 1)
    for k in range(1000):
        u = haar_random_unitary(2, root.child(k))
        rotated = HelstromSetup(
            setup.priors,
            tuple(PureState(u @ s.vector) for s in setup.states),
        )
        assert abs(rotated.bound - base) < 1e-10


def test_helstrom_setup_validation():
    with pytest.raises(InvalidInputError):
        HelstromSetup((0.7, 0.7), (ket(0), ket(1)))
    with pytest.raises(InvalidInputError):
        HelstromSetup((0.5, 0.5), (ket(0),))
    with pytest.raises(Exception):
        HelstromSetup((0.5, 0.5), (ket(0), ket(0, dim=4)))


def test_helstrom_test_requires_rng():
    box = LinearBox(QuantumChannel.identity(2))
    with pytest.raises(TypeError):
        helstrom_test(box, canonical_setup())


def test_helstrom_test_identity_box_brackets_the_bound():
    v = helstrom_test(
        LinearBox(QuantumChannel.identity(2)),
        canonical_setup(),
        trials=20_000,
        rng=RngStream(55, 0),
    )
    assert abs(v.statistic - v.threshold) <= 3 * v.std_error
    assert v.verdict != "post-quantum"
    assert abs(v.extras["exact_success"] - v.threshold) < 1e-12
    assert v.n_trials == 20_000


def test_helstrom_test_flags_strong_warp():
    v = helstrom_test(NonlinearBloch(6.0), canonical_setup(), trials=20_000, rng=RngStream(55, 1))
    assert v.verdict == "post-quantum"
    assert v.statistic > 0.9
    assert v.extras["exact_success"] > v.threshold


def test_helstrom_test_never_flags_linear_boxes():
    setup = canonical_setup()
    root = RngStream(77, 0)
    for k in range(50):
        box = LinearBox(random_channel(2, 2, root.child(k, 0)))
        v = helstrom_test(box, setup, trials=2000, rng=root.child(k, 1))
        assert v.verdict != "post-quantum"
        # channels cannot beat the optimal discrimination bound
        assert v.extras["exact_success"] <= setup.bound + 1e-10


# ---------------------------------------------------------------- signalling


def test_canonical_ensemble_pair_has_equal_densities():
    e1, e2 = canonical_ensemble_pair()
    assert np.allclose(e1.density().matrix, e2.density().matrix, atol=1e-12)
    again = canonical_ensemble_pair()
    assert again[0] is e1 and again[1] is e2


def test_ensemble_signalling_quiet_for_linear_boxes():
    e1, e2 = canonical_ensemble_pair()
    for ch in (
        QuantumChannel.identity(2),
        QuantumChannel.depolarizing(0.3),
        random_channel(2, 2, RngStream(56, 0)),
    ):
        v = ensemble_signalling_test(LinearBox(ch), e1, e2)
        assert v.statistic < 1e-12
        assert v.verdict == "quantum-consistent"
        assert v.n_trials == 0


def test_ensemble_signalling_flags_warp():
    e1, e2 = canonical_ensemble_pair()
    v = ensemble_signalling_test(NonlinearBloch(4.0, pre_unitary=RY45), e1, e2)
    assert abs(v.statistic - 7 / 51) < 1e-15
    assert v.verdict == "post-quantum"


def test_ensemble_signalling_quiet_for_computational_collapse():
    e1, e2 = canonical_ensemble_pair()
    box = CollapseNonlinear((ket(0), ket(1)), kappa=4.0, pre_unitary=RY45)
    v = ensemble_signalling_test(box, e1, e2)
    assert v.statistic < 1e-12
    assert v.verdict != "post-quantum"


def test_ensemble_signalling_rejects_distinguishable_ensembles():
    e1 = Ensemble((1.0,), (ket(0),))
    e2 = Ensemble((1.0,), (plus_state(),))
    with pytest.raises(InvalidInputError):
        ensemble_signalling_test(LinearBox(QuantumChannel.identity(2)), e1, e2)


# ---------------------------------------------------------------- basis invariance


def test_basis_invariance_single_frame_is_degenerate():
    v = basis_invariance_test(
        LinearBox(QuantumChannel.identity(2)),
        deltas=(0.0,),
        shots=400,
        rng=RngStream(57, 0),
    )
    assert v.statistic == 0.0


def test_basis_invariance_requires_frames():
    with pytest.raises(InvalidInputError):
        basis_invariance_test(
            LinearBox(QuantumChannel.identity(2)), deltas=(), rng=RngStream(57, 1)
        )


def test_basis_invariance_accepts_linear_box():
    v = basis_invariance_test(
        LinearBox(QuantumChannel.depolarizing(0.3)), shots=100_000, rng=RngStream(606, 0).child(7000)
    )
    assert v.verdict == "quantum-consistent"
    assert v.statistic < v.threshold
    assert len(v.extras["cptp_residuals"]) == 3
    assert v.n_trials == 3 * 100_000


def test_basis_invariance_flags_warp():
    v = basis_invariance_test(NonlinearBloch(4.0), shots=100_000, rng=RngStream(606, 0).child(5000))
    assert v.verdict == "post-quantum"
    assert abs(v.statistic - 0.11681950322378898) < 1e-12


def test_basis_invariance_calibration_is_cached_and_deterministic():
    v1 = basis_invariance_test(
        LinearBox(QuantumChannel.identity(2)), shots=2000, rng=RngStream(57, 2)
    )
    v2 = basis_invariance_test(
        LinearBox(QuantumChannel.identity(2)), shots=2000, rng=RngStream(57, 2)
    )
    assert v1.threshold == v2.threshold
    assert v1.std_error == v2.std_error
    assert v1.statistic == v2.statistic


def test_calibration_keeps_apart_deltas_that_print_alike(monkeypatch):
    # both sets print as "0,0.628318530718" to 12 digits, so their budget
    # keys and calibration seeds agree; each still gets its own threshold,
    # whichever of the two calibrates first
    first, second = (0.0, math.pi / 5), (0.0, math.pi / 5 + 1e-13)
    box = LinearBox(QuantumChannel.identity(2))
    thresholds = {first: set(), second: set()}
    for order in ((first, second), (second, first)):
        monkeypatch.setattr(detectors, "_calibration_cache", {})
        for deltas in order:
            v = basis_invariance_test(box, deltas, shots=200, rng=RngStream(57, 5))
            thresholds[deltas].add(v.threshold)
    assert thresholds == {first: {0.060322274694713345}, second: {0.060322279070373}}


# ---------------------------------------------------------------- ancilla


def test_ancilla_consistency_identity_box_is_quiet():
    v = ancilla_consistency_test(
        LinearBox(QuantumChannel.identity(2)), shots=20_000, rng=RngStream(81, 0)
    )
    assert v.statistic < v.threshold
    assert v.verdict != "post-quantum"
    assert v.n_trials == 20_000


def test_ancilla_consistency_quiet_for_dephasing_collapse():
    v = ancilla_consistency_test(
        CollapseNonlinear((ket(0), ket(1))), shots=20_000, rng=RngStream(81, 1)
    )
    assert v.statistic < v.threshold
    assert v.verdict != "post-quantum"


def test_ancilla_consistency_flags_warp():
    v = ancilla_consistency_test(NonlinearBloch(4.0), shots=20_000, rng=RngStream(81, 2))
    assert v.verdict == "post-quantum"
    assert v.statistic > 0.4
    assert "direct_residual" in v.extras and "ancilla_residual" in v.extras


def test_ancilla_consistency_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        ancilla_consistency_test(LinearBox(QuantumChannel.identity(3)), rng=RngStream(81, 3))


def test_basis_invariance_rejects_non_qubit_boxes():
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    with pytest.raises(InvalidInputError, match="qubit boxes"):
        basis_invariance_test(
            LinearBox(QuantumChannel.from_unitary(swap)), shots=100, rng=RngStream(57, 3)
        )


@pytest.mark.parametrize(
    "detector, message",
    [(basis_invariance_test, "basis-invariance"), (ancilla_consistency_test, "consistency")],
)
def test_calibrated_detectors_reject_a_swap_box_before_calibrating(detector, message, monkeypatch):
    def never(key, statistic_fn):
        raise AssertionError("calibration ran for a non-qubit box")

    monkeypatch.setattr(detectors, "_calibrated_null", never)
    box = LinearBox(QuantumChannel.from_unitary(np.eye(4)[[0, 2, 1, 3]]))
    with pytest.raises(InvalidInputError, match=f"the {message} test is implemented for qubit boxes"):
        detector(box, shots=100, rng=RngStream(57, 4))


# ---------------------------------------------------------------- qrac


def test_qrac_oracle_is_exact():
    v = qrac_fidelity_estimate(QracOracle(), 20_000, RngStream(58, 0))
    assert v.statistic == 1.0
    assert 1.96 * v.std_error < 1e-12
    keep = v.extras["kept_fraction"]
    assert abs(keep - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / 20_000)
    assert v.verdict == "post-quantum"
    assert v.threshold == 5 / 6


def test_qrac_measure_prepare_sits_at_two_thirds():
    v = qrac_fidelity_estimate(measure_prepare_strategy(), 6000, RngStream(21, 3))
    assert abs(v.statistic - 2 / 3) < 0.03
    assert v.verdict == "quantum-consistent"


def test_qrac_estimate_validation():
    with pytest.raises(InvalidInputError):
        qrac_fidelity_estimate(QracOracle(), 0, RngStream(58, 1))


def test_qrac_oracle_estimate_stays_in_the_unit_interval_at_few_rounds():
    # the oracle's exact fidelities equal 1 up to rounding; their mean over a
    # handful of kept rounds can land one ulp above 1 and must be clamped
    for seed in range(300):
        v = qrac_fidelity_estimate(QracOracle(), 50, RngStream(seed, 7))
        assert 0.0 <= v.statistic <= 1.0, seed
        assert v.statistic > 0.999, seed


class _NeverKeeps(BoxPair):
    def play_rounds(self, psi0, psi1, x, gen):
        n = len(x)
        rho = np.broadcast_to(ket(0).density().matrix, (n, 2, 2))
        return np.zeros(n, dtype=int), np.ones(n, dtype=int), rho


def test_qrac_estimate_requires_surviving_rounds():
    with pytest.raises(InvalidInputError):
        qrac_fidelity_estimate(_NeverKeeps(), 50, RngStream(58, 2))


def _reference_fidelities(pair, psi0, psi1, x, gen):
    """Per-round reference: the block's draws replayed one round at a time."""
    n = len(x)
    if isinstance(pair, QracOracle):
        a, b = gen.integers(4, size=n), gen.integers(4, size=n)
        outputs = [
            (psi0[r] if x[r] == 0 else psi1[r]).density().matrix if a[r] == b[r]
            else np.eye(2) / 2
            for r in range(n)
        ]
    else:
        u = gen.random(n)
        a = [
            np.searchsorted(
                np.cumsum(born_probabilities(psi0[r].tensor(psi1[r]), pair.alice_povm)),
                u[r], side="right",
            )
            for r in range(n)
        ]
        b = gen.integers(4, size=n)
        outputs = [pair.bob_channels[b[r]].apply(ket(int(x[r]))).matrix for r in range(n)]
    fids = []
    for r in range(n):
        if a[r] == b[r]:
            target = (psi0[r] if x[r] == 0 else psi1[r]).vector
            fids.append(float(np.real(target.conj() @ outputs[r] @ target)))
    return fids


@pytest.mark.parametrize("pair", [QracOracle(), measure_prepare_strategy()])
def test_qrac_blocks_match_per_round_reference(pair, monkeypatch):
    monkeypatch.setattr(detectors, "QRAC_BLOCK", 50)
    rounds, rng = 130, RngStream(58, 7)
    fids = []
    for block, start in enumerate(range(0, rounds, 50)):
        n = min(50, rounds - start)
        gen = rng.child(block).generator
        z = gen.standard_normal((2 * n, 2)) + 1j * gen.standard_normal((2 * n, 2))
        states = [PureState(v / np.linalg.norm(v)) for v in z]
        x = gen.integers(2, size=n)
        fids += _reference_fidelities(pair, states[:n], states[n:], x, gen)
    v = qrac_fidelity_estimate(pair, rounds, rng)
    assert v.n_trials == len(fids)
    assert v.extras["kept_fraction"] == len(fids) / rounds
    assert abs(v.statistic - np.mean(fids)) <= 1e-12
    assert abs(1.96 * v.std_error - 1.96 * np.std(fids, ddof=1) / math.sqrt(len(fids))) <= 1e-12


def test_qrac_estimate_is_deterministic_across_block_boundaries():
    rounds = 2 * QRAC_BLOCK + 7
    for pair in (QracOracle(), measure_prepare_strategy()):
        first = qrac_fidelity_estimate(pair, rounds, RngStream(58, 8))
        assert first == qrac_fidelity_estimate(pair, rounds, RngStream(58, 8))
        assert first.extras["kept_fraction"] == first.n_trials / rounds


class _BadOutputs(BoxPair):
    def __init__(self, rho):
        self.rho = np.asarray(rho, dtype=complex)

    def play_rounds(self, psi0, psi1, x, gen):
        n = len(x)
        return np.zeros(n, dtype=int), np.zeros(n, dtype=int), np.broadcast_to(self.rho, (n, 2, 2))


def test_qrac_estimate_checks_every_output_density():
    for rho in (np.diag([1.2, -0.2]), np.eye(2), np.array([[1.0, 0.1], [0.0, 0.0]])):
        with pytest.raises(InvalidInputError):
            qrac_fidelity_estimate(_BadOutputs(rho), 10, RngStream(58, 9))


class _KeepsOne(BoxPair):
    def play_rounds(self, psi0, psi1, x, gen):
        n = len(x)
        rho = np.broadcast_to(ket(0).density().matrix, (n, 2, 2))
        b = np.ones(n, dtype=int)
        b[0] = 0
        return np.zeros(n, dtype=int), b, rho


def test_qrac_single_kept_round_is_inconclusive():
    v = qrac_fidelity_estimate(_KeepsOne(), 8, RngStream(58, 3))
    assert v.n_trials == 1
    assert math.isnan(v.std_error)
    assert v.verdict == "inconclusive"


def test_qrac_confidence_interval_coverage():
    pair = measure_prepare_strategy()
    covered = 0
    for rep in range(100):
        v = qrac_fidelity_estimate(pair, 400, RngStream(505, rep))
        if abs(v.statistic - 2 / 3) <= 1.96 * v.std_error:
            covered += 1
    assert covered >= 93


# ---------------------------------------------------------------- nsq


def swap_channel():
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[2 * j + i, 2 * i + j] = 1.0
    return QuantumChannel.from_unitary(swap)


def test_nsq_swap_signals_maximally_in_both_directions():
    assert nsq_signalling_measure(swap_channel(), (2, 2)) == (1.0, 1.0)
    assert _sampled_moves(swap_channel(), (2, 2), 10, RngStream(59, 10)) == 1.0


def test_nsq_cnot_signals_in_both_directions():
    cnot = QuantumChannel.from_unitary(
        np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    )
    assert nsq_signalling_measure(cnot, (2, 2)) == (1.0, 1.0)


def test_nsq_identity_and_products_are_silent():
    ident = QuantumChannel.identity(4)
    assert max(nsq_signalling_measure(ident, (2, 2))) < 1e-12
    assert _sampled_moves(ident, (2, 2), 10, RngStream(59, 10)) == 0.0
    a = random_channel(2, 2, RngStream(59, 0))
    b = random_channel(2, 2, RngStream(59, 1))
    product = a.tensor(b)
    assert max(nsq_signalling_measure(product, (2, 2))) < 1e-12
    assert _sampled_moves(product, (2, 2), 10, RngStream(59, 10)) == 0.0


def test_nsq_measure_draws_nothing(monkeypatch):
    root = RngStream(59, 11)
    samples = [random_channel(4, 4, root.child(k)) for k in range(5)]

    def refuse(*args, **kwargs):
        raise AssertionError("the measure drew")

    monkeypatch.setattr(detectors, "_random_channels", refuse)
    monkeypatch.setattr(RngStream, "generator", property(refuse))
    assert nsq_signalling_measure(swap_channel(), (2, 2)) == (1.0, 1.0)
    for ch in samples:
        want = (_kernel_direction(ch.choi4, (2, 2), 0), _kernel_direction(ch.choi4, (2, 2), 1))
        assert nsq_signalling_measure(ch, (2, 2)) == want


def _sampled_moves(channel, dims, pairs, rng):
    """Operational reference for the kernel scan: the fraction of ``pairs``
    random (joint state, Alice channel) pairs for which applying the Alice
    channel before ``channel`` moves Bob's output marginal by more than 1e-9.

    Pair k draws from ``rng.child(k)``: a Ginibre joint density from its
    child 0, then a random Alice channel from its child 1.
    """
    da, db = dims
    ident_b = QuantumChannel.identity(db)
    moves = 0
    for k in range(pairs):
        stream = rng.child(k)
        gen = stream.child(0).generator
        g = gen.standard_normal((da * db, da * db)) + 1j * gen.standard_normal((da * db, da * db))
        rho = g @ g.conj().T
        rho = DensityMatrix(rho / np.trace(rho))
        moved = random_channel(da, da, stream.child(1)).tensor(ident_b).apply(rho)
        bob_base = channel.apply(rho).reduce([da, db], keep={1})
        bob_moved = channel.apply(moved).reduce([da, db], keep={1})
        if trace_distance(bob_base, bob_moved) > 1e-9:
            moves += 1
    return moves / pairs


def _kernel_direction_loop(choi4, dims, sender):
    """Per-pair reference for the kernel scan: one operand at a time."""
    da, db = dims
    basis_a, basis_b = hermitian_basis(da), hermitian_basis(db)
    if sender == 0:
        pairs, keep = [(a, b) for a in basis_a[1:] for b in basis_b], {1}
    else:
        pairs, keep = [(a, b) for a in basis_a for b in basis_b[1:]], {0}
    worst = 0.0
    for a, b in pairs:
        operand = kron(a, b)
        output = np.einsum("ij,iajb->ab", operand, choi4)
        marginal = partial_trace(output, [da, db], keep)
        worst = max(worst, trace_norm(marginal) / trace_norm(operand))
    return worst


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_kernel_scan_is_bitwise_the_per_pair_loop(dims):
    da, db = dims
    root = RngStream(59, 9)
    for k in range(200):
        if k % 10 == 0:
            ch = random_channel(da, da, root.child(k, 0)).tensor(
                random_channel(db, db, root.child(k, 1))
            )
        else:
            ch = random_channel(da * db, da * db, root.child(k, 2), env_dim=(1, 2, 6)[k % 3])
        for sender in (0, 1):
            assert _kernel_direction(ch.choi4, dims, sender) == _kernel_direction_loop(
                ch.choi4, dims, sender
            )


def test_nsq_kernel_implies_sampled_null():
    # kernel-silent channels must also be silent for every sampled pair
    root = RngStream(59, 2)
    checked_silent = 0
    for k in range(1000):
        if k % 10 == 0:
            a = random_channel(2, 2, root.child(k, 0))
            b = random_channel(2, 2, root.child(k, 1))
            ch = a.tensor(b)
        else:
            ch = random_channel(4, 4, root.child(k, 2))
        if max(nsq_signalling_measure(ch, (2, 2))) <= 1e-8:
            checked_silent += 1
            assert _sampled_moves(ch, (2, 2), 2, root.child(k, 3)) == 0.0
    assert checked_silent >= 100  # every product channel lands in the null set


def test_nsq_survey_generic_channels_all_signal():
    v = nsq_random_survey(40, rng=RngStream(59, 3), env_dim=16)
    assert v.statistic == 0.0
    assert v.extras["signalling_fraction"] == 1.0
    assert v.verdict == "quantum-consistent"
    assert v.n_trials == 40


def test_nsq_survey_product_channels_all_compatible():
    v = nsq_random_survey(30, rng=RngStream(59, 4), product_channels=True)
    assert v.extras["compatible_fraction"] == 1.0
    assert v.verdict == "post-quantum"


def test_nsq_survey_single_sample_is_inconclusive():
    v = nsq_random_survey(1, rng=RngStream(59, 5))
    assert v.verdict == "inconclusive"
    assert math.isnan(v.std_error)


@pytest.mark.parametrize("dims", [(1, 4), (4, 1)])
def test_nsq_rejects_a_local_dimension_of_1(dims):
    with pytest.raises(InvalidInputError, match="local dimensions must be at least 2"):
        nsq_signalling_measure(QuantumChannel.identity(4), dims)
    with pytest.raises(InvalidInputError, match="local dimensions must be at least 2"):
        nsq_random_survey(2, dims, rng=RngStream(59, 6))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: nsq_random_survey(2, (2.7, 2), rng=RngStream(59, 7)), "local_dims"),
        (lambda: nsq_random_survey(2, rng=RngStream(59, 7), env_dim=8.5), "env_dim"),
        (lambda: nsq_signalling_measure(QuantumChannel.identity(4), (2.9, 2)), "local_dims"),
        (lambda: NsqChannelPair(QuantumChannel.identity(4), (2.5, 2)), "local_dims"),
    ],
    ids=["survey-dims", "survey-env", "measure-dims", "pair-dims"],
)
def test_nsq_dimensions_and_counts_must_be_integers(call, name):
    with pytest.raises(InvalidInputError, match=f"{name} must be an integer"):
        call()


def test_nsq_survey_requires_rng():
    with pytest.raises(TypeError):
        nsq_random_survey(10)


class _NoDraws:
    """A stand-in stream that fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"the survey used rng.{name}")


def test_nsq_survey_rejects_dimensions_beyond_the_cap_before_any_draw():
    # the default environment dilates an 8-dimensional channel in 8 * 64 = 512
    with pytest.raises(InvalidInputError, match=r"local_dims \(2, 4\) with env_dim None .*512.*64"):
        nsq_random_survey(3, (2, 4), rng=_NoDraws())
    # the Choi matrix of a 9-dimensional channel is 81 wide, in either arm
    for product in (False, True):
        with pytest.raises(InvalidInputError, match="81"):
            nsq_random_survey(3, (3, 3), rng=_NoDraws(), env_dim=1, product_channels=product)
    v = nsq_random_survey(3, (2, 4), rng=RngStream(59, 7), env_dim=8)
    assert v.n_trials == 3 and v.extras["signalling_fraction"] == 1.0


def test_nsq_survey_refuses_env_dim_with_product_channels_before_any_draw():
    # a product sample dilates each factor by default, so env_dim would go unused
    with pytest.raises(InvalidInputError, match="env_dim .*product_channels"):
        nsq_random_survey(4, rng=_NoDraws(), env_dim=3, product_channels=True)


@pytest.mark.parametrize("dims", [(2, 2, 1), (2,), (), 4])
def test_nsq_local_dims_must_be_a_pair(dims):
    ident = QuantumChannel.identity(4)
    for call in (
        lambda: nsq_signalling_measure(ident, dims),
        lambda: nsq_random_survey(2, dims, rng=_NoDraws()),
        lambda: NsqChannelPair(ident, dims),
    ):
        with pytest.raises(InvalidInputError, match="local_dims must be a pair"):
            call()


@pytest.mark.parametrize(
    "channel",
    [QuantumChannel.identity(2), QuantumChannel.identity(8), random_channel(4, 2, RngStream(59, 8))],
    ids=["qubit", "three-qubit", "four-to-two"],
)
def test_a_channel_that_does_not_factor_is_one_shape_error_in_the_measure_and_in_the_pair(channel):
    for call in (
        lambda: nsq_signalling_measure(channel, (2, 2)),
        lambda: NsqChannelPair(channel, (2, 2)),
    ):
        with pytest.raises(InvalidShapeError, match="channel dimensions do not factor over the local dims"):
            call()


@pytest.mark.parametrize("dims", [(1, 4), (4, 1)])
def test_nsq_local_dimension_of_1_fails_before_any_draw_and_in_the_pair(dims):
    with pytest.raises(InvalidInputError, match="local dimensions must be at least 2"):
        nsq_random_survey(2, dims, rng=_NoDraws())
    with pytest.raises(InvalidInputError, match="local dimensions must be at least 2"):
        NsqChannelPair(QuantumChannel.identity(4), dims)


def test_nsq_survey_factors_only_the_kept_columns(monkeypatch):
    shapes = []
    qr = np.linalg.qr

    def recording_qr(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    v = nsq_random_survey(60, rng=RngStream(59, 8), env_dim=16)
    assert v.n_trials == 60
    # a 4-dimensional channel dilated on 4 x 16: its isometry is 64 x 4, and
    # the 60 samples are factored in blocks of 16
    assert NSQ_BLOCK == 16
    assert shapes == [(16, 64, 4)] * 3 + [(12, 64, 4)]


def _survey_loop(n_samples, local_dims, rng, env_dim=None, product_channels=False):
    """The survey one sample at a time, each channel built and scanned alone."""
    da, db = local_dims
    compatible = 0
    for k in range(n_samples):
        stream = rng.child(k)
        if product_channels:
            channel = random_channel(da, da, stream.child(0)).tensor(random_channel(db, db, stream.child(1)))
        else:
            channel = random_channel(da * db, da * db, stream, env_dim)
        if max(detectors.nsq_signalling_measure(channel, (da, db))) <= 1e-8:
            compatible += 1
    rng.tally(n_samples)
    fraction = compatible / n_samples
    sigma = math.sqrt(fraction * (1.0 - fraction) / (n_samples - 1)) if n_samples > 1 else float("nan")
    extras = {"signalling_fraction": 1.0 - fraction, "compatible_fraction": fraction}
    return TestVerdict(fraction, 0.01, sigma, n_samples, extras=extras)


# every arm, pair of local dimensions and environment whose matrices fit the cap
SURVEY_ARMS = [(dims, env, False) for dims in [(2, 2), (2, 3), (3, 2)] for env in (None, 1, 16)
               if math.prod(dims) * max(math.prod(dims), env or math.prod(dims) ** 2) <= 64]
SURVEY_ARMS += [(dims, None, True) for dims in [(2, 2), (2, 3), (3, 2)]]


@pytest.mark.parametrize("n_samples", [1, 15, 16, 17, 33])
@pytest.mark.parametrize("dims, env_dim, product", SURVEY_ARMS)
def test_nsq_survey_equals_the_per_sample_loop(dims, env_dim, product, n_samples, monkeypatch):
    scanned = []
    measure = nsq_signalling_measure

    def recording(channel, local_dims):
        scanned.append((channel.choi.tobytes(), channel.dim_in, channel.dim_out, tuple(local_dims)))
        return measure(channel, local_dims)

    monkeypatch.setattr(detectors, "nsq_signalling_measure", recording)
    seed = 70 + n_samples
    rng = RngStream(seed, 5)
    got = nsq_random_survey(n_samples, dims, rng=rng, env_dim=env_dim, product_channels=product)
    # one scan per sample, as traced runs count them
    assert len(scanned) == n_samples
    surveyed, scanned[:] = scanned[:], []
    ref = RngStream(seed, 5)
    want = _survey_loop(n_samples, dims, ref, env_dim, product)
    assert surveyed == scanned
    assert got.n_trials == want.n_trials == n_samples
    assert got.extras == want.extras
    assert (got.statistic, got.threshold, got.verdict) == (want.statistic, want.threshold, want.verdict)
    assert got.std_error == want.std_error or math.isnan(got.std_error) and math.isnan(want.std_error)
    assert rng.samples == ref.samples == n_samples


def test_nsq_survey_memory_does_not_grow_with_the_sample_count():
    nsq_random_survey(16, rng=RngStream(59, 21))  # builds the shared scan operands

    def peak(n_samples):
        tracemalloc.start()
        try:
            nsq_random_survey(n_samples, rng=RngStream(59, 22))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(32), peak(320)
    # a block of 16 default samples peaks at about 0.4 MB of draws and factors
    assert large <= small + 16_384, (small, large)


@pytest.mark.parametrize("da, db", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("sender", [0, 1])
def test_kernel_operands_are_built_once_and_read_only(da, db, sender):
    operands, norms = detectors._kernel_scan_operands(da, db, sender)
    basis_a = hermitian_basis(da)[1 - sender:]
    basis_b = hermitian_basis(db)[sender:]
    fresh = np.array([np.kron(a, b) for a in basis_a for b in basis_b])
    assert np.array_equal(operands, fresh)
    assert np.array_equal(norms, trace_norms(fresh))
    assert detectors._kernel_scan_operands(da, db, sender)[0] is operands
    for array in (operands, norms):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_detector_counts_must_be_integers():
    box = LinearBox(QuantumChannel.identity(2))
    for bad in (1000.9, 2.0, True):
        with pytest.raises(InvalidInputError, match="trials must be an integer"):
            helstrom_test(box, canonical_setup(), bad, rng=RngStream(61, 0))
    for bad in (50.5, True):
        with pytest.raises(InvalidInputError, match="rounds must be an integer"):
            qrac_fidelity_estimate(QracOracle(), bad, RngStream(61, 1))
        with pytest.raises(InvalidInputError, match="n_samples must be an integer"):
            nsq_random_survey(bad, rng=RngStream(61, 2))
    # a numpy integer is an integer
    want = helstrom_test(box, canonical_setup(), 1000, rng=RngStream(61, 3))
    got = helstrom_test(box, canonical_setup(), np.int64(1000), rng=RngStream(61, 3))
    assert got == want and type(got.n_trials) is int


@pytest.mark.parametrize(
    "call,message",
    [
        (
            lambda: helstrom_test(
                LinearBox(QuantumChannel.identity(2)), canonical_setup(), 0, rng=RngStream(61, 4)
            ),
            "trials must be at least 1",
        ),
        (lambda: qrac_fidelity_estimate(QracOracle(), 0, RngStream(61, 5)), "rounds must be at least 1"),
        (lambda: nsq_random_survey(0, rng=RngStream(61, 6)), "n_samples must be at least 1"),
    ],
    ids=["trials", "rounds", "n_samples"],
)
def test_detector_counts_have_a_lower_bound(call, message):
    with pytest.raises(InvalidInputError, match=message):
        call()


def test_helstrom_bound_is_computed_once_per_setup(monkeypatch):
    setup = canonical_setup()
    p1, p2 = setup.priors
    s1, s2 = setup.states
    want = 0.5 * (1.0 + trace_norm(p1 * s1.projector() - p2 * s2.projector()))
    calls = []

    def counting(h):
        calls.append(1)
        return trace_norm(h)

    monkeypatch.setattr(detectors, "trace_norm", counting)
    assert setup.bound == want
    for k in range(3):
        assert helstrom_test(LinearBox(QuantumChannel.identity(2)), setup, 100, rng=RngStream(88, k)).threshold == want
    assert len(calls) == 1


# ---------------------------------------------------------------- calibration


def test_calibration_percentile_equals_numpy_quantile():
    from qdata.detectors import NULL_QUANTILE, NULL_REPLICATIONS, _linear_quantile

    gen = np.random.default_rng(89)
    for trial in range(2000):
        stats = gen.random(NULL_REPLICATIONS) * 10.0 ** gen.integers(-8, 1)
        if trial % 4 == 0:
            stats = np.round(stats, 3)  # ties
        got = _linear_quantile(stats, NULL_QUANTILE)
        assert got == float(np.quantile(stats, NULL_QUANTILE)), trial


def test_calibration_never_loads_numpy_ma():
    import os
    import subprocess
    import sys

    import qdata

    code = (
        "import sys\n"
        "from qdata import LinearBox, QuantumChannel, RngStream, ancilla_consistency_test\n"
        "ancilla_consistency_test(LinearBox(QuantumChannel.identity(2)), 100, rng=RngStream(1, 1))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(qdata.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_calibration_computes_each_key_once_under_contention():
    import sys
    import threading

    from qdata import detectors

    keys = ("test-once|a", "test-once|b")
    calls = {key: 0 for key in keys}
    evaluations = {key: 0 for key in keys}
    counter_lock = threading.Lock()
    other_key_running = {key: threading.Event() for key in keys}
    overlapped = {key: False for key in keys}

    def statistic_for(key, other):
        def statistic(box, streams):
            with counter_lock:
                calls[key] += len(streams)
                evaluations[key] += 1
                first = evaluations[key] == 1
            other_key_running[key].set()
            if first:
                # different keys calibrate in parallel: the other key's
                # computation starts while this one is still running
                overlapped[key] = other_key_running[other].wait(timeout=10)
            return [float(stream.generator.random()) for stream in streams]

        return statistic

    results = {key: [] for key in keys}
    start = threading.Barrier(8)

    def caller(key, other):
        start.wait(timeout=10)
        results[key].append(detectors._calibrated_null(key, statistic_for(key, other)))

    threads = [
        threading.Thread(target=caller, args=(key, other))
        for key, other in (keys, keys[::-1])
        for _ in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        for key in keys:
            detectors._calibration_cache.pop((key, ()), None)
    assert not any(t.is_alive() for t in threads)
    for key in keys:
        assert calls[key] == detectors.NULL_REPLICATIONS
        assert evaluations[key] == 1
        assert len(results[key]) == 4 and len(set(results[key])) == 1
        assert overlapped[key]


def test_failed_calibration_is_not_cached():
    from qdata import detectors

    key = "test-failure|a"
    attempts = []

    def failing(box, streams):
        attempts.append(1)
        raise RuntimeError("boom")

    try:
        with pytest.raises(RuntimeError, match="boom"):
            detectors._calibrated_null(key, failing)
        threshold, sigma = detectors._calibrated_null(key, lambda box, streams: [1.0] * len(streams))
    finally:
        detectors._calibration_cache.pop((key, ()), None)
    assert len(attempts) == 1
    assert threshold == 1.0 and sigma == 0.0


def _reference_null(key, statistic):
    """The calibration as one replication at a time: each stream's tomographies,
    then its own projections and fidelities."""
    import zlib

    from qdata.linalg import nearest_density_matrix, worst_fidelity

    identity = LinearBox(QuantumChannel.identity(2))
    root = RngStream(detectors.CALIBRATION_SEED, zlib.crc32(key.encode()))
    stats = []
    for rep in range(detectors.NULL_REPLICATIONS):
        recs = statistic(identity, root.child(rep))
        stats.append(1.0 - worst_fidelity([nearest_density_matrix(r.normalized_choi()) for r in recs]))
    return float(np.quantile(stats, 0.99)), float(np.std(stats, ddof=1))


@pytest.mark.parametrize("shots", [200, 4000])
def test_calibrated_nulls_equal_the_per_replication_loop_bit_for_bit(shots, monkeypatch):
    from qdata import TomographyRun, canonical_probe_basis
    from qdata import process_tomography_ancilla, process_tomography_direct

    run, joint_run = TomographyRun(shots), TomographyRun(shots, 2)
    deltas = (0.0, math.pi / 5, math.pi / 3)
    basis_key = "basis|{}|{}|2".format(",".join(f"{d:.12g}" for d in deltas), shots)

    def basis_recs(box, stream):
        return [
            process_tomography_direct(box, canonical_probe_basis(2, d), run, stream.child(k))
            for k, d in enumerate(deltas)
        ]

    def ancilla_recs(box, stream):
        return [
            process_tomography_direct(box, canonical_probe_basis(2), run, stream.child(0)),
            process_tomography_ancilla(box, joint_run, stream.child(1)),
        ]

    for test, key, recs in (
        (basis_invariance_test, basis_key, basis_recs),
        (ancilla_consistency_test, f"ancilla|{shots}", ancilla_recs),
    ):
        monkeypatch.setattr(detectors, "_calibration_cache", {})
        verdict = test(NonlinearBloch(2.0), shots=shots, rng=RngStream(3, 1))
        assert (verdict.threshold, verdict.std_error) == _reference_null(key, recs), key


# threshold and spread of the tomography-grid budget keys, as float.hex
FROZEN_NULLS = {
    "basis-invariance": ("0x1.16fdf3e8ee1c2p-6", "0x1.95b6ac50eac91p-9", 12),
    "ancilla-consistency": ("0x1.cba55dd1223a5p-7", "0x1.a7e99ee5f5394p-9", 4),
}


@pytest.mark.parametrize(
    "name, test",
    [("basis-invariance", basis_invariance_test), ("ancilla-consistency", ancilla_consistency_test)],
)
def test_cold_calibration_is_frozen_and_builds_each_probe_output_once(name, test, monkeypatch):
    threshold, spread, distinct_probes = FROZEN_NULLS[name]
    monkeypatch.setattr(detectors, "_calibration_cache", {})
    applied = []
    apply = QuantumChannel.apply

    def counting_apply(self, rho):
        applied.append(1)
        return apply(self, rho)

    calibrate = detectors._calibrated_null
    during_calibration = []

    def counting_calibration(key, statistic_fn, **kwargs):
        before = len(applied)
        result = calibrate(key, statistic_fn, **kwargs)
        during_calibration.append(len(applied) - before)
        return result

    monkeypatch.setattr(QuantumChannel, "apply", counting_apply)
    monkeypatch.setattr(detectors, "_calibrated_null", counting_calibration)
    verdict = test(NonlinearBloch(2.0), shots=4000, rng=RngStream(3, 1))
    assert (verdict.threshold.hex(), verdict.std_error.hex()) == (threshold, spread)
    # one channel application per distinct probe, not one per probe per replication
    assert during_calibration == [distinct_probes]
