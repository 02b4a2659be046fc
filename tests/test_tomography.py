"""State and process reconstruction from finite measurement records."""

import math

import numpy as np
import pytest

from qdata import (
    CollapseNonlinear,
    DensityMatrix,
    InvalidInputError,
    InvalidShapeError,
    LinearBox,
    NonlinearBloch,
    ProbeBasis,
    PureState,
    QuantumChannel,
    ReconstructedProcess,
    RngStream,
    TomographyRun,
    canonical_probe_basis,
    ket,
    max_entangled,
    mix64,
    nearest_density_matrix,
    partial_trace,
    pauli_measurement_set,
    process_tomography_ancilla,
    process_tomography_direct,
    random_channel,
    rotation_y,
    state_tomography,
    trace_distance,
    uhlmann_fidelity,
)


def run1(shots):
    return TomographyRun(shots)


def run2(shots):
    return TomographyRun(shots, 2)


def projector_columns(basis):
    """Column k is vec of probe projector k."""
    return np.column_stack([s.projector().reshape(-1) for s in basis.states])


def test_pauli_measurement_set_sizes():
    single = pauli_measurement_set(1)
    double = pauli_measurement_set(2)
    assert len(single) == 3
    assert len(double) == 9
    assert all(len(povm) == 2 for povm in single)
    assert all(len(povm) == 4 for povm in double)
    with pytest.raises(InvalidInputError):
        pauli_measurement_set(3)


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_pauli_measurement_set_is_built_once_and_read_only(n_qubits):
    povms = pauli_measurement_set(n_qubits)
    assert pauli_measurement_set(n_qubits) is povms
    assert isinstance(povms, tuple)
    for povm in povms:
        assert isinstance(povm.effects, tuple)
        for effect in povm.effects:
            with pytest.raises(ValueError):
                effect[0, 0] = 0.0
    assert np.allclose(sum(povms[0].effects), np.eye(2**n_qubits), atol=1e-12)


def test_pauli_set_covers_the_bloch_axes():
    x, y, z = pauli_measurement_set(1)
    assert np.allclose(x.effects[0], np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-12)
    assert np.allclose(y.effects[0], np.array([[0.5, -0.5j], [0.5j, 0.5]]), atol=1e-12)
    assert np.allclose(z.effects[0], ket(0).projector(), atol=1e-12)


def test_run_validation():
    assert TomographyRun(100).dim == 2
    assert TomographyRun(100, 2).dim == 4
    with pytest.raises(InvalidInputError):
        TomographyRun(0)
    for n_qubits in (0, 3):
        with pytest.raises(InvalidInputError):
            TomographyRun(100, n_qubits)


def test_a_run_of_the_wrong_dimension_is_a_shape_error():
    with pytest.raises(InvalidShapeError):
        state_tomography(ket(0).density(), run2(100), RngStream(40, 8))
    with pytest.raises(InvalidShapeError):
        state_tomography(max_entangled(2).density(), run1(100), RngStream(40, 8))
    with pytest.raises(InvalidShapeError):
        process_tomography_direct(
            LinearBox(QuantumChannel.identity(2)),
            canonical_probe_basis(2, 0.0),
            run2(100),
            RngStream(40, 9),
        )


def test_exact_counts_recover_the_state():
    # exactly dyadic outcome frequencies invert to the state itself
    from qdata import born_probabilities
    from qdata.tomography import _pauli_table

    povms, inverse, _ = _pauli_table(1)
    counts = [np.round(born_probabilities(ket(0), povm) * 1024).astype(int) for povm in povms]
    frequencies = np.concatenate(counts) / 1024
    est = np.add.reduce(frequencies[:, None, None] * inverse, axis=0)
    assert trace_distance(est, ket(0).density()) < 1e-10


def test_state_tomography_converges():
    psi = PureState.from_bloch(1.0, 2.0)
    est = state_tomography(psi.density(), run1(100_000), RngStream(40, 2))
    assert trace_distance(est, psi.density()) < 0.02
    assert isinstance(est, DensityMatrix)


def test_diagnostic_estimator_returns_raw_inversion():
    from qdata.tomography import _raw_estimate

    raw = _raw_estimate(ket(0).density(), run1(2000), RngStream(40, 3))
    assert isinstance(raw, np.ndarray)
    assert abs(np.trace(raw).real - 1) < 1e-9


def test_error_scaling_over_two_decades():
    psi = PureState.from_bloch(0.8, 0.5)
    errs = {}
    for shots in (10_000, 1_000_000):
        est = state_tomography(psi.density(), run1(shots), RngStream(40, 5).child(shots))
        errs[shots] = trace_distance(est, psi.density())
    assert errs[1_000_000] < errs[10_000]
    assert errs[1_000_000] < errs[10_000] / 3  # expect about a factor of ten


def test_probe_basis_validation_and_conditioning():
    basis = canonical_probe_basis(2, 0.0)
    assert len(basis.states) == 4
    assert basis.dim == 2
    assert abs(np.linalg.cond(projector_columns(basis)) - 3.2255049266776936) < 1e-9
    two = canonical_probe_basis(4, 0.0)
    assert len(two.states) == 16
    assert abs(np.linalg.cond(projector_columns(two)) - 10.403882032022077) < 1e-9
    assert np.linalg.cond(projector_columns(two)) < 20
    with pytest.raises(InvalidInputError):
        canonical_probe_basis(3, 0.0)


def test_probe_basis_rotation_preserves_conditioning():
    base = canonical_probe_basis(2, 0.0)
    for delta in (0.3, 0.7, math.pi / 2, math.pi):
        rotated = canonical_probe_basis(2, delta)
        assert abs(
            np.linalg.cond(projector_columns(rotated)) - np.linalg.cond(projector_columns(base))
        ) < 1e-9
        # rotation preserves the Gram matrix of the probe family
        g0 = [abs(a.overlap(b)) for a in base.states for b in base.states]
        g1 = [abs(a.overlap(b)) for a in rotated.states for b in rotated.states]
        assert np.allclose(g0, g1, atol=1e-10)


def test_probe_basis_rejects_rank_deficient_sets():
    with pytest.raises(InvalidInputError):
        ProbeBasis((ket(0), ket(0), ket(0), ket(0)))


def test_direct_process_tomography_identity():
    rec = process_tomography_direct(
        LinearBox(QuantumChannel.identity(2)),
        canonical_probe_basis(2, 0.0),
        run1(100_000),
        RngStream(41, 0),
    )
    est = nearest_density_matrix(rec.normalized_choi())
    target = max_entangled(2).projector()
    assert trace_distance(est, target) < 0.02
    assert rec.dim_in == rec.dim_out == 2


def test_direct_process_tomography_depolarizing():
    ch = QuantumChannel.depolarizing(0.3)
    rec = process_tomography_direct(
        LinearBox(ch), canonical_probe_basis(2, 0.0), run1(100_000), RngStream(41, 1)
    )
    est = DensityMatrix(nearest_density_matrix(rec.normalized_choi()))
    truth = DensityMatrix(np.asarray(ch.choi) / 2)
    assert uhlmann_fidelity(est, truth) > 0.999


def test_direct_tomography_accepts_nonlinear_boxes():
    rec = process_tomography_direct(
        NonlinearBloch(4.0),
        canonical_probe_basis(2, 0.0),
        run1(20_000),
        RngStream(41, 2),
    )
    assert rec.cptp_residual >= 0.0
    assert rec.normalized_choi().shape == (4, 4)


def test_ancilla_process_tomography_identity():
    rec = process_tomography_ancilla(
        LinearBox(QuantumChannel.identity(2)), run2(100_000), RngStream(41, 3)
    )
    est = nearest_density_matrix(rec.normalized_choi())
    assert trace_distance(est, max_entangled(2).projector()) < 0.02


def test_ancilla_matches_direct_for_linear_boxes():
    ch = QuantumChannel.amplitude_damping(0.4)
    direct = process_tomography_direct(
        LinearBox(ch), canonical_probe_basis(2, 0.0), run1(200_000), RngStream(41, 4)
    )
    anc = process_tomography_ancilla(LinearBox(ch), run2(200_000), RngStream(41, 5))
    a = nearest_density_matrix(direct.normalized_choi())
    b = nearest_density_matrix(anc.normalized_choi())
    assert trace_distance(a, b) < 0.02


def test_ancilla_tomography_requires_two_qubit_run():
    with pytest.raises(InvalidShapeError):
        process_tomography_ancilla(
            LinearBox(QuantumChannel.identity(2)), run1(1000), RngStream(41, 6)
        )


def test_direct_tomography_covariant_under_probe_rotation():
    # reconstructing a rotation-covariant channel from rotated probes gives
    # the same channel up to statistical error
    ch = QuantumChannel.depolarizing(0.5)
    recs = []
    for i, delta in enumerate((0.0, 0.4, 0.9, 1.7, 2.8)):
        rec = process_tomography_direct(
            LinearBox(ch),
            canonical_probe_basis(2, delta),
            run1(50_000),
            RngStream(41, 7).child(i),
        )
        recs.append(nearest_density_matrix(rec.normalized_choi()))
    truth = np.asarray(ch.choi) / 2
    for est in recs:
        assert trace_distance(est, truth) < 0.02


# ------------------------------------------------- compiled linear maps


def _fresh_design_matrix(povms):
    """The design matrix of a measurement set over a freshly built Hermitian basis, and that basis."""
    from qdata.linalg import _build_hermitian_basis

    basis = _build_hermitian_basis(povms[0].dim)
    effects = [e for p in povms for e in p.effects]
    return np.array([[np.real(np.trace(e @ b)) for b in basis] for e in effects]), basis


def _reference_inversion(frequencies, povms):
    """Estimates of frequency rows, one source at a time, by an operator built from a fresh design matrix.

    Row r of the operator is sum_k pinv(design)[k, r] * basis[k], made
    Hermitian; an estimate is one fixed-order reduction of its row against it.
    """
    design, basis = _fresh_design_matrix(povms)
    inverse = np.add.reduce(np.linalg.pinv(design).T[:, :, None, None] * basis, axis=1)
    inverse = (inverse + inverse.conj().swapaxes(-1, -2)) / 2
    rows = np.atleast_2d(frequencies)
    return np.array([np.add.reduce(f[None, :, None, None] * inverse, axis=1)[0] for f in rows])


def _reference_state_tomography(source, povms, shots, rng, project):
    """The uncached arithmetic: one draw per setting, then a freshly built inversion."""
    from qdata import born_probabilities

    freqs = []
    for i, povm in enumerate(povms):
        probs = born_probabilities(source, povm)
        counts = rng.child(i).generator.multinomial(shots, probs)
        freqs.extend(counts / shots)
    raw = _reference_inversion(freqs, povms)[0]
    return nearest_density_matrix(raw) if project else raw


def test_cached_operator_equals_pinv_of_a_fresh_design_matrix():
    from qdata.tomography import _pauli_table

    for n_qubits, dim in ((1, 2), (2, 4)):
        povms, inverse, _ = _pauli_table(n_qubits)
        assert povms is pauli_measurement_set(n_qubits)
        design, basis = _fresh_design_matrix(povms)
        # the Pauli sets are tomographically complete by construction
        assert np.linalg.matrix_rank(design) == dim * dim
        assert inverse.shape == (len(design), dim, dim)
        assert np.array_equal(inverse, inverse.conj().swapaxes(-1, -2))
        # the basis is orthonormal, so row r's coefficient on basis[k] is pinv(design)[k, r]
        coefficients = np.einsum("rij,kji->kr", inverse, basis)
        assert np.max(np.abs(coefficients - np.linalg.pinv(design))) <= 1e-15
        with pytest.raises(ValueError, match="read-only"):
            inverse[0, 0, 0] = 5.0
        again = _pauli_table(n_qubits)
        assert again[0] is povms and again[1] is inverse


def test_state_tomography_is_bitwise_equal_to_the_uncached_arithmetic():
    from qdata.tomography import _raw_estimate

    rho = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    bell = max_entangled(2).density()
    for source, n_qubits in ((rho, 1), (bell, 2)):
        run = TomographyRun(3000, n_qubits)
        povms = pauli_measurement_set(n_qubits)
        for trial in range(3):
            got = state_tomography(source, run, RngStream(43, trial)).matrix
            want = _reference_state_tomography(source, povms, 3000, RngStream(43, trial), project=True)
            assert np.array_equal(got, want)
            got = _raw_estimate(source, run, RngStream(43, trial))
            want = _reference_state_tomography(source, povms, 3000, RngStream(43, trial), project=False)
            assert np.array_equal(got, want)


def test_probe_basis_coefficients_match_a_fresh_solve():
    for m, delta in ((2, 0.0), (2, 0.7), (4, 0.3)):
        basis = canonical_probe_basis(m, delta)
        assert canonical_probe_basis(m, delta) is basis
        fresh = np.linalg.solve(projector_columns(basis), np.eye(m * m, dtype=complex))
        assert np.array_equal(basis._unit_coefficients, fresh.T.reshape(m, m, m * m))
        with pytest.raises(ValueError):
            basis._unit_coefficients[0, 0, 0] = 5.0


def test_rank_deficient_sets_raise_after_the_cache_is_filled():
    canonical_probe_basis(2, 0.0)
    with pytest.raises(InvalidInputError):
        ProbeBasis((ket(0), ket(1), ket(0), ket(1)))


def test_cached_operators_are_read_only():
    from qdata import hermitian_basis

    basis = hermitian_basis(2)
    assert hermitian_basis(2) is basis
    with pytest.raises(ValueError):
        basis[1][0, 1] = 5.0
    assert np.allclose(basis[1], [[0, 2**-0.5], [2**-0.5, 0]], atol=1e-15)


def test_the_hermitian_basis_is_one_shared_read_only_array():
    from qdata import hermitian_basis

    for dim in (2, 3, 4):
        basis = hermitian_basis(dim)
        assert type(basis) is np.ndarray and basis.shape == (dim * dim, dim, dim)
        assert not basis.flags.writeable
        assert hermitian_basis(dim) is basis


def test_every_shared_cached_array_is_read_only():
    # a write into any of these would change what every later caller gets
    from qdata import detectors, hermitian_basis, scenario, tomography

    shared = [hermitian_basis(2), hermitian_basis(4), tomography._BELL.vector]
    for n_qubits in (1, 2):
        povms, inverse, effects = tomography._pauli_table(n_qubits)
        shared += [inverse, effects, *(e for p in povms for e in p.effects)]
    for m, delta in ((2, 0.0), (2, 0.7), (4, 0.0)):
        probes = canonical_probe_basis(m, delta)
        shared += [probes._unit_coefficients, *(s.vector for s in probes.states)]
    shared += detectors._kernel_scan_operands(2, 2, 0)
    identity = LinearBox(QuantumChannel.identity(2))
    shared.append(identity.probe_outputs(canonical_probe_basis(2)))
    shared.append(identity.probe_with_reference(tomography._BELL).matrix)
    shared += [s.vector for e in detectors.canonical_ensemble_pair() for s in e.states]
    shared += [s.vector for s in scenario._helstrom_setup((1.0, 2.0), (0.5, 0.5)).states]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0.3


def _reference_cptp_residual(choi, dim_in, dim_out):
    eigvals = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
    negativity = float(-eigvals[eigvals < 0].sum())
    marginal = partial_trace(choi, [dim_in, dim_out], keep={0})
    return negativity + float(np.max(np.abs(marginal - np.eye(dim_in))))


def test_cptp_residual_is_derived_at_construction():
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]  # Choi matrix of the transpose map
    cases = {
        "cptp": QuantumChannel.amplitude_damping(0.3).choi,
        "not trace preserving": 2.0 * QuantumChannel.identity(2).choi,
        "not completely positive": swap,
    }
    residuals = {}
    for name, choi in cases.items():
        rec = ReconstructedProcess(choi, 2, 2)
        assert rec.cptp_residual == _reference_cptp_residual(choi, 2, 2), name
        residuals[name] = rec.cptp_residual
    assert residuals["cptp"] < 1e-12
    assert residuals["not trace preserving"] > 0.5
    assert residuals["not completely positive"] > 0.5
    with pytest.raises(TypeError):
        ReconstructedProcess(swap, 2, 2, cptp_residual=0.0)


# ------------------------------------------------- one stacked estimator


def _reference_raw_estimate(rho, povms, shots, rng):
    """The per-setting arithmetic: one Born trace, check and draw per setting."""
    freqs = []
    for i, povm in enumerate(povms):
        p = np.trace(np.array(povm.effects) @ rho, axis1=1, axis2=2).real
        assert np.min(p) >= -1e-9 and abs(p.sum() - 1.0) <= 1e-9
        p = np.clip(p, 0.0, None)
        counts = rng.child(i).generator.multinomial(shots, p / p.sum())
        freqs.extend(counts / shots)
    return _reference_inversion(freqs, povms)[0]


def _reference_direct_choi(box, basis, run, rng):
    """One reconstruction per probe, then the Choi blocks filled by a double loop."""
    povms = pauli_measurement_set(run.n_qubits)
    outputs = [
        _reference_raw_estimate(
            box.ensemble_output_density(probe).matrix, povms, run.shots_per_setting, rng.child(k)
        )
        for k, probe in enumerate(basis.states)
    ]
    m, n = box.dim_in, box.dim_out
    choi4 = np.zeros((m, n, m, n), dtype=complex)
    for i in range(m):
        for j in range(m):
            unit_image = sum(c * r for c, r in zip(basis._unit_coefficients[i, j], outputs))
            choi4[i, :, j, :] = unit_image
    return choi4.reshape(m * n, m * n)


def _bitwise_equal(a, b):
    return (
        np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


def test_stacked_choi_equals_the_per_probe_loop_bit_for_bit():
    qudit_basis = [PureState(v) for v in np.eye(4)]
    boxes = {
        2: [
            LinearBox(random_channel(2, 2, RngStream(45, 0))),
            NonlinearBloch(1.7, pre_unitary=rotation_y(0.4)),
            LinearBox(random_channel(2, 4, RngStream(45, 1))),
        ],
        4: [
            LinearBox(random_channel(4, 4, RngStream(45, 2))),
            CollapseNonlinear(qudit_basis),  # branch enumeration on two qubits
        ],
    }
    for m, cases in boxes.items():
        for delta in (0.0, 0.7):
            basis = canonical_probe_basis(m, delta)
            for b, box in enumerate(cases):
                run = TomographyRun(700, 1 if box.dim_out == 2 else 2)
                for trial in range(2):
                    rng = RngStream(46, 100 * m + 10 * b + trial)
                    got = process_tomography_direct(box, basis, run, rng).choi
                    want = _reference_direct_choi(box, basis, run, RngStream(46, 100 * m + 10 * b + trial))
                    assert _bitwise_equal(got, want), (m, delta, b, trial)


def test_stacked_estimates_equal_one_source_at_a_time():
    from qdata.tomography import _raw_estimates

    gen = np.random.default_rng(47)
    for n_qubits in (1, 2):
        dim = 2**n_qubits
        run = TomographyRun(900, n_qubits)
        povms = pauli_measurement_set(n_qubits)
        g = gen.normal(size=(6, dim, dim)) + 1j * gen.normal(size=(6, dim, dim))
        rhos = g @ np.swapaxes(g, 1, 2).conj()
        rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None]
        rhos[0] = ket(1, dim).projector()  # exact zeros in the Born rows
        got = _raw_estimates(rhos, run, RngStream(48), range(6))
        for k in range(6):
            want = _reference_raw_estimate(rhos[k], povms, 900, RngStream(48, k))
            assert _bitwise_equal(got[k], want), (n_qubits, k)


def test_one_non_distribution_row_in_a_stack_raises_before_any_draw():
    from qdata.tomography import _raw_estimates

    good = ket(0).projector()
    # trace 1.2 fails every setting's sum; a negative weight fails one z row
    for bad in (np.eye(2) * 0.6, np.diag([1.5, -0.5])):
        for position in range(3):
            stack = np.array([good, good, good], dtype=complex)
            stack[position] = bad
            stream = RngStream(49)
            with pytest.raises(InvalidInputError, match="Born probabilities are not a distribution"):
                _raw_estimates(stack, run1(100), stream, range(3))
            assert stream._generator is None


def test_direct_tomography_builds_no_stream_and_tallies_once(monkeypatch):
    # the probes draw on ids mixed from the caller's stream, not on child streams
    box, basis = LinearBox(QuantumChannel.identity(2)), canonical_probe_basis(2, 0.0)
    rng = RngStream(53, 1)
    built, tallies = [], []
    post_init, tally = RngStream.__post_init__, RngStream.tally
    monkeypatch.setattr(RngStream, "__post_init__", lambda self: built.append(self) or post_init(self))
    monkeypatch.setattr(RngStream, "tally", lambda self, n: tallies.append(n) or tally(self, n))
    process_tomography_direct(box, basis, run1(300), rng)
    assert built == []
    assert tallies == [4 * 3 * 300] and rng.samples == 4 * 3 * 300


def test_run_budgets_must_be_whole_numbers():
    from qdata.tomography import _raw_estimate

    for shots in (100.5, 100.0, True, np.True_, "100", None):
        with pytest.raises(InvalidInputError, match="shots_per_setting must be an integer"):
            TomographyRun(shots)
    for n_qubits in (1.0, True):
        with pytest.raises(InvalidInputError, match="n_qubits must be an integer"):
            TomographyRun(100, n_qubits)
    run = TomographyRun(np.int64(100), np.int32(2))
    assert type(run.shots_per_setting) is int and run.shots_per_setting == 100
    assert type(run.n_qubits) is int and run.dim == 4
    raw = _raw_estimate(ket(0), TomographyRun(np.int64(100)), RngStream(1, 1))
    assert abs(np.trace(raw).real - 1.0) < 1e-12


def _frequencies_of_fresh_children(rhos, shots, rng, ids, n_qubits=1):
    """Per-source Pauli frequencies, each setting drawn by a fresh child generator."""
    povms = pauli_measurement_set(n_qubits)
    rows = []
    for rho, stream_id in zip(rhos, ids):
        row = []
        for i, povm in enumerate(povms):
            p = np.clip(np.trace(np.array(povm.effects) @ rho, axis1=1, axis2=2).real, 0.0, None)
            row.extend(RngStream(rng.seed, stream_id).child(i).generator.multinomial(shots, p / p.sum()))
        rows.append(row)
    return np.array(rows) / shots


def test_stacks_are_inverted_as_the_per_source_loop_bit_for_bit():
    from qdata.tomography import _raw_estimates

    gen = np.random.default_rng(50)
    for n_qubits, sources in ((1, 600), (2, 600)):
        dim = 2**n_qubits
        g = gen.normal(size=(sources, dim, dim)) + 1j * gen.normal(size=(sources, dim, dim))
        rhos = g @ np.swapaxes(g, 1, 2).conj()
        rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None]
        # pure sources: the z rows of |0> and |1> hold exact zeros
        pure = [ket(0).projector(), ket(1).projector(), PureState.from_bloch(0.3, 1.1).projector()]
        if n_qubits == 2:
            pure = [np.kron(a, b) for a in pure for b in pure] + [max_entangled(2).projector()]
        rhos = np.concatenate([rhos, np.array(pure)])
        for shots in (1, 37, 1000):
            rng = RngStream(51, shots)
            ids = [mix64(7, k) for k in range(len(rhos))]
            got = _raw_estimates(rhos, TomographyRun(shots, n_qubits), rng, ids)
            frequencies = _frequencies_of_fresh_children(rhos, shots, rng, ids, n_qubits)
            want = _reference_inversion(frequencies, pauli_measurement_set(n_qubits))
            for k in range(len(rhos)):
                assert _bitwise_equal(got[k], want[k]), (n_qubits, shots, k)


def test_estimates_agree_with_a_least_squares_solve():
    # the operator is the least-squares solution in closed form; random,
    # pure and exact-zero-row sources land within rounding of an SVD solve
    from qdata.tomography import _raw_estimates

    gen = np.random.default_rng(54)
    for n_qubits in (1, 2):
        dim = 2**n_qubits
        povms = pauli_measurement_set(n_qubits)
        g = gen.normal(size=(20, dim, dim)) + 1j * gen.normal(size=(20, dim, dim))
        rhos = g @ np.swapaxes(g, 1, 2).conj()
        rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None]
        pure = [ket(0, dim).projector(), ket(dim - 1, dim).projector(), max_entangled(2).projector()]
        rhos = np.concatenate([rhos, np.array(pure[:2] if n_qubits == 1 else pure)])
        rng = RngStream(55, n_qubits)
        ids = [mix64(9, k) for k in range(len(rhos))]
        got = _raw_estimates(rhos, TomographyRun(500, n_qubits), rng, ids)
        frequencies = _frequencies_of_fresh_children(rhos, 500, rng, ids, n_qubits)
        design, basis = _fresh_design_matrix(povms)
        coeffs, *_ = np.linalg.lstsq(design, frequencies.T, rcond=None)
        want = np.einsum("ks,kij->sij", coeffs, basis)
        want = (want + want.conj().swapaxes(-1, -2)) / 2
        assert np.max(np.abs(got - want)) <= 1e-14, n_qubits


def test_a_stack_without_one_stream_id_per_source_raises_before_any_draw():
    from qdata.tomography import _raw_estimates

    stack = np.array([ket(0).projector()] * 3, dtype=complex)
    for ids in ([5, 6], [5, 6, 7, 8]):
        stream = RngStream(56)
        with pytest.raises(InvalidShapeError, match="one stream id per source"):
            _raw_estimates(stack, run1(100), stream, ids)
        assert stream.samples == 0


def test_cptp_residual_is_read_only_where_a_job_reports_it(monkeypatch):
    from qdata import basis_invariance_test, detectors

    monkeypatch.setattr(detectors, "_calibration_cache", {})
    residual = ReconstructedProcess.__dict__["cptp_residual"]
    calibrating = [False]
    reads = []

    def counting_residual(rec):
        value = residual.__get__(rec, ReconstructedProcess)
        reads.append((calibrating[0], rec.choi, value))
        return value

    calibrate = detectors._calibrated_null

    def flagged_calibration(key, statistic_fn, **kwargs):
        calibrating[0] = True
        try:
            return calibrate(key, statistic_fn, **kwargs)
        finally:
            calibrating[0] = False

    monkeypatch.setattr(ReconstructedProcess, "cptp_residual", property(counting_residual))
    monkeypatch.setattr(detectors, "_calibrated_null", flagged_calibration)
    verdict = basis_invariance_test(NonlinearBloch(2.0), shots=300, rng=RngStream(52, 1))
    assert [during for during, _, _ in reads] == [False] * 3
    # the verdict keeps its extras as plain JSON values, so the residuals are a list
    residuals = verdict.extras["cptp_residuals"]
    assert residuals == [value for _, _, value in reads]
    assert residuals == [_reference_cptp_residual(choi, 2, 2) for _, choi, _ in reads]


def test_reconstructions_compare_by_identity_and_hash():
    rec = ReconstructedProcess(QuantumChannel.identity(2).choi, 2, 2)
    twin = ReconstructedProcess(QuantumChannel.identity(2).choi, 2, 2)
    assert rec == rec and rec != twin
    assert hash(rec) == hash(rec) and len({rec, twin, rec}) == 2
