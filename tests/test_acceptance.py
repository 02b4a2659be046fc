"""Acceptance suite: one test per release criterion, frozen oracles throughout.

Each criterion is a single test function so `pytest -v` prints one
pass/fail line per criterion.  Expected values come from closed forms or
from independent brute-force oracles computed outside this package; they
are frozen here as literals.
"""

import json
import math
from importlib import resources

import numpy as np

from qdata import (
    CollapseNonlinear,
    DensityMatrix,
    Ensemble,
    HelstromSetup,
    LinearBox,
    NonlinearBloch,
    PureState,
    QracOracle,
    QuantumChannel,
    RngStream,
    TomographyRun,
    ancilla_consistency_test,
    basis_invariance_test,
    canonical_ensemble_pair,
    canonical_probe_basis,
    ensemble_signalling_test,
    helstrom_test,
    ket,
    max_entangled,
    measure_prepare_strategy,
    nearest_density_matrix,
    nsq_random_survey,
    nsq_signalling_measure,
    parse_scenario_dict,
    process_tomography_ancilla,
    process_tomography_direct,
    qrac_fidelity_estimate,
    random_channel,
    rotation_y,
    run_scenario,
    state_tomography,
    trace_distance,
    uhlmann_fidelity,
)

RY45 = rotation_y(math.pi / 4)


def tilted_setup():
    return HelstromSetup(
        (0.5, 0.5),
        (
            PureState.from_bloch(math.pi / 2 - math.pi / 8, 0.0),
            PureState.from_bloch(math.pi / 2 + math.pi / 8, 0.0),
        ),
    )


def load_demo(filename):
    text = resources.files("qdata").joinpath("scenarios", filename).read_text("utf-8")
    return parse_scenario_dict(json.loads(text))


def canonical_report(report):
    doc = dict(report)
    doc["provenance"] = {k: v for k, v in report["provenance"].items() if k != "timestamp"}
    return json.dumps(doc, sort_keys=True, indent=2)


def test_criterion_01_discrimination_bound_formula():
    # overlap cos(pi/8) at equal priors; frozen eigendecomposition oracle
    assert abs(tilted_setup().bound - 0.6913417161825449) < 1e-9
    orthogonal = HelstromSetup((0.3, 0.7), (ket(0), ket(1)))
    assert abs(orthogonal.bound - 1.0) < 1e-12


def test_criterion_02_identity_box_saturates_bound():
    v = helstrom_test(
        LinearBox(QuantumChannel.identity(2)),
        tilted_setup(),
        trials=100_000,
        rng=RngStream(42, 1),
    )
    assert abs(v.statistic - v.threshold) <= 3 * v.std_error
    assert v.extras["exact_success"] == v.threshold
    assert v.verdict != "post-quantum"


def test_criterion_03_warped_box_beats_bound():
    v = helstrom_test(
        NonlinearBloch(6.0), tilted_setup(), trials=100_000, rng=RngStream(42, 2)
    )
    assert v.statistic >= 0.95
    assert v.threshold < 0.6913417161825450
    assert v.verdict == "post-quantum"


def test_criterion_04_ensemble_pair_separates_box_families():
    e1, e2 = canonical_ensemble_pair()
    linear_channels = [
        QuantumChannel.identity(2),
        QuantumChannel.amplitude_damping(0.3),
        QuantumChannel.dephasing(0.7),
        QuantumChannel.depolarizing(0.5),
        QuantumChannel.from_unitary(rotation_y(0.3)),
    ]
    draws = RngStream(88, 0)
    linear_channels += [random_channel(2, 2, draws.child(k)) for k in range(5)]
    for ch in linear_channels:
        v = ensemble_signalling_test(LinearBox(ch), e1, e2)
        assert v.statistic < 1e-10
        assert v.verdict == "quantum-consistent"

    warped = ensemble_signalling_test(NonlinearBloch(4.0, pre_unitary=RY45), e1, e2)
    assert warped.statistic > 0.1
    # brute-force Bloch-sphere oracle gives exactly 7/51 for this box
    assert abs(warped.statistic - 7.0 / 51.0) < 1e-15
    assert warped.verdict == "post-quantum"

    repaired = ensemble_signalling_test(
        CollapseNonlinear((ket(0), ket(1)), kappa=4.0, pre_unitary=RY45), e1, e2
    )
    assert repaired.statistic < 1e-10
    assert repaired.verdict == "quantum-consistent"


def test_criterion_05_process_tomography_converges():
    box = LinearBox(QuantumChannel.depolarizing(0.3))
    truth = np.asarray(QuantumChannel.depolarizing(0.3).choi) / 2.0
    basis = canonical_probe_basis(2, 0.0)
    errors = {}
    for shots, floor in ((10_000, 0.99), (1_000_000, 0.999)):
        run = TomographyRun(shots)
        rec = process_tomography_direct(box, basis, run, RngStream(7, shots))
        est = nearest_density_matrix(rec.normalized_choi())
        errors[shots] = trace_distance(est, truth)
        assert uhlmann_fidelity(DensityMatrix(est), DensityMatrix(truth)) >= floor
    # shot noise scales as N^(-1/2): a factor 100 in N gives 10x, within 2x
    ratio = errors[10_000] / errors[1_000_000]
    assert 5.0 <= ratio <= 20.0


def test_criterion_06_probe_basis_invariance():
    root = RngStream(606, 0)
    for k in range(25):
        box = LinearBox(random_channel(2, 2, root.child(k)))
        v = basis_invariance_test(box, shots=100_000, rng=root.child(1000 + k))
        assert v.verdict != "post-quantum"
    warped = basis_invariance_test(NonlinearBloch(4.0), shots=100_000, rng=root.child(5000))
    assert warped.verdict == "post-quantum"


def test_criterion_07_scheme_equivalence_and_discrepancy():
    root = RngStream(11, 0)
    run1 = TomographyRun(1_000_000)
    run2 = TomographyRun(1_000_000, 2)
    basis = canonical_probe_basis(2, 0.0)
    for k in range(10):
        box = LinearBox(random_channel(2, 2, root.child(k, 0)))
        direct = process_tomography_direct(box, basis, run1, root.child(k, 1))
        anc = process_tomography_ancilla(box, run2, root.child(k, 2))
        a = DensityMatrix(nearest_density_matrix(direct.normalized_choi()))
        b = DensityMatrix(nearest_density_matrix(anc.normalized_choi()))
        assert uhlmann_fidelity(a, b) >= 0.995

    v = ancilla_consistency_test(NonlinearBloch(4.0), shots=1_000_000, rng=RngStream(11, 999))
    assert v.verdict == "post-quantum"
    # branch enumeration: the probe scheme sees the identity (all canonical
    # probes are warp fixed points), the entangled scheme sees the collapse
    direct = process_tomography_direct(
        NonlinearBloch(4.0), basis, run1, RngStream(11, 999).child(1 << 20, 0)
    )
    anc = process_tomography_ancilla(
        NonlinearBloch(4.0), run2, RngStream(11, 999).child(1 << 20, 1)
    )
    bell = max_entangled(2).projector()
    collapsed = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert trace_distance(nearest_density_matrix(direct.normalized_choi()), bell) <= 0.01
    assert trace_distance(nearest_density_matrix(anc.normalized_choi()), collapsed) <= 0.01
    assert abs(v.statistic - 0.5) <= 0.05


def test_criterion_08_random_access_fidelity_ceiling():
    v_oracle = qrac_fidelity_estimate(QracOracle(), 100_000, RngStream(21, 0))
    assert v_oracle.statistic == 1.0
    assert 1.96 * v_oracle.std_error < 1e-12
    keep = v_oracle.extras["kept_fraction"]
    assert abs(keep - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / 100_000)
    assert v_oracle.threshold == 5.0 / 6.0
    assert v_oracle.verdict == "post-quantum"

    v_mp = qrac_fidelity_estimate(measure_prepare_strategy(), 100_000, RngStream(21, 1))
    assert abs(v_mp.statistic - 2.0 / 3.0) <= 0.01
    assert v_mp.threshold == 5.0 / 6.0
    assert v_mp.verdict == "quantum-consistent"


def test_criterion_09_bipartite_signalling_survey():
    generic = nsq_random_survey(500, rng=RngStream(31, 0), env_dim=16)
    assert generic.extras["signalling_fraction"] == 1.0
    assert generic.verdict == "quantum-consistent"

    product = nsq_random_survey(500, rng=RngStream(31, 1), product_channels=True)
    assert product.extras["compatible_fraction"] == 1.0
    assert product.verdict == "post-quantum"

    swap = QuantumChannel.from_unitary(
        np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    )
    assert max(nsq_signalling_measure(swap, (2, 2))) == 1.0


def test_criterion_10_state_tomography_scaling():
    root = RngStream(101, 0)
    medians = {}
    for shots in (1_000, 1_000_000):
        run = TomographyRun(shots)
        errs = []
        for rep in range(15):
            psi = PureState.haar(2, root.child(shots, rep, 0))
            est = state_tomography(psi.density(), run, root.child(shots, rep, 1))
            errs.append(trace_distance(est, psi.density()))
        medians[shots] = float(np.median(errs))
    # N^(-1/2) across three decades is a factor sqrt(1000) ~ 31.6, within 2x
    ratio = medians[1_000] / medians[1_000_000]
    assert 15.8 <= ratio <= 63.2

    mixed = DensityMatrix(np.eye(2, dtype=complex) / 2)
    run = TomographyRun(100_000)
    for rep in range(40):
        est = state_tomography(mixed, run, RngStream(101, 0).child(7, rep))
        assert float(np.linalg.norm(est.bloch_vector())) < 0.02


def test_criterion_11_deterministic_reports():
    scenario = load_demo("gisin.json")
    reports = [run_scenario(scenario, threads=t) for t in (1, 2, 8)]
    rerun = run_scenario(scenario, threads=1)
    reference = canonical_report(reports[0])
    for other in reports[1:] + [rerun]:
        assert canonical_report(other) == reference


def test_criterion_12_composition_order_gap():
    report = run_scenario(load_demo("composition.json"), threads=1)
    result = report["cells"][0]["results"][0]
    assert "error" not in result
    verdict = result["verdict"]
    assert verdict["statistic"] > 0.05
    # frozen branch-enumeration oracle for the staged-vs-composed gap
    assert abs(verdict["statistic"] - 0.22336088993577285) <= 0.05
    assert verdict["verdict"] == "post-quantum"
