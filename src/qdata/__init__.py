"""Simulation laboratory for black-box tests of quantum data processors.

The package models "boxes" that transform quantum states — honest CPTP
channels alongside deliberately post-quantum families (Bloch-sphere
nonlinearities, projective-collapse hybrids, signalling bipartite pairs) —
and a suite of statistical detectors that probe a box and rule whether its
behaviour is consistent with quantum mechanics.  A scenario harness sweeps
parameter grids, runs detector suites reproducibly, and writes JSON
reports.

Layers, lowest first: :mod:`~qdata.rng` and :mod:`~qdata.linalg` (exact
small-dimension linear algebra), :mod:`~qdata.states` and
:mod:`~qdata.channels` (states, POVMs, ensembles, CPTP maps),
:mod:`~qdata.boxes` (box models and box pairs), :mod:`~qdata.tomography`
(state and process reconstruction), :mod:`~qdata.detectors` (verdict
layer), :mod:`~qdata.scenario` / :mod:`~qdata.harness` / :mod:`~qdata.cli`
(the runner).
"""

from ._version import __version__
from .boxes import (
    BoxModel,
    BoxPair,
    CollapseNonlinear,
    ComposedBox,
    LinearBox,
    NonlinearBloch,
    NsqChannelPair,
    QracOracle,
    QracQuantum,
    compose_boxes,
    concatenate_tests,
    measure_prepare_strategy,
    warp_polar_angle,
)
from .channels import (
    InvalidChannelError,
    QuantumChannel,
    channel_distance,
    choi_from_kraus,
    kraus_from_choi,
    random_channel,
)
from .detectors import (
    CALIBRATION_SEED,
    HelstromSetup,
    NsqResult,
    QracResult,
    TestVerdict,
    ancilla_consistency_test,
    basis_invariance_test,
    canonical_ensemble_pair,
    decide,
    ensemble_signalling_test,
    helstrom_bound,
    helstrom_test,
    nsq_random_survey,
    nsq_signalling_measure,
    qrac_fidelity_estimate,
    qrac_verdict,
)
from .harness import (
    SCHEMA_VERSION,
    load_report,
    run_scenario,
    summarize_report,
    write_report,
)
from .linalg import (
    InvalidInputError,
    InvalidShapeError,
    eig_hermitian,
    haar_random_state,
    haar_random_unitary,
    hermitian_basis,
    kron,
    nearest_density_matrix,
    partial_trace,
    rotation_y,
    trace_distance,
    trace_norm,
    uhlmann_fidelity,
)
from .rng import RngStream, mix64, splitmix64
from .scenario import Scenario, ScenarioError, parse_scenario, parse_scenario_dict
from .states import (
    DensityMatrix,
    Ensemble,
    Povm,
    PureState,
    born_probabilities,
    ket,
    max_entangled,
    minus_i_state,
    minus_state,
    plus_i_state,
    plus_state,
    sample_outcome,
    singlet,
)
from .tomography import (
    ProbeBasis,
    ReconstructedProcess,
    TomographyRun,
    canonical_probe_basis,
    cptp_parameter_count,
    pauli_measurement_set,
    process_tomography_ancilla,
    process_tomography_direct,
    state_tomography,
)

__all__ = [
    "__version__",
    # rng
    "RngStream",
    "mix64",
    "splitmix64",
    # linalg
    "InvalidInputError",
    "InvalidShapeError",
    "eig_hermitian",
    "haar_random_state",
    "haar_random_unitary",
    "hermitian_basis",
    "kron",
    "nearest_density_matrix",
    "partial_trace",
    "rotation_y",
    "trace_distance",
    "trace_norm",
    "uhlmann_fidelity",
    # states
    "DensityMatrix",
    "Ensemble",
    "Povm",
    "PureState",
    "born_probabilities",
    "ket",
    "max_entangled",
    "minus_i_state",
    "minus_state",
    "plus_i_state",
    "plus_state",
    "sample_outcome",
    "singlet",
    # channels
    "InvalidChannelError",
    "QuantumChannel",
    "channel_distance",
    "choi_from_kraus",
    "kraus_from_choi",
    "random_channel",
    # boxes
    "BoxModel",
    "BoxPair",
    "CollapseNonlinear",
    "ComposedBox",
    "LinearBox",
    "NonlinearBloch",
    "NsqChannelPair",
    "QracOracle",
    "QracQuantum",
    "compose_boxes",
    "concatenate_tests",
    "measure_prepare_strategy",
    "warp_polar_angle",
    # tomography
    "ProbeBasis",
    "ReconstructedProcess",
    "TomographyRun",
    "canonical_probe_basis",
    "cptp_parameter_count",
    "pauli_measurement_set",
    "process_tomography_ancilla",
    "process_tomography_direct",
    "state_tomography",
    # detectors
    "CALIBRATION_SEED",
    "HelstromSetup",
    "NsqResult",
    "QracResult",
    "TestVerdict",
    "ancilla_consistency_test",
    "basis_invariance_test",
    "canonical_ensemble_pair",
    "decide",
    "ensemble_signalling_test",
    "helstrom_bound",
    "helstrom_test",
    "nsq_random_survey",
    "nsq_signalling_measure",
    "qrac_fidelity_estimate",
    "qrac_verdict",
    # scenario + harness
    "Scenario",
    "ScenarioError",
    "parse_scenario",
    "parse_scenario_dict",
    "SCHEMA_VERSION",
    "load_report",
    "run_scenario",
    "summarize_report",
    "write_report",
]
