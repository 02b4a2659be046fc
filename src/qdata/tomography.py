"""Finite-shot state and process tomography.

A run is a whole number of shots per setting on the one- or two-qubit
Pauli measurement set (``TomographyRun(shots, n_qubits)``).  State
estimates use linear inversion over that set, projected to the nearest
density matrix.  Process estimates are assembled from per-probe state
reconstructions by recovering the channel's action on the operator units
|i><j|.  A reconstructed Choi matrix is never projected onto the CPTP set:
deviations from it are exactly the signals the detectors feed on, so the
distance is recorded in ``cptp_residual`` instead.

One routine, ``_raw_estimates``, samples and inverts a whole stack of
sources: every probe output of a process tomography at once, or the one
source of a state tomography.  Its Born probabilities come from one trace
against the stacked Pauli effects, checked per setting row before any
draw.  Setting i of source k draws what ``streams[k].child(i)`` would, but
from that child's Philox key alone: one per-thread Philox is re-keyed for
each row (``qdata.rng``), so no child stream or generator is built.  Each source is inverted with
``lstsq`` and combines the stacked Hermitian basis in one reduction.
Process tomography takes its probe outputs from the box
(``probe_outputs``); a linear box computes them once per probe basis, so
the identity box of a null calibration builds each probe output once, not
once per replication.

Each linear map is built once, read-only, by the object that owns it: the
Pauli set, its design matrix, stacked effects and stacked Hermitian basis
per qubit count, a ProbeBasis's unit-recovery coefficients at
construction, the canonical probe bases per (m, delta) and the Hermitian
operator basis per dimension (in ``linalg``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    InvalidInputError,
    InvalidShapeError,
    as_integer,
    hermitian_basis,
    kron,
    nearest_density_matrix,
    partial_trace,
    rotation_y,
)
from .rng import RngStream, _child_keys, _keyed_multinomials
from .states import (
    DensityMatrix,
    Povm,
    PureState,
    as_density,
    checked_distributions,
    ket,
    max_entangled,
    minus_i_state,
    minus_state,
    plus_i_state,
    plus_state,
)

__all__ = [
    "TomographyRun",
    "ProbeBasis",
    "ReconstructedProcess",
    "pauli_measurement_set",
    "state_tomography",
    "canonical_probe_basis",
    "process_tomography_direct",
    "process_tomography_ancilla",
]


_pauli_designs: dict = {}
# dimension -> (effects, basis): the Pauli effects as one (settings, outcomes,
# d, d) array and hermitian_basis(d) as one (d^2, d, d) array, read-only
_pauli_stacks: dict = {}


def _pauli_design(n_qubits: int) -> tuple:
    """The n-qubit Pauli set and its read-only design matrix, built once per n.

    The same build fills ``_pauli_stacks`` for the set's dimension.
    """
    compiled = _pauli_designs.get(n_qubits)
    if compiled is None:
        if n_qubits not in (1, 2):
            raise InvalidInputError("only one- and two-qubit sets are provided")
        dim = 2**n_qubits
        povms = _build_pauli_measurement_set(n_qubits)
        design = _design_matrix([e for p in povms for e in p.effects], dim)
        effects = np.array([p.effects for p in povms])
        basis = np.array(hermitian_basis(dim))
        for table in (design, effects, basis):
            table.flags.writeable = False
        _pauli_stacks.setdefault(dim, (effects, basis))
        compiled = _pauli_designs.setdefault(n_qubits, (povms, design))
    return compiled


def pauli_measurement_set(n_qubits: int) -> tuple:
    """Projective measurements in every product of single-qubit Pauli bases.

    One qubit gives 3 settings of 2 outcomes; two qubits give 9 settings of
    4 outcomes.  Each set is built once and shared: its effect arrays are
    read-only.
    """
    return _pauli_design(n_qubits)[0]


def _build_pauli_measurement_set(n_qubits: int) -> tuple:
    single = []
    for pair in (
        (plus_state(), minus_state()),
        (plus_i_state(), minus_i_state()),
        (ket(0), ket(1)),
    ):
        single.append(tuple(s.projector() for s in pair))
    if n_qubits == 1:
        povms = tuple(Povm(effects) for effects in single)
    else:
        povms = tuple(
            Povm(tuple(kron(e, f) for e in first for f in second))
            for first in single
            for second in single
        )
    for povm in povms:
        for effect in povm.effects:
            effect.flags.writeable = False
    return povms


def _design_matrix(effects: list, dim: int) -> np.ndarray:
    basis = hermitian_basis(dim)
    return np.array(
        [[np.real(np.trace(e @ b)) for b in basis] for e in effects]
    )


@dataclass(frozen=True)
class TomographyRun:
    """Budget of one tomography experiment on the n-qubit Pauli set.

    shots_per_setting is the number of repetitions of each measurement
    setting; n_qubits (1 or 2) picks the one- or two-qubit Pauli set.  Both
    are stored as int; a bool or a float is rejected.
    """

    shots_per_setting: int
    n_qubits: int = 1

    def __post_init__(self) -> None:
        for name in ("shots_per_setting", "n_qubits"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        if self.shots_per_setting < 1:
            raise InvalidInputError("shots_per_setting must be at least 1")
        if self.n_qubits not in (1, 2):
            raise InvalidInputError("a run measures the one- or two-qubit Pauli set")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


def _linear_inversion(frequencies: np.ndarray, design: np.ndarray, dim: int) -> np.ndarray:
    coeffs, *_ = np.linalg.lstsq(design, frequencies, rcond=None)
    estimate = np.add.reduce(coeffs[:, None, None] * _pauli_stacks[dim][1], axis=0)
    return (estimate + estimate.conj().T) / 2


def _raw_estimates(rhos: np.ndarray, run: TomographyRun, streams) -> np.ndarray:
    """Linear-inversion estimates of a stack of source densities, unprojected.

    ``rhos`` has shape (sources, d, d).  Every Born probability comes from
    one stacked trace, each setting row checked as a distribution before
    any draw; source k then samples setting i as ``streams[k].child(i)``
    would, from that child's Philox key, without building the child, and
    adds its settings x shots to that stream's sample tally.
    """
    if rhos.shape[-1] != run.dim:
        raise InvalidShapeError("the source dimension does not match the run's Pauli set")
    _, design = _pauli_design(run.n_qubits)
    effects, _ = _pauli_stacks[run.dim]
    probs = checked_distributions(
        np.trace(effects @ rhos[:, None, None], axis1=-2, axis2=-1).real
    )
    shots = run.shots_per_setting
    sources, settings, outcomes = probs.shape
    keys = _child_keys(streams, settings)
    counts = _keyed_multinomials(keys, shots, probs.reshape(-1, outcomes))
    for stream in streams:
        stream.tally(settings * shots)
    frequencies = counts.reshape(sources, settings * outcomes) / shots
    estimates = np.empty(rhos.shape, dtype=complex)
    for k in range(sources):
        estimates[k] = _linear_inversion(frequencies[k], design, run.dim)
    return estimates


def _raw_estimate(source, run: TomographyRun, rng: RngStream) -> np.ndarray:
    """The linear-inversion estimate of one source, unprojected (possibly non-positive)."""
    return _raw_estimates(as_density(source).matrix[None], run, (rng,))[0]


def state_tomography(source, run: TomographyRun, rng: RngStream) -> DensityMatrix:
    """Reconstruct a state from finite measurement statistics.

    ``source`` is the measured state (anything ``as_density`` accepts).
    The linear-inversion estimate is projected to the nearest density
    matrix.
    """
    return DensityMatrix(nearest_density_matrix(_raw_estimate(source, run, rng)))


@dataclass(frozen=True)
class ProbeBasis:
    """m^2 pure probe states whose projectors span the operator space.

    ``_unit_coefficients[i, j]`` expresses the operator unit |i><j| over the
    probe projectors.  For the canonical delta = 0 qubit basis, row (0, 1) is
    E(|0><1|) = E(P_+) + i E(P_+i) - (1+i)/2 (E(P_0) + E(P_1)).
    """

    states: tuple
    _unit_coefficients: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        states = tuple(self.states)
        if not states:
            raise InvalidInputError("probe basis is empty")
        m = states[0].dim
        if len(states) != m * m or any(s.dim != m for s in states):
            raise InvalidShapeError("a probe basis needs exactly dim^2 states of one dimension")
        # column k is vec of projector k; column i * m + j of the identity is vec |i><j|
        columns = np.column_stack([s.projector().reshape(-1) for s in states])
        if np.linalg.matrix_rank(columns) != m * m:
            raise InvalidInputError("probe projectors are linearly dependent")
        coeffs = np.linalg.solve(columns, np.eye(m * m, dtype=complex)).T.reshape(m, m, m * m)
        coeffs.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "_unit_coefficients", coeffs)

    @property
    def dim(self) -> int:
        return self.states[0].dim


_canonical_bases: dict = {}


def canonical_probe_basis(m: int, delta: float = 0.0) -> ProbeBasis:
    """The rotated canonical probe set.

    The qubit set {|0>, |1>, |+>, |+i>} is rotated elementwise by
    U_delta = exp(-i delta sigma_y / 2); the two-qubit set is the tensor
    product of two rotated qubit sets.  Each (m, delta) is built once and
    the same ProbeBasis is returned afterwards.
    """
    if m not in (2, 4):
        raise InvalidInputError("canonical probe bases exist for m = 2 and m = 4")
    delta = float(delta)
    key = (m, delta.hex())  # hex keeps -0.0 apart from 0.0
    basis = _canonical_bases.get(key)
    if basis is None:
        basis = _canonical_bases.setdefault(key, _build_canonical_probe_basis(m, delta))
    return basis


def _build_canonical_probe_basis(m: int, delta: float) -> ProbeBasis:
    u = rotation_y(delta)
    qubit = [
        PureState(u @ s.vector)
        for s in (ket(0), ket(1), plus_state(), plus_i_state())
    ]
    if m == 2:
        return ProbeBasis(tuple(qubit))
    states = tuple(a.tensor(b) for a in qubit for b in qubit)
    return ProbeBasis(states)


@dataclass(frozen=True)
class ReconstructedProcess:
    """Raw Choi estimate plus how far it sits from the CPTP set.

    cptp_residual adds the total negativity of the Choi spectrum and the
    largest trace-preservation deviation; it is recorded as measured, never
    zeroed by projection.
    """

    choi: np.ndarray
    dim_in: int
    dim_out: int
    cptp_residual: float = field(init=False)

    def __post_init__(self) -> None:
        eigvals = np.linalg.eigvalsh((self.choi + self.choi.conj().T) / 2)
        negativity = float(-eigvals[eigvals < 0].sum())
        marginal = partial_trace(self.choi, [self.dim_in, self.dim_out], keep={0})
        tp_deviation = float(np.max(np.abs(marginal - np.eye(self.dim_in))))
        object.__setattr__(self, "cptp_residual", negativity + tp_deviation)

    def normalized_choi(self) -> np.ndarray:
        return self.choi / self.dim_in


def process_tomography_direct(
    box, basis: ProbeBasis, run: TomographyRun, rng: RngStream
) -> ReconstructedProcess:
    """Probe the box with the basis states and invert for the Choi matrix.

    Each probe's output is reconstructed by raw linear inversion (the
    projected estimator would erase exactly the deviations of interest),
    then the action on operator units is solved from the probe projectors.
    """
    if basis.dim != box.dim_in:
        raise InvalidShapeError("probe basis does not match the box input dimension")
    outputs = _raw_estimates(
        box.probe_outputs(basis), run, [rng.child(k) for k in range(len(basis.states))]
    )
    m, n = box.dim_in, box.dim_out
    # units[i, j] is the image of |i><j|, which fills Choi block (i, :, j, :)
    units = np.add.reduce(basis._unit_coefficients[..., None, None] * outputs, axis=2)
    return ReconstructedProcess(units.transpose(0, 2, 1, 3).reshape(m * n, m * n), m, n)


def process_tomography_ancilla(box, run: TomographyRun, rng: RngStream) -> ReconstructedProcess:
    """Single-input scheme: entangle with a reference, tomograph the joint output.

    The maximally entangled probe is pushed through the box side, the joint
    two-qubit output is reconstructed raw, and the Choi estimate is the
    rescaled reordering of that estimate.
    """
    if box.dim_in != 2 or box.dim_out != 2:
        raise InvalidInputError("the ancilla scheme is implemented for qubit boxes")
    joint_out = box.probe_with_reference(max_entangled(2))
    estimate = _raw_estimate(joint_out, run, rng)
    choi = 2.0 * estimate.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    return ReconstructedProcess(choi, 2, 2)
