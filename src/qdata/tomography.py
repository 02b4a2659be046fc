"""Finite-shot state and process tomography.

State estimates use linear inversion over a tomographically complete
measurement set (the Pauli bases by default), projected to the nearest
density matrix.  Process estimates are assembled from per-probe
state reconstructions by recovering the channel's action on the operator
units |i><j|.  A reconstructed Choi matrix is never projected onto the CPTP
set: deviations from it are exactly the signals the detectors feed on, so
the distance is recorded in ``cptp_residual`` instead.

The linear maps are compiled once and reused.  The design matrix of a set
of effects and its rank are cached by content (dimension plus effect
bytes), so a measurement set or probe basis rebuilt from equal arrays hits
the same entry; ``canonical_probe_basis`` is memoized per (m, delta) and
``pauli_measurement_set`` per qubit count; each ProbeBasis solves its
unit-recovery coefficients once; the Hermitian operator basis is cached
per dimension in ``linalg``.  The arithmetic on the cached objects is the
one the uncached code performed, so reconstructions are unchanged bit for
bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    InvalidInputError,
    InvalidShapeError,
    hermitian_basis,
    kron,
    nearest_density_matrix,
    partial_trace,
    rotation_y,
)
from .rng import RngStream
from .states import (
    DensityMatrix,
    Povm,
    PureState,
    as_density,
    born_probabilities,
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


_pauli_sets: dict = {}


def pauli_measurement_set(n_qubits: int) -> tuple:
    """Projective measurements in every product of single-qubit Pauli bases.

    One qubit gives 3 settings of 2 outcomes; two qubits give 9 settings of
    4 outcomes.  Each set is built once and shared: its effect arrays are
    read-only.
    """
    povms = _pauli_sets.get(n_qubits)
    if povms is None:
        if n_qubits not in (1, 2):
            raise InvalidInputError("only one- and two-qubit sets are provided")
        povms = _pauli_sets.setdefault(n_qubits, _build_pauli_measurement_set(n_qubits))
    return povms


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


_compiled_designs: dict = {}


def _compiled_design(effects: list, dim: int) -> tuple:
    """Read-only ``_design_matrix(effects, dim)`` and its rank, built once per content."""
    key = (dim, b"".join(e.tobytes() for e in effects))
    compiled = _compiled_designs.get(key)
    if compiled is None:
        design = _design_matrix(effects, dim)
        design.flags.writeable = False
        compiled = _compiled_designs.setdefault(
            key, (design, int(np.linalg.matrix_rank(design)))
        )
    return compiled


@dataclass(frozen=True)
class TomographyRun:
    """Budget and measurement set for one tomography experiment.

    shots_per_setting is the number of repetitions of each measurement
    setting; the measurement set must span the operator space (design rank
    dim^2, checked here).
    """

    shots_per_setting: int
    measurement_set: tuple
    _design: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.shots_per_setting < 1:
            raise InvalidInputError("shots_per_setting must be at least 1")
        povms = tuple(self.measurement_set)
        if not povms or len({p.dim for p in povms}) != 1:
            raise InvalidShapeError("measurement set must be nonempty with one dimension")
        dim = povms[0].dim
        design, rank = _compiled_design([e for p in povms for e in p.effects], dim)
        if rank != dim * dim:
            raise InvalidInputError("measurement set is not tomographically complete")
        object.__setattr__(self, "measurement_set", povms)
        object.__setattr__(self, "_design", design)

    @property
    def dim(self) -> int:
        return self.measurement_set[0].dim


def _linear_inversion(frequencies: np.ndarray, design: np.ndarray, dim: int) -> np.ndarray:
    coeffs, *_ = np.linalg.lstsq(design, frequencies, rcond=None)
    basis = hermitian_basis(dim)
    estimate = sum(c * b for c, b in zip(coeffs, basis))
    return (estimate + estimate.conj().T) / 2


def _raw_estimate(source, run: TomographyRun, rng: RngStream) -> np.ndarray:
    """The linear-inversion estimate, unprojected (possibly non-positive).

    Setting i samples the source density's exact Born distribution with
    ``rng.child(i)``.
    """
    rho = as_density(source)
    freqs = []
    for i, povm in enumerate(run.measurement_set):
        probs = born_probabilities(rho, povm)
        counts = rng.child(i).generator.multinomial(run.shots_per_setting, probs)
        freqs.extend(counts / run.shots_per_setting)
    return _linear_inversion(np.array(freqs), run._design, run.dim)


def state_tomography(source, run: TomographyRun, rng: RngStream) -> DensityMatrix:
    """Reconstruct a state from finite measurement statistics.

    ``source`` is the measured state (anything ``as_density`` accepts).
    The linear-inversion estimate is projected to the nearest density
    matrix.
    """
    return DensityMatrix(nearest_density_matrix(_raw_estimate(source, run, rng)))


@dataclass(frozen=True)
class ProbeBasis:
    """m^2 pure probe states whose projectors span the operator space."""

    states: tuple
    _design: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        states = tuple(self.states)
        if not states:
            raise InvalidInputError("probe basis is empty")
        dim = states[0].dim
        if len(states) != dim * dim or any(s.dim != dim for s in states):
            raise InvalidShapeError("a probe basis needs exactly dim^2 states of one dimension")
        design, rank = _compiled_design([s.projector() for s in states], dim)
        if rank != dim * dim:
            raise InvalidInputError("probe projectors are linearly dependent")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "_design", design)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @functools.cached_property
    def _unit_coefficients(self) -> np.ndarray:
        """Coefficients expressing each operator unit |i><j| over the probe projectors.

        Column k of the solved system is vec of probe projector k; the result
        has shape (m, m, m^2) indexed by (i, j, probe).  For the canonical
        delta = 0 qubit basis, row (0, 1) reproduces the standard combination
        E(|0><1|) = E(P_+) + i E(P_+i) - (1+i)/2 (E(P_0) + E(P_1)).
        """
        m = self.dim
        columns = np.column_stack([s.projector().reshape(-1) for s in self.states])
        # column i * m + j of the identity is vec |i><j|
        coeffs = np.linalg.solve(columns, np.eye(m * m, dtype=complex))
        return coeffs.T.reshape(m, m, m * m)


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
    outputs = [
        _raw_estimate(box.ensemble_output_density(probe), run, rng.child(k))
        for k, probe in enumerate(basis.states)
    ]
    m, n = box.dim_in, box.dim_out
    coeffs = basis._unit_coefficients
    choi4 = np.zeros((m, n, m, n), dtype=complex)
    for i in range(m):
        for j in range(m):
            unit_image = sum(c * r for c, r in zip(coeffs[i, j], outputs))
            choi4[i, :, j, :] = unit_image
    return ReconstructedProcess(choi4.reshape(m * n, m * n), m, n)


def process_tomography_ancilla(box, run: TomographyRun, rng: RngStream) -> ReconstructedProcess:
    """Single-input scheme: entangle with a reference, tomograph the joint output.

    The maximally entangled probe is pushed through the box side, the joint
    two-qubit output is reconstructed raw, and the Choi estimate is the
    rescaled reordering of that estimate.
    """
    if box.dim_in != 2 or box.dim_out != 2:
        raise InvalidInputError("the ancilla scheme is implemented for qubit boxes")
    if run.dim != 4:
        raise InvalidInputError("ancilla tomography needs a two-qubit measurement set")
    joint_out = box.probe_with_reference(max_entangled(2))
    estimate = _raw_estimate(joint_out, run, rng)
    choi = 2.0 * estimate.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    return ReconstructedProcess(choi, 2, 2)
