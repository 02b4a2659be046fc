"""Finite-shot state and process tomography.

A run is a whole number of shots per setting on the one- or two-qubit
Pauli measurement set (``TomographyRun(shots, n_qubits)``).  State
estimates use linear inversion over that set, projected to the nearest
density matrix.  Process estimates are assembled from per-probe state
reconstructions by recovering the channel's action on the operator units
|i><j|.  A reconstructed Choi matrix is never projected onto the CPTP set:
deviations from it are exactly the signals the detectors feed on, so the
distance is recorded in ``cptp_residual`` instead, derived when first read.

One routine, ``_raw_estimates``, samples and inverts a whole stack of
sources: every probe output of a process tomography at once, or the
sources of state tomographies, one per job (``_state_tomographies``, of
which ``state_tomography`` is the one-source case).  It takes two steps:
the Born rows of the stack (``_born_rows``), one trace against the
stacked Pauli effects, checked per setting row before any draw, then the
draws and the inversion given those rows (``_drawn_estimates``).  A stack
draws from one seed and one id per source: setting i of source k draws what
``RngStream(rng.seed, ids[k]).child(i)`` would, from that child's Philox
key alone; one per-thread Philox is re-keyed for each row (``qdata.rng``),
so no stream or generator is built.  A process tomography's samples go
onto its stream's tally, and each state tomography's onto its own
stream's.  The Pauli sets' design matrices have
orthogonal columns, so the least-squares estimate is a fixed linear map of
the frequencies: one reconstruction operator per qubit count, and every
stack, of one qubit or two, is inverted in one fixed-order reduction
against it, bit for bit the per-source inversion.
Process tomography takes its probe outputs from the box
(``probe_outputs``, ``probe_with_reference``), which keeps nothing; this
module alone keeps their Born rows (``_probe_rows``), read-only, in one
weak map from each box to its rows per (probe, Pauli set).  So a
tomography computes nothing exact a second time on a box, and an entry
dies with its box: the identity box of a null calibration builds and
checks each probe's rows once, not once per replication, and pays only
for its draws.  A probe can key them because a state's vector is
read-only (``PureState``); a ProbeBasis keys them by its vectors' bytes,
so a caller's fresh basis of the same vectors adds no entry.

Each linear map is built once, read-only, by the object that owns it: one
Pauli table per qubit count (the set, its stacked effects and its
reconstruction operator), a ProbeBasis's unit-recovery coefficients at
construction, the canonical probe bases per (m, delta) and the Hermitian
operator basis per dimension (in ``linalg``).
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    InvalidInputError,
    InvalidShapeError,
    _project_to_density,
    as_integer,
    hermitian_basis,
    kron,
    rotation_y,
)
from .rng import RngStream, _child_keys, _keyed_multinomials, mix64
from .states import (
    DensityMatrix,
    Povm,
    PureState,
    as_density,
    as_state,
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


_pauli_tables: dict = {}


def _pauli_table(n_qubits: int) -> tuple:
    """``(povms, inverse, effects)`` of the n-qubit Pauli set, built once per n.

    The arrays are read-only: the reconstruction operator, shape
    (rows, d, d), whose row r is ``sum_k pinv(design)[k, r] * basis[k]``
    over ``hermitian_basis(d)``, made Hermitian, so a frequency row f
    estimates ``sum_r f[r] * inverse[r]``; and the effects as one
    (settings, outcomes, d, d) array.
    """
    table = _pauli_tables.get(n_qubits)
    if table is None:
        if n_qubits not in (1, 2):
            raise InvalidInputError("only one- and two-qubit sets are provided")
        dim = 2**n_qubits
        povms = _build_pauli_measurement_set(n_qubits)
        effects = np.array([p.effects for p in povms])
        basis = hermitian_basis(dim)
        rows = effects.reshape(-1, dim, dim)
        design = np.array([[np.trace(e @ b).real for b in basis] for e in rows])
        inverse = np.add.reduce(np.linalg.pinv(design).T[:, :, None, None] * basis, axis=1)
        inverse = (inverse + inverse.conj().swapaxes(-1, -2)) / 2
        for array in (inverse, effects):
            array.flags.writeable = False
        table = _pauli_tables.setdefault(n_qubits, (povms, inverse, effects))
    return table


def pauli_measurement_set(n_qubits: int) -> tuple:
    """Projective measurements in every product of single-qubit Pauli bases.

    One qubit gives 3 settings of 2 outcomes; two qubits give 9 settings of
    4 outcomes.  Each set is built once and shared: its effect arrays are
    read-only.
    """
    return _pauli_table(n_qubits)[0]


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
        for name, least in (("shots_per_setting", 1), ("n_qubits", None)):
            object.__setattr__(self, name, as_integer(getattr(self, name), name, least))
        if self.n_qubits not in (1, 2):
            raise InvalidInputError("a run measures the one- or two-qubit Pauli set")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


def _born_rows(rhos: np.ndarray, run: TomographyRun) -> np.ndarray:
    """The Born rows of a stack of source densities on the run's Pauli set, checked.

    ``rhos`` has shape (sources, d, d); the rows, shape (sources, settings,
    outcomes), come from one stacked trace against the Pauli effects, each
    setting row checked as a distribution.  A source of another dimension
    than the run's raises before any row is computed.
    """
    if rhos.shape[-1] != run.dim:
        raise InvalidShapeError("the source dimension does not match the run's Pauli set")
    effects = _pauli_table(run.n_qubits)[2]
    return checked_distributions(np.trace(effects @ rhos[:, None, None], axis1=-2, axis2=-1).real)


_kept_rows: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _probe_rows(box, probe, run: TomographyRun, outputs) -> np.ndarray:
    """The Born rows of ``outputs(probe)``, the box's exact outputs on ``probe`` (a
    ProbeBasis or an entangled PureState), on the run's Pauli set, read-only.

    They are computed the first time the box meets the probe and the set and
    then kept in ``_kept_rows`` for as long as the box lives, keyed by the
    box's identity and the probe, whose state vectors cannot change: a
    ProbeBasis by their bytes, so fresh bases of the same vectors share one
    entry.  Racing threads keep the first value; rows that fail
    :func:`_born_rows` are not kept.
    """
    key = (probe, run.n_qubits)
    rows = _kept_rows.get(box, {}).get(key)
    if rows is None:
        rows = _born_rows(outputs(probe), run)
        rows.flags.writeable = False
        rows = _kept_rows.setdefault(box, {}).setdefault(key, rows)
    return rows


def _drawn_estimates(
    probs: np.ndarray, run: TomographyRun, rng: RngStream, ids, tallies=None
) -> np.ndarray:
    """Linear-inversion estimates of the sources whose Born rows are ``probs``, unprojected.

    ``ids`` holds one stream id per source.  Source k samples setting i as
    ``RngStream(rng.seed, ids[k]).child(i)`` would, from that child's
    Philox key, without building a stream.  The stack's sources x settings
    x shots go onto ``rng``'s sample tally or, given ``tallies`` (one
    stream per source), each source's settings x shots onto its own
    stream's.  The estimates are one reduction of the frequencies against
    the Pauli table's reconstruction operator, Hermitian by its
    construction.
    """
    if len(ids) != probs.shape[0] or (tallies is not None and len(tallies) != len(ids)):
        raise InvalidShapeError("a stack needs exactly one stream id per source")
    shots = run.shots_per_setting
    sources, settings, outcomes = probs.shape
    keys = _child_keys(rng.seed, ids, settings)
    counts = _keyed_multinomials(keys, shots, probs.reshape(-1, outcomes))
    if tallies is None:
        rng.tally(sources * settings * shots)
    else:
        for stream in tallies:
            stream.tally(settings * shots)
    frequencies = counts.reshape(sources, settings * outcomes) / shots
    return np.add.reduce(frequencies[:, :, None, None] * _pauli_table(run.n_qubits)[1], axis=1)


def _raw_estimates(
    rhos: np.ndarray, run: TomographyRun, rng: RngStream, ids, tallies=None
) -> np.ndarray:
    """Linear-inversion estimates of a stack of source densities, unprojected: the
    :func:`_drawn_estimates` of their :func:`_born_rows`, every row checked before any draw."""
    return _drawn_estimates(_born_rows(rhos, run), run, rng, ids, tallies)


def _raw_estimate(source, run: TomographyRun, rng: RngStream) -> np.ndarray:
    """The linear-inversion estimate of one source, unprojected (possibly non-positive)."""
    return _raw_estimates(as_density(source).matrix[None], run, rng, (rng.stream_id,))[0]


def _state_tomographies(rhos: np.ndarray, run: TomographyRun, streams) -> np.ndarray:
    """:func:`state_tomography` of each source in the stack ``rhos`` on its own stream.

    Source k draws from ``streams[k]`` and takes its samples onto that
    stream's tally; the streams share one seed.  All sources are sampled
    and inverted in one :func:`_raw_estimates` call and projected as one
    stack, each bit for bit as alone.  No stream, or streams of more than
    one seed, raise :class:`InvalidInputError` before any draw.
    """
    if not streams or any(stream.seed != streams[0].seed for stream in streams):
        raise InvalidInputError("a stack of tomographies needs one or more streams of one seed")
    ids = [stream.stream_id for stream in streams]
    estimates = _raw_estimates(rhos, run, streams[0], ids, streams)
    # each estimate is Hermitian, as every row of the reconstruction operator
    # is, and has trace 1 up to rounding, so it is projected unchecked; the
    # projection clips the eigenvalues to >= 0 and makes them sum to 1
    return _project_to_density(estimates)


def state_tomography(source, run: TomographyRun, rng: RngStream) -> DensityMatrix:
    """Reconstruct a state from finite measurement statistics.

    ``source`` is the measured state (anything ``as_density`` accepts).
    The linear-inversion estimate is projected to the nearest density
    matrix.
    """
    return DensityMatrix._of(_state_tomographies(as_density(source).matrix[None], run, [rng])[0])


@dataclass(frozen=True)
class ProbeBasis:
    """m^2 pure probe states whose projectors span the operator space.

    The states may be given as raw vectors, each coerced by ``as_state``.

    ``_unit_coefficients[i, j]`` expresses the operator unit |i><j| over the
    probe projectors.  For the canonical delta = 0 qubit basis, row (0, 1) is
    E(|0><1|) = E(P_+) + i E(P_+i) - (1+i)/2 (E(P_0) + E(P_1)).

    Bases compare and hash by ``_content``, the bytes of their read-only
    state vectors, taken once at construction: two bases of the same vectors
    are equal, so they key the same rows the tomography keeps.
    """

    states: tuple = field(compare=False)
    _unit_coefficients: np.ndarray = field(init=False, repr=False, compare=False)
    _content: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        states = tuple(map(as_state, self.states))
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
        object.__setattr__(self, "_content", b"".join(s.vector.tobytes() for s in states))

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
    return ProbeBasis(qubit if m == 2 else [a.tensor(b) for a in qubit for b in qubit])


@dataclass(frozen=True, eq=False)
class ReconstructedProcess:
    """Raw Choi estimate plus how far it sits from the CPTP set.

    cptp_residual adds the total negativity of the Choi spectrum and the
    largest trace-preservation deviation; it is recorded as measured, never
    zeroed by projection.  It is derived on first read and kept.
    """

    choi: np.ndarray
    dim_in: int
    dim_out: int

    @functools.cached_property
    def cptp_residual(self) -> float:
        eigvals = np.linalg.eigvalsh((self.choi + self.choi.conj().T) / 2)
        negativity = float(-eigvals[eigvals < 0].sum())
        marginal = np.einsum("iaja->ij", self.choi.reshape((self.dim_in, self.dim_out) * 2))
        tp_deviation = float(np.max(np.abs(marginal - np.eye(self.dim_in))))
        return negativity + tp_deviation

    def normalized_choi(self) -> np.ndarray:
        return self.choi / self.dim_in


def process_tomography_direct(
    box, basis: ProbeBasis, run: TomographyRun, rng: RngStream
) -> ReconstructedProcess:
    """Probe the box with the basis states and invert for the Choi matrix.

    Each probe's output is reconstructed by raw linear inversion (the
    projected estimator would erase exactly the deviations of interest),
    then the action on operator units is solved from the probe projectors.
    The Born rows of the probe outputs are kept (:func:`_probe_rows`), so a
    call computes them only the first time the box meets ``basis`` and the
    run's Pauli set; a mismatched basis or run raises before anything is kept.
    """
    if basis.dim != box.dim_in:
        raise InvalidShapeError("probe basis does not match the box input dimension")
    probs = _probe_rows(box, basis, run, box.probe_outputs)
    ids = [mix64(rng.stream_id, k) for k in range(len(basis.states))]
    outputs = _drawn_estimates(probs, run, rng, ids)
    m, n = box.dim_in, box.dim_out
    # units[i, j] is the image of |i><j|, which fills Choi block (i, :, j, :)
    units = np.add.reduce(basis._unit_coefficients[..., None, None] * outputs, axis=2)
    return ReconstructedProcess(units.transpose(0, 2, 1, 3).reshape(m * n, m * n), m, n)


_BELL = max_entangled(2)  # the ancilla scheme's probe, built once


def process_tomography_ancilla(box, run: TomographyRun, rng: RngStream) -> ReconstructedProcess:
    """Single-input scheme: entangle with a reference, tomograph the joint output.

    The maximally entangled probe is pushed through the box side, the joint
    two-qubit output is reconstructed raw, and the Choi estimate is the
    rescaled reordering of that estimate.  The Born rows of the joint output
    are kept, as in :func:`process_tomography_direct`.
    """
    if box.dim_in != 2 or box.dim_out != 2:
        raise InvalidInputError("the ancilla scheme is implemented for qubit boxes")
    probs = _probe_rows(box, _BELL, run, lambda joint: box.probe_with_reference(joint).matrix[None])
    estimate = _drawn_estimates(probs, run, rng, (rng.stream_id,))[0]
    choi = 2.0 * estimate.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    return ReconstructedProcess(choi, 2, 2)
