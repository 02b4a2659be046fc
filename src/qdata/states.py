"""States, measurements and ensembles.

The wrapper types here validate their physical invariants at construction
(unit norm, unit trace, positivity, completeness) so downstream code can
assume well-formed objects.  Raw vectors and matrices are accepted anywhere
a wrapped object is, via the ``as_*`` coercers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ATOL,
    HERM_ATOL,
    InvalidInputError,
    InvalidShapeError,
    as_operator,
    eig_hermitian,
    haar_random_state,
    is_hermitian,
    kron,
    partial_trace,
)
from .rng import RngStream

__all__ = [
    "PureState",
    "DensityMatrix",
    "Povm",
    "Ensemble",
    "born_probabilities",
    "ket",
    "plus_state",
    "minus_state",
    "plus_i_state",
    "minus_i_state",
    "max_entangled",
]


@dataclass(frozen=True, eq=False)
class PureState:
    """A unit vector (norm checked to 1e-10)."""

    vector: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        if v.size < 1 or v.size > 64:
            raise InvalidShapeError(f"state dimension {v.size} outside [1, 64]")
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise InvalidInputError("state vector is not normalized")
        object.__setattr__(self, "vector", v)

    @property
    def dim(self) -> int:
        return self.vector.size

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.vector, as_state(other).vector))

    def density(self) -> "DensityMatrix":
        return self._density

    @functools.cached_property
    def _density(self) -> "DensityMatrix":
        """The state's density matrix, built and checked once per state (read-only)."""
        density = DensityMatrix(self.projector())
        density.matrix.flags.writeable = False
        return density

    def projector(self) -> np.ndarray:
        return np.outer(self.vector, self.vector.conj())

    def tensor(self, other: "PureState") -> "PureState":
        return PureState(np.kron(self.vector, as_state(other).vector))

    @classmethod
    def haar(cls, dim: int, rng: RngStream) -> "PureState":
        return cls(haar_random_state(dim, rng))

    @classmethod
    def from_bloch(cls, theta: float, phi: float) -> "PureState":
        """Qubit state at polar angle theta, azimuth phi."""
        return cls(bloch_ket(theta, phi))

    def bloch_angles(self) -> tuple[float, float]:
        """Polar and azimuthal angle of a qubit state (global phase dropped)."""
        if self.dim != 2:
            raise InvalidShapeError("Bloch angles are defined for qubits only")
        return bloch_angles(self.vector)


def bloch_ket(theta: float, phi: float) -> np.ndarray:
    """The unit vector of :meth:`PureState.from_bloch`, unwrapped."""
    return np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])


def bloch_angles(vector: np.ndarray) -> tuple[float, float]:
    """:meth:`PureState.bloch_angles` of a raw qubit vector of unit norm."""
    a, b = vector
    theta = 2.0 * np.arctan2(abs(b), abs(a))
    phi = float(np.angle(b) - np.angle(a)) if abs(a) > 1e-15 and abs(b) > 1e-15 else 0.0
    return float(theta), phi


def as_state(s) -> PureState:
    return s if isinstance(s, PureState) else PureState(np.asarray(s, dtype=complex))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix (eigenvalue floor -1e-10)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = as_operator(self.matrix)
        check_densities(m)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def bloch_vector(self) -> np.ndarray:
        if self.dim != 2:
            raise InvalidShapeError("Bloch vector is defined for qubits only")
        m = self.matrix
        return np.real(
            np.array(
                [m[0, 1] + m[1, 0], 1j * (m[0, 1] - m[1, 0]), m[0, 0] - m[1, 1]]
            )
        )

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        return DensityMatrix(kron(self.matrix, as_density(other).matrix))

    def reduce(self, dims, keep) -> "DensityMatrix":
        return DensityMatrix(partial_trace(self.matrix, dims, keep))

    def eigen_ensemble(self) -> "Ensemble":
        """Spectral decomposition as an ensemble (zero-weight branches dropped)."""
        w, v = eig_hermitian(self.matrix)
        pairs = [(float(max(p, 0.0)), PureState(v[:, i])) for i, p in enumerate(w) if p > 1e-12]
        total = sum(p for p, _ in pairs)
        return Ensemble(tuple(p / total for p, _ in pairs), tuple(s for _, s in pairs))


def check_densities(m: np.ndarray) -> None:
    """Raise unless ``m`` (one matrix or a stack of them) is a density matrix.

    The checks of :class:`DensityMatrix`: Hermitian within ``HERM_ATOL``,
    unit trace within ``ATOL`` and no eigenvalue below -1e-10, each run
    once over the whole stack.
    """
    if not np.max(np.abs(m - np.swapaxes(m, -1, -2).conj())) <= HERM_ATOL:
        raise InvalidInputError("density matrix is not Hermitian")
    if np.max(np.abs(np.trace(m, axis1=-2, axis2=-1).real - 1.0)) > ATOL:
        raise InvalidInputError("density matrix trace differs from 1")
    if np.min(np.linalg.eigvalsh(m)) < -1e-10:
        raise InvalidInputError("density matrix has a negative eigenvalue")


def as_density(r) -> DensityMatrix:
    if isinstance(r, DensityMatrix):
        return r
    if isinstance(r, PureState):
        return r.density()
    return DensityMatrix(np.asarray(r, dtype=complex))


@dataclass(frozen=True, eq=False)
class Povm:
    """Measurement effects: each PSD, summing to the identity within 1e-9."""

    effects: tuple

    def __post_init__(self) -> None:
        eff = tuple(as_operator(e) for e in self.effects)
        if not eff:
            raise InvalidShapeError("a POVM needs at least one effect")
        dim = eff[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for e in eff:
            if e.shape[0] != dim:
                raise InvalidShapeError("POVM effects have mixed dimensions")
            if not is_hermitian(e, atol=1e-9):
                raise InvalidInputError("POVM effect is not Hermitian")
            if np.min(np.linalg.eigvalsh(e)) < -1e-10:
                raise InvalidInputError("POVM effect is not PSD")
            total += e
        if np.max(np.abs(total - np.eye(dim))) > 1e-10:
            raise InvalidInputError("POVM effects do not sum to the identity")
        object.__setattr__(self, "effects", eff)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    def __len__(self) -> int:
        return len(self.effects)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Weighted collection of pure states (weights sum to 1 within 1e-12)."""

    weights: tuple
    states: tuple

    def __post_init__(self) -> None:
        w = tuple(float(p) for p in self.weights)
        s = tuple(as_state(x) for x in self.states)
        if len(w) != len(s) or not w:
            raise InvalidShapeError("ensemble weights and states must pair up")
        if any(p < -1e-12 for p in w) or abs(sum(w) - 1.0) > 1e-12:
            raise InvalidInputError("ensemble weights must be a probability vector")
        if len({st.dim for st in s}) != 1:
            raise InvalidShapeError("ensemble states have mixed dimensions")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", s)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def density(self) -> DensityMatrix:
        return self._density

    @functools.cached_property
    def _density(self) -> DensityMatrix:
        """The mixture's density matrix, built and checked once per ensemble (read-only)."""
        density = DensityMatrix(sum(p * s.projector() for p, s in zip(self.weights, self.states)))
        density.matrix.flags.writeable = False
        return density


def born_probabilities(state, povm: Povm) -> np.ndarray:
    """Outcome distribution of a POVM on a state (tiny negatives clipped)."""
    rho = as_density(state).matrix
    return checked_distributions(np.trace(np.array(povm.effects) @ rho, axis1=1, axis2=2).real)


def born_distributions(vectors, povm: Povm) -> np.ndarray:
    """Outcome distributions of a POVM on a stack of pure states, one row each.

    The batched :func:`born_probabilities` for vectors of shape (n, dim).
    """
    v = np.asarray(vectors, dtype=complex)
    return checked_distributions(np.einsum("ni,kij,nj->nk", v.conj(), np.array(povm.effects), v).real)


def checked_distributions(p: np.ndarray) -> np.ndarray:
    """Born probabilities ``p`` with each row (last axis) checked and normalized.

    Every row must be a distribution within 1e-9 (no entry below -1e-9,
    sum within 1e-9 of 1); tiny negatives are then clipped and each row is
    renormalized.  One row or any stack of rows is checked in one pass.
    """
    if np.min(p) < -1e-9 or np.max(np.abs(p.sum(axis=-1) - 1.0)) > 1e-9:
        raise InvalidInputError("Born probabilities are not a distribution")
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


def sample_inverse_cdf(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome index per row of distributions ``p`` at uniform draws ``u`` in [0, 1).

    Row k gives the number of CDF steps at or below u[k], i.e.
    ``searchsorted(cumsum(p[k]), u[k], side="right")``; the CDF is divided
    by its last entry first, so rounding can never push an index past the
    last outcome.  ``Generator.choice`` samples a single row the same way.
    """
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    return np.count_nonzero(cdf <= u[:, None], axis=1)


# -- frequently used fixed objects -------------------------------------------

def ket(index: int, dim: int = 2) -> PureState:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return PureState(v)


def plus_state() -> PureState:
    return PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))


def minus_state() -> PureState:
    return PureState(np.array([1.0, -1.0]) / np.sqrt(2.0))


def plus_i_state() -> PureState:
    return PureState(np.array([1.0, 1j]) / np.sqrt(2.0))


def minus_i_state() -> PureState:
    return PureState(np.array([1.0, -1j]) / np.sqrt(2.0))


def max_entangled(dim: int = 2) -> PureState:
    """sum_i |ii> / sqrt(dim), first factor slow index."""
    v = np.zeros(dim * dim, dtype=complex)
    for i in range(dim):
        v[i * dim + i] = 1.0
    return PureState(v / np.sqrt(dim))
