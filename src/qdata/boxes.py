"""Behavioral models of the black boxes under test.

A box consumes quantum states and emits quantum states.  Three families are
implemented:

* ``LinearBox`` wraps an ordinary CPTP channel, the honest quantum case.
* ``NonlinearBloch`` deterministically warps the polar angle of a qubit's
  Bloch vector, a minimal model of density-matrix-nonlinear dynamics.
* ``CollapseNonlinear`` first performs a projective collapse in a fixed
  basis and only then applies the Bloch warp, which restores linearity at
  the density-matrix level branch by branch.

Every box exposes its behavior through one exact branch enumeration on the
first factor of a joint input (a plain input has a one-dimensional
reference), so detectors can compute infinite-shot oracles as well as draw
finite samples.
Correlated box pairs for the two-bit random-access game and for bipartite
no-signalling analysis live here as well.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from .linalg import InvalidInputError, InvalidShapeError, as_integer, as_unitary, kron
from .channels import QuantumChannel
from .states import (
    DensityMatrix,
    Ensemble,
    Povm,
    PureState,
    as_state,
    bloch_angles,
    bloch_ket,
    born_distributions,
    ket,
    sample_inverse_cdf,
)

__all__ = [
    "warp_polar_angle",
    "BoxModel",
    "LinearBox",
    "NonlinearBloch",
    "CollapseNonlinear",
    "ComposedBox",
    "compose_boxes",
    "BoxPair",
    "QracOracle",
    "QracQuantum",
    "NsqChannelPair",
    "measure_prepare_strategy",
]

# Branches below this weight are dropped from enumerations.
BRANCH_CUTOFF = 1e-12


def warp_polar_angle(theta: float, kappa: float) -> float:
    """Monotone warp of the Bloch polar angle with exponent kappa.

    Fixed points at 0, pi/2 and pi for every kappa > 0; kappa = 1 is the
    identity.  The two hemispheres use different exponents (kappa above,
    (kappa + 2)/3 below): a warp acting with the same exponent on both
    hemispheres commutes with the antipodal map, so every balanced ensemble
    of orthogonal pure states would still average to I/2 and no
    equal-density ensemble pair could ever be split apart.
    """
    if kappa <= 0:
        raise InvalidInputError("warp exponent must be positive")
    th = min(max(float(theta), 0.0), math.pi)
    if th == 0.0 or th == math.pi:
        return th
    expo = kappa if th <= math.pi / 2 else (kappa + 2.0) / 3.0
    scaled = expo * math.log(math.tan(th / 2.0))
    if scaled > 700.0:
        return math.pi
    return 2.0 * math.atan(math.exp(scaled))


class BoxModel(ABC):
    """A black box mapping input quantum states to output quantum states.

    Subclasses describe their action as one exact branch enumeration: a list
    of (weight, pure state) outcomes when the box acts on the first factor
    of a joint pure state.  A plain input is a joint input with a
    one-dimensional reference, so sampling, exact ensemble outputs and
    entangled-probe behavior all derive from that single description.
    """

    dim_in: int
    dim_out: int

    @abstractmethod
    def joint_branches(self, joint: PureState, ref_dim: int) -> list:
        """Branch enumeration when the box acts on the first factor of a joint pure state."""

    def branch_distribution(self, psi: PureState) -> list:
        """Exact list of (probability, PureState) outcomes for a pure input."""
        psi = as_state(psi)
        if psi.dim != self.dim_in:
            raise InvalidShapeError(
                f"box expects dimension {self.dim_in}, got {psi.dim}"
            )
        return self.joint_branches(psi, 1)

    @staticmethod
    def _mixture(weighted_branches, dim: int) -> DensityMatrix:
        """Sum of weight x p x projector over (weight, branch list) pairs."""
        out = np.zeros((dim, dim), dtype=complex)
        for weight, branches in weighted_branches:
            for p, phi in branches:
                out += weight * p * phi.projector()
        return DensityMatrix(out)

    def ensemble_output_density(self, ensemble) -> DensityMatrix:
        """Exact infinite-shot output state for an input ensemble.

        Accepts an Ensemble, a PureState, or a DensityMatrix (converted via
        its eigen-ensemble).  Note that for nonlinear boxes the result
        genuinely depends on the decomposition, not just on the density.
        """
        if isinstance(ensemble, DensityMatrix):
            ensemble = ensemble.eigen_ensemble()
        elif not isinstance(ensemble, Ensemble):
            ensemble = Ensemble((1.0,), (as_state(ensemble),))
        pairs = zip(ensemble.weights, map(self.branch_distribution, ensemble.states))
        return self._mixture(pairs, self.dim_out)

    def probe_outputs(self, basis) -> np.ndarray:
        """The exact outputs for each state of a probe basis, stacked (m^2, n, n)."""
        return np.array([self.ensemble_output_density(probe).matrix for probe in basis.states])

    def probe_with_reference(self, joint: PureState) -> DensityMatrix:
        """Exact joint output when the box acts on one half of an entangled probe.

        The box side is always the first tensor factor.  The reference-side
        marginal is preserved for every box kind.
        """
        joint = as_state(joint)
        if joint.dim % self.dim_in != 0:
            raise InvalidShapeError("joint state does not factor over the box input")
        ref_dim = joint.dim // self.dim_in
        return self._mixture([(1.0, self.joint_branches(joint, ref_dim))], self.dim_out * ref_dim)


class LinearBox(BoxModel):
    """Honest quantum box: the CPTP channel ``channel``.

    Its probe outputs are computed (and validated) once per probe basis and
    kept, read-only, for the life of the box.
    """

    def __init__(self, channel: QuantumChannel):
        self.channel = channel
        self.dim_in = channel.dim_in
        self.dim_out = channel.dim_out
        # keyed by the ProbeBasis, which hashes by the identities of its states
        self._probe_outputs: dict = {}

    def probe_outputs(self, basis):
        outputs = self._probe_outputs.get(basis)
        if outputs is None:
            outputs = super().probe_outputs(basis)
            outputs.flags.writeable = False
            # threads racing on a shared box all keep the first stack
            outputs = self._probe_outputs.setdefault(basis, outputs)
        return outputs

    def joint_branches(self, joint, ref_dim):
        joint = as_state(joint)
        branches = []
        for k in self.channel.kraus_operators():
            vec = kron(k, np.eye(ref_dim)) @ joint.vector
            p = float(np.real(np.vdot(vec, vec)))
            if p > BRANCH_CUTOFF:
                branches.append((p, PureState(vec / math.sqrt(p))))
        return branches

    def ensemble_output_density(self, ensemble):
        # linearity: only the ensemble's density matters
        if isinstance(ensemble, DensityMatrix):
            rho = ensemble
        elif isinstance(ensemble, Ensemble):
            rho = ensemble.density()
        else:
            rho = as_state(ensemble).density()
        return self.channel.apply(rho)


class _BlochWarp(BoxModel):
    """The collapse and polar-angle warp shared by the two nonlinear qubit boxes.

    Subclasses set ``basis`` before this constructor runs.  A state of any
    other dimension than 2 passes through the warp unchanged, so beyond
    qubits kappa must be 1 with no rotations.
    """

    def __init__(self, kappa: float, pre_unitary=None, post_unitary=None):
        if kappa <= 0:
            raise InvalidInputError("warp exponent must be positive")
        dim = self.basis[0].dim
        if dim != 2 and (kappa != 1.0 or pre_unitary is not None or post_unitary is not None):
            raise InvalidInputError("the Bloch warp is only defined for qubit bases")
        self.kappa = float(kappa)
        identity = np.eye(dim, dtype=complex)
        self.pre_unitary = identity if pre_unitary is None else as_unitary(pre_unitary, dim)
        self.post_unitary = identity if post_unitary is None else as_unitary(post_unitary, dim)
        self.dim_in = dim
        self.dim_out = dim

    def _warp_pure(self, psi: PureState) -> PureState:
        # psi and both unitaries are checked, so only the result is wrapped
        if psi.dim != 2:
            return psi
        theta, phi = bloch_angles(self.pre_unitary @ psi.vector)
        return PureState(self.post_unitary @ bloch_ket(warp_polar_angle(theta, self.kappa), phi))

    def joint_branches(self, joint, ref_dim):
        # branch k projects the box side onto basis state k; the reference keeps
        # its normalized conditional state, so the far marginal is untouched
        table = as_state(joint).vector.reshape(-1, ref_dim)
        branches = []
        for b in self.basis:
            ref_vec = b.vector.conj() @ table
            p = float(np.real(np.vdot(ref_vec, ref_vec)))
            if p > BRANCH_CUTOFF:
                out = self._warp_pure(b).tensor(PureState(ref_vec / math.sqrt(p)))
                branches.append((p, out))
        return branches


class NonlinearBloch(_BlochWarp):
    """Deterministic nonlinear qubit box: pre-rotate, warp the polar angle, post-rotate.

    On a plain input, kappa = 1 with no rotations is the identity.  On one
    half of an entangled probe the box first collapses its side in the
    computational basis (destroying the entanglement) and then warps each
    branch, so the far marginal is never disturbed; that collapse happens
    at every kappa, so there the box is never the identity.
    """

    basis = (ket(0), ket(1))

    def joint_branches(self, joint, ref_dim):
        # a plain input is warped whole, without a collapse
        if ref_dim == 1:
            return [(1.0, self._warp_pure(as_state(joint)))]
        return super().joint_branches(joint, ref_dim)


class CollapseNonlinear(_BlochWarp):
    """Collapse in a fixed basis, then act nonlinearly on the collapsed state.

    The projective collapse happens for every input, so the box is linear at
    the density-matrix level even though each branch is warped.  For
    non-qubit bases the warp is unavailable and kappa must be 1 with no
    rotations (a pure dephasing box).
    """

    def __init__(self, basis: Sequence[PureState], kappa: float = 1.0,
                 pre_unitary=None, post_unitary=None):
        states = tuple(as_state(b) for b in basis)
        if not states:
            raise InvalidInputError("collapse basis is empty")
        dim = states[0].dim
        gram = np.array([[a.overlap(b) for b in states] for a in states])
        if len(states) != dim or np.max(np.abs(gram - np.eye(dim))) > 1e-10:
            raise InvalidInputError("collapse basis must be complete and orthonormal")
        self.basis = states
        super().__init__(kappa, pre_unitary, post_unitary)


class ComposedBox(BoxModel):
    """Sample-wise concatenation of boxes (first box applied first).

    Branches flow through: the composite's branch enumeration is the chained
    enumeration, preserving correlations between the stages.
    """

    def __init__(self, boxes: Sequence[BoxModel]):
        boxes = tuple(boxes)
        if len(boxes) < 2:
            raise InvalidInputError("composition needs at least two boxes")
        for a, b in zip(boxes, boxes[1:]):
            if a.dim_out != b.dim_in:
                raise InvalidShapeError("composed boxes have mismatched dimensions")
        self.boxes = boxes
        self.dim_in = boxes[0].dim_in
        self.dim_out = boxes[-1].dim_out

    def joint_branches(self, joint, ref_dim):
        current = [(1.0, as_state(joint))]
        for box in self.boxes:
            nxt = []
            for p, phi in current:
                for q, chi in box.joint_branches(phi, ref_dim):
                    w = p * q
                    if w > BRANCH_CUTOFF:
                        nxt.append((w, chi))
            current = nxt
        return current


def compose_boxes(b1: BoxModel, b2: BoxModel) -> BoxModel:
    """Concatenate two boxes into one (b1 first).

    Two linear boxes compose at the channel level; any nonlinear member
    forces the sample-wise composite.  Either path checks the dimensions.
    """
    if isinstance(b1, LinearBox) and isinstance(b2, LinearBox):
        return LinearBox(b2.channel.compose(b1.channel))
    parts = []
    for b in (b1, b2):
        parts.extend(b.boxes if isinstance(b, ComposedBox) else [b])
    return ComposedBox(parts)


class BoxPair(ABC):
    """Two correlated boxes played against each other in the random-access game.

    Hidden state (the oracle's stored qubits) lives only within one round;
    rounds are independent, so a pair plays a whole block of them at once
    from one generator.
    """

    @abstractmethod
    def play_rounds(
        self, psi0: np.ndarray, psi1: np.ndarray, x: np.ndarray, gen: np.random.Generator
    ) -> tuple:
        """Play one round of the two-bit random-access game per row.

        psi0 and psi1 hold the rounds' target qubits, shape (n, 2); x holds
        the choice bits, shape (n,).  Returns (a, b, rho_out): Alice's and
        Bob's two-bit labels, shape (n,), and Bob's output densities, shape
        (n, 2, 2).  A round is kept when a == b.
        """


class QracOracle(BoxPair):
    """Idealized post-quantum pair: kept rounds hand Bob the exact target qubit.

    Alice's bits are uniform; Bob's bits are uniform and independent, so a
    quarter of rounds survive the a = b post-selection.  Dropped rounds
    output the maximally mixed state.
    """

    def play_rounds(self, psi0, psi1, x, gen):
        psi0, psi1, x = _check_round_inputs(psi0, psi1, x)
        a = gen.integers(4, size=x.size)
        b = gen.integers(4, size=x.size)
        target = np.where(x[:, None] == 0, psi0, psi1)
        rho = target[:, :, None] * target.conj()[:, None, :]
        rho[a != b] = np.eye(2) / 2
        return a, b, rho


class QracQuantum(BoxPair):
    """Quantum strategy pair: Alice measures both qubits, Bob re-prepares.

    alice_povm has exactly four effects on the two-qubit space (outcome a);
    bob_channels maps each two-bit label b to the channel Bob applies to his
    choice state |x>.
    """

    def __init__(self, alice_povm: Povm, bob_channels: Sequence[QuantumChannel]):
        if alice_povm.dim != 4 or len(alice_povm) != 4:
            raise InvalidInputError("Alice needs a four-effect POVM on two qubits")
        channels = tuple(bob_channels)
        if len(channels) != 4 or any(
            (c.dim_in, c.dim_out) != (2, 2) for c in channels
        ):
            raise InvalidInputError("Bob needs four qubit channels")
        self.alice_povm = alice_povm
        self.bob_channels = channels
        # Bob's output for label b and choice bit x, indexed [b, x]
        self._bob_outputs = np.array(
            [[c.apply(ket(x)).matrix for x in range(2)] for c in channels]
        )

    def play_rounds(self, psi0, psi1, x, gen):
        psi0, psi1, x = _check_round_inputs(psi0, psi1, x)
        joint = (psi0[:, :, None] * psi1[:, None, :]).reshape(-1, 4)
        p = born_distributions(joint, self.alice_povm)
        a = sample_inverse_cdf(p, gen.random(x.size))
        b = gen.integers(4, size=x.size)
        return a, b, self._bob_outputs[b, x]


class NsqChannelPair(BoxPair):
    """Correlated pair expressed as one bipartite channel on Alice x Bob."""

    def __init__(self, lambda_ab: QuantumChannel, local_dims: tuple):
        da, db = (as_integer(d, "local_dims") for d in local_dims)
        if lambda_ab.dim_in != da * db or lambda_ab.dim_out != da * db:
            raise InvalidShapeError("channel dimensions do not factor over the local dims")
        self.lambda_ab = lambda_ab
        self.local_dims = (da, db)

    def play_rounds(self, psi0, psi1, x, gen):
        raise InvalidInputError("a bipartite-channel pair does not play the random-access game")


def _check_round_inputs(psi0, psi1, x):
    """Validate a block of rounds: qubit targets of unit norm, choice bits 0 or 1."""
    psi0 = np.asarray(psi0, dtype=complex)
    psi1 = np.asarray(psi1, dtype=complex)
    x = np.asarray(x)
    if psi0.ndim != 2 or psi0.shape[1] != 2 or psi1.shape != psi0.shape:
        raise InvalidInputError("the random-access game encodes qubits")
    if x.shape != psi0.shape[:1]:
        raise InvalidShapeError("one choice bit per round is required")
    if not np.all((x == 0) | (x == 1)):
        raise InvalidInputError("choice bit must be 0 or 1")
    for psi in (psi0, psi1):
        if not np.all(np.abs(np.linalg.norm(psi, axis=1) - 1.0) <= 1e-12):
            raise InvalidInputError("state vector is not normalized")
    return psi0, psi1, x.astype(np.intp)


def measure_prepare_strategy() -> QracQuantum:
    """Product measurement in the computational basis, then re-preparation.

    Alice reads a = 2*a0 + a1 from measuring each qubit separately; Bob,
    holding label b = (b0, b1), prepares |b_x> for choice bit x.  Averaged
    over Haar-random inputs the kept-round fidelity is 2/3.
    """
    effects = [kron(ket(i).projector(), ket(j).projector()) for i in range(2) for j in range(2)]
    povm = Povm(tuple(effects))
    channels = []
    for b in range(4):
        bits = (b >> 1, b & 1)
        kraus = [np.outer(ket(bits[x]).vector, ket(x).vector.conj()) for x in range(2)]
        channels.append(QuantumChannel.from_kraus(kraus, 2, 2))
    return QracQuantum(povm, channels)
