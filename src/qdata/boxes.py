"""Behavioral models of the black boxes under test.

A box consumes quantum states and emits quantum states.  Three families are
implemented, and a fourth class chains them:

* ``LinearBox`` wraps an ordinary CPTP channel, the honest quantum case.
* ``NonlinearBloch`` deterministically warps the polar angle of a qubit's
  Bloch vector, a minimal model of density-matrix-nonlinear dynamics.
* ``CollapseNonlinear`` first performs a projective collapse in a fixed
  basis and only then applies the Bloch warp, which restores linearity at
  the density-matrix level branch by branch.
* ``ComposedBox`` applies boxes one after another, sample by sample, so the
  branches of one stage feed the next; ``compose_boxes`` builds it whenever
  a nonlinear box takes part.

Every box exposes its behavior through one exact branch enumeration on the
first factor of a joint input (a plain input has a one-dimensional
reference), so detectors can compute infinite-shot oracles as well as draw
finite samples; a stock class does that branch math only in its row
enumeration (``_ROWS``), of which its ``joint_branches`` is the stack of one.
Correlated box pairs for the two-bit random-access game and for bipartite
no-signalling analysis live here as well.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from .linalg import InvalidInputError, InvalidShapeError, as_integer, as_unitary, kron
from .channels import QuantumChannel, _check_chois, _link_products
from .states import (
    DensityMatrix,
    Ensemble,
    Povm,
    PureState,
    _EnsembleRows,
    _check_norms,
    _mixtures,
    as_state,
    bloch_ket,
    born_distributions,
    check_densities,
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
    "output_densities",
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
    equal-density ensemble pair could ever be split apart.  A finite angle
    outside [0, pi] is clamped; a non-finite one is rejected.
    """
    if not kappa > 0:
        raise InvalidInputError("warp exponent must be positive")
    th = float(theta)
    if not math.isfinite(th):
        raise InvalidInputError("polar angle must be finite")
    th = min(max(th, 0.0), math.pi)
    if th == 0.0 or th == math.pi:
        return th
    expo = kappa if th <= math.pi / 2 else (kappa + 2.0) / 3.0
    scaled = expo * math.log(math.tan(th / 2.0))
    if scaled > 700.0:
        return math.pi
    return 2.0 * math.atan(math.exp(scaled))


def _as_ensemble(source) -> Ensemble:
    """An input of :meth:`BoxModel.ensemble_output_density` as the ensemble it feeds the box:
    a DensityMatrix as its eigen-ensemble, a pure state as an ensemble of one."""
    if isinstance(source, DensityMatrix):
        return source.eigen_ensemble()
    if isinstance(source, Ensemble):
        return source
    return Ensemble((1.0,), (as_state(source),))


def _input_density(source) -> DensityMatrix:
    """An input of :meth:`LinearBox.ensemble_output_density` as the density its channel applies."""
    if isinstance(source, DensityMatrix):
        return source
    if isinstance(source, Ensemble):
        return source.density()
    return as_state(source).density()


class BoxModel(ABC):
    """A black box mapping input quantum states to output quantum states.

    Subclasses describe their action as one exact branch enumeration: a list
    of (weight, pure state) outcomes when the box acts on the first factor
    of a joint pure state.  A plain input is a joint input with a
    one-dimensional reference, so sampling, exact ensemble outputs and
    entangled-probe behavior all derive from that single description, each
    a weighted projector sum (:func:`qdata.states._mixtures`).

    A box is immutable once built.  It keeps one memo, created on first use,
    of its exact outputs per probe basis and per entangled probe, and of
    what the tomography derives from them (:meth:`_kept`); the memo relies
    on that immutability and dies with the box.
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

    def ensemble_output_density(self, ensemble) -> DensityMatrix:
        """Exact infinite-shot output state for an input ensemble.

        Accepts an Ensemble, a PureState, or a DensityMatrix (converted via
        its eigen-ensemble).  Note that for nonlinear boxes the result
        genuinely depends on the decomposition, not just on the density.
        """
        ensemble = _as_ensemble(ensemble)
        pairs = zip(ensemble.weights, map(self.branch_distribution, ensemble.states))
        terms = [(weight * p, phi) for weight, branches in pairs for p, phi in branches]
        return _branch_sum(terms, self.dim_out)

    def _kept(self, key, compute, *args):
        """The value the box keeps under ``key``: ``compute(*args)`` the first time, an
        array of it made read-only.

        ``key`` hashes by the identities of the states it names (a
        ProbeBasis, a PureState, or a tuple holding one).  Threads racing on
        one box all keep the first value.
        """
        memo = self.__dict__.setdefault("_memo", {})
        value = memo.get(key)
        if value is None:
            value = compute(*args)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            value = memo.setdefault(key, value)
        return value

    def probe_outputs(self, basis) -> np.ndarray:
        """The exact outputs for each state of a probe basis, stacked (m^2, n, n), kept
        read-only per basis."""
        return self._kept(basis, self._probe_stack, basis)

    def _probe_stack(self, basis) -> np.ndarray:
        return output_densities([self], basis.states)[0]

    def probe_with_reference(self, joint: PureState) -> DensityMatrix:
        """Exact joint output when the box acts on one half of an entangled probe,
        kept read-only per probe.

        The box side is always the first tensor factor.  The reference-side
        marginal is preserved for every box kind.  A probe given as a
        vector is a fresh state on each call, so its output is not kept.
        """
        state = as_state(joint)
        if state.dim % self.dim_in != 0:
            raise InvalidShapeError("joint state does not factor over the box input")
        if state is not joint:
            return self._joint_output(state)
        return self._kept(state, self._joint_output, state)

    def _joint_output(self, joint: PureState) -> DensityMatrix:
        ref_dim = joint.dim // self.dim_in
        output = _branch_sum(self.joint_branches(joint, ref_dim), self.dim_out * ref_dim)
        output.matrix.flags.writeable = False
        return output


class LinearBox(BoxModel):
    """Honest quantum box: the CPTP channel ``channel``.

    Its probe outputs are the channel's outputs, one ``channel.apply`` per
    probe state.
    """

    def __init__(self, channel: QuantumChannel):
        self.channel = channel
        self.dim_in = channel.dim_in
        self.dim_out = channel.dim_out

    def _probe_stack(self, basis):
        return np.array([self.ensemble_output_density(probe).matrix for probe in basis.states])

    def joint_branches(self, joint, ref_dim):
        return _row_branches(_kraus_rows, self, joint, ref_dim)

    def ensemble_output_density(self, ensemble):
        # linearity: only the ensemble's density matters
        return self.channel.apply(_input_density(ensemble))


class _BlochWarp(BoxModel):
    """The collapse and polar-angle warp shared by the two nonlinear qubit boxes.

    Subclasses set ``basis`` before this constructor runs.  A state of any
    other dimension than 2 passes through the warp unchanged, so beyond
    qubits kappa must be 1 with no rotations.
    """

    def __init__(self, kappa: float, pre_unitary=None, post_unitary=None):
        if not kappa > 0:
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


class NonlinearBloch(_BlochWarp):
    """Deterministic nonlinear qubit box: pre-rotate, warp the polar angle, post-rotate.

    On a plain input, kappa = 1 with no rotations is the identity.  On one
    half of an entangled probe the box first collapses its side in the
    computational basis (destroying the entanglement) and then warps each
    branch, so the far marginal is never disturbed; that collapse happens
    at every kappa, so there the box is never the identity.
    """

    basis = (ket(0), ket(1))

    @classmethod
    def _of(cls, kappa: float, pre_unitary: np.ndarray, post_unitary: np.ndarray) -> "NonlinearBloch":
        """A box of a positive exponent and two qubit unitaries already checked, unchecked."""
        box = object.__new__(cls)
        box.kappa, box.pre_unitary, box.post_unitary = kappa, pre_unitary, post_unitary
        box.dim_in = box.dim_out = 2
        return box

    def joint_branches(self, joint, ref_dim):
        return _row_branches(_warped_rows, self, joint, ref_dim)


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

    def joint_branches(self, joint, ref_dim):
        return _row_branches(_collapsed_rows, self, joint, ref_dim)


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


def output_densities(boxes: Sequence[BoxModel], inputs) -> np.ndarray:
    """The exact output of every box on every input, as one (boxes, inputs, d, d) stack.

    Entry [k, n] is ``boxes[k].ensemble_output_density(inputs[n]).matrix``
    bit for bit, and the stack raises whenever one of those calls would
    (and also when the boxes differ in output dimension).  ``inputs`` may
    also be a stack of ensembles as rows (:class:`qdata.states._EnsembleRows`),
    entry [k, n] then being the box's output on ensemble n.  One rule picks
    how: the stock classes, by exact type, are stacked, and every other box
    runs its own method.

    * an exact ``LinearBox``: one einsum of every input density against the
      stacked Choi matrices, symmetrized and checked as densities once
      (:func:`_channel_outputs`);
    * a box whose chain of stages is known (:func:`_chain`): one array
      enumeration of the branches over rows (:func:`_branch_terms`), whose
      weighted projector sums are added as one stack;
    * any other box (a subclass, a nested composite, a custom stage): its
      own ``ensemble_output_density``, one input at a time.
    """
    boxes = list(boxes)
    rows = inputs if isinstance(inputs, _EnsembleRows) else None
    inputs = list(inputs) if rows is None else rows
    dims = {box.dim_out for box in boxes}
    if len(dims) > 1:
        raise InvalidShapeError("the boxes of a stack differ in output dimension")
    d = dims.pop() if dims else 0
    count = len(inputs) if rows is None else rows.count
    out = np.empty((len(boxes), count, d, d), dtype=complex)
    if not count:
        return out
    linear = [k for k, box in enumerate(boxes) if type(box) is LinearBox]
    chains = {k: _chain(box) for k, box in enumerate(boxes) if type(box) is not LinearBox}
    branching = [k for k, chain in chains.items() if chain]
    if linear:
        chois = [boxes[k].channel.choi4 for k in linear]
        out[linear] = _channel_outputs(inputs, chois)
    if branching:
        ensembles = None if rows is not None else [_as_ensemble(x) for x in inputs]
        in_dims = [rows.vectors.shape[1]] if ensembles is None else [e.dim for e in ensembles]
        for k in branching:
            for dim in in_dims:
                if dim != chains[k][0].dim_in:
                    raise InvalidShapeError(f"box expects dimension {chains[k][0].dim_in}, got {dim}")
        sources = rows if ensembles is None else _EnsembleRows.of(ensembles)
        sums = _mixtures(*_branch_terms([chains[k] for k in branching], sources, 1), len(branching) * count, d)
        out[branching] = sums.reshape(len(branching), count, d, d)
    others = [k for k, chain in chains.items() if not chain]
    if others:
        # a box with its own method takes each ensemble of a stack of rows whole
        ensembles = inputs if rows is None else rows.ensembles()
        for k in others:
            out[k] = [boxes[k].ensemble_output_density(x).matrix for x in ensembles]
    return out


def _channel_outputs(inputs, chois) -> np.ndarray:
    """Each channel of ``chois`` (four-index Choi matrices of one shape) on each input, stacked.

    ``inputs`` is a sequence of inputs of :meth:`LinearBox.ensemble_output_density`
    or a stack of ensembles as rows, whose densities the channels apply.
    One einsum gives every output, symmetrized and checked as densities
    once, each bit for bit ``QuantumChannel.apply``'s.
    """
    if isinstance(inputs, _EnsembleRows):
        rhos = inputs.densities()
    else:
        rhos = [_input_density(x).matrix for x in inputs]
    # every input and every channel share one dimension, or some pair raises alone
    if {len(rho) for rho in rhos} != {len(c) for c in chois}:
        raise InvalidShapeError("state dimension does not match the channel input")
    outs = np.einsum("nij,kiajb->knab", np.array(rhos), np.ascontiguousarray(chois))
    outs = 0.5 * (outs + outs.conj().swapaxes(-1, -2))
    check_densities(outs)
    return outs


def _composed_outputs(firsts: Sequence[BoxModel], second: BoxModel, inputs) -> np.ndarray:
    """``output_densities([compose_boxes(b, second) for b in firsts], inputs)``, bit for bit.

    The pairs that :func:`compose_boxes` composes at the channel level (two
    linear boxes) skip the composite boxes when they chain: their composed
    Choi matrices are one stacked link product
    (:func:`qdata.channels._link_products`), checked as channels once,
    whose outputs are :func:`_channel_outputs`.  Every other first box is
    composed with :func:`compose_boxes`.
    """
    firsts = list(firsts)
    linear = []
    if isinstance(second, LinearBox):
        linear = [k for k, box in enumerate(firsts) if isinstance(box, LinearBox) and box.dim_out == second.dim_in]
        # the Choi matrices of one stack share their shape
        linear = [k for k in linear if firsts[k].dim_in == firsts[linear[0]].dim_in]
    others = sorted(set(range(len(firsts))) - set(linear))
    out = np.empty((len(firsts), len(inputs), second.dim_out, second.dim_out), dtype=complex)
    if others:
        out[others] = output_densities([compose_boxes(firsts[k], second) for k in others], inputs)
    if linear and inputs:
        dim_in = firsts[linear[0]].dim_in
        chois = _link_products(second.channel, [firsts[k].channel for k in linear])
        _check_chois(chois, dim_in, second.dim_out)
        shape = (len(linear), dim_in, second.dim_out, dim_in, second.dim_out)
        out[linear] = _channel_outputs(inputs, chois.reshape(shape))
    return out


def _chain(box: BoxModel) -> tuple | None:
    """The stages ``box`` runs (a ``ComposedBox``'s own, any other box alone), or None
    unless the exact class of each stage has a row enumeration in ``_ROWS``."""
    stages = box.boxes if type(box) is ComposedBox else (box,)
    return stages if all(type(stage) in _ROWS for stage in stages) else None


def _branch_terms(chains: Sequence[tuple], sources: _EnsembleRows, ref: int) -> tuple:
    """Every chain's branches on the states of a stack of ensembles, enumerated over rows.

    ``sources`` holds the ensembles as rows of joint states, the first
    stage's input dimension times the reference dimension ``ref`` (1 for
    plain inputs); each stage acts on the first factor.  Returns ``(cells,
    weights, vectors)``, one entry per term: cell ``k * sources.count + n``
    holds the ``(weight x p, branch vector)`` terms of the box with stages
    ``chains[k]`` on ensemble n, bit for bit and in the order its
    ``joint_branches`` gives them.  Every stage is a stock class by exact
    type (:func:`_chain`); any other box runs its own method.  A row starts
    as one (chain, ensemble state, weight).  Chains of the same stage
    classes advance together, one ``_ROWS`` call per stage over all their
    rows, dropping each product of branch probabilities at or below
    ``BRANCH_CUTOFF`` as a composite's own enumeration does (a lone stage
    keeps only branches above it).
    """
    inputs, weights, size = sources.source, sources.weights, len(sources.source)
    groups: dict = {}
    for k, chain in enumerate(chains):
        kinds = tuple((_ROWS[type(stage)], stage.dim_out) for stage in chain)
        groups.setdefault(kinds, []).append((k, chain))
    cells, terms, branches = [], [], []
    for kinds, members in groups.items():
        # row r began as source row r % size of chain members[r // size]
        origin = np.arange(len(members) * size)
        probs = np.ones(origin.size)
        vectors = np.tile(sources.vectors, (len(members), 1))
        for t, (rows, dim) in enumerate(kinds):
            stages = [chain[t] for _, chain in members]
            parent, q, vectors = rows(stages, origin // size, vectors, dim, ref)
            probs = probs[parent] * q
            origin = origin[parent]
            keep = probs > BRANCH_CUTOFF
            origin, probs, vectors = origin[keep], probs[keep], vectors[keep]
        member, source = np.divmod(origin, size)
        cells.append(np.array([k for k, _ in members])[member] * sources.count + inputs[source])
        terms.append(weights[source] * probs)
        branches.append(vectors)
    return np.concatenate(cells), np.concatenate(terms), np.concatenate(branches)


def _kraus_rows(stages, inv, vectors, dim, ref):
    """The linear branches of every row: each Kraus operator K applied as ``kron(K, I_ref)``."""
    ops = [s.channel.kraus_operators() for s in stages]
    kraus = np.zeros((len(stages), max(map(len, ops)), dim, vectors.shape[1] // ref), dtype=complex)
    # a padding operator keeps no branch
    for i, k in enumerate(ops):
        kraus[i, :len(k)] = k
    # bit for bit the one-vector ``kron(K, I_ref) @ v``, which K on the (d x ref) table is not
    out = np.matmul(np.kron(kraus, np.eye(ref))[inv], vectors[:, None, :, None])[..., 0]
    # the stacked (1, d) @ (d, 1) products are ``vdot`` bit for bit
    p = np.matmul(out.conj()[..., None, :], out[..., None])[..., 0, 0].real
    parent, k = np.nonzero(p > BRANCH_CUTOFF)
    p = p[parent, k]
    branches = out[parent, k] / np.sqrt(p)[:, None]
    _check_norms(branches)
    return parent, p, branches


def _warped_rows(stages, inv, vectors, dim, ref):
    """The Bloch-warp branches of every row: a plain input warped whole, one half of a
    joint input collapsed in the stage's (computational) basis first."""
    if ref > 1:
        return _collapsed_rows(stages, inv, vectors, dim, ref)
    kappas, pre, post = _warp_parameters(stages)
    return np.arange(len(inv)), np.ones(len(inv)), _warp_rows(vectors, kappas[inv], pre[inv], post[inv])


def _collapsed_rows(stages, inv, vectors, dim, ref):
    """The collapse branches of every row: branch k is basis state k, warped once per stage
    (a state beyond qubits passes through), times the normalized reference amplitude."""
    basis = np.array([[b.vector for b in s.basis] for s in stages])
    warped = basis
    if dim == 2:
        kappas, pre, post = (np.repeat(a, dim, axis=0) for a in _warp_parameters(stages))
        warped = _warp_rows(basis.reshape(-1, dim), kappas, pre, post).reshape(basis.shape)
    # the reference amplitude b^dagger psi, a stacked (1, d) @ (d, ref) on each row's
    # (d x ref) table, and its weight, a stacked (1, ref) @ (ref, 1)
    table = vectors.reshape(len(vectors), 1, dim, ref)
    amp = np.matmul(basis.conj()[inv][:, :, None, :], table)[..., 0, :]
    p = np.matmul(amp.conj()[..., None, :], amp[..., None])[..., 0, 0].real
    parent, k = np.nonzero(p > BRANCH_CUTOFF)
    p = p[parent, k]
    amp = amp[parent, k] / np.sqrt(p)[:, None]
    _check_norms(amp)
    branches = (warped[inv[parent], k][:, :, None] * amp[:, None, :]).reshape(len(p), dim * ref)
    _check_norms(branches)
    return parent, p, branches


# The row enumeration of each stock stage class, by exact type: the one place
# its branch math lives.  Each takes ``(stages, inv, vectors, dim, ref)``, row
# r holding the joint vector ``vectors[r]`` (the stage's input dimension times
# ``ref``) at stage ``stages[inv[r]]``, and returns ``(parent, q, branches)``,
# one entry per branch the stage keeps, in row order and then in the stage's
# branch order: the row it came from, its probability and its joint vector of
# dimension ``dim * ref``.
_ROWS = {LinearBox: _kraus_rows, NonlinearBloch: _warped_rows, CollapseNonlinear: _collapsed_rows}


def _row_branches(rows, box: BoxModel, joint, ref_dim: int) -> list:
    """``box.joint_branches``: the stack of one of its class's row enumeration ``rows``."""
    vector = as_state(joint).vector
    _, q, vectors = rows([box], np.zeros(1, dtype=np.intp), vector[None], box.dim_out, ref_dim)
    return [(p, PureState(v)) for p, v in zip(q.tolist(), vectors)]


def _branch_sum(branches, dim: int) -> DensityMatrix:
    """The weighted projector sum of (weight, PureState) branches: :func:`_mixtures` of one
    cell, which checks only its trace, since branches below ``BRANCH_CUTOFF`` are dropped."""
    weights = np.array([p for p, _ in branches], dtype=float)
    vectors = np.array([phi.vector for _, phi in branches], dtype=complex).reshape(len(branches), dim)
    return DensityMatrix._of(_mixtures(np.zeros(len(branches), dtype=np.intp), weights, vectors, 1, dim)[0])


def _warp_parameters(stages) -> tuple:
    """The exponents and the pre- and post-unitaries of Bloch-warp stages, stacked."""
    return (
        np.array([s.kappa for s in stages]),
        np.array([s.pre_unitary for s in stages]),
        np.array([s.post_unitary for s in stages]),
    )


def _warp_rows(vectors, kappas, pre, post) -> np.ndarray:
    """The Bloch warp of each qubit row: pre-rotate, warp the polar angle, post-rotate.

    The stacked products make the per-row BLAS calls of ``U @ v``, and
    ``hypot`` is the scalar ``abs`` of a complex number, so each row is bit
    for bit the warp of that row alone; only the polar warp itself runs row
    by row (:func:`warp_polar_angle`, which uses ``math``).  The rows are
    norm-checked as ``PureState`` checks a state.
    """
    rotated = np.matmul(pre, vectors[..., None])[..., 0]
    a, b = np.ascontiguousarray(rotated[:, 0]), np.ascontiguousarray(rotated[:, 1])
    abs_a, abs_b = np.hypot(a.real, a.imag), np.hypot(b.real, b.imag)
    theta = 2.0 * np.arctan2(abs_b, abs_a)
    phi = np.where((abs_a > 1e-15) & (abs_b > 1e-15), np.angle(b) - np.angle(a), 0.0)
    warped = np.array([warp_polar_angle(th, k) for th, k in zip(theta.tolist(), kappas.tolist())])
    kets = np.ascontiguousarray(bloch_ket(warped, phi).T)
    out = np.matmul(post, kets[..., None])[..., 0]
    _check_norms(out)
    return out


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


def _local_dims(local_dims, channel: QuantumChannel | None = None) -> tuple[int, int]:
    """``local_dims`` as a pair of integers, each at least 2, that ``channel``
    (when given) factors over on both its input and its output.

    A local dimension of 1 has no traceless direction for the kernel scan.
    """
    try:
        dims = tuple(local_dims)
    except TypeError:
        dims = ()
    if len(dims) != 2:
        raise InvalidInputError("local_dims must be a pair")
    da, db = (as_integer(d, "local_dims") for d in dims)
    if min(da, db) < 2:
        raise InvalidInputError("local dimensions must be at least 2")
    if channel is not None and not channel.dim_in == channel.dim_out == da * db:
        raise InvalidShapeError("channel dimensions do not factor over the local dims")
    return da, db


class NsqChannelPair(BoxPair):
    """Correlated pair expressed as one bipartite channel on Alice x Bob."""

    def __init__(self, lambda_ab: QuantumChannel, local_dims: tuple):
        da, db = _local_dims(local_dims, lambda_ab)
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
