"""Completely positive trace-preserving maps.

The Choi matrix convention used throughout: for a map E from an m-dimensional
input to an n-dimensional output,

    choi = sum_ij |i><j| (x) E(|i><j|)

i.e. the input index is the slow (first) tensor factor and the matrix is
unnormalized, ``trace(choi) == m``.  As a four-index array the layout is
``choi4[i, a, j, b]`` with input indices i, j and output indices a, b, so
applying the map is a single contraction over the input pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    InvalidInputError,
    InvalidShapeError,
    _check_dim,
    _ginibre,
    _one,
    _phase_fixed_q,
    as_integer,
    as_operator,
    as_unitary,
    eig_hermitian,
    is_hermitian,
)
from .rng import RngStream, _draw_each
from .states import DensityMatrix, as_density

__all__ = [
    "InvalidChannelError",
    "QuantumChannel",
    "choi_from_kraus",
    "kraus_from_choi",
    "random_channel",
]

CP_ATOL = 1e-9
TP_ATOL = 1e-9


class InvalidChannelError(InvalidInputError):
    """The map is not completely positive and trace preserving."""


def choi_from_kraus(kraus, dim_in: int, dim_out: int) -> np.ndarray:
    _check_dim(dim_in * dim_out)
    return _kraus_chois(np.array([[as_operator_rect(k, dim_out, dim_in) for k in kraus]]))[0]


def _kraus_chois(ks: np.ndarray) -> np.ndarray:
    """The Choi matrices of a (sets, k, dim_out, dim_in) stack of Kraus sets, as one einsum,
    each bit for bit its set's alone."""
    n, _, dim_out, dim_in = ks.shape
    choi4 = np.einsum("nkai,nkbj->niajb", ks, ks.conj())
    return choi4.reshape(n, dim_in * dim_out, dim_in * dim_out)


def as_operator_rect(m, rows: int, cols: int) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.shape != (rows, cols):
        raise InvalidShapeError(f"expected a {rows}x{cols} operator, got {a.shape}")
    return a


def kraus_from_choi(choi: np.ndarray, dim_in: int, dim_out: int) -> list:
    """Canonical Kraus decomposition: eigenvectors of the Choi matrix.

    Eigenvalues below 1e-10 are treated as zero and dropped.  The order is
    descending by eigenvalue, which fixes the operator gauge up to phases.
    """
    w, v = eig_hermitian(choi, atol=1e-8)
    if w[-1] < -CP_ATOL:
        raise InvalidInputError("Choi matrix is not positive semidefinite")
    ops = []
    for k in range(w.size):
        if w[k] <= 1e-10:
            continue
        ops.append(np.sqrt(w[k]) * v[:, k].reshape(dim_in, dim_out).T)
    return ops


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """A CPTP map stored by its Choi matrix.

    ``kraus`` is the operator-sum form a channel was built from: set only
    by ``from_kraus``, which builds ``choi`` from those very operators.
    Without it, ``kraus_operators`` falls back to the canonical
    eigendecomposition gauge, computed once per channel.
    """

    choi: np.ndarray
    dim_in: int
    dim_out: int
    kraus: tuple | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        c = as_operator(self.choi, dim=self.dim_in * self.dim_out)
        _check_chois(c, self.dim_in, self.dim_out)
        object.__setattr__(self, "choi", c)

    @property
    def choi4(self) -> np.ndarray:
        return self.choi.reshape(self.dim_in, self.dim_out, self.dim_in, self.dim_out)

    def kraus_operators(self) -> list:
        return list(self._kraus_operators)

    @functools.cached_property
    def _kraus_operators(self) -> tuple:
        """``kraus``, or else the canonical decomposition, computed once (read-only)."""
        if self.kraus is not None:
            return self.kraus
        ops = tuple(kraus_from_choi(self.choi, self.dim_in, self.dim_out))
        for k in ops:
            k.flags.writeable = False
        return ops

    def apply(self, state) -> DensityMatrix:
        rho = as_density(state).matrix
        if rho.shape[0] != self.dim_in:
            raise InvalidShapeError("state dimension does not match the channel input")
        out = np.einsum("ij,iajb->ab", rho, self.choi4)
        out = 0.5 * (out + out.conj().T)
        return DensityMatrix(out)

    def compose(self, inner: "QuantumChannel") -> "QuantumChannel":
        """self after inner (matrix order: self . inner): the stack-of-one :func:`_link_products`."""
        return QuantumChannel(_link_products(self, [inner])[0], inner.dim_in, self.dim_out)

    def tensor(self, other: "QuantumChannel") -> "QuantumChannel":
        """self (x) other, with self's spaces first: the stack-of-one :func:`_tensors`."""
        return _tensors([self], [other])[0]

    @classmethod
    def _of(cls, choi: np.ndarray, dim_in: int, dim_out: int, kraus: tuple | None = None) -> "QuantumChannel":
        """Wrap ``choi``, a complex Choi matrix already checked as a channel, and the Kraus
        operators it was built from, unchecked."""
        channel = object.__new__(cls)
        for name, value in (("choi", choi), ("dim_in", dim_in), ("dim_out", dim_out), ("kraus", kraus)):
            object.__setattr__(channel, name, value)
        return channel

    @classmethod
    def from_kraus(cls, kraus, dim_in: int, dim_out: int) -> "QuantumChannel":
        ks = [as_operator_rect(k, dim_out, dim_in) for k in kraus]
        return _kraus_channels(np.array(ks, dtype=complex).reshape(1, len(ks), dim_out, dim_in))[0]

    @classmethod
    def from_unitary(cls, u) -> "QuantumChannel":
        m = as_unitary(u)
        return cls.from_kraus([m], m.shape[0], m.shape[0])

    @classmethod
    def identity(cls, dim: int) -> "QuantumChannel":
        return cls.from_kraus([np.eye(dim)], dim, dim)

    @classmethod
    def depolarizing(cls, p: float, dim: int = 2) -> "QuantumChannel":
        """(1-p) id + p (replace with maximally mixed)."""
        return _one(_depolarizings([p], dim))

    @classmethod
    def amplitude_damping(cls, gamma: float) -> "QuantumChannel":
        return _one(_amplitude_dampings([gamma]))

    @classmethod
    def dephasing(cls, p: float) -> "QuantumChannel":
        """With probability p the off-diagonal terms are killed."""
        return _one(_dephasings([p]))


def _kraus_channels(ks: np.ndarray) -> list:
    """``QuantumChannel.from_kraus`` of each set of a complex (sets, k, dim_out, dim_in) stack.

    One completeness check, one einsum (:func:`_kraus_chois`) and one
    :func:`_check_chois` run over the stack, which raises if any set fails
    them.  Each channel holds its slice of the Choi stack and of ``ks``.
    """
    _, _, dim_out, dim_in = ks.shape
    total = np.matmul(ks.conj().swapaxes(-1, -2), ks).sum(axis=1)
    if np.max(np.abs(total - np.eye(dim_in))) > 1e-10:
        raise InvalidChannelError("Kraus operators do not satisfy completeness")
    _check_dim(dim_in * dim_out)
    chois = _kraus_chois(ks)
    _check_chois(chois, dim_in, dim_out)
    return [QuantumChannel._of(c, dim_in, dim_out, tuple(k)) for c, k in zip(chois, ks)]


def _unit_stack(values, message: str, build) -> list:
    """One outcome per value: InvalidInputError(message) for a value outside [0, 1], and for
    the others, in order, the channels that ``build`` makes of them as one float array."""
    x = np.array(values, dtype=float)
    valid = (0.0 <= x) & (x <= 1.0)
    built = iter(build(x[valid]) if valid.any() else ())
    return [next(built) if ok else InvalidInputError(message) for ok in valid.tolist()]


def _depolarizings(ps, dim: int = 2) -> list:
    """``QuantumChannel.depolarizing(p, dim)`` of each strength in ``ps``, bit for bit, the valid
    ones as one Choi stack checked once (:func:`_unit_stack`)."""

    def build(p):
        ident = choi_from_kraus([np.eye(dim)], dim, dim)
        # replacement map: rho -> trace(rho) I/dim
        repl4 = np.einsum("ij,ab->iajb", np.eye(dim), np.eye(dim) / dim)
        chois = (1.0 - p)[:, None, None] * ident + p[:, None, None] * repl4.reshape(dim * dim, dim * dim)
        _check_chois(chois, dim, dim)
        return [QuantumChannel._of(c, dim, dim) for c in chois]

    return _unit_stack(ps, "depolarizing strength must lie in [0, 1]", build)


def _amplitude_dampings(gammas) -> list:
    """``QuantumChannel.amplitude_damping`` of each rate in ``gammas``, bit for bit, the valid
    ones as one Kraus stack (:func:`_kraus_channels`)."""

    def build(g):
        ks = np.zeros((len(g), 2, 2, 2), dtype=complex)
        ks[:, 0, 0, 0] = 1.0
        ks[:, 0, 1, 1] = np.sqrt(1.0 - g)
        ks[:, 1, 0, 1] = np.sqrt(g)
        return _kraus_channels(ks)

    return _unit_stack(gammas, "damping rate must lie in [0, 1]", build)


def _dephasings(ps) -> list:
    """``QuantumChannel.dephasing`` of each strength in ``ps``, bit for bit, the valid ones as
    one Kraus stack (:func:`_kraus_channels`)."""

    def build(p):
        k0 = np.sqrt(1.0 - p / 2.0)[:, None, None] * np.eye(2)
        k1 = np.sqrt(p / 2.0)[:, None, None] * np.diag([1.0, -1.0])
        return _kraus_channels(np.stack([k0, k1], axis=1).astype(complex))

    return _unit_stack(ps, "dephasing strength must lie in [0, 1]", build)


def _check_chois(c: np.ndarray, dim_in: int, dim_out: int) -> None:
    """Raise :class:`InvalidChannelError` unless ``c``, one Choi matrix or a stack of them, is CPTP.

    The checks of :class:`QuantumChannel`: Hermitian within 1e-8, no
    eigenvalue below ``-CP_ATOL`` and an input marginal within ``TP_ATOL``
    of the identity, each run once over the whole stack.
    """
    if not is_hermitian(c, atol=1e-8):
        raise InvalidChannelError("Choi matrix is not Hermitian")
    if np.min(np.linalg.eigvalsh(c)) < -CP_ATOL:
        raise InvalidChannelError("map is not completely positive")
    c4 = c.reshape(c.shape[:-2] + (dim_in, dim_out, dim_in, dim_out))
    marginal = np.einsum("...iaja->...ij", c4)
    if np.max(np.abs(marginal - np.eye(dim_in))) > TP_ATOL:
        raise InvalidChannelError("map is not trace preserving")


def _link_products(outer: QuantumChannel, inners) -> np.ndarray:
    """The Choi matrices of ``outer`` after each channel of ``inners``, as one (k, n, n) stack.

    Every inner channel has one input dimension.  One einsum runs over the
    stack, each matrix bit for bit as alone; nothing is checked beyond the
    dimensions (:func:`_check_chois` checks a stack once).
    """
    for inner in inners:
        if inner.dim_out != outer.dim_in:
            raise InvalidShapeError("channel dimensions do not chain")
    dim = inners[0].dim_in * outer.dim_out
    _check_dim(dim)
    # link product: sum over each inner's output pair, which is outer's input pair
    choi4 = np.einsum("kiajb,acbd->kicjd", np.array([inner.choi4 for inner in inners]), outer.choi4)
    return choi4.reshape(-1, dim, dim)


def _tensors(firsts, seconds) -> list:
    """``first.tensor(second)`` of each pair of channels, bit for bit, as one einsum and one
    :func:`_check_chois` over the stack.  The firsts share one shape, and so do the seconds."""
    a, b = firsts[0], seconds[0]
    din, dout = a.dim_in * b.dim_in, a.dim_out * b.dim_out
    _check_dim(din * dout)
    c = np.einsum(
        "niajc,nkbld->nikabjlcd", np.array([x.choi4 for x in firsts]), np.array([y.choi4 for y in seconds])
    )
    chois = c.reshape(-1, din * dout, din * dout)
    _check_chois(chois, din, dout)
    return [QuantumChannel._of(choi, din, dout) for choi in chois]


def random_channel(
    dim_in: int, dim_out: int, rng: RngStream, env_dim: int | None = None
) -> QuantumChannel:
    """Haar-random Stinespring dilation: the stack of one :func:`_random_channels`.

    A Haar isometry V from dim_in into the dim_out * env_dim space is drawn
    directly (a dim_out * env_dim by dim_in Ginibre block, phase-fixed QR);
    the channel traces out the environment, so its Choi matrix is the Gram
    matrix of V's rows regrouped by (input, output).  ``env_dim`` defaults
    to dim_in * dim_out, which samples full-Kraus-rank channels.  The
    dimensions and ``env_dim`` are integers of at least 1
    (:func:`qdata.linalg.as_integer`), and a Choi matrix or a dilation
    wider than ``MAX_DIM`` raises before any draw.
    """
    return _random_channels(dim_in, dim_out, [rng], env_dim)[0]


def _random_channels(dim_in: int, dim_out: int, streams, env_dim: int | None = None) -> list:
    """:func:`random_channel` on each stream of ``streams``, bit for bit, built as one stack.

    Each stream's Ginibre block is drawn on the generator its own draws
    would come from next (:func:`qdata.rng._draw_each`: a stream that has
    not drawn yet builds no generator); one QR
    (:func:`qdata.linalg._phase_fixed_q`), one Gram product and one
    :func:`_check_chois` run over the stack, and each channel holds its
    slice of the Choi stack.  The dimensions are checked before any draw.
    """
    dim_in = as_integer(dim_in, "dim_in", least=1)
    dim_out = as_integer(dim_out, "dim_out", least=1)
    env = dim_in * dim_out if env_dim is None else as_integer(env_dim, "env_dim", least=1)
    total = dim_out * env
    if total < dim_in:
        raise InvalidShapeError("environment too small for an isometry")
    _check_dim(dim_in * dim_out)
    _check_dim(total)
    z = np.array(_draw_each(streams, _ginibre, [(total, dim_in)] * len(streams)))
    v = _phase_fixed_q(z).reshape(-1, dim_out, env, dim_in)
    w = v.transpose(0, 3, 1, 2).reshape(-1, dim_in * dim_out, env)  # row (i, a), column e
    chois = w @ w.conj().swapaxes(-1, -2)
    _check_chois(chois, dim_in, dim_out)
    return [QuantumChannel._of(choi, dim_in, dim_out) for choi in chois]
