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
    _haar_columns,
    as_integer,
    as_operator,
    as_unitary,
    eig_hermitian,
    is_hermitian,
)
from .rng import RngStream
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
    ks = np.array([as_operator_rect(k, dim_out, dim_in) for k in kraus])
    choi4 = np.einsum("kai,kbj->iajb", ks, ks.conj())
    return choi4.reshape(dim_in * dim_out, dim_in * dim_out)


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
        din = self.dim_in * other.dim_in
        dout = self.dim_out * other.dim_out
        _check_dim(din * dout)
        c = np.einsum("iajc,kbld->ikabjlcd", self.choi4, other.choi4)
        return QuantumChannel(c.reshape(din * dout, din * dout), din, dout)

    @classmethod
    def from_kraus(cls, kraus, dim_in: int, dim_out: int) -> "QuantumChannel":
        ks = tuple(as_operator_rect(k, dim_out, dim_in) for k in kraus)
        total = sum(k.conj().T @ k for k in ks)
        if np.max(np.abs(total - np.eye(dim_in))) > 1e-10:
            raise InvalidChannelError("Kraus operators do not satisfy completeness")
        channel = cls(choi_from_kraus(ks, dim_in, dim_out), dim_in, dim_out)
        object.__setattr__(channel, "kraus", ks)
        return channel

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
        if not 0.0 <= p <= 1.0:
            raise InvalidInputError("depolarizing strength must lie in [0, 1]")
        ident = cls.identity(dim)
        # replacement map: rho -> trace(rho) I/dim
        repl4 = np.einsum("ij,ab->iajb", np.eye(dim), np.eye(dim) / dim)
        choi = (1.0 - p) * ident.choi + p * repl4.reshape(dim * dim, dim * dim)
        return cls(choi, dim, dim)

    @classmethod
    def amplitude_damping(cls, gamma: float) -> "QuantumChannel":
        if not 0.0 <= gamma <= 1.0:
            raise InvalidInputError("damping rate must lie in [0, 1]")
        k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]])
        k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
        return cls.from_kraus([k0, k1], 2, 2)

    @classmethod
    def dephasing(cls, p: float) -> "QuantumChannel":
        """With probability p the off-diagonal terms are killed."""
        if not 0.0 <= p <= 1.0:
            raise InvalidInputError("dephasing strength must lie in [0, 1]")
        sz = np.diag([1.0, -1.0])
        k0 = np.sqrt(1.0 - p / 2.0) * np.eye(2)
        k1 = np.sqrt(p / 2.0) * sz
        return cls.from_kraus([k0, k1], 2, 2)


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


def random_channel(
    dim_in: int, dim_out: int, rng: RngStream, env_dim: int | None = None
) -> QuantumChannel:
    """Haar-random Stinespring dilation.

    A Haar isometry V from dim_in into the dim_out * env_dim space is drawn
    directly (:func:`qdata.linalg._haar_columns`, a dim_out * env_dim by
    dim_in Ginibre block); the channel traces out the environment, so its
    Choi matrix is the Gram matrix of V's rows regrouped by (input, output).
    ``env_dim`` defaults to dim_in * dim_out, which samples
    full-Kraus-rank channels.  The dimensions and ``env_dim`` are integers of
    at least 1 (:func:`qdata.linalg.as_integer`), and a Choi matrix or a
    dilation wider than ``MAX_DIM`` raises before any draw.
    """
    dim_in = as_integer(dim_in, "dim_in", least=1)
    dim_out = as_integer(dim_out, "dim_out", least=1)
    env = dim_in * dim_out if env_dim is None else as_integer(env_dim, "env_dim", least=1)
    total = dim_out * env
    if total < dim_in:
        raise InvalidShapeError("environment too small for an isometry")
    _check_dim(dim_in * dim_out)
    v = _haar_columns(total, dim_in, rng).reshape(dim_out, env, dim_in)
    w = v.transpose(2, 0, 1).reshape(dim_in * dim_out, env)  # row (i, a), column e
    return QuantumChannel(w @ w.conj().T, dim_in, dim_out)
