"""Dense complex linear algebra on small Hilbert spaces.

All operators live in spaces of dimension at most ``MAX_DIM``; everything is
plain ``numpy.ndarray`` with dtype complex128 and row-major composite
indexing (subsystem 0 is the slowest index).  Equality-style checks always
carry explicit absolute tolerances.
"""

from __future__ import annotations

import functools
import operator
from typing import Sequence

import numpy as np

from .rng import RngStream

__all__ = [
    "InvalidShapeError",
    "InvalidInputError",
    "kron",
    "partial_trace",
    "eig_hermitian",
    "trace_norm",
    "trace_distance",
    "uhlmann_fidelity",
    "worst_fidelity",
    "nearest_density_matrix",
    "haar_random_state",
    "haar_random_unitary",
    "hermitian_basis",
    "rotation_y",
]

MAX_DIM = 64
ATOL = 1e-10
HERM_ATOL = 1e-12


class InvalidShapeError(ValueError):
    """Operator or vector has the wrong shape or an unsupported dimension."""


class InvalidInputError(ValueError):
    """Numerical content violates a documented precondition."""


def _check_dim(dim: int) -> None:
    if dim < 1 or dim > MAX_DIM:
        raise InvalidShapeError(f"dimension {dim} outside supported range [1, {MAX_DIM}]")


def _one(outcomes):
    """The outcome of a stack of one: its value, or the exception it holds, raised."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def as_operator(m, dim: int | None = None) -> np.ndarray:
    """Coerce to a square complex matrix, validating shape and size cap.

    Objects carrying their operator in a ``matrix`` attribute (density
    matrices from the states layer) are unwrapped first.
    """
    m = getattr(m, "matrix", m)
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidShapeError(f"expected a square matrix, got shape {a.shape}")
    _check_dim(a.shape[0])
    if dim is not None and a.shape[0] != dim:
        raise InvalidShapeError(f"expected dimension {dim}, got {a.shape[0]}")
    return a


def as_unitary(u, dim: int | None = None) -> np.ndarray:
    """Coerce with :func:`as_operator` and check that ``U U^dagger = I`` within 1e-9."""
    m = as_operator(u, dim)
    _check_unitaries(m)
    return m


def _check_unitaries(m: np.ndarray) -> None:
    """Raise :class:`InvalidInputError` unless ``m``, one matrix or a non-empty stack, is unitary within 1e-9."""
    if not np.max(np.abs(m @ m.conj().swapaxes(-1, -2) - np.eye(m.shape[-1]))) <= 1e-9:
        raise InvalidInputError("matrix is not unitary")


def as_integer(value, name: str, least: int | None = None) -> int:
    """``value`` as an int (numpy ints pass, bools and floats fail) of at least ``least``."""
    if isinstance(value, bool):
        raise InvalidInputError(f"{name} must be an integer")
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer") from None
    if least is not None and value < least:
        raise InvalidInputError(f"{name} must be at least {least}")
    return value


def as_seed(value, name: str = "seed") -> int:
    """``value`` as a master seed: an integer (see :func:`as_integer`) in [0, 2**64)."""
    value = as_integer(value, name)
    if value < 0:
        raise InvalidInputError(f"{name} must be at least 0 to fit in 64 unsigned bits")
    if value >= 2**64:
        raise InvalidInputError(f"{name} must fit in 64 unsigned bits")
    return value


def kron(a, b) -> np.ndarray:
    """Kronecker product with subsystem 0 as the left (slow) factor."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    Parameters
    ----------
    m : array_like
        Operator on the composite space ``prod(dims)``.
    dims : sequence of int
        Subsystem dimensions, subsystem 0 first (row-major composite index).
    keep : sequence of int
        Indices of subsystems to retain, in their original order.
    """
    dims = [int(d) for d in dims]
    n = len(dims)
    total = int(np.prod(dims))
    a = as_operator(m, total)
    keep = sorted(int(k) for k in keep)
    if any(k < 0 or k >= n for k in keep) or len(set(keep)) != len(keep):
        raise InvalidShapeError(f"keep={keep} invalid for {n} subsystems")
    t = a.reshape(dims + dims)
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out = keep + [n + k for k in keep]
    kept_dim = int(np.prod([dims[k] for k in keep])) if keep else 1
    return np.einsum(t, row + col, out).reshape(kept_dim, kept_dim)


# Up to this many entries the whole difference matrix is the cheaper check
# (a few microseconds less per call) and a few tens of kilobytes at most.
_WHOLE_CHECK_SIZE = 1024

@functools.cache
def _triangle(d: int) -> tuple:
    """Flat indices of the upper triangle of a d x d matrix, diagonal included,
    and of the mirrored entries, built once per d (read-only)."""
    rows, cols = np.triu_indices(d)
    pair = (rows * d + cols, cols * d + rows)
    for index in pair:
        index.flags.writeable = False
    return pair


def is_hermitian(m, atol: float = HERM_ATOL) -> bool:
    """Whether ``m``, one matrix or a stack of them, is Hermitian within ``atol`` (NaN fails).

    A small input is compared whole with its conjugate transpose.  A larger
    one compares only the upper triangle and the diagonal with their
    mirrors, since ``|a_ij - conj(a_ji)|`` equals ``|a_ji - conj(a_ij)|``
    bit for bit: that allocates (d + 1) / d of the stack where the whole
    difference took about three stacks, and rules the same way.
    """
    a = np.asarray(m, dtype=complex)
    if a.size <= _WHOLE_CHECK_SIZE:
        return bool(abs(a - a.swapaxes(-1, -2).conj()).max() <= atol)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidShapeError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    d = a.shape[-1]
    upper, mirrored = _triangle(d)
    flat = a.reshape(a.shape[:-2] + (d * d,))
    gaps = flat[..., upper]
    conjugates = flat[..., mirrored]
    np.conjugate(conjugates, out=conjugates)
    np.subtract(gaps, conjugates, out=gaps)
    return bool(np.abs(gaps, out=conjugates.real).max() <= atol)


def eig_hermitian(h, atol: float = HERM_ATOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvector columns.

    Raises :class:`InvalidInputError` if the input is not Hermitian
    within ``atol``.
    """
    a = as_operator(h)
    if not is_hermitian(a, atol):
        raise InvalidInputError("matrix is not Hermitian within tolerance")
    return _eigh_descending(a)


def _eigh_descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`eig_hermitian` without its checks, for a matrix or a stack Hermitian by construction."""
    w, v = np.linalg.eigh(a)
    return w[..., ::-1], v[..., ::-1]


def trace_norm(h) -> float:
    """Sum of absolute eigenvalues of a Hermitian operator."""
    return float(trace_norms(as_operator(h)[None])[0])


def trace_norms(stack) -> np.ndarray:
    """Trace norm of each Hermitian matrix in a stack of shape (k, d, d).

    The absolute eigenvalues from ``eigh`` are summed in descending order.
    """
    a = np.asarray(stack, dtype=complex)
    if not is_hermitian(a):
        raise InvalidInputError("matrix is not Hermitian within tolerance")
    w, _ = np.linalg.eigh(a)
    return np.sum(np.abs(w[:, ::-1]), axis=1)


def trace_distance(r, s) -> float:
    """Half the trace norm of the difference of two Hermitian operators."""
    a = as_operator(r)
    return 0.5 * trace_norm(a - as_operator(s, a.shape[0]))


def _as_operators(m) -> np.ndarray:
    """:func:`as_operator` for one matrix or a stack of them, shape (..., d, d)."""
    a = np.asarray(getattr(m, "matrix", m), dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidShapeError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    _check_dim(a.shape[-1])
    return a


def uhlmann_fidelity(r, s):
    """Squared-overlap fidelity ``(tr sqrt(sqrt(r) s sqrt(r)))**2``.

    Both arguments must be density-like: Hermitian, unit trace within 1e-8
    and PSD within a -1e-10 eigenvalue floor.  For pure states this reduces
    to the squared overlap of the vectors.  This is the two-matrix case of
    :func:`worst_fidelity`: two matrices give a float, two stacks of equal
    shape an array of the fidelities of their matching pairs.
    """
    return worst_fidelity((r, s))


def worst_fidelity(densities):
    """The smallest :func:`uhlmann_fidelity` over the pairs ``i < j`` of each group.

    One group of n matrices (a sequence, or an array (n, d, d)) gives a
    float; a stack of groups (..., n, d, d), or a sequence of stacks along
    axis -3, gives an array (...).  Every matrix is checked once: all
    traces, then all Hermiticity, then the PSD floor of all from one
    eigendecomposition, which also gives the square root of each pair's
    first matrix; one ``eigvalsh`` covers every pair.  Each value equals,
    bit for bit, the pairwise loop over its group.  Fewer than two
    matrices give 1.0, once checked.
    """
    if isinstance(densities, np.ndarray):
        group = _as_operators(densities)
    else:
        mats = [_as_operators(m) for m in densities]
        if not mats:
            return 1.0
        if any(m.shape != mats[0].shape for m in mats):
            raise InvalidShapeError("fidelity arguments differ in shape")
        group = np.stack(mats, axis=-3)
    if group.ndim < 3:
        raise InvalidShapeError(f"expected a group of matrices, got shape {group.shape}")
    traces = np.trace(group, axis1=-2, axis2=-1).real
    if (abs(traces - 1.0) > 1e-8).any():
        raise InvalidInputError("fidelity arguments must have unit trace")
    if not is_hermitian(group, atol=1e-8):
        raise InvalidInputError("matrix is not Hermitian within tolerance")
    w, v = _eigh_descending(group)
    if w.min() < -1e-10:
        raise InvalidInputError(f"matrix has eigenvalue {w.min():.3e} below PSD floor -1e-10")
    # the pairs (i, j), i < j, in the pairwise loop's order
    n = group.shape[-3]
    first = [i for i in range(n) for _ in range(i + 1, n)]
    second = [j for i in range(n) for j in range(i + 1, n)]
    roots = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    root = roots[..., first, :, :]
    inner = np.clip(np.linalg.eigvalsh(root @ group[..., second, :, :] @ root), 0.0, None)
    fidelities = np.clip(np.sum(np.sqrt(inner), axis=-1) ** 2, 0.0, 1.0)
    worst = fidelities.min(axis=-1, initial=1.0)
    return float(worst) if worst.ndim == 0 else worst


def nearest_density_matrix(h) -> np.ndarray:
    """Closest (Frobenius) unit-trace PSD matrix, of one matrix or of each in a stack (..., d, d).

    Works in the eigenbasis: the eigenvalue vector is projected onto the
    probability simplex by truncating from the bottom and spreading the
    deficit uniformly over the surviving eigenvalues.  Every input must be
    Hermitian with trace within 0.5 of 1 (all traces are checked first).
    """
    a = _as_operators(h)
    traces = np.trace(a, axis1=-2, axis2=-1).real
    far = traces[abs(traces - 1.0) > 0.5]
    if far.size:
        raise InvalidInputError(f"trace {far[0]:.4f} too far from 1 to project")
    if not is_hermitian(a):
        raise InvalidInputError("matrix is not Hermitian within tolerance")
    return _project_to_density(a)


def _project_to_density(a: np.ndarray) -> np.ndarray:
    """:func:`nearest_density_matrix` without its checks, for input that passes them by construction.

    A stack is one ``eigh``, and each of its matrices comes out bit for bit
    as it does alone.  With ``w`` descending, the shift is
    ``theta = (cumsum(w) - 1) / k`` at the last ``k`` where ``w`` exceeds it.
    """
    w, v = _eigh_descending(a)
    d = w.shape[-1]
    theta = (w.cumsum(-1) - 1.0) / np.arange(1, d + 1)
    last = d - 1 - (w > theta)[..., ::-1].argmax(-1)
    shift = np.take_along_axis(theta, last[..., None], -1)
    # maximum(x, 0.0) is numpy's clip(x, 0.0, None), without its dispatch
    return (v * np.maximum(w - shift, 0.0)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def haar_random_state(dim: int, rng: RngStream) -> np.ndarray:
    """Haar-distributed unit vector: normalized complex Gaussian draw."""
    _check_dim(dim)
    g = rng.generator
    z = g.standard_normal(dim) + 1j * g.standard_normal(dim)
    return z / np.linalg.norm(z)


def haar_random_unitary(dim: int, rng: RngStream) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix.

    The R diagonal is phase-fixed so the distribution is exactly Haar
    rather than merely unitary.
    """
    return _haar_columns(dim, dim, rng)


def _haar_columns(dim: int, cols: int, rng: RngStream) -> np.ndarray:
    """A Haar-random isometry: ``cols`` orthonormal columns in dimension ``dim``.

    Only a ``dim x cols`` Ginibre matrix is drawn (real block, then
    imaginary block); the Q factor of its QR decomposition, phase-fixed by
    ``diag(R)``, is Haar-distributed (Mezzadri, Notices AMS 54, 592, 2007).
    With ``cols == dim`` this is :func:`haar_random_unitary`.  ``cols``
    outside [1, dim] raises :class:`InvalidShapeError` before any draw.
    """
    _check_dim(dim)
    if not 1 <= cols <= dim:
        raise InvalidShapeError(f"{cols} columns outside [1, {dim}]")
    return _phase_fixed_q(_ginibre(rng.generator, (dim, cols)))


def _ginibre(gen: np.random.Generator, shape: tuple) -> np.ndarray:
    """An unscaled complex Ginibre block of ``shape`` drawn from ``gen``: the real block, then
    the imaginary block."""
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def _phase_fixed_q(z: np.ndarray) -> np.ndarray:
    """The Q factor of ``z / sqrt(2)``, one unscaled Ginibre block (:func:`_ginibre`) or a stack of
    them, each column's phase fixed by ``diag(R)``: a Haar-random isometry of each block.  One QR
    runs over a stack, each slice bit for bit its block's alone."""
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


_hermitian_bases: dict = {}


def hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal Hermitian operator basis (Hilbert-Schmidt inner product).

    Element 0 is ``I/sqrt(dim)``; the remaining ``dim**2 - 1`` elements are
    traceless (normalized generalized Gell-Mann matrices).  For ``dim == 2``
    these are the Pauli matrices over ``sqrt(2)``.  The basis is built once
    per dimension as one read-only (dim**2, dim, dim) array, and shared.
    """
    basis = _hermitian_bases.get(dim)
    if basis is None:
        _check_dim(dim)
        basis = _hermitian_bases.setdefault(dim, _build_hermitian_basis(dim))
    return basis


def _build_hermitian_basis(dim: int) -> np.ndarray:
    basis = [np.eye(dim, dtype=complex) / np.sqrt(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(sym)
            asym = np.zeros((dim, dim), dtype=complex)
            asym[i, j] = -1j / np.sqrt(2.0)
            asym[j, i] = 1j / np.sqrt(2.0)
            basis.append(asym)
    for k in range(1, dim):
        diag = np.zeros(dim, dtype=complex)
        diag[:k] = 1.0
        diag[k] = -k
        basis.append(np.diag(diag) / np.sqrt(k * (k + 1)))
    basis = np.array(basis)
    basis.flags.writeable = False
    return basis


def rotation_y(angle) -> np.ndarray:
    """exp(-i * angle * sigma_y / 2): real rotation in the {|0>, |1>} plane.

    An array of angles gives their rotations as one stack, each bit for bit
    its angle's alone.
    """
    half = np.asarray(angle, dtype=float) / 2.0
    c, s = np.cos(half), np.sin(half)
    out = np.empty(half.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    return out
