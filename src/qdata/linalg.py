"""Dense complex linear algebra on small Hilbert spaces.

All operators live in spaces of dimension at most ``MAX_DIM``; everything is
plain ``numpy.ndarray`` with dtype complex128 and row-major composite
indexing (subsystem 0 is the slowest index).  Equality-style checks always
carry explicit absolute tolerances.
"""

from __future__ import annotations

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
    if np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) > 1e-9:
        raise InvalidInputError("matrix is not unitary")
    return m


def as_integer(value, name: str) -> int:
    """``value`` as an int: integers and numpy integers pass, bools and floats fail."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidInputError(f"{name} must be an integer")


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


def is_hermitian(m, atol: float = HERM_ATOL) -> bool:
    a = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(a - a.conj().T)) <= atol)


def eig_hermitian(h, atol: float = HERM_ATOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvector columns.

    Raises :class:`InvalidInputError` if the input is not Hermitian
    within ``atol``.
    """
    a = as_operator(h)
    if not is_hermitian(a, atol):
        raise InvalidInputError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(a)
    return w[::-1], v[:, ::-1]


def trace_norm(h) -> float:
    """Sum of absolute eigenvalues of a Hermitian operator."""
    return float(trace_norms(as_operator(h)[None])[0])


def trace_norms(stack) -> np.ndarray:
    """Trace norm of each Hermitian matrix in a stack of shape (k, d, d).

    The absolute eigenvalues from ``eigh`` are summed in descending order.
    """
    a = np.asarray(stack, dtype=complex)
    if not np.max(np.abs(a - np.swapaxes(a, -1, -2).conj())) <= HERM_ATOL:
        raise InvalidInputError("matrix is not Hermitian within tolerance")
    w, _ = np.linalg.eigh(a)
    return np.sum(np.abs(w[:, ::-1]), axis=1)


def trace_distance(r, s) -> float:
    """Half the trace norm of the difference of two Hermitian operators."""
    a = as_operator(r)
    return 0.5 * trace_norm(a - as_operator(s, a.shape[0]))


def _psd_check_and_clip(m, floor: float = -1e-10) -> tuple[np.ndarray, np.ndarray]:
    w, v = eig_hermitian(m, atol=1e-8)
    if np.min(w) < floor:
        raise InvalidInputError(f"matrix has eigenvalue {np.min(w):.3e} below PSD floor {floor}")
    return np.clip(w, 0.0, None), v


def uhlmann_fidelity(r, s) -> float:
    """Squared-overlap fidelity ``(tr sqrt(sqrt(r) s sqrt(r)))**2``.

    Both arguments must be density-like: Hermitian, unit trace within 1e-8
    and PSD within a -1e-10 eigenvalue floor.  For pure states this reduces
    to the squared overlap of the vectors.
    """
    a = as_operator(r)
    b = as_operator(s, a.shape[0])
    for m in (a, b):
        if abs(np.trace(m).real - 1.0) > 1e-8:
            raise InvalidInputError("fidelity arguments must have unit trace")
    wa, va = _psd_check_and_clip(a)
    _psd_check_and_clip(b)
    sqrt_a = (va * np.sqrt(wa)) @ va.conj().T
    inner = sqrt_a @ b @ sqrt_a
    w = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    f = float(np.sum(np.sqrt(w)) ** 2)
    return min(max(f, 0.0), 1.0)


def nearest_density_matrix(h) -> np.ndarray:
    """Closest (Frobenius) unit-trace PSD matrix.

    Works in the eigenbasis: the eigenvalue vector is projected onto the
    probability simplex by truncating from the bottom and spreading the
    deficit uniformly over the surviving eigenvalues.  The input must be
    Hermitian with trace within 0.5 of 1.
    """
    a = as_operator(h)
    tr = float(np.trace(a).real)
    if abs(tr - 1.0) > 0.5:
        raise InvalidInputError(f"trace {tr:.4f} too far from 1 to project")
    w, v = eig_hermitian(a)
    css = np.cumsum(w)
    k = np.arange(1, len(w) + 1)
    above = np.nonzero(w - (css - 1.0) / k > 0)[0]
    kmax = int(above[-1]) + 1
    shift = (css[kmax - 1] - 1.0) / kmax
    w2 = np.clip(w - shift, 0.0, None)
    return (v * w2) @ v.conj().T


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
    _check_dim(dim)
    g = rng.generator
    z = (g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


_hermitian_bases: dict = {}


def hermitian_basis(dim: int) -> tuple[np.ndarray, ...]:
    """Orthonormal Hermitian operator basis (Hilbert-Schmidt inner product).

    Element 0 is ``I/sqrt(dim)``; the remaining ``dim**2 - 1`` elements are
    traceless (normalized generalized Gell-Mann matrices).  For ``dim == 2``
    these are the Pauli matrices over ``sqrt(2)``.  The basis is built once
    per dimension and shared: its arrays are read-only.
    """
    basis = _hermitian_bases.get(dim)
    if basis is None:
        _check_dim(dim)
        basis = _hermitian_bases.setdefault(dim, _build_hermitian_basis(dim))
    return basis


def _build_hermitian_basis(dim: int) -> tuple[np.ndarray, ...]:
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
    for element in basis:
        element.flags.writeable = False
    return tuple(basis)


def rotation_y(angle: float) -> np.ndarray:
    """exp(-i * angle * sigma_y / 2): real rotation in the {|0>, |1>} plane."""
    c = np.cos(angle / 2.0)
    s = np.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)
