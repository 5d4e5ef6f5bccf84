"""Dense complex linear algebra substrate.

Everything here is plain numpy on complex128 arrays.  The tensor product
of two spaces is modelled concretely as the Kronecker product: a pair of
indices (i, j) on factors of dimensions (m, n) maps to the flat index
i * n + j, which is exactly numpy's ``kron`` convention.  All operations
are pure and never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotHermitian, Singular, ZeroSubspace

TOL_ORTHO = 1e-12       # ||B^H B - I||_F, relative to max(1, sqrt(columns))
TOL_HERMITIAN = 1e-10   # ||A - A^H||_F, relative to max(||A||_F, 1)

_EPS = np.finfo(float).eps


def as_operator(a) -> np.ndarray:
    """Coerce to a finite complex 2-D array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix has non-finite entries")
    return m


def as_vector(v) -> np.ndarray:
    m = np.asarray(v, dtype=complex).ravel()
    if m.size == 0:
        raise ValueError("empty vector")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("vector has non-finite entries")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    return np.conj(a).T


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal column basis of a subspace of C^ambient_dim.

    The constructor validates orthonormality (columns^H columns = I within
    ``TOL_ORTHO``); build bases from arbitrary spanning sets with
    :func:`orthonormalize`.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_operator(self.matrix)
        object.__setattr__(self, "matrix", m)
        n, k = m.shape
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= sub_dim <= ambient_dim, got {k}, {n}")
        # Huge entries overflow the Gram matrix to inf or NaN; both must fail.
        with np.errstate(over="ignore", invalid="ignore"):
            defect = np.linalg.norm(adjoint(m) @ m - np.eye(k))
        if not (defect <= TOL_ORTHO * max(1.0, np.sqrt(k))):
            raise ValueError("columns are not orthonormal")

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def sub_dim(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # unitary, column k pairs with eigenvalues[k]


def orthonormalize(spanning: Sequence) -> SubspaceBasis:
    """Orthonormal basis of the span of the given vectors.

    Rank is revealed by SVD: singular values > ambient_dim * machine-eps *
    sigma_max are kept, the usual backward-stable choice.

    Raises ZeroSubspace when the numerical rank is 0.
    """
    cols = [as_vector(v) for v in spanning]
    if not cols:
        raise ZeroSubspace("empty spanning set")
    dims = {c.size for c in cols}
    if len(dims) > 1:
        raise ValueError(f"mixed vector dimensions: {sorted(dims)}")
    a = np.column_stack(cols)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise ZeroSubspace("spanning set has rank 0")
    rank = int(np.count_nonzero(s > a.shape[0] * _EPS * s[0]))
    if rank == 0:
        raise ZeroSubspace("spanning set has numerical rank 0")
    q = u[:, :rank]
    # One re-orthogonalization pass; SVD columns are already orthonormal to
    # machine precision, QR polishes accumulated rounding.
    q, r = np.linalg.qr(q)
    # Fix the column phases so the result does not depend on QR sign choices.
    q = q * np.sign(np.real(np.diag(r)))
    return SubspaceBasis(q)


def hermitian_eig(a) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises NotHermitian when ||A - A^H||_F > TOL_HERMITIAN * max(||A||_F, 1).
    """
    m = as_operator(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix is not square")
    scale = np.linalg.norm(m)
    if np.linalg.norm(m - adjoint(m)) > TOL_HERMITIAN * max(scale, 1.0):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    w, q = np.linalg.eigh(0.5 * (m + adjoint(m)))
    return Spectrum(eigenvalues=w, eigenvectors=q)


def kron(q, t) -> np.ndarray:
    """Kronecker product; the concrete model of the operator tensor Q (x) T."""
    return np.kron(as_operator(q), as_operator(t))


def tensor_vector(f, g) -> np.ndarray:
    """Simple tensor f (x) g as a vector of length dim(f)*dim(g).

    Index pairing is row-major: entry (i, j) lands at i * dim(g) + j.
    """
    return np.kron(as_vector(f), as_vector(g))


def check_invertible(m: np.ndarray) -> None:
    """Raise Singular when sigma_min <= dim * machine-eps * sigma_max."""
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix is not square")
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] <= m.shape[0] * _EPS * s[0]:
        raise Singular(f"sigma_min/sigma_max = {s[-1] / s[0] if s[0] else 0.0:.3e}")


def invert(a) -> np.ndarray:
    """Matrix inverse; raises Singular as :func:`check_invertible` does."""
    m = as_operator(a)
    check_invertible(m)
    return np.linalg.inv(m)


def operator_norm(a) -> float:
    """Largest singular value."""
    m = as_operator(a)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def rel_fro(x: np.ndarray, y: np.ndarray) -> float:
    """||X - Y||_F relative to ||Y||_F (absolute when Y is zero)."""
    denom = np.linalg.norm(y)
    diff = float(np.linalg.norm(x - y))
    return diff / denom if denom > 0 else diff
