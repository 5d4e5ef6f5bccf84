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

from .errors import DimensionMismatch, Singular, ZeroSubspace

TOL_ORTHO = 1e-12       # ||B^H B - I||_F, relative to max(1, sqrt(columns))

_EPS = np.finfo(float).eps


def as_operator(a) -> np.ndarray:
    """Coerce to a finite complex 2-D array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def as_vector(v) -> np.ndarray:
    m = np.asarray(v, dtype=complex).ravel()
    if m.size == 0:
        raise ValueError("empty vector")
    if not np.isfinite(m).all():
        raise ValueError("vector has non-finite entries")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    return np.conj(a).swapaxes(-1, -2)


def _require_orthonormal(m: np.ndarray) -> None:
    """Raise ValueError unless each (n, k) basis in the stack m has B^H B = I within TOL_ORTHO."""
    # Huge entries overflow the Gram matrix to inf or NaN; both must fail.
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.linalg.norm(adjoint(m) @ m - np.eye(m.shape[-1]), axis=(-2, -1))
    if not (defect <= TOL_ORTHO * max(1.0, np.sqrt(m.shape[-1]))).all():
        raise ValueError("columns are not orthonormal")


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
        _require_orthonormal(m)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def sub_dim(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Named fields as numpy 2's ``EighResult`` has them; numpy 1.24 is supported.
    """

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


@dataclass(frozen=True)
class KronOperator:
    """The operator kron(left, right) on C^m (x) C^n, never formed.

    ``op @ x`` takes a (m*n,) vector or a (m*n, p) block of columns and
    applies the vec trick vec(left X right^T), X = x.reshape(m, n) (Van Loan,
    "The ubiquitous Kronecker product", J. Comput. Appl. Math. 123 (2000),
    sec. 3): two matrix products in the row-major i * n + j pairing, at
    O(mn(m + n)) flops per column instead of O((mn)^2).  ``np.asarray(op)``
    is the dense ``np.kron(left, right)``.
    """

    left: np.ndarray
    right: np.ndarray

    # Numpy arithmetic would densify through __array__; make it a TypeError.
    __array_ufunc__ = None

    @property
    def nbytes(self) -> int:
        return self.left.nbytes + self.right.nbytes

    def __matmul__(self, x):
        x = np.asarray(x)
        m, n = self.left.shape[1], self.right.shape[1]
        if x.ndim not in (1, 2) or x.shape[0] != m * n:
            raise DimensionMismatch(
                f"operand has shape {x.shape}, operator acts on dimension {m * n}"
            )
        y = (self.left @ x.reshape(m, -1)).reshape(self.left.shape[0], n, -1)
        return (self.right @ y).reshape(-1, *x.shape[1:])

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a KronOperator has no dense array to view")
        dense = np.kron(self.left, self.right)
        return dense if dtype is None else dense.astype(dtype, copy=False)


def invert(a) -> np.ndarray:
    """Matrix inverse by LU.

    Raises Singular when sigma_min <= dim * machine-eps * sigma_max.
    """
    m = as_operator(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix is not square")
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] <= m.shape[0] * _EPS * s[0]:
        raise Singular(f"sigma_min/sigma_max = {s[-1] / s[0] if s[0] else 0.0:.3e}")
    return np.linalg.inv(m)


def rel_fro(x: np.ndarray, y: np.ndarray) -> float:
    """||X - Y||_F relative to ||Y||_F (absolute when Y is zero)."""
    denom = np.linalg.norm(y)
    diff = float(np.linalg.norm(x - y))
    return diff / denom if denom > 0 else diff
