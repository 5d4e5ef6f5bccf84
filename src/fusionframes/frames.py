"""Fusion frame systems on a single space.

A system is a finite family of weighted subspaces {(V_i, v_i)} of C^n.
The frame operator is S = sum_i v_i^2 P_{V_i}; the system is a frame when
the smallest eigenvalue of S is bounded away from zero, and the extremal
eigenvalues of S are the optimal frame bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ArityMismatch, DimensionMismatch, NotAFrame
from .linalg import (
    Spectrum,
    SubspaceBasis,
    adjoint,
    as_operator,
    as_vector,
    check_invertible,
    hermitian_eig,
    orthonormalize,
)

FRAME_TOL_REL = 1e-10   # lower bound must exceed this multiple of ||S||
TIGHT_TOL = 1e-9        # (B - A) <= TIGHT_TOL * B counts as tight
DUAL_TOL = 1e-8         # ||sum - I||_F / sqrt(n), absolute
ROI_TOL = 1e-8          # ||sum - I||_F / sqrt(n), absolute


@dataclass(frozen=True)
class WeightedSubspace:
    basis: SubspaceBasis
    weight: float

    def __post_init__(self):
        if not (self.weight > 0 and np.isfinite(self.weight)):
            raise ValueError(f"weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class FusionSystem:
    """Weighted subspace family; immutable after construction."""

    ambient_dim: int
    members: tuple[WeightedSubspace, ...]

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ValueError("ambient_dim must be positive")
        if not self.members:
            raise ValueError("system needs at least one member")
        object.__setattr__(self, "members", tuple(self.members))
        for k, m in enumerate(self.members):
            if m.basis.ambient_dim != self.ambient_dim:
                raise DimensionMismatch(
                    f"member {k} lives in dim {m.basis.ambient_dim}, "
                    f"system has dim {self.ambient_dim}"
                )

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def spectrum(self) -> Spectrum:
        """Eigendecomposition of the frame operator, computed once per system.

        Bounds, tightness, both operator norms and S^{-1} all derive from it.
        """
        return hermitian_eig(frame_operator(self))


@dataclass(frozen=True)
class CoefficientFamily:
    """One vector per member, each lying in that member's subspace."""

    parts: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(np.asarray(p, dtype=complex) for p in self.parts))


@dataclass(frozen=True)
class FrameBounds:
    """Optimal bounds: extremal eigenvalues of the frame operator."""

    lower: float
    upper: float
    is_frame: bool
    is_tight: bool


def projection(basis: SubspaceBasis) -> np.ndarray:
    """Orthogonal projection onto the subspace, P = B B^H."""
    b = basis.matrix
    return b @ adjoint(b)


def _ambient_vector(sys: FusionSystem, f) -> np.ndarray:
    v = as_vector(f)
    if v.size != sys.ambient_dim:
        raise DimensionMismatch(f"vector dim {v.size} != ambient dim {sys.ambient_dim}")
    return v


def analysis(sys: FusionSystem, f) -> CoefficientFamily:
    """Map f to the family {v_i P_{V_i} f}."""
    v = _ambient_vector(sys, f)
    parts = []
    for m in sys.members:
        b = m.basis.matrix
        parts.append(m.weight * (b @ (adjoint(b) @ v)))
    return CoefficientFamily(tuple(parts))


def synthesis(sys: FusionSystem, coeffs: CoefficientFamily) -> np.ndarray:
    """Adjoint of analysis: sum_i v_i f_i."""
    if len(coeffs.parts) != len(sys.members):
        raise DimensionMismatch(
            f"{len(coeffs.parts)} coefficient parts for {len(sys.members)} members"
        )
    out = np.zeros(sys.ambient_dim, dtype=complex)
    for m, part in zip(sys.members, coeffs.parts):
        p = as_vector(part)
        if p.size != sys.ambient_dim:
            raise DimensionMismatch("coefficient part has wrong dimension")
        out += m.weight * p
    return out


def _synthesis_matrix(sys: FusionSystem) -> np.ndarray:
    """B = [v_1 B_1, ..., v_N B_N], so that S = B B^H."""
    return np.hstack([m.weight * m.basis.matrix for m in sys.members])


def frame_operator(sys: FusionSystem) -> np.ndarray:
    """S = sum_i v_i^2 P_{V_i}; Hermitian and positive semidefinite."""
    b = _synthesis_matrix(sys)
    s = b @ adjoint(b)
    return 0.5 * (s + adjoint(s))


def _bounds_from_eigenvalues(eigenvalues: np.ndarray) -> FrameBounds:
    """Extremal eigenvalues of a frame operator, classified by the one rule."""
    lower, upper = float(eigenvalues.min()), float(eigenvalues.max())
    is_frame = lower > FRAME_TOL_REL * max(upper, 0.0)
    is_tight = is_frame and (upper - lower) <= TIGHT_TOL * upper
    return FrameBounds(lower=lower, upper=upper, is_frame=is_frame, is_tight=is_tight)


def frame_bounds(sys: FusionSystem) -> FrameBounds:
    """Optimal bounds = extremal eigenvalues of the frame operator."""
    return _bounds_from_eigenvalues(sys.spectrum.eigenvalues)


def inverse_frame_operator(sys: FusionSystem) -> np.ndarray:
    """S^{-1} = Q diag(1/lambda) Q^H from the system's cached spectrum.

    Raises NotAFrame when S is not invertible within ``FRAME_TOL_REL``.
    """
    if not frame_bounds(sys).is_frame:
        raise NotAFrame("frame operator is not invertible within tolerance")
    q = sys.spectrum.eigenvectors
    return (q / sys.spectrum.eigenvalues) @ adjoint(q)


def _canonical_dual(sys: FusionSystem, s_inv: np.ndarray) -> FusionSystem:
    members = []
    for m in sys.members:
        cols = s_inv @ m.basis.matrix
        members.append(
            WeightedSubspace(basis=orthonormalize(cols.T), weight=m.weight)
        )
    return FusionSystem(ambient_dim=sys.ambient_dim, members=tuple(members))


def canonical_dual(sys: FusionSystem) -> FusionSystem:
    """The system {(S^{-1} V_i, v_i)}, bases re-orthonormalized."""
    return _canonical_dual(sys, inverse_frame_operator(sys))


def _dual_sum(
    sys: FusionSystem, cand: FusionSystem, s_inv: np.ndarray | None = None
) -> np.ndarray:
    """sum_i v_i v'_i P_{V'_i} S^{-1} P_{V_i}, never forming a projection.

    Term i is (v'_i D_i)(D_i^H S^{-1} B_i)(v_i B_i)^H with D_i, B_i the
    member bases: O(n^2 k_i) work, and one GEMM sums the outer products.
    Without ``s_inv``, checks the candidate first and forms S^{-1} itself.
    """
    if s_inv is None:
        if cand.ambient_dim != sys.ambient_dim:
            raise DimensionMismatch("candidate lives on a different space")
        if len(cand.members) != len(sys.members):
            raise ArityMismatch(f"{len(cand.members)} candidate members for {len(sys.members)}")
        s_inv = inverse_frame_operator(sys)
    left = []
    for m, c in zip(sys.members, cand.members):
        d = c.basis.matrix
        left.append((c.weight * d) @ (adjoint(d) @ s_inv @ m.basis.matrix))
    return np.hstack(left) @ adjoint(_synthesis_matrix(sys))


def _identity_residual(m: np.ndarray) -> float:
    """||M - I||_F / sqrt(dim)."""
    n = m.shape[0]
    return float(np.linalg.norm(m - np.eye(n))) / np.sqrt(n)


def reconstruct(sys: FusionSystem, dual: FusionSystem, f) -> np.ndarray:
    """Apply sum_i v_i v'_i P_{V'_i} S^{-1} P_{V_i} to f (equals f for a dual)."""
    v = _ambient_vector(sys, f)
    return _dual_sum(sys, dual) @ v


def reconstruct_canonical(sys: FusionSystem, f) -> np.ndarray:
    """Apply sum_i v_i^2 P_{S^{-1}V_i} S^{-1} P_{V_i} to f (equals f for a frame)."""
    v = _ambient_vector(sys, f)
    s_inv = inverse_frame_operator(sys)
    return _dual_sum(sys, _canonical_dual(sys, s_inv), s_inv) @ v


def is_alternative_dual(sys: FusionSystem, cand: FusionSystem) -> tuple[bool, float]:
    """Test sum_i v_i v'_i P_{V'_i} S^{-1} P_{V_i} = I.

    Returns (verdict, residual) with residual = ||sum - I||_F / sqrt(dim).
    """
    residual = _identity_residual(_dual_sum(sys, cand))
    return residual <= DUAL_TOL, residual


def check_resolution_of_identity(ops: Sequence) -> tuple[bool, float]:
    """Does the (finite) operator family sum to the identity?

    Unconditional convergence is vacuous for finite lists.  Residual is
    ||sum - I||_F / sqrt(dim).
    """
    mats = [as_operator(o) for o in ops]
    if not mats:
        raise DimensionMismatch("empty operator list")
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise DimensionMismatch(f"expected {n}x{n} operators, got {m.shape}")
    residual = _identity_residual(sum(mats))
    return residual <= ROI_TOL, residual


def transport_subspace(t, basis: SubspaceBasis) -> SubspaceBasis:
    """Orthonormal basis of T V for invertible T.

    For unitary T the transported projection satisfies P_{TV} T = T P_V.
    Raises Singular when T is not invertible.
    """
    m = as_operator(t)
    if m.shape != (basis.ambient_dim, basis.ambient_dim):
        raise DimensionMismatch("operator does not act on the basis's space")
    check_invertible(m)
    return orthonormalize((m @ basis.matrix).T)


def frame_operator_norms(sys: FusionSystem) -> tuple[float, float]:
    """(||S||, ||S^{-1}||) = (lambda_max, 1 / lambda_min) for a frame system."""
    bounds = frame_bounds(sys)
    if not bounds.is_frame:
        raise NotAFrame("frame operator is not invertible within tolerance")
    return bounds.upper, 1.0 / bounds.lower
