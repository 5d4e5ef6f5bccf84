"""Fusion frame systems on a single space.

A system is a finite family of weighted subspaces {(V_i, v_i)} of C^n.
The frame operator is S = sum_i v_i^2 P_{V_i}; the system is a frame when
the smallest eigenvalue of S is bounded away from zero, and the extremal
eigenvalues of S are the optimal frame bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArityMismatch, DimensionMismatch, NotAFrame
from .linalg import (
    Spectrum,
    SubspaceBasis,
    adjoint,
    as_vector,
    orthonormalize,
)

FRAME_TOL_REL = 1e-10   # lower bound must exceed this multiple of ||S||
TIGHT_TOL = 1e-9        # (B - A) <= TIGHT_TOL * B counts as tight
RESOLUTION_TOL = 1e-8   # ||sum - I||_F / sqrt(n), absolute; dual and ROI sums


@dataclass(frozen=True)
class WeightedSubspace:
    basis: SubspaceBasis
    weight: float

    def __post_init__(self):
        if not (self.weight > 0 and np.isfinite(self.weight)):
            raise ValueError(f"weight must be positive, got {self.weight}")


def _weighted_dim(members) -> float:
    """sum_i v_i^2 dim V_i in Python floats, whose products overflow to inf without a warning."""
    return sum(float(m.weight) * float(m.weight) * m.basis.sub_dim for m in members)


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
        # 2 sum_i v_i^2 dim V_i bounds every entry of S, every partial sum of
        # the product that forms it, and S + S^H: while it is finite, so are
        # they.
        if not math.isfinite(2.0 * _weighted_dim(self.members)):
            raise ValueError("weights too large: 2 * sum of v_i^2 * dim V_i overflows a float")

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def spectrum(self) -> Spectrum:
        """Eigendecomposition of the frame operator, computed once per system.

        Bounds, tightness, both operator norms and S^{-1} all derive from it.
        """
        return Spectrum(*np.linalg.eigh(frame_operator(self)))


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


def _synthesis_matrix(sys: FusionSystem) -> np.ndarray:
    """B = [v_1 B_1, ..., v_N B_N], so that S = B B^H."""
    return np.hstack([m.weight * m.basis.matrix for m in sys.members])


def _gram(b: np.ndarray) -> np.ndarray:
    """B B^H, symmetrized so that it is Hermitian to the last bit."""
    s = b @ adjoint(b)
    return 0.5 * (s + adjoint(s))


def frame_operator(sys: FusionSystem) -> np.ndarray:
    """S = sum_i v_i^2 P_{V_i}; Hermitian and positive semidefinite."""
    return _gram(_synthesis_matrix(sys))


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


def _image(t: np.ndarray, sys: FusionSystem) -> FusionSystem:
    """The image system {(T V_i, v_i)}, bases re-orthonormalized.

    The caller makes sure ``t`` is invertible and n x n for the system's n.
    """
    members = [
        WeightedSubspace(basis=orthonormalize((t @ m.basis.matrix).T), weight=m.weight)
        for m in sys.members
    ]
    return FusionSystem(ambient_dim=sys.ambient_dim, members=tuple(members))


def canonical_dual(sys: FusionSystem) -> FusionSystem:
    """The system {(S^{-1} V_i, v_i)}, bases re-orthonormalized."""
    return _image(inverse_frame_operator(sys), sys)


def _dual_sum(sys: FusionSystem, cand: FusionSystem) -> np.ndarray:
    """sum_i v_i v'_i P_{V'_i} S^{-1} P_{V_i}, never forming a projection.

    Term i is (v'_i D_i)(D_i^H S^{-1} B_i)(v_i B_i)^H with D_i, B_i the
    member bases: O(n^2 k_i) work, and one GEMM sums the outer products.
    Checks the candidate first, then forms S^{-1} from the cached spectrum.
    """
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
    """||M - I||_F / sqrt(dim), as a Python float."""
    n = m.shape[0]
    return float(np.linalg.norm(m - np.eye(n)) / np.sqrt(n))


def reconstruct(sys: FusionSystem, dual: FusionSystem, f) -> np.ndarray:
    """Apply sum_i v_i v'_i P_{V'_i} S^{-1} P_{V_i} to f (equals f for a dual)."""
    v = _ambient_vector(sys, f)
    return _dual_sum(sys, dual) @ v


def is_alternative_dual(sys: FusionSystem, cand: FusionSystem) -> tuple[bool, float]:
    """Test sum_i v_i v'_i P_{V'_i} S^{-1} P_{V_i} = I.

    Returns (verdict, residual) with residual = ||sum - I||_F / sqrt(dim).
    """
    residual = _identity_residual(_dual_sum(sys, cand))
    return residual <= RESOLUTION_TOL, residual


def frame_operator_norms(sys: FusionSystem) -> tuple[float, float]:
    """(||S||, ||S^{-1}||) = (lambda_max, 1 / lambda_min) for a frame system."""
    bounds = frame_bounds(sys)
    if not bounds.is_frame:
        raise NotAFrame("frame operator is not invertible within tolerance")
    return bounds.upper, 1.0 / bounds.lower
