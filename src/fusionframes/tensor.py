"""Fusion frames on a tensor product of two spaces.

The product space is the Kronecker model: member (i, j) of the tensor
system spans V_i (x) W_j with weight v_i * w_j, and its projection is
kron(P_{V_i}, P_{W_j}).  Members enumerate (i, j) in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotADual, NotAFrame, NotUnitary
from .frames import (
    DUAL_TOL,
    FrameBounds,
    FusionSystem,
    WeightedSubspace,
    _bounds_from_eigenvalues,
    _dual_sum,
    _identity_residual,
    canonical_dual,
    frame_bounds,
    frame_operator,
    inverse_frame_operator,
    projection,
    transport_subspace,
)
from .linalg import SubspaceBasis, adjoint, as_operator, invert, kron, rel_fro

UNITARY_TOL = 1e-10             # ||T^H T - I||_F, relative to sqrt(n)
FACTORIZATION_TOL = 1e-10       # ||S_{VxW} - S_V x S_W||_F, relative to ||S_V x S_W||_F
INVERSE_FACTORIZATION_TOL = 1e-9  # the same for the inverses, relative to ||S_V^-1 x S_W^-1||_F


@dataclass(frozen=True)
class TensorSystem:
    """Tensor-product fusion system, stored as its two factors (V, W).

    Member k is the pair (i, j) = divmod(k, len(W)).  Bounds, duals and the
    dual test work on the factors; ``base`` is the dense product.
    """

    factors: tuple[FusionSystem, FusionSystem]

    @cached_property
    def base(self) -> FusionSystem:
        """The dense product system on dim(H)*dim(K), built on first use."""
        v, w = self.factors
        members = []
        for mv in v.members:
            for mw in w.members:
                basis = SubspaceBasis(np.kron(mv.basis.matrix, mw.basis.matrix))
                members.append(WeightedSubspace(basis=basis, weight=mv.weight * mw.weight))
        return FusionSystem(ambient_dim=v.ambient_dim * w.ambient_dim, members=tuple(members))


@dataclass(frozen=True)
class RoiFamily:
    """Scaled operator family summing to the identity on the product space."""

    ops: tuple[np.ndarray, ...]
    scalars: tuple[float, ...]       # the v_i^2 w_j^2 prefactors


def tensor_system(v: FusionSystem, w: FusionSystem) -> TensorSystem:
    """The system {(V_i (x) W_j, v_i w_j)} over I x J in row-major order."""
    return TensorSystem(factors=(v, w))


def tensor_frame_bounds(ts: TensorSystem) -> FrameBounds:
    """Optimal bounds: the extremal products of factor eigenvalues, as S_{VxW} = S_V (x) S_W."""
    v, w = ts.factors
    return _bounds_from_eigenvalues(np.outer(v.spectrum.eigenvalues, w.spectrum.eigenvalues))


def check_operator_factorization(ts: TensorSystem) -> tuple[bool, dict[str, float]]:
    """Verify S_{VxW} = kron(S_V, S_W) and, when invertible, the same for inverses."""
    v, w = ts.factors
    s_t = frame_operator(ts.base)
    r_s = rel_fro(s_t, kron(frame_operator(v), frame_operator(w)))
    residuals = {"frame_operator": r_s}
    ok = r_s <= FACTORIZATION_TOL
    if frame_bounds(v).is_frame and frame_bounds(w).is_frame:
        r_inv = rel_fro(
            invert(s_t), kron(invert(frame_operator(v)), invert(frame_operator(w)))
        )
        residuals["inverse"] = r_inv
        ok = ok and r_inv <= INVERSE_FACTORIZATION_TOL
    return ok, residuals


def _require_unitary(t: np.ndarray, name: str):
    n = t.shape[0]
    if t.shape != (n, n) or np.linalg.norm(adjoint(t) @ t - np.eye(n)) > UNITARY_TOL * np.sqrt(n):
        raise NotUnitary(f"{name} is not unitary within tolerance")


def _transport_system(t: np.ndarray, sys: FusionSystem) -> FusionSystem:
    members = [WeightedSubspace(transport_subspace(t, m.basis), m.weight) for m in sys.members]
    return FusionSystem(ambient_dim=sys.ambient_dim, members=tuple(members))


def transport_tensor_system(t1, t2, ts: TensorSystem) -> TensorSystem:
    """Image system {((T1 x T2)(V_i x W_j), v_i w_j)}.

    Both operators must be unitary, the hypothesis under which the
    transported system is provably a frame; raises NotUnitary otherwise.
    """
    m1, m2 = as_operator(t1), as_operator(t2)
    _require_unitary(m1, "T1")
    _require_unitary(m2, "T2")
    v, w = ts.factors
    return tensor_system(_transport_system(m1, v), _transport_system(m2, w))


def roi_tensor(v: FusionSystem, w: FusionSystem) -> RoiFamily:
    """Resolution of the identity {v_i^2 w_j^2 kron(P_{V_i} S_V^{-1}, P_{W_j} S_W^{-1})}.

    Uses the canonical factor split a = b = 1.  Raises NotAFrame unless
    both factors are frames.
    """
    sv_inv = inverse_frame_operator(v)
    sw_inv = inverse_frame_operator(w)
    u_ops = [projection(mw.basis) @ sw_inv for mw in w.members]
    ops, scalars = [], []
    for mv in v.members:
        t_i = projection(mv.basis) @ sv_inv
        for mw, u_j in zip(w.members, u_ops):
            ops.append(kron(t_i, u_j))
            scalars.append(mv.weight**2 * mw.weight**2)
    return RoiFamily(ops=tuple(ops), scalars=tuple(scalars))


def canonical_dual_tensor(ts: TensorSystem) -> TensorSystem:
    """Canonical dual of the tensor system, realized factorwise.

    S_{VxW}^{-1}(V_i x W_j) = (S_V^{-1} V_i) x (S_W^{-1} W_j), so the dual
    is the tensor of the factor canonical duals.
    """
    if not tensor_frame_bounds(ts).is_frame:
        raise NotAFrame("tensor system is not a frame")
    v, w = ts.factors
    return tensor_system(canonical_dual(v), canonical_dual(w))


def is_alternative_dual_tensor(ts: TensorSystem, cand: TensorSystem) -> tuple[bool, float]:
    """Test sum v_i w_j v'_i w'_j P_{V'_i x W'_j} S_{VxW}^{-1} P_{V_i x W_j} = I.

    The sum is the kron of the two factor dual sums, so cand pairs factor
    with factor.  Residual as in :func:`fusionframes.frames.is_alternative_dual`.
    """
    (v, w), (cv, cw) = ts.factors, cand.factors
    residual = _identity_residual(kron(_dual_sum(v, cv), _dual_sum(w, cw)))
    return residual <= DUAL_TOL, residual


def alt_dual_frame_check(
    ts: TensorSystem, cand: TensorSystem, slack: float = 1e-9
) -> FrameBounds:
    """Bounds of an alternative dual, checked against the guaranteed floor.

    The dual's optimal lower bound must reach 1 / (D1 * D2 * ||S^{-1}||^2)
    where D1, D2 are the factor upper bounds of the primary system.  With
    D1 * D2 = B and ||S^{-1}|| = 1 / A for its bounds A, B, that is A^2 / B.
    Raises NotADual when cand fails the dual identity.
    """
    ok, residual = is_alternative_dual_tensor(ts, cand)
    if not ok:
        raise NotADual(f"dual identity residual {residual:.3e}")
    primary = tensor_frame_bounds(ts)
    bounds = tensor_frame_bounds(cand)
    floor = primary.lower**2 / primary.upper
    if not bounds.is_frame or bounds.lower < floor - slack:
        raise NotADual(
            f"dual lower bound {bounds.lower:.6e} below guaranteed floor {floor:.6e}"
        )
    return bounds
