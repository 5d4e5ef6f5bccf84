"""Fusion frames on a tensor product of two spaces.

The product space is the Kronecker model: member (i, j) of the tensor
system spans V_i (x) W_j with weight v_i * w_j, and its projection is
kron(P_{V_i}, P_{W_j}).  Members enumerate (i, j) in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotADual, NotAFrame, NotUnitary
from .frames import (
    FrameBounds,
    FusionSystem,
    WeightedSubspace,
    canonical_dual,
    frame_bounds,
    frame_operator,
    frame_operator_norms,
    inverse_frame_operator,
    is_alternative_dual,
    projection,
    transport_subspace,
)
from .linalg import SubspaceBasis, adjoint, as_operator, invert, kron, rel_fro

UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class TensorSystem:
    """Tensor-product fusion system with factor provenance."""

    base: FusionSystem                      # system on dim(H)*dim(K)
    pair_index: tuple[tuple[int, int], ...]  # member k came from factors (i, j)
    factors: tuple[FusionSystem, FusionSystem]


@dataclass(frozen=True)
class RoiFamily:
    """Scaled operator family summing to the identity on the product space."""

    ops: tuple[np.ndarray, ...]
    scalars: tuple[float, ...]       # the v_i^2 w_j^2 prefactors


def _tensor_members(v: FusionSystem, w: FusionSystem):
    members, pairs = [], []
    for i, mv in enumerate(v.members):
        for j, mw in enumerate(w.members):
            basis = SubspaceBasis(np.kron(mv.basis.matrix, mw.basis.matrix))
            members.append(WeightedSubspace(basis=basis, weight=mv.weight * mw.weight))
            pairs.append((i, j))
    return tuple(members), tuple(pairs)


def tensor_system(v: FusionSystem, w: FusionSystem) -> TensorSystem:
    """Build {(V_i (x) W_j, v_i w_j)} over I x J in row-major order."""
    members, pairs = _tensor_members(v, w)
    base = FusionSystem(ambient_dim=v.ambient_dim * w.ambient_dim, members=members)
    return TensorSystem(base=base, pair_index=pairs, factors=(v, w))


def tensor_frame_bounds(ts: TensorSystem) -> FrameBounds:
    """Optimal bounds of the tensor system (products of factor bounds)."""
    return frame_bounds(ts.base)


def check_operator_factorization(
    ts: TensorSystem, tol_s: float = 1e-10, tol_inv: float = 1e-9
) -> tuple[bool, dict[str, float]]:
    """Verify S_{VxW} = kron(S_V, S_W) and, when invertible, the same for inverses."""
    v, w = ts.factors
    s_t = frame_operator(ts.base)
    r_s = rel_fro(s_t, kron(frame_operator(v), frame_operator(w)))
    residuals = {"frame_operator": r_s}
    ok = r_s <= tol_s
    if frame_bounds(v).is_frame and frame_bounds(w).is_frame:
        r_inv = rel_fro(
            invert(s_t), kron(invert(frame_operator(v)), invert(frame_operator(w)))
        )
        residuals["inverse"] = r_inv
        ok = ok and r_inv <= tol_inv
    return ok, residuals


def _require_unitary(t: np.ndarray, name: str):
    n = t.shape[0]
    if t.shape != (n, n) or np.linalg.norm(adjoint(t) @ t - np.eye(n)) > UNITARY_TOL * np.sqrt(n):
        raise NotUnitary(f"{name} is not unitary within tolerance")


def transport_tensor_system(
    t1, t2, ts: TensorSystem, unitary_only: bool = True
) -> TensorSystem:
    """Image system {((T1 x T2)(V_i x W_j), v_i w_j)}.

    By default both operators must be unitary, the hypothesis under which
    the transported system is provably a frame.  Passing
    unitary_only=False accepts any invertible operators and simply builds
    the image system without asserting bound guarantees (experimental).
    """
    m1, m2 = as_operator(t1), as_operator(t2)
    if unitary_only:
        _require_unitary(m1, "T1")
        _require_unitary(m2, "T2")
    v, w = ts.factors
    v_t = FusionSystem(
        ambient_dim=v.ambient_dim,
        members=tuple(
            WeightedSubspace(transport_subspace(m1, m.basis), m.weight) for m in v.members
        ),
    )
    w_t = FusionSystem(
        ambient_dim=w.ambient_dim,
        members=tuple(
            WeightedSubspace(transport_subspace(m2, m.basis), m.weight) for m in w.members
        ),
    )
    return tensor_system(v_t, w_t)


def roi_tensor(v: FusionSystem, w: FusionSystem) -> RoiFamily:
    """Resolution of the identity {v_i^2 w_j^2 kron(P_{V_i} S_V^{-1}, P_{W_j} S_W^{-1})}.

    Uses the canonical factor split a = b = 1.  Raises NotAFrame unless
    both factors are frames.
    """
    sv_inv = inverse_frame_operator(v)
    sw_inv = inverse_frame_operator(w)
    ops, scalars = [], []
    for mv in v.members:
        t_i = projection(mv.basis) @ sv_inv
        for mw in w.members:
            u_j = projection(mw.basis) @ sw_inv
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


def is_alternative_dual_tensor(
    ts: TensorSystem, cand: TensorSystem, dual_tol: float = 1e-8
) -> tuple[bool, float]:
    """Test sum v_i w_j v'_i w'_j P_{V'_i x W'_j} S_{VxW}^{-1} P_{V_i x W_j} = I."""
    return is_alternative_dual(ts.base, cand.base, dual_tol=dual_tol)


def alt_dual_frame_check(
    ts: TensorSystem, cand: TensorSystem, slack: float = 1e-9
) -> FrameBounds:
    """Bounds of an alternative dual, checked against the guaranteed floor.

    The dual's optimal lower bound must reach 1 / (D1 * D2 * ||S^{-1}||^2)
    where D1, D2 are the factor upper bounds of the primary system.
    Raises NotADual when cand fails the dual identity.
    """
    ok, residual = is_alternative_dual_tensor(ts, cand)
    if not ok:
        raise NotADual(f"dual identity residual {residual:.3e}")
    v, w = ts.factors
    d1 = frame_bounds(v).upper
    d2 = frame_bounds(w).upper
    _, s_inv_norm = frame_operator_norms(ts.base)
    bounds = frame_bounds(cand.base)
    floor = 1.0 / (d1 * d2 * s_inv_norm**2)
    if not bounds.is_frame or bounds.lower < floor - slack:
        raise NotADual(
            f"dual lower bound {bounds.lower:.6e} below guaranteed floor {floor:.6e}"
        )
    return bounds
