"""Fusion frames on a tensor product of two spaces.

The product space is the Kronecker model: member (i, j) of the tensor
system spans V_i (x) W_j with weight v_i * w_j, and its projection is
kron(P_{V_i}, P_{W_j}).  Members enumerate (i, j) in row-major order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotADual, NotAFrame, NotUnitary
from .frames import (
    RESOLUTION_TOL,
    FrameBounds,
    FusionSystem,
    WeightedSubspace,
    _bounds_from_eigenvalues,
    _dual_sum,
    _gram,
    _identity_residual,
    _image,
    _weighted_dim,
    canonical_dual,
    frame_operator,
    inverse_frame_operator,
    projection,
)
from .linalg import (
    KronOperator, SubspaceBasis, _require_orthonormal, adjoint, as_operator, invert, rel_fro
)

UNITARY_TOL = 1e-10             # ||T^H T - I||_F, relative to sqrt(n)
FACTORIZATION_TOL = 1e-10       # ||S_{VxW} - S_V x S_W||_F, relative to ||S_V x S_W||_F
INVERSE_FACTORIZATION_TOL = 1e-9  # the same for the inverses, relative to ||S_V^-1 x S_W^-1||_F


@dataclass(frozen=True)
class TensorSystem:
    """Tensor-product fusion system, stored as its two factors (V, W).

    Member k is the pair (i, j) = divmod(k, len(W)).  Bounds, duals and the
    dual test work on the factors; no product-space matrix is kept.
    """

    factors: tuple[FusionSystem, FusionSystem]

    def __post_init__(self):
        # FusionSystem's overflow rule on the product, whose sum factors.
        if not math.isfinite(2.0 * math.prod(_weighted_dim(f.members) for f in self.factors)):
            raise ValueError("weights too large: 2 * sum of (v_i w_j)^2 dim V_i dim W_j overflows")


@dataclass(frozen=True)
class RoiFamily:
    """Scaled operator family summing to the identity on the product space.

    Member k is ``KronOperator(T_i, U_j)`` for (i, j) = divmod(k, len(W)),
    held as its two factors: apply it with ``op @ x``, densify it with
    ``np.asarray(op)``.
    """

    ops: tuple[KronOperator, ...]
    scalars: tuple[float, ...]       # the v_i^2 w_j^2 prefactors


def tensor_system(v: FusionSystem, w: FusionSystem) -> TensorSystem:
    """The system {(V_i (x) W_j, v_i w_j)} over I x J in row-major order."""
    return TensorSystem(factors=(v, w))


def _product_block(ts: TensorSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(block, weights, offsets): member k = (i, j) is block[:, offsets[k]:offsets[k + 1]].

    That is kron(B_i, C_j), each column weighted v_i w_j.  One kron(B_i, [C_1 ... C_N]) per
    V-member, put in member order by a column order fixed by dim V_i, gives the same floats.
    """
    v, w = ts.factors
    right = np.hstack([m.basis.matrix for m in w.members])
    v_dims, w_dims = ([m.basis.sub_dim for m in f.members] for f in ts.factors)
    # Column p * L + c of kron(B_i, right) belongs to member j(c) of W: sort by (j(c), p, c).
    member_of_col = np.repeat(np.arange(len(w_dims)), w_dims)
    orders = {k: np.argsort(np.tile(member_of_col, k), kind="stable") for k in set(v_dims)}
    offsets = np.cumsum([0, *np.outer(v_dims, w_dims).flat])
    block = np.empty((v.ambient_dim * w.ambient_dim, offsets[-1]), dtype=complex)
    for start, m, k in zip(offsets[:: len(w_dims)], v.members, v_dims):
        block[:, start:start + k * right.shape[1]] = np.kron(m.basis.matrix, right)[:, orders[k]]
    weights = np.outer(*([m.weight for m in f.members] for f in ts.factors)).ravel()
    return block, np.repeat(weights, np.diff(offsets)), offsets


def _product_system(ts: TensorSystem) -> FusionSystem:
    """Dense product system: member (i, j) = (kron(B_i, C_j), v_i w_j), sliced from the block."""
    v, w = ts.factors
    block, _, offsets = _product_block(ts)
    members = [
        WeightedSubspace(SubspaceBasis(block[:, a:b].copy()), mv.weight * mw.weight)
        for (mv, mw), a, b in zip(itertools.product(v.members, w.members), offsets, offsets[1:])
    ]
    return FusionSystem(ambient_dim=v.ambient_dim * w.ambient_dim, members=tuple(members))


def tensor_frame_bounds(ts: TensorSystem) -> FrameBounds:
    """Optimal bounds: the extremal products of factor eigenvalues, as S_{VxW} = S_V (x) S_W."""
    v, w = ts.factors
    return _bounds_from_eigenvalues(np.outer(v.spectrum.eigenvalues, w.spectrum.eigenvalues))


def check_operator_factorization(ts: TensorSystem) -> tuple[bool, dict[str, float]]:
    """Verify S_{VxW} = kron(S_V, S_W) and, for a frame, the same for inverses.

    S_{VxW} = B B^H from the weighted :func:`_product_block`, with no object per member.
    Each member basis gets SubspaceBasis's orthonormality test, batched by member width.
    """
    block, weights, offsets = _product_block(ts)
    widths = np.diff(offsets)
    for width in np.unique(widths):
        cols = offsets[:-1][widths == width, None] + np.arange(width)
        _require_orthonormal(np.moveaxis(block[:, cols], 1, 0))
    s_t = _gram(np.multiply(block, weights, out=block))  # B scaled in place: one block in memory
    s_v, s_w = map(frame_operator, ts.factors)
    r_s = rel_fro(s_t, np.kron(s_v, s_w))
    residuals = {"frame_operator": r_s}
    ok = r_s <= FACTORIZATION_TOL
    if tensor_frame_bounds(ts).is_frame:  # then sigma_min/sigma_max > 1e-10: invert cannot raise
        r_inv = rel_fro(invert(s_t), np.kron(invert(s_v), invert(s_w)))
        residuals["inverse"] = r_inv
        ok = ok and r_inv <= INVERSE_FACTORIZATION_TOL
    return ok, residuals


def _require_unitary(t: np.ndarray, sys: FusionSystem, name: str):
    """Raise unless t is an n x n unitary for the factor's n."""
    n = t.shape[0]
    if t.shape != (n, n) or np.linalg.norm(adjoint(t) @ t - np.eye(n)) > UNITARY_TOL * np.sqrt(n):
        raise NotUnitary(f"{name} is not unitary within tolerance")
    if n != sys.ambient_dim:
        raise DimensionMismatch(f"{name} acts on dim {n}, its factor has dim {sys.ambient_dim}")


def transport_tensor_system(t1, t2, ts: TensorSystem) -> TensorSystem:
    """Image system {((T1 x T2)(V_i x W_j), v_i w_j)}.

    Both operators must be unitary, the hypothesis under which the
    transported system is provably a frame; raises NotUnitary otherwise,
    and DimensionMismatch when one does not act on its factor's space.
    """
    m1, m2 = as_operator(t1), as_operator(t2)
    v, w = ts.factors
    _require_unitary(m1, v, "T1")
    _require_unitary(m2, w, "T2")
    return tensor_system(_image(m1, v), _image(m2, w))


def roi_tensor(v: FusionSystem, w: FusionSystem) -> RoiFamily:
    """Resolution of the identity {v_i^2 w_j^2 kron(P_{V_i} S_V^{-1}, P_{W_j} S_W^{-1})}.

    Uses the canonical factor split a = b = 1.  Each member is a
    KronOperator over one projection per factor member; no product-space
    matrix is built.  Raises NotAFrame unless both factors are frames.
    """
    sv_inv = inverse_frame_operator(v)
    sw_inv = inverse_frame_operator(w)
    u_ops = [projection(mw.basis) @ sw_inv for mw in w.members]
    ops, scalars = [], []
    for mv in v.members:
        t_i = projection(mv.basis) @ sv_inv
        for mw, u_j in zip(w.members, u_ops):
            ops.append(KronOperator(t_i, u_j))
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
    residual = _identity_residual(np.kron(_dual_sum(v, cv), _dual_sum(w, cw)))
    return residual <= RESOLUTION_TOL, residual


def alt_dual_frame_check(ts: TensorSystem, cand: TensorSystem) -> FrameBounds:
    """Bounds of an alternative dual; raises NotADual unless cand is a dual frame.

    The paper's floor 1 / (D1 * D2 * ||S^{-1}||^2) = A^2 / B on the dual's
    lower bound needs no test of its own.  With M = I + E the dual sum,
    Cauchy-Schwarz bounds that lower bound below by (1 - ||E||_2)^2 A^2 / B,
    so an exact dual reaches the floor and an accepted one falls short of it
    by at most about 2 ||E||_2 A^2 / B.
    """
    ok, residual = is_alternative_dual_tensor(ts, cand)
    if not ok:
        raise NotADual(f"dual identity residual {residual:.3e}")
    bounds = tensor_frame_bounds(cand)
    if not bounds.is_frame:
        raise NotADual("candidate dual is not a frame")
    return bounds
