"""Independent numpy oracle for every output the benchmark checks.

Nothing here imports fusionframes: a system is a plain list of
``(basis, weight)`` pairs, built either from the benchmark's own arrays or
straight from a fusion-frame/1 JSON document, so a later cached or
factorwise path in the library cannot pass by agreeing with itself.
"""

from __future__ import annotations

import numpy as np

# |bound - oracle bound| <= BOUND_RTOL * (oracle upper bound).
BOUND_RTOL = 1e-9
# ||result - x|| <= RESIDUAL_TOL * ||x|| for the dual, ROI and reconstruction checks.
RESIDUAL_TOL = 1e-8
# ||B^H B - I||_F of a stored basis, the loader's own orthonormality scale.
ORTHO_TOL = 1e-10


def frame_operator(system):
    """S = sum w^2 B B^H, as one product of the stacked weighted bases."""
    m = np.hstack([w * b for b, w in system])
    return m @ m.conj().T


def bounds(system) -> tuple[float, float]:
    ev = np.linalg.eigvalsh(frame_operator(system))
    return float(ev[0]), float(ev[-1])


def close(value, expected, scale, rtol=BOUND_RTOL) -> bool:
    return abs(value - expected) <= rtol * abs(scale)


def bounds_match(lower, upper, expected) -> bool:
    lo, hi = expected
    return close(lower, lo, hi) and close(upper, hi, hi)


def tensor(left, right):
    """Members (i, j) of the product in row-major order: kron(B_i, C_j), v_i w_j."""
    return [(np.kron(b, c), v * w) for b, v in left for c, w in right]


def system_from_json(data):
    """(ambient_dim, system) of a fusion-frame/1 document."""
    if data.get("format_version") != "fusion-frame/1":
        raise ValueError("not a fusion-frame/1 document")
    system = []
    for sub in data["subspaces"]:
        cols = np.array(sub["basis"], dtype=float)
        if cols.ndim == 3:  # complex entries stored as [re, im]
            cols = cols[..., 0] + 1j * cols[..., 1]
        system.append((cols.T.astype(complex), float(sub["weight"])))
    return int(data["ambient_dim"]), system


def orthonormal(system) -> bool:
    return all(
        np.linalg.norm(b.conj().T @ b - np.eye(b.shape[1])) <= ORTHO_TOL for b, _ in system
    )


def dual_residual(primary, candidate, vectors) -> float:
    """max ||sum v_i v'_i P'_i S^{-1} P_i x - x|| / ||x|| over the columns x."""
    if len(primary) != len(candidate):
        return float("inf")
    s = frame_operator(primary)
    projected = [b @ (b.conj().T @ vectors) for b, _ in primary]
    solved = np.linalg.solve(s, np.hstack(projected)).reshape(
        s.shape[0], len(primary), vectors.shape[1]
    )
    acc = np.zeros_like(vectors)
    for k, ((_, v), (c, vc)) in enumerate(zip(primary, candidate)):
        acc += v * vc * (c @ (c.conj().T @ solved[:, k, :]))
    return relative_error(acc, vectors)


def roi_residual(scalars, ops, vectors) -> float:
    """Does sum s_k op_k act as the identity on the columns of ``vectors``?"""
    acc = np.zeros_like(vectors)
    for s, op in zip(scalars, ops):
        acc += s * (op @ vectors)
    return relative_error(acc, vectors)


def relative_error(got, want) -> float:
    return float(np.max(np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)))
