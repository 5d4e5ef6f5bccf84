"""Numerical verification campaign over randomly generated instances.

Each theorem identifier maps to a check routine and its tolerance.  A
routine receives a dedicated random generator and the factor dimension
ranges, builds random instances, and returns one float residual (``inf``
for a structural failure); ``run_checks`` alone passes a trial when
``residual <= tolerance``.  Reproducibility: the generator for trial t of
check c is ``np.random.default_rng([seed, c, t])`` with c the position of
the theorem in ``THEOREM_IDS``; PCG64 streams are portable across
platforms, so reports are byte-identical for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import BadParameters
from .frames import (
    FusionSystem,
    WeightedSubspace,
    _identity_residual,
    _image,
    canonical_dual,
    frame_bounds,
    frame_operator,
    frame_operator_norms,
    is_alternative_dual,
    projection,
)
from .linalg import SubspaceBasis, adjoint, invert, orthonormalize, rel_fro
from .tensor import (
    _product_system,
    alt_dual_frame_check,
    canonical_dual_tensor,
    check_operator_factorization,
    is_alternative_dual_tensor,
    roi_tensor,
    tensor_frame_bounds,
    tensor_system,
    transport_tensor_system,
)

REPORT_VERSION = "fusion-frame-report/1"

IDENTITY_TOL = 1e-9   # relative Frobenius tolerance for operator identities
SLACK = 1e-8          # additive slack for one-sided inequality checks


def random_fusion_system(dim, n_subspaces, max_subdim, weight_range, rng_seed) -> FusionSystem:
    """Random system: Gaussian bases, uniform subspace dims and weights.

    Deterministic for a fixed seed.  ``rng_seed`` may be anything accepted
    by ``np.random.default_rng`` (an int or an existing Generator).
    """
    lo, hi = weight_range
    if not (dim >= 1 and n_subspaces >= 1 and 1 <= max_subdim <= dim):
        raise BadParameters(
            f"need 1 <= max_subdim <= dim and n_subspaces >= 1, "
            f"got dim={dim}, n={n_subspaces}, max_subdim={max_subdim}"
        )
    if not 0 < lo <= hi < np.inf:
        raise BadParameters(f"bad weight range ({lo}, {hi})")
    rng = np.random.default_rng(rng_seed)
    members = []
    for _ in range(n_subspaces):
        k = int(rng.integers(1, max_subdim + 1))
        g = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        members.append(
            WeightedSubspace(basis=orthonormalize(g.T), weight=float(rng.uniform(lo, hi)))
        )
    return FusionSystem(ambient_dim=dim, members=tuple(members))


def _random_frame(rng, dim) -> FusionSystem:
    # dim subspaces of dim <= 2 make the total dimension count >= dim, so a
    # generic draw is a frame; regenerate in the measure-zero failure case.
    for _ in range(8):
        sys = random_fusion_system(dim, dim, min(2, dim), (0.5, 2.0), rng)
        if frame_bounds(sys).is_frame:
            return sys
    raise RuntimeError("could not draw a random frame")


def _random_nonframe(rng, dim) -> FusionSystem:
    """All subspaces inside the hyperplane orthogonal to a random vector."""
    if dim < 2:
        raise BadParameters("non-frame fixture needs dim >= 2")
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    plane = q[:, : dim - 1]  # last column is the annihilated direction
    inner = random_fusion_system(dim - 1, dim, min(2, dim - 1), (0.5, 2.0), rng)
    # plane has orthonormal columns, so it maps orthonormal bases to orthonormal bases.
    members = [
        WeightedSubspace(basis=SubspaceBasis(plane @ m.basis.matrix), weight=m.weight)
        for m in inner.members
    ]
    return FusionSystem(ambient_dim=dim, members=tuple(members))


def _random_unitary(rng, dim) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_unit_vector(rng, dim) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _dim(rng, dims, which) -> int:
    lo, hi = dims[which]
    return int(rng.integers(lo, hi + 1))


def _frame_pair(rng, dims):
    """Random frames V on dims[0] and W on dims[1], and their tensor system."""
    v = _random_frame(rng, _dim(rng, dims, 0))
    w = _random_frame(rng, _dim(rng, dims, 1))
    return v, w, tensor_system(v, w)


def _simple_tensors(rng, v, w):
    """Ten random simple tensors f (x) g of unit vectors, f drawn before g."""
    for _ in range(10):
        yield np.kron(
            _random_unit_vector(rng, v.ambient_dim), _random_unit_vector(rng, w.ambient_dim)
        )


def _transported(rng, v, w, ts):
    """(T1 (x) T2, the image of ts) for random unitaries T1 on H and T2 on K."""
    t1 = _random_unitary(rng, v.ambient_dim)
    t2 = _random_unitary(rng, w.ambient_dim)
    return np.kron(t1, t2), transport_tensor_system(t1, t2, ts)


def _outside(bounds, lower, upper, cond) -> float:
    """How far ``bounds`` leave [lower / cond, upper * cond]; inf if not a frame."""
    if not bounds.is_frame:
        return float("inf")
    return float(max(lower / cond - bounds.lower, bounds.upper - upper * cond, 0.0))


def _canonical_dual_residual(sys, dual) -> float:
    """||sum_i v_i^2 P_{dual_i} S^{-1} P_{V_i} - I||_F / sqrt(n), from dense projections."""
    n = sys.ambient_dim
    s_inv = invert(frame_operator(sys))
    acc = np.zeros((n, n), dtype=complex)
    for m, dm in zip(sys.members, dual.members):
        acc += m.weight**2 * projection(dm.basis) @ s_inv @ projection(m.basis)
    return float(np.linalg.norm(acc - np.eye(n))) / np.sqrt(n)


def _roi_ops(sys) -> list:
    """The family {v_i^2 S^{-1} P_{V_i}} from dense projections."""
    s_inv = invert(frame_operator(sys))
    return [m.weight**2 * s_inv @ projection(m.basis) for m in sys.members]


def _dual_against_dense(ts, cand) -> float:
    """The larger of the factorwise dual residual and the dense oracle's."""
    _, residual = is_alternative_dual_tensor(ts, cand)
    _, residual_dense = is_alternative_dual(_product_system(ts), _product_system(cand))
    return max(residual, residual_dense)


def _transported_subspace(t, member) -> SubspaceBasis:
    """T V through the library's image map, for one weighted subspace V."""
    return _image(t, FusionSystem(ambient_dim=t.shape[0], members=(member,))).members[0].basis


# --- check routines; each returns its residual, run_checks judges it --------

def _check_t2_1(rng, dims):
    dim = _dim(rng, dims, 0)
    member = _random_frame(rng, dim).members[0]
    basis = member.basis
    u = _random_unitary(rng, dim)
    p_tv = projection(_transported_subspace(u, member))
    r1 = np.linalg.norm(p_tv @ u - u @ projection(basis)) / np.sqrt(dim)
    t = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    p_v = projection(basis)
    p_tv2 = projection(_transported_subspace(t, member))
    lhs = p_v @ adjoint(t)
    r2 = np.linalg.norm(lhs - lhs @ p_tv2) / max(np.linalg.norm(lhs), 1.0)
    return float(max(r1, r2))


def _check_d2_3(rng, dims):
    sys = _random_frame(rng, _dim(rng, dims, 0))
    b = frame_bounds(sys)
    s = frame_operator(sys)
    worst = 0.0
    for _ in range(20):
        f = _random_unit_vector(rng, sys.ambient_dim)
        energy = float(np.real(np.vdot(f, s @ f)))
        worst = max(worst, b.lower - energy, energy - b.upper)
    return worst


def _check_n2_5(rng, dims):
    sys = _random_frame(rng, _dim(rng, dims, 0))
    b = frame_bounds(sys)
    s = frame_operator(sys)
    r_h = np.linalg.norm(s - adjoint(s)) / max(np.linalg.norm(s), 1.0)
    ev = np.linalg.eigvalsh(s)
    s_inv = invert(s)
    ev_inv = np.linalg.eigvalsh(0.5 * (s_inv + adjoint(s_inv)))
    viol = max(
        b.lower - ev[0], ev[-1] - b.upper,
        1.0 / b.upper - ev_inv[0], ev_inv[-1] - 1.0 / b.lower,
    )
    return float(max(r_h, viol, 0.0))


def _check_t2_7(rng, dims):
    sys = _random_frame(rng, _dim(rng, dims, 0))
    b = frame_bounds(sys)
    s_norm, s_inv_norm = frame_operator_norms(sys)
    db = frame_bounds(canonical_dual(sys))
    return _outside(db, b.lower, b.upper, s_norm**2 * s_inv_norm**2)


def _check_n2_8(rng, dims):
    sys = _random_frame(rng, _dim(rng, dims, 0))
    return _canonical_dual_residual(sys, canonical_dual(sys))


def _check_d2_9(rng, dims):
    sys = _random_frame(rng, _dim(rng, dims, 0))
    return is_alternative_dual(sys, canonical_dual(sys))[1]


def _check_d2_10(rng, dims):
    sys = _random_frame(rng, _dim(rng, dims, 0))
    return _identity_residual(sum(_roi_ops(sys)))


def _check_t2_13(rng, dims):
    m, n = _dim(rng, dims, 0), _dim(rng, dims, 1)

    def rnd(d):
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    q, qp, t, tp = rnd(m), rnd(m), rnd(n), rnd(n)
    f = _random_unit_vector(rng, m)
    g = _random_unit_vector(rng, n)
    qt = np.kron(q, t)
    norm_q, norm_t = np.linalg.norm(q, 2), np.linalg.norm(t, 2)
    rs = [
        abs(np.linalg.norm(qt, 2) - norm_q * norm_t) / (norm_q * norm_t),
        np.linalg.norm(qt @ np.kron(f, g) - np.kron(q @ f, t @ g)),
        rel_fro(qt @ np.kron(qp, tp), np.kron(q @ qp, t @ tp)),
        rel_fro(adjoint(qt), np.kron(adjoint(q), adjoint(t))),
        rel_fro(invert(qt), np.kron(invert(q), invert(t))),
    ]
    return float(max(rs))


def _check_d3_1(rng, dims):
    v, w, ts = _frame_pair(rng, dims)
    bv, bw = frame_bounds(v), frame_bounds(w)
    s = frame_operator(_product_system(ts))
    worst = 0.0
    for fg in _simple_tensors(rng, v, w):
        energy = float(np.real(np.vdot(fg, s @ fg)))
        worst = max(worst, bv.lower * bw.lower - energy, energy - bv.upper * bw.upper)
    return worst


def _check_n3_3(rng, dims):
    v, w, ts = _frame_pair(rng, dims)
    worst = 0.0
    for k, member in enumerate(_product_system(ts).members):
        i, j = divmod(k, len(w))
        p = projection(member.basis)
        p_fact = np.kron(projection(v.members[i].basis), projection(w.members[j].basis))
        worst = max(worst, float(np.linalg.norm(p - p_fact)))
    return worst


def _check_t3_4(rng, dims):
    v, w, ts = _frame_pair(rng, dims)
    bv, bw = frame_bounds(v), frame_bounds(w)
    # Dense oracle: the library's factorwise bounds must agree with it.
    bt, fw = frame_bounds(_product_system(ts)), tensor_frame_bounds(ts)
    r = max(
        abs(bt.lower - bv.lower * bw.lower) / (bv.lower * bw.lower),
        abs(bt.upper - bv.upper * bw.upper) / (bv.upper * bw.upper),
        abs(fw.lower - bt.lower) / bt.lower,
        abs(fw.upper - bt.upper) / bt.upper,
    )
    # Converse: a non-frame factor must kill the tensor system.
    nf = _random_nonframe(rng, max(_dim(rng, dims, 0), 2))
    if not (bt.is_frame and fw.is_frame) or tensor_frame_bounds(tensor_system(nf, w)).is_frame:
        return float("inf")
    return float(r)


def _check_t3_5(rng, dims):
    _, _, ts = _frame_pair(rng, dims)
    ok, residuals = check_operator_factorization(ts)
    return float(max(residuals.values())) if ok else float("inf")


def _check_t3_7(rng, dims):
    v, w, ts = _frame_pair(rng, dims)
    t12, moved = _transported(rng, v, w, ts)
    bv, bw = frame_bounds(v), frame_bounds(w)
    bm = tensor_frame_bounds(moved)
    cond = np.linalg.norm(t12, 2) ** 2 * np.linalg.norm(invert(t12), 2) ** 2
    return _outside(bm, bv.lower * bw.lower, bv.upper * bw.upper, cond)


def _check_t3_8(rng, dims):
    v, w, ts = _frame_pair(rng, dims)
    t12, moved = _transported(rng, v, w, ts)
    s_moved, s = frame_operator(_product_system(moved)), frame_operator(_product_system(ts))
    r_op = rel_fro(s_moved, t12 @ s @ invert(t12))
    b0, b1 = tensor_frame_bounds(ts), tensor_frame_bounds(moved)
    r_b = max(abs(b1.lower - b0.lower) / b0.lower, abs(b1.upper - b0.upper) / b0.upper)
    return float(max(r_op, r_b))


def _check_p3_10(rng, dims):
    v, w, _ = _frame_pair(rng, dims)
    t_ops, u_ops = _roi_ops(v), _roi_ops(w)
    return _identity_residual(sum(np.kron(t, u) for t in t_ops for u in u_ops))


def _check_n3_11(rng, dims):
    _, _, ts = _frame_pair(rng, dims)
    return _identity_residual(sum(_roi_ops(_product_system(ts))))


def _check_t3_12(rng, dims):
    v, w, ts = _frame_pair(rng, dims)
    fam = roi_tensor(v, w)
    r_sum = _identity_residual(sum(s * np.asarray(op) for s, op in zip(fam.scalars, fam.ops)))
    bv, bw = frame_bounds(v), frame_bounds(w)
    lo = bv.lower * bw.lower / (bv.upper**2 * bw.upper**2)
    hi = bv.upper * bw.upper / (bv.lower**2 * bw.lower**2)
    worst = 0.0
    for fg in _simple_tensors(rng, v, w):
        energy = sum(
            s * float(np.linalg.norm(op @ fg)) ** 2 for s, op in zip(fam.scalars, fam.ops)
        )
        worst = max(worst, lo - energy, energy - hi)
    return float(max(r_sum, worst, 0.0))


def _check_t4_1(rng, dims):
    v, w, ts = _frame_pair(rng, dims)
    bv, bw = frame_bounds(v), frame_bounds(w)
    dual = canonical_dual_tensor(ts)
    s_norm, s_inv_norm = frame_operator_norms(_product_system(ts))
    db = tensor_frame_bounds(dual)
    cond = s_norm**2 * s_inv_norm**2
    return _outside(db, bv.lower * bw.lower, bv.upper * bw.upper, cond)


def _check_d4_2(rng, dims):
    _, _, ts = _frame_pair(rng, dims)
    return _dual_against_dense(ts, canonical_dual_tensor(ts))


def _check_n4_3(rng, dims):
    _, _, ts = _frame_pair(rng, dims)
    dual = canonical_dual_tensor(ts)
    return _canonical_dual_residual(_product_system(ts), _product_system(dual))


def _check_t4_4(rng, dims):
    v, w, ts = _frame_pair(rng, dims)
    # Factor alternative duals, generated as the factor canonical duals.
    cand = tensor_system(canonical_dual(v), canonical_dual(w))
    return _dual_against_dense(ts, cand)


def _check_t4_5(rng, dims):
    v, w, ts = _frame_pair(rng, dims)
    cand = canonical_dual_tensor(ts)
    # Raises NotADual (a failed trial) unless cand is a dual frame; the floor
    # itself is tested here, with ||S^{-1}|| of the dense product system.
    bounds = alt_dual_frame_check(ts, cand)
    d1, d2 = frame_bounds(v).upper, frame_bounds(w).upper
    _, s_inv_norm = frame_operator_norms(_product_system(ts))
    return float(max(1.0 / (d1 * d2 * s_inv_norm**2) - bounds.lower, 0.0))


_CHECKS = {
    "T2.1": (_check_t2_1, 1e-10),
    "D2.3": (_check_d2_3, 1e-9),
    "N2.5": (_check_n2_5, SLACK),
    "T2.7": (_check_t2_7, SLACK),
    "N2.8": (_check_n2_8, SLACK),
    "D2.9": (_check_d2_9, SLACK),
    "D2.10": (_check_d2_10, SLACK),
    "T2.13": (_check_t2_13, IDENTITY_TOL),
    "D3.1": (_check_d3_1, SLACK),
    "N3.3": (_check_n3_3, 1e-10),
    "T3.4": (_check_t3_4, IDENTITY_TOL),
    "T3.5": (_check_t3_5, IDENTITY_TOL),
    "T3.7": (_check_t3_7, SLACK),
    "T3.8": (_check_t3_8, IDENTITY_TOL),
    "P3.10": (_check_p3_10, SLACK),
    "N3.11": (_check_n3_11, SLACK),
    "T3.12": (_check_t3_12, SLACK),
    "T4.1": (_check_t4_1, SLACK),
    "D4.2": (_check_d4_2, SLACK),
    "N4.3": (_check_n4_3, SLACK),
    "T4.4": (_check_t4_4, SLACK),
    "T4.5": (_check_t4_5, SLACK),
}

THEOREM_IDS = tuple(_CHECKS)


@dataclass(frozen=True)
class CheckSpec:
    theorems: tuple[str, ...] = THEOREM_IDS
    trials: int = 25
    seed: int = 1
    dims: tuple[tuple[int, int], tuple[int, int]] = ((2, 6), (2, 6))

    def __post_init__(self):
        if not self.theorems:
            raise BadParameters("no theorem ids given")
        unknown = [t for t in self.theorems if t not in THEOREM_IDS]
        if unknown:
            raise BadParameters(f"unknown theorem ids: {unknown}")
        repeated = sorted({t for t in self.theorems if self.theorems.count(t) > 1})
        if repeated:
            raise BadParameters(f"repeated theorem ids: {repeated}")
        if self.trials < 1:
            raise BadParameters("trials must be positive")
        for lo, hi in self.dims:
            if not 1 <= lo <= hi:
                raise BadParameters(f"bad dimension range {lo}..{hi}")


@dataclass(frozen=True)
class VerificationReport:
    version: str
    seed: int
    checks: tuple[dict, ...]

    @property
    def all_passed(self) -> bool:
        return all(c["passes"] == c["trials"] for c in self.checks)

    @property
    def failing(self) -> list[str]:
        return [c["theorem_id"] for c in self.checks if c["passes"] < c["trials"]]

    def to_json(self) -> str:
        return json.dumps(
            {"version": self.version, "seed": self.seed, "checks": list(self.checks)},
            indent=2,
        )


def run_checks(spec: CheckSpec) -> VerificationReport:
    """Run the campaign; failures are recorded, never raised."""
    records = []
    for theorem_id in spec.theorems:
        fn, tol = _CHECKS[theorem_id]
        c_index = THEOREM_IDS.index(theorem_id)
        passes = 0
        worst = 0.0
        witness = None
        for t in range(spec.trials):
            rng = np.random.default_rng([spec.seed, c_index, t])
            error = None
            try:
                residual = fn(rng, spec.dims)
            except Exception as exc:  # a crash is a failed trial, not a crash of the campaign
                residual, error = float("inf"), repr(exc)
            worst = max(worst, residual)
            if residual <= tol:
                passes += 1
            elif witness is None:
                witness = {
                    "trial": t,
                    "rng_key": [spec.seed, c_index, t],
                    "dims": [list(spec.dims[0]), list(spec.dims[1])],
                    "residual": residual,
                }
                if error is not None:
                    witness["error"] = error
        record = {
            "theorem_id": theorem_id,
            "trials": spec.trials,
            "passes": passes,
            "worst_residual": worst,
            "tolerance": tol,
        }
        if witness is not None:
            record["witness"] = witness
        records.append(record)
    return VerificationReport(version=REPORT_VERSION, seed=spec.seed, checks=tuple(records))
