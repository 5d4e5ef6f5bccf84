"""The frame operator's spectrum is computed once per system, and what is
derived from it agrees with the dense oracles (per-member projections, LU
inversion) that the verification campaign uses."""

import numpy as np
import pytest

from fusionframes import (
    FusionSystem,
    SubspaceBasis,
    WeightedSubspace,
    canonical_dual,
    frame_bounds,
    frame_operator,
    frame_operator_norms,
    inverse_frame_operator,
    is_alternative_dual,
    orthonormalize,
    projection,
    random_fusion_system,
    reconstruct,
)
from fusionframes.linalg import invert, rel_fro

EPS = np.finfo(float).eps


def graded_frame(rng, dim, kappa):
    """A frame whose S has condition number close to ``kappa``.

    Rank-one members along a random orthonormal basis carry eigenvalues
    log-spaced from 1/kappa to 1; generic two-dimensional members of weight
    1e-4 (eigenvalue shift <= dim * 1e-8) keep S from being diagonal in the
    members' bases.
    """
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    lam = np.logspace(-np.log10(kappa), 0.0, dim)
    members = [
        WeightedSubspace(SubspaceBasis(q[:, [j]]), float(np.sqrt(x))) for j, x in enumerate(lam)
    ]
    for _ in range(dim):
        h = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
        members.append(WeightedSubspace(orthonormalize(h.T), 1e-4))
    return FusionSystem(dim, tuple(members))


def test_each_system_is_decomposed_once(monkeypatch):
    calls = []
    real = np.linalg.eigh

    def counting(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    sys_ = random_fusion_system(5, 6, 2, (0.5, 2.0), 11)
    assert frame_bounds(sys_).is_frame
    frame_operator_norms(sys_)
    inverse_frame_operator(sys_)
    dual = canonical_dual(sys_)
    assert is_alternative_dual(sys_, dual)[0]
    reconstruct(sys_, dual, np.arange(5.0))
    assert calls == [(5, 5)]


CASES = [(seed, dim, kappa) for seed in range(3) for dim in (2, 5, 12) for kappa in (1.0, 1e3, 1e6)]


@pytest.mark.parametrize("seed,dim,kappa", CASES)
def test_inverse_matches_lu_oracle(seed, dim, kappa):
    sys_ = graded_frame(np.random.default_rng([seed, dim]), dim, kappa)
    b = frame_bounds(sys_)
    cond = b.upper / b.lower
    assert kappa / 2 <= cond <= 2 * kappa
    # Each side is the exact inverse of S perturbed by O(dim * eps * ||S||),
    # so each is off by O(dim * cond * eps) relative; 8 leaves room for both.
    oracle = invert(frame_operator(sys_))
    assert rel_fro(inverse_frame_operator(sys_), oracle) <= 8 * dim * cond * EPS
    s_norm, s_inv_norm = frame_operator_norms(sys_)
    assert abs(s_norm - np.linalg.norm(frame_operator(sys_), 2)) <= 8 * dim * EPS * s_norm
    assert abs(s_inv_norm - np.linalg.norm(oracle, 2)) <= 8 * dim * cond * EPS * s_inv_norm


@pytest.mark.parametrize("seed,dim,kappa", CASES)
def test_frame_operator_matches_projection_sum(seed, dim, kappa):
    rng = np.random.default_rng([seed, dim, 1])
    for sys_ in (graded_frame(rng, dim, kappa), random_fusion_system(dim, dim, 2, (0.5, 2.0), rng)):
        oracle = sum(m.weight**2 * projection(m.basis) for m in sys_.members)
        cols = sum(m.basis.sub_dim for m in sys_.members)
        # S is PSD, so every entry's terms are bounded by sqrt(S_ii S_jj) and
        # each side rounds a sum of `cols` of them: ||error||_F is at most
        # ~cols * eps * trace(S) <= cols * eps * sqrt(dim) * ||S||_F per side.
        # The bound does not depend on cond(S).
        assert rel_fro(frame_operator(sys_), oracle) <= 4 * cols * np.sqrt(dim) * EPS
