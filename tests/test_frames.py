import numpy as np
import pytest

from fusionframes import (
    ArityMismatch,
    DimensionMismatch,
    FusionSystem,
    NotAFrame,
    SubspaceBasis,
    WeightedSubspace,
    canonical_dual,
    frame_bounds,
    frame_operator,
    is_alternative_dual,
    orthonormalize,
    projection,
    reconstruct,
)
from fusionframes.frames import RESOLUTION_TOL, _identity_residual, _image, frame_operator_norms
from fusionframes.linalg import adjoint
from fusionframes.verify import random_fusion_system

RT2 = np.sqrt(2.0)

# Hand-derived data for the v2_system fixture: S = P1 + P2 with
# P1 = [[1,0],[0,0]], P2 = [[.5,.5],[.5,.5]]; S^-1 = [[1,-1],[-1,3]]
# by adjugate/determinant (det = 0.5); eigenvalues 1 -+ 1/sqrt(2).
V2_S = np.array([[1.5, 0.5], [0.5, 0.5]])
V2_S_INV = np.array([[1.0, -1.0], [-1.0, 3.0]])
V2_BOUNDS = (1 - 1 / RT2, 1 + 1 / RT2)


def transported(t, basis):
    """T V through the library's image map, the one transport path."""
    one = FusionSystem(basis.ambient_dim, (WeightedSubspace(basis, 1.0),))
    return _image(t, one).members[0].basis


def random_frame(rng, dim):
    for _ in range(8):
        sys_ = random_fusion_system(dim, dim, min(2, dim), (0.5, 2.0), rng)
        if frame_bounds(sys_).is_frame:
            return sys_
    raise AssertionError("no frame drawn")


class TestProjection:
    def test_axis(self):
        b = SubspaceBasis(np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(projection(b), [[1, 0], [0, 0]], atol=1e-15)

    def test_diagonal_line(self):
        b = SubspaceBasis(np.array([[1 / RT2], [1 / RT2]]))
        np.testing.assert_allclose(projection(b), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_full_space(self):
        np.testing.assert_allclose(projection(SubspaceBasis(np.eye(3))), np.eye(3), atol=1e-15)

    def test_idempotent_selfadjoint(self):
        rng = np.random.default_rng(0)
        vs = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        p = projection(orthonormalize(list(vs)))
        assert np.linalg.norm(p - adjoint(p)) <= 1e-12
        assert np.linalg.norm(p @ p - p) <= 1e-12


class TestFrameOperator:
    def test_parseval_identity(self, parseval_system):
        np.testing.assert_allclose(frame_operator(parseval_system), np.eye(2), atol=1e-15)

    def test_v2_sum_of_projections(self, v2_system):
        np.testing.assert_allclose(frame_operator(v2_system), V2_S, atol=1e-15)

    def test_full_space_weighted(self):
        sys_ = FusionSystem(3, (WeightedSubspace(SubspaceBasis(np.eye(3)), 2.0),))
        np.testing.assert_allclose(frame_operator(sys_), 4.0 * np.eye(3), atol=1e-15)


class TestFrameBounds:
    def test_parseval_tight(self, parseval_system):
        b = frame_bounds(parseval_system)
        assert b.is_frame and b.is_tight
        assert abs(b.lower - 1) <= 1e-14 and abs(b.upper - 1) <= 1e-14

    def test_v2_eigenvalue_oracle(self, v2_system):
        b = frame_bounds(v2_system)
        assert abs(b.lower - V2_BOUNDS[0]) <= 1e-12
        assert abs(b.upper - V2_BOUNDS[1]) <= 1e-12
        assert b.is_frame and not b.is_tight

    def test_degenerate_system_not_a_frame(self):
        e1 = SubspaceBasis(np.array([[1.0], [0.0]]))
        sys_ = FusionSystem(2, (WeightedSubspace(e1, 1.0), WeightedSubspace(e1, 1.0)))
        b = frame_bounds(sys_)
        assert not b.is_frame
        assert abs(b.lower) <= 1e-14

    def test_frame_inequality_random_unit_vectors(self):
        rng = np.random.default_rng(3)
        sys_ = random_frame(rng, 4)
        b = frame_bounds(sys_)
        s = frame_operator(sys_)
        for _ in range(100):
            f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            f /= np.linalg.norm(f)
            energy = float(np.real(np.vdot(f, s @ f)))
            assert b.lower - 1e-9 <= energy <= b.upper + 1e-9

    def test_bounds_attained_by_extremal_eigenvectors(self):
        rng = np.random.default_rng(4)
        sys_ = random_frame(rng, 4)
        b = frame_bounds(sys_)
        s = frame_operator(sys_)
        w, q = np.linalg.eigh(s)
        for vec, bound in ((q[:, 0], b.lower), (q[:, -1], b.upper)):
            energy = float(np.real(np.vdot(vec, s @ vec)))
            assert abs(energy - bound) <= 1e-8

    def test_weight_scaling(self):
        rng = np.random.default_rng(5)
        sys_ = random_frame(rng, 3)
        c = 2.5
        scaled = FusionSystem(
            3, tuple(WeightedSubspace(m.basis, c * m.weight) for m in sys_.members)
        )
        b0, b1 = frame_bounds(sys_), frame_bounds(scaled)
        assert abs(b1.lower - c**2 * b0.lower) <= 1e-10 * b1.lower
        assert abs(b1.upper - c**2 * b0.upper) <= 1e-10 * b1.upper
        assert b0.is_tight == b1.is_tight


class TestCanonicalDual:
    def test_parseval_self_dual(self, parseval_system):
        dual = canonical_dual(parseval_system)
        for m, d in zip(parseval_system.members, dual.members):
            assert np.linalg.norm(projection(m.basis) - projection(d.basis)) <= 1e-12

    def test_v2_dual_subspaces(self, v2_system):
        # S^-1 e1 = (1, -1); S^-1 (1,1)/sqrt(2) = (0, 2)/sqrt(2) -> span{e2}.
        dual = canonical_dual(v2_system)
        p0 = projection(dual.members[0].basis)
        p1 = projection(dual.members[1].basis)
        np.testing.assert_allclose(p0, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)
        np.testing.assert_allclose(p1, [[0, 0], [0, 1]], atol=1e-12)
        assert [m.weight for m in dual.members] == [1.0, 1.0]

    def test_not_a_frame(self):
        e1 = SubspaceBasis(np.array([[1.0], [0.0]]))
        sys_ = FusionSystem(2, (WeightedSubspace(e1, 1.0),))
        with pytest.raises(NotAFrame):
            canonical_dual(sys_)

    def test_dual_bound_sandwich(self):
        rng = np.random.default_rng(6)
        for dim in (2, 3, 4, 5):
            sys_ = random_frame(rng, dim)
            b = frame_bounds(sys_)
            s_norm, s_inv_norm = frame_operator_norms(sys_)
            db = frame_bounds(canonical_dual(sys_))
            assert db.is_frame
            assert db.lower >= b.lower / (s_norm**2 * s_inv_norm**2) - 1e-8
            assert db.upper <= b.upper * s_norm**2 * s_inv_norm**2 + 1e-8


class TestReconstruction:
    def test_v2_term_sum_is_identity(self, v2_system):
        # Term matrices: [[1,0],[-1,0]] + [[0,0],[1,1]] = I.
        out = reconstruct(v2_system, canonical_dual(v2_system), [1.0, 0.0])
        np.testing.assert_allclose(out, [1, 0], atol=1e-12)

    def test_parseval_roundtrip(self, parseval_system):
        f = np.array([0.3, -1.7])
        out = reconstruct(parseval_system, canonical_dual(parseval_system), f)
        np.testing.assert_allclose(out, f, atol=1e-14)

    def test_zero(self, v2_system):
        out = reconstruct(v2_system, canonical_dual(v2_system), [0.0, 0.0])
        assert np.linalg.norm(out) == 0.0

    def test_identity_residual_random_frames(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3, 4, 6):
            sys_ = random_frame(rng, dim)
            dual = canonical_dual(sys_)
            cols = [reconstruct(sys_, dual, e) for e in np.eye(dim)]
            resid = np.linalg.norm(np.column_stack(cols) - np.eye(dim))
            assert resid <= 1e-8 * np.sqrt(dim)


class TestAlternativeDual:
    def test_canonical_dual_is_alternative_dual(self, v2_system):
        ok, residual = is_alternative_dual(v2_system, canonical_dual(v2_system))
        assert ok and residual <= 1e-10
        # The documented (bool, float), which JSON serializes; numpy scalars do not.
        assert (type(ok), type(residual)) == (bool, float)

    def test_parseval_self(self, parseval_system):
        ok, _ = is_alternative_dual(parseval_system, parseval_system)
        assert ok

    def test_rank_deficient_candidate(self, v2_system):
        e1 = SubspaceBasis(np.array([[1.0], [0.0]]))
        cand = FusionSystem(2, (WeightedSubspace(e1, 1.0), WeightedSubspace(e1, 1.0)))
        ok, residual = is_alternative_dual(v2_system, cand)
        assert not ok and residual > 0.1

    def test_arity_mismatch(self, v2_system):
        e1 = SubspaceBasis(np.array([[1.0], [0.0]]))
        cand = FusionSystem(2, (WeightedSubspace(e1, 1.0),))
        with pytest.raises(ArityMismatch):
            is_alternative_dual(v2_system, cand)

    def test_not_a_frame(self):
        e1 = SubspaceBasis(np.array([[1.0], [0.0]]))
        sys_ = FusionSystem(2, (WeightedSubspace(e1, 1.0),))
        with pytest.raises(NotAFrame):
            is_alternative_dual(sys_, sys_)


class TestResolutionOfIdentity:
    def test_axis_projections(self):
        residual = _identity_residual(np.diag([1.0, 0.0]) + np.diag([0.0, 1.0]))
        assert residual <= RESOLUTION_TOL and residual <= 1e-15

    def test_v2_scaled_family(self, v2_system):
        s_inv = V2_S_INV
        ops = [s_inv @ projection(m.basis) * m.weight**2 for m in v2_system.members]
        assert _identity_residual(sum(ops)) <= RESOLUTION_TOL

    def test_two_identities_fail(self):
        residual = _identity_residual(np.eye(3) + np.eye(3))
        assert not residual <= RESOLUTION_TOL
        assert abs(residual - 1.0) <= 1e-15


class TestTransportSubspace:
    def test_identity_keeps_subspace(self, v2_system):
        b = v2_system.members[1].basis
        moved = transported(np.eye(2), b)
        assert np.linalg.norm(projection(moved) - projection(b)) <= 1e-12

    def test_rotation_moves_axis(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        b = SubspaceBasis(np.array([[1.0], [0.0]]))
        moved = transported(rot, b)
        np.testing.assert_allclose(projection(moved), [[0, 0], [0, 1]], atol=1e-14)

    def test_unitary_commutation(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, _ = np.linalg.qr(g)
        b = orthonormalize(list(rng.standard_normal((2, 4))))
        p_tv = projection(transported(u, b))
        assert np.linalg.norm(p_tv @ u - u @ projection(b)) <= 1e-10

    def test_general_invertible_range_identity(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = orthonormalize(list(rng.standard_normal((2, 4))))
        p_v = projection(b)
        p_tv = projection(transported(t, b))
        lhs = p_v @ adjoint(t)
        assert np.linalg.norm(lhs - lhs @ p_tv) <= 1e-10 * np.linalg.norm(lhs)


class TestConstruction:
    def test_weight_must_be_positive(self):
        b = SubspaceBasis(np.array([[1.0], [0.0]]))
        with pytest.raises(ValueError):
            WeightedSubspace(b, 0.0)
        with pytest.raises(ValueError):
            WeightedSubspace(b, -1.0)

    def test_member_dim_must_match(self):
        b = SubspaceBasis(np.array([[1.0], [0.0]]))
        with pytest.raises(DimensionMismatch):
            FusionSystem(3, (WeightedSubspace(b, 1.0),))

    def test_weights_must_keep_the_frame_operator_finite(self):
        # 2 * v^2 * dim V is 1.62e308 at v = 9e153, and overflows at 1e154.
        line = SubspaceBasis(np.eye(1))
        bounds = frame_bounds(FusionSystem(1, (WeightedSubspace(line, 9e153),)))
        assert bounds.upper == pytest.approx(8.1e307, rel=1e-15)
        for weight in (1e154, 1e200):
            with pytest.raises(ValueError, match="weights too large"):
                FusionSystem(1, (WeightedSubspace(line, weight),))
