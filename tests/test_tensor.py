import itertools

import numpy as np
import pytest

from fusionframes import (
    ArityMismatch,
    FusionSystem,
    NotADual,
    NotAFrame,
    NotUnitary,
    SubspaceBasis,
    WeightedSubspace,
    alt_dual_frame_check,
    canonical_dual,
    canonical_dual_tensor,
    check_operator_factorization,
    frame_bounds,
    frame_operator,
    is_alternative_dual,
    is_alternative_dual_tensor,
    kron,
    projection,
    roi_tensor,
    tensor_frame_bounds,
    tensor_system,
    transport_tensor_system,
)
from fusionframes.frames import frame_operator_norms
from fusionframes.verify import random_fusion_system

RT2 = np.sqrt(2.0)
V2_S = np.array([[1.5, 0.5], [0.5, 0.5]])
V2_BOUNDS = (1 - 1 / RT2, 1 + 1 / RT2)


def random_frame(rng, dim):
    for _ in range(8):
        sys_ = random_fusion_system(dim, dim, min(2, dim), (0.5, 2.0), rng)
        if frame_bounds(sys_).is_frame:
            return sys_
    raise AssertionError("no frame drawn")


def full_space_system(dim):
    return FusionSystem(dim, (WeightedSubspace(SubspaceBasis(np.eye(dim)), 1.0),))


class TestTensorSystem:
    def test_parseval_tensor(self, parseval_system):
        ts = tensor_system(parseval_system, parseval_system)
        assert len(ts.base.members) == 4
        assert all(m.basis.sub_dim == 1 for m in ts.base.members)
        np.testing.assert_allclose(frame_operator(ts.base), np.eye(4), atol=1e-14)
        for member, (i, j) in zip(ts.base.members, itertools.product(range(2), range(2))):
            p_fact = kron(
                projection(parseval_system.members[i].basis),
                projection(parseval_system.members[j].basis),
            )
            assert np.linalg.norm(projection(member.basis) - p_fact) <= 1e-14

    def test_v2_tensor_frame_operator(self, v2_system):
        ts = tensor_system(v2_system, v2_system)
        np.testing.assert_allclose(frame_operator(ts.base), np.kron(V2_S, V2_S), atol=1e-13)

    def test_identity_factor(self, v2_system):
        ts = tensor_system(v2_system, full_space_system(3))
        np.testing.assert_allclose(
            frame_operator(ts.base), np.kron(V2_S, np.eye(3)), atol=1e-13
        )

    def test_projection_factorization(self, v2_system):
        ts = tensor_system(v2_system, v2_system)
        for member, (i, j) in zip(ts.base.members, itertools.product(range(2), range(2))):
            p_fact = kron(
                projection(v2_system.members[i].basis), projection(v2_system.members[j].basis)
            )
            assert np.linalg.norm(projection(member.basis) - p_fact) <= 1e-10

    def test_weights_multiply(self):
        rng = np.random.default_rng(0)
        v = random_frame(rng, 2)
        w = random_frame(rng, 3)
        ts = tensor_system(v, w)
        assert len(ts.base.members) == len(v) * len(w)
        for k, member in enumerate(ts.base.members):
            i, j = divmod(k, len(w))
            assert member.weight == pytest.approx(v.members[i].weight * w.members[j].weight)


class TestFactorwiseAgainstDense:
    """The factorwise paths against the dense product ``ts.base``."""

    def test_bounds_match_dense(self, v2_system):
        rng = np.random.default_rng(6)
        e1 = SubspaceBasis(np.array([[1.0], [0.0]]))
        nonframe = FusionSystem(2, (WeightedSubspace(e1, 1.0), WeightedSubspace(e1, 2.0)))
        pairs = [(random_frame(rng, 3), random_frame(rng, 4), True) for _ in range(3)]
        pairs += [(nonframe, v2_system, False), (v2_system, nonframe, False)]
        pairs += [(nonframe, nonframe, False)]
        for v, w, is_frame in pairs:
            ts = tensor_system(v, w)
            fw, dense = tensor_frame_bounds(ts), frame_bounds(ts.base)
            assert fw.is_frame == dense.is_frame == is_frame
            assert fw.is_tight == dense.is_tight
            assert abs(fw.lower - dense.lower) <= 1e-12 * dense.upper
            assert abs(fw.upper - dense.upper) <= 1e-12 * dense.upper

    def test_dual_verdicts_match_dense(self):
        rng = np.random.default_rng(7)
        v, w = random_frame(rng, 3), random_frame(rng, 3)
        ts = tensor_system(v, w)
        dv, dw = canonical_dual(v), canonical_dual(w)
        scaled = FusionSystem(3, (WeightedSubspace(dv.members[0].basis, 1.5),) + dv.members[1:])
        cands = [tensor_system(dv, dw), tensor_system(dw, dv), tensor_system(scaled, dw)]
        verdicts = []
        for cand in cands:
            ok, residual = is_alternative_dual_tensor(ts, cand)
            ok_dense, residual_dense = is_alternative_dual(ts.base, cand.base)
            assert ok == ok_dense
            assert abs(residual - residual_dense) <= 1e-12 * max(1.0, residual_dense)
            verdicts.append(ok)
        assert verdicts == [True, False, False]

    def test_factor_of_wrong_arity(self):
        # Six members on each side, but paired 2 x 3 against 3 x 2.
        rng = np.random.default_rng(8)
        v = random_fusion_system(2, 2, 1, (0.5, 2.0), rng)
        w = random_fusion_system(3, 3, 1, (0.5, 2.0), rng)
        cand = tensor_system(
            random_fusion_system(2, 3, 1, (0.5, 2.0), rng),
            random_fusion_system(3, 2, 1, (0.5, 2.0), rng),
        )
        with pytest.raises(ArityMismatch):
            is_alternative_dual_tensor(tensor_system(v, w), cand)

    def test_factorwise_paths_never_build_the_product(self):
        rng = np.random.default_rng(9)
        v, w = random_frame(rng, 3), random_frame(rng, 2)
        ts = tensor_system(v, w)
        dual = canonical_dual_tensor(ts)
        cand = tensor_system(canonical_dual(v), canonical_dual(w))
        tensor_frame_bounds(ts)
        is_alternative_dual_tensor(ts, cand)
        alt_dual_frame_check(ts, dual)
        moved = transport_tensor_system(
            np.linalg.qr(rng.standard_normal((3, 3)))[0], np.eye(2), ts
        )
        tensor_frame_bounds(moved)
        for t in (ts, dual, cand, moved):
            assert "base" not in t.__dict__
        assert ts.base is ts.base and "base" in ts.__dict__


class TestTensorBounds:
    def test_parseval_tight(self, parseval_system):
        b = tensor_frame_bounds(tensor_system(parseval_system, parseval_system))
        assert b.is_tight
        assert abs(b.lower - 1) <= 1e-13 and abs(b.upper - 1) <= 1e-13

    def test_v2_squared_bounds(self, v2_system):
        b = tensor_frame_bounds(tensor_system(v2_system, v2_system))
        assert abs(b.lower - V2_BOUNDS[0] ** 2) <= 1e-12
        assert abs(b.upper - V2_BOUNDS[1] ** 2) <= 1e-12

    def test_products_of_factor_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            v, w = random_frame(rng, 3), random_frame(rng, 4)
            bv, bw = frame_bounds(v), frame_bounds(w)
            bt = tensor_frame_bounds(tensor_system(v, w))
            assert abs(bt.lower - bv.lower * bw.lower) <= 1e-9 * bt.lower
            assert abs(bt.upper - bv.upper * bw.upper) <= 1e-9 * bt.upper

    def test_nonframe_factor_kills_tensor(self, v2_system):
        e1 = SubspaceBasis(np.array([[1.0], [0.0]]))
        nonframe = FusionSystem(2, (WeightedSubspace(e1, 1.0), WeightedSubspace(e1, 1.0)))
        assert not frame_bounds(nonframe).is_frame
        assert not tensor_frame_bounds(tensor_system(nonframe, v2_system)).is_frame
        assert not tensor_frame_bounds(tensor_system(v2_system, nonframe)).is_frame

    def test_spectral_product_multiset(self):
        rng = np.random.default_rng(2)
        v, w = random_frame(rng, 3), random_frame(rng, 3)
        ev_v = np.linalg.eigvalsh(frame_operator(v))
        ev_w = np.linalg.eigvalsh(frame_operator(w))
        ev_t = np.linalg.eigvalsh(frame_operator(tensor_system(v, w).base))
        products = np.sort(np.outer(ev_v, ev_w).ravel())
        np.testing.assert_allclose(ev_t, products, rtol=1e-9, atol=1e-12)


class TestOperatorFactorization:
    def test_parseval(self, parseval_system):
        ok, residuals = check_operator_factorization(
            tensor_system(parseval_system, parseval_system)
        )
        assert ok
        assert residuals["frame_operator"] <= 1e-14
        assert residuals["inverse"] <= 1e-14

    def test_v2(self, v2_system):
        ok, residuals = check_operator_factorization(tensor_system(v2_system, v2_system))
        assert ok
        assert residuals["frame_operator"] <= 1e-10
        assert residuals["inverse"] <= 1e-9

    def test_one_identity_factor(self, v2_system):
        ok, _ = check_operator_factorization(tensor_system(v2_system, full_space_system(2)))
        assert ok


class TestTransport:
    def test_identity_transport(self, v2_system):
        ts = tensor_system(v2_system, v2_system)
        moved = transport_tensor_system(np.eye(2), np.eye(2), ts)
        for a, b in zip(moved.base.members, ts.base.members):
            assert np.linalg.norm(projection(a.basis) - projection(b.basis)) <= 1e-12

    def test_rotation_preserves_bounds(self, v2_system):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        ts = tensor_system(v2_system, v2_system)
        moved = transport_tensor_system(rot, rot, ts)
        r = kron(rot, rot)
        expected = r @ frame_operator(ts.base) @ r.conj().T
        np.testing.assert_allclose(frame_operator(moved.base), expected, atol=1e-12)
        b0, b1 = tensor_frame_bounds(ts), tensor_frame_bounds(moved)
        assert abs(b0.lower - b1.lower) <= 1e-9 and abs(b0.upper - b1.upper) <= 1e-9

    def test_non_unitary_rejected(self, v2_system):
        ts = tensor_system(v2_system, v2_system)
        with pytest.raises(NotUnitary):
            transport_tensor_system(np.diag([1.0, 2.0]), np.eye(2), ts)


class TestRoiTensor:
    def test_one_projection_per_factor_member(self, monkeypatch):
        import fusionframes.tensor as tensor_mod

        v = random_fusion_system(3, 4, 2, (0.5, 2.0), 11)
        w = random_fusion_system(2, 3, 1, (0.5, 2.0), 12)
        calls = []
        real = tensor_mod.projection

        def counted(basis):
            calls.append(basis)
            return real(basis)

        monkeypatch.setattr(tensor_mod, "projection", counted)
        fam = roi_tensor(v, w)
        assert len(fam.ops) == len(v) * len(w)
        assert len(calls) == len(v) + len(w)

    def test_parseval(self, parseval_system):
        fam = roi_tensor(parseval_system, parseval_system)
        acc = sum(s * op for s, op in zip(fam.scalars, fam.ops))
        assert np.linalg.norm(acc - np.eye(4)) <= 1e-14

    def test_v2_sum_to_identity(self, v2_system):
        fam = roi_tensor(v2_system, v2_system)
        acc = sum(s * op for s, op in zip(fam.scalars, fam.ops))
        assert np.linalg.norm(acc - np.eye(4)) / 2.0 <= 1e-10

    def test_two_sided_bound(self, v2_system, parseval_system):
        fam = roi_tensor(v2_system, parseval_system)
        a, b = V2_BOUNDS
        lo, hi = a / b**2, b / a**2
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            fg = np.kron(f / np.linalg.norm(f), g / np.linalg.norm(g))
            energy = sum(
                s * np.linalg.norm(op @ fg) ** 2 for s, op in zip(fam.scalars, fam.ops)
            )
            assert lo - 1e-8 <= energy <= hi + 1e-8

    def test_requires_frames(self, v2_system):
        e1 = SubspaceBasis(np.array([[1.0], [0.0]]))
        nonframe = FusionSystem(2, (WeightedSubspace(e1, 1.0), WeightedSubspace(e1, 1.0)))
        with pytest.raises(NotAFrame):
            roi_tensor(nonframe, v2_system)


class TestTensorDuals:
    def test_parseval_self_dual(self, parseval_system):
        ts = tensor_system(parseval_system, parseval_system)
        dual = canonical_dual_tensor(ts)
        for a, b in zip(dual.base.members, ts.base.members):
            assert np.linalg.norm(projection(a.basis) - projection(b.basis)) <= 1e-12

    def test_v2_dual_factors(self, v2_system):
        # Factor duals: span{(1,-1)/sqrt(2)} and span{e2}.
        ts = tensor_system(v2_system, v2_system)
        dual = canonical_dual_tensor(ts)
        factor_dual = canonical_dual(v2_system)
        for member, (i, j) in zip(dual.base.members, itertools.product(range(2), range(2))):
            p_fact = kron(
                projection(factor_dual.members[i].basis),
                projection(factor_dual.members[j].basis),
            )
            assert np.linalg.norm(projection(member.basis) - p_fact) <= 1e-9

    def test_dual_of_tensor_equals_tensor_of_duals(self):
        rng = np.random.default_rng(4)
        v, w = random_frame(rng, 3), random_frame(rng, 2)
        ts = tensor_system(v, w)
        path1 = canonical_dual_tensor(ts)
        path2 = tensor_system(canonical_dual(v), canonical_dual(w))
        for a, b in zip(path1.base.members, path2.base.members):
            assert np.linalg.norm(projection(a.basis) - projection(b.basis)) <= 1e-9

    def test_canonical_dual_is_alternative_dual(self, v2_system):
        ts = tensor_system(v2_system, v2_system)
        ok, residual = is_alternative_dual_tensor(ts, canonical_dual_tensor(ts))
        assert ok and residual <= 1e-8

    def test_parseval_self_alternative(self, parseval_system):
        ts = tensor_system(parseval_system, parseval_system)
        ok, _ = is_alternative_dual_tensor(ts, ts)
        assert ok

    def test_rank_deficient_candidate(self, v2_system):
        ts = tensor_system(v2_system, v2_system)
        e1 = FusionSystem(
            2,
            (
                WeightedSubspace(SubspaceBasis(np.array([[1.0], [0.0]])), 1.0),
                WeightedSubspace(SubspaceBasis(np.array([[1.0], [0.0]])), 1.0),
            ),
        )
        cand = tensor_system(e1, e1)
        ok, residual = is_alternative_dual_tensor(ts, cand)
        assert not ok and residual > 0.1

    def test_arity_mismatch(self, v2_system, parseval_system):
        ts = tensor_system(v2_system, v2_system)
        single = FusionSystem(
            2, (WeightedSubspace(SubspaceBasis(np.eye(2)), 1.0),)
        )
        with pytest.raises(ArityMismatch):
            is_alternative_dual_tensor(ts, tensor_system(single, single))

    def test_not_a_frame(self, v2_system):
        e1 = SubspaceBasis(np.array([[1.0], [0.0]]))
        nonframe = FusionSystem(2, (WeightedSubspace(e1, 1.0), WeightedSubspace(e1, 1.0)))
        with pytest.raises(NotAFrame):
            canonical_dual_tensor(tensor_system(nonframe, v2_system))

    def test_tensor_of_factor_alt_duals(self):
        rng = np.random.default_rng(5)
        v, w = random_frame(rng, 2), random_frame(rng, 3)
        ts = tensor_system(v, w)
        cand = tensor_system(canonical_dual(v), canonical_dual(w))
        ok, residual = is_alternative_dual_tensor(ts, cand)
        assert ok and residual <= 1e-8


class TestAltDualFrameCheck:
    def test_parseval(self, parseval_system):
        ts = tensor_system(parseval_system, parseval_system)
        bounds = alt_dual_frame_check(ts, canonical_dual_tensor(ts))
        assert abs(bounds.lower - 1) <= 1e-12 and abs(bounds.upper - 1) <= 1e-12
        assert bounds.lower >= 1.0 - 1e-9

    def test_v2_lower_bound_inequality(self, v2_system):
        ts = tensor_system(v2_system, v2_system)
        bounds = alt_dual_frame_check(ts, canonical_dual_tensor(ts))
        d1 = d2 = V2_BOUNDS[1]
        _, s_inv_norm = frame_operator_norms(ts.base)
        assert bounds.is_frame
        assert bounds.lower >= 1.0 / (d1 * d2 * s_inv_norm**2) - 1e-9

    def test_non_dual_rejected(self, v2_system):
        ts = tensor_system(v2_system, v2_system)
        e1 = FusionSystem(
            2,
            (
                WeightedSubspace(SubspaceBasis(np.array([[1.0], [0.0]])), 1.0),
                WeightedSubspace(SubspaceBasis(np.array([[1.0], [0.0]])), 1.0),
            ),
        )
        with pytest.raises(NotADual):
            alt_dual_frame_check(ts, tensor_system(e1, e1))
