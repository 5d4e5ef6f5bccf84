import itertools
import warnings

import numpy as np
import pytest

from fusionframes import (
    ArityMismatch,
    DimensionMismatch,
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
    orthonormalize,
    projection,
    roi_tensor,
    tensor_frame_bounds,
    tensor_system,
    transport_tensor_system,
)
from fusionframes import tensor
from fusionframes.frames import frame_operator_norms
from fusionframes.linalg import invert, rel_fro
from fusionframes.tensor import _product_system
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


def full_space_system(dim, weight=1.0):
    return FusionSystem(dim, (WeightedSubspace(SubspaceBasis(np.eye(dim)), weight),))


def scaled_candidate(n, a, delta):
    """{(C^n, a)} (x) {(C^n, 1)}, and the candidate with weight a * (1 - delta)."""
    one = full_space_system(n)
    return (
        tensor_system(full_space_system(n, a), one),
        tensor_system(full_space_system(n, a * (1 - delta)), one),
    )


def per_member_product(ts):
    """The reference product system: one kron, SubspaceBasis and weight product per (i, j)."""
    v, w = ts.factors
    members = []
    for mv in v.members:
        for mw in w.members:
            basis = SubspaceBasis(np.kron(mv.basis.matrix, mw.basis.matrix))
            members.append(WeightedSubspace(basis=basis, weight=mv.weight * mw.weight))
    return FusionSystem(ambient_dim=v.ambient_dim * w.ambient_dim, members=tuple(members))


def per_member_factorization(ts):
    """check_operator_factorization's residual dict, computed from the reference product."""
    v, w = ts.factors
    s_t = frame_operator(per_member_product(ts))
    s_v, s_w = frame_operator(v), frame_operator(w)
    residuals = {"frame_operator": rel_fro(s_t, np.kron(s_v, s_w))}
    if tensor_frame_bounds(ts).is_frame:
        residuals["inverse"] = rel_fro(invert(s_t), np.kron(invert(s_v), invert(s_w)))
    return residuals


class TestTensorSystem:
    def test_parseval_tensor(self, parseval_system):
        product = _product_system(tensor_system(parseval_system, parseval_system))
        assert len(product.members) == 4
        assert all(m.basis.sub_dim == 1 for m in product.members)
        np.testing.assert_allclose(frame_operator(product), np.eye(4), atol=1e-14)
        for member, (i, j) in zip(product.members, itertools.product(range(2), range(2))):
            p_fact = np.kron(
                projection(parseval_system.members[i].basis),
                projection(parseval_system.members[j].basis),
            )
            assert np.linalg.norm(projection(member.basis) - p_fact) <= 1e-14

    def test_v2_tensor_frame_operator(self, v2_system):
        product = _product_system(tensor_system(v2_system, v2_system))
        np.testing.assert_allclose(frame_operator(product), np.kron(V2_S, V2_S), atol=1e-13)

    def test_identity_factor(self, v2_system):
        ts = tensor_system(v2_system, full_space_system(3))
        np.testing.assert_allclose(
            frame_operator(_product_system(ts)), np.kron(V2_S, np.eye(3)), atol=1e-13
        )

    def test_projection_factorization(self, v2_system):
        product = _product_system(tensor_system(v2_system, v2_system))
        for member, (i, j) in zip(product.members, itertools.product(range(2), range(2))):
            p_fact = np.kron(
                projection(v2_system.members[i].basis), projection(v2_system.members[j].basis)
            )
            assert np.linalg.norm(projection(member.basis) - p_fact) <= 1e-10

    def test_overflowing_product_is_refused(self):
        # Each factor's 2 v^2 dim V = 2e200 is finite; the product's 2e400 is not.
        big = full_space_system(1, 1e100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="weights too large"):
                tensor_system(big, big)

    def test_weights_multiply(self):
        rng = np.random.default_rng(0)
        v = random_frame(rng, 2)
        w = random_frame(rng, 3)
        product = _product_system(tensor_system(v, w))
        assert len(product.members) == len(v) * len(w)
        for k, member in enumerate(product.members):
            i, j = divmod(k, len(w))
            assert member.weight == pytest.approx(v.members[i].weight * w.members[j].weight)


class TestFactorwiseAgainstDense:
    """The factorwise paths against the dense product ``_product_system(ts)``."""

    def test_bounds_match_dense(self, v2_system):
        rng = np.random.default_rng(6)
        e1 = SubspaceBasis(np.array([[1.0], [0.0]]))
        nonframe = FusionSystem(2, (WeightedSubspace(e1, 1.0), WeightedSubspace(e1, 2.0)))
        pairs = [(random_frame(rng, 3), random_frame(rng, 4), True) for _ in range(3)]
        pairs += [(nonframe, v2_system, False), (v2_system, nonframe, False)]
        pairs += [(nonframe, nonframe, False)]
        for v, w, is_frame in pairs:
            ts = tensor_system(v, w)
            fw, dense = tensor_frame_bounds(ts), frame_bounds(_product_system(ts))
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
            ok_dense, residual_dense = is_alternative_dual(
                _product_system(ts), _product_system(cand)
            )
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

    def test_factorwise_paths_never_build_the_product(self, monkeypatch):
        def refuse(ts):
            raise AssertionError("factorwise path built the dense product")

        monkeypatch.setattr(tensor, "_product_system", refuse)
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
        roi_tensor(v, w)


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
        ev_t = np.linalg.eigvalsh(frame_operator(_product_system(tensor_system(v, w))))
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

    def test_ill_conditioned_product_skips_the_inverse(self):
        # Both factors are frames (A = 10^-8.4, B = 1), the product is not
        # (A / B = 10^-16.8), so the inverses are not compared.
        w = (10**-4.2, 1.0, 1.0)
        members = [WeightedSubspace(SubspaceBasis(np.eye(3)[:, [k]]), w[k]) for k in range(3)]
        lines = FusionSystem(3, tuple(members))
        assert frame_bounds(lines).is_frame
        ok, residuals = check_operator_factorization(tensor_system(lines, lines))
        assert ok and set(residuals) == {"frame_operator"}


# (dim, members, max sub-dim, seed) per factor; None is the one-member {(C^2, 1.5)}.
PINNED_PAIRS = [
    ((3, 5, 3, 1), (4, 6, 3, 2)),
    ((4, 3, 3, 3), (3, 4, 2, 4)),
    (None, (3, 4, 3, 5)),
    ((3, 4, 3, 6), None),
    ((2, 2, 2, 7), (16, 16, 2, 8)),  # shaped like the (4, 64) benchmark pair
]


def pinned_factor(spec):
    if spec is None:
        return full_space_system(2, 1.5)
    dim, members, max_subdim, seed = spec
    return random_fusion_system(dim, members, max_subdim, (0.5, 2.0), seed)


class TestProductBlock:
    """The product built from one kron per V-member, bit for bit as the per-member loop."""

    @pytest.mark.parametrize("v_spec,w_spec", PINNED_PAIRS)
    def test_bit_identical_to_the_per_member_loop(self, v_spec, w_spec):
        ts = tensor_system(pinned_factor(v_spec), pinned_factor(w_spec))
        got, ref = _product_system(ts), per_member_product(ts)
        assert len(got) == len(ref)
        for g, r in zip(got.members, ref.members):
            assert g.basis.matrix.shape == r.basis.matrix.shape
            assert g.basis.matrix.tobytes() == r.basis.matrix.tobytes()
            assert type(g.weight) is type(r.weight) and g.weight == r.weight
        assert frame_operator(got).tobytes() == frame_operator(ref).tobytes()
        assert check_operator_factorization(ts)[1] == per_member_factorization(ts)

    def test_a_defective_factor_basis_is_still_refused(self):
        ts = tensor_system(random_fusion_system(3, 4, 2, (0.5, 2.0), 9), full_space_system(2))
        check_operator_factorization(ts)
        ts.factors[0].members[0].basis.matrix[0, 0] *= 1.1
        with pytest.raises(ValueError, match="columns are not orthonormal"):
            check_operator_factorization(ts)

    def test_one_kron_per_v_member(self, monkeypatch):
        rng = np.random.default_rng(10)
        v, w = random_frame(rng, 3), random_frame(rng, 4)
        ts = tensor_system(v, w)
        assert tensor_frame_bounds(ts).is_frame
        calls = []
        real = np.kron

        def counted(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(np, "kron", counted)
        _product_system(ts)
        assert len(calls) == len(v)
        calls.clear()
        check_operator_factorization(ts)
        assert len(calls) == len(v) + 2


class TestTransport:
    def test_identity_transport(self, v2_system):
        ts = tensor_system(v2_system, v2_system)
        moved = transport_tensor_system(np.eye(2), np.eye(2), ts)
        for a, b in zip(_product_system(moved).members, _product_system(ts).members):
            assert np.linalg.norm(projection(a.basis) - projection(b.basis)) <= 1e-12

    def test_rotation_preserves_bounds(self, v2_system):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        ts = tensor_system(v2_system, v2_system)
        moved = transport_tensor_system(rot, rot, ts)
        r = np.kron(rot, rot)
        expected = r @ frame_operator(_product_system(ts)) @ r.conj().T
        np.testing.assert_allclose(frame_operator(_product_system(moved)), expected, atol=1e-12)
        b0, b1 = tensor_frame_bounds(ts), tensor_frame_bounds(moved)
        assert abs(b0.lower - b1.lower) <= 1e-9 and abs(b0.upper - b1.upper) <= 1e-9

    def test_non_unitary_rejected(self, v2_system):
        ts = tensor_system(v2_system, v2_system)
        with pytest.raises(NotUnitary):
            transport_tensor_system(np.diag([1.0, 2.0]), np.eye(2), ts)

    def test_wrong_size_unitary_rejected(self, v2_system):
        ts = tensor_system(v2_system, v2_system)
        with pytest.raises(DimensionMismatch):
            transport_tensor_system(np.eye(3), np.eye(2), ts)
        with pytest.raises(DimensionMismatch):
            transport_tensor_system(np.eye(2), np.eye(3), ts)

    def test_factor_bases_match_transport_subspace(self):
        rng = np.random.default_rng(4)
        v, w = random_frame(rng, 3), random_frame(rng, 4)
        t1, t2 = (np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
                  for n in (3, 4))
        moved = transport_tensor_system(t1, t2, tensor_system(v, w))
        for t, sys_, image in zip((t1, t2), (v, w), moved.factors):
            assert [m.weight for m in image.members] == [m.weight for m in sys_.members]
            for m, mi in zip(sys_.members, image.members):
                transported = orthonormalize((t @ m.basis.matrix).T)
                assert np.array_equal(mi.basis.matrix, transported.matrix)


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
        acc = sum(s * np.asarray(op) for s, op in zip(fam.scalars, fam.ops))
        assert np.linalg.norm(acc - np.eye(4)) <= 1e-14

    def test_v2_sum_to_identity(self, v2_system):
        fam = roi_tensor(v2_system, v2_system)
        acc = sum(s * np.asarray(op) for s, op in zip(fam.scalars, fam.ops))
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

    def test_members_hold_only_factor_matrices(self):
        # Two 16x16 complex factors per member; a dense member would be 1 MiB.
        rng = np.random.default_rng(16)
        fam = roi_tensor(random_frame(rng, 16), random_frame(rng, 16))
        assert len(fam.ops) == 16 * 16
        assert all(op.nbytes <= 2 * 16**2 * 16 for op in fam.ops)

    def test_resolves_identity_at_product_dim_1024(self):
        rng = np.random.default_rng(32)
        v, w = random_frame(rng, 32), random_frame(rng, 32)
        fam = roi_tensor(v, w)
        assert len(fam.ops) == len(v) * len(w) == 32 * 32
        probes = rng.standard_normal((1024, 4)) + 1j * rng.standard_normal((1024, 4))
        acc = sum(s * (op @ probes) for s, op in zip(fam.scalars, fam.ops))
        err = np.linalg.norm(acc - probes, axis=0) / np.linalg.norm(probes, axis=0)
        assert np.max(err) <= 1e-10
        # The family shares one T_i per V member and one U_j per W member:
        # 64 distinct 32x32 complex matrices, 1 MiB, against 16 GiB dense.
        held = {id(a): a.nbytes for op in fam.ops for a in (op.left, op.right)}
        assert sum(held.values()) <= 2 * 2**20

    def test_requires_frames(self, v2_system):
        e1 = SubspaceBasis(np.array([[1.0], [0.0]]))
        nonframe = FusionSystem(2, (WeightedSubspace(e1, 1.0), WeightedSubspace(e1, 1.0)))
        with pytest.raises(NotAFrame):
            roi_tensor(nonframe, v2_system)


class TestTensorDuals:
    def test_parseval_self_dual(self, parseval_system):
        ts = tensor_system(parseval_system, parseval_system)
        dual = canonical_dual_tensor(ts)
        for a, b in zip(_product_system(dual).members, _product_system(ts).members):
            assert np.linalg.norm(projection(a.basis) - projection(b.basis)) <= 1e-12

    def test_v2_dual_factors(self, v2_system):
        # Factor duals: span{(1,-1)/sqrt(2)} and span{e2}.
        ts = tensor_system(v2_system, v2_system)
        dual = _product_system(canonical_dual_tensor(ts))
        factor_dual = canonical_dual(v2_system)
        for member, (i, j) in zip(dual.members, itertools.product(range(2), range(2))):
            p_fact = np.kron(
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
        for a, b in zip(_product_system(path1).members, _product_system(path2).members):
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
        assert (type(ok), type(residual)) == (bool, float)


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
        _, s_inv_norm = frame_operator_norms(_product_system(ts))
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

    # Tight systems, whose canonical duals sit exactly on the A^2 / B floor:
    # a candidate the dual test accepts is accepted here too.
    @pytest.mark.parametrize("n,a,delta", [(1, 1.0, 5e-9), (2, 10.0, 1e-10)])
    def test_agrees_with_the_dual_test_on_the_floor(self, n, a, delta):
        ts, cand = scaled_candidate(n, a, delta)
        assert is_alternative_dual_tensor(ts, cand)[0]
        bounds = alt_dual_frame_check(ts, cand)
        assert bounds == tensor_frame_bounds(cand) and bounds.is_frame

    def test_dual_that_is_not_a_frame_rejected(self):
        # The dual sum is exactly I; the candidate's bounds are 4 and 1e12 + 1,
        # whose ratio 4e-12 is below the frame rule's 1e-10.
        e1, e2 = (SubspaceBasis(np.eye(2)[:, [k]]) for k in range(2))

        def system(*members):
            return FusionSystem(2, tuple(WeightedSubspace(b, c) for b, c in members))

        one = full_space_system(1)
        ts = tensor_system(system((e1, 1.0), (e2, 1.0), (e1, 1.0)), one)
        cand = tensor_system(system((e1, 2.0), (e2, 1.0), (e2, 1e6)), one)
        assert is_alternative_dual_tensor(ts, cand) == (True, 0.0)
        bounds = tensor_frame_bounds(cand)
        assert (bounds.lower, bounds.upper) == pytest.approx((4.0, 1e12 + 1))
        with pytest.raises(NotADual, match="candidate dual is not a frame"):
            alt_dual_frame_check(ts, cand)

    def test_candidate_past_the_tolerance_rejected(self):
        ts, cand = scaled_candidate(1, 1.0, 1e-6)
        with pytest.raises(NotADual):
            alt_dual_frame_check(ts, cand)
