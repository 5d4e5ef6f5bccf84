import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionframes import (
    NotHermitian,
    Singular,
    SubspaceBasis,
    ZeroSubspace,
    hermitian_eig,
    invert,
    kron,
    operator_norm,
    orthonormalize,
    tensor_vector,
)
from fusionframes.linalg import adjoint


# --- independent oracles ----------------------------------------------------

def eig2_oracle(a):
    """Eigenvalues of a real symmetric 2x2 matrix by the quadratic formula."""
    tr = a[0][0] + a[1][1]
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    disc = np.sqrt(tr * tr / 4.0 - det)
    return sorted([tr / 2.0 - disc, tr / 2.0 + disc])


def inv2_oracle(a):
    """2x2 inverse by adjugate over determinant."""
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return np.array([[a[1][1], -a[0][1]], [-a[1][0], a[0][0]]]) / det


def kron_oracle(a, b):
    """Entrywise Kronecker definition."""
    a, b = np.asarray(a), np.asarray(b)
    m, n = a.shape
    p, q = b.shape
    out = np.zeros((m * p, n * q), dtype=complex)
    for i in range(m):
        for j in range(n):
            for k in range(p):
                for l in range(q):
                    out[i * p + k, j * q + l] = a[i, j] * b[k, l]
    return out


def tensor_vector_oracle(f, g):
    """Vectorized outer product, row-major (i, j) -> i*len(g)+j."""
    f, g = np.asarray(f), np.asarray(g)
    return np.array([fi * gj for fi in f for gj in g])


def well_conditioned(rng, n, smin=0.5, smax=2.0):
    """Random matrix with singular values in [smin, smax]."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    s = rng.uniform(smin, smax, size=n)
    return u @ np.diag(s) @ adjoint(v)


V2_MATRIX = [[1.5, 0.5], [0.5, 0.5]]


class TestOrthonormalize:
    def test_already_orthonormal(self):
        b = orthonormalize([[1.0, 0.0]])
        assert b.sub_dim == 1
        np.testing.assert_allclose(np.abs(b.matrix.ravel()), [1.0, 0.0], atol=1e-15)

    def test_rank_deficient_span(self):
        # SVD oracle: [[1,2],[1,2]] has singular values (sqrt(10), 0) -> rank 1.
        b = orthonormalize([[1.0, 1.0], [2.0, 2.0]])
        assert b.sub_dim == 1
        np.testing.assert_allclose(np.abs(b.matrix.ravel()), [1 / np.sqrt(2)] * 2, atol=1e-14)

    def test_zero_subspace(self):
        with pytest.raises(ZeroSubspace):
            orthonormalize([[0.0, 0.0]])

    def test_gram_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            vs = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
            b = orthonormalize(list(vs))
            gram = adjoint(b.matrix) @ b.matrix
            assert np.linalg.norm(gram - np.eye(b.sub_dim)) <= 1e-12

    def test_span_preserved(self):
        rng = np.random.default_rng(4)
        vs = rng.standard_normal((2, 4))
        b = orthonormalize(list(vs))
        p = b.matrix @ adjoint(b.matrix)
        for v in vs:
            np.testing.assert_allclose(p @ v, v, atol=1e-12)


class TestHermitianEig:
    def test_identity(self):
        spec = hermitian_eig(np.eye(3))
        np.testing.assert_allclose(spec.eigenvalues, [1, 1, 1])

    def test_2x2_against_characteristic_polynomial(self):
        spec = hermitian_eig(V2_MATRIX)
        np.testing.assert_allclose(spec.eigenvalues, eig2_oracle(V2_MATRIX), atol=1e-14)
        np.testing.assert_allclose(
            spec.eigenvalues, [1 - 1 / np.sqrt(2), 1 + 1 / np.sqrt(2)], atol=1e-14
        )

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig([[0.0, 1.0], [0.0, 0.0]])

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(5)
        for n in (4, 12, 36):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = g + adjoint(g)
            spec = hermitian_eig(a)
            resid = np.linalg.norm(a @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues)
            assert resid <= 1e-10 * np.linalg.norm(a)
            assert np.all(np.diff(spec.eigenvalues) >= 0)


class TestKron:
    def test_identity_factors(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_block_structure(self):
        got = kron([[0, 1], [1, 0]], [[2, 0], [0, 3]])
        b = np.diag([2.0, 3.0])
        z = np.zeros((2, 2))
        expected = np.block([[z, b], [b, z]])
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(got, kron_oracle([[0, 1], [1, 0]], [[2, 0], [0, 3]]))

    def test_adjoint_law(self):
        rng = np.random.default_rng(6)
        q = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.linalg.norm(adjoint(kron(q, t)) - kron(adjoint(q), adjoint(t))) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_operator_laws_random(self, n):
        # Mixed-product, adjoint, inverse laws and norm multiplicativity,
        # 50 draws per size at 1e-9 relative.
        rng = np.random.default_rng(100 + n)
        for _ in range(50):
            q, qp = well_conditioned(rng, n), well_conditioned(rng, n)
            t, tp = well_conditioned(rng, n), well_conditioned(rng, n)
            qt = kron(q, t)
            ref = np.linalg.norm(qt)
            assert np.linalg.norm(qt @ kron(qp, tp) - kron(q @ qp, t @ tp)) <= 1e-9 * ref
            assert np.linalg.norm(adjoint(qt) - kron(adjoint(q), adjoint(t))) <= 1e-9 * ref
            inv = invert(qt)
            assert np.linalg.norm(inv - kron(invert(q), invert(t))) <= 1e-9 * np.linalg.norm(inv)
            nq, nt = operator_norm(q), operator_norm(t)
            assert abs(operator_norm(qt) - nq * nt) <= 1e-10 * nq * nt

    def test_action_on_simple_tensors(self):
        rng = np.random.default_rng(7)
        q = rng.standard_normal((3, 3))
        t = rng.standard_normal((2, 2))
        f, g = rng.standard_normal(3), rng.standard_normal(2)
        np.testing.assert_allclose(
            kron(q, t) @ tensor_vector(f, g), tensor_vector(q @ f, t @ g), atol=1e-12
        )


class TestInvert:
    def test_identity(self):
        np.testing.assert_allclose(invert(np.eye(4)), np.eye(4))

    def test_2x2_adjugate_oracle(self):
        got = invert(V2_MATRIX)
        np.testing.assert_allclose(got, inv2_oracle(V2_MATRIX), atol=1e-14)
        np.testing.assert_allclose(got.real, [[1, -1], [-1, 3]], atol=1e-14)

    def test_singular(self):
        with pytest.raises(Singular):
            invert([[1.0, 1.0], [1.0, 1.0]])

    def test_residual_bound(self):
        rng = np.random.default_rng(8)
        a = well_conditioned(rng, 5, 0.1, 10.0)
        cond = 10.0 / 0.1
        assert np.linalg.norm(a @ invert(a) - np.eye(5)) <= 1e-9 * cond


class TestTensorVector:
    def test_standard_basis(self):
        np.testing.assert_array_equal(tensor_vector([1, 0], [1, 0]), [1, 0, 0, 0])

    def test_entrywise_oracle(self):
        np.testing.assert_array_equal(tensor_vector([1, 1], [1, -1]), [1, -1, 1, -1])
        f, g = [2.0, -3.0, 0.5], [1.0, 4.0]
        np.testing.assert_array_equal(tensor_vector(f, g), tensor_vector_oracle(f, g))

    def test_zero_factor(self):
        out = tensor_vector([1.0, 2.0], [0.0, 0.0])
        assert np.linalg.norm(out) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        f=st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=5),
        g=st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=5),
        alpha=st.complex_numbers(max_magnitude=1e2, allow_nan=False, allow_infinity=False),
    )
    # Subnormal alpha: the two sides round to neighbouring subnormals.
    @example(f=[1.75 + 0j], g=[2.0 + 0j], alpha=2.2250738585e-313 + 0j)
    # alpha * f underflows to 0, so one side is 0 and the other is 1e-322.
    @example(f=[1e-5 + 0j], g=[1e3 + 0j], alpha=1e-320 + 0j)
    def test_norm_factorization_and_bilinearity(self, f, g, alpha):
        fg = tensor_vector(f, g)
        assert fg.size == len(f) * len(g)
        nf, ng = np.linalg.norm(f), np.linalg.norm(g)
        assert abs(np.linalg.norm(fg) - nf * ng) <= 1e-12 * max(nf * ng, 1.0)
        # (alpha f) (x) g and alpha (f (x) g) multiply the same three numbers
        # in a different order, so entry (i, j) of the two differs only by
        # rounding. Standard model with gradual underflow (Higham, Accuracy
        # and Stability of Numerical Algorithms, 2nd ed., sec. 2.1): a real
        # product has relative error at most u = eps/2 plus absolute error at
        # most eta/2, eta the smallest subnormal; a real sum has relative
        # error at most u. A complex product xy is two real products and one
        # sum per component, with or without a fused multiply-add, so it is
        # off by at most 2*sqrt(2)*u*|x||y| + sqrt(2)*eta in modulus, to
        # first order in u.
        # Each side is two complex products, and the error of the first is
        # multiplied by the remaining factor: |g_j| after alpha*f_i, |alpha|
        # after f_i*g_j. Hence
        #   |scaled_ij - (alpha*fg)_ij| <= 8*sqrt(2)*u*|alpha||f_i||g_j|
        #                                  + sqrt(2)*eta*(2 + |alpha| + |g_j|).
        # The u term is relative to the exact entry |alpha f_i g_j|; the eta
        # term is the underflow floor, scaled by what multiplies an underflowed
        # partial product. Below, c1 = 12 > 8*sqrt(2) leaves room for the
        # second-order terms, and as 2 + |alpha| + |g_j| <= 2(1 + |alpha| +
        # |g_j|), c2 = 5 > 2*sqrt(2) + 2 leaves one eta each for rounding the
        # gap and the bound themselves.
        fc = np.asarray(f, dtype=complex)
        scaled = tensor_vector(alpha * fc, g)
        u = np.finfo(float).eps / 2
        eta = np.nextafter(0.0, 1.0)
        af = np.abs(fc)[:, None]
        ag = np.abs(np.asarray(g, dtype=complex))[None, :]
        bound = 12 * u * (abs(alpha) * (af * ag)) + 5 * eta * (1 + abs(alpha) + ag)
        gap = np.abs(scaled - alpha * fg).reshape(bound.shape)
        assert np.all(gap <= bound), f"worst gap/bound {np.max(gap / bound)}"


class TestOperatorNorm:
    def test_examples(self):
        assert operator_norm(np.eye(5)) == 1.0
        assert operator_norm(np.diag([3.0, -4.0])) == 4.0
        assert abs(operator_norm(V2_MATRIX) - (1 + 1 / np.sqrt(2))) <= 1e-12

    def test_psd_matches_top_eigenvalue(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = g @ adjoint(g)
        top = hermitian_eig(a).eigenvalues[-1]
        assert abs(operator_norm(a) - top) <= 1e-10 * top


class TestSubspaceBasis:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            SubspaceBasis(np.array([[1.0], [1.0]]))

    def test_rejects_too_many_columns(self):
        with pytest.raises(ValueError):
            SubspaceBasis(np.ones((2, 3)))

    def test_rejects_basis_whose_gram_overflows(self):
        # The Gram entry overflows to NaN, and NaN > tol is False.
        with pytest.raises(ValueError):
            SubspaceBasis(np.array([[1e200 + 1e200j], [1e200 - 1e200j]]))
