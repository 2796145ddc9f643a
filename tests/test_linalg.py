import numpy as np
import pytest

from geokit.errors import ValidationError
from geokit.linalg import (
    DEFAULT_TOL,
    Subspace,
    Tol,
    as_matrix,
    contains,
    equals,
    image_basis,
    kernel_basis,
    max_imag,
    orthonormal_complement,
    pinv,
    preimage,
    rank_of,
    realify_subspace,
    require_real,
    subspace_intersect,
    subspace_sum,
)


def span(*cols):
    return image_basis(np.column_stack([np.asarray(c, dtype=complex) for c in cols]))


E1, E2, E3 = np.eye(3)[:, 0], np.eye(3)[:, 1], np.eye(3)[:, 2]


class TestTol:
    def test_defaults(self):
        assert DEFAULT_TOL.rel == 1e-11 and DEFAULT_TOL.abs == 1e-8

    def test_invalid(self):
        with pytest.raises(ValidationError):
            Tol(rel=0.0)
        with pytest.raises(ValidationError):
            Tol(abs=-1.0)


class TestRank:
    def test_identity(self):
        assert rank_of(np.eye(3)) == 3

    def test_zero(self):
        assert rank_of(np.zeros((2, 5))) == 0

    def test_two_by_two(self):
        # det [[1,1],[-1,-2]] = -1, nonzero by hand
        assert rank_of([[1, 1], [-1, -2]]) == 2

    def test_empty(self):
        assert rank_of(np.zeros((0, 4))) == 0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            rank_of([[np.nan, 0.0]])

    def test_dtype_follows_data(self):
        assert as_matrix([[1, 2], [3, 4]]).dtype == np.float64
        assert as_matrix(np.eye(2)).dtype == np.float64
        assert as_matrix([[1.0, 2j]]).dtype == np.complex128


class TestKernel:
    def test_zero_map_full_kernel(self):
        K = kernel_basis(np.zeros((2, 3)))
        assert K.dim == 3

    def test_identity_trivial_kernel(self):
        assert kernel_basis(np.eye(3)).dim == 0

    def test_companion_chain_pencil(self):
        # [A - lambda*I  B] for the 3-chain at lambda = -1; back substitution
        # gives v = (1, lambda, lambda^2), w = lambda^3 up to scale.
        A = np.array([[0.0, 1, 0], [0, 0, 1], [0, 0, 0]])
        B = np.eye(3)[:, 2:]
        lam = -1.0
        K = kernel_basis(np.hstack([A - lam * np.eye(3), B]))
        assert K.dim == 1
        v = K.basis[:, 0]
        v = v / v[0]
        assert np.allclose(v.real, [1.0, -1.0, 1.0, -1.0], atol=1e-12)

    def test_rank_nullity_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            M = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6)))
            assert kernel_basis(M).dim + rank_of(M) == M.shape[1]

    def test_real_input_gives_real_basis(self):
        M = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        K = kernel_basis(M)
        assert K.dim == 2 and K.basis.dtype == np.float64
        assert kernel_basis(M + 0j).basis.dtype == np.complex128


class TestImage:
    def test_identity(self):
        assert image_basis(np.eye(4)).dim == 4

    def test_zero(self):
        assert image_basis(np.zeros((3, 2))).dim == 0

    def test_proportional_columns(self):
        S = image_basis([[1.0, 2.0], [2.0, 4.0]])
        assert S.dim == 1
        v = S.basis[:, 0]
        expected = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert min(np.linalg.norm(v.real - expected), np.linalg.norm(v.real + expected)) < 1e-12

    def test_real_input_gives_real_basis(self):
        assert image_basis([[1.0, 2.0], [2.0, 4.0]]).basis.dtype == np.float64
        assert image_basis([[1.0, 2j], [2.0, 4j]]).basis.dtype == np.complex128


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(3)), np.eye(3))

    def test_zero(self):
        assert pinv(np.zeros((2, 3))).shape == (3, 2)
        assert np.all(pinv(np.zeros((2, 3))) == 0)

    def test_dtype_follows_input(self):
        for M in (np.eye(2), np.zeros((2, 3)), np.zeros((0, 3))):
            assert pinv(M).dtype == np.float64
            assert pinv(M + 0j).dtype == np.complex128

    def test_exact_inverse(self):
        # adjugate of [[1,1],[-1,-2]]: inverse = [[2,1],[-1,-1]]
        P = pinv([[1.0, 1.0], [-1.0, -2.0]])
        assert np.allclose(P.real, [[2.0, 1.0], [-1.0, -1.0]], atol=1e-12)

    def test_penrose_identities(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            M = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6)))
            if rng.uniform() < 0.3:  # rank-deficient case
                M[:, -1] = M[:, 0] if M.shape[1] > 1 else M[:, -1]
            P = pinv(M)
            assert np.linalg.norm(M @ P @ M - M) < 1e-8
            assert np.linalg.norm(P @ M @ P - P) < 1e-8
            assert np.linalg.norm((M @ P).conj().T - M @ P) < 1e-8
            assert np.linalg.norm((P @ M).conj().T - P @ M) < 1e-8


class TestSubspaceType:
    def test_zero_subspace_is_first_class(self):
        Z = Subspace.zero(4)
        assert Z.dim == 0 and Z.ambient_dim == 4

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValidationError):
            Subspace([[1.0, 1.0], [0.0, 1.0]])

    def test_rejects_wide(self):
        with pytest.raises(ValidationError):
            Subspace(np.ones((1, 2)))

    def test_immutable(self):
        S = Subspace.full(2)
        with pytest.raises(AttributeError):
            S.basis = np.eye(2)
        with pytest.raises(ValueError):
            S.basis[0, 0] = 5.0

    def test_caller_array_stays_writable(self):
        for a in (np.eye(3)[:, :2], np.eye(3)[:, :2] + 0j):
            S = Subspace(a)
            assert a.flags.writeable
            a[0, 0] = 5.0
            assert S.basis[0, 0] == 1.0

    def test_basis_owns_its_storage(self):
        # a kernel basis is cut from the SVD factor; the Subspace must not
        # keep the whole factor alive through a view
        K = kernel_basis(np.ones((1, 50)))
        assert K.dim == 49 and K.basis.flags.owndata


class TestSumIntersect:
    def test_sum_of_axes(self):
        S = subspace_sum(span(E1), span(E2))
        assert S.dim == 2

    def test_sum_idempotent(self):
        U = span([1.0, 1.0, 0.0])
        assert equals(subspace_sum(U, U), U)

    def test_sum_spans_plane(self):
        # det [[1,1],[1,-1]] = -2: the two lines span R^2
        S = subspace_sum(span([1.0, 1.0, 0]) , span([1.0, -1.0, 0]))
        assert S.dim == 2

    def test_intersect_self(self):
        U = span(E1, E2)
        assert equals(subspace_intersect(U, U), U)

    def test_intersect_disjoint(self):
        assert subspace_intersect(span(E1), span(E2)).dim == 0

    def test_intersect_planes(self):
        # solving [a1*e1 + a2*e2 = b1*e2 + b2*e3] gives the e2 line
        S = subspace_intersect(span(E1, E2), span(E2, E3))
        assert S.dim == 1
        assert contains(span(E2), S)

    def test_dimension_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            U = image_basis(rng.standard_normal((n, rng.integers(1, n + 1))))
            V = image_basis(rng.standard_normal((n, rng.integers(1, n + 1))))
            s = subspace_sum(U, V).dim
            i = subspace_intersect(U, V).dim
            assert s + i == U.dim + V.dim

    def test_ambient_mismatch(self):
        with pytest.raises(ValidationError):
            subspace_sum(Subspace.full(2), Subspace.full(3))


class TestPreimage:
    def test_identity_map(self):
        S = span(E2, E3)
        assert equals(preimage(np.eye(3), S), S)

    def test_zero_map(self):
        assert preimage(np.zeros((3, 3)), span(E1)).dim == 3

    def test_shift_map(self):
        # {x : x2*e1 in span e2} = {x : x2 = 0} = span e1
        P = preimage(np.array([[0.0, 1.0], [0.0, 0.0]]), span([0.0, 1.0]))
        assert P.dim == 1
        assert contains(span([1.0, 0.0]), P)

    def test_members_map_into_target(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            M = rng.standard_normal((4, 5))
            S = image_basis(rng.standard_normal((4, 2)))
            P = preimage(M, S)
            for k in range(P.dim):
                y = M @ P.basis[:, k]
                assert np.linalg.norm(y - S.basis @ (S.basis.conj().T @ y)) < 1e-8


class TestContains:
    def test_zero_always_contained(self):
        assert contains(span(E1), Subspace.zero(3))

    def test_zero_contains_nothing(self):
        assert not contains(Subspace.zero(3), span(E1))

    def test_diagonal_line_in_plane(self):
        assert contains(span(E1, E2), span([1.0, 1.0, 0.0]))

    def test_equals_mutual(self):
        U = span(E1, E2)
        V = span([1.0, 1.0, 0.0], [1.0, -1.0, 0.0])
        assert equals(U, V)
        assert not equals(U, span(E1))


class TestRealHelpers:
    def test_max_imag(self):
        assert max_imag(np.array([[1.0, 2.0]])) == 0.0
        assert max_imag(np.array([1 + 2j])) == 2.0

    def test_require_real_raises(self):
        from geokit.errors import NumericalError

        with pytest.raises(NumericalError):
            require_real(np.array([[1e-3j]]))

    def test_realify_conjugate_closed(self):
        v = np.array([1.0 + 1.0j, 2.0 - 1.0j, 0.5j])
        S = image_basis(np.column_stack([v, v.conj()]))
        R = realify_subspace(S)
        assert R.dim == 2
        assert max_imag(R.basis) < 1e-12

    def test_realify_rejects_unbalanced(self):
        v = np.array([1.0 + 1.0j, 2.0 - 1.0j, 0.5j])
        with pytest.raises(ValidationError):
            realify_subspace(image_basis(v[:, None]))

    def test_complement(self):
        C = orthonormal_complement(span(E1))
        assert C.dim == 2
        assert contains(C, span(E2)) and contains(C, span(E3))


def test_operations_deterministic():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((5, 3))
    out1 = image_basis(M).basis
    out2 = image_basis(M).basis
    assert np.array_equal(out1, out2)
    assert np.array_equal(pinv(M), pinv(M))
