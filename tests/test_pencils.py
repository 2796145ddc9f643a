import numpy as np
import pytest

from geokit.errors import SpectrumError, ValidationError
from geokit.linalg import equals, image_basis, rank_of
from geokit.pencils import (
    deduplicate_eigenvalues,
    invariant_zeros,
    normal_rank_rosenbrock,
    reach_pencil,
    reach_pencil_kernel,
    rosenbrock_kernel,
    rosenbrock_matrix,
    uncontrollable_eigenvalues,
    validate_spectrum,
)
from geokit.sysmodel import GenSpec, SystemQuad, random_system

CHAIN3 = np.array([[0.0, 1, 0], [0, 0, 1], [0, 0, 0]])
B3 = np.eye(3)[:, 2:]

DI = SystemQuad.from_matrices([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                              [[0.0, 1.0]], [[0.0]])


class TestReachKernel:
    def test_companion_chain(self):
        K = reach_pencil_kernel(CHAIN3, B3, -1.0)
        assert K.q == 1
        v = K.V[:, 0] / K.V[0, 0]
        assert np.allclose(v.real, [1.0, -1.0, 1.0], atol=1e-12)

    def test_uncontrollable_eigenvalue_inflates_kernel(self):
        A = np.diag([1.0, 2.0])
        B = np.eye(2)[:, :1]
        K = reach_pencil_kernel(A, B, 2.0)
        assert K.q == 2
        # (e2; 0) solves the pencil at the uncontrollable eigenvalue
        target = np.zeros(3)
        target[1] = 1.0
        stacked = np.vstack([K.V, K.W])
        resid = target - stacked @ (stacked.conj().T @ target)
        assert np.linalg.norm(resid) < 1e-10

    def test_square_full_rank_B(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))
        for lam in (-1.0, 0.5, 2.0 + 1.0j):
            assert reach_pencil_kernel(A, B, lam).q == 3

    def test_kernel_residual(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 2))
        lam = 0.3 - 1.2j
        K = reach_pencil_kernel(A, B, lam)
        assert K.q == 2
        assert np.linalg.norm((A - lam * np.eye(4)) @ K.V + B @ K.W) < 1e-10

    def test_dtype_follows_lambda(self):
        K = reach_pencil_kernel(CHAIN3, B3, -1.0)
        assert K.V.dtype == K.W.dtype == np.float64
        K = reach_pencil_kernel(CHAIN3, B3, complex(-1.0))
        assert K.V.dtype == K.W.dtype == np.float64
        K = reach_pencil_kernel(CHAIN3, B3, -1.0 + 0.5j)
        assert K.V.dtype == K.W.dtype == np.complex128

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 2))
        lam = 0.7 + 0.9j
        K = reach_pencil_kernel(A, B, lam)
        Kc = reach_pencil_kernel(A, B, lam.conjugate())
        S1 = image_basis(np.vstack([K.V, K.W]).conj())
        S2 = image_basis(np.vstack([Kc.V, Kc.W]))
        assert equals(S1, S2)


class TestRosenbrockKernel:
    def test_no_outputs_is_reach_pencil_kernel(self):
        # with p = 0 the Rosenbrock matrix is [A - λI  B], bit for bit, at
        # real and complex λ and at an eigenvalue of A alike
        sys = random_system(GenSpec(n=6, m=2, p=0, seed=3))
        for lam in (0.0, -1.5, 0.3 + 2.0j, np.linalg.eigvals(sys.A)[0]):
            M = rosenbrock_matrix(sys, lam)
            assert M.dtype == reach_pencil(sys.A, sys.B, lam).dtype
            assert np.array_equal(M, reach_pencil(sys.A, sys.B, lam))
            K, R = rosenbrock_kernel(sys, lam), reach_pencil_kernel(sys.A, sys.B, lam)
            assert np.array_equal(K.V, R.V) and np.array_equal(K.W, R.W)

    def test_double_integrator_trivial_kernel(self):
        # at lambda = -1 the 3x3 system matrix [[1,1,0],[0,1,1],[0,1,0]] has
        # determinant -1 (cofactor expansion), so the kernel is empty
        K = rosenbrock_kernel(DI, -1.0)
        assert K.q == 0

    def test_kernel_at_zero_is_nontrivial(self):
        # det of the system matrix is lambda, so 0 is the only rank-drop point
        K = rosenbrock_kernel(DI, 0.0)
        assert K.q == 1

    def test_dtype_follows_lambda(self):
        assert rosenbrock_matrix(DI, -1.0).dtype == np.float64
        K = rosenbrock_kernel(DI, 0.0)
        assert K.V.dtype == K.W.dtype == np.float64
        # D = I forces w = 0; at λ = i the kernel is A's eigenvector there
        rot = SystemQuad.from_matrices([[0.0, 1.0], [-1.0, 0.0]], np.eye(2),
                                       np.zeros((2, 2)), np.eye(2))
        K = rosenbrock_kernel(rot, 1.0j)
        assert K.q == 1 and K.V.dtype == K.W.dtype == np.complex128

    def test_invertible_D_zero_C(self):
        A = np.diag([1.0, 2.0, 2.0])
        sys = SystemQuad.from_matrices(A, np.eye(3), np.zeros((3, 3)), np.eye(3))
        # Cv + Dw = w forces w = 0; kernel = eigenspace of A at lambda
        assert rosenbrock_kernel(sys, 2.0).q == 2
        assert rosenbrock_kernel(sys, 1.0).q == 1
        assert rosenbrock_kernel(sys, 5.0).q == 0


class TestUncontrollable:
    def test_controllable_pair_empty(self):
        assert uncontrollable_eigenvalues(CHAIN3, B3) == []

    def test_diag_pair(self):
        vals = uncontrollable_eigenvalues(np.diag([1.0, 2.0]), np.eye(2)[:, :1])
        assert len(vals) == 1 and abs(vals[0] - 2.0) < 1e-9

    def test_zero_B_all_eigenvalues(self):
        A = np.diag([1.0, 2.0, 3.0])
        vals = sorted(v.real for v in uncontrollable_eigenvalues(A, np.zeros((3, 1))))
        assert np.allclose(vals, [1.0, 2.0, 3.0])

    def test_pbh_consistency(self):
        from geokit.geometry import reachable_subspace

        rng = np.random.default_rng(3)
        for t in range(20):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, int(rng.integers(1, 3))))
            if t % 2:
                k = int(rng.integers(1, n))
                A[k:, :k] = 0.0
                B[k:, :] = 0.0
            empty = not uncontrollable_eigenvalues(A, B)
            full = reachable_subspace(A, B)[0].dim == n
            assert empty == full


class TestInvariantZeros:
    def test_double_integrator_zero_at_origin(self):
        zs = invariant_zeros(DI)
        assert len(zs) == 1 and abs(zs[0]) < 1e-9

    def test_relative_degree_two_no_zeros(self):
        sys = SystemQuad.from_matrices(DI.A, DI.B, [[1.0, 0.0]], [[0.0]])
        assert invariant_zeros(sys) == []

    def test_square_invertible_D_schur_oracle(self):
        rng = np.random.default_rng(4)
        for seed in range(6):
            sys = random_system(GenSpec(n=4, m=2, p=2, seed=seed))
            zs = np.sort_complex(np.array(invariant_zeros(sys)))
            oracle = np.sort_complex(np.linalg.eigvals(
                sys.A - sys.B @ np.linalg.solve(sys.D, sys.C)))
            assert len(zs) == len(oracle)
            assert np.abs(zs - oracle).max() < 1e-6

    def test_zeros_drop_rank(self):
        rng = np.random.default_rng(5)
        for seed in range(8):
            n = int(rng.integers(2, 6))
            sys = random_system(GenSpec(n=n, m=2, p=2, seed=100 + seed))
            nr = normal_rank_rosenbrock(sys)
            for z in deduplicate_eigenvalues(invariant_zeros(sys), 1e-6):
                assert rank_of(rosenbrock_matrix(sys, z)) < nr


class TestValidateSpectrum:
    def test_accepts_plain_reals(self):
        spec = validate_spectrum([-1.0, -2.0])
        assert spec.partner == (0, 1)
        assert spec.is_real(0) and spec.is_real(1)

    def test_rejects_lonely_complex(self):
        with pytest.raises(SpectrumError):
            validate_spectrum([complex(-1, 1)])

    def test_rejects_duplicates(self):
        with pytest.raises(SpectrumError):
            validate_spectrum([2.0, 2.0])

    def test_rejects_forbidden(self):
        with pytest.raises(SpectrumError):
            validate_spectrum([2.0], forbidden=[2.0])

    def test_conjugate_pairing(self):
        spec = validate_spectrum([complex(-1, 1), -3.0, complex(-1, -1)])
        assert spec.partner == (2, 1, 0)
        assert not spec.is_real(0) and spec.is_real(1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(-1.0, np.nan), complex(np.inf, 1.0)])
    def test_rejects_non_finite(self, bad):
        # NaN compares unequal to everything, so it would pass the other checks
        with pytest.raises(SpectrumError, match="not finite"):
            validate_spectrum([bad, -1.0])

    def test_forbidden_margin(self):
        # within ten comparison scales of a forbidden value: rejected
        with pytest.raises(SpectrumError):
            validate_spectrum([2.0 + 1e-12], forbidden=[2.0])


def test_deduplicate():
    vals = [1.0, 1.0 + 1e-12, 2.0, 2.0 + 0.5j]
    out = deduplicate_eigenvalues(vals, 1e-9)
    assert len(out) == 3
