import dataclasses
import itertools
import re
import struct

import numpy as np
import pytest

from geokit import geometry, linalg, pencils
from geokit.errors import SpectrumError, ValidationError
from geokit.linalg import DEFAULT_TOL, Tol, _svd_rank, equals, image_basis, kernel_basis, rank_of, svd
from geokit.pencils import (
    deduplicate_eigenvalues,
    invariant_zeros,
    normal_rank_rosenbrock,
    reach_pencil_kernel,
    rosenbrock_kernel,
    rosenbrock_kernels,
    rosenbrock_matrix,
    spectrum_scale,
    uncontrollable_eigenvalues,
    validate_spectrum,
)
from geokit.sysmodel import GenSpec, SystemQuad, random_system

from planted import planted_join
from proof_limit import proof_limit
from sampled_rank import sampled_normal_rank

CHAIN3 = np.array([[0.0, 1, 0], [0, 0, 1], [0, 0, 0]])
B3 = np.eye(3)[:, 2:]


def _record_gesdd(monkeypatch) -> list[tuple[tuple[int, int], bool]]:
    """Patch each ``gesdd`` of ``linalg._LAPACK`` to record the shape and the
    ``compute_uv`` flag of every call."""
    calls = []
    for routines in linalg._LAPACK.values():
        def recorded(M, gesdd=routines["gesdd"], **kwargs):
            calls.append((M.shape, kwargs["compute_uv"]))
            return gesdd(M, **kwargs)
        monkeypatch.setitem(routines, "gesdd", recorded)
    return calls


def _record_calls(monkeypatch, name: str) -> list[str]:
    """Patch ``name`` in each dtype of ``linalg._LAPACK`` to record the dtype
    kind of every call, workspace queries (``lwork=-1``) left out."""
    calls = []
    for kind, routines in linalg._LAPACK.items():
        if name not in routines:  # a routine bound for one dtype only
            continue

        def recorded(*args, routine=routines[name], kind=kind, **kwargs):
            if kwargs.get("lwork") != -1:
                calls.append(kind)
            return routine(*args, **kwargs)
        monkeypatch.setitem(routines, name, recorded)
    return calls


def _record_geqrf(monkeypatch) -> list[tuple[int, int]]:
    """Patch each ``geqrf`` of ``linalg._LAPACK`` to record the shape of
    every factorization, workspace queries (``lwork=-1``) left out."""
    calls = []
    for routines in linalg._LAPACK.values():
        def recorded(M, geqrf=routines["geqrf"], **kwargs):
            if kwargs.get("lwork") != -1:
                calls.append(M.shape)
            return geqrf(M, **kwargs)
        monkeypatch.setitem(routines, "geqrf", recorded)
    return calls


def reach_pencil(A, B, lam):
    """[A - λI  B], written out: real at a real λ."""
    lam = complex(lam)
    return np.hstack([A - (lam if lam.imag else lam.real) * np.eye(A.shape[0]), B])


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

    def test_kernel_is_frozen_and_slotted(self):
        K = rosenbrock_kernel(DI, 0.0)
        for field in ("lam", "V", "W"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(K, field, None)
        assert not hasattr(K, "__dict__")
        assert (K.lam, K.q) == (0.0, 1)

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


def _one_svd_kernel(M, n):
    """The kernel that one full SVD of M and its own rank decision give."""
    _, s, vh = svd(M)
    K = vh[_svd_rank(s, M.shape, DEFAULT_TOL):].conj().T
    return K[:n], K[n:]


SHAPES = {"square": (6, 2, 2), "tall": (6, 2, 3), "wide": (6, 3, 2), "no-outputs": (6, 2, 0)}


class TestKernelIsOneSvdDecision:
    # A square or tall pencil is factored only when it loses rank; each
    # kernel must still be the one full SVD's, bit for bit, shape and dtype.
    @pytest.mark.parametrize("lam, dtype", [(-1.3, np.float64), (0.4 + 1.1j, np.complex128)])
    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_rosenbrock_kernel(self, shape, lam, dtype):
        # empty for m <= p: shaped (n, 0) and (m, 0), in the pencil's dtype
        sys = random_system(GenSpec(*shape, seed=1))
        K = rosenbrock_kernel(sys, lam)
        q = max(sys.m - sys.p, 0)
        assert K.V.shape == (sys.n, q) and K.W.shape == (sys.m, q)
        assert K.V.dtype == K.W.dtype == dtype
        V, W = _one_svd_kernel(rosenbrock_matrix(sys, lam), sys.n)
        assert np.array_equal(K.V, V) and np.array_equal(K.W, W)

    @pytest.mark.parametrize("lam", [-1.3, 0.4 + 1.1j])
    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_reach_pencil_kernel(self, shape, lam):
        sys = random_system(GenSpec(*shape, seed=1))
        K = reach_pencil_kernel(sys.A, sys.B, lam)
        V, W = _one_svd_kernel(reach_pencil(sys.A, sys.B, lam), sys.n)
        assert K.V.dtype == V.dtype and K.W.dtype == W.dtype
        assert np.array_equal(K.V, V) and np.array_equal(K.W, W)
        assert K.q == sys.m

    @pytest.mark.parametrize("lam", [np.nan, np.inf, complex(1.0, -np.inf)])
    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_non_finite_value_is_refused(self, shape, lam):
        # refused before any matrix is built, tall or wide
        sys = random_system(GenSpec(*shape, seed=1))
        with pytest.raises(SpectrumError, match="not finite"):
            rosenbrock_kernel(sys, lam)

    def test_at_the_invariant_zeros_of_a_square_system(self):
        sys = random_system(GenSpec(6, 2, 2, seed=1))
        zeros = invariant_zeros(sys)
        assert any(z.imag == 0.0 for z in zeros) and any(z.imag for z in zeros)
        for z in zeros:
            K = rosenbrock_kernel(sys, z)
            V, W = _one_svd_kernel(rosenbrock_matrix(sys, z), sys.n)
            assert K.q == 1
            assert K.V.dtype == V.dtype and np.array_equal(K.V, V) and np.array_equal(K.W, W)

    @staticmethod
    def _count_factors(monkeypatch) -> tuple[list[bool], list[tuple[int, int]]]:
        """The ``compute_uv`` flag of each ``gesdd`` call and the shape of
        each ``geqrf`` call that the pencil kernels make, the frame's own
        factorizations left out."""
        svds, qrs, kernels = [], [], pencils.rosenbrock_kernels
        gesdd, geqrf = _record_gesdd(monkeypatch), _record_geqrf(monkeypatch)

        def counted(*args):
            start_svd, start_qr = len(gesdd), len(geqrf)
            out = kernels(*args)
            svds.extend(uv for _, uv in gesdd[start_svd:])
            qrs.extend(geqrf[start_qr:])
            return out

        monkeypatch.setattr(pencils, "rosenbrock_kernels", counted)
        return svds, qrs

    def test_full_rank_pencils_compute_no_factors(self, monkeypatch):
        # the Kh certificate of a square system: every kernel is empty, and
        # one Cholesky of the Gram matrix per value proves it, so neither an
        # SVD nor a QR runs at all
        from geokit.assignment import build_Kh

        calls, qrs = self._count_factors(monkeypatch)
        sys = random_system(GenSpec(40, 2, 2, seed=5))
        _, kernels = build_Kh(sys, -np.linspace(1.0, 4.0, 20))
        assert [K.q for K in kernels] == [0] * 20
        assert calls == []
        assert qrs == []

    def test_normal_rank_loss_reaches_the_svd(self, monkeypatch):
        # two equal outputs: the square Rosenbrock matrix loses rank at every
        # λ, so the Cholesky proves nothing, and one full SVD per value shows
        # the loss: each kernel is its own, bit for bit, with no values-only
        # SVD before it
        from geokit.assignment import build_Kh

        base = random_system(GenSpec(n=8, m=2, p=2, seed=3))
        sys = SystemQuad.from_matrices(base.A, base.B, base.C[[0, 0]], base.D[[0, 0]])
        lams = [-1.0, -2.0, -3.0]
        calls, _ = self._count_factors(monkeypatch)
        _, kernels = build_Kh(sys, lams)
        assert calls == [True] * 3
        for K, lam in zip(kernels, lams):
            basis = kernel_basis(rosenbrock_matrix(sys, lam)).basis
            assert K.q == 1
            assert np.array_equal(K.V, basis[:sys.n]) and np.array_equal(K.W, basis[sys.n:])

    def test_a_tall_certificate_takes_one_gram_product_per_system(self, monkeypatch):
        # the Kh certificate of a 40-state (2, 3) system: every value is
        # proven from the system's Gram coefficients, one syrk on first use
        # and none after, with one Cholesky per value and no SVD
        from geokit.assignment import build_Kh

        calls, _ = self._count_factors(monkeypatch)
        syrk, potrf = _record_calls(monkeypatch, "syrk"), _record_calls(monkeypatch, "potrf")
        counts, kernels = [], pencils.rosenbrock_kernels

        def counted(*args):
            start = len(syrk), len(potrf)
            out = kernels(*args)
            counts.append((len(syrk) - start[0], len(potrf) - start[1]))
            return out

        monkeypatch.setattr(pencils, "rosenbrock_kernels", counted)
        sys = random_system(GenSpec(40, 2, 3, seed=5))
        lams = -np.linspace(1.0, 4.0, 20)
        for _ in range(2):
            _, kernels_out = build_Kh(sys, lams)
            assert [K.q for K in kernels_out] == [0] * 20
        assert calls == []
        assert counts == [(1, 20), (0, 20)]

    @pytest.mark.parametrize("lam", [1e200, -1e200, 1e200j, complex(-1e200, 1e199)])
    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_a_huge_value_is_decided_by_the_svd(self, monkeypatch, shape, lam):
        # |λ|² overflows: the proof declines without a Cholesky, and the
        # kernel and the rank are the SVD's
        sys = random_system(GenSpec(*shape, seed=1))
        M = rosenbrock_matrix(sys, lam).copy()
        potrf = _record_calls(monkeypatch, "potrf")
        assert not linalg._pencil_proof(sys._pencil_gram, DEFAULT_TOL)(complex(lam))
        K = rosenbrock_kernel(sys, lam)
        V, W = _one_svd_kernel(M, sys.n)
        assert np.array_equal(K.V, V) and np.array_equal(K.W, W)
        rank = _svd_rank(svd(M, compute_uv=False), M.shape, DEFAULT_TOL)
        assert pencils._per_conjugate_pair(sys, [lam], DEFAULT_TOL) == [rank]
        assert potrf == []

    @pytest.mark.parametrize("lam", [np.nan, np.inf, complex(1.0, -np.inf)])
    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_non_finite_value_is_refused_in_request_order(self, shape, lam):
        # the first value that is not finite is the one refused, by the
        # kernels and by the ranks alike
        sys = random_system(GenSpec(*shape, seed=1))
        lams = [-1.0, 0.5 + 1j, lam, complex(np.nan, 1.0)]
        message = re.escape(f"eigenvalue {complex(lam)} is not finite")
        with pytest.raises(SpectrumError, match=message):
            rosenbrock_kernels(sys, lams)
        with pytest.raises(SpectrumError, match=message):
            pencils._per_conjugate_pair(sys, lams, DEFAULT_TOL)

    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_values_are_read_in_request_order(self, shape):
        # each value is converted and checked in turn: what the first bad
        # value raises is raised, a SpectrumError for a value that is not
        # finite, complex()'s ValueError for one it refuses
        sys = random_system(GenSpec(*shape, seed=1))
        for check in (rosenbrock_kernels, lambda s, lams: pencils._per_conjugate_pair(
                s, lams, DEFAULT_TOL)):
            with pytest.raises(SpectrumError, match="eigenvalue \\(nan\\+0j\\) is not finite"):
                check(sys, [np.nan, "x"])
            with pytest.raises(ValueError) as raised:
                check(sys, ["x", np.nan])
            assert not isinstance(raised.value, SpectrumError)


PROOF_TOLS = (Tol(rel=1e-14), DEFAULT_TOL, Tol(rel=1e-6))
PROOF_SCALES = (1.0, 1e140, 1e-140)
PROOF_MOVES = (1e-15, 1e-12, 1e-9, 1e-6, 1e-3)


def _near_and_far(points) -> list[complex]:
    """Each point, the point moved by a relative 1e-15 … 1e-3, and three
    values far out: 1e6, −1e10 and 3 + 2i."""
    values = []
    for z in map(complex, points):
        values += [z] + [z + d * max(abs(z), 1.0) for d in PROOF_MOVES]
    return values + [1e6, -1e10, 3 + 2j]


def _pbh_system(n: int, m: int, seed: int) -> SystemQuad:
    """A pair (A, B) with n − 3 reachable states beside a rotation
    −0.5 ± 2i and a real mode 0.7 that no input reaches, mixed by an
    orthogonal change of basis: [A − λI  B] loses row rank at three of the
    eigenvalues of A."""
    rng = np.random.default_rng([n, m, seed])
    A = np.zeros((n, n))
    A[:n - 3, :n - 3] = rng.standard_normal((n - 3, n - 3))
    A[n - 3:, n - 3:] = [[-0.5, 2.0, 0.0], [-2.0, -0.5, 0.0], [0.0, 0.0, 0.7]]
    B = np.zeros((n, m))
    B[:n - 3] = rng.standard_normal((n - 3, m))
    T = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return SystemQuad.from_matrices(T @ A @ T.T, T @ B)


def _scaled(sys: SystemQuad, scale: float) -> SystemQuad:
    return SystemQuad.from_matrices(scale * sys.A, scale * sys.B, scale * sys.C, scale * sys.D)


class TestPencilProof:
    """The proof from the Gram coefficients of the system (tall or square
    Rosenbrock matrices, and the wide PBH pencil through its row Gram)
    never claims a full rank that the SVD threshold denies: at the
    invariant zeros or the uncontrollable eigenvalues, near them, far out,
    on systems scaled by 1e±140, at three tolerances, at real and complex
    λ.  It proves every value whose σ_min clears ten times its own limit,
    √s at N₀ = ‖M₀‖_F + |λ| √n."""

    @staticmethod
    def _check(sys: SystemQuad, values) -> tuple[int, int]:
        gram, n = sys._pencil_gram, sys.n
        norm0 = np.linalg.norm(np.block([[sys.A, sys.B], [sys.C, sys.D]]))
        proven = denied = 0
        for lam in values:
            M = rosenbrock_matrix(sys, lam)
            s = svd(M, compute_uv=False)
            bound = norm0 + abs(lam) * np.sqrt(n)  # N₀ but for rounding
            for tol in PROOF_TOLS:
                full = _svd_rank(s, M.shape, tol) == min(M.shape)
                ok = linalg._pencil_proof(gram, tol)(complex(lam))
                assert full or not ok, (lam, tol)
                limit = proof_limit(M.shape, bound, tol)
                assert ok or not s[-1] >= 10.0 * limit, (lam, tol)
                proven += ok
                denied += not full
        return proven, denied

    @pytest.mark.parametrize("m, p", [(2, 3), (2, 2), (1, 1), (1, 3)])
    @pytest.mark.parametrize("n", [6, 12, 30])
    def test_tall_rosenbrock_matrices(self, n, m, p):
        proven = denied = 0
        for seed in range(4):
            sys = random_system(GenSpec(n, m, p, seed=seed))
            values = _near_and_far(invariant_zeros(sys))
            for scale in PROOF_SCALES:
                got = self._check(_scaled(sys, scale), [scale * v for v in values])
                proven, denied = proven + got[0], denied + got[1]
        assert proven > 0
        assert denied > 0 or m < p

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [6, 12, 30])
    def test_wide_pbh_pencils(self, n, m):
        proven = denied = 0
        for seed in range(4):
            sys = _pbh_system(n, m, seed)
            assert sys._pencil_gram.G0.shape == (n, n)  # the row Gram
            values = _near_and_far(np.linalg.eigvals(sys.A))
            for scale in PROOF_SCALES:
                got = self._check(_scaled(sys, scale), [scale * v for v in values])
                proven, denied = proven + got[0], denied + got[1]
        assert proven > 0 and denied > 0


def _planted_tall(sigma: float, lam: float) -> SystemQuad:
    """A (6, 2, 3) system whose Rosenbrock matrix at the real ``lam`` has
    singular values 2 … 1 and a smallest one, ``sigma``."""
    n, m, p = 6, 2, 3
    rng = np.random.default_rng(7)
    U = np.linalg.qr(rng.standard_normal((n + p, n + p)))[0]
    V = np.linalg.qr(rng.standard_normal((n + m, n + m)))[0]
    M = U[:, :n + m] * np.r_[np.linspace(2.0, 1.0, n + m - 1), sigma] @ V.T
    return SystemQuad.from_matrices(M[:n, :n] + lam * np.eye(n), M[:n, n:], M[n:, :n], M[n:, n:])


def _planted_pair(delta: float) -> tuple[np.ndarray, np.ndarray]:
    """A symmetric A with eigenvalues −1 … −5 and 0.7 beside a B that
    reaches the 0.7 mode by ``delta`` only, mixed by an orthogonal change
    of basis: [A − 0.7 I  B] has a σ_min of about ``delta``."""
    rng = np.random.default_rng(7)
    Q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    B = np.zeros((6, 2))
    B[:5] = rng.standard_normal((5, 2))
    B[5, 0] = delta
    return Q @ np.diag([-1.0, -2.0, -3.0, -4.0, -5.0, 0.7]) @ Q.T, Q @ B


class TestProofFollowsTheTol:
    """The proof's target is set up once per request, from the caller's
    Tol: a σ_min planted between the default target and the target of
    Tol(rel=1e-6) is proven at the default and left to the singular values
    at the coarse one, and both answers are the SVD's."""

    COARSE = Tol(rel=1e-6)

    @staticmethod
    def _in_band(M: np.ndarray) -> bool:
        # ten times the default proof's limit, and below the least σ_min
        # the coarse proof accepts, 2 · 1e-6 · max(rows, cols) · ‖M‖_F
        s, norm = svd(M, compute_uv=False), np.linalg.norm(M)
        limit = proof_limit(M.shape, norm, DEFAULT_TOL)
        return 10.0 * limit < s[-1] < 2e-6 * max(M.shape) * norm

    def test_rosenbrock_kernels(self, monkeypatch):
        lam = -0.5
        sys = _planted_tall(2e-5, lam)
        M = rosenbrock_matrix(sys, lam).copy()
        assert self._in_band(M)
        lams = [-3.0, lam, 0.25 + 1.5j]
        gesdd = _record_gesdd(monkeypatch)
        for tol, factored in ((DEFAULT_TOL, []), (self.COARSE, [(M.shape, True)]),
                              (DEFAULT_TOL, [])):
            del gesdd[:]
            assert [K.q for K in rosenbrock_kernels(sys, lams, tol)] == [0, 0, 0]
            assert gesdd == factored
            assert _svd_rank(svd(M, compute_uv=False), M.shape, tol) == min(M.shape)

    def test_uncontrollable_eigenvalues(self, monkeypatch):
        A, B = _planted_pair(1e-4)
        sys = SystemQuad.from_matrices(A, B)
        M = rosenbrock_matrix(sys, 0.7).copy()
        assert self._in_band(M)
        gesdd = _record_gesdd(monkeypatch)
        for tol, factored in ((DEFAULT_TOL, []), (self.COARSE, [(M.shape, False)]),
                              (DEFAULT_TOL, [])):
            del gesdd[:]
            assert uncontrollable_eigenvalues(A, B, tol) == []
            assert gesdd == [((6, 6), False)] + factored  # beside the spectral norm of A
            assert rank_of(M, tol) == 6


class TestRosenbrockKernels:
    # one request decides many values: each kernel must still be the one
    # its own matrix gives, bit for bit, in its dtype and request order
    LAMS = [-1.3, 0.4 + 1.1j, 0.4 - 1.1j, 2.0, -0.5 - 0.7j, -0.5 + 0.7j, 0.25]

    @pytest.mark.parametrize("shape, at_zero", [((6, 3, 2), False), ((6, 2, 2), True),
                                                ((6, 2, 0), False)],
                             ids=["wide", "square-at-a-zero", "no-outputs"])
    def test_each_kernel_is_its_own_matrix_kernel(self, shape, at_zero):
        sys = random_system(GenSpec(*shape, seed=0))
        lams = list(self.LAMS)
        if at_zero:  # a real invariant zero of the square system
            lams.insert(3, next(z for z in invariant_zeros(sys) if z.imag == 0.0).real)
        kernels = rosenbrock_kernels(sys, lams)
        assert [K.lam for K in kernels] == [complex(lam) for lam in lams]
        for K, lam in zip(kernels, lams):
            shift = lam if complex(lam).imag else complex(lam).real
            M = np.vstack([np.hstack([sys.A - shift * np.eye(sys.n), sys.B]),
                           np.hstack([sys.C, sys.D])])
            assert np.array_equal(rosenbrock_matrix(sys, lam), M)
            basis = kernel_basis(M).basis
            dtype = np.complex128 if complex(lam).imag else np.float64
            assert rosenbrock_matrix(sys, lam).dtype == K.V.dtype == K.W.dtype == dtype
            assert np.array_equal(K.V, basis[:sys.n]) and np.array_equal(K.W, basis[sys.n:])
            one = rosenbrock_kernel(sys, lam)
            assert np.array_equal(one.V, K.V) and np.array_equal(one.W, K.W)
            assert one.lam == K.lam and one.V.dtype == K.V.dtype
        if shape[1] <= shape[2]:
            assert [K.q for K in kernels] == [int(at_zero and i == 3) for i in range(len(lams))]

    @pytest.mark.parametrize("shape", [(6, 3, 2), (8, 2, 0), (5, 2, 2), (7, 1, 2)],
                             ids=["wide", "no-outputs", "square", "tall"])
    def test_one_decision_per_exact_pair(self, monkeypatch, shape):
        # the matrix at λ̄ is the conjugate of λ's: an exact pair is decided
        # once, at its first member, and its partner's kernel is the
        # conjugate of that one, bit for bit the kernel of its own matrix;
        # the invariant zeros, in exact pairs, take the square system's
        # values past the proof
        sys = random_system(GenSpec(*shape, seed=2))
        lams = [complex(lam) for lam in self.LAMS] + invariant_zeros(sys)
        firsts = []
        for lam in lams:
            if lam not in firsts and lam.conjugate() not in firsts:
                firsts.append(lam)
        tall = sys.m <= sys.p
        proves = linalg._pencil_proof(sys._pencil_gram, DEFAULT_TOL)
        factored = [lam for lam in firsts if not (tall and proves(lam))]
        proofs = []
        monkeypatch.setattr(pencils, "_pencil_proof", _spy_on_proofs(proofs))
        gesdd = _record_gesdd(monkeypatch)
        kernels = rosenbrock_kernels(sys, lams)
        assert proofs == (firsts if tall else [])
        assert len(gesdd) == len(factored) < len(lams)
        if shape == (5, 2, 2):
            assert len(factored) >= 2
        monkeypatch.undo()
        for K, lam in zip(kernels, lams):
            one = rosenbrock_kernel(sys, lam)
            assert K.lam == lam and one.V.dtype == K.V.dtype == K.W.dtype
            assert np.array_equal(one.V, K.V) and np.array_equal(one.W, K.W)
            first = kernels[lams.index(lam.conjugate())] if lam.conjugate() in lams else K
            assert np.array_equal(K.V, first.V.conj()) and np.array_equal(K.W, first.W.conj())

    def test_an_exact_repeat_is_decided_once(self, monkeypatch):
        # a complex value given twice, then its conjugate: one complex
        # Cholesky decides all three, and each kernel is the one a call of
        # its own returns, bit for bit
        sys = random_system(GenSpec(8, 2, 3, seed=1))
        lams = [-1 + 1j, -1 + 1j, -1 - 1j]
        potrf = _record_calls(monkeypatch, "potrf")
        kernels = rosenbrock_kernels(sys, lams)
        assert potrf == ["c"]
        monkeypatch.undo()
        for K, lam in zip(kernels, lams):
            one = rosenbrock_kernel(sys, lam)
            assert K.lam == lam and K.V.dtype == one.V.dtype == np.complex128
            assert K.V.shape == one.V.shape == (8, 0) and K.W.shape == one.W.shape == (2, 0)
            assert np.array_equal(K.V, one.V) and np.array_equal(K.W, one.W)


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

    def test_one_rank_per_conjugate_pair(self, monkeypatch):
        # a controllable 4-state part beside a rotation block -0.5 ± 2i that
        # no input reaches, mixed by an orthogonal change of basis
        rng = np.random.default_rng(11)
        n = 6
        A = np.zeros((n, n))
        A[:4, :4] = rng.standard_normal((4, 4))
        A[4:, 4:] = [[-0.5, 2.0], [-2.0, -0.5]]
        B = np.zeros((n, 2))
        B[:4] = rng.standard_normal((4, 2))
        T = np.linalg.qr(rng.standard_normal((n, n)))[0]
        A, B = T @ A @ T.T, T @ B
        calls = []
        monkeypatch.setattr(pencils, "_pencil_proof", _spy_on_proofs(calls))
        gesdd = _record_gesdd(monkeypatch)
        vals = uncontrollable_eigenvalues(A, B)
        assert len(vals) == 2 and vals[0] == vals[1].conjugate()
        assert abs(vals[0] - complex(-0.5, 2.0 * np.sign(vals[0].imag))) < 1e-9
        eigs = np.linalg.eigvals(A)
        assert len(calls) == np.count_nonzero(eigs.imag >= 0) < n
        # one Cholesky proves each controllable value's full row rank: beside
        # the spectral norm of A, only the uncontrollable pair reaches the SVD
        assert [shape for shape, _ in gesdd] == [(n, n), (n, n + 2)]
        # the shared decision is the one each member gets alone
        for lam in eigs:
            assert (rank_of(rosenbrock_matrix(SystemQuad.from_matrices(A, B), lam)) < n) == (
                any(abs(lam - v) < 1e-9 for v in vals))

    def test_only_exact_conjugates_share_a_rank(self, monkeypatch):
        # -1 - 0.500000001i is within validate_spectrum's pairing scale of
        # the conjugate of -1 + 0.5i, but not equal to it: it is decided at
        # its own value
        sys = random_system(GenSpec(6, 2, 2, seed=0))
        lams = [-1 + 0.5j, -1 - 0.500000001j, -2.0, -3 + 1j, -3 - 1j]
        decided = []
        monkeypatch.setattr(pencils, "_pencil_proof", _spy_on_proofs(decided))
        ranks = pencils._per_conjugate_pair(sys, lams, DEFAULT_TOL)
        assert decided == lams[:4]
        assert ranks == [rank_of(rosenbrock_matrix(sys, lam)) for lam in lams]


def _spy_on_proofs(decided):
    """``pencils._pencil_proof`` whose proofs record each λ they are asked
    at: every value whose rank is decided is asked first."""
    proof = pencils._pencil_proof

    def spy(gram, tol):
        proves = proof(gram, tol)

        def recorded(lam):
            decided.append(lam)
            return proves(lam)
        return recorded
    return spy


class TestInvariantZeros:
    def test_double_integrator_zero_at_origin(self):
        zs = invariant_zeros(DI)
        assert len(zs) == 1 and abs(zs[0]) < 1e-9

    def test_zeros_are_the_frames_values_bit_for_bit(self, monkeypatch):
        # Python complex values, equal in their bits to complex(z) of the
        # frame's array, signed zeros included, in a new list at each call;
        # the array is real when every zero is
        sys = random_system(GenSpec(8, 2, 2, seed=3))
        frame = geometry.morse_decomposition(sys)
        assert geometry.morse_decomposition(DI).invariant_zeros.dtype == np.float64
        signed = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                           complex(-1.5, 2.0), complex(-1.5, -2.0)])
        for zeros in (frame.invariant_zeros, signed, np.array([-0.0, 0.0, 2.5])):
            kept = dataclasses.replace(frame, invariant_zeros=zeros)
            monkeypatch.setattr(geometry, "morse_decomposition", lambda s, tol: kept)
            got = invariant_zeros(sys)
            assert got is not invariant_zeros(sys) and len(got) == len(zeros)
            assert all(type(z) is complex for z in got)
            assert [struct.pack("<2d", z.real, z.imag) for z in got] == \
                [struct.pack("<2d", complex(z).real, complex(z).imag) for z in zeros]

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
            nr = sampled_normal_rank(sys)
            for z in deduplicate_eigenvalues(invariant_zeros(sys), 1e-6):
                assert rank_of(rosenbrock_matrix(sys, z)) < nr

    @pytest.mark.parametrize("draw", [
        lambda: random_system(GenSpec(8, 1, 1, seed=3)),
        lambda: random_system(GenSpec(8, 2, 2, seed=3)),
        lambda: random_system(GenSpec(8, 3, 3, seed=3)),
        lambda: planted_join(4, 6, 3, 2, 1),
        lambda: _doubled(random_system(GenSpec(8, 1, 1, seed=0))),
    ], ids=["m1", "m2", "m3", "planted-wide", "duplicated-input"])
    def test_ranks_at_zeros_are_rank_ofs(self, monkeypatch, draw):
        # the rank at each distinct zero, as the zeros report checks it: the
        # matrix loses rank there, so each value decided is asked of the
        # proof first, which fails, and one singular-value SVD decides, once
        # per conjugate pair; the ranks are rank_of's
        sys = draw()
        zs = invariant_zeros(sys)
        zeros = deduplicate_eigenvalues(zs, 10.0 * spectrum_scale(zs, DEFAULT_TOL))
        assert zeros and any(z.imag for z in zeros)
        want = [rank_of(rosenbrock_matrix(sys, z)) for z in zeros]
        assert all(r < min(sys.n + sys.p, sys.n + sys.m) for r in want)
        decided = []
        monkeypatch.setattr(pencils, "_pencil_proof", _spy_on_proofs(decided))
        gesdd = _record_gesdd(monkeypatch)
        assert pencils._per_conjugate_pair(sys, zeros, DEFAULT_TOL) == want
        assert decided == [z for i, z in enumerate(zeros) if z.conjugate() not in zeros[:i]]
        assert gesdd == [((sys.n + sys.p, sys.n + sys.m), False)] * len(decided)

    @pytest.mark.parametrize("m, p", [(3, 2), (2, 3)])
    def test_no_value_forms_no_gram_product(self, monkeypatch, m, p):
        # these draws have no zeros: their rank_at_zeros check asks for no
        # rank, and the Gram coefficients of the system are never formed
        sys = random_system(GenSpec(8, m, p, seed=3))
        assert invariant_zeros(sys) == []
        syrk, potrf = _record_calls(monkeypatch, "syrk"), _record_calls(monkeypatch, "potrf")
        gesdd = _record_gesdd(monkeypatch)
        assert pencils._per_conjugate_pair(sys, [], DEFAULT_TOL) == []
        assert syrk == potrf == gesdd == []
        assert "_pencil_gram" not in vars(sys)


def _duplicated_input(sys: SystemQuad) -> SystemQuad:
    """``sys`` with the second column of B and of D set equal to the first."""
    B, D = sys.B.copy(), sys.D.copy()
    B[:, 1], D[:, 1] = B[:, 0], D[:, 0]
    return SystemQuad.from_matrices(sys.A, B, sys.C, D)


def _doubled(sys: SystemQuad) -> SystemQuad:
    """The SISO ``sys`` with its input column, and its output row, taken
    twice: its system matrix loses normal rank, and keeps its zeros."""
    return SystemQuad.from_matrices(sys.A, np.hstack([sys.B, sys.B]),
                                    np.vstack([sys.C, sys.C]), np.tile(sys.D, (2, 2)))


class TestNormalRank:
    # the Morse frame's n + m - m1 against the seeded sampler, which builds
    # no subspace: one rank decision at each of five generic points

    @pytest.mark.parametrize("n1, n2, m2, p2, s", [
        (n1, n2, m2, p2, s) for n1, n2, (m2, p2), s in itertools.product(
            (4, 8), (8, 16), ((3, 2), (1, 2), (2, 2), (3, 1)), range(3))])
    def test_planted_join(self, n1, n2, m2, p2, s):
        # the SISO block has a nonzero D, and the generic block's transfer
        # matrix has rank min(m2, p2)
        sys = planted_join(n1, n2, m2, p2, s)
        assert normal_rank_rosenbrock(sys) == sampled_normal_rank(sys) == n1 + n2 + 1 + min(m2, p2)

    @pytest.mark.parametrize("n, m, p", [(3, 2, 1), (5, 2, 2), (8, 3, 2), (8, 2, 3), (12, 3, 3),
                                         (20, 2, 4), (40, 3, 2), (80, 2, 2)])
    @pytest.mark.parametrize("seed", range(2))
    def test_duplicated_input(self, n, m, p, seed):
        sys = _duplicated_input(random_system(GenSpec(n, m, p, seed=seed)))
        nr = normal_rank_rosenbrock(sys)
        assert nr == sampled_normal_rank(sys) == sys.n + min(m - 1, p)

    @pytest.mark.parametrize("n, m", [(3, 1), (5, 2), (8, 3), (20, 2)])
    @pytest.mark.parametrize("seed", range(2))
    def test_no_outputs(self, n, m, seed):
        sys = random_system(GenSpec(n, m, 0, seed=seed))
        assert normal_rank_rosenbrock(sys) == sampled_normal_rank(sys) == n

    def test_two_equal_outputs(self):
        # the system of TestKernelIsOneSvdDecision.test_normal_rank_loss_reaches_the_svd
        base = random_system(GenSpec(n=8, m=2, p=2, seed=3))
        sys = SystemQuad.from_matrices(base.A, base.B, base.C[[0, 0]], base.D[[0, 0]])
        assert normal_rank_rosenbrock(sys) == sampled_normal_rank(sys) == 9


def _validate_spectrum_loops(lambdas, forbidden=(), tol=DEFAULT_TOL):
    """``validate_spectrum`` with its distinctness and forbidden-set checks
    as pairwise loops: the reference for the order in which it raises."""
    lambdas = [complex(v) for v in lambdas]
    if not lambdas:
        raise SpectrumError("empty spectrum")
    for lam in lambdas:
        if not np.isfinite(lam):
            raise SpectrumError(f"eigenvalue {lam} is not finite")
    scale = spectrum_scale(lambdas, tol)
    for i, lam in enumerate(lambdas):
        for mu in lambdas[i + 1:]:
            if abs(lam - mu) <= scale:
                raise SpectrumError(f"eigenvalues {lam} and {mu} are not distinct")
    values, taken = [], set()
    for i, lam in enumerate(lambdas):
        if abs(lam.imag) <= scale:
            values.append((complex(lam.real), False))
            continue
        if i in taken:
            continue
        matches = [j for j, mu in enumerate(lambdas) if j not in taken and abs(mu.imag) > scale
                   and abs(mu - lam.conjugate()) <= scale]
        if not matches:
            raise SpectrumError(f"spectrum is not self-conjugate: no partner for {lam}")
        taken.update((i, matches[0]))
        values.append((lam if lam.imag > 0 else lam.conjugate(), True))
    margin = 10.0 * scale
    for lam in lambdas:
        for z in forbidden:
            if abs(lam - complex(z)) <= margin:
                raise SpectrumError(
                    f"eigenvalue {lam} is within {margin:.2e} of forbidden value {complex(z)}"
                )
    return values


def _outcome(check, *args):
    """The values ``check`` returns, or the text of the SpectrumError it raises."""
    try:
        return check(*args)
    except SpectrumError as err:
        return str(err)


class TestValidateSpectrum:
    def test_accepts_plain_reals(self):
        assert validate_spectrum([-1.0, -2.0]) == [(-1.0, False), (-2.0, False)]

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
        values = validate_spectrum([complex(-1, 1), -3.0, complex(-1, -1)])
        assert values == [(complex(-1, 1), True), (-3.0, False)]

    def test_pair_listed_by_its_lower_member(self):
        # the pair is represented by its member with positive imaginary part
        values = validate_spectrum([complex(-1, -2), -3.0, complex(-1, 2)])
        assert values == [(complex(-1, 2), True), (-3.0, False)]
        assert values[0][0].imag > 0

    def test_imaginary_part_within_scale_is_snapped(self):
        values = validate_spectrum([complex(2.0, 1e-12), -1.0])
        assert values == [(2.0, False), (-1.0, False)]
        assert values[0][0].imag == 0.0 and isinstance(values[0][0], complex)

    def test_near_pair_is_one_pair(self):
        # -1 - 0.500000001i is within the pairing scale of the conjugate of
        # -1 + 0.5i: one pair, represented by the value as listed
        assert validate_spectrum([-1 + 0.5j, -1 - 0.500000001j]) == [(-1 + 0.5j, True)]

    @pytest.mark.parametrize("lams", [
        # two values within the scale of one value's conjugate
        [-1 + 1j, -1 - 1j + 0.9e-8, -1 - 1j - 0.9e-8],
        # a value counted real cannot also be the partner of another
        [1 + 1.5e-8j, 1 - 0.6e-8j],
        [1 - 0.6e-8j, 1 + 1.5e-8j],
    ])
    def test_pairing_is_one_to_one(self, lams):
        with pytest.raises(SpectrumError, match="no partner"):
            validate_spectrum(lams)

    def test_order_of_first_appearance(self):
        lams = [-3.0, 1 - 2j, 5.0, -4.0, 1 + 2j, -0.5 + 1j, -0.5 - 1j]
        values = validate_spectrum(lams)
        assert values == [(-3.0, False), (1 + 2j, True), (5.0, False), (-4.0, False),
                          (-0.5 + 1j, True)]
        assert sum(1 + is_pair for _, is_pair in values) == len(lams)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(-1.0, np.nan), complex(np.inf, 1.0)])
    def test_rejects_non_finite(self, bad):
        # NaN compares unequal to everything, so it would pass the other checks
        with pytest.raises(SpectrumError, match="not finite"):
            validate_spectrum([bad, -1.0])

    def test_values_are_read_in_request_order(self):
        # as the kernels and the ranks read them: the first bad value
        # decides what is raised
        with pytest.raises(SpectrumError, match="eigenvalue \\(nan\\+0j\\) is not finite"):
            validate_spectrum([np.nan, "x"])
        with pytest.raises(ValueError) as raised:
            validate_spectrum(["x", np.nan])
        assert not isinstance(raised.value, SpectrumError)

    def test_forbidden_margin(self):
        # within ten comparison scales of a forbidden value: rejected
        with pytest.raises(SpectrumError):
            validate_spectrum([2.0 + 1e-12], forbidden=[2.0])

    @pytest.mark.parametrize("seed", range(12))
    def test_raises_as_the_loops_do(self, seed):
        # several close pairs, then several forbidden hits, at seeded
        # places: the array checks raise on the loops' first offending pair,
        # with the same text, and pass what the loops pass
        rng = np.random.default_rng(seed)
        pairs = rng.uniform(-5.0, -0.5, 8) + 1j * rng.uniform(0.1, 3.0, 8)
        lams = [*rng.uniform(-5.0, -0.5, 16), *pairs, *pairs.conj()]
        lams = [lams[k] for k in rng.permutation(len(lams))]
        scale = spectrum_scale(lams, DEFAULT_TOL)
        close = list(lams)
        for k in rng.choice(len(lams), 4, replace=False):
            close.insert(rng.integers(len(close) + 1), lams[k] + rng.uniform(-0.9, 0.9) * scale)
        far = rng.uniform(1.0, 5.0, 12) + 1j * rng.uniform(-3.0, 3.0, 12)
        hits = [lams[k] + 9.0 * scale * np.exp(2j * np.pi * rng.uniform())
                for k in rng.choice(len(lams), 4, replace=False)]
        forbidden = np.insert(far, rng.integers(13, size=4), hits)
        cases = [(close, ()), (close, forbidden), (lams, forbidden), (lams, list(forbidden)),
                 (lams, far)]
        for args in cases:
            want = _outcome(_validate_spectrum_loops, *args)
            assert _outcome(validate_spectrum, *args) == want
        assert "not distinct" in _outcome(validate_spectrum, close, forbidden)
        assert "forbidden" in _outcome(validate_spectrum, lams, forbidden)
        assert isinstance(_outcome(validate_spectrum, lams, far), list)
        # all-real requests, checked on their sorted values, at a unit where
        # tol.abs sets the scale and one where the largest value does: a
        # repeated value and near ones; forbidden sets, real and complex,
        # with misses just past the margin on either side of a value and
        # just above it, and hits above a value, below it, off the axis and
        # on it, all together and each alone among far values
        for unit in (1.0, 1e5):
            reals = list(unit * rng.uniform(-5.0, -0.5, 24))
            scale = spectrum_scale(reals, DEFAULT_TOL)
            close_reals = list(reals)
            for k in rng.choice(len(reals), 3, replace=False):
                close_reals.insert(rng.integers(len(close_reals) + 1),
                                   reals[k] + rng.uniform(-0.9, 0.9) * scale)
            close_reals.insert(rng.integers(len(close_reals) + 1), reals[int(rng.integers(24))])
            picks = [reals[k] for k in rng.choice(len(reals), 8, replace=False)]
            misses = [picks[0] + 10.5 * scale, picks[1] - 10.5 * scale, picks[2] + 10.5j * scale,
                      complex(picks[3] + 8.0 * scale, 8.0 * scale)]
            hits = [picks[4] + 9.0 * scale, picks[5] - 9.0 * scale,
                    picks[6] + 9.0 * scale * np.exp(2j * np.pi * rng.uniform()), picks[7]]
            real_far = [*(unit * rng.uniform(1.0, 5.0, 11)), -9.0 * unit]
            complex_far = list(unit * far)
            real_forbidden = real_far + hits[:2]
            complex_forbidden = complex_far + misses + hits
            for forbidden_set in (real_forbidden, complex_forbidden):
                forbidden_set[:] = [forbidden_set[k] for k in rng.permutation(len(forbidden_set))]
            real_cases = [(close_reals, ()), (close_reals, real_forbidden), (reals, real_forbidden),
                          (reals, np.array(complex_forbidden)), (reals, complex_forbidden),
                          (reals, real_far + misses), (reals, np.array(misses)), (reals, complex_far)]
            real_cases += [(reals, [*far_set, hit]) for hit in hits
                           for far_set in (real_far, complex_far)]
            for args in real_cases:
                want = _outcome(_validate_spectrum_loops, *args)
                assert _outcome(validate_spectrum, *args) == want
            assert "not distinct" in _outcome(validate_spectrum, close_reals, real_forbidden)
            for forbidden_set in (real_forbidden, complex_forbidden, *([hit] for hit in hits)):
                assert "forbidden" in _outcome(validate_spectrum, reals, forbidden_set)
            assert isinstance(_outcome(validate_spectrum, reals, real_far + misses), list)


def test_deduplicate():
    vals = [1.0, 1.0 + 1e-12, 2.0, 2.0 + 0.5j]
    out = deduplicate_eigenvalues(vals, 1e-9)
    assert len(out) == 3
