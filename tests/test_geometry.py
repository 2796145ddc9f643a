import builtins
import dataclasses
import gc
import inspect
import weakref

import numpy as np
import pytest
import scipy.linalg

from geokit import geometry, linalg
from geokit.assignment import build_Kh, min_distinct_spectrum
from geokit.errors import (
    DecompositionError,
    NotInvariantError,
    NumericalError,
    SpectrumError,
    ValidationError,
)
from geokit.geometry import (
    _krylov,
    chain_term,
    friend_of,
    intersection_formula,
    intersection_formulas,
    is_output_nulling,
    krylov_image,
    morse_decomposition,
    reachability_on,
    reachable_subspace,
    rstar,
    sstar,
    sstar_sequence,
    unobservable_subspace,
    vstar,
    vstar_sequence,
)
from geokit.linalg import (
    DEFAULT_TOL,
    Subspace,
    Tol,
    _svd_rank,
    contains,
    containment_residual,
    equals,
    image_basis,
    kernel_basis,
    norm2,
    orthonormal_complement,
    subspace_intersect,
    svd,
)
from geokit.pencils import (
    deduplicate_eigenvalues,
    invariant_zeros,
    normal_rank_rosenbrock,
    uncontrollable_eigenvalues,
)
from geokit.sysmodel import GenSpec, SystemQuad, dual_of, random_system
from geokit.verify import _draw_diag, _draw_pair, _rng_for, eig_multiset_match

A2 = np.array([[0.0, 1.0], [0.0, 0.0]])
B2 = np.array([[0.0], [1.0]])
CHAIN3 = np.array([[0.0, 1, 0], [0, 0, 1], [0, 0, 0]])
B3 = np.eye(3)[:, 2:]

# double integrator with position output (relative degree 2) and with
# velocity output (relative degree 1, invariant zero at the origin)
DI_POS = SystemQuad.from_matrices(A2, B2, [[1.0, 0.0]], [[0.0]])
DI_VEL = SystemQuad.from_matrices(A2, B2, [[0.0, 1.0]], [[0.0]])


def line(*v):
    return image_basis(np.asarray(v, dtype=float).reshape(-1, 1))


def rosenbrock_zeros(sys):
    """Finite generalized eigenvalues of the square Rosenbrock pencil.

    Infinite eigenvalues may come out of QZ as huge finite values; the
    systems tested here have zeros far below 1e8 in modulus.
    """
    n, m = sys.n, sys.m
    M = np.block([[sys.A, sys.B], [sys.C, sys.D]])
    N = np.zeros((n + m, n + m))
    N[:n, :n] = np.eye(n)
    ev = scipy.linalg.eigvals(M, N)
    return ev[np.abs(ev) < 1e8]


def friend_residual(sys, V, tol=DEFAULT_TOL):
    """The least-squares friend's residual [P (A+BF) V; (C+DF) V], P the
    projector onto V⊥, recomputed step by step as ``geometry._friend`` does."""
    P, vb = V.perp_projector(), V.basis
    M = np.vstack([P @ sys.B, sys.D])
    u, s, vh = svd(M)
    r = _svd_rank(s, M.shape, tol, scale=sys._bd_scale)
    rhs = np.vstack([P @ (sys.A @ vb), sys.C @ vb])
    return rhs + M @ (-(vh[:r].conj().T / s[:r]) @ (u[:, :r].conj().T @ rhs))


def without_feedthrough(spec):
    """``random_system(spec)`` with D = 0: V* is then a proper subspace."""
    base = random_system(spec)
    return SystemQuad.from_matrices(base.A, base.B, base.C, np.zeros((base.p, base.m)))


def record_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call's first argument is recorded."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda M, *a, **k: calls.append(M) or fn(M, *a, **k))
    return calls


def lapack_calls(monkeypatch) -> list[str]:
    """Patch every routine of ``linalg._LAPACK`` to record its name per call."""
    calls = []
    for routines in linalg._LAPACK.values():
        for name, routine in list(routines.items()):
            def recorded(*args, name=name, routine=routine, **kwargs):
                calls.append(name)
                return routine(*args, **kwargs)
            monkeypatch.setitem(routines, name, recorded)
    return calls


def recorded_imports(monkeypatch) -> list[tuple[str, int]]:
    """Patch ``builtins.__import__`` to record ``(name, level)`` per import
    statement that runs: ``from .assignment import x`` is ``("assignment", 1)``."""
    calls, real = [], builtins.__import__

    def spy(name, globals=None, locals=None, fromlist=(), level=0):
        calls.append((name, level))
        return real(name, globals, locals, fromlist, level)
    monkeypatch.setattr(builtins, "__import__", spy)
    return calls


def gesdd_callers(monkeypatch) -> list[str]:
    """Patch each ``gesdd`` of ``linalg._LAPACK`` to record, per call, the
    function that asked for the SVD: the caller of ``linalg.svd``, or of
    ``linalg.norm2`` for a spectral norm, past any generator expression."""
    calls = []
    for routines in linalg._LAPACK.values():
        def recorded(*args, gesdd=routines["gesdd"], **kwargs):
            frame = inspect.currentframe().f_back.f_back  # past linalg.svd
            while frame.f_code.co_name in ("norm2", "<genexpr>"):
                frame = frame.f_back
            calls.append(frame.f_code.co_name)
            return gesdd(*args, **kwargs)
        monkeypatch.setitem(routines, "gesdd", recorded)
    return calls


class TestReachable:
    def test_double_integrator(self):
        R, h = reachable_subspace(A2, B2)
        assert R.dim == 2 and h == 2

    def test_invariant_line(self):
        R, h = reachable_subspace(np.diag([1.0, 2.0]), np.eye(2)[:, :1])
        assert R.dim == 1 and h == 1
        assert contains(R, line(1.0, 0.0))

    def test_three_chain(self):
        R, h = reachable_subspace(CHAIN3, B3)
        assert R.dim == 3 and h == 3

    def test_zero_input(self):
        R, h = reachable_subspace(A2, np.zeros((2, 1)))
        assert R.dim == 0 and h == 0

    def test_repeated_value_draw(self):
        diag, H = _draw_diag(_rng_for(33, 71), 8)
        assert H.shape == (8, 1)
        assert len(deduplicate_eigenvalues(diag, 1e-9)) == 7
        assert np.count_nonzero(diag == 3.1389592244765305) == 2

    @pytest.mark.parametrize("seed, trial, nmax, want", [
        pytest.param(33, 71, 8, 7, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 3: the seventh step keeps a direction with sigma 1.8e-3, "
            "and the eighth a residual of sigma 1.57e-8 against a threshold of "
            "3.32e-10, so the staircase counts a direction one input cannot reach"))),
        pytest.param(0, 43, 20, 13, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 3: twenty values, thirteen of them distinct, and the "
            "staircase counts 17 directions where one input reaches 13"))),
    ])
    def test_one_input_misses_repeated_value(self, seed, trial, nmax, want):
        """One input reaches one direction of each repeated value's eigenspace:
        dimension and index ``want``, the count of distinct values, as an
        80-digit count (``tests/mp_chain_oracle.py krylov``) finds."""
        diag, H = _draw_diag(_rng_for(seed, trial), nmax)
        R, h = reachable_subspace(np.diag(diag), H)
        assert (R.dim, h) == (want, want)


class TestUnobservable:
    def test_full_rank_output(self):
        assert unobservable_subspace(np.eye(2), A2).dim == 0

    def test_zero_output(self):
        assert unobservable_subspace(np.zeros((1, 2)), A2).dim == 2

    def test_velocity_output(self):
        # ker C = span e1 and A e1 = 0, but the observability matrix
        # [C; CA] = [[0,1],[0,0]] has kernel span e1: brute-force oracle
        obs = np.vstack([[0.0, 1.0], [0.0, 0.0]])
        from geokit.linalg import kernel_basis

        oracle = kernel_basis(obs)
        Q = unobservable_subspace([[0.0, 1.0]], A2)
        assert equals(Q, oracle)
        assert Q.dim == 1 and contains(line(1.0, 0.0), Q)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_no_outputs_is_whole_space(self, n):
        # ker C is the whole space and so is every A-invariant subspace in it
        A = np.random.default_rng(n).standard_normal((n, n))
        Q = unobservable_subspace(np.zeros((0, n)), A)
        assert Q.dim == n and equals(Q, Subspace.full(n))

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_complement_is_read_off_the_dual_staircase(self, monkeypatch, p):
        # the dual Krylov staircase decides the dimension; its basis
        # completion is the unobservable subspace, with no second SVD
        rng = np.random.default_rng(p)
        A, C = rng.standard_normal((8, 8)), rng.standard_normal((p, 8))
        A[:5, 5:], C[:, 5:] = 0.0, 0.0  # the last three states are unobservable
        U = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        callers = gesdd_callers(monkeypatch)
        Q = unobservable_subspace(C @ U.T, U @ A @ U.T)
        assert set(callers) <= {"_staircase", "_krylov"}
        assert equals(Q, Subspace.full(8) if p == 0 else Subspace(U[:, 5:]))

    def test_duality_with_reachability(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            C = rng.standard_normal((int(rng.integers(1, 3)), n))
            Q = unobservable_subspace(C, A)
            Rdual, _ = reachable_subspace(A.T, C.T)
            assert equals(Q, orthonormal_complement(Rdual))
        # generic random systems are observable, also at larger n
        for n in (20, 60):
            sys = random_system(GenSpec(n=n, m=2, p=1, seed=n))
            assert unobservable_subspace(sys.C, sys.A).dim == 0


class TestVstarChain:
    def test_relative_degree_two(self):
        chain = vstar_sequence(DI_POS)
        assert [S.dim for S in chain] == [2, 1, 0, 0]
        assert contains(line(0.0, 1.0), chain[1])

    def test_relative_degree_one(self):
        chain = vstar_sequence(DI_VEL)
        assert [S.dim for S in chain] == [2, 1, 1]
        assert equals(chain[-1], line(1.0, 0.0))

    def test_no_outputs_everything_nulling(self):
        sys = SystemQuad.from_matrices(A2, B2, [[0.0, 0.0]], [[0.0]])
        assert vstar(sys).dim == 2

    def test_limit_is_output_nulling_and_maximal_sampled(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            sys = random_system(GenSpec(n=5, m=2, p=2, seed=seed))
            chain = vstar_sequence(sys)
            dims = [S.dim for S in chain]
            assert all(d1 >= d2 for d1, d2 in zip(dims, dims[1:]))
            assert dims[-1] == dims[-2]  # stationary within n steps
            assert len(chain) <= sys.n + 2
            assert is_output_nulling(sys, chain[-1])

    def test_constrained_inside_E(self):
        E = line(0.0, 1.0)
        V = vstar(DI_POS, E)
        assert contains(E, V)

    def test_maximality_over_constructed_members(self):
        # hand-checkable output-nulling members of DI_VEL are {0} and the
        # position axis; the constrained limit must contain whichever of
        # them fits inside E
        members = [Subspace.zero(2), line(1.0, 0.0)]
        for E in (Subspace.full(2), line(1.0, 0.0)):
            limit = vstar(DI_VEL, E)
            for member in members:
                assert is_output_nulling(DI_VEL, member)
                if contains(E, member):
                    assert contains(limit, member)
        # and constructively on random systems: the reachability subspace on
        # the constrained limit is output nulling inside E, hence contained
        rng = np.random.default_rng(11)
        for seed in range(5):
            sys = random_system(GenSpec(n=4, m=2, p=1, seed=220 + seed))
            E = chain_term(sstar_sequence(sys), 2)
            limit = vstar(sys, E)
            member = reachability_on(sys, limit)
            assert is_output_nulling(sys, member)
            assert contains(E, member) and contains(limit, member)

    @pytest.mark.parametrize("n, m, p, seed, h, dims", [
        (17, 3, 2, 1088920536, 9, [9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0]),
        (24, 2, 1, 2092048920, 13, list(range(13, -1, -1)) + [0]),
        pytest.param(
            19, 2, 1, 1354216623, 15, list(range(15, -1, -1)) + [0],
            id="precision-cliff",
            marks=pytest.mark.xfail(strict=True, reason=(
                "ROADMAP item 3: sigma_2 of the constraint block [D, CQ] grows "
                "past the rank threshold at step 14, so the chain stops at "
                "dimension 2 where the 80-digit oracle reaches 0"))),
    ])
    def test_partial_chain_inside_sstar_term(self, n, m, p, seed, h, dims):
        """The chain inside E = S_h loses one dimension per step.  Pinned from
        an 80-digit run of the defining recursions:
        ``PYTHONPATH=src python tests/mp_chain_oracle.py N M P SEED H``."""
        sys = random_system(GenSpec(n=n, m=m, p=p, seed=seed))
        E = chain_term(sstar_sequence(sys), h)
        assert [V.dim for V in vstar_sequence(sys, E)] == dims

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3: at p = 0 the chain inside S_29 of a controllable "
        "single-input pair with 30 states stops at dimension 14, where the "
        "exact answer is 0"))
    def test_no_outputs_single_input_chain_inside_sstar_term(self):
        """Without outputs, a controllable single-input pair leaves no
        nonzero controlled-invariant subspace inside S_k for any k < n.  The
        draw is corollary-last's trial 2 at nmax = 30: 30 states, one input,
        controllable."""
        sys = SystemQuad.from_matrices(*_draw_pair(_rng_for(0, 2), 30))
        assert vstar(sys, chain_term(sstar_sequence(sys), 29)).dim == 0


    def test_limit_is_last_term_bitwise(self):
        for n, m, p in [(6, 2, 1), (9, 3, 2), (8, 2, 0)]:
            sys = random_system(GenSpec(n=n, m=m, p=p, seed=n + m + p))
            for E in (None, chain_term(sstar_sequence(sys), 2)):
                assert np.array_equal(vstar(sys, E).basis, vstar_sequence(sys, E)[-1].basis)


class TestSstarChain:
    def test_limit_is_last_term_bitwise(self):
        for n, m, p in [(6, 2, 1), (9, 3, 2), (8, 2, 0)]:
            sys = random_system(GenSpec(n=n, m=m, p=p, seed=n + m + p))
            assert np.array_equal(sstar(sys).basis, sstar_sequence(sys)[-1].basis)

    def test_full_column_rank_D(self):
        sys = SystemQuad.from_matrices(A2, B2, [[0.0, 0.0]], [[1.0]])
        chain = sstar_sequence(sys)
        assert [S.dim for S in chain] == [0, 0]

    def test_velocity_output_chain(self):
        # hand recursion: S1 = B ker D = im B = span e2, and S2 = span e2
        chain = sstar_sequence(DI_VEL)
        assert [S.dim for S in chain] == [0, 1, 1]
        assert equals(chain[-1], line(0.0, 1.0))

    def test_no_outputs_gives_step_reachable(self):
        sys = SystemQuad.from_matrices(A2, B2)
        chain = sstar_sequence(sys)
        assert chain_term(chain, 2).dim == 2
        for h in range(3):
            assert equals(chain_term(chain, h), krylov_image(A2, B2, h))
        # a run of h steps is a prefix of the full run, bit for bit
        for n, m in [(8, 2), (20, 3)]:
            sys = random_system(GenSpec(n=n, m=m, p=0, seed=n + m))
            chain = sstar_sequence(sys)
            for h in range(n + 2):
                assert np.array_equal(chain_term(chain, h).basis,
                                      krylov_image(sys.A, sys.B, h).basis)

    def test_monotone(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            sys = random_system(GenSpec(n=5, m=2, p=1, seed=40 + seed))
            dims = [S.dim for S in sstar_sequence(sys)]
            assert all(d1 <= d2 for d1, d2 in zip(dims, dims[1:]))
            assert dims[-1] == dims[-2]

    def test_saturating_index(self):
        chain = sstar_sequence(DI_VEL)
        assert chain_term(chain, 100).dim == chain[-1].dim
        with pytest.raises(ValidationError):
            chain_term(chain, -1)


def numpy_krylov_bases(A, B, blocks):
    """Orthonormal bases of im[B, ..., A^(j-1) B] for j = 1..blocks, by block
    Arnoldi with numpy QR and no rank decisions (B and every block generic)."""
    Q = new = np.linalg.qr(B)[0]
    bases = [Q]
    for _ in range(1, blocks):
        W = A @ new
        W -= Q @ (Q.T @ W)
        W -= Q @ (Q.T @ W)
        new = np.linalg.qr(W)[0]
        Q = np.hstack([Q, new])
        bases.append(Q)
    return bases


class TestChainsAtScale:
    """Chain invariants on seeded systems of the sizes and shapes the
    benchmark runs."""

    @pytest.mark.parametrize("n", [40, 80])
    @pytest.mark.parametrize("m, p", [(3, 2), (2, 3), (2, 2), (2, 0)])
    def test_terms_orthonormal_and_nested(self, n, m, p):
        sys = random_system(GenSpec(n=n, m=m, p=p, seed=n + 10 * m + p))
        schain, vchain = sstar_sequence(sys), vstar_sequence(sys)
        for S in schain + vchain:
            assert np.linalg.norm(S.basis.T @ S.basis - np.eye(S.dim), 2) <= 1e-12
        for small, big in list(zip(schain, schain[1:])) + list(zip(vchain[1:], vchain)):
            assert containment_residual(big, small) <= 1e-12

    @pytest.mark.parametrize("n", [40, 80])
    def test_no_outputs_terms_match_numpy_krylov(self, n):
        m, p = 2, 0
        sys = random_system(GenSpec(n=n, m=m, p=p, seed=n + 10 * m + p))
        chain = sstar_sequence(sys)
        bases = numpy_krylov_bases(sys.A, sys.B, n // m)
        assert [S.dim for S in chain] == [0] + [K.shape[1] for K in bases] + [n]
        for S, K in zip(chain[1:], bases):
            assert equals(S, Subspace(K))


class TestInvarianceTests:
    # controlled invariance is output nulling at p = 0; conditioned-invariant
    # and input-containing subspaces are complements of the dual's output-nulling ones
    def test_full_space_controlled_invariant(self):
        assert is_output_nulling(SystemQuad.from_matrices(A2, B2), Subspace.full(2))

    def test_generic_line_not_invariant_without_input(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 3))
        V = image_basis(rng.standard_normal((3, 1)))
        # A v stays off span{v} for a generic draw, checked numerically
        av = A @ V.basis
        assert containment_residual(V, image_basis(av)) > 1e-3
        assert not is_output_nulling(SystemQuad.from_matrices(A, np.zeros((3, 1))), V)

    def test_zero_subspace_conditioned_invariant(self):
        C = np.array([[1.0, 0.0]])
        dual_pair = SystemQuad.from_matrices(A2.T, C.T)
        assert is_output_nulling(dual_pair, orthonormal_complement(Subspace.zero(2)))

    def test_output_nulling_examples(self):
        assert is_output_nulling(DI_VEL, line(1.0, 0.0))
        assert not is_output_nulling(DI_VEL, line(0.0, 1.0))

    def test_input_containing_limit(self):
        for seed in range(6):
            sys = random_system(GenSpec(n=4, m=2, p=1, seed=60 + seed))
            assert is_output_nulling(dual_of(sys), orthonormal_complement(sstar(sys)))


class TestFriendOf:
    def test_zero_subspace_gets_zero_friend(self):
        fb = friend_of(DI_VEL, Subspace.zero(2))
        assert np.all(fb.F == 0.0) and fb.assigned == ()
        assert friend_of(DI_VEL, Subspace.zero(2), [-1.0]).assigned == ()

    @pytest.mark.parametrize("m, p", [(3, 2), (2, 3), (2, 0)])
    def test_zero_subspace_needs_no_factorization(self, monkeypatch, m, p):
        # the answers the least-squares friend and its staircase give on V = 0
        # come without either: F = 0 with zero residuals, and R = 0
        sys, zero = random_system(GenSpec(6, m, p, seed=m + p)), Subspace.zero(6)
        F, _, _, R = geometry._friend(sys, zero, DEFAULT_TOL)
        want = (F, (), 0.0, norm2(R[sys.n:]), norm2(R[:sys.n]), 1.0)
        reach = geometry._span(geometry._reach_along(sys, zero, DEFAULT_TOL)[3])
        friends = record_calls(monkeypatch, geometry, "_friend")
        for spectrum in (None, [-1.0, -2.0]):
            got = dataclasses.astuple(friend_of(sys, zero, spectrum))
            assert got[0].dtype == F.dtype and np.array_equal(got[0], F) and got[1:] == want[1:]
        got = reachability_on(sys, zero)
        assert got.basis.dtype == reach.basis.dtype and got.basis.shape == reach.basis.shape
        assert friends == []
        # the V* kept on a system is still R*'s question when it is zero
        if vstar(sys).dim == 0:
            assert reachability_on(sys, vstar(sys)) is rstar(sys)

    @pytest.mark.parametrize("V", [Subspace.full(3), Subspace.zero(3), Subspace.full(5)],
                             ids=["full-3", "zero-3", "full-5"])
    def test_a_subspace_of_another_space_is_refused(self, V):
        # as vstar refuses such an E, before any read of a kept answer
        sys = random_system(GenSpec(4, 2, 1, seed=5))
        vstar(sys), rstar(sys)
        for spectrum in (None, [-1.0, -2.0]):
            with pytest.raises(ValidationError, match="V has ambient"):
                friend_of(sys, V, spectrum)
        for check in (reachability_on, is_output_nulling):
            with pytest.raises(ValidationError, match="V has ambient"):
                check(sys, V)

    def test_double_integrator_full_space(self):
        sys = SystemQuad.from_matrices(A2, B2)
        fb = friend_of(sys, Subspace.full(2), [-1.0, -2.0])
        assert np.allclose(fb.F, [[-2.0, -3.0]], atol=1e-9)
        assert np.allclose(sorted(np.linalg.eigvals(A2 + B2 @ fb.F).real), [-2.0, -1.0], atol=1e-9)

    def test_friend_of_vstar_keeps_invariance(self):
        fb = friend_of(DI_VEL, vstar(DI_VEL))
        Acl = DI_VEL.A + DI_VEL.B @ fb.F
        V = vstar(DI_VEL)
        assert containment_residual(V, image_basis(Acl @ V.basis, scale=1.0)) < 1e-9
        assert fb.residual_out < 1e-9

    def test_rejects_non_invariant_subspace(self):
        with pytest.raises(NotInvariantError):
            friend_of(DI_VEL, line(0.0, 1.0))

    def test_not_output_nulling_message_carries_the_spectral_norms(self):
        sys = random_system(GenSpec(4, 2, 2, seed=3))
        V = image_basis(np.random.default_rng(1).standard_normal((4, 2)))
        R = friend_residual(sys, V)
        want = (f"subspace is not output nulling: residuals "
                f"{norm2(R[:sys.n]):.3e}/{norm2(R[sys.n:]):.3e}")
        with pytest.raises(NotInvariantError) as err:
            geometry._friend(sys, V, DEFAULT_TOL)
        assert str(err.value) == want

    def test_frobenius_bound_settles_the_check_without_spectral_norms(self, monkeypatch):
        sys = without_feedthrough(GenSpec(8, 2, 2, seed=1))
        V = vstar(sys)
        R = friend_residual(sys, V)
        spectral = max(norm2(R[:sys.n]), norm2(R[sys.n:]))
        assert 0.0 < spectral < np.linalg.norm(R)
        norms = record_calls(monkeypatch, geometry, "norm2")
        geometry._friend(sys, V, DEFAULT_TOL)
        assert norms == []
        # a bound of 1.5 times the larger spectral norm: half of it is below
        # ‖R‖_F, so the exact norms decide, and they pass
        tol = Tol(abs=1.5 * spectral / max(1.0, sys._ac_scale))
        _, _, _, got = geometry._friend(sys, V, tol)
        assert [M.shape for M in norms] == [(sys.n, V.dim), (sys.p, V.dim)]
        assert np.array_equal(got, R)
        # just below the larger spectral norm, they refuse
        with pytest.raises(NotInvariantError):
            geometry._friend(sys, V, Tol(abs=0.99 * spectral / max(1.0, sys._ac_scale)))

    def test_reported_residuals_are_the_spectral_norms(self):
        for sys in (without_feedthrough(GenSpec(8, 3, 2, seed=1)),
                    random_system(GenSpec(6, 2, 1, seed=4))):
            V = vstar(sys)
            R = friend_residual(sys, V)
            fb = friend_of(sys, V)
            assert fb.residual_inv == norm2(R[:sys.n]) and fb.residual_out == norm2(R[sys.n:])

    def test_complex_basis_is_refused(self):
        # a real system's subspaces come back real; no realification is tried
        V = Subspace(np.array([[1.0], [1.0j]]) / np.sqrt(2.0))
        with pytest.raises(NumericalError):
            friend_of(SystemQuad.from_matrices(A2, B2), V)

    def test_real_system_gives_real_friend(self):
        sys = random_system(GenSpec(n=6, m=2, p=1, seed=3))
        V = vstar(sys)
        assert V.basis.dtype == np.float64
        assert friend_of(sys, V).F.dtype == np.float64

    def test_prepaired_spectrum_is_still_validated(self):
        # a spectrum is validated whatever its form (no lonely complex value,
        # no duplicates, nothing non-finite), also on V = 0 where nothing
        # is placed
        sys = SystemQuad.from_matrices(CHAIN3, np.eye(3)[:, :2])
        for V in (Subspace.full(3), Subspace.zero(3)):
            for spec in ([1 + 1j], [-1 + 1j, -2.0], (-2.0, -2.0), np.array([np.nan, -1.0])):
                with pytest.raises(SpectrumError):
                    friend_of(sys, V, spec)

    def test_fixed_internal_spectrum_is_friend_independent(self):
        # the closed-loop spectrum on vstar/rstar carries the invariant zeros
        # and the reachability subspace is the same for every friend: the
        # computed F and F2 = F + K(I - VV'), which differs from F off V.
        # With D = 0, vstar is a proper subspace, so F2 != F.
        cases = []
        for seed in range(5):
            base = random_system(GenSpec(n=4, m=1, p=1, seed=80 + seed))
            cases += [(seed, base), (seed, SystemQuad.from_matrices(base.A, base.B, base.C, [[0.0]]))]
        for seed, sys in cases:
            V = vstar(sys)
            if V.dim == 0:
                continue
            zs = rosenbrock_zeros(sys)
            R = rstar(sys)
            vb = V.basis.real
            reach_seed = subspace_intersect(V, image_basis(sys.B @ kernel_basis(sys.D).basis))
            F = friend_of(sys, V).F
            K = np.random.default_rng(seed).standard_normal(F.shape)
            F2 = F + K @ (np.eye(sys.n) - vb @ vb.T)
            assert (V.dim == sys.n) == np.allclose(F2, F)
            for G in (F, F2):
                Acl = sys.A + sys.B @ G
                assert containment_residual(V, image_basis(Acl @ vb, scale=1.0)) < 1e-9
                assert np.linalg.norm((sys.C + sys.D @ G) @ vb) < 1e-9
                # spectrum of A+BG on V / R
                T2 = image_basis(R.perp_projector() @ vb, scale=1.0).basis
                fixed = np.linalg.eigvals(T2.conj().T @ Acl @ T2)
                ok, worst = eig_multiset_match(fixed, zs)
                assert ok, f"fixed spectrum off by {worst:.2e}"
                assert equals(krylov_image(Acl, reach_seed.basis, sys.n), R)


class TestReachabilityOn:
    def test_vstar_seed_empty(self):
        # vstar = span e1 and B ker D = span e2 intersect trivially
        assert reachability_on(DI_VEL, vstar(DI_VEL)).dim == 0

    def test_p0_full_space(self):
        sys = SystemQuad.from_matrices(A2, B2)
        assert reachability_on(sys, Subspace.full(2)).dim == 2

    def test_zero_subspace(self):
        assert reachability_on(DI_VEL, Subspace.zero(2)).dim == 0

    def test_refuses_subspace_that_is_not_output_nulling(self):
        # V ∩ B ker D = 0 for this line, so no reachability step runs: the
        # friend's residual must refuse V on its own
        sys = random_system(GenSpec(4, 2, 2, seed=3))
        V = image_basis(np.random.default_rng(1).standard_normal((4, 1)))
        assert not is_output_nulling(sys, V)
        with pytest.raises(NotInvariantError):
            reachability_on(sys, V)


    def test_no_residual_svd_on_a_well_conditioned_system(self, monkeypatch):
        # the friend's residual blocks have V.dim columns; the Frobenius
        # bound settles them, so linalg.svd never sees one
        sys = without_feedthrough(GenSpec(8, 3, 2, seed=1))
        V = vstar(sys)
        assert 0 < V.dim < sys.n
        factored = record_calls(monkeypatch, linalg, "svd")
        assert reachability_on(sys, V).dim == V.dim
        assert factored and all(M.shape[1] != V.dim for M in factored)


class TestRstar:
    def test_full_column_rank_D_identity_C(self):
        sys = SystemQuad.from_matrices(A2, B2, np.eye(2), [[1.0], [0.0]])
        assert rstar(sys).dim == 0

    def test_square_invertible_D_routes_agree(self):
        # ker D = 0 forces the reachability seed to vanish: rstar = {0},
        # while every state is output-nulling via u = -D^{-1}Cx
        rng = np.random.default_rng(6)
        for seed in range(5):
            sys = random_system(GenSpec(n=4, m=2, p=2, seed=120 + seed))
            r = rstar(sys)
            cross = subspace_intersect(vstar(sys), sstar(sys))
            assert equals(r, cross)
            assert r.dim == 0
            assert vstar(sys).dim == 4

    def test_no_output_constraints(self):
        sys = SystemQuad.from_matrices(A2, B2, [[0.0, 0.0]], [[0.0]])
        assert rstar(sys).dim == 2

    def test_identity_with_intersection(self):
        rng = np.random.default_rng(7)
        for seed in range(10):
            sys = random_system(GenSpec(n=5, m=2, p=1, seed=140 + seed))
            assert equals(rstar(sys), subspace_intersect(vstar(sys), sstar(sys)))

    @pytest.mark.parametrize("n", [20, 60])
    @pytest.mark.parametrize("m,p", [(3, 2), (2, 0)])
    def test_identity_with_intersection_more_inputs_than_outputs(self, n, m, p):
        sys = random_system(GenSpec(n=n, m=m, p=p, seed=n + m + p))
        r = rstar(sys)
        assert r.dim > 0
        assert equals(r, subspace_intersect(vstar(sys), sstar(sys)))


class TestMorse:
    def test_off_pattern_block_above_tolerance_raises(self, monkeypatch):
        sys = without_feedthrough(GenSpec(8, 3, 2, seed=1))
        reach = geometry._reach_along

        def skewed(*args):
            F, *rest = reach(*args)
            return (F + 1e-3, *rest)
        monkeypatch.setattr(geometry, "_reach_along", skewed)
        with pytest.raises(DecompositionError, match="off-pattern block norm"):
            morse_decomposition(sys)

    @pytest.mark.parametrize("leak", [1e-10, 1e-9])
    def test_frame_is_square_when_rstar_leaves_vstar(self, monkeypatch, leak):
        # an R* basis that leaves V* by less than tol.abs passes the leak
        # check; T2 and T3 take their widths from the dimensions already
        # decided, so no second rank decision can count the leak as a
        # direction (16 x 17 T at 1e-9) or misplace one (DecompositionError)
        parts = [random_system(GenSpec(n, m, p, seed=s))
                 for (n, m, p), s in (((4, 1, 1), 10), ((6, 2, 1), 11), ((6, 1, 2), 12))]
        sys = SystemQuad.from_matrices(
            *(scipy.linalg.block_diag(*(getattr(P, x) for P in parts)) for x in "ABCD"))
        reach = geometry._reach_along

        def leaky(sys_, V, tol):
            F, Omega, m1, Q, dims = reach(sys_, V, tol)
            w = orthonormal_complement(V).basis[:, 0]
            Q = np.linalg.qr(Q + leak * np.outer(w, np.ones(Q.shape[1])))[0]
            assert 0.5 * leak < containment_residual(V, Subspace(Q)) < 2.0 * leak
            return F, Omega, m1, Q, dims
        monkeypatch.setattr(geometry, "_reach_along", leaky)
        dec = morse_decomposition(sys)
        assert dec.T.shape == (16, 16)
        assert np.abs(dec.T.T @ dec.T - np.eye(16)).max() < 1e-8
        assert (dec.dim_vstar, dec.dim_rstar, dec.invariant_zeros.size) == (10, 6, 4)

    @pytest.mark.parametrize("m, p", [(3, 2), (2, 2), (2, 3), (2, 0)])
    def test_svds_only_in_staircases_and_residual_norms(self, monkeypatch, m, p):
        # the dual staircase decides dim V*, the friend's SVD and the R*
        # staircase dim R*; T2 and T3 are built from those decisions, so the
        # frame's own SVDs are the norms of the nonempty must-vanish blocks
        sys = without_feedthrough(GenSpec(8, m, p, seed=m + p))
        callers = gesdd_callers(monkeypatch)
        dec = morse_decomposition(sys)
        assert dec.residual <= DEFAULT_TOL.abs
        assert set(callers) <= {"_staircase", "_krylov", "_friend", "_ac_scale", "_bd_scale",
                                "morse_decomposition"}
        n1, nv, m1 = dec.dim_rstar, dec.dim_vstar, dec.m1
        blocks = [dec.Abar[n1:, :n1], dec.Abar[nv:, n1:nv], dec.Bbar[n1:, :m1],
                  dec.Cbar[:, :nv], dec.Dbar[:, :m1]]
        assert callers.count("morse_decomposition") == sum(M.size > 0 for M in blocks)

    def test_scale_norms_only_above_tol_abs(self, monkeypatch):
        sys = without_feedthrough(GenSpec(8, 3, 2, seed=1))
        norms = record_calls(monkeypatch, geometry, "norm2")
        dec = morse_decomposition(sys)
        assert 0.0 < dec.residual <= DEFAULT_TOL.abs
        Acl, Ccl = sys.A + sys.B @ dec.F, sys.C + sys.D @ dec.F
        assert norms and not any(np.array_equal(M, Acl) or np.array_equal(M, Ccl) for M in norms)

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 20, 40])
    def test_no_outputs_zeros_are_uncontrollable_eigenvalues(self, n):
        # at p = 0 the Rosenbrock zeros are the input-decoupling zeros: the
        # PBH test's uncontrollable eigenvalues are the oracle
        rng = np.random.default_rng(1000 + n)
        for t in range(6):
            A, B = _draw_pair(rng, n, uncontrollable=(t % 2 == 1))
            zeros = invariant_zeros(SystemQuad.from_matrices(A, B))
            want = uncontrollable_eigenvalues(A, B)
            ok, worst = eig_multiset_match(deduplicate_eigenvalues(zeros, 1e-6), want)
            assert ok, f"zeros off by {worst:.2e}"

    @pytest.mark.parametrize("seed", range(8))
    def test_frame_without_outputs_is_controllability_form(self, seed):
        # V* is the whole space: F = 0, Omega = I, T1 the Krylov basis of
        # (A, B) bit for bit, and the zeros are the uncontrollable
        # eigenvalues of the PBH test
        A, B = _draw_pair(np.random.default_rng(seed), 8, uncontrollable=True)
        n, m = B.shape
        frame = morse_decomposition(SystemQuad.from_matrices(A, B))
        assert np.all(frame.F == 0.0) and np.array_equal(frame.Omega, np.eye(m))
        assert np.array_equal(frame.T[:, :frame.dim_rstar], _krylov(A, B, n + 1, DEFAULT_TOL)[0])
        zeros = deduplicate_eigenvalues(frame.invariant_zeros, 1e-9)
        ok, worst = eig_multiset_match(zeros, uncontrollable_eigenvalues(A, B))
        assert ok, f"zeros off by {worst:.2e}"

    def test_double_integrator_blocks(self):
        dec = morse_decomposition(DI_VEL)
        assert dec.dim_rstar == 0 and dec.dim_vstar == 1
        assert len(dec.invariant_zeros) == 1 and abs(dec.invariant_zeros[0]) < 1e-9

    def test_square_zeros_match_rosenbrock_pencil(self):
        sys = random_system(GenSpec(n=120, m=2, p=2, seed=120))
        zs = morse_decomposition(sys).invariant_zeros
        ok, worst = eig_multiset_match(zs, rosenbrock_zeros(sys))
        assert ok, f"zeros off by {worst:.2e}"

    def test_generic_nonsquare_has_no_zeros(self):
        # a generic system with more inputs than outputs has no invariant
        # zeros; neither has its dual
        sys = random_system(GenSpec(n=20, m=3, p=2, seed=20))
        assert morse_decomposition(sys).invariant_zeros.size == 0
        assert morse_decomposition(dual_of(sys)).invariant_zeros.size == 0

    def test_trivial_vstar(self):
        sys = SystemQuad.from_matrices(A2, B2, np.eye(2), [[1.0], [0.0]])
        dec = morse_decomposition(sys)
        assert dec.dim_vstar == 0 and dec.invariant_zeros.size == 0

    @pytest.mark.parametrize("n", [8, 40])
    @pytest.mark.parametrize("m, p", [(2, 2), (3, 2), (2, 3)])
    def test_one_friend_serves_both_steps(self, n, m, p):
        # the decomposition's F is the least-squares friend of V*, and its
        # reachability block is R*
        sys = random_system(GenSpec(n=n, m=m, p=p, seed=n + 10 * m + p))
        dec = morse_decomposition(sys)
        assert np.array_equal(dec.F, friend_of(sys, vstar(sys)).F)
        assert dec.dim_rstar == rstar(sys).dim

    def test_block_pattern_residual(self):
        rng = np.random.default_rng(8)
        for seed in range(10):
            sys = random_system(GenSpec(n=5, m=2, p=2, seed=160 + seed))
            dec = morse_decomposition(sys)
            assert dec.residual <= 1e-8
            n1, nv = dec.dim_rstar, dec.dim_vstar
            assert np.abs(dec.Abar[n1:, :n1]).max(initial=0.0) < 1e-8
            assert np.abs(dec.Cbar[:, :nv]).max(initial=0.0) < 1e-8
            assert np.abs(dec.Dbar[:, :dec.m1]).max(initial=0.0) < 1e-8
            # T and Omega are orthogonal by construction
            assert np.abs(dec.T.T @ dec.T - np.eye(sys.n)).max() < 1e-10
            assert np.abs(dec.Omega.T @ dec.Omega - np.eye(sys.m)).max() < 1e-10


MEMO_SHAPES = [(3, 2), (2, 3), (2, 2), (2, 0)]


def _cold(sys: SystemQuad) -> SystemQuad:
    """The same matrices in a new system, whose memo is empty."""
    return SystemQuad.from_matrices(sys.A, sys.B, sys.C, sys.D)


def _same_subspace(U: Subspace, V: Subspace) -> bool:
    return U.basis.dtype == V.basis.dtype and np.array_equal(U.basis, V.basis)


def _same_frame(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        and getattr(a, f.name).dtype == getattr(b, f.name).dtype
        if isinstance(getattr(a, f.name), np.ndarray) else getattr(a, f.name) == getattr(b, f.name)
        for f in dataclasses.fields(a))


# every op that reads the memo, by name, with a bit-for-bit comparison of its answers
MEMO_OPS = {
    "vstar": (lambda s, tol: vstar(s, None, tol), _same_subspace),
    "vstar_sequence": (lambda s, tol: vstar_sequence(s, None, tol),
                       lambda a, b: len(a) == len(b) and all(map(_same_subspace, a, b))),
    "sstar": (sstar, _same_subspace),
    "sstar_sequence": (sstar_sequence,
                       lambda a, b: len(a) == len(b) and all(map(_same_subspace, a, b))),
    "rstar": (rstar, _same_subspace),
    "morse_decomposition": (morse_decomposition, _same_frame),
    "invariant_zeros": (invariant_zeros, lambda a, b: a == b),
    "normal_rank_rosenbrock": (normal_rank_rosenbrock, lambda a, b: a == b),
    "min_distinct_spectrum": (lambda s, tol: min_distinct_spectrum(s, "rosenbrock", tol),
                              lambda a, b: a == b),
    "build_Kh": (lambda s, tol: build_Kh(s, [-1.0, -2.0 + 1.0j, -2.0 - 1.0j, -3.0], tol)[0],
                 _same_subspace),
}


class TestStructureMemo:
    """The eigenvalue-independent builds are made once per system and Tol
    and shared; every op answers as on a new system."""

    @pytest.mark.parametrize("m, p", MEMO_SHAPES)
    def test_each_op_answers_as_on_a_new_system(self, m, p):
        # one system serves every op twice, in an order where the frame
        # reads V* and R* that vstar and rstar built; each answer equals,
        # bit for bit, the op's answer alone on a new system
        sys = random_system(GenSpec(12, m, p, seed=40 + 10 * m + p))
        for _ in range(2):
            for name, (op, same) in MEMO_OPS.items():
                assert same(op(sys, DEFAULT_TOL), op(_cold(sys), DEFAULT_TOL)), name

    @pytest.mark.parametrize("m, p", MEMO_SHAPES)
    def test_second_call_factors_nothing(self, monkeypatch, m, p):
        sys = random_system(GenSpec(12, m, p, seed=50 + 10 * m + p))
        ops = (vstar, sstar, rstar, morse_decomposition, invariant_zeros)
        first = [op(sys) for op in ops]
        callers = gesdd_callers(monkeypatch)
        second = [op(sys) for op in ops]
        assert callers == []
        assert second[3] is first[3]  # one frame
        assert all(map(_same_subspace, first[:3], second[:3])) and first[4] == second[4]

    @pytest.mark.parametrize("m, p", MEMO_SHAPES)
    def test_each_tol_gets_its_own_entry(self, m, p):
        sys = random_system(GenSpec(12, m, p, seed=60 + 10 * m + p))
        loose = Tol(rel=1e-6, abs=1e-6)
        warm = {name: op(sys, DEFAULT_TOL) for name, (op, _) in MEMO_OPS.items()}
        entries = len(sys._memo)
        for name, (op, same) in MEMO_OPS.items():
            assert same(op(sys, loose), op(_cold(sys), loose)), name
        assert len(sys._memo) == 2 * entries
        assert {tol for _, tol in sys._memo} == {DEFAULT_TOL, loose}
        assert morse_decomposition(sys, loose) is not morse_decomposition(sys, DEFAULT_TOL)
        # an equal Tol is the same key
        assert morse_decomposition(sys, Tol(rel=1e-6, abs=1e-6)) is morse_decomposition(sys, loose)
        for name, (op, same) in MEMO_OPS.items():
            assert same(op(sys, DEFAULT_TOL), warm[name]), name

    @pytest.mark.parametrize("m, p", MEMO_SHAPES)
    def test_cached_arrays_are_read_only(self, m, p):
        sys = random_system(GenSpec(12, m, p, seed=70 + 10 * m + p))
        for op, _ in MEMO_OPS.values():
            op(sys, DEFAULT_TOL)
        friend_of(sys, vstar(sys))  # keeps its answer on V* too, unless V* = 0
        # the three staircases' bases, F, Omega and R of the friend of V*,
        # F and Omega again with the R* staircase, and F once more with the
        # residual norms that friend_of reports on V*
        arrays = [x for entry in sys._memo.values() if isinstance(entry, tuple)
                  for x in entry if isinstance(x, np.ndarray)]
        answers = [entry for entry in sys._memo.values() if isinstance(entry, Subspace)]
        dec = morse_decomposition(sys)
        frame = [getattr(dec, f.name) for f in dataclasses.fields(dec)
                 if isinstance(getattr(dec, f.name), np.ndarray)]
        assert len(arrays) == (9 if vstar(sys).dim else 8)
        assert len(answers) == 3 and len(frame) == 8
        for M in arrays + frame + [S.basis for S in answers]:
            assert not M.flags.writeable
            with pytest.raises(ValueError):
                M[...] = 0.0
        assert isinstance(dec.stairs, tuple)
        assert all(isinstance(sys._memo[name, DEFAULT_TOL][-1], tuple)
                   for name in ("_stairs", "_vstar_stairs", "_rstar_stairs"))

    def test_a_frame_that_raises_raises_again(self, monkeypatch):
        sys = without_feedthrough(GenSpec(8, 3, 2, seed=1))
        reach = geometry._reach_along

        def skewed(*args):
            F, *rest = reach(*args)
            return (F + 1e-3, *rest)
        monkeypatch.setattr(geometry, "_reach_along", skewed)
        for _ in range(2):
            with pytest.raises(DecompositionError, match="off-pattern block norm"):
                morse_decomposition(sys)
        assert ("morse_decomposition", DEFAULT_TOL) not in sys._memo

    def test_a_build_that_raises_stores_nothing(self, monkeypatch):
        # the R* staircase refuses a leak off V* above tol.abs on every call
        sys = without_feedthrough(GenSpec(8, 3, 2, seed=2))
        assert 0 < vstar(_cold(sys)).dim < sys.n
        krylov, built = geometry._krylov, []

        def leaky(A, M, steps, tol):
            built.append(A)
            Q, dims = krylov(A, M, steps, tol)
            return np.linalg.qr(Q + 1e-3)[0], dims
        monkeypatch.setattr(geometry, "_krylov", leaky)
        for _ in range(2):
            with pytest.raises(NumericalError, match="leaves V"):
                rstar(sys)
        assert len(built) == 2 and ("_rstar_stairs", DEFAULT_TOL) not in sys._memo
        assert ("_vstar_stairs", DEFAULT_TOL) in sys._memo

    @pytest.mark.parametrize("m, p", MEMO_SHAPES)
    def test_answers_are_one_read_only_subspace_per_tol(self, m, p):
        # vstar (E omitted), sstar and rstar keep one Subspace per system
        # and Tol, bit for bit the answer a new system of copied arrays gives
        sys = random_system(GenSpec(12, m, p, seed=80 + 10 * m + p))
        cold = SystemQuad.from_matrices(*(M.copy() for M in (sys.A, sys.B, sys.C, sys.D)))
        loose = Tol(rel=1e-6, abs=1e-6)
        ops = {"_vstar": lambda s, tol: vstar(s, None, tol), "sstar": sstar, "rstar": rstar}
        for tol in (DEFAULT_TOL, loose):
            for name, op in ops.items():
                first = op(sys, tol)
                assert op(sys, tol) is first and sys._memo[name, tol] is first, name
                assert not first.basis.flags.writeable
                assert _same_subspace(first, op(cold, tol)), name
        assert vstar(sys) is vstar(sys, None, DEFAULT_TOL) is vstar(sys, tol=Tol())
        assert {key for key in sys._memo if key[0] in ops} == {
            (name, tol) for name in ops for tol in (DEFAULT_TOL, loose)}

    def test_the_memo_dies_with_the_system(self):
        sys = random_system(GenSpec(12, 3, 2, seed=3))
        morse_decomposition(sys)
        ref = weakref.ref(sys)
        del sys
        gc.collect()
        assert ref() is None


def _with_rstar(m: int, p: int) -> SystemQuad:
    """A 12-state system whose V* is a proper subspace with R* ≠ 0 where
    the shape allows (D = 0), or the whole space (p = 0)."""
    spec = GenSpec(12, m, p, seed=90 + 10 * m + p)
    return without_feedthrough(spec) if p else random_system(spec)


class TestFriendOfVstarMemo:
    """The least-squares friend of V* is built once per system and Tol and
    shared by the R* staircase, friend_of and reachability_on of the V* kept
    on the system, which vstar and vstar_sequence return; a copy of its
    basis takes the path of any subspace, to the same F and R*.  Each
    caller's F is its own."""

    @pytest.mark.parametrize("m, p", MEMO_SHAPES)
    def test_friend_of_vstar_is_a_cold_builds(self, monkeypatch, m, p):
        sys = _with_rstar(m, p)
        V = vstar(sys)
        want = friend_of(_cold(sys), V)  # no V* kept there: the friend of V as given
        friends = record_calls(monkeypatch, geometry, "_friend")
        for W in (V, V, Subspace(V.basis.copy())):
            got = friend_of(sys, W)
            assert np.array_equal(got.F, want.F) and got.F.dtype == want.F.dtype
            assert (got.residual_out, got.residual_inv) == (want.residual_out, want.residual_inv)
        # the friend of V*, kept and read twice, and the copy's, built apart;
        # V* = 0 needs none
        assert len(friends) == (2 if V.dim else 0)

    @pytest.mark.parametrize("m, p", MEMO_SHAPES)
    def test_the_callers_F_is_its_own(self, m, p):
        sys = _with_rstar(m, p)
        first = friend_of(sys, vstar(sys))
        want = first.F.copy()
        assert first.F.flags.writeable
        first.F[...] = 7.0
        again = friend_of(sys, vstar(sys))
        assert np.array_equal(again.F, want) and again.F is not first.F
        assert not np.shares_memory(again.F, geometry._friend_of_vstar(sys, DEFAULT_TOL)[0])

    def test_the_residual_norms_wait_for_friend_of(self, monkeypatch):
        # R* builds the friend without its spectral norms; the first
        # friend_of computes the two and the next reads them
        sys = _with_rstar(3, 2)
        norms = record_calls(monkeypatch, geometry, "norm2")
        rstar(sys)
        R = geometry._friend_of_vstar(sys, DEFAULT_TOL)[3]
        blocks = [(sys.p, R.shape[1]), (sys.n, R.shape[1])]
        assert not any(M.shape in blocks for M in norms)  # the Krylov run's scale only
        assert ("_friend_of_vstar_answer", DEFAULT_TOL) not in sys._memo
        del norms[:]
        fb = friend_of(sys, vstar(sys))
        assert [M.shape for M in norms] == blocks
        assert (fb.residual_out, fb.residual_inv) == (norm2(R[sys.n:]), norm2(R[:sys.n]))
        friend_of(sys, vstar(sys))
        assert len(norms) == 2

    @pytest.mark.parametrize("m, p", [(3, 2), (2, 2), (2, 0)])
    def test_one_ulp_off_takes_the_path_of_any_subspace(self, monkeypatch, m, p):
        sys = _with_rstar(m, p)
        V = vstar(sys)
        assert V.dim > 0
        rstar(sys)
        basis = V.basis.copy()
        basis[0, 0] = np.nextafter(basis[0, 0], np.inf)
        off = Subspace(basis)
        friends = record_calls(monkeypatch, geometry, "_friend")
        fb, reach = friend_of(sys, off), reachability_on(sys, off)
        assert len(friends) == 2
        cold = _cold(sys)
        assert np.array_equal(fb.F, friend_of(cold, off).F)
        assert _same_subspace(reach, reachability_on(cold, off))

    @pytest.mark.parametrize("m, p", MEMO_SHAPES)
    def test_rstar_serves_reachability_and_placement(self, monkeypatch, m, p):
        sys = _with_rstar(m, p)
        R, V = rstar(sys), vstar(sys)
        spectrum = [-1.0, -2.0 + 1.0j, -2.0 - 1.0j, -3.0]
        want = friend_of(_cold(sys), V, spectrum)  # the staircase on V as given
        stairs = record_calls(monkeypatch, geometry, "_staircase")
        friends = record_calls(monkeypatch, geometry, "_friend")
        assert reachability_on(sys, V) is R
        assert reachability_on(sys, vstar_sequence(sys)[-1]) is R
        got = friend_of(sys, V, spectrum)
        assert stairs == [] and friends == []
        # a copy of V*'s basis is any subspace: its own friend and
        # staircase, the same R*; a copy of V* = 0 needs neither
        copy = reachability_on(sys, Subspace(V.basis.copy()))
        assert _same_subspace(copy, R)
        assert len(friends) == (1 if V.dim else 0)
        assert np.array_equal(got.F, want.F)
        assert [lam for lam, _ in got.assigned] == [lam for lam, _ in want.assigned]
        assert all(np.array_equal(u, v) for (_, u), (_, v) in zip(got.assigned, want.assigned))
        assert (got.residual_eig, got.residual_out, got.residual_inv, got.cond_V) == (
            want.residual_eig, want.residual_out, want.residual_inv, want.cond_V)

    @pytest.mark.parametrize("m, p", MEMO_SHAPES)
    def test_the_sequences_end_in_the_kept_answers(self, m, p):
        # the chains' last terms are V* and S* as kept, with the bits of the
        # last stair's span
        sys = _with_rstar(m, p)
        vchain, schain = vstar_sequence(sys), sstar_sequence(sys)
        assert vchain[-1] is vstar(sys) and schain[-1] is sstar(sys)
        cold = _cold(sys)
        Q, dims = geometry._dual_stairs(cold, None, DEFAULT_TOL)
        assert np.array_equal(vchain[-1].basis, Subspace(Q[:, dims[-1]:]).basis)
        assert _same_subspace(schain[-1], sstar_sequence(cold)[-1])
        assert len(vchain) == len(vstar_sequence(cold)) and len(schain) == len(sstar_sequence(cold))

    @pytest.mark.parametrize("m, p", MEMO_SHAPES)
    def test_warm_queries_are_reads(self, monkeypatch, m, p):
        # after the first call the zeros and the friends of V* and of V = 0
        # run no LAPACK routine and no import, and each call hands out a new
        # list, or an F of its own that shares no memory with the kept one
        sys = _with_rstar(m, p)
        zero = Subspace.zero(sys.n)
        queries = {"zeros": lambda: invariant_zeros(sys),
                   "vstar": lambda: friend_of(sys, vstar(sys)),
                   "zero": lambda: friend_of(sys, zero)}
        first = {name: query() for name, query in queries.items()}
        kept = (geometry._friend_of_vstar(sys, DEFAULT_TOL)[0] if vstar(sys).dim
                else np.zeros(0))
        lapack, imports = lapack_calls(monkeypatch), recorded_imports(monkeypatch)
        for _ in range(2):
            again = {name: query() for name, query in queries.items()}
            assert again["zeros"] == first["zeros"] and again["zeros"] is not first["zeros"]
            assert again["zeros"] is not morse_decomposition(sys)._zero_values
            for name in ("vstar", "zero"):
                got, was = again[name], first[name]
                assert got.F.flags.writeable and got.F.dtype == was.F.dtype
                assert np.array_equal(got.F, was.F) and not np.shares_memory(got.F, was.F)
                assert not np.shares_memory(got.F, kept)
                assert dataclasses.astuple(got)[1:] == dataclasses.astuple(was)[1:]
        assert lapack == [] and imports == []
        # the spies see queries that are no reads: the zeros of a new system,
        # and a spectrum, which assignment's synthesis places
        invariant_zeros(_cold(sys))
        friend_of(sys, vstar(sys), [-1.0, -2.0])
        assert lapack and ("assignment", 1) in imports

    def test_nothing_is_built_to_recognise_vstar(self, monkeypatch):
        # with no V* kept, a subspace is not compared with one: V* is not
        # built for the question
        sys = _with_rstar(3, 2)
        V = vstar(_cold(sys))
        stairs = record_calls(monkeypatch, geometry, "_staircase")
        friend_of(sys, V)
        assert stairs == [] and ("_vstar", DEFAULT_TOL) not in sys._memo


class TestIntersectionFormula:
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_no_outputs_gives_sstar_term(self, n):
        # with no outputs V_i is the whole space, so V_i ∩ S_j = S_j
        sys = random_system(GenSpec(n=n, m=2 if n > 2 else 1, p=0, seed=240 + n))
        chain = sstar_sequence(sys)
        pairs = [(i, j) for i in (1, n) for j in range(1, n + 1)]
        for (i, j), got in zip(pairs, intersection_formulas(sys, pairs)):
            assert equals(got, chain_term(chain, j)), (i, j)
        assert equals(intersection_formula(sys, 1, 1), chain[1])

    def test_requires_positive_indices(self):
        # the one-pair and the batch forms refuse the same input alike
        for i, j in [(0, 1), (1, 0)]:
            for call in (lambda: intersection_formula(DI_VEL, i, j),
                         lambda: intersection_formulas(DI_VEL, [(1, 1), (i, j)])):
                with pytest.raises(ValidationError, match="need i >= 1 and j >= 1"):
                    call()

    def test_j_one_reduces_to_direct(self):
        rng = np.random.default_rng(9)
        for seed in range(8):
            sys = random_system(GenSpec(n=4, m=2, p=1, seed=180 + seed))
            vchain = vstar_sequence(sys)
            schain = sstar_sequence(sys)
            for i in (1, 2, 4):
                direct = subspace_intersect(chain_term(vchain, i), chain_term(schain, 1))
                assert equals(intersection_formula(sys, i, 1), direct)

    def test_saturated_equals_rstar(self):
        rng = np.random.default_rng(10)
        for seed in range(8):
            sys = random_system(GenSpec(n=4, m=2, p=1, seed=200 + seed))
            assert equals(intersection_formula(sys, sys.n, sys.n), rstar(sys))

    def test_full_column_rank_D_trivial(self):
        # the kernel pass is empty after one row and stops there
        sys = SystemQuad.from_matrices(CHAIN3, B3, np.eye(3)[:1], [[2.0]])
        assert intersection_formula(sys, 2, 2).dim == 0
        pairs = [(1, 1), (3, 2), (2, 3)]
        assert [S.dim for S in intersection_formulas(sys, pairs)] == [0, 0, 0]

    @pytest.mark.parametrize("n, m, p", [(5, 2, 1), (6, 3, 2), (6, 2, 3)])
    def test_batch_matches_single_pairs(self, n, m, p):
        sys = random_system(GenSpec(n=n, m=m, p=p, seed=220 + n + m + p))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for (i, j), got in zip(pairs, intersection_formulas(sys, pairs)):
            assert np.array_equal(got.basis, intersection_formula(sys, i, j).basis)

    def test_one_row_and_norm_per_j(self, monkeypatch):
        # the reversed Krylov row depends on j alone: its spectral norm is
        # taken once per distinct j, here 3 of them over 24 pairs, and every
        # basis is still the one a separate run gives, bit for bit
        sys = random_system(GenSpec(n=6, m=2, p=1, seed=231))
        pairs = [(i, j) for i in range(1, 7) for j in (3, 1, 3, 5)]
        norms = record_calls(monkeypatch, geometry, "norm2")
        got = intersection_formulas(sys, pairs)
        assert sorted(M.shape for M in norms if M.shape[0] == sys.n) == [(6, 2), (6, 6), (6, 10)]
        monkeypatch.undo()
        for (i, j), S in zip(pairs, got):
            assert S.dim > 0 and np.array_equal(S.basis, intersection_formula(sys, i, j).basis)

    def test_double_integrator_values(self):
        # all intersections vanish: vstar = span e1, sstar terms = span e2
        for i in (1, 2):
            for j in (1, 2):
                assert intersection_formula(DI_VEL, i, j).dim == 0
