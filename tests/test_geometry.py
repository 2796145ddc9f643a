import numpy as np
import pytest
import scipy.linalg

from geokit.errors import NotInvariantError, NumericalError, SpectrumError, ValidationError
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
    contains,
    containment_residual,
    equals,
    image_basis,
    kernel_basis,
    orthonormal_complement,
    subspace_intersect,
)
from geokit.pencils import (
    SpectrumSpec,
    deduplicate_eigenvalues,
    invariant_zeros,
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
        # a SpectrumSpec with its pairing already filled in gets the same
        # checks as a plain list: no lonely complex value, no duplicates
        sys = SystemQuad.from_matrices(CHAIN3, np.eye(3)[:, :2])
        for spec in (SpectrumSpec((-1 + 1j, -2.0), partner=(0, 1)),
                     SpectrumSpec((-2.0, -2.0), partner=(0, 1)),
                     [-1 + 1j, -2.0]):
            with pytest.raises(SpectrumError):
                friend_of(sys, Subspace.full(3), spec)

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

    def test_double_integrator_values(self):
        # all intersections vanish: vstar = span e1, sstar terms = span e2
        for i in (1, 2):
            for j in (1, 2):
                assert intersection_formula(DI_VEL, i, j).dim == 0
