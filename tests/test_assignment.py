import numpy as np
import pytest
import scipy.signal

from geokit.assignment import (
    build_Kh,
    diag_krylov_saturation,
    min_distinct_spectrum,
    moore_check,
    place_poles,
    synthesize_feedback,
)
from geokit.errors import NumericalError, SynthesisError, ValidationError
from geokit.geometry import (
    chain_term,
    friend_of,
    is_output_nulling,
    morse_decomposition,
    reachable_subspace,
    rstar,
    sstar_sequence,
    vstar,
)
from geokit.linalg import Subspace, equals, image_basis, max_imag, rank_of, subspace_intersect
from geokit.pencils import SpectrumError, reach_pencil_kernel
from geokit.sysmodel import GenSpec, SystemQuad, random_system
from geokit.verify import eig_multiset_match

A2 = np.array([[0.0, 1.0], [0.0, 0.0]])
B2 = np.array([[0.0], [1.0]])
CHAIN3 = np.array([[0.0, 1, 0], [0, 0, 1], [0, 0, 0]])
B3 = np.eye(3)[:, 2:]
DI_VEL = SystemQuad.from_matrices(A2, B2, [[0.0, 1.0]], [[0.0]])


class TestMooreCheck:
    def test_open_loop_eigenpairs_pass(self):
        A = np.diag([-1.0, -2.0])
        B = np.eye(2)
        w, V = np.linalg.eig(A)
        cands = [(w[k], V[:, k]) for k in range(2)]
        rep = moore_check(A, B, cands)
        assert rep.ok and rep.independent and all(rep.membership_ok)

    def test_duplicate_vector_fails_independence(self):
        A = np.diag([-1.0, -2.0])
        B = np.eye(2)
        v = np.array([1.0, 0.0])
        rep = moore_check(A, B, [(-1.0, v), (-2.0, v)])
        assert not rep.independent and not rep.ok

    def test_conjugate_mismatch(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        B = np.eye(2)
        lam = 1.0j
        K = reach_pencil_kernel(A, B, lam)
        v = K.V[:, 0]
        rep = moore_check(A, B, [(lam, v), (lam.conjugate(), 2.0 * v.conjugate())])
        assert not all(rep.conjugate_ok)

    def test_membership_failure(self):
        # a vector outside the pencil kernel state part at that eigenvalue
        rep = moore_check(A2, B2, [(-1.0, np.array([0.0, 1.0]))])
        assert not rep.membership_ok[0]

    def test_too_many_candidates(self):
        with pytest.raises(ValidationError):
            moore_check(A2, B2, [(-float(k), np.ones(2)) for k in range(1, 4)])


class TestSynthesize:
    def test_double_integrator_closed_form(self):
        kernels = [reach_pencil_kernel(A2, B2, lam) for lam in (-1.0, -2.0)]
        fb = synthesize_feedback(A2, B2, [(K, np.ones(1)) for K in kernels])
        assert np.allclose(fb.F, [[-2.0, -3.0]], atol=1e-9)
        assert fb.residual_eig < 1e-10

    def test_open_loop_eigenselection_gives_zero_feedback(self):
        A = np.diag([-1.0, -2.0])
        B = np.eye(2)
        sel = []
        for lam in (-1.0, -2.0):
            K = reach_pencil_kernel(A, B, lam)
            # coefficients reproducing the eigenvector of A (w = 0)
            target = np.zeros(4)
            target[0 if lam == -1.0 else 1] = 1.0
            c, *_ = np.linalg.lstsq(np.vstack([K.V, K.W]), target, rcond=None)
            sel.append((K, c))
        fb = synthesize_feedback(A, B, sel)
        assert np.abs(fb.F).max() < 1e-10

    def test_conjugate_pair_real_feedback(self):
        lam = complex(-1.0, 1.0)
        K = reach_pencil_kernel(A2, B2, lam)
        Kc = reach_pencil_kernel(A2, B2, lam.conjugate())
        # conjugate-matched coefficients: mate columns are exact conjugates
        c = np.ones(1)
        stacked = np.vstack([K.V, K.W]).conj()
        cc, *_ = np.linalg.lstsq(np.vstack([Kc.V, Kc.W]), stacked @ c, rcond=None)
        fb = synthesize_feedback(A2, B2, [(K, c), (Kc, cc)])
        assert max_imag(fb.F) == 0.0
        assert fb.residual_eig <= 1e-8
        eigs = sorted(np.linalg.eigvals(A2 + B2 @ fb.F), key=lambda z: z.imag)
        assert np.allclose(eigs, [complex(-1, -1), complex(-1, 1)], atol=1e-8)

    def test_phase_rotated_partner_placed(self):
        # a conjugate partner times a unit scalar spans the same column pair,
        # so F = W V⁺ is still real: λ = -1 ± i gives s² + 2s + 2
        lam = complex(-1.0, 1.0)
        K = reach_pencil_kernel(A2, B2, lam)
        Kc = reach_pencil_kernel(A2, B2, lam.conjugate())
        cc, *_ = np.linalg.lstsq(np.vstack([Kc.V, Kc.W]), np.vstack([K.V, K.W]).conj()[:, 0],
                                 rcond=None)
        fb = synthesize_feedback(A2, B2, [(K, np.ones(1)), (Kc, np.exp(0.7j) * cc)])
        assert fb.F.dtype == np.float64
        assert np.allclose(fb.F, [[-2.0, -2.0]], atol=1e-9)
        assert fb.residual_eig <= 1e-8

    def test_complex_multiple_of_real_columns_placed(self):
        kernels = [reach_pencil_kernel(A2, B2, lam) for lam in (-1.0, -2.0)]
        fb = synthesize_feedback(A2, B2, [(K, 1j * np.ones(1)) for K in kernels])
        assert fb.F.dtype == np.float64
        assert np.allclose(fb.F, [[-2.0, -3.0]], atol=1e-9)

    def test_unmatched_complex_selection_rejected(self):
        lam = complex(-1.0, 1.0)
        K = reach_pencil_kernel(A2, B2, lam)
        with pytest.raises(SynthesisError, match="non-self-conjugate selection"):
            synthesize_feedback(A2, B2, [(K, np.ones(1))])

    def test_complex_column_at_real_eigenvalue_rejected(self):
        # a genuinely complex combination of two real kernel columns
        A, B = np.diag([-1.0, -2.0]), np.eye(2)
        K = reach_pencil_kernel(A, B, -1.0)
        with pytest.raises(SynthesisError, match="non-self-conjugate selection"):
            synthesize_feedback(A, B, [(K, np.array([1.0, 1j]))])

    def test_dependent_selection_rejected(self):
        K = reach_pencil_kernel(A2, B2, -1.0)
        with pytest.raises(SynthesisError):
            synthesize_feedback(A2, B2, [(K, np.ones(1)), (K, 2.0 * np.ones(1))])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_spectrum_refused_by_every_op(bad):
    with pytest.raises(SpectrumError, match="not finite"):
        place_poles(A2, B2, [bad, -1.0])
    with pytest.raises(SpectrumError, match="not finite"):
        build_Kh(DI_VEL, [bad, -1.0])
    with pytest.raises(SpectrumError, match="not finite"):
        friend_of(DI_VEL, vstar(DI_VEL), [bad, -1.0])


class TestPlacePoles:
    def test_double_integrator(self):
        fb = place_poles(A2, B2, [-1.0, -2.0])
        assert np.allclose(fb.F, [[-2.0, -3.0]], atol=1e-9)

    def test_needs_enough_values(self):
        with pytest.raises(SynthesisError):
            place_poles(A2, B2, [-1.0])

    def test_rejects_uncontrollable_eigenvalue(self):
        with pytest.raises(SpectrumError):
            place_poles(np.diag([1.0, 2.0]), np.eye(2)[:, :1], [2.0])

    def test_partial_placement_on_reachable_part(self):
        A = np.diag([1.0, 2.0])
        B = np.eye(2)[:, :1]
        fb = place_poles(A, B, [-3.0])
        eigs = sorted(np.linalg.eigvals(A + B @ fb.F).real)
        assert np.allclose(eigs, [-3.0, 2.0], atol=1e-8)

    def test_requested_eigenvalue_of_A(self):
        # 0 is an eigenvalue of A2 and 1 one of diag(1, 2, 3): the solves at
        # those values are shifted off them first, and the shift folded into F
        fb = place_poles(A2, B2, [0.0, -1.0])
        assert np.allclose(fb.F, [[0.0, -1.0]], atol=1e-9)
        A, B = np.diag([1.0, 2.0, 3.0]), np.ones((3, 1))
        fb = place_poles(A, B, [1.0, -1.0, -2.0])
        assert eig_multiset_match([1.0, -1.0, -2.0], np.linalg.eigvals(A + B @ fb.F))[0]

    def test_repeated_input_column(self):
        # B has a kernel: only the inputs that move a state are parameters
        B = np.hstack([B2, 2.0 * B2])
        fb = place_poles(A2, B, [-1.0, -2.0])
        assert eig_multiset_match([-1.0, -2.0], np.linalg.eigvals(A2 + B @ fb.F))[0]

    def test_tiny_separation_keeps_rank(self):
        # dimension counts are eigenvalue-independent even at separation 1e-3;
        # conditioning may degrade but the placement stays consistent
        rng = np.random.default_rng(0)
        for seed in range(5):
            sys = random_system(GenSpec(n=3, m=1, seed=seed, controllable=True))
            lams = [-2.0, -2.0 + 1e-3, -2.0 - 1e-3]
            kernels = [reach_pencil_kernel(sys.A, sys.B, lam) for lam in lams]
            assert rank_of(np.hstack([K.V for K in kernels]), scale=1.0) == 3


class TestPlacePolesAgainstScipy:
    """``scipy.signal.place_poles`` (Kautsky-Nichols-Van Dooren) as an
    independent oracle, on seeded controllable systems where both methods
    are well conditioned; it returns K with A - BK, geokit F with A + BF."""

    @staticmethod
    def _case(n, m, s):
        sys = random_system(GenSpec(n, m, 0, seed=100 * n + 10 * m + s, controllable=True))
        return sys.A, sys.B, -1.0 - 0.5 * np.arange(n)

    @pytest.mark.parametrize("n", [4, 6])
    def test_single_input_gain_is_scipys(self, n):
        # with one input the placing gain is unique
        for s in range(5):
            A, B, lams = self._case(n, 1, s)
            K = scipy.signal.place_poles(A, B, lams).gain_matrix
            F = place_poles(A, B, lams).F
            assert np.abs(F + K).max() <= 1e-8 * np.abs(K).max()

    @pytest.mark.filterwarnings("ignore:selected eigenvector matrix has condition number")
    @pytest.mark.parametrize("n, refused", [(10, {3}), (12, {3, 4})])
    def test_single_input_spectrum_is_placed_or_refused(self, n, refused):
        # the unique gain is ill conditioned (cond_V 2e7 to 3e9): F = W V⁺ on
        # the whole eigenvector matrix missed by up to 1.1e-3 here; the worst
        # at 60 digits (tests/mp_chain_oracle.py place N 1 SEED) is 8.4e-5
        for s in range(5):
            A, B, lams = self._case(n, 1, s)
            if s in refused:
                with pytest.raises(SynthesisError, match="dependent selection"):
                    place_poles(A, B, lams)
                continue
            F = place_poles(A, B, lams).F
            ok, worst = eig_multiset_match(lams, np.linalg.eigvals(A + B @ F), 2e-4)
            assert ok, f"seed {s}: spectrum off by {worst:.2e}"

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    @pytest.mark.parametrize("m", [2, 3])
    def test_multi_input_spectrum_is_placed(self, m, n):
        for s in range(5):
            A, B, lams = self._case(n, m, s)
            F = place_poles(A, B, lams).F
            ok, worst = eig_multiset_match(lams, np.linalg.eigvals(A + B @ F))
            assert ok, f"seed {s}: spectrum off by {worst:.2e}"

    def test_knv_sweeps_condition_the_eigenvectors(self):
        # the seeded parameters alone give cond_V up to 2e6 on these draws
        for s in range(5):
            A, B, lams = self._case(12, 3, s)
            assert place_poles(A, B, lams).cond_V < 1e5


def test_cond_warning_points_at_the_caller():
    sys = random_system(GenSpec(12, 1, 0, seed=1210, controllable=True))
    lams = -1.0 - 0.5 * np.arange(12)
    for op in (lambda: place_poles(sys.A, sys.B, lams),
               lambda: friend_of(sys, vstar(sys), lams)):
        with pytest.warns(RuntimeWarning, match="condition number") as record:
            op()
        assert (record[0].filename, record[0].lineno) == (__file__, op.__code__.co_firstlineno)


@pytest.mark.filterwarnings("ignore:selected eigenvector matrix has condition number")
@pytest.mark.parametrize("n, m", [(16, 2), (20, 2), (24, 3), (30, 3)])
def test_every_requested_value_is_placed_or_refused(n, m):
    # a greedy selection of kernel columns dropped a requested value here and
    # assigned another twice, without an error (off by 0.5 to 9); for one
    # draw at 60 digits: tests/mp_chain_oracle.py place N M SEED
    for s in range(5):
        sys = random_system(GenSpec(n, m, 0, seed=100 * n + 10 * m + s, controllable=True))
        lams = -1.0 - 0.5 * np.arange(n)
        for op in (lambda: place_poles(sys.A, sys.B, lams), lambda: friend_of(sys, vstar(sys), lams)):
            try:
                fb = op()
            except SynthesisError:
                continue
            placed = {lam for lam, _ in fb.assigned}
            assert all(complex(lam) in placed for lam in lams), f"seed {s}: a value is missing"
            ok, worst = eig_multiset_match(lams, np.linalg.eigvals(sys.A + sys.B @ fb.F),
                                           1e-2 * float(np.abs(lams).max()))
            assert ok, f"seed {s}: spectrum off by {worst:.2e}"


class TestBuildKh:
    def test_p0_chain_dimension(self):
        kh, kernels = build_Kh(SystemQuad.from_matrices(CHAIN3, B3), [-1.0, -2.0])
        assert kh.dim == 2 == rank_of(np.hstack([B3, CHAIN3 @ B3]))
        assert [K.q for K in kernels] == [1, 1]

    def test_h1_matches_input_rank(self):
        kh, _ = build_Kh(SystemQuad.from_matrices(CHAIN3, B3), [-1.5])
        assert kh.dim == 1

    def test_saturated_equals_rstar(self):
        for seed in range(5):
            sys = random_system(GenSpec(n=4, m=2, p=1, seed=seed))
            lams = [-1.0 - k for k in range(sys.n)]
            kh, _ = build_Kh(sys, lams)
            assert equals(kh, rstar(sys))

    def test_output_nulling(self):
        for seed in range(5):
            sys = random_system(GenSpec(n=4, m=2, p=1, seed=20 + seed))
            kh, _ = build_Kh(sys, [-1.0, -2.5])
            assert is_output_nulling(sys, kh)

    def test_spectrum_validated(self):
        with pytest.raises(SpectrumError):
            build_Kh(SystemQuad.from_matrices(np.diag([1.0, 2.0]), np.eye(2)[:, :1]), [2.0])

    @pytest.mark.parametrize("m, p, want", [(3, 2, 20), (2, 0, 40)])
    def test_dimension_is_structural_at_forty_states(self, m, p, want):
        # the rank decided on the stacked kernel state parts gave 14 of 20
        # and 25 of 40 here
        sys = random_system(GenSpec(n=40, m=m, p=p, seed=7))
        oracle = subspace_intersect(vstar(sys), chain_term(sstar_sequence(sys), 20)).dim
        kh, _ = build_Kh(sys, np.linspace(-3.0, -0.5, 20))
        assert kh.dim == oracle == want

    @pytest.mark.parametrize("lams", [[-1.0], [-1.0, -2.0], [-1.0, -5.0]])
    def test_requested_eigenvalue_of_A_without_outputs(self, lams):
        # every eigenvalue of A is controllable, so -1 is admissible, but
        # A + I is singular: the dynamics are shifted before the solves
        sys = SystemQuad.from_matrices(np.diag([-1.0, -2.0, -3.0]), np.ones((3, 1)))
        kh, kernels = build_Kh(sys, lams)
        span = image_basis(np.hstack([K.V for K in kernels]), scale=1.0)
        assert kh.dim == span.dim == len(lams) and equals(kh, span)

    def test_requested_eigenvalue_of_the_rstar_block(self):
        # a real eigenvalue of A+BF on R* (not an invariant zero) is admissible
        sys = random_system(GenSpec(n=5, m=2, p=1, seed=0))
        dec = morse_decomposition(sys)
        n1 = dec.dim_rstar
        real = [e.real for e in np.linalg.eigvals(dec.Abar[:n1, :n1]) if e.imag == 0.0]
        for lams in ([real[0]], [real[0], -1.0]):
            kh, kernels = build_Kh(sys, lams)
            span = image_basis(np.hstack([K.V for K in kernels]), scale=1.0)
            assert kh.dim == span.dim == len(lams) and equals(kh, span)

    def test_basis_against_80_digit_kernels(self):
        # the span of the pencil kernels' state parts, solved at 80 digits
        # from the exact binary data (tests/mp_chain_oracle.py kh 24 3 2 7 12)
        pytest.importorskip("mpmath")
        from mp_chain_oracle import kh_basis

        sys = random_system(GenSpec(n=24, m=3, p=2, seed=7))
        lams = np.linspace(-3.0, -0.5, 12)
        exact, (kh, _) = kh_basis(sys, lams), build_Kh(sys, lams)
        assert kh.dim == exact.shape[1] == 12
        assert np.linalg.norm(exact - kh.basis @ (kh.basis.T @ exact), 2) < 1e-12

    @pytest.mark.parametrize("n", [60, 80])
    def test_one_input_direction_on_rstar(self, n):
        # B ker D is one direction, so Kh is a single-input rational Krylov
        # space: the kernel stack returned 15 of 20 dimensions here, and
        # p(A+BF)⁻¹ applied to a basis of V* ∩ S_20 fails its certificate
        sys = random_system(GenSpec(n=n, m=3, p=2, seed=5))
        want = subspace_intersect(vstar(sys), chain_term(sstar_sequence(sys), 20)).dim
        kh, kernels = build_Kh(sys, np.linspace(-3.0, -0.5, 20))
        V = np.hstack([K.V for K in kernels])
        assert kh.dim == want == 20
        assert np.linalg.norm(V - kh.basis @ (kh.basis.T @ V), axis=0).max() <= 1e-8
        assert is_output_nulling(sys, kh)

    def test_certificate_refuses_a_basis_missing_a_direction(self, monkeypatch):
        from geokit import assignment

        structural = assignment._kh
        monkeypatch.setattr(assignment, "_kh",
                            lambda *args: Subspace(structural(*args).basis[:, :-1]))
        sys = random_system(GenSpec(n=6, m=2, p=1, seed=3))
        with pytest.raises(NumericalError):
            build_Kh(sys, [-1.0, -2.0, -3.0])

    def test_certificate_of_a_square_system_that_loses_normal_rank(self, monkeypatch):
        # two equal outputs: the Rosenbrock matrix loses rank at every λ, so
        # each kernel comes from the full SVD and the certificate checks it
        from geokit import assignment

        base = random_system(GenSpec(n=8, m=2, p=2, seed=3))
        sys = SystemQuad.from_matrices(base.A, base.B, base.C[[0, 0]], base.D[[0, 0]])
        kh, kernels = build_Kh(sys, [-1.0, -2.0, -3.0])
        assert kh.dim == 3 and [K.q for K in kernels] == [1, 1, 1]
        structural = assignment._kh
        monkeypatch.setattr(assignment, "_kh",
                            lambda *args: Subspace(structural(*args).basis[:, :-1]))
        with pytest.raises(NumericalError):
            build_Kh(sys, [-1.0, -2.0, -3.0])


class TestMinDistinctSpectrum:
    def test_single_input_chain(self):
        sys = SystemQuad.from_matrices(CHAIN3, B3)
        assert min_distinct_spectrum(sys, "reachability") == 3

    def test_full_rank_input(self):
        sys = SystemQuad.from_matrices(np.diag([1.0, 2.0]), np.eye(2))
        assert min_distinct_spectrum(sys, "reachability") == 1

    def test_degenerate_rstar(self):
        sys = SystemQuad.from_matrices(A2, B2, np.eye(2), [[1.0], [0.0]])
        assert min_distinct_spectrum(sys, "rosenbrock") == 0

    def test_achievable_with_that_many_values(self):
        # a diagonalizable closed loop with exactly h distinct reachable
        # eigenvalues exists: place h values and count the distinct spectrum
        sys = SystemQuad.from_matrices(CHAIN3, B3)
        h = min_distinct_spectrum(sys, "reachability")
        fb = place_poles(sys.A, sys.B, [-1.0 - k for k in range(h)])
        eigs = np.linalg.eigvals(sys.A + sys.B @ fb.F)
        from geokit.pencils import deduplicate_eigenvalues

        assert len(deduplicate_eigenvalues(eigs, 1e-6)) == h

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            min_distinct_spectrum(DI_VEL, "nope")


class TestReachOnKh:
    def test_double_integrator_h1_pinned(self):
        # kernel at -1 is empty, so K_1 = {0} and the reachability subspace
        # vanishes, matching the recursion restricted to the first
        # input-containing term (hand run: vstar inside span e2 is {0})
        from geokit.assignment import reach_on_Kh
        from geokit.geometry import chain_term, sstar_sequence, vstar

        r1 = reach_on_Kh(DI_VEL, [-1.0])
        assert r1.dim == 0
        target = vstar(DI_VEL, chain_term(sstar_sequence(DI_VEL), 1))
        assert target.dim == 0

    def test_p0_full_assignment(self):
        sys = SystemQuad.from_matrices(A2, B2)
        from geokit.assignment import reach_on_Kh

        assert reach_on_Kh(sys, [-1.0, -2.0]).dim == 2

    def test_saturated_rstar(self):
        from geokit.assignment import reach_on_Kh

        for seed in range(4):
            sys = random_system(GenSpec(n=4, m=2, p=1, seed=40 + seed))
            lams = [-1.0 - 0.7 * k for k in range(sys.n)]
            assert equals(reach_on_Kh(sys, lams), rstar(sys))


class TestDiagKrylov:
    def test_scalar_matrix(self):
        assert diag_krylov_saturation(2.0 * np.eye(3), np.ones((3, 1))) == 1

    def test_vandermonde_pair(self):
        # [H  ΔH] = [[1,1],[1,2]] has determinant 1: two steps to saturate
        assert diag_krylov_saturation(np.diag([1.0, 2.0]), np.ones((2, 1))) == 2

    def test_zero_seed(self):
        assert diag_krylov_saturation(np.diag([1.0, 2.0]), np.zeros((2, 1))) == 0

    @pytest.mark.parametrize("gap", [1e-2, 1e-3, 1e-4])
    def test_clustered_values_saturate_at_n(self, gap):
        # eight distinct values and a seed with no zero entry: the exact
        # chain grows for eight steps, which a basis of raw powers misses
        Delta, H = np.diag(1.0 + gap * np.arange(8)), np.ones((8, 1))
        assert diag_krylov_saturation(Delta, H) == 8 == reachable_subspace(Delta, H)[1]

    def test_rejects_non_diagonal(self):
        with pytest.raises(ValidationError):
            diag_krylov_saturation(A2 + np.eye(2), np.ones((2, 1)))

    def test_bounded_by_distinct_values(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            k = int(rng.integers(1, n + 1))
            vals = rng.standard_normal(k)
            diag = np.concatenate([vals, vals[rng.integers(0, k, size=n - k)]])
            H = rng.standard_normal((n, int(rng.integers(1, 3))))
            assert diag_krylov_saturation(np.diag(diag), H) <= k
