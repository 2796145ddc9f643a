"""Acceptance suite: every criterion at its stated trial count and tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure).  The randomized sweeps are seeded and deterministic.
"""

import time

import numpy as np

from geokit import assignment, geometry, pencils, verify
from geokit.linalg import DEFAULT_TOL, max_imag, rank_of
from geokit.sysmodel import GenSpec, random_system
from geokit.verify import _draw_distinct, _draw_quad, _rng_for

from sampled_rank import sampled_normal_rank

A2 = np.array([[0.0, 1.0], [0.0, 0.0]])
B2 = np.array([[0.0], [1.0]])


def _report(num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name:24s} {status} ({elapsed:.2f}s){' ' + detail if detail else ''}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _sweep(num, name, runner, trials, budget):
    t0 = time.time()
    rep = runner(trials=trials, seed=0, nmax=8, tol=DEFAULT_TOL)
    elapsed = time.time() - t0
    detail = "" if rep.ok else f"first failing seed {rep.first_failing_seed}: {rep.failures[0].message}"
    _report(num, name, rep.ok and elapsed < budget, elapsed, detail)


def test_criterion_1_th1_rank_identity():
    # 100 systems (controllable and uncontrollable mixes), every h, two
    # independent admissible spectra: exact integer equality of the
    # tolerance-ranks; budget 10 s
    _sweep(1, "th1 rank identity", verify.THEOREM_IDS["th1"], 100, 10.0)


def test_criterion_2_th2_three_way():
    _sweep(2, "th2 three-way", verify.THEOREM_IDS["th2"], 100, 30.0)


def test_criterion_3_thlast():
    _sweep(3, "thlast reachability", verify.THEOREM_IDS["thlast"], 100, 60.0)


def test_criterion_4_corollary_last():
    _sweep(4, "corollary-last (p=0)", verify.THEOREM_IDS["corollary-last"], 100, 60.0)


def test_criterion_5_pole_placement():
    t0 = time.time()
    fb = assignment.place_poles(A2, B2, [-1.0, -2.0])
    fixture_ok = bool(np.abs(fb.F - np.array([[-2.0, -3.0]])).max() <= 1e-9)

    failures = []
    for t in range(100):
        rng = _rng_for(500, t)
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, min(n, 3) + 1))
        sys = random_system(GenSpec(n=n, m=m, seed=int(rng.integers(0, 2**31))))
        if geometry.reachable_subspace(sys.A, sys.B)[0].dim != n:
            failures.append((t, "draw not controllable"))
            continue
        for _ in range(20):
            lams = _draw_distinct(rng, n, [], self_conjugate=True)
            res = assignment.place_poles(sys.A, sys.B, lams, DEFAULT_TOL)
            if res.cond_V <= 1e8:
                break
        else:
            failures.append((t, "no well-conditioned spectrum found"))
            continue
        if max_imag(res.F) > 1e-10:
            failures.append((t, f"feedback not real: {max_imag(res.F):.2e}"))
            continue
        achieved = np.linalg.eigvals(sys.A + sys.B @ res.F)
        ok, worst = verify.eig_multiset_match(lams, achieved)
        if not ok:
            failures.append((t, f"eigenvalue multiset off by {worst:.2e}"))
    detail = "" if fixture_ok and not failures else f"fixture_ok={fixture_ok}, failures={failures[:3]}"
    _report(5, "pole placement fidelity", fixture_ok and not failures, time.time() - t0, detail)


def test_criterion_6_friend_contract():
    # same system/spectrum recipe as criterion 3; every built subspace gets a
    # friend with output and invariance residuals at 1e-8
    t0 = time.time()
    failures = []
    for t in range(100):
        rng = _rng_for(0, t)
        sys = _draw_quad(rng, 8)
        zeros = pencils.invariant_zeros(sys)
        for h in range(1, sys.n + 1):
            lams = _draw_distinct(rng, h, zeros, self_conjugate=True)
            kh, _ = assignment.build_Kh(sys, lams)
            fb = geometry.friend_of(sys, kh, lams)
            if fb.residual_out > 1e-8 or fb.residual_inv > 1e-8:
                failures.append((t, h, fb.residual_out, fb.residual_inv))
                break
            if kh.dim:
                kb = kh.basis.real
                Acl = sys.A + sys.B @ fb.F
                mapped = Acl @ kb
                inv = np.linalg.norm(mapped - kb @ (kb.T @ mapped), 2)
                out = np.linalg.norm((sys.C + sys.D @ fb.F) @ kb, 2)
                if inv > 1e-8 or out > 1e-8:
                    failures.append((t, h, out, inv))
                    break
    _report(6, "friend contract", not failures, time.time() - t0,
            "" if not failures else str(failures[:3]))


def test_criterion_7_morse_zero_consistency():
    t0 = time.time()
    failures = []
    for t in range(100):
        rng = _rng_for(700, t)
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, min(n, 3) + 1))
        p = int(rng.integers(1, min(n, 3) + 1))
        if t % 3 == 0:
            p = m  # exercise the square-feedthrough subcase regularly
        sys = random_system(GenSpec(n=n, m=m, p=p, seed=int(rng.integers(0, 2**31))))
        zs = np.asarray(pencils.invariant_zeros(sys), dtype=complex)
        normal = sampled_normal_rank(sys)
        for z in pencils.deduplicate_eigenvalues(zs, 1e-6):
            if rank_of(pencils.rosenbrock_matrix(sys, z)) >= normal:
                failures.append((t, f"zero {z} does not drop rank"))
        if m == p:
            try:
                oracle = np.linalg.eigvals(sys.A - sys.B @ np.linalg.solve(sys.D, sys.C))
            except np.linalg.LinAlgError:
                continue
            ok, worst = verify.eig_multiset_match(zs, oracle)
            if not ok:
                failures.append((t, f"square-D zeros off by {worst:.2e}"))
    _report(7, "morse/zeros consistency", not failures, time.time() - t0,
            "" if not failures else str(failures[:3]))


def test_criterion_8_recursion_contracts():
    _sweep(8, "recursion contracts", verify.THEOREM_IDS["rstar-identity"], 100, 60.0)


def test_criterion_9_lemma_diag():
    _sweep(9, "diagonal Krylov bound", verify.THEOREM_IDS["lemma-diag"], 200, 60.0)


def test_criterion_10_lemma_reach():
    _sweep(10, "self-reachability", verify.THEOREM_IDS["lemma-reach"], 100, 60.0)
