"""Seeded randomized verification sweeps for the structural identities.

Each runner draws ``trials`` systems (deterministically from a base seed),
checks one identity at its stated tolerance, and reports pass/fail counts
with the first failing seed.  The identities under test:

``th1``
    The joined state parts of reachability-pencil kernels at h distinct
    admissible eigenvalues span a subspace whose dimension equals the rank
    of the h-block controllability matrix, independently of the eigenvalues.
``th2``
    The Rosenbrock analogue: that dimension equals the dimension of the
    intersection of the supremal output-nulling subspace with the h-th
    input-containing term, computed both directly and by the Markov-kernel
    formula (three-way agreement).
``lattice``
    The joined kernel span is the maximum output-nulling subspace carrying
    the requested spectrum with a diagonalizable closed-loop restriction.
``thlast`` / ``corollary-last``
    The reachability subspace on the joined kernel span equals the supremal
    output-nulling subspace inside the h-th input-containing term (for
    p = 0: the largest controlled invariant inside the h-step reachable
    subspace), independently of which admissible eigenvalues were used.
``lemma-diag``
    Krylov chains of diagonal pairs saturate within the number of distinct
    diagonal values.
``lemma-reach``
    The supremal output-nulling subspace inside an input-containing term is
    its own reachability subspace.
``lemma-intersection``
    The Markov-kernel formula reproduces every pairwise intersection of the
    two recursions.
``rstar-identity``
    Chain monotonicity/stationarity contracts and the classical identity
    (reachability part) = (output-nulling limit) ∩ (input-containing limit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import assignment, geometry, pencils
from .errors import ValidationError
from .linalg import (
    DEFAULT_TOL,
    Tol,
    containment_residual,
    equals,
    image_basis,
    kernel_basis,
    rank_of,
    subspace_intersect,
)
from .sysmodel import GenSpec, SystemQuad, random_system

__all__ = ["TrialFailure", "VerifyReport", "THEOREM_IDS", "run", "eig_multiset_match"]

_EIG_TOL = 1e-6  # eigenvalue multiset matching tolerance
_SUBSPACE_TOL = 1e-8  # subspace equality residual


@dataclass(frozen=True)
class TrialFailure:
    seed: int
    message: str


@dataclass
class VerifyReport:
    theorem: str
    trials: int
    failures: list[TrialFailure] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return self.trials - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def first_failing_seed(self):
        return self.failures[0].seed if self.failures else None

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "trials": self.trials,
            "passed": self.passed,
            "failed": len(self.failures),
            "first_failing_seed": self.first_failing_seed,
            "failures": [
                {"seed": f.seed, "message": f.message} for f in self.failures[:10]
            ],
        }


def _rng_for(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def _draw_dims(rng, nmax: int, p_min: int = 0):
    n = int(rng.integers(2, max(nmax, 2) + 1))
    m = int(rng.integers(1, min(n, 3) + 1))
    p = int(rng.integers(p_min, min(n, 3) + 1))
    return n, m, p


def _draw_pair(rng, nmax: int, uncontrollable: bool = False):
    """Random (A, B); optionally with an implanted uncontrollable part."""
    n = int(rng.integers(2, max(nmax, 2) + 1))
    m = int(rng.integers(1, min(n, 3) + 1))
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, m))
    if uncontrollable:
        k = int(rng.integers(1, n))
        A[k:, :k] = 0.0
        B[k:, :] = 0.0
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A, B = Q @ A @ Q.T, Q @ B
    return A, B


def _draw_quad(rng, nmax: int, p_min: int = 1) -> SystemQuad:
    n, m, p = _draw_dims(rng, nmax, p_min=p_min)
    seed = int(rng.integers(0, 2**31))
    return random_system(GenSpec(n=n, m=m, p=p, seed=seed))


def _draw_distinct(rng, h: int, forbidden, self_conjugate: bool,
                   min_sep: float = 1e-2, margin: float = 1e-1):
    """Rejection-sample h distinct values away from a forbidden set."""
    for _ in range(500):
        lams: list[complex] = []
        while len(lams) < h:
            if self_conjugate and h - len(lams) >= 2 and rng.uniform() < 0.4:
                a, b = rng.uniform(-3, 3), rng.uniform(0.2, 3)
                lams += [complex(a, b), complex(a, -b)]
            elif self_conjugate:
                lams.append(complex(rng.uniform(-3, 3)))
            else:
                lams.append(complex(rng.uniform(-3, 3), rng.uniform(-2, 2) * (rng.uniform() < 0.5)))
        if any(abs(x - y) <= min_sep for i, x in enumerate(lams) for y in lams[:i]):
            continue
        if any(abs(x - z) <= margin for x in lams for z in forbidden):
            continue
        return lams
    raise RuntimeError("could not draw an admissible spectrum")


def eig_multiset_match(requested, achieved, tol_match: float = _EIG_TOL):
    """Optimal pairing of two eigenvalue multisets.

    Returns ``(matched, worst)`` where ``worst`` is the largest pairing
    distance under the assignment minimizing it; ``matched`` is True iff the
    multisets have equal size and ``worst <= tol_match``.
    """
    a = np.asarray(list(requested), dtype=complex)
    b = np.asarray(list(achieved), dtype=complex)
    if a.size != b.size:
        return False, float("inf")
    if a.size == 0:
        return True, 0.0
    cost = np.abs(a[:, None] - b[None, :])
    r, c = linear_sum_assignment(cost)
    worst = float(cost[r, c].max())
    return worst <= tol_match, worst


def _kernel_span_rank(kernels, tol: Tol) -> int:
    vparts = np.hstack([K.V for K in kernels])
    if vparts.shape[1] == 0:
        return 0
    return rank_of(vparts, tol, scale=1.0)


def _drive(theorem: str, trials: int, seed: int, body) -> VerifyReport:
    """Run ``body(rng, t) -> str | None`` per trial; a message (or any
    exception) records that trial as failed."""
    rep = VerifyReport(theorem, trials)
    for t in range(trials):
        try:
            message = body(_rng_for(seed, t), t)
        except Exception as e:
            message = f"exception: {e!r}"
        if message is not None:
            rep.failures.append(TrialFailure(t, message))
    return rep


def run_th1(trials: int = 100, seed: int = 0, nmax: int = 8, tol: Tol = DEFAULT_TOL) -> VerifyReport:
    def trial(rng, t):
        A, B = _draw_pair(rng, nmax, uncontrollable=(t % 2 == 1))
        n = A.shape[0]
        forbidden = pencils.uncontrollable_eigenvalues(A, B, tol)
        for h in range(1, n + 1):
            want = geometry.krylov_image(A, B, h, tol).dim
            for _ in range(2):
                lams = _draw_distinct(rng, h, forbidden, self_conjugate=False)
                kernels = [pencils.reach_pencil_kernel(A, B, lam, tol) for lam in lams]
                got = _kernel_span_rank(kernels, tol)
                if got != want:
                    return f"h={h}: kernel span rank {got} != ctrb rank {want}"
        return None

    return _drive("th1", trials, seed, trial)


def run_th2(trials: int = 100, seed: int = 0, nmax: int = 8, tol: Tol = DEFAULT_TOL) -> VerifyReport:
    def trial(rng, t):
        sys = _draw_quad(rng, nmax, p_min=1)
        zeros = pencils.invariant_zeros(sys, tol)
        vst = geometry.vstar(sys, None, tol)
        chain = geometry.sstar_sequence(sys, tol)
        for h in range(1, sys.n + 1):
            lams = _draw_distinct(rng, h, zeros, self_conjugate=False)
            kernels = [pencils.rosenbrock_kernel(sys, lam, tol) for lam in lams]
            r1 = _kernel_span_rank(kernels, tol)
            r2 = subspace_intersect(vst, geometry.chain_term(chain, h), tol).dim
            r3 = geometry.intersection_formula(sys, sys.n, h, tol).dim
            if not (r1 == r2 == r3):
                return f"h={h}: ranks {r1}/{r2}/{r3} disagree"
        return None

    return _drive("th2", trials, seed, trial)


def run_lattice(trials: int = 100, seed: int = 0, nmax: int = 8, tol: Tol = DEFAULT_TOL) -> VerifyReport:
    def trial(rng, t):
        sys = _draw_quad(rng, nmax, p_min=1)
        zeros = pencils.invariant_zeros(sys, tol)
        h = int(rng.integers(1, sys.n + 1))
        lams = _draw_distinct(rng, h, zeros, self_conjugate=True)
        kh, kernels = assignment.build_Kh(sys, lams, tol, forbidden=zeros)
        fb = geometry.friend_of(sys, kh, lams, tol)
        if fb.residual_out > _SUBSPACE_TOL or fb.residual_inv > _SUBSPACE_TOL:
            return f"friend residuals {fb.residual_out:.2e}/{fb.residual_inv:.2e}"
        # every eigenpair the synthesis placed must sit on the request
        if fb.residual_eig > _EIG_TOL:
            return f"assigned eigenpair residual {fb.residual_eig:.2e}"
        bad_lam = [lam for lam, _v in fb.assigned if min(abs(lam - mu) for mu in lams) > _EIG_TOL]
        if bad_lam:
            return f"assigned eigenvalue {bad_lam[0]} not requested"
        # containment of a constructively generated member
        cols = [K.V[:, [int(rng.integers(0, K.q))]] for K in kernels if K.q]
        if cols:
            member = image_basis(np.hstack(cols), tol, scale=1.0)
            resid = containment_residual(kh, member)
            if resid > _SUBSPACE_TOL:
                return f"member outside maximal subspace by {resid:.2e}"
            if not geometry.is_output_nulling(sys, member, tol):
                return "kernel-column member is not output nulling"
        return None

    return _drive("lattice", trials, seed, trial)


def run_thlast(trials: int = 100, seed: int = 0, nmax: int = 8, tol: Tol = DEFAULT_TOL) -> VerifyReport:
    def trial(rng, t):
        sys = _draw_quad(rng, nmax, p_min=1)
        zeros = pencils.invariant_zeros(sys, tol)
        chain = geometry.sstar_sequence(sys, tol)
        bkd = image_basis(sys.B @ kernel_basis(sys.D, tol).basis, tol,
                          scale=float(np.linalg.norm(sys.B, 2)))
        for h in range(1, sys.n + 1):
            lams1 = _draw_distinct(rng, h, zeros, self_conjugate=True)
            lams2 = _draw_distinct(rng, h, zeros, self_conjugate=True)
            kh1, _ = assignment.build_Kh(sys, lams1, tol, forbidden=zeros)
            kh2, _ = assignment.build_Kh(sys, lams2, tol, forbidden=zeros)
            r1 = geometry.reachability_on(sys, kh1, tol)
            r2 = geometry.reachability_on(sys, kh2, tol)
            target = geometry.vstar(sys, geometry.chain_term(chain, h), tol)
            if not (equals(r1, target, tol) and equals(r1, r2, tol)):
                return f"h={h}: reachability dims {r1.dim}/{r2.dim}, target {target.dim}"
            lhs = subspace_intersect(kh1, bkd, tol)
            rhs = subspace_intersect(target, bkd, tol)
            if not equals(lhs, rhs, tol):
                return f"h={h}: seed intersections differ"
        return None

    return _drive("thlast", trials, seed, trial)


def run_corollary_last(trials: int = 100, seed: int = 0, nmax: int = 8, tol: Tol = DEFAULT_TOL) -> VerifyReport:
    def trial(rng, t):
        # generic draws only: implanted exactly-uncontrollable structure puts
        # near-invariant directions at the float64 tolerance cliff, where the
        # recursion limit is not decidable at working precision
        A, B = _draw_pair(rng, nmax)
        sys = SystemQuad.from_matrices(A, B)
        forbidden = pencils.uncontrollable_eigenvalues(A, B, tol)
        for h in range(1, sys.n + 1):
            lams = _draw_distinct(rng, h, forbidden, self_conjugate=True)
            rh = assignment.reach_on_Kh(sys, lams, tol, forbidden=forbidden)
            E = geometry.krylov_image(A, B, h, tol)
            target = geometry.vstar(sys, E, tol)
            if not equals(rh, target, tol):
                return f"h={h}: dims {rh.dim} vs {target.dim}"
        return None

    return _drive("corollary-last", trials, seed, trial)


def run_lemma_diag(trials: int = 200, seed: int = 0, nmax: int = 8, tol: Tol = DEFAULT_TOL) -> VerifyReport:
    def trial(rng, t):
        n = int(rng.integers(1, max(nmax, 1) + 1))
        k = int(rng.integers(1, n + 1))
        vals = 2.0 * rng.standard_normal(k)
        diag = np.concatenate([vals, vals[rng.integers(0, k, size=n - k)]])
        rng.shuffle(diag)
        H = rng.standard_normal((n, int(rng.integers(1, 4))))
        Delta = np.diag(diag)
        distinct = len(pencils.deduplicate_eigenvalues(diag, 1e-9))
        sat = assignment.diag_krylov_saturation(Delta, H, tol)
        if sat > distinct:
            return f"saturation {sat} > distinct values {distinct}"
        # brute-force oracle: stack the raw powers (of the unit-normalized
        # matrix; Krylov spans are scale invariant) and check that the full
        # n-step chain adds nothing past the reported index
        unit = Delta / max(1.0, float(np.abs(diag).max()))
        blocks = [H]
        for _ in range(n - 1):
            blocks.append(unit @ blocks[-1])
        h_scale = float(np.linalg.norm(H, 2))
        full = image_basis(np.hstack(blocks), tol, scale=h_scale)
        early = image_basis(np.hstack(blocks[:max(sat, 1)]), tol, scale=h_scale)
        if np.linalg.norm(H) == 0.0:
            early = image_basis(np.zeros((n, 1)), tol)
        if not equals(full, early, tol):
            return f"chain kept growing past reported index {sat}"
        return None

    return _drive("lemma-diag", trials, seed, trial)


def run_lemma_reach(trials: int = 100, seed: int = 0, nmax: int = 8, tol: Tol = DEFAULT_TOL) -> VerifyReport:
    def trial(rng, t):
        sys = _draw_quad(rng, nmax, p_min=1)
        chain = geometry.sstar_sequence(sys, tol)
        h = int(rng.integers(1, sys.n + 1))
        vsh = geometry.vstar(sys, geometry.chain_term(chain, h), tol)
        back = geometry.reachability_on(sys, vsh, tol)
        if not equals(back, vsh, tol):
            return f"h={h}: dims {back.dim} vs {vsh.dim}"
        return None

    return _drive("lemma-reach", trials, seed, trial)


def run_lemma_intersection(trials: int = 100, seed: int = 0, nmax: int = 8, tol: Tol = DEFAULT_TOL) -> VerifyReport:
    def trial(rng, t):
        sys = _draw_quad(rng, min(nmax, 6), p_min=1)
        vchain = geometry.vstar_sequence(sys, None, tol)
        schain = geometry.sstar_sequence(sys, tol)
        for i in range(1, sys.n + 1):
            for j in range(1, sys.n + 1):
                direct = subspace_intersect(
                    geometry.chain_term(vchain, i), geometry.chain_term(schain, j), tol)
                formula = geometry.intersection_formula(sys, i, j, tol)
                if direct.dim != formula.dim or not equals(direct, formula, tol):
                    return f"(i,j)=({i},{j}): {formula.dim} vs {direct.dim}"
        return None

    return _drive("lemma-intersection", trials, seed, trial)


def run_rstar_identity(trials: int = 100, seed: int = 0, nmax: int = 8, tol: Tol = DEFAULT_TOL) -> VerifyReport:
    def trial(rng, t):
        sys = _draw_quad(rng, nmax, p_min=1)
        vchain = geometry.vstar_sequence(sys, None, tol)
        vdims = [S.dim for S in vchain]
        if any(d2 > d1 for d1, d2 in zip(vdims, vdims[1:])) or len(vchain) > sys.n + 2:
            return f"output-nulling chain dims {vdims} not non-increasing"
        schain = geometry.sstar_sequence(sys, tol)
        sdims = [S.dim for S in schain]
        if any(d2 < d1 for d1, d2 in zip(sdims, sdims[1:])) or len(schain) > sys.n + 2:
            return f"input-containing chain dims {sdims} not non-decreasing"
        rst = geometry.rstar(sys, tol)
        cross = subspace_intersect(vchain[-1], schain[-1], tol)
        if not equals(rst, cross, tol):
            return f"reachability part {rst.dim} != intersection of limits {cross.dim}"
        return None

    return _drive("rstar-identity", trials, seed, trial)


THEOREM_IDS = {
    "th1": run_th1,
    "th2": run_th2,
    "lattice": run_lattice,
    "thlast": run_thlast,
    "corollary-last": run_corollary_last,
    "lemma-diag": run_lemma_diag,
    "lemma-reach": run_lemma_reach,
    "lemma-intersection": run_lemma_intersection,
    "rstar-identity": run_rstar_identity,
}


def run(theorem: str, trials: int = 100, seed: int = 0, nmax: int = 8,
        tol: Tol = DEFAULT_TOL) -> list[VerifyReport]:
    """Run one named sweep, or every sweep for ``"all"``."""
    if theorem == "all":
        return [fn(trials, seed, nmax, tol) for fn in THEOREM_IDS.values()]
    if theorem not in THEOREM_IDS:
        raise ValidationError(
            f"unknown theorem id {theorem!r}; choose from {sorted(THEOREM_IDS)} or 'all'")
    return [THEOREM_IDS[theorem](trials, seed, nmax, tol)]
