"""Seeded randomized verification sweeps for the structural identities.

``THEOREM_IDS`` is one table of trial bodies, one per identity, bound to one
driver that checks it on ``trials`` seeded draws at its stated tolerance and
reports pass/fail counts with the first failing seed.  The identities:

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
    The maximal subspace Kh, built from the R* staircase, carries the
    requested spectrum with a diagonalizable closed-loop restriction and
    contains kernel columns drawn from the pencils, the independent check
    that it is their span (``th1`` and ``th2`` rank the raw kernel stack).
``thlast`` / ``corollary-last``
    The reachability subspace on Kh equals the supremal output-nulling
    subspace inside the h-th input-containing term (for p = 0: the largest
    controlled invariant inside the h-step reachable subspace),
    independently of which admissible eigenvalues were used.
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

The chains are structural: they do not depend on the eigenvalues a trial
draws.  So each trial computes its chains once and reads every h off them:
one Krylov (input-containing) chain for all h, where the term of h steps is
the h-th prefix of the full run, and one Markov-kernel pass
(:func:`geokit.geometry.intersection_formulas`) for all (i, j), and one
Morse decomposition that leaves each Kh only small solves on R*, with the
R* block's spectrum computed once per frame.  An oracle built on a chain
term (V*(S_h), V* ∩ S_h, V_i ∩ S_j) is computed once per distinct term:
past the point where a chain is stationary every h reads its last term.
The kernels of one drawn spectrum are decided once per exact value or
exact conjugate and, where they are empty, proven on the system's Gram
coefficients (:func:`geokit.pencils.rosenbrock_kernels`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import assignment, geometry, pencils
from .errors import ValidationError
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tol,
    containment_residual,
    equals,
    image_basis,
    norm2,
    rank_of,
    subspace_intersect,
)
from .sysmodel import GenSpec, SystemQuad, random_system

__all__ = ["TrialFailure", "VerifyReport", "THEOREM_IDS", "run", "eig_multiset_match"]

_EIG_TOL = 1e-6  # eigenvalue multiset matching tolerance
_SUBSPACE_TOL = 1e-8  # subspace equality residual
_MIN_SEP = 1e-2  # least gap between two drawn eigenvalues
_MARGIN = 1e-1  # least gap between a drawn eigenvalue and a forbidden value


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


def _draw_pair(rng, nmax: int, uncontrollable: bool = False):
    """Random (A, B); optionally with an implanted uncontrollable part."""
    n = int(rng.integers(2, nmax + 1))
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


def _draw_quad(rng, nmax: int) -> SystemQuad:
    n = int(rng.integers(2, nmax + 1))
    m = int(rng.integers(1, min(n, 3) + 1))
    p = int(rng.integers(1, min(n, 3) + 1))
    seed = int(rng.integers(0, 2**31))
    return random_system(GenSpec(n=n, m=m, p=p, seed=seed))


def _draw_distinct(rng, h: int, forbidden, self_conjugate: bool):
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
        if any(abs(x - y) <= _MIN_SEP for i, x in enumerate(lams) for y in lams[:i]):
            continue
        if any(abs(x - z) <= _MARGIN for x in lams for z in forbidden):
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
    from scipy.optimize import linear_sum_assignment  # deferred: keeps it out of every CLI start-up

    cost = np.abs(a[:, None] - b[None, :])
    r, c = linear_sum_assignment(cost)
    worst = float(cost[r, c].max())
    return worst <= tol_match, worst


def _term(chain: list[Subspace], h: int) -> int:
    """Index of the chain term that :func:`geokit.geometry.chain_term` reads
    at h (h >= 0): the key of an oracle built on it."""
    return min(h, len(chain) - 1)


def _kernel_span_rank(kernels, tol: Tol) -> int:
    return rank_of(np.hstack([K.V for K in kernels]), tol, scale=1.0)


def _drive(theorem: str, trial, trials: int, seed: int, nmax: int, tol: Tol) -> VerifyReport:
    """Run ``trial(rng, t, nmax, tol) -> str | None`` per trial; a message (or
    any exception) records that trial as failed."""
    rep = VerifyReport(theorem, trials)
    for t in range(trials):
        try:
            message = trial(_rng_for(seed, t), t, nmax, tol)
        except Exception as e:
            message = f"exception: {e!r}"
        if message is not None:
            rep.failures.append(TrialFailure(t, message))
    return rep


def _th1(rng, t, nmax, tol):
    sys = SystemQuad.from_matrices(*_draw_pair(rng, nmax, uncontrollable=(t % 2 == 1)))
    frame = geometry.morse_decomposition(sys, tol)
    for h in range(1, sys.n + 1):
        want = geometry.chain_term(frame.stairs, h)
        for _ in range(2):
            lams = _draw_distinct(rng, h, frame.invariant_zeros, self_conjugate=False)
            got = _kernel_span_rank(pencils.rosenbrock_kernels(sys, lams, tol), tol)
            if got != want:
                return f"h={h}: kernel span rank {got} != ctrb rank {want}"
    return None


def _th2(rng, t, nmax, tol):
    sys = _draw_quad(rng, nmax)
    zeros = pencils.invariant_zeros(sys, tol)
    vst = geometry.vstar(sys, None, tol)
    chain = geometry.sstar_sequence(sys, tol)
    formulas = geometry.intersection_formulas(
        sys, [(sys.n, h) for h in range(1, sys.n + 1)], tol)
    direct = functools.cache(lambda k: subspace_intersect(vst, chain[k], tol).dim)
    for h in range(1, sys.n + 1):
        lams = _draw_distinct(rng, h, zeros, self_conjugate=False)
        r1 = _kernel_span_rank(pencils.rosenbrock_kernels(sys, lams, tol), tol)
        r2 = direct(_term(chain, h))
        r3 = formulas[h - 1].dim
        if not (r1 == r2 == r3):
            return f"h={h}: ranks {r1}/{r2}/{r3} disagree"
    return None


def _lattice(rng, t, nmax, tol):
    sys = _draw_quad(rng, nmax)
    frame = geometry.morse_decomposition(sys, tol)
    h = int(rng.integers(1, sys.n + 1))
    lams = _draw_distinct(rng, h, frame.invariant_zeros, self_conjugate=True)
    kh = assignment._kh(frame, lams, tol)
    fb = geometry.friend_of(sys, kh, lams, tol)
    if fb.residual_out > _SUBSPACE_TOL or fb.residual_inv > _SUBSPACE_TOL:
        return f"friend residuals {fb.residual_out:.2e}/{fb.residual_inv:.2e}"
    # every eigenpair the synthesis placed must sit on the request
    if fb.residual_eig > _EIG_TOL:
        return f"assigned eigenpair residual {fb.residual_eig:.2e}"
    bad_lam = [lam for lam, _v in fb.assigned if min(abs(lam - mu) for mu in lams) > _EIG_TOL]
    if bad_lam:
        return f"assigned eigenvalue {bad_lam[0]} not requested"
    # the structural Kh must contain a member drawn from the kernels
    kernels = pencils.rosenbrock_kernels(sys, lams, tol)
    cols = [K.V[:, [int(rng.integers(0, K.q))]] for K in kernels if K.q]
    if cols:
        member = image_basis(np.hstack(cols), tol, scale=1.0)
        resid = containment_residual(kh, member)
        if resid > _SUBSPACE_TOL:
            return f"member outside maximal subspace by {resid:.2e}"
        if not geometry.is_output_nulling(sys, member, tol):
            return "kernel-column member is not output nulling"
    return None


def _thlast(rng, t, nmax, tol):
    sys = _draw_quad(rng, nmax)
    frame = geometry.morse_decomposition(sys, tol)
    chain = geometry.sstar_sequence(sys, tol)
    seed_space = Subspace(frame.T[:, :frame.stairs[1]])  # V* ∩ B ker D
    target = functools.cache(lambda k: geometry.vstar(sys, chain[k], tol))
    seeded = functools.cache(lambda k: subspace_intersect(target(k), seed_space, tol))
    for h in range(1, sys.n + 1):
        lams1 = _draw_distinct(rng, h, frame.invariant_zeros, self_conjugate=True)
        lams2 = _draw_distinct(rng, h, frame.invariant_zeros, self_conjugate=True)
        kh1 = assignment._kh(frame, lams1, tol)
        kh2 = assignment._kh(frame, lams2, tol)
        r1 = geometry.reachability_on(sys, kh1, tol)
        r2 = geometry.reachability_on(sys, kh2, tol)
        k = _term(chain, h)
        if not (equals(r1, target(k), tol) and equals(r1, r2, tol)):
            return f"h={h}: reachability dims {r1.dim}/{r2.dim}, target {target(k).dim}"
        lhs = subspace_intersect(kh1, seed_space, tol)
        if not equals(lhs, seeded(k), tol):
            return f"h={h}: seed intersections differ"
    return None


def _corollary_last(rng, t, nmax, tol):
    # generic draws only: implanted exactly-uncontrollable structure puts
    # near-invariant directions at the float64 tolerance cliff, where the
    # recursion limit is not decidable at working precision
    A, B = _draw_pair(rng, nmax)
    sys = SystemQuad.from_matrices(A, B)
    frame = geometry.morse_decomposition(sys, tol)
    chain = geometry.sstar_sequence(sys, tol)
    target = functools.cache(lambda k: geometry.vstar(sys, chain[k], tol))
    for h in range(1, sys.n + 1):
        lams = _draw_distinct(rng, h, frame.invariant_zeros, self_conjugate=True)
        rh = geometry.reachability_on(sys, assignment._kh(frame, lams, tol), tol)
        vsh = target(_term(chain, h))
        if not equals(rh, vsh, tol):
            return f"h={h}: dims {rh.dim} vs {vsh.dim}"
    return None


def _draw_diag(rng, nmax: int):
    """A diagonal of n values with repeats, and an input block H of 1-3 columns."""
    n = int(rng.integers(1, nmax + 1))
    k = int(rng.integers(1, n + 1))
    vals = 2.0 * rng.standard_normal(k)
    diag = np.concatenate([vals, vals[rng.integers(0, k, size=n - k)]])
    rng.shuffle(diag)
    return diag, rng.standard_normal((n, int(rng.integers(1, 4))))


def _lemma_diag(rng, t, nmax, tol):
    diag, H = _draw_diag(rng, nmax)
    Delta = np.diag(diag)
    distinct = len(pencils.deduplicate_eigenvalues(diag, 1e-9))
    sat = assignment.diag_krylov_saturation(Delta, H, tol)
    if sat > distinct:
        return f"saturation {sat} > distinct values {distinct}"
    # brute-force oracle: stack the raw powers (of the unit-normalized matrix;
    # Krylov spans are scale invariant) and check that the full n-step chain
    # adds nothing past the reported index.  It is an oracle for n <= 8 only.
    unit = Delta / max(1.0, float(np.abs(diag).max()))
    blocks = [H]
    for _ in range(len(diag) - 1):
        blocks.append(unit @ blocks[-1])
    h_scale = norm2(H)
    full = image_basis(np.hstack(blocks), tol, scale=h_scale)
    early = image_basis(np.hstack(blocks[:max(sat, 1)]), tol, scale=h_scale)
    if not equals(full, early, tol):
        return f"chain kept growing past reported index {sat}"
    return None


def _lemma_reach(rng, t, nmax, tol):
    sys = _draw_quad(rng, nmax)
    chain = geometry.sstar_sequence(sys, tol)
    h = int(rng.integers(1, sys.n + 1))
    vsh = geometry.vstar(sys, geometry.chain_term(chain, h), tol)
    back = geometry.reachability_on(sys, vsh, tol)
    if not equals(back, vsh, tol):
        return f"h={h}: dims {back.dim} vs {vsh.dim}"
    return None


def _lemma_intersection(rng, t, nmax, tol):
    sys = _draw_quad(rng, min(nmax, 6))
    vchain = geometry.vstar_sequence(sys, None, tol)
    schain = geometry.sstar_sequence(sys, tol)
    pairs = [(i, j) for i in range(1, sys.n + 1) for j in range(1, sys.n + 1)]
    intersect = functools.cache(lambda a, b: subspace_intersect(vchain[a], schain[b], tol))
    for (i, j), formula in zip(pairs, geometry.intersection_formulas(sys, pairs, tol)):
        direct = intersect(_term(vchain, i), _term(schain, j))
        if direct.dim != formula.dim or not equals(direct, formula, tol):
            return f"(i,j)=({i},{j}): {formula.dim} vs {direct.dim}"
    return None


def _rstar_identity(rng, t, nmax, tol):
    sys = _draw_quad(rng, nmax)
    vchain = geometry.vstar_sequence(sys, None, tol)
    vdims = [S.dim for S in vchain]
    if any(d2 > d1 for d1, d2 in zip(vdims, vdims[1:])) or len(vchain) > sys.n + 2:
        return f"output-nulling chain dims {vdims} not non-increasing"
    schain = geometry.sstar_sequence(sys, tol)
    sdims = [S.dim for S in schain]
    if any(d2 < d1 for d1, d2 in zip(sdims, sdims[1:])) or len(schain) > sys.n + 2:
        return f"input-containing chain dims {sdims} not non-decreasing"
    rst = geometry.reachability_on(sys, vchain[-1], tol)  # R*, on the chain's V*
    cross = subspace_intersect(vchain[-1], schain[-1], tol)
    if not equals(rst, cross, tol):
        return f"reachability part {rst.dim} != intersection of limits {cross.dim}"
    return None


# each entry takes (trials, seed, nmax, tol) and returns a VerifyReport
THEOREM_IDS = {theorem: functools.partial(_drive, theorem, trial) for theorem, trial in {
    "th1": _th1,
    "th2": _th2,
    "lattice": _lattice,
    "thlast": _thlast,
    "corollary-last": _corollary_last,
    "lemma-diag": _lemma_diag,
    "lemma-reach": _lemma_reach,
    "lemma-intersection": _lemma_intersection,
    "rstar-identity": _rstar_identity,
}.items()}


def run(theorem: str, trials: int = 100, seed: int = 0, nmax: int = 8,
        tol: Tol = DEFAULT_TOL) -> list[VerifyReport]:
    """Run one named sweep, or every sweep for ``"all"``."""
    if trials < 0:
        raise ValidationError(f"trials must be nonnegative, got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    if nmax < 2:
        raise ValidationError(f"nmax must be at least 2, got {nmax}")
    if theorem == "all":
        return [fn(trials, seed, nmax, tol) for fn in THEOREM_IDS.values()]
    if theorem not in THEOREM_IDS:
        raise ValidationError(
            f"unknown theorem id {theorem!r}; choose from {sorted(THEOREM_IDS)} or 'all'")
    return [THEOREM_IDS[theorem](trials, seed, nmax, tol)]
