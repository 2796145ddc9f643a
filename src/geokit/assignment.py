"""Eigenstructure assignment from pencil kernels.

Feedback matrices are assembled the same way throughout: collect state
directions v with their input directions w and set ``F = W V^+``.  Where a
spectrum is requested, the pairs are eigenvalue / eigenvector / input-
direction triples from kernels of the relevant pencil, with conjugate pairs
replaced by real and imaginary parts so the result is real by construction.
A friend of an output-nulling subspace closes whatever no requested
eigenvalue covers (all of it when no spectrum is given) by a least-squares
solve, without choosing eigenvalues.  On top of that engine this module
provides Moore's solvability check, pole placement over the reachable
subspace, the maximal subspace on which a given distinct spectrum is
assignable with a diagonalizable closed loop, and the minimal number of
distinct closed-loop eigenvalues achievable without Jordan blocks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import geometry, pencils
from .errors import NumericalError, SynthesisError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tol,
    as_matrix,
    equals,
    image_basis,
    kernel_basis,
    pinv,
    rank_of,
    realify_subspace,
    require_real,
    subspace_intersect,
)
from .pencils import PencilKernel, spectrum_scale, validate_spectrum
from .sysmodel import SystemQuad

__all__ = [
    "FeedbackResult",
    "MooreReport",
    "moore_check",
    "synthesize_feedback",
    "place_poles",
    "build_Kh",
    "min_distinct_spectrum",
    "reach_on_Kh",
    "diag_krylov_saturation",
]

# Minimum projection residual for a candidate column to count as a new
# direction during greedy selection; bounds the conditioning of the selected
# eigenvector matrix.
_SELECT_FLOOR = 1e-6
# Candidate kernel columns whose state part is smaller than this carry no
# eigenvector information and are skipped.
_STATE_FLOOR = 1e-8
# Condition numbers above this trigger a warning (not an error).
COND_WARNING = 1e8


@dataclass(frozen=True, eq=False)
class FeedbackResult:
    """A real feedback matrix with its assignment diagnostics.

    ``assigned`` lists the (eigenvalue, unit eigenvector) pairs the synthesis
    actually placed; ``residual_eig`` is the worst eigenpair residual,
    ``residual_out`` the output-nulling residual ``(C+DF)V`` (zero by
    convention when no outputs are in scope), ``residual_inv`` the invariance
    residual of the target subspace under A+BF, and ``cond_V`` the condition
    number of the selected (realified) eigenvector matrix.
    """

    F: np.ndarray
    assigned: tuple
    residual_eig: float
    residual_out: float
    residual_inv: float
    cond_V: float


def _unit_state_columns(V: np.ndarray, W: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    cols = []
    for k in range(V.shape[1]):
        v, w = V[:, k], W[:, k]
        nv = float(np.linalg.norm(v))
        if nv > _STATE_FLOOR:
            cols.append((v / nv, w / nv))
    return cols


def _pair_score(Q: np.ndarray, v: np.ndarray, is_pair: bool):
    """Projection residual of a candidate (or conjugate pair) against the
    currently selected directions; returns (score, new orthonormal columns)."""
    if is_pair:
        X = np.column_stack([v.real, v.imag])
    else:
        X = v.real.reshape(-1, 1)
    D = X
    if Q.shape[1]:
        # project twice: a second pass removes the roundoff left in nearly
        # dependent candidates and keeps the accumulated basis orthonormal
        D = D - Q @ (Q.T @ D)
        D = D - Q @ (Q.T @ D)
    qf, rf = np.linalg.qr(D)
    diag = np.abs(np.diag(rf))
    return (float(diag.min()) if diag.size else 0.0), qf


def _greedy_units(pools, r_target: int, n: int):
    """Round-robin, best-candidate-first greedy selection of independent
    eigenvector columns.  Conjugate pairs are atomic (two real directions)."""
    Q = np.zeros((n, 0))
    units = []
    total = 0
    state = [[lam, is_pair, list(cols)] for lam, is_pair, cols in pools]
    while total < r_target:
        progressed = False
        for entry in state:
            lam, is_pair, cols = entry
            if not cols:
                continue
            if is_pair and r_target - total < 2:
                continue
            best_idx, best_score, best_dirs = -1, _SELECT_FLOOR, None
            for idx, (v, _w) in enumerate(cols):
                score, dirs = _pair_score(Q, v, is_pair)
                if score > best_score:
                    best_idx, best_score, best_dirs = idx, score, dirs
            if best_idx < 0:
                entry[2] = []  # residuals only shrink as Q grows; pool is spent
                continue
            v, w = cols.pop(best_idx)
            units.append((lam, is_pair, v, w))
            Q = np.hstack([Q, best_dirs])
            total += 2 if is_pair else 1
            progressed = True
            if total >= r_target:
                break
        if not progressed:
            break
    return units, Q, total


def _expand_units(units):
    """Turn (λ, is_pair, v, w) units into real column lists plus the
    assigned pairs: a conjugate pair contributes the real and imaginary
    parts of its representative, a real eigenvalue its (real) columns."""
    vcols, wcols, assigned = [], [], []
    for lam, is_pair, v, w in units:
        if is_pair:
            vcols += [v.real, v.imag]
            wcols += [w.real, w.imag]
            assigned += [(lam, v), (lam.conjugate(), v.conjugate())]
        else:
            vcols.append(v.real)
            wcols.append(w.real)
            assigned.append((lam, v))
    return vcols, wcols, assigned


def _assemble_feedback(
    A: np.ndarray,
    B: np.ndarray,
    vcols,
    wcols,
    assigned,
    tol: Tol,
    C: np.ndarray | None = None,
    D: np.ndarray | None = None,
    target: Subspace | None = None,
) -> FeedbackResult:
    n, m = A.shape[0], B.shape[1]
    if not vcols:
        F = np.zeros((m, n))
        return FeedbackResult(F, (), 0.0, 0.0, 0.0, 1.0)
    Vsel = np.column_stack(vcols)
    Wsel = np.column_stack(wcols) if wcols else np.zeros((m, Vsel.shape[1]))
    r = Vsel.shape[1]
    if rank_of(Vsel, tol) != r:
        raise SynthesisError("dependent selection: chosen eigenvector columns are not independent")
    svals = np.linalg.svd(Vsel, compute_uv=False)
    cond_v = float(svals[0] / svals[-1])
    if cond_v > COND_WARNING:
        warnings.warn(
            f"selected eigenvector matrix has condition number {cond_v:.2e}",
            RuntimeWarning,
            stacklevel=3,
        )
    F = require_real(Wsel @ pinv(Vsel, tol), tol, "feedback matrix")
    Acl = A + B @ F
    res_eig = 0.0
    for lam, v in assigned:
        res_eig = max(res_eig, float(np.linalg.norm(Acl @ v - lam * v)))
    if target is None:
        target = image_basis(Vsel, tol)
    if target.dim:
        tb = target.basis
        mapped = Acl @ tb
        res_inv = float(np.linalg.norm(mapped - tb @ (tb.T @ mapped), 2))
        if C is not None and C.shape[0]:
            res_out = float(np.linalg.norm((C + D @ F) @ tb, 2))
        else:
            res_out = 0.0
    else:
        res_inv = 0.0
        res_out = 0.0
    scale = max(1.0, float(np.linalg.norm(Acl, 2)))
    if res_inv > tol.abs * scale or res_out > tol.abs * scale:
        raise SynthesisError(
            f"synthesis residual above tolerance (invariance {res_inv:.3e}, output {res_out:.3e})"
        )
    return FeedbackResult(F, tuple(assigned), res_eig, res_out, res_inv, cond_v)


def _candidate_pools(sys: SystemQuad, reps, V: Subspace, tol: Tol):
    """Per-eigenvalue kernel directions whose state part lies in V."""
    Pperp = V.perp_projector()
    pools = []
    for lam, is_pair in reps:
        if sys.p:
            K = pencils.rosenbrock_kernel(sys, lam, tol)
        else:
            K = pencils.reach_pencil_kernel(sys.A, sys.B, lam, tol)
        cols = []
        if K.q:
            coeff = kernel_basis(Pperp @ K.V, tol, scale=1.0)
            cols = _unit_state_columns(K.V @ coeff.basis, K.W @ coeff.basis)
        pools.append((lam, is_pair, cols))
    return pools


def _spectrum_representatives(lambdas, partner) -> list[tuple[complex, bool]]:
    reps = []
    seen = set()
    for idx, lam in enumerate(lambdas):
        if idx in seen:
            continue
        pidx = partner[idx]
        seen.update((idx, pidx))
        if pidx == idx:
            reps.append((complex(lam.real), False))
        else:
            reps.append((lam if lam.imag > 0 else lam.conjugate(), True))
    return reps


def _friend_engine(sys: SystemQuad, V: Subspace, spectrum, tol: Tol) -> FeedbackResult:
    """Shared synthesis path behind :func:`geokit.geometry.friend_of`.

    With a spectrum, eigenvector/input-direction units are selected first;
    every direction of V they leave uncovered (all of V without a spectrum)
    is closed by the least-squares output-nulling relation: for a unit
    direction e, ``[P B; D] w = -[P A e; C e]`` with P the projector onto
    the orthogonal complement of V, and the feedback sends e to w.
    """
    n, m = sys.n, sys.m
    r = V.dim
    if r == 0:
        return FeedbackResult(np.zeros((m, n)), (), 0.0, 0.0, 0.0, 1.0)
    vcols, wcols, assigned = [], [], []
    Q = np.zeros((n, 0))
    if spectrum is not None:
        checked = validate_spectrum(spectrum, (), tol)
        reps = _spectrum_representatives(list(checked.lambdas), list(checked.partner))
        pools = _candidate_pools(sys, reps, V, tol)
        units, Q, _total = _greedy_units(pools, r, n)
        vcols, wcols, assigned = _expand_units(units)
    if len(vcols) < r:
        vb = V.basis
        Pperp_v = V.perp_projector()
        E = image_basis(vb - Q @ (Q.T @ vb), tol, scale=1.0).basis
        lhs = np.vstack([Pperp_v @ sys.B, sys.D])
        rhs = -np.vstack([Pperp_v @ (sys.A @ E), sys.C @ E])
        W, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        vcols += list(E.T)
        wcols += list(W.T)
    return _assemble_feedback(sys.A, sys.B, vcols, wcols, assigned, tol, sys.C, sys.D, target=V)


def synthesize_feedback(A, B, selection, tol: Tol = DEFAULT_TOL) -> FeedbackResult:
    """Feedback from an explicit kernel-column selection.

    Parameters
    ----------
    A, B : arrays
        State and input matrices.
    selection : iterable of (PencilKernel, coefficients)
        Each entry contributes the columns ``V @ coefficients`` (state parts)
        and ``W @ coefficients`` (input parts) of one kernel; coefficients
        may be a 1-D vector (one column) or a (q, k) array.  The chosen
        state-part columns must be linearly independent and the eigenvalue /
        column set must be self-conjugate with matched selections, so that
        the realified feedback is real by construction.

    Returns
    -------
    FeedbackResult
        With each selected (eigenvalue, eigenvector) pair assigned in closed
        loop: ``(A + BF) v = λ v`` up to ``residual_eig``.
    """
    A = require_real(as_matrix(A, "A"), tol, "A")
    B = require_real(as_matrix(B, "B"), tol, "B")
    entries = []
    for kernel, coeffs in selection:
        if not isinstance(kernel, PencilKernel):
            raise ValidationError("selection entries must be (PencilKernel, coefficients)")
        Cf = np.asarray(coeffs)
        if Cf.ndim == 1:
            Cf = Cf[:, None]
        if Cf.shape[0] != kernel.q:
            raise ValidationError(
                f"coefficients have {Cf.shape[0]} rows, kernel has {kernel.q} columns"
            )
        Vc, Wc = kernel.V @ Cf, kernel.W @ Cf
        for k in range(Vc.shape[1]):
            v, w = Vc[:, k], Wc[:, k]
            nv = float(np.linalg.norm(v))
            if nv <= _STATE_FLOOR:
                raise SynthesisError("dependent selection: a chosen column has zero state part")
            entries.append((complex(kernel.lam), v / nv, w / nv))
    vcols, wcols, assigned = _expand_units(_pair_selection(entries, tol))
    return _assemble_feedback(A, B, vcols, wcols, assigned, tol)


def _pair_selection(entries, tol: Tol):
    """Validate self-conjugacy of explicit (λ, v, w) selections and pair
    them into (λ, is_pair, v, w) units, one per real eigenvalue and one per
    conjugate pair (represented at Im λ > 0)."""
    scale = spectrum_scale([lam for lam, _, _ in entries], tol)
    match_tol = max(1e-8, 10.0 * tol.abs)
    used = [False] * len(entries)
    units = []
    for k, (lam, v, w) in enumerate(entries):
        if used[k]:
            continue
        if abs(lam.imag) <= scale:
            if np.abs(v.imag).max() > match_tol or np.abs(w.imag).max() > match_tol:
                raise SynthesisError(
                    "non-self-conjugate selection: complex column at a real eigenvalue"
                )
            used[k] = True
            units.append((lam, False, v, w))
            continue
        mate = -1
        for j in range(len(entries)):
            if j == k or used[j]:
                continue
            lj, vj, wj = entries[j]
            if (
                abs(lj - lam.conjugate()) <= scale
                and np.abs(vj - v.conjugate()).max() <= match_tol
                and np.abs(wj - w.conjugate()).max() <= match_tol
            ):
                mate = j
                break
        if mate < 0:
            raise SynthesisError(
                f"non-self-conjugate selection: no conjugate partner for eigenvalue {lam}"
            )
        used[k] = used[mate] = True
        if lam.imag > 0:
            units.append((lam, True, v, w))
        else:
            units.append((lam.conjugate(), True, v.conjugate(), w.conjugate()))
    return units


def place_poles(A, B, lambdas, tol: Tol = DEFAULT_TOL) -> FeedbackResult:
    """Pole placement over the reachable subspace by kernel extraction.

    The requested set must be distinct, self-conjugate, and away from the
    uncontrollable eigenvalues; it needs at least as many values as the
    Krylov saturation count of (A, B), since no Jordan blocks are formed.
    """
    A = require_real(as_matrix(A, "A"), tol, "A")
    B = require_real(as_matrix(B, "B"), tol, "B")
    forbidden = pencils.uncontrollable_eigenvalues(A, B, tol)
    checked = validate_spectrum(lambdas, forbidden, tol)
    reach, _ = geometry.reachable_subspace(A, B, tol)
    r = reach.dim
    reps = _spectrum_representatives(checked.lambdas, checked.partner)
    sysab = SystemQuad.from_matrices(A, B)
    pools = _candidate_pools(sysab, reps, Subspace.full(A.shape[0]), tol)
    units, _Q, total = _greedy_units(pools, r, A.shape[0])
    if total < r:
        raise SynthesisError(
            f"requested eigenvalues span only {total} of {r} reachable directions; "
            "supply more distinct values"
        )
    vcols, wcols, assigned = _expand_units(units)
    return _assemble_feedback(A, B, vcols, wcols, assigned, tol, target=reach)


@dataclass(frozen=True, eq=False)
class MooreReport:
    """Outcome of Moore's three solvability conditions per candidate pair."""

    ok: bool
    independent: bool
    conjugate_ok: tuple
    membership_ok: tuple


def moore_check(A, B, candidates, tol: Tol = DEFAULT_TOL) -> MooreReport:
    """Check Moore's conditions for assigning (eigenvalue, eigenvector) pairs.

    The pairs are assignable by a real feedback iff (1) the eigenvectors are
    independent over the complex field, (2) conjugate eigenvalues carry
    conjugate eigenvectors, and (3) each eigenvector lies in the state part
    of the kernel of [A - λI  B] at its eigenvalue.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    n = A.shape[0]
    cand = [(complex(lam), np.asarray(v, dtype=complex).ravel()) for lam, v in candidates]
    if len(cand) > n:
        raise ValidationError(f"more candidates ({len(cand)}) than states ({n})")
    for _, v in cand:
        if v.shape[0] != n:
            raise ValidationError("candidate eigenvector has wrong length")
    k = len(cand)
    independent = k == 0 or rank_of(np.column_stack([v for _, v in cand]), tol) == k
    scale = spectrum_scale([lam for lam, _ in cand], tol)
    conj_ok = [True] * k
    for i in range(k):
        li, vi = cand[i]
        for j in range(k):
            lj, vj = cand[j]
            if abs(li - lj.conjugate()) <= scale:
                dev = float(np.abs(vi - vj.conjugate()).max())
                if dev > tol.abs * max(1.0, float(np.abs(vi).max())):
                    conj_ok[i] = False
    member_ok = []
    for lam, v in cand:
        K = pencils.reach_pencil_kernel(A, B, lam, tol)
        span = image_basis(K.V, tol, scale=1.0)
        vn = v / np.linalg.norm(v)
        resid = float(np.linalg.norm(vn - span.basis @ (span.basis.conj().T @ vn)))
        member_ok.append(resid <= tol.abs)
    ok = independent and all(conj_ok) and all(member_ok)
    return MooreReport(ok, independent, tuple(conj_ok), tuple(member_ok))


def build_Kh(
    sys: SystemQuad,
    spec,
    tol: Tol = DEFAULT_TOL,
    forbidden=None,
) -> tuple[Subspace, list[PencilKernel]]:
    """Maximal subspace on which the given distinct self-conjugate spectrum
    is assignable with a diagonalizable closed-loop restriction.

    It is the (realified) image of the concatenated state parts of the
    pencil kernels at the requested eigenvalues: Rosenbrock kernels for
    p >= 1 (the result is output nulling), reachability-pencil kernels for
    p = 0 (the result is controlled invariant).  The spectrum is validated
    against the invariant zeros (p >= 1) or the uncontrollable eigenvalues
    (p = 0); pass ``forbidden`` to reuse a precomputed list.
    """
    if forbidden is None:
        if sys.p:
            forbidden = pencils.invariant_zeros(sys, tol)
        else:
            forbidden = pencils.uncontrollable_eigenvalues(sys.A, sys.B, tol)
    checked = validate_spectrum(spec, forbidden, tol)
    kernels = []
    for lam in checked.lambdas:
        if sys.p:
            kernels.append(pencils.rosenbrock_kernel(sys, lam, tol))
        else:
            kernels.append(pencils.reach_pencil_kernel(sys.A, sys.B, lam, tol))
    vparts = np.hstack([K.V for K in kernels])
    if vparts.shape[1] == 0:
        return Subspace.zero(sys.n), kernels
    return realify_subspace(image_basis(vparts, tol, scale=1.0), tol), kernels


def min_distinct_spectrum(sys: SystemQuad, mode: str, tol: Tol = DEFAULT_TOL) -> int:
    """Minimal number of distinct eigenvalues assignable with a
    diagonalizable closed-loop restriction.

    ``mode="reachability"``: on the reachable subspace; equals the Krylov
    saturation count of (A, B).  ``mode="rosenbrock"``: on the supremal
    output-nulling reachability subspace; equals the first index at which
    the intersection of the supremal output-nulling subspace with the
    input-containing chain reaches that subspace.
    """
    if mode == "reachability":
        return geometry.reachable_subspace(sys.A, sys.B, tol)[1]
    if mode != "rosenbrock":
        raise ValidationError(f"unknown mode {mode!r}")
    vst = geometry.vstar(sys, None, tol)
    rst = geometry.reachability_on(sys, vst, tol)
    chain = geometry.sstar_sequence(sys, tol)
    for ell in range(len(chain)):
        cand = subspace_intersect(vst, chain[ell], tol)
        if cand.dim == rst.dim and equals(cand, rst, tol):
            return ell
    raise NumericalError("intersection chain never reached the reachability subspace")


def reach_on_Kh(sys: SystemQuad, spec, tol: Tol = DEFAULT_TOL, forbidden=None) -> Subspace:
    """Reachability subspace on the maximal assignable subspace of ``spec``.

    Independent of which admissible eigenvalues are used, only of how many;
    it coincides with the supremal output-nulling subspace contained in the
    h-th input-containing term, for h the spectrum size.
    """
    kh, _ = build_Kh(sys, spec, tol, forbidden=forbidden)
    return geometry.reachability_on(sys, kh, tol)


def diag_krylov_saturation(Delta, H, tol: Tol = DEFAULT_TOL) -> int:
    """Krylov saturation index of a diagonal pair (Δ, H).

    Bounded above by the number of distinct diagonal values: powers of a
    diagonal matrix repeat directions once a Vandermonde system in the
    distinct values becomes square.  Raises on non-diagonal input.

    The chain ranks are evaluated through the exact factorization
    ``Δ^k H = Σ_g λ_g^k E_g H`` (one diagonal mask E_g per distinct value),
    with Δ normalized to unit norm first; Krylov spans are scale invariant,
    and this keeps every rank decision free of geometrically graded powers,
    which an iterated product would accumulate for clustered values.
    """
    Delta = as_matrix(Delta, "Delta")
    n = Delta.shape[0]
    if Delta.shape != (n, n):
        raise ValidationError("Delta must be square")
    off = Delta - np.diag(np.diag(Delta))
    if off.size and np.abs(off).max() > tol.abs:
        raise ValidationError("Delta is not diagonal")
    H = as_matrix(H, "H")
    if H.shape[0] != n:
        raise ValidationError("H has wrong number of rows")
    diag = np.diag(Delta)
    unit = diag / max(1.0, float(np.abs(diag).max()))
    scale = spectrum_scale(unit, tol)
    reps = []
    masks: list[np.ndarray] = []
    for i, lam in enumerate(unit):
        for g, rep in enumerate(reps):
            if abs(lam - rep) <= scale:
                masks[g][i] = True
                break
        else:
            reps.append(lam)
            masks.append(np.zeros(n, dtype=bool))
            masks[-1][i] = True
    q = H.shape[1]
    grouped = np.zeros((n, len(reps) * q), dtype=H.dtype)
    for g, mask in enumerate(masks):
        grouped[mask, g * q:(g + 1) * q] = H[mask]
    g_scale = max(1.0, float(np.linalg.norm(grouped, 2)))
    prev = 0
    for j in range(1, len(reps) + 1):
        vand = np.vander(np.asarray(reps), j, increasing=True)
        r = rank_of(grouped @ np.kron(vand, np.eye(q)), tol, scale=g_scale)
        if r == prev:
            return j - 1
        prev = r
    return len(reps)
