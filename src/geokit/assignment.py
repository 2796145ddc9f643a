"""Eigenstructure assignment from pencil kernels.

Feedback matrices are assembled the same way throughout: collect state
directions v with their input directions w and set ``F = W V^+``.  Where a
spectrum is requested, the pairs are eigenvalue / eigenvector / input-
direction triples from Rosenbrock kernels, with conjugate pairs replaced by
real and imaginary parts so the result is real by construction; an explicit
selection is taken as given, and the imaginary part of F certifies it.
Whatever no requested eigenvalue covers is closed by the least-squares
friend of :func:`geokit.geometry.friend_of`, which chooses no eigenvalue.
On top of that engine this module provides Moore's solvability check, pole
placement over the reachable subspace, and, from the R* staircase of the
Morse decomposition (for p = 0 the same frame is Kalman's controllability
form) with no rank decided on pencil kernels, the maximal subspace on which
a distinct spectrum is assignable with a diagonalizable closed loop and the
minimal number of distinct eigenvalues that needs.  The Krylov saturation
index of a diagonal pair, which that count rests on, comes from the same
staircase as every other Krylov chain (:func:`geokit.geometry.reachable_subspace`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeqp3, dgeqrf, dorgqr

from . import geometry, pencils
from .errors import NumericalError, SynthesisError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tol,
    _svd_rank,
    as_matrix,
    image_basis,
    kernel_basis,
    max_imag,
    norm2,
    pinv,
    rank_of,
    require_real,
    svd,
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
# build_Kh shifts A+BF on R* by a seeded B Omega1 K, which changes no stair, when
# an eigenvalue lies this close (relative) to a requested one: its solve is ill-posed.
_NEAR = 1e-6


@dataclass(frozen=True, eq=False)
class FeedbackResult:
    """A real feedback matrix with its assignment diagnostics.

    ``assigned`` lists the (eigenvalue, unit eigenvector) pairs the synthesis
    actually placed; ``residual_eig`` is the worst eigenpair residual,
    ``residual_out`` the output-nulling residual ``(C+DF)V`` (zero by
    convention when no outputs are in scope), ``residual_inv`` the invariance
    residual of the target subspace under A+BF, and ``cond_V`` the condition
    number of the selected eigenvector matrix (realified, except for an
    explicit selection).
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
    Wsel = np.column_stack(wcols)
    svals = svd(Vsel, compute_uv=False)  # one call decides the rank and gives cond_V
    if _svd_rank(svals, Vsel.shape, tol) != Vsel.shape[1]:
        raise SynthesisError("dependent selection: chosen eigenvector columns are not independent")
    cond_v = float(svals[0] / svals[-1])
    if cond_v > COND_WARNING:
        warnings.warn(
            f"selected eigenvector matrix has condition number {cond_v:.2e}",
            RuntimeWarning,
            stacklevel=3,
        )
    F = Wsel @ pinv(Vsel, tol)
    im = max_imag(F)
    if im > tol.abs:
        raise SynthesisError(f"non-self-conjugate selection: F has imaginary magnitude {im:.3e}")
    F = np.ascontiguousarray(F.real)
    Acl = A + B @ F
    res_eig = 0.0
    for lam, v in assigned:
        res_eig = max(res_eig, float(np.linalg.norm(Acl @ v - lam * v)))
    tb = (image_basis(Vsel, tol) if target is None else target).basis
    mapped = Acl @ tb
    res_inv = norm2(mapped - tb @ (tb.conj().T @ mapped))  # norm2 of an empty block is 0.0
    res_out = 0.0 if C is None else norm2((C + D @ F) @ tb)
    scale = max(1.0, norm2(Acl))
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
        K = pencils.rosenbrock_kernel(sys, lam, tol)
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


def _friend_engine(sys: SystemQuad, V: Subspace, spectrum, F: np.ndarray, tol: Tol) -> FeedbackResult:
    """The spectrum path of :func:`geokit.geometry.friend_of`.

    Eigenvector/input-direction units at the requested eigenvalues are
    selected first; the least-squares friend F of V closes every direction
    they leave uncovered: E, an orthonormal basis of that part of V, is sent
    to F E, since E ⊆ V.
    """
    checked = validate_spectrum(spectrum, (), tol)
    reps = _spectrum_representatives(list(checked.lambdas), list(checked.partner))
    pools = _candidate_pools(sys, reps, V, tol)
    units, Q, _total = _greedy_units(pools, V.dim, sys.n)
    vcols, wcols, assigned = _expand_units(units)
    if len(vcols) < V.dim:
        E = image_basis(V.basis - Q @ (Q.T @ V.basis), tol, scale=1.0).basis
        vcols += list(E.T)
        wcols += list((F @ E).T)
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
        state-part columns must be linearly independent and the selection
        must yield a real ``F = W V⁺`` (a complex column needs a multiple of
        its conjugate at the conjugate eigenvalue): an imaginary part above
        ``tol.abs`` raises :class:`SynthesisError`.

    Returns
    -------
    FeedbackResult
        With each selected (eigenvalue, eigenvector) pair assigned in closed
        loop: ``(A + BF) v = λ v`` up to ``residual_eig``.
    """
    A = require_real(as_matrix(A, "A"), tol, "A")
    B = require_real(as_matrix(B, "B"), tol, "B")
    vcols, wcols, assigned = [], [], []
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
        cols = _unit_state_columns(kernel.V @ Cf, kernel.W @ Cf)
        if len(cols) < Cf.shape[1]:
            raise SynthesisError("dependent selection: a chosen column has zero state part")
        vcols += [v for v, _ in cols]
        wcols += [w for _, w in cols]
        assigned += [(complex(kernel.lam), v) for v, _ in cols]
    return _assemble_feedback(A, B, vcols, wcols, assigned, tol)


def place_poles(A, B, lambdas, tol: Tol = DEFAULT_TOL) -> FeedbackResult:
    """Pole placement over the reachable subspace by kernel extraction.

    The requested set must be distinct, self-conjugate, and away from the
    uncontrollable eigenvalues; it needs at least as many values as the
    Krylov saturation count of (A, B), since no Jordan blocks are formed.
    """
    A = require_real(as_matrix(A, "A"), tol, "A")
    B = require_real(as_matrix(B, "B"), tol, "B")
    sysab = SystemQuad.from_matrices(A, B)
    frame = geometry.morse_decomposition(sysab, tol)  # its zeros are the uncontrollable eigenvalues
    checked = validate_spectrum(lambdas, frame.invariant_zeros, tol)
    r = frame.dim_rstar
    reps = _spectrum_representatives(checked.lambdas, checked.partner)
    pools = _candidate_pools(sysab, reps, Subspace.full(A.shape[0]), tol)
    units, _Q, total = _greedy_units(pools, r, A.shape[0])
    if total < r:
        raise SynthesisError(
            f"requested eigenvalues span only {total} of {r} reachable directions; "
            "supply more distinct values"
        )
    vcols, wcols, assigned = _expand_units(units)
    return _assemble_feedback(A, B, vcols, wcols, assigned, tol, target=Subspace(frame.T[:, :r]))


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


def _kh(frame: geometry.MorseDecomposition, spec, tol: Tol) -> Subspace:
    """Kh = p(A11)⁻¹ (V* ∩ S_h) on the R* block, p(s) = Π(s - λ_i).

    By partial fractions, span_i (λ_i - A)⁻¹ B = p(A)⁻¹ im[B, ..., A^(h-1)B],
    the pencil kernels' state parts for the R* block (A11, B11).  Rational
    Arnoldi grows it, Q_1 = (A - λ_1)⁻¹ im B, Q_{j+1} = Q_j + (A - λ_{j+1})⁻¹
    Q_j, by as many directions as the stairs add (a conjugate pair adds the
    real and imaginary parts of (A - λ)⁻¹ Q_j, so Kh is real).  Applying
    p(A)⁻¹ to a basis of V* ∩ S_h instead loses it past about 40 states.
    """
    checked = validate_spectrum(spec, frame.invariant_zeros, tol)
    n1, stairs = frame.dim_rstar, frame.stairs
    A, B = frame.Abar[:n1, :n1], frame.Bbar[:n1, :frame.m1]
    eigs = np.linalg.eigvals(A)
    radius = max(1.0, float(np.abs(eigs).max(initial=0.0)))
    if np.abs(np.subtract.outer(eigs, checked.lambdas)).min(initial=np.inf) <= _NEAR * radius:
        K = np.random.default_rng(0).standard_normal(B.T.shape)
        A = A + B @ (radius / np.linalg.norm(B) * K)
    Q, h, eye = np.zeros((n1, 0)), 0, np.eye(n1)
    for lam, is_pair in _spectrum_representatives(checked.lambdas, checked.partner):
        h += 2 if is_pair else 1
        new = stairs[min(h, len(stairs) - 1)] - Q.shape[1]
        if new == 0:  # saturated: no later value adds a direction
            break
        Y = np.linalg.solve(A - (lam if is_pair else lam.real) * eye, Q if Q.size else B)
        Y = np.hstack([Y.real, Y.imag]) if is_pair else Y
        Y -= Q @ (Q.T @ Y)
        # the new directions lead a pivoted QR; tiny until normalized, they are re-projected
        qr, _, tau = dgeqp3(Y)[:3]
        X = dorgqr(qr[:, :new], tau[:new])[0]
        X -= Q @ (Q.T @ X)
        Q = np.hstack([Q, dorgqr(*dgeqrf(X)[:2])[0]])
    return Subspace(frame.T[:, :n1] @ Q)


def build_Kh(sys: SystemQuad, spec, tol: Tol = DEFAULT_TOL) -> tuple[Subspace, list[PencilKernel]]:
    """Maximal subspace on which the given distinct self-conjugate spectrum
    is assignable with a diagonalizable closed-loop restriction.

    It is the span of the Rosenbrock kernels' state parts at the requested
    eigenvalues (output nulling; controlled invariant at p = 0), built
    without a rank decision as p(A+BF)⁻¹ (V* ∩ S_h) on R*: its dimension is
    dim(V* ∩ S_h), its basis real.  The spectrum must avoid the invariant
    zeros (the uncontrollable eigenvalues at p = 0).  The kernels are
    returned as its certificate: if one of their columns lies over
    ``tol.abs`` outside Kh, raises :class:`NumericalError`.
    """
    frame = geometry.morse_decomposition(sys, tol)
    checked = validate_spectrum(spec, frame.invariant_zeros, tol)
    kh = _kh(frame, checked, tol)
    kernels = [pencils.rosenbrock_kernel(sys, lam, tol) for lam in checked.lambdas]
    V = np.hstack([K.V for K in kernels])
    outside = float(np.linalg.norm(V - kh.basis @ (kh.basis.T @ V), axis=0).max(initial=0.0))
    if outside > tol.abs:
        raise NumericalError(f"a pencil kernel column lies {outside:.3e} outside Kh")
    return kh, kernels


def min_distinct_spectrum(sys: SystemQuad, mode: str, tol: Tol = DEFAULT_TOL) -> int:
    """Minimal number of distinct eigenvalues assignable with a
    diagonalizable closed-loop restriction.

    ``mode="reachability"``: on the reachable subspace; equals the Krylov
    saturation count of (A, B).  ``mode="rosenbrock"``: on the supremal
    output-nulling reachability subspace R*; equals the saturation index of
    its staircase, the first h with V* ∩ S_h = R*.
    """
    if mode == "reachability":
        return geometry.reachable_subspace(sys.A, sys.B, tol)[1]
    if mode != "rosenbrock":
        raise ValidationError(f"unknown mode {mode!r}")
    return len(geometry.morse_decomposition(sys, tol).stairs) - 2


def reach_on_Kh(sys: SystemQuad, spec, tol: Tol = DEFAULT_TOL) -> Subspace:
    """Reachability subspace on the maximal assignable subspace of ``spec``,
    as :func:`build_Kh` builds (and certifies) it.

    Independent of which admissible eigenvalues are used, only of how many
    (h): the supremal output-nulling subspace in the h-th input-containing term.
    """
    kh, _ = build_Kh(sys, spec, tol)
    return geometry.reachability_on(sys, kh, tol)


def diag_krylov_saturation(Delta, H, tol: Tol = DEFAULT_TOL) -> int:
    """Krylov saturation index of a diagonal pair (Δ, H).

    Bounded above by the number of distinct diagonal values: powers of a
    diagonal matrix repeat directions once a Vandermonde system in the
    distinct values becomes square.  Raises on non-diagonal input.

    The index is that of :func:`geokit.geometry.reachable_subspace`, the
    staircase behind every Krylov chain in geokit, run on Δ scaled to unit
    norm (Krylov spans are scale invariant).  No basis of monomial powers
    ``Δ^k H`` is formed: for clustered values its columns lose directions
    that the orthonormal staircase keeps.
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
    unit = np.diag(diag / max(1.0, float(np.abs(diag).max())))
    return geometry.reachable_subspace(unit, H, tol)[1]
