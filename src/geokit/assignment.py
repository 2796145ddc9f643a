"""Eigenstructure assignment from pencil kernels.

Every feedback is assembled on the friend structure of Basile & Marro as
``F = F0 + Omega1 H X^+ Q^T``: F0 is a friend of the target subspace,
Omega1 spans its inputs that keep the state in it, and the eigenvectors
V = Q X (Q orthonormal) have inputs F0 V + Omega1 H.  Since B Omega1 lies
in the target and D Omega1 = 0, only the placed eigenvalues depend on
cond(X), and F acts as F0, which chooses no eigenvalue, on the directions
that no requested eigenvalue covers.  A requested spectrum is placed
parametrically (Roppenecker, IJC 1981) on the reachability staircase Q of
(A+BF0, B Omega1): the state parts of the Rosenbrock kernel at λ are
v = Q (λ - A11)⁻¹ B11 g, with inputs F0 v + Omega1 g.  The values take
columns in turn until they span the stair their count reaches; seeded
parameters g are refined by Kautsky, Nichols & Van Dooren's method 0 (IJC
1985), and a conjugate pair contributes the real and imaginary parts of one
complex column, so the result is real by construction.  An explicit
selection is taken as given (F0 = 0, Omega1 = Q = I, so F = W V^+), and
the imaginary part of F certifies it.  On top of that engine this module
provides Moore's solvability check, pole placement over the reachable
subspace (on Kalman's controllability form, the Morse decomposition at
p = 0), and, from the R* staircase of the Morse decomposition with no rank
decided on pencil kernels, the maximal subspace on which a distinct
spectrum is assignable with a diagonalizable closed loop and the minimal
number of distinct eigenvalues that needs.  The Krylov saturation index of
a diagonal pair, which that count rests on, comes from the same staircase
as every other Krylov chain (:func:`geokit.geometry.reachable_subspace`).
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
    _completion,
    _orthonormalize,
    _pivoted_leading,
    _svd_rank,
    as_matrix,
    image_basis,
    max_imag,
    norm2,
    rank_of,
    svd,
)
from .geometry import FeedbackResult
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

# A selected kernel column whose state part is smaller than this carries no
# eigenvector information: the selection is refused.
_STATE_FLOOR = 1e-8
# Condition numbers above this trigger a warning (not an error).
COND_WARNING = 1e8
# The staircase block A11 is shifted by a seeded B11 K, which changes no stair,
# when an eigenvalue lies this close (relative) to a requested one: its solve is ill-posed.
_NEAR = 1e-6
# KNV method 0 sweeps over the free columns of a parametric placement.
_KNV_SWEEPS = 3


def _assemble_feedback(sys: SystemQuad, F0, Omega1, Q, X, H, assigned, target: Subspace,
                       tol: Tol) -> FeedbackResult:
    """F = F0 + Omega1 H X⁺ Qᵀ, certified real, leaving ``target`` invariant
    and output nulling.

    The columns of Q X are the eigenvectors and those of F0 Q X + Omega1 H
    their inputs.  F0 is a friend of ``target``, B Omega1 ⊆ target and
    D Omega1 = 0, so the second term moves no state out of it and no output
    off zero: those residuals do not grow with cond(X).
    """
    u, svals, vh = svd(X, full_matrices=False)  # one factorization: rank, cond_V and X⁺
    if _svd_rank(svals, X.shape, tol) != X.shape[1]:
        raise SynthesisError("dependent selection: chosen eigenvector columns are not independent")
    cond_v = float(svals[0] / svals[-1]) if svals.size else 1.0
    if cond_v > COND_WARNING:
        warnings.warn(
            f"selected eigenvector matrix has condition number {cond_v:.2e}",
            RuntimeWarning,
            stacklevel=3,
        )
    pinv = (vh.conj().T / svals) @ u.conj().T  # X⁺: pinv's expression at full rank
    F = F0 + Omega1 @ (H @ pinv) @ Q.T
    im = max_imag(F)
    if im > tol.abs:
        raise SynthesisError(f"non-self-conjugate selection: F has imaginary magnitude {im:.3e}")
    F = np.ascontiguousarray(F.real)
    Acl = sys.A + sys.B @ F
    res_eig = 0.0
    for lam, v in assigned:
        res_eig = max(res_eig, float(np.linalg.norm(Acl @ v - lam * v)))
    tb = target.basis
    mapped = Acl @ tb
    res_inv = norm2(mapped - tb @ (tb.conj().T @ mapped))  # norm2 of an empty block is 0.0
    res_out = norm2((sys.C + sys.D @ F) @ tb)  # so 0.0 at p = 0
    scale = max(1.0, norm2(Acl))
    if res_inv > tol.abs * scale or res_out > tol.abs * scale:
        raise SynthesisError(
            f"synthesis residual above tolerance (invariance {res_inv:.3e}, output {res_out:.3e})"
        )
    return FeedbackResult(F, tuple(assigned), res_eig, res_out, res_inv, cond_v)


def _near_shift(eigs: np.ndarray, B: np.ndarray, values) -> np.ndarray | None:
    """A seeded K for which A + BK has no eigenvalue within ``_NEAR``
    (relative) of a value to place, or None when A's eigenvalues ``eigs``
    have none already.  The caller passes ``eigs``, so that a frame's
    spectrum is computed once for all the spectra placed on it."""
    radius = max(1.0, float(np.abs(eigs).max(initial=0.0)))
    if np.abs(np.subtract.outer(eigs, [lam for lam, _ in values])).min(initial=np.inf) > _NEAR * radius:
        return None
    return radius / np.linalg.norm(B) * np.random.default_rng(0).standard_normal(B.T.shape)


def _columns(x: np.ndarray, is_pair: bool) -> np.ndarray:
    """x as real columns: its real and imaginary parts for a conjugate pair."""
    return np.column_stack([x.real, x.imag][:1 + is_pair])


def _parametric(A, B, F, Omega1, Q, stairs, values):
    """``(F0, X, H, assigned)`` for ``values``, the ``(value, is_pair)`` list
    of :func:`geokit.pencils.validate_spectrum`, placed on the
    staircase Q of (A+BF, B Omega1): the eigenvectors are V = Q X, with
    inputs F0 V + Omega1 H, and F0 is F shifted through Omega1 (see
    ``_NEAR``), so it is a friend whenever F is.

    The values take columns in turn, at most d = ``stairs[1]`` each, until
    they fill the stair their count reaches; a conjugate pair takes two.
    The columns of λ lie in the span U of (λ - A11)⁻¹ B11 G, G spanning the
    d inputs that move a state.  A value that takes d columns gets U itself;
    the other columns start from seeded coefficients and each KNV-0 sweep
    moves them in turn to the projection onto U of their part off the other
    columns, found from a complete QR of those columns (:func:`geokit.linalg._completion`).
    """
    d, target = stairs[1], geometry.chain_term(stairs, sum(1 + is_pair for _, is_pair in values))
    counts, total = [0] * len(values), 0
    for _ in range(d):
        for i, (_, is_pair) in enumerate(values):
            if total + 1 + is_pair <= target:
                counts[i] += 1
                total += 1 + is_pair
    if not total:
        return F, np.zeros((Q.shape[1], 0)), np.zeros((Omega1.shape[1], 0)), []
    A11, B11 = Q.T @ (A + B @ F) @ Q, Q.T @ (B @ Omega1)
    K = _near_shift(np.linalg.eigvals(A11), B11, values)
    if K is not None:  # folded into F, so that A11 stays the block of A + BF
        A11, F = A11 + B11 @ K, F + Omega1 @ K @ Q.T
    G = np.linalg.qr(B11[:d].T)[0]  # B11 vanishes below the first stair
    rng = np.random.default_rng(0)
    units, coeffs = [], []  # (λ, is_pair, U, R, free) per column or conjugate pair; its coefficients in U
    for (lam, is_pair), c in zip(values, counts):
        if c:
            M = np.linalg.solve((lam if is_pair else lam.real) * np.eye(len(A11)) - A11, B11 @ G)
            U, R = np.linalg.qr(M)
            C = np.eye(d) if c == d else rng.standard_normal((d, c))
            if c < d and is_pair:
                C = C + 1j * rng.standard_normal((d, c))
            units += [(lam, is_pair, U, R, c < d)] * c
            coeffs += list((C / np.linalg.norm(C, axis=0)).T)
    X = np.hstack([_columns(unit[2] @ c, unit[1]) for unit, c in zip(units, coeffs)])
    starts = np.cumsum([0] + [1 + unit[1] for unit in units])
    for _ in range(_KNV_SWEEPS if any(unit[4] for unit in units) else 0):
        for j, (_, is_pair, U, _, free) in enumerate(units):
            if free:
                lo, hi = starts[j], starts[j + 1]
                others = np.delete(X, np.s_[lo:hi], axis=1)
                Y = _completion(others)
                x = X[:, lo] + 1j * X[:, lo + 1] if is_pair else X[:, lo]
                c = U.conj().T @ (Y @ (Y.T @ x))
                if np.linalg.norm(c):
                    coeffs[j] = c / np.linalg.norm(c)
                    X[:, lo:hi] = _columns(U @ coeffs[j], is_pair)
    H, assigned = [], []
    for (lam, is_pair, U, R, _), c in zip(units, coeffs):
        H.append(_columns(G @ np.linalg.solve(R, c), is_pair))
        v = Q @ (U @ c)
        assigned += [(lam, v), (lam.conjugate(), v.conjugate())] if is_pair else [(lam, v)]
    return F, X, np.hstack(H), assigned


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
    sys = SystemQuad.from_matrices(A, B)
    Vs, Ws, assigned = [np.zeros((sys.n, 0))], [np.zeros((sys.m, 0))], []
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
        norms = np.linalg.norm(kernel.V @ Cf, axis=0)
        if not (norms > _STATE_FLOOR).all():
            raise SynthesisError("dependent selection: a chosen column has zero state part")
        Vs.append(kernel.V @ Cf / norms)
        Ws.append(kernel.W @ Cf / norms)
        assigned += [(complex(kernel.lam), v) for v in Vs[-1].T]
    Vsel = np.hstack(Vs)  # past n columns it is dependent, and refused before the target is read
    return _assemble_feedback(sys, np.zeros((sys.m, sys.n)), np.eye(sys.m), np.eye(sys.n), Vsel,
                              np.hstack(Ws), assigned, Subspace(_orthonormalize(Vsel[:, :sys.n])), tol)


def place_poles(A, B, lambdas, tol: Tol = DEFAULT_TOL) -> FeedbackResult:
    """Pole placement over the reachable subspace, parametrically on the
    staircase of Kalman's controllability form.

    The requested set must be distinct, self-conjugate, and away from the
    uncontrollable eigenvalues; it needs at least as many values as the
    Krylov saturation count of (A, B), since no Jordan blocks are formed.
    Raises :class:`SynthesisError` when the eigenvector matrix loses
    numerical rank; a condition number above ``COND_WARNING`` only warns.
    """
    sysab = SystemQuad.from_matrices(A, B)
    frame = geometry.morse_decomposition(sysab, tol)  # its zeros are the uncontrollable eigenvalues
    values = validate_spectrum(lambdas, frame.invariant_zeros, tol)
    r = frame.dim_rstar
    Q, Omega1 = frame.T[:, :r], frame.Omega[:, :frame.m1]
    F0, X, H, assigned = _parametric(sysab.A, sysab.B, frame.F, Omega1, Q, frame.stairs, values)
    if X.shape[1] < r:
        raise SynthesisError(
            f"requested eigenvalues span only {X.shape[1]} of {r} reachable directions; "
            "supply more distinct values"
        )
    return _assemble_feedback(sysab, F0, Omega1, Q, X, H, assigned, Subspace(Q), tol)


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
    of the kernel of [A - λI  B] at its eigenvalue.  A and B must be real.
    """
    sys = SystemQuad.from_matrices(A, B)
    n = sys.n
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
        K = pencils.rosenbrock_kernel(sys, lam, tol)
        span = image_basis(K.V, tol, scale=1.0)
        vn = v / np.linalg.norm(v)
        resid = float(np.linalg.norm(vn - span.basis @ (span.basis.conj().T @ vn)))
        member_ok.append(resid <= tol.abs)
    ok = independent and all(conj_ok) and all(member_ok)
    return MooreReport(ok, independent, tuple(conj_ok), tuple(member_ok))


def _kh(frame: geometry.MorseDecomposition, lams, tol: Tol) -> Subspace:
    """Kh = p(A11)⁻¹ (V* ∩ S_h) on the R* block, p(s) = Π(s - λ_i), for the
    spectrum ``lams``, which :func:`geokit.pencils.validate_spectrum` checks
    against the frame's invariant zeros.

    By partial fractions, span_i (λ_i - A)⁻¹ B = p(A)⁻¹ im[B, ..., A^(h-1)B],
    the pencil kernels' state parts for the R* block (A11, B11).  Rational
    Arnoldi grows it, Q_1 = (A - λ_1)⁻¹ im B, Q_{j+1} = Q_j + (A - λ_{j+1})⁻¹
    Q_j, by as many directions as the stairs add (a conjugate pair adds the
    real and imaginary parts of (A - λ)⁻¹ Q_j, so Kh is real).  Applying
    p(A)⁻¹ to a basis of V* ∩ S_h instead loses it past about 40 states.
    """
    values = validate_spectrum(lams, frame.invariant_zeros, tol)
    n1, stairs = frame.dim_rstar, frame.stairs
    if n1 == 0:  # no direction to grow: nothing to shift or solve
        return Subspace.zero(frame.T.shape[0])
    A, B = frame.Abar[:n1, :n1], frame.Bbar[:n1, :frame.m1]
    K = _near_shift(frame._rstar_spectrum, B, values)
    if K is not None:
        A = A + B @ K
    Q, h, eye = np.zeros((n1, 0)), 0, np.eye(n1)
    for lam, is_pair in values:
        h += 2 if is_pair else 1
        new = geometry.chain_term(stairs, h) - Q.shape[1]
        if new == 0:  # saturated: no later value adds a direction
            break
        Y = np.linalg.solve(A - (lam if is_pair else lam.real) * eye, Q if Q.size else B)
        Y = np.hstack([Y.real, Y.imag]) if is_pair else Y
        Y -= Q @ (Q.T @ Y)
        # the new directions lead a pivoted QR; tiny until normalized, they are re-projected
        X = _pivoted_leading(Y, new)
        Q = np.hstack([Q, _orthonormalize(X - Q @ (Q.T @ X))])
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
    ``tol.abs`` outside Kh, raises :class:`NumericalError`.  With m ≤ p
    each kernel is empty unless the Rosenbrock matrix loses rank at its
    value, and one Cholesky of the matrix's Gram matrix, updated from the
    system's Gram coefficients, usually proves an empty one; the singular
    values decide the ill-conditioned rest
    (:func:`geokit.pencils.rosenbrock_kernels`).
    """
    frame = geometry.morse_decomposition(sys, tol)
    lams = [complex(v) for v in spec]
    kh = _kh(frame, lams, tol)
    kernels = pencils.rosenbrock_kernels(sys, lams, tol)
    if any(K.V.shape[1] for K in kernels):  # else no column to check, as usually with m ≤ p
        V = np.hstack([K.V for K in kernels])
        outside = float(np.linalg.norm(V - kh.basis @ (kh.basis.T @ V), axis=0).max())
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
