"""Invariant-subspace algorithms for LTI quadruples.

This module computes the classical subspaces of geometric control: the
reachable subspace, the unobservable subspace, the supremal output-nulling
subspace (optionally constrained inside a subspace E) and its non-increasing
recursion, the infimal input-containing subspace and its non-decreasing
recursion, reachability subspaces on output-nulling subspaces, friends, a
triangularizing decomposition that isolates the invariant-zero dynamics, and
a closed-form Markov-parameter formula for the intersections of the two
recursions.  One predicate, :func:`is_output_nulling`, checks every
invariance property: controlled invariance is its p = 0 case, and
input-containing and conditioned-invariant subspaces are the orthogonal
complements of output-nulling subspaces of the dual system.

Every chain is one run of ``_staircase`` (Van Dooren's staircase form), at
O(n³) per chain: the input-containing terms are prefixes of its basis, the
Krylov and reachable subspaces are its runs without outputs, and the
output-nulling terms are complements of the dual system's run (Basile &
Marro, 1992).

None of those chains depends on an eigenvalue, and a :class:`SystemQuad` is
immutable, so the system's staircase, the dual staircase from the whole
space, the friend of V*, the R* staircase on V*, the answers V*, S* and R*
and the Morse frame are built once per system and tolerance, kept on the
system (``_memoized``) and shared by every op that reads them:
:func:`vstar`, :func:`sstar` and :func:`rstar`, which return one Subspace
each and end their sequences, :func:`friend_of` and
:func:`reachability_on` of that V*, :func:`morse_decomposition` and,
through it, the invariant zeros, the normal rank and the Kh frame.  Their
arrays are read-only.  Each kept answer is served as it is kept, so a
warm query is a read: :func:`friend_of` without a spectrum answers V* with
a copy of the kept F and the residual norms kept with it, and V = 0 with
F = 0, before any import or check of a spectrum, and the frame keeps the
invariant zeros as the Python complex values that
:func:`geokit.pencils.invariant_zeros` hands out in a new list.

Conventions: every function here accepts a quadruple with ``p = 0`` (no
outputs).  The output-nulling recursion then becomes the largest-controlled-
invariant recursion, the input-containing terms the step-wise reachable
subspaces, the unobservable subspace the whole state space, and the Morse
decomposition Kalman's controllability form, whose zeros are the
input-decoupling zeros, i.e. the uncontrollable eigenvalues (Rosenbrock,
*State-Space and Multivariable Theory*, 1970).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .errors import DecompositionError, NotInvariantError, NumericalError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tol,
    _completion,
    _orthonormalize,
    _svd_rank,
    as_matrix,
    containment_residual,
    contains,
    image_basis,
    kernel_basis,
    norm2,
    orthonormal_complement,
    require_real,
    svd,
)
from .sysmodel import SystemQuad

__all__ = [
    "reachable_subspace",
    "krylov_image",
    "unobservable_subspace",
    "vstar_sequence",
    "vstar",
    "sstar_sequence",
    "sstar",
    "chain_term",
    "is_output_nulling",
    "FeedbackResult",
    "friend_of",
    "reachability_on",
    "rstar",
    "MorseDecomposition",
    "morse_decomposition",
    "intersection_formula",
    "intersection_formulas",
]


def _memoized(build):
    """``build(sys, tol)``, built once per system and tolerance.

    The result is kept in the system's ``_memo`` under ``(name, tol)`` and
    every later call returns it: the system is immutable and ``build``
    chooses no eigenvalue.  A build that raises stores nothing, so the next
    call raises again.  Threads that race on one key may each build, but
    ``setdefault`` hands every caller the first result stored.  The
    wrapper's ``kept(sys, tol)`` returns the result already kept, or None,
    and never builds.

    Kept this way: the system's staircase (``_stairs``), the dual staircase
    from the whole space (``_vstar_stairs``), the least-squares friend of
    V* (``_friend_of_vstar``), the answer :func:`friend_of` gives on V*,
    that F with its two residual norms, once a caller asks for it
    (``_friend_of_vstar_answer``), the R* staircase on V*
    (``_rstar_stairs``), the answers :func:`vstar` (E omitted),
    :func:`sstar` and :func:`rstar`, and the Morse frame.
    """
    name = build.__name__

    @functools.wraps(build)
    def memoized(sys: SystemQuad, tol: Tol = DEFAULT_TOL):
        key, memo = (name, tol), sys._memo
        try:
            return memo[key]
        except KeyError:
            return memo.setdefault(key, build(sys, tol))
    memoized.kept = lambda sys, tol: sys._memo.get((name, tol))
    return memoized


def _read_only(*arrays: np.ndarray) -> None:
    for M in arrays:
        M.setflags(write=False)


def _staircase(A, B, C, D, start, steps: int, tol: Tol,
               scales: tuple[float, float]) -> tuple[np.ndarray, list[int]]:
    """Grow ``S_0 = span(start)``, ``S_{j+1} = S_j + [A B]((S_j ⊕ U) ∩ ker[C D])``
    on one orthonormal basis (Van Dooren's staircase form).

    Returns ``(Q, dims)``: the first ``dims[j]`` columns of Q span ``S_j``.
    The run stops after ``steps`` steps or at the first repeated term, which
    ``dims`` then includes.  ``start`` must have orthonormal columns.

    Each step maps only the feasible coefficients ``[u; c]`` of ``(Q c, u)``
    (the kernel of ``[D, CQ]``) that are new: they lie in the span W of the
    previous step's infeasible coefficients (at most p; all of U before the
    first step) and of the new columns' coefficients.  The infeasible ones
    are decided on the whole of ``[D, CQ]`` at every step, with ``scale =
    ‖[C D]‖₂`` because it is a product that may vanish up to roundoff;
    deciding them on ``[D, CQ] W`` alone lets near-threshold decisions pile
    up (``verify.run("lemma-reach", trials=5, seed=0, nmax=40)`` then fails).
    The new images are projected off Q twice and their rank is decided on
    that small residual block with ``scale = ‖[A B]‖₂``.  A direction kept
    just above the threshold is tiny before it is normalized, so it is
    projected off Q once more and re-orthonormalized.  The caller passes
    ``scales = (‖[A B]‖₂, ‖[C D]‖₂)``, 0.0 for the second when p = 0.
    """
    n, m = B.shape
    p, d = C.shape[0], start.shape[1]
    dtype = np.result_type(A, B, C, D, start)
    ab_scale, cd_scale = scales
    # Q and the prefixes [B, AQ] and [D, CQ] grow in place.
    Qbuf = np.empty((n, n), dtype=dtype)
    BAQ = np.empty((n, m + n), dtype=dtype)
    DCQ = np.empty((p, m + n), dtype=dtype)
    Qbuf[:, :d], BAQ[:, :m], DCQ[:, :m] = start, B, D
    BAQ[:, m:m + d], DCQ[:, m:m + d] = A @ start, C @ start
    infeasible, new = np.eye(m, dtype=dtype), d
    dims = [d]
    for _ in range(steps):
        if d == n:
            dims.append(n)
            break
        Q = Qbuf[:, :d]
        if p:
            W = np.zeros((m + d, infeasible.shape[1] + new), dtype=dtype)
            W[:m + d - new, :infeasible.shape[1]] = infeasible
            np.fill_diagonal(W[m + d - new:, infeasible.shape[1]:], 1.0)
            _, s, vh = svd(DCQ[:, :m + d], full_matrices=False)
            r = _svd_rank(s, (p, n + m), tol, scale=cd_scale)
            infeasible = vh[:r].conj().T
            Z = BAQ[:, :m + d] @ (W @ svd(infeasible.conj().T @ W)[2][r:].conj().T)
        else:  # no constraints: the new coefficients (all of U at first) are feasible
            Z = BAQ[:, m + d - new - infeasible.shape[1]:m + d].copy()
            infeasible = infeasible[:, :0]
        Z -= Q @ (Q.conj().T @ Z)
        Z -= Q @ (Q.conj().T @ Z)
        u, s, _ = svd(Z, full_matrices=False)
        new = _svd_rank(s, Z.shape, tol, scale=ab_scale)
        if new == 0:
            dims.append(d)
            break
        X = _orthonormalize(u[:, :new] - Q @ (Q.conj().T @ u[:, :new]))
        Qbuf[:, d:d + new] = X
        BAQ[:, m + d:m + d + new], DCQ[:, m + d:m + d + new] = A @ X, C @ X
        d += new
        dims.append(d)
    return Qbuf[:, :d], dims


def _span(Q: np.ndarray) -> Subspace:
    """The span of orthonormal columns; the whole space is :meth:`Subspace.full`."""
    n, k = Q.shape
    return Subspace.full(n) if k == n else Subspace(Q)


def _krylov(A, M, steps: int, tol: Tol) -> tuple[np.ndarray, list[int]]:
    """Staircase of the pair (A, M) without outputs: ``S_j = im[M, ..., A^(j-1) M]``."""
    A = as_matrix(A, "A")
    M = as_matrix(M, "M")
    n, m = M.shape
    return _staircase(A, M, np.zeros((0, n)), np.zeros((0, m)), np.zeros((n, 0)), steps, tol,
                      (norm2(np.hstack([A, M])), 0.0))


def krylov_image(A, M, steps: int, tol: Tol = DEFAULT_TOL) -> Subspace:
    """Image of ``[M, AM, ..., A^(steps-1) M]`` (the zero subspace for steps=0).

    The staircase of the pair (A, M) without outputs, i.e. block Arnoldi:
    each step applies A only to the basis columns the previous step added.
    """
    return _span(_krylov(A, M, steps, tol)[0])


def reachable_subspace(A, B, tol: Tol = DEFAULT_TOL) -> tuple[Subspace, int]:
    """Smallest A-invariant subspace containing im B, with its saturation index.

    Returns
    -------
    R : Subspace
        Image of the n-block controllability matrix ``[B, AB, ..., A^(n-1)B]``:
        the limit of the staircase of the pair (A, B) without outputs.
    h_min : int
        Least ``h`` with ``im[B, ..., A^(h-1)B]`` already stationary; this is
        the number of Krylov steps needed to fill R (0 when B = 0).
    """
    Q, dims = _krylov(A, B, as_matrix(A, "A").shape[0] + 1, tol)
    return _span(Q), len(dims) - 2


def unobservable_subspace(C, A, tol: Tol = DEFAULT_TOL) -> Subspace:
    """Largest A-invariant subspace contained in ker C: the orthogonal
    complement of the reachable subspace of the dual pair (A*, C*), which is
    the whole state space when C has no rows (p = 0): the completion of the
    basis of the dual Krylov staircase, which decides its dimension."""
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    return _span(_completion(_krylov(A.conj().T, C.conj().T, A.shape[0], tol)[0]))


def vstar_sequence(sys: SystemQuad, E: Subspace | None = None, tol: Tol = DEFAULT_TOL) -> list[Subspace]:
    """Non-increasing recursion converging to the supremal output-nulling
    subspace contained in E.

    Starting from the constraint subspace E (the whole state space when
    omitted), each step keeps the states that can take one more step while
    staying in E with zero output.  The returned chain includes the first
    repeated term, so its last element is the limit.

    Computed by duality (Basile & Marro, 1992): the k-th term is the
    orthogonal complement of the k-th input-containing term of the dual
    system (A', C', B', D') started at the orthogonal complement of E.  One
    staircase run of the dual gives every term: with its basis completed to
    an orthonormal basis of the state space, the k-th term is spanned by the
    columns past the k-th stair.  With E omitted the chain ends in the V*
    kept on the system (:func:`vstar`).
    """
    if E is not None:
        Q, dims = _dual_stairs(sys, E, tol)
        return [E] + [_span(Q[:, d:]) for d in dims[1:]]
    Q, dims = _vstar_stairs(sys, tol)
    return [Subspace.full(sys.n)] + [_span(Q[:, d:]) for d in dims[1:-1]] + [_vstar(sys, tol)]


def vstar(sys: SystemQuad, E: Subspace | None = None, tol: Tol = DEFAULT_TOL) -> Subspace:
    """The supremal output-nulling subspace contained in E (default: whole space):
    the last term of :func:`vstar_sequence`, built alone.  With E omitted it
    is built once per system and tolerance, and every call returns that one
    Subspace."""
    if E is None:
        return _vstar(sys, tol)
    Q, dims = _dual_stairs(sys, E, tol)
    return _span(Q[:, dims[-1]:])


@_memoized
def _vstar(sys: SystemQuad, tol: Tol) -> Subspace:
    """V*: the basis of :func:`_vstar_stairs` past its last stair."""
    Q, dims = _vstar_stairs(sys, tol)
    return _span(Q[:, dims[-1]:])


def _is_vstar(sys: SystemQuad, V: Subspace, tol: Tol) -> bool:
    """True when V is the V* kept on ``sys`` at ``tol``: the Subspace that
    :func:`vstar` returns and :func:`vstar_sequence` ends in.  False also
    when no V* is kept, which is not built for the question."""
    return V is _vstar.kept(sys, tol)


@_memoized
def _vstar_stairs(sys: SystemQuad, tol: Tol) -> tuple[np.ndarray, tuple[int, ...]]:
    """:func:`_dual_stairs` from the whole space: V* is spanned by its basis
    past the last stair."""
    Q, dims = _dual_stairs(sys, None, tol)
    _read_only(Q)
    return Q, tuple(dims)


def _check_ambient(sys: SystemQuad, S: Subspace, name: str) -> None:
    """Raise :class:`ValidationError` unless the subspace ``name`` lies in
    the state space of ``sys``."""
    if S.ambient_dim != sys.n:
        raise ValidationError(f"{name} has ambient {S.ambient_dim}, expected {sys.n}")


def _dual_stairs(sys: SystemQuad, E: Subspace | None, tol: Tol) -> tuple[np.ndarray, list[int]]:
    """The dual system's staircase from E⊥, its basis completed to an
    orthonormal basis of the state space."""
    n = sys.n
    if E is not None:
        _check_ambient(sys, E, "E")
    start = np.zeros((n, 0)) if E is None else orthonormal_complement(E, tol).basis
    Q, dims = _staircase(sys.A.T, sys.C.T, sys.B.T, sys.D.T, start, n + 1, tol,
                         (sys._ac_scale, sys._bd_scale))
    return np.hstack([Q, _completion(Q)]), dims


def sstar_sequence(sys: SystemQuad, tol: Tol = DEFAULT_TOL) -> list[Subspace]:
    """Non-decreasing recursion converging to the infimal input-containing
    subspace.

    The j-th term collects the states reachable from the origin in j steps
    while the output stays at zero.  The chain starts at the zero subspace
    and includes the first repeated term; index it with :func:`chain_term`
    to saturate past stationarity.  With p = 0 the terms reduce to the
    step-wise reachable subspaces ``im[B, ..., A^(j-1)B]``.

    The terms are the stairs of one staircase run: the j-th is spanned by
    the first ``dim S_j`` columns of its orthonormal basis.  The chain ends
    in the S* kept on the system (:func:`sstar`).
    """
    Q, dims = _stairs(sys, tol)
    return [_span(Q[:, :d]) for d in dims[:-1]] + [sstar(sys, tol)]


@_memoized
def sstar(sys: SystemQuad, tol: Tol = DEFAULT_TOL) -> Subspace:
    """The infimal input-containing subspace: the last term of
    :func:`sstar_sequence`, built alone, once per system and tolerance."""
    return _span(_stairs(sys, tol)[0])


@_memoized
def _stairs(sys: SystemQuad, tol: Tol) -> tuple[np.ndarray, tuple[int, ...]]:
    """The system's staircase from the zero subspace."""
    Q, dims = _staircase(sys.A, sys.B, sys.C, sys.D, np.zeros((sys.n, 0)), sys.n + 1, tol,
                         sys._stair_scales)
    _read_only(Q)
    return Q, tuple(dims)


def chain_term(chain: list[Subspace], k: int) -> Subspace:
    """k-th term of a recursion chain, saturating at the stationary value."""
    if k < 0:
        raise ValidationError("chain index must be nonnegative")
    return chain[k] if k < len(chain) else chain[-1]


def is_output_nulling(sys: SystemQuad, V: Subspace, tol: Tol = DEFAULT_TOL) -> bool:
    """[A; C] V ⊆ (V ⊕ 0) + im [B; D].

    At p = 0 this is controlled invariance, A V ⊆ V + im B.  By duality it
    checks the other properties too: S is input containing iff S⊥ is output
    nulling for ``dual_of(sys)``, and S is conditioned invariant,
    A (S ∩ ker C) ⊆ S, iff S⊥ is output nulling for the pair (Aᵀ, Cᵀ).
    Raises :class:`ValidationError` if V does not lie in the state space."""
    _check_ambient(sys, V, "V")
    AC, BD = np.vstack([sys.A, sys.C]), np.vstack([sys.B, sys.D])
    lifted = np.vstack([V.basis, np.zeros((sys.p, V.dim))])
    target = image_basis(np.hstack([lifted, BD]), tol)
    return contains(target, image_basis(AC @ V.basis, tol, scale=sys._ac_scale), tol)


@dataclass(frozen=True, eq=False, init=False, slots=True)
class FeedbackResult:
    """A real feedback matrix with its assignment diagnostics.

    ``assigned`` lists the (eigenvalue, unit eigenvector) pairs the synthesis
    actually placed; ``residual_eig`` is the worst eigenpair residual,
    ``residual_out`` the output-nulling residual ``(C+DF)V`` (zero by
    convention when no outputs are in scope), ``residual_inv`` the invariance
    residual of the target subspace under A+BF, and ``cond_V`` the condition
    number of the eigenvectors' staircase coordinates X = Qᵀ V (realified,
    except for an explicit selection, where Q = I and X = V).
    """

    F: np.ndarray
    assigned: tuple
    residual_eig: float
    residual_out: float
    residual_inv: float
    cond_V: float

    def __init__(self, F: np.ndarray, assigned: tuple, residual_eig: float,
                 residual_out: float, residual_inv: float, cond_V: float):
        # each slot's own setter, not the frozen __init__'s object.__setattr__
        # per field: a warm friend of V* is little more than this
        _set_F(self, F)
        _set_assigned(self, assigned)
        _set_residual_eig(self, residual_eig)
        _set_residual_out(self, residual_out)
        _set_residual_inv(self, residual_inv)
        _set_cond_V(self, cond_V)


(_set_F, _set_assigned, _set_residual_eig, _set_residual_out, _set_residual_inv,
 _set_cond_V) = (getattr(FeedbackResult, f.name).__set__ for f in fields(FeedbackResult))


def friend_of(sys: SystemQuad, V: Subspace, spectrum=None, tol: Tol = DEFAULT_TOL) -> FeedbackResult:
    """Real feedback F with (A+BF) V ⊆ V and (C+DF) V = 0.

    Without a ``spectrum`` no eigenvalue is chosen: F is the least-squares
    friend of V (Basile & Marro, *Controlled and Conditioned Invariants in
    Linear System Theory*, 1992), built from one SVD of ``[P B; D]``, P the
    projector onto the orthogonal complement of V; its residuals certify
    that V is output nulling; on V = 0 it is F = 0, with zero residuals,
    and needs no SVD.  On V = 0 and on the V* kept on the system
    (:func:`vstar`) that answer is a read: a copy of the kept F with the
    residual norms kept with it, which the first call computes.  A
    ``spectrum``, when supplied, is validated
    by :func:`geokit.pencils.validate_spectrum` even on V = 0: finite,
    distinct and self-conjugate, but not checked against the fixed
    eigenvalues of V, so a value may repeat an invariant zero.  It is placed
    first on the reachability subspace of V, parametrically on the staircase
    of (A+BF, B Omega1), Omega1 spanning B⁻¹V ∩ ker D: h requested values
    take as many eigenvector columns as the h-th stair has directions, each
    a state part of the Rosenbrock kernel at its value.  F = F0 + Omega1 H
    X⁺ Qᵀ, F0 the least-squares friend, X the eigenvectors' staircase
    coordinates and H their inputs through Omega1, acts as F0 on the rest
    of V; since B Omega1 ⊆ V and D Omega1 = 0, its invariance and output
    residuals do not grow with the eigenvectors' condition number.

    Returns a :class:`FeedbackResult`, whose ``assigned`` lists the values
    placed.  Raises :class:`ValidationError` if V does not lie in the
    state space, :class:`NotInvariantError` if V is not output nulling and
    :class:`SynthesisError` if the eigenvector columns are numerically
    dependent or the residuals exceed tolerance.
    """
    _check_ambient(sys, V, "V")
    if spectrum is None:  # the reads come first
        if V.dim == 0:  # nothing to keep invariant: F = 0
            return FeedbackResult(np.zeros((sys.m, sys.n)), (), 0.0, 0.0, 0.0, 1.0)
        if _is_vstar(sys, V, tol):  # F is copied: the caller's F is its own
            F, res_out, res_inv = _friend_of_vstar_answer(sys, tol)
            return FeedbackResult(F.copy(), (), 0.0, res_out, res_inv, 1.0)
    # deferred: assignment imports this module
    from .assignment import _assemble_feedback, _parametric, validate_spectrum

    if np.iscomplexobj(V.basis):
        V = Subspace(require_real(V.basis, tol, "basis of V"))
    if spectrum is None:
        F, _, _, R = _friend(sys, V, tol)
        return FeedbackResult(F, (), 0.0, norm2(R[sys.n:]), norm2(R[:sys.n]), 1.0)
    values = validate_spectrum(spectrum, (), tol)
    if V.dim == 0:  # nothing to place on: F = 0
        return FeedbackResult(np.zeros((sys.m, sys.n)), (), 0.0, 0.0, 0.0, 1.0)
    F, Omega, m1, Q, dims = _rstar_stairs(sys, tol) if _is_vstar(sys, V, tol) else _reach_along(sys, V, tol)
    Omega1 = Omega[:, :m1]
    F0, X, H, assigned = _parametric(sys.A, sys.B, F, Omega1, Q, dims, values)
    return _assemble_feedback(sys, F0, Omega1, Q, X, H, assigned, V, tol)


def _friend(sys: SystemQuad, V: Subspace, tol: Tol):
    """``(F, Omega, m1, R)`` from one SVD of M = [P B; D], P the projector
    onto V⊥, and its rank r: Omega is orthogonal, its first ``m1 = m - r``
    columns span ker M = ker D ∩ B⁻¹V; F = W Vᵀ with W = -M⁺ [P A V; C V],
    M⁺ truncated at rank r, is the least-squares friend, and R = [P A V;
    C V] + M W = [P (A+BF) V; (C+DF) V] its residual.

    If the spectral norm of either block, ``res_inv = ‖R[:n]‖₂`` or
    ``res_out = ‖R[n:]‖₂``, exceeds ``tol.abs · max(1, ‖[A; C]‖₂)``,
    :class:`NotInvariantError` is raised: V is not output nulling.  Both
    are at most ‖R‖_F, so a Frobenius norm within half that bound settles
    the check without them; the half covers the roundoff of either norm
    (a relative n ε) many times over, so no decision differs from the
    spectral norms'.  They are computed only when the Frobenius norm
    cannot decide, and by :func:`friend_of`, which reports them.
    """
    P, vb = V.perp_projector(), V.basis
    M = np.vstack([P @ sys.B, sys.D])
    u, s, vh = svd(M)
    r = _svd_rank(s, M.shape, tol, scale=sys._bd_scale)
    rhs = np.vstack([P @ (sys.A @ vb), sys.C @ vb])
    W = -(vh[:r].conj().T / s[:r]) @ (u[:, :r].conj().T @ rhs)
    R = rhs + M @ W
    bound = tol.abs * max(1.0, sys._ac_scale)
    if not np.linalg.norm(R) <= 0.5 * bound:  # a NaN goes on to the spectral norms
        res_inv, res_out = norm2(R[:sys.n]), norm2(R[sys.n:])
        if max(res_inv, res_out) > bound:
            raise NotInvariantError(
                f"subspace is not output nulling: residuals {res_inv:.3e}/{res_out:.3e}")
    Omega = np.vstack([vh[r:], vh[:r]]).conj().T
    return W @ vb.conj().T, Omega, sys.m - r, R


@_memoized
def _friend_of_vstar(sys: SystemQuad, tol: Tol):
    """:func:`_friend` of V*, read-only: the friend and the Omega that the
    R* staircase, the Morse frame and :func:`friend_of` of V* share."""
    F, Omega, m1, R = _friend(sys, vstar(sys, None, tol), tol)
    _read_only(F, Omega, R)
    return F, Omega, m1, R


@_memoized
def _friend_of_vstar_answer(sys: SystemQuad, tol: Tol) -> tuple[np.ndarray, float, float]:
    """``(F, res_out, res_inv)``, what :func:`friend_of` reports on V*: the
    kept F and the spectral norms of its residual blocks, computed on the
    first :func:`friend_of` call, not with the friend, which most systems
    only build R* on."""
    F, _, _, R = _friend_of_vstar(sys, tol)
    return F, norm2(R[sys.n:]), norm2(R[:sys.n])


def reachability_on(sys: SystemQuad, V: Subspace, tol: Tol = DEFAULT_TOL) -> Subspace:
    """States reachable from the origin along V with identically zero output.

    One Krylov run of A+BF, F the least-squares friend of V, from
    V ∩ B ker D.  The result does not depend on the friend.  Raises
    :class:`NotInvariantError` if V is not output nulling and
    :class:`NumericalError` if the result leaves V by more than ``tol.abs``.
    On the V* kept on the system (:func:`vstar`) it is :func:`rstar`, and on
    any other V = 0 the zero subspace, with no friend built.  Raises
    :class:`ValidationError` if V does not lie in the state space.
    """
    _check_ambient(sys, V, "V")
    if _is_vstar(sys, V, tol):
        return rstar(sys, tol)
    if V.dim == 0:
        return Subspace.zero(sys.n)
    return _span(_reach_along(sys, V, tol)[3])


def _reach_along(sys: SystemQuad, V: Subspace, tol: Tol):
    """``(F, Omega, m1, Q, dims)``: the least-squares friend F and Omega of
    :func:`_friend`, and the staircase of (A+BF, B Omega1).  For V = V* it
    is Morse's R* recursion: Q[:, :dims[h]] spans V* ∩ S_h, and the V*
    kept on the system takes the friend kept with it
    (:func:`_friend_of_vstar`)."""
    F, Omega, m1, _ = _friend_of_vstar(sys, tol) if _is_vstar(sys, V, tol) else _friend(sys, V, tol)
    if m1 == 0:
        return F, Omega, m1, np.zeros((sys.n, 0)), [0, 0]
    Q, dims = _krylov(sys.A + sys.B @ F, sys.B @ Omega[:, :m1], sys.n + 1, tol)
    leak = containment_residual(V, Subspace(Q))
    if leak > tol.abs:
        raise NumericalError(f"reachability subspace leaves V by {leak:.3e}")
    return F, Omega, m1, Q, dims


@_memoized
def _rstar_stairs(sys: SystemQuad, tol: Tol):
    """Morse's R* recursion: :func:`_reach_along` on V*."""
    F, Omega, m1, Q, dims = _reach_along(sys, vstar(sys, None, tol), tol)
    _read_only(F, Omega, Q)
    return F, Omega, m1, Q, tuple(dims)


@_memoized
def rstar(sys: SystemQuad, tol: Tol = DEFAULT_TOL) -> Subspace:
    """The supremal output-nulling reachability subspace (reachability on
    the supremal output-nulling subspace), built once per system and
    tolerance."""
    return _span(_rstar_stairs(sys, tol)[3])


@dataclass(frozen=True, eq=False)
class MorseDecomposition:
    """Triangularizing state/input coordinate change adapted to the chain
    reachability-part ⊆ output-nulling-part ⊆ state space.

    ``T = [T1 T2 T3]`` is orthogonal with T1, the staircase of (A+BF,
    B Omega1), spanning the reachability part (its first ``stairs[h]``
    columns span V* ∩ S_h) and [T1 T2] the supremal output-nulling subspace;
    T3 is the dual staircase's basis of V*⊥, whose columns between the dual
    stairs k-1 and k span V_{k-1} ⊖ V_k, V_k the output-nulling chain;
    ``Omega = [Omega1 Omega2]`` is orthogonal with Omega1 spanning B^{-1}V ∩
    ker D; F is the least-squares friend of V*, from the same SVD as Omega.
    In these coordinates A+BF is block upper triangular, the first block
    column of T^{-1}B Omega is supported on the first block row, C+DF
    annihilates the first two blocks, and D Omega annihilates the first.
    The middle diagonal block carries the invariant-zero dynamics.  At p = 0
    it is Kalman's controllability form: F = 0, Omega = I, T1 the Krylov
    basis of (A, B), and the zeros are the uncontrollable eigenvalues.

    The arrays are read-only and ``stairs`` is a tuple: one frame serves
    every op on its system (:func:`morse_decomposition`).
    """

    T: np.ndarray
    Omega: np.ndarray
    F: np.ndarray
    Abar: np.ndarray
    Bbar: np.ndarray
    Cbar: np.ndarray
    Dbar: np.ndarray
    dim_rstar: int
    dim_vstar: int
    m1: int
    invariant_zeros: np.ndarray
    residual: float
    stairs: tuple

    def __post_init__(self):
        _read_only(self.T, self.Omega, self.F, self.Abar, self.Bbar, self.Cbar, self.Dbar,
                   self.invariant_zeros)
        object.__setattr__(self, "stairs", tuple(self.stairs))

    @functools.cached_property
    def _rstar_spectrum(self) -> np.ndarray:
        """Eigenvalues of the R* block ``Abar[:n1, :n1]``, computed on first
        use and kept: every Kh on this frame reads them."""
        n1 = self.dim_rstar
        return np.linalg.eigvals(self.Abar[:n1, :n1])

    @functools.cached_property
    def _zero_values(self) -> list[complex]:
        """``invariant_zeros`` as Python complex values, converted on first
        use and kept: :func:`geokit.pencils.invariant_zeros` hands out a new
        list of them."""
        return [complex(z) for z in self.invariant_zeros]

    @property
    def normal_rank(self) -> int:
        """Normal rank of the Rosenbrock matrix, n + m − m1: m1 = dim(B⁻¹V* ∩
        ker D) counts its right minimal indices (Morse, 1973)."""
        return self.T.shape[0] + self.Omega.shape[0] - self.m1


@_memoized
def morse_decomposition(sys: SystemQuad, tol: Tol = DEFAULT_TOL) -> MorseDecomposition:
    """Adapted-basis decomposition exposing the invariant-zero block, built
    once per system and tolerance.

    One staircase decides each block's width: the dual one gives V* and T3,
    its basis up to the last stair (between stairs k-1 and k, V_{k-1} ⊖ V_k);
    the R* one gives T1; T2 = V* N, N completing the QR of V*ᵀ T1.  So T is
    square, and orthogonal to within T1's distance from V*, at most ``tol.abs``.

    Raises :class:`DecompositionError` when the largest spectral norm of
    the blocks that must vanish, ``residual``, exceeds ``tol.abs · max(1,
    ‖A+BF‖₂, ‖C+DF‖₂)``, which indicates an upstream failure.  That scale is
    at least 1, so its two norms are computed only when ``residual`` exceeds
    ``tol.abs``; below it no scale could raise.  The leading pair is
    reachable by construction: T1 is its staircase.  At p = 0 the
    decomposition is Kalman's controllability form, and its zeros are the
    uncontrollable eigenvalues (the input-decoupling zeros).
    """
    Q, dims = _vstar_stairs(sys, tol)
    vst = vstar(sys, None, tol)
    F, Omega, m1, T1, stairs = _rstar_stairs(sys, tol)

    T2 = vst.basis @ _completion(vst.basis.T @ T1)
    T = np.hstack([T1, T2, Q[:, :dims[-1]]])

    Acl = sys.A + sys.B @ F
    Ccl = sys.C + sys.D @ F
    Abar = T.T @ Acl @ T
    Bbar = T.T @ sys.B @ Omega
    Cbar = Ccl @ T
    Dbar = sys.D @ Omega

    n1, n2 = T1.shape[1], vst.dim - T1.shape[1]
    must_vanish = [
        Abar[n1:, :n1],
        Abar[n1 + n2:, n1:n1 + n2],
        Bbar[n1:, :m1],
        Cbar[:, :n1 + n2],
        Dbar[:, :m1],
    ]
    residual = max((norm2(M) for M in must_vanish if M.size), default=0.0)
    # the scale is at least 1, so it is needed only above tol.abs
    if residual > tol.abs and residual > tol.abs * max(1.0, norm2(Acl), norm2(Ccl)):
        raise DecompositionError(
            f"off-pattern block norm {residual:.3e} exceeds tolerance"
        )

    zeros = np.linalg.eigvals(Abar[n1:n1 + n2, n1:n1 + n2])

    return MorseDecomposition(
        T=T, Omega=Omega, F=F,
        Abar=Abar, Bbar=Bbar, Cbar=Cbar, Dbar=Dbar,
        dim_rstar=n1, dim_vstar=vst.dim, m1=m1,
        invariant_zeros=zeros, residual=residual, stairs=stairs,
    )


def intersection_formula(sys: SystemQuad, i: int, j: int, tol: Tol = DEFAULT_TOL) -> Subspace:
    """Closed-form Markov-parameter formula for (i-th output-nulling term) ∩
    (j-th input-containing term): the one-pair case of
    :func:`intersection_formulas`.

    Serves as an independent oracle for ``subspace_intersect(V_i, S_j)``.
    """
    return intersection_formulas(sys, [(i, j)], tol)[0]


def intersection_formulas(sys: SystemQuad, pairs, tol: Tol = DEFAULT_TOL) -> list[Subspace]:
    """The Markov-parameter formula for ``V_i ∩ S_j`` at every ``(i, j)`` of
    the sequence ``pairs``, in order, from one kernel pass.

    The kernel of the (i+j)-block-row lower-triangular Toeplitz matrix of
    Markov parameters (D on the diagonal, C A^(k-1) B on the k-th
    subdiagonal) collects input sequences that reach a state in j steps and
    keep the output at zero for i+j steps; pushing it through the reversed
    Krylov row ``[A^(j-1)B, ..., AB, B, 0, ..., 0]`` produces the
    intersection.  The kernel of the T-block matrix is the T-th stage of one
    forward block substitution, so a single pass up to the largest i+j
    serves every pair; the row and its norm, which scales the rank
    decision, are built once per j, and each result equals a separate run
    for its pair bit for bit.  Requires i, j >= 1.  With no outputs (p = 0) the Markov
    blocks are empty, every input sequence is kept, and the formula returns
    S_j, the j-step reachable subspace.

    Scope: it stacks raw powers A^k B.  Against ``subspace_intersect`` of the
    chain terms at (n, j), j = 1..n, on ``GenSpec(n, m, p, seed=77n+s)``,
    s < 5, (m, p) in {(2, 1), (3, 2), (1, 1)}, the dimensions agree on all 120
    pairs at n = 8 but not on 19/180 at n = 12, 102/240 at n = 16 and 294/450
    at n = 30; which side is right is unverified.  It is an oracle for n <= 8.
    """
    if any(i < 1 or j < 1 for i, j in pairs):
        raise ValidationError("need i >= 1 and j >= 1")
    n, m = sys.n, sys.m
    nblk = max((i + j for i, j in pairs), default=0)
    powers = [sys.B]
    for _ in range(nblk - 2):
        powers.append(sys.A @ powers[-1])
    markov = [sys.D] + [sys.C @ powers[k] for k in range(nblk - 1)]

    # Kernel of the block lower-triangular Toeplitz Markov matrix
    #
    #     [ G0                ]        G0 = D
    #     [ G1  G0            ]        Gk = C A^(k-1) B
    #     [ ...     ...       ]
    #     [ G(T-1)  ...   G0  ],   T = i + j,
    #
    # computed by forward block substitution: enforce one block row at a time
    # on an orthonormally maintained partial kernel.  A single SVD of the
    # assembled matrix would have to separate true kernel directions from the
    # geometrically graded Markov blocks; row-by-row enforcement keeps every
    # rank decision at unit scale.  stages[t] is the partial kernel over
    # (u(0), ..., u(t)); the pass stops early once it is empty.
    stages = []
    basis = np.zeros((0, 0))
    for t in range(nblk):
        if t == 0:
            ext = np.eye(m)
        else:
            if basis.shape[1] == 0:
                break  # no zero-output inputs survive
            ext = np.block([
                [basis, np.zeros((t * m, m))],
                [np.zeros((m, basis.shape[1])), np.eye(m)],
            ])
        row = np.hstack([markov[t - c] for c in range(t + 1)])
        row_scale = max(norm2(row), 1.0)
        constrained = (row / row_scale) @ ext
        coeff = kernel_basis(constrained, tol, scale=1.0)
        basis = ext @ coeff.basis
        stages.append(basis)

    # the reversed Krylov row and its norm depend on j alone: one of each
    # per j, the row zero-padded to the longest stage; each pair reads its
    # first T blocks, so its product is the one a separate run forms
    rows, out = {}, []
    for i, j in pairs:
        T = i + j
        if T > len(stages) or stages[T - 1].shape[1] == 0:
            out.append(Subspace.zero(n))
            continue
        if j not in rows:
            L = np.zeros((n, nblk * m))
            L[:, :j * m] = np.hstack(powers[j - 1::-1])
            rows[j] = L, norm2(L[:, :j * m])
        L, scale = rows[j]
        out.append(image_basis(L[:, :T * m] @ stages[T - 1], tol, scale=scale))
    return out
