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

Conventions: every function here accepts a quadruple with ``p = 0`` (no
outputs).  The output-nulling recursion then becomes the largest-controlled-
invariant recursion, the input-containing terms the step-wise reachable
subspaces, the unobservable subspace the whole state space, and the Morse
decomposition Kalman's controllability form, whose zeros are the
input-decoupling zeros, i.e. the uncontrollable eigenvalues (Rosenbrock,
*State-Space and Multivariable Theory*, 1970).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .errors import DecompositionError, NotInvariantError, NumericalError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tol,
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
    "friend_of",
    "reachability_on",
    "rstar",
    "MorseDecomposition",
    "morse_decomposition",
    "intersection_formula",
    "intersection_formulas",
]


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
    # QR through LAPACK: numpy's wrapper costs more than a small factorization
    geqrf, orgqr = get_lapack_funcs(("geqrf", ("orgqr", "ungqr")[dtype.kind == "c"]), dtype=dtype)
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
            W[m + d - new:, infeasible.shape[1]:] = np.eye(new)
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
        X = u[:, :new]
        X = orgqr(*geqrf(X - Q @ (Q.conj().T @ X))[:2])[0]
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
    the whole state space when C has no rows (p = 0)."""
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    return orthonormal_complement(krylov_image(A.conj().T, C.conj().T, A.shape[0], tol), tol)


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
    columns past the k-th stair.
    """
    Q, dims = _dual_stairs(sys, E, tol)
    return [Subspace.full(sys.n) if E is None else E] + [_span(Q[:, d:]) for d in dims[1:]]


def vstar(sys: SystemQuad, E: Subspace | None = None, tol: Tol = DEFAULT_TOL) -> Subspace:
    """The supremal output-nulling subspace contained in E (default: whole space):
    the last term of :func:`vstar_sequence`, built alone."""
    Q, dims = _dual_stairs(sys, E, tol)
    return _span(Q[:, dims[-1]:])


def _dual_stairs(sys: SystemQuad, E: Subspace | None, tol: Tol) -> tuple[np.ndarray, list[int]]:
    """The dual system's staircase from E⊥, its basis completed to an
    orthonormal basis of the state space."""
    n = sys.n
    if E is not None and E.ambient_dim != n:
        raise ValidationError(f"E has ambient {E.ambient_dim}, expected {n}")
    start = np.zeros((n, 0)) if E is None else orthonormal_complement(E, tol).basis
    Q, dims = _staircase(sys.A.T, sys.C.T, sys.B.T, sys.D.T, start, n + 1, tol,
                         (sys._ac_scale, sys._bd_scale))
    return np.hstack([Q, np.linalg.qr(Q, mode="complete")[0][:, Q.shape[1]:]]), dims


def sstar_sequence(sys: SystemQuad, tol: Tol = DEFAULT_TOL) -> list[Subspace]:
    """Non-decreasing recursion converging to the infimal input-containing
    subspace.

    The j-th term collects the states reachable from the origin in j steps
    while the output stays at zero.  The chain starts at the zero subspace
    and includes the first repeated term; index it with :func:`chain_term`
    to saturate past stationarity.  With p = 0 the terms reduce to the
    step-wise reachable subspaces ``im[B, ..., A^(j-1)B]``.

    The terms are the stairs of one staircase run: the j-th is spanned by
    the first ``dim S_j`` columns of its orthonormal basis.
    """
    Q, dims = _stairs(sys, tol)
    return [_span(Q[:, :d]) for d in dims]


def sstar(sys: SystemQuad, tol: Tol = DEFAULT_TOL) -> Subspace:
    """The infimal input-containing subspace: the last term of
    :func:`sstar_sequence`, built alone."""
    return _span(_stairs(sys, tol)[0])


def _stairs(sys: SystemQuad, tol: Tol) -> tuple[np.ndarray, list[int]]:
    """The system's staircase from the zero subspace."""
    return _staircase(sys.A, sys.B, sys.C, sys.D, np.zeros((sys.n, 0)), sys.n + 1, tol,
                      sys._stair_scales)


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
    A (S ∩ ker C) ⊆ S, iff S⊥ is output nulling for the pair (Aᵀ, Cᵀ)."""
    AC, BD = np.vstack([sys.A, sys.C]), np.vstack([sys.B, sys.D])
    lifted = np.vstack([V.basis, np.zeros((sys.p, V.dim))])
    target = image_basis(np.hstack([lifted, BD]), tol)
    return contains(target, image_basis(AC @ V.basis, tol, scale=sys._ac_scale), tol)


def friend_of(sys: SystemQuad, V: Subspace, spectrum=None, tol: Tol = DEFAULT_TOL):
    """Real feedback F with (A+BF) V ⊆ V and (C+DF) V = 0.

    Without a ``spectrum`` no eigenvalue is chosen: F is the least-squares
    friend of V (Basile & Marro, *Controlled and Conditioned Invariants in
    Linear System Theory*, 1992), built from one SVD of ``[P B; D]``, P the
    projector onto the orthogonal complement of V; its residuals certify
    that V is output nulling.  When a ``spectrum`` is supplied (finite,
    distinct and self-conjugate; it is not checked against the fixed
    eigenvalues of V, so a value may repeat an invariant zero), it is placed
    first on the reachability subspace of V, parametrically on the staircase
    of (A+BF, B Omega1), Omega1 spanning B⁻¹V ∩ ker D: h requested values
    take as many eigenvector columns as the h-th stair has directions, each
    a state part of the Rosenbrock kernel at its value.  F = F0 + Omega1 H
    X⁺ Qᵀ, F0 the least-squares friend, X the eigenvectors' staircase
    coordinates and H their inputs through Omega1, acts as F0 on the rest
    of V; since B Omega1 ⊆ V and D Omega1 = 0, its invariance and output
    residuals do not grow with the eigenvectors' condition number.

    Returns a :class:`geokit.assignment.FeedbackResult`, whose ``assigned``
    lists the values placed.  Raises :class:`NotInvariantError` if V is not
    output nulling and :class:`SynthesisError` if the eigenvector columns
    are numerically dependent or the residuals exceed tolerance.
    """
    # deferred: assignment imports this module
    from .assignment import FeedbackResult, _assemble_feedback, _parametric, validate_spectrum

    if np.iscomplexobj(V.basis):
        V = Subspace(require_real(V.basis, tol, "basis of V"))
    if spectrum is not None and V.dim:
        F, Omega, m1, Q, dims = _reach_along(sys, V, tol)
        checked, Omega1 = validate_spectrum(spectrum, (), tol), Omega[:, :m1]
        F0, X, H, assigned = _parametric(sys.A, sys.B, F, Omega1, Q, dims, checked)
        return _assemble_feedback(sys, F0, Omega1, Q, X, H, assigned, V, tol)
    F, _, _, res_inv, res_out = _friend(sys, V, tol)
    return FeedbackResult(F, (), 0.0, res_out, res_inv, 1.0)


def _friend(sys: SystemQuad, V: Subspace, tol: Tol):
    """``(F, Omega, m1, res_inv, res_out)`` from one SVD of M = [P B; D], P
    the projector onto V⊥, and its rank r: Omega is orthogonal, its first
    ``m1 = m - r`` columns span ker M = ker D ∩ B⁻¹V; F = W Vᵀ with W =
    -M⁺ [P A V; C V], M⁺ truncated at rank r, is the least-squares friend.
    The residual [P A V; C V] + M W = [P (A+BF) V; (C+DF) V] has block norms
    ``res_inv`` and ``res_out``; either above ``tol.abs · max(1, ‖[A; C]‖₂)``
    raises :class:`NotInvariantError`: V is not output nulling.
    """
    P, vb = V.perp_projector(), V.basis
    M = np.vstack([P @ sys.B, sys.D])
    u, s, vh = svd(M)
    r = _svd_rank(s, M.shape, tol, scale=sys._bd_scale)
    rhs = np.vstack([P @ (sys.A @ vb), sys.C @ vb])
    W = -(vh[:r].conj().T / s[:r]) @ (u[:, :r].conj().T @ rhs)
    R = rhs + M @ W
    res_inv, res_out = norm2(R[:sys.n]), norm2(R[sys.n:])
    if max(res_inv, res_out) > tol.abs * max(1.0, sys._ac_scale):
        raise NotInvariantError(f"subspace is not output nulling: residuals {res_inv:.3e}/{res_out:.3e}")
    Omega = np.vstack([vh[r:], vh[:r]]).conj().T
    return W @ vb.conj().T, Omega, sys.m - r, res_inv, res_out


def reachability_on(sys: SystemQuad, V: Subspace, tol: Tol = DEFAULT_TOL) -> Subspace:
    """States reachable from the origin along V with identically zero output.

    One Krylov run of A+BF, F the least-squares friend of V, from
    V ∩ B ker D.  The result does not depend on the friend.  Raises
    :class:`NotInvariantError` if V is not output nulling and
    :class:`NumericalError` if the result leaves V by more than ``tol.abs``.
    """
    return _span(_reach_along(sys, V, tol)[3])


def _reach_along(sys: SystemQuad, V: Subspace, tol: Tol):
    """``(F, Omega, m1, Q, dims)``: the least-squares friend F and Omega of
    :func:`_friend`, and the staircase of (A+BF, B Omega1).  For V = V* it
    is Morse's R* recursion: Q[:, :dims[h]] spans V* ∩ S_h."""
    F, Omega, m1, _, _ = _friend(sys, V, tol)
    if m1 == 0:
        return F, Omega, m1, np.zeros((sys.n, 0)), [0, 0]
    Q, dims = _krylov(sys.A + sys.B @ F, sys.B @ Omega[:, :m1], sys.n + 1, tol)
    leak = containment_residual(V, Subspace(Q))
    if leak > tol.abs:
        raise NumericalError(f"reachability subspace leaves V by {leak:.3e}")
    return F, Omega, m1, Q, dims


def rstar(sys: SystemQuad, tol: Tol = DEFAULT_TOL) -> Subspace:
    """The supremal output-nulling reachability subspace (reachability on
    the supremal output-nulling subspace)."""
    return reachability_on(sys, vstar(sys, None, tol), tol)


@dataclass(frozen=True, eq=False)
class MorseDecomposition:
    """Triangularizing state/input coordinate change adapted to the chain
    reachability-part ⊆ output-nulling-part ⊆ state space.

    ``T = [T1 T2 T3]`` is orthogonal with T1, the staircase of (A+BF,
    B Omega1), spanning the reachability part (its first ``stairs[h]``
    columns span V* ∩ S_h) and [T1 T2] the supremal output-nulling subspace;
    ``Omega = [Omega1 Omega2]`` is orthogonal with Omega1 spanning B^{-1}V ∩
    ker D; F is the least-squares friend of V*, from the same SVD as Omega.
    In these coordinates A+BF is block upper triangular, the first block
    column of T^{-1}B Omega is supported on the first block row, C+DF
    annihilates the first two blocks, and D Omega annihilates the first.
    The middle diagonal block carries the invariant-zero dynamics.  At p = 0
    it is Kalman's controllability form: F = 0, Omega = I, T1 the Krylov
    basis of (A, B), and the zeros are the uncontrollable eigenvalues.
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
    stairs: list


def morse_decomposition(sys: SystemQuad, tol: Tol = DEFAULT_TOL) -> MorseDecomposition:
    """Adapted-basis decomposition exposing the invariant-zero block.

    Raises :class:`DecompositionError` when a block that must vanish exceeds
    tolerance, which indicates an upstream failure.  The leading pair is
    reachable by construction: T1 is its staircase.  At p = 0 the
    decomposition is Kalman's controllability form, and its zeros are the
    uncontrollable eigenvalues (the input-decoupling zeros).
    """
    vst = vstar(sys, None, tol)
    F, Omega, m1, T1, stairs = _reach_along(sys, vst, tol)

    T2 = image_basis(vst.basis - T1 @ (T1.T @ vst.basis), tol, scale=1.0).basis
    T = np.hstack([T1, T2, orthonormal_complement(vst, tol).basis])

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
    scale = max(1.0, norm2(Acl), norm2(Ccl))
    if residual > tol.abs * scale:
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
    serves every pair, and each result equals a separate run for its pair
    bit for bit.  Requires i, j >= 1.  With no outputs (p = 0) the Markov
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

    out = []
    for i, j in pairs:
        T = i + j
        if T > len(stages) or stages[T - 1].shape[1] == 0:
            out.append(Subspace.zero(n))
            continue
        L = np.zeros((n, T * m))
        for c in range(j):
            L[:, c * m:(c + 1) * m] = powers[j - 1 - c]
        out.append(image_basis(L @ stages[T - 1], tol, scale=norm2(L)))
    return out
