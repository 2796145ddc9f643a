"""Invariant-subspace algorithms for LTI quadruples.

This module computes the classical subspaces of geometric control: the
reachable subspace, the unobservable subspace, the supremal output-nulling
subspace (optionally constrained inside a subspace E) and its non-increasing
recursion, the infimal input-containing subspace and its non-decreasing
recursion, reachability subspaces on output-nulling subspaces, friends, a
triangularizing decomposition that isolates the invariant-zero dynamics, and
a closed-form Markov-parameter formula for the intersections of the two
recursions.

Conventions: a quadruple with ``p = 0`` (no outputs) degrades gracefully;
the output-nulling recursion becomes the largest-controlled-invariant
recursion and the input-containing terms become the step-wise reachable
subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, NotInvariantError, NumericalError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tol,
    as_matrix,
    containment_residual,
    contains,
    image_basis,
    kernel_basis,
    orthonormal_complement,
    preimage,
    realify_subspace,
    subspace_intersect,
    subspace_sum,
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
    "is_controlled_invariant",
    "is_output_nulling",
    "is_conditioned_invariant",
    "is_input_containing",
    "friend_of",
    "reachability_on",
    "rstar",
    "MorseDecomposition",
    "morse_decomposition",
    "intersection_formula",
]


def _krylov(A, M, steps: int, tol: Tol) -> tuple[Subspace, int]:
    """Image of ``[M, AM, ..., A^(steps-1) M]`` and the least ``h <= steps``
    at which ``im[M, ..., A^(h-1) M]`` stops growing (0 for a zero image).

    Grown one application of A at a time with re-orthonormalization, so the
    rank decisions never compare directions against geometrically exploding
    block norms.
    """
    A = as_matrix(A, "A")
    M = as_matrix(M, "M")
    if steps <= 0 or M.shape[1] == 0:
        return Subspace.zero(A.shape[0]), 0
    scale = max(1.0, float(np.linalg.norm(A, 2)))
    S = image_basis(M, tol, scale=float(np.linalg.norm(M, 2)) if M.size else 0.0)
    if S.dim == 0:
        return S, 0
    for ell in range(1, steps):
        grown = image_basis(np.hstack([S.basis, A @ S.basis]), tol, scale=scale)
        if grown.dim == S.dim:
            return S, ell
        S = grown
    return S, steps


def krylov_image(A, M, steps: int, tol: Tol = DEFAULT_TOL) -> Subspace:
    """Image of ``[M, AM, ..., A^(steps-1) M]`` (the zero subspace for steps=0)."""
    return _krylov(A, M, steps, tol)[0]


def reachable_subspace(A, B, tol: Tol = DEFAULT_TOL) -> tuple[Subspace, int]:
    """Smallest A-invariant subspace containing im B, with its saturation index.

    Returns
    -------
    R : Subspace
        Image of the n-block controllability matrix ``[B, AB, ..., A^(n-1)B]``.
    h_min : int
        Least ``h`` with ``im[B, ..., A^(h-1)B]`` already stationary; this is
        the number of Krylov steps needed to fill R (0 when B = 0).
    """
    return _krylov(A, B, as_matrix(A, "A").shape[0], tol)


def unobservable_subspace(C, A, tol: Tol = DEFAULT_TOL) -> Subspace:
    """Largest A-invariant subspace contained in ker C: the orthogonal
    complement of the reachable subspace of the dual pair (A*, C*)."""
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    if C.shape[0] == 0:
        raise ValidationError("unobservable_subspace requires p >= 1")
    return orthonormal_complement(krylov_image(A.conj().T, C.conj().T, A.shape[0], tol), tol)


def _stacked_maps(sys: SystemQuad):
    AC = np.vstack([sys.A, sys.C])
    BD = np.vstack([sys.B, sys.D])
    return AC, BD


def vstar_sequence(sys: SystemQuad, E: Subspace | None = None, tol: Tol = DEFAULT_TOL) -> list[Subspace]:
    """Non-increasing recursion converging to the supremal output-nulling
    subspace contained in E.

    Starting from the constraint subspace E (the whole state space when
    omitted), each step keeps the states that can take one more step while
    staying in E with zero output.  The returned chain includes the first
    repeated term, so its last element is the limit; stationarity is decided
    by dimension equality of consecutive terms.
    """
    n = sys.n
    if E is None:
        E = Subspace.full(n)
    if E.ambient_dim != n:
        raise ValidationError(f"E has ambient {E.ambient_dim}, expected {n}")
    AC, BD = _stacked_maps(sys)
    chain = [E]
    current = E
    for _ in range(n + 1):
        lifted = np.vstack([current.basis, np.zeros((sys.p, current.dim))])
        target = image_basis(np.hstack([lifted, BD]), tol)
        # Intersecting with the previous term (equivalent to intersecting
        # with E, since the chain is nested) enforces nestedness numerically,
        # which is what makes dimension-based stationarity detection sound.
        nxt = subspace_intersect(preimage(AC, target, tol), current, tol)
        chain.append(nxt)
        if nxt.dim == current.dim:
            return chain
        current = nxt
    raise NumericalError("output-nulling recursion failed to become stationary")


def vstar(sys: SystemQuad, E: Subspace | None = None, tol: Tol = DEFAULT_TOL) -> Subspace:
    """The supremal output-nulling subspace contained in E (default: whole space)."""
    return vstar_sequence(sys, E, tol)[-1]


def _input_lift(S: Subspace, m: int) -> Subspace:
    """S ⊕ U inside the stacked state-input space."""
    n, k = S.basis.shape
    top = np.hstack([S.basis, np.zeros((n, m))])
    bottom = np.hstack([np.zeros((m, k)), np.eye(m)])
    return Subspace(np.vstack([top, bottom]))


def sstar_sequence(sys: SystemQuad, tol: Tol = DEFAULT_TOL) -> list[Subspace]:
    """Non-decreasing recursion converging to the infimal input-containing
    subspace.

    The j-th term collects the states reachable from the origin in j steps
    while the output stays at zero.  The chain starts at the zero subspace
    and includes the first repeated term; index it with :func:`chain_term`
    to saturate past stationarity.  With p = 0 the terms reduce to the
    step-wise reachable subspaces ``im[B, ..., A^(j-1)B]``.
    """
    AB = np.hstack([sys.A, sys.B])
    ker_cd = kernel_basis(np.hstack([sys.C, sys.D]), tol)
    chain = [Subspace.zero(sys.n)]
    current = chain[0]
    ab_scale = float(np.linalg.norm(AB, 2))
    for _ in range(sys.n + 1):
        feasible = subspace_intersect(_input_lift(current, sys.m), ker_cd, tol)
        stepped = image_basis(AB @ feasible.basis, tol, scale=ab_scale)
        # The chain is nested; summing with the previous term enforces that
        # numerically so dimension-based stationarity detection is sound.
        nxt = subspace_sum(stepped, current, tol)
        chain.append(nxt)
        if nxt.dim == current.dim:
            return chain
        current = nxt
    raise NumericalError("input-containing recursion failed to become stationary")


def sstar(sys: SystemQuad, tol: Tol = DEFAULT_TOL) -> Subspace:
    """The infimal input-containing subspace."""
    return sstar_sequence(sys, tol)[-1]


def chain_term(chain: list[Subspace], k: int) -> Subspace:
    """k-th term of a recursion chain, saturating at the stationary value."""
    if k < 0:
        raise ValidationError("chain index must be nonnegative")
    return chain[k] if k < len(chain) else chain[-1]


def is_controlled_invariant(A, B, V: Subspace, tol: Tol = DEFAULT_TOL) -> bool:
    """A V ⊆ V + im B."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    target = subspace_sum(V, image_basis(B, tol), tol)
    scale = float(np.linalg.norm(A, 2))
    return contains(target, image_basis(A @ V.basis, tol, scale=scale), tol)


def is_output_nulling(sys: SystemQuad, V: Subspace, tol: Tol = DEFAULT_TOL) -> bool:
    """[A; C] V ⊆ (V ⊕ 0) + im [B; D]; for p = 0 this is controlled invariance."""
    AC, BD = _stacked_maps(sys)
    lifted = np.vstack([V.basis, np.zeros((sys.p, V.dim))])
    target = image_basis(np.hstack([lifted, BD]), tol)
    scale = float(np.linalg.norm(AC, 2))
    return contains(target, image_basis(AC @ V.basis, tol, scale=scale), tol)


def is_conditioned_invariant(C, A, S: Subspace, tol: Tol = DEFAULT_TOL) -> bool:
    """A (S ∩ ker C) ⊆ S."""
    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    core = subspace_intersect(S, kernel_basis(C, tol), tol)
    scale = float(np.linalg.norm(A, 2))
    return contains(S, image_basis(A @ core.basis, tol, scale=scale), tol)


def is_input_containing(sys: SystemQuad, S: Subspace, tol: Tol = DEFAULT_TOL) -> bool:
    """[A  B] ((S ⊕ U) ∩ ker [C  D]) ⊆ S."""
    AB = np.hstack([sys.A, sys.B])
    ker_cd = kernel_basis(np.hstack([sys.C, sys.D]), tol)
    feasible = subspace_intersect(_input_lift(S, sys.m), ker_cd, tol)
    scale = float(np.linalg.norm(AB, 2))
    return contains(S, image_basis(AB @ feasible.basis, tol, scale=scale), tol)


def friend_of(sys: SystemQuad, V: Subspace, spectrum=None, tol: Tol = DEFAULT_TOL):
    """Real feedback F with (A+BF) V ⊆ V and (C+DF) V = 0.

    Without a ``spectrum`` no eigenvalue is chosen: each direction e of an
    orthonormal basis of V is sent to the least-squares solution w of
    ``[P B; D] w = -[P A e; C e]``, P the projector onto the orthogonal
    complement of V; the system is consistent because V is output nulling
    (Basile & Marro, *Controlled and Conditioned Invariants in Linear System
    Theory*, 1992).  When a ``spectrum`` is supplied (distinct,
    self-conjugate, away from the fixed eigenvalues), eigenvector/input-
    direction pairs are first taken from pencil kernels restricted to V (the
    Rosenbrock matrix for p >= 1, the reachability pencil for p = 0), so the
    assignable part of the closed-loop restriction matches it, and the rest
    of V is closed the same least-squares way.

    Returns a :class:`geokit.assignment.FeedbackResult`.  Raises
    :class:`NotInvariantError` if V is not output nulling and
    :class:`SynthesisError` if residuals exceed tolerance.
    """
    from .assignment import _friend_engine  # deferred: assignment imports this module

    V = realify_subspace(V, tol)
    if not is_output_nulling(sys, V, tol):
        raise NotInvariantError("subspace is not output nulling (or controlled invariant for p=0)")
    return _friend_engine(sys, V, spectrum, tol)


def reachability_on(sys: SystemQuad, V: Subspace, tol: Tol = DEFAULT_TOL) -> Subspace:
    """States reachable from the origin along V with identically zero output.

    One Krylov run of A+BF, F the least-squares friend of V, from
    V ∩ B ker D.  The result does not depend on the friend.  Raises
    :class:`NumericalError` if it leaves V by more than ``tol.abs``.
    """
    b_scale = float(np.linalg.norm(sys.B, 2))
    seed = subspace_intersect(
        V, image_basis(sys.B @ kernel_basis(sys.D, tol).basis, tol, scale=b_scale), tol
    )
    if seed.dim == 0:
        return Subspace.zero(sys.n)
    F = friend_of(sys, V, None, tol).F
    R = krylov_image(sys.A + sys.B @ F, seed.basis, sys.n, tol)
    leak = containment_residual(V, R)
    if leak > tol.abs:
        raise NumericalError(f"reachability subspace leaves V by {leak:.3e}")
    return R


def rstar(sys: SystemQuad, tol: Tol = DEFAULT_TOL) -> Subspace:
    """The supremal output-nulling reachability subspace (reachability on
    the supremal output-nulling subspace)."""
    return reachability_on(sys, vstar(sys, None, tol), tol)


@dataclass(frozen=True, eq=False)
class MorseDecomposition:
    """Triangularizing state/input coordinate change adapted to the chain
    reachability-part ⊆ output-nulling-part ⊆ state space.

    ``T = [T1 T2 T3]`` is orthogonal with T1 spanning the reachability part
    and [T1 T2] spanning the supremal output-nulling subspace; ``Omega =
    [Omega1 Omega2]`` is orthogonal with Omega1 spanning B^{-1}V ∩ ker D.
    In these coordinates A+BF is block upper triangular, the first block
    column of T^{-1}B Omega is supported on the first block row, C+DF
    annihilates the first two blocks, and D Omega annihilates the first.
    The middle diagonal block carries the invariant-zero dynamics.
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


def morse_decomposition(sys: SystemQuad, tol: Tol = DEFAULT_TOL) -> MorseDecomposition:
    """Adapted-basis decomposition exposing the invariant-zero block.

    Raises :class:`DecompositionError` when a block that must vanish exceeds
    tolerance or when the leading pair fails its reachability check, either
    of which indicates an upstream failure.
    """
    if sys.p == 0:
        raise ValidationError("morse_decomposition requires p >= 1")
    n = sys.n
    vst = vstar(sys, None, tol)
    rst = reachability_on(sys, vst, tol)
    fb = friend_of(sys, vst, None, tol)
    F = fb.F

    T2 = image_basis(rst.perp_projector() @ vst.basis, tol, scale=1.0).basis
    T = np.hstack([rst.basis, T2, orthonormal_complement(vst, tol).basis])

    om1 = subspace_intersect(preimage(sys.B, vst, tol), kernel_basis(sys.D, tol), tol)
    Omega = np.hstack([om1.basis, orthonormal_complement(om1, tol).basis])

    Acl = sys.A + sys.B @ F
    Ccl = sys.C + sys.D @ F
    Abar = T.T @ Acl @ T
    Bbar = T.T @ sys.B @ Omega
    Cbar = Ccl @ T
    Dbar = sys.D @ Omega

    n1, n2 = rst.dim, vst.dim - rst.dim
    m1 = om1.dim
    must_vanish = [
        Abar[n1:, :n1],
        Abar[n1 + n2:, n1:n1 + n2],
        Bbar[n1:, :m1],
        Cbar[:, :n1 + n2],
        Dbar[:, :m1],
    ]
    residual = max((float(np.linalg.norm(M, 2)) for M in must_vanish if M.size), default=0.0)
    scale = max(1.0, np.linalg.norm(Acl, 2), np.linalg.norm(Ccl, 2) if Ccl.size else 0.0)
    if residual > tol.abs * scale:
        raise DecompositionError(
            f"off-pattern block norm {residual:.3e} exceeds tolerance"
        )

    zeros = np.linalg.eigvals(Abar[n1:n1 + n2, n1:n1 + n2])
    if n1 and reachable_subspace(Abar[:n1, :n1], Bbar[:n1, :m1], tol)[0].dim != n1:
        raise DecompositionError("leading block pair is not completely reachable")

    return MorseDecomposition(
        T=T, Omega=Omega, F=F,
        Abar=Abar, Bbar=Bbar, Cbar=Cbar, Dbar=Dbar,
        dim_rstar=n1, dim_vstar=vst.dim, m1=m1,
        invariant_zeros=zeros, residual=residual,
    )


def intersection_formula(sys: SystemQuad, i: int, j: int, tol: Tol = DEFAULT_TOL) -> Subspace:
    """Closed-form Markov-parameter formula for (i-th output-nulling term) ∩
    (j-th input-containing term).

    The kernel of the (i+j)-block-row lower-triangular Toeplitz matrix of
    Markov parameters (D on the diagonal, C A^(k-1) B on the k-th
    subdiagonal) collects input sequences that reach a state in j steps and
    keep the output at zero for i+j steps; pushing it through the reversed
    Krylov row ``[A^(j-1)B, ..., AB, B, 0, ..., 0]`` produces the
    intersection.  Serves as an independent oracle for
    ``subspace_intersect(V_i, S_j)``.
    """
    if sys.p == 0:
        raise ValidationError("intersection_formula requires p >= 1")
    if i < 1 or j < 1:
        raise ValidationError("need i >= 1 and j >= 1")
    n, m, p = sys.n, sys.m, sys.p
    nblk = i + j
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
    # rank decision at unit scale.
    basis = np.zeros((0, 0))  # partial kernel over (u(0), ..., u(t-1))
    for t in range(nblk):
        if t == 0:
            ext = np.eye(m)
        else:
            if basis.shape[1] == 0:
                return Subspace.zero(n)  # no zero-output inputs survive
            ext = np.block([
                [basis, np.zeros((t * m, m))],
                [np.zeros((m, basis.shape[1])), np.eye(m)],
            ])
        row = np.hstack([markov[t - c] for c in range(t + 1)])
        row_scale = max(float(np.linalg.norm(row, 2)), 1.0)
        constrained = (row / row_scale) @ ext
        coeff = kernel_basis(constrained, tol, scale=1.0)
        basis = ext @ coeff.basis
    if basis.shape[1] == 0:
        return Subspace.zero(n)
    L = np.zeros((n, nblk * m))
    for c in range(j):
        L[:, c * m:(c + 1) * m] = powers[j - 1 - c]
    return image_basis(L @ basis, tol, scale=float(np.linalg.norm(L, 2)))
