"""Tolerance-aware dense linear algebra and subspace arithmetic.

Matrices are plain numpy arrays in row-major (C) order.  The dtype follows the
data: real input is computed in float64 and complex input in complex128, so
complex arithmetic appears only where a complex eigenvalue or complex input
enters; :func:`require_real` certifies and extracts real results.  A
:class:`Subspace` is an orthonormal basis matrix together with its ambient
dimension; the zero subspace (a basis with zero columns) is a first-class
value, not an error.

All rank decisions go through a single singular-value threshold,
``sigma > rel * sigma_max * max(rows, cols)``, so that dimension bookkeeping
such as ``dim(U + V) + dim(U ∩ V) = dim U + dim V`` holds with exact integer
equality across operations.

Every SVD in geokit goes through :func:`svd`, and every spectral norm through
:func:`norm2`: LAPACK ``gesdd`` called directly, with the results of
``numpy.linalg.svd`` and ``numpy.linalg.norm(M, 2)`` bit for bit but without
numpy's per-call overhead, which dominates at the sizes of the sweeps.  Every
LAPACK routine geokit calls is bound in one table, ``_LAPACK``, and called
from this module only: ``geqrf`` and ``orgqr``/``ungqr`` complete a basis as
``numpy.linalg.qr(M, mode="complete")`` does (:func:`_completion`) and
orthonormalise columns whose count a staircase or a kernel has decided, so
that no second threshold decides it again (:func:`_orthonormalize`, after
``geqp3`` in :func:`_pivoted_leading`).  One proof reads a full rank
without an SVD, for a pencil M₀ − λJ such as a system matrix: one BLAS
``syrk`` forms the coefficients of its Gram matrix, a quadratic in λ, once
(:func:`_pencil_gram`), and at each λ one Cholesky (``potrf``) of that
Gram matrix, updated and less a shift, proves a well-conditioned M(λ) of
full rank, accepting only what the singular-value threshold would
(:func:`_pencil_proof`); the SVD decides the rest.  :func:`rank_of` reads
every other rank off the singular values alone.  A spectral norm that is
only compared with a bound is not computed where the Frobenius norm, which
bounds it, already decides.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import get_blas_funcs
from scipy.linalg.lapack import get_lapack_funcs

from .errors import NumericalError, ValidationError

__all__ = [
    "Tol",
    "DEFAULT_TOL",
    "Subspace",
    "as_matrix",
    "rank_of",
    "kernel_basis",
    "image_basis",
    "pinv",
    "subspace_sum",
    "subspace_intersect",
    "preimage",
    "contains",
    "equals",
    "containment_residual",
    "orthonormal_complement",
    "max_imag",
    "require_real",
]


@dataclass(frozen=True)
class Tol:
    """Numerical tolerances.

    ``rel`` scales the singular-value cutoff used for every rank decision;
    ``abs`` bounds residuals in containment tests and synthesis checks.
    ``rel`` lies in (0, 1), where a cutoff reads some rank above 0, and
    ``abs`` is finite, where a residual check can fail.  Equal tolerances
    hash alike; the hash is taken once, since every structure kept on a
    system is looked up under its tolerance.
    """

    rel: float = 1e-11
    abs: float = 1e-8

    def __post_init__(self):
        if not (self.rel > 0.0):
            raise ValidationError("Tol.rel must be positive")
        if not (self.rel < 1.0):
            raise ValidationError("Tol.rel must be below 1")
        if not (self.abs >= 0.0):
            raise ValidationError("Tol.abs must be nonnegative")
        if not (self.abs < float("inf")):
            raise ValidationError("Tol.abs must be finite")
        object.__setattr__(self, "_hash", hash((self.rel, self.abs)))

    # kept for ops-large's latency_p50_ms and latency_tail_ms: every warm read hashes its Tol
    def __hash__(self) -> int:
        return self._hash


DEFAULT_TOL = Tol()


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as a finite 2-D array (validated): float64 for real input,
    complex128 for complex input."""
    M = np.asarray(a)
    M = np.asarray(M, dtype=np.complex128 if np.iscomplexobj(M) else np.float64)
    if M.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={M.ndim}")
    if M.size and not np.isfinite(M).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return M


# Every LAPACK (and BLAS) routine geokit calls, by dtype kind: "orgqr" is
# ungqr in complex.  The Gram product and the pivoted QR have real callers
# only, so a complex argument finds no routine instead of a real one
_LAPACK = {kind: dict(zip(
    ("gesdd", "gesdd_lwork", "geqrf", "orgqr", "potrf"),
    get_lapack_funcs(("gesdd", "gesdd_lwork", "geqrf", ("orgqr", "ungqr")[kind == "c"],
                      "potrf"), dtype=dtype)))
    for kind, dtype in (("f", np.float64), ("c", np.complex128))}
_LAPACK["f"]["geqp3"], = get_lapack_funcs(("geqp3",), dtype=np.float64)
_LAPACK["f"]["syrk"], = get_blas_funcs(("syrk",), dtype=np.float64)


@functools.lru_cache(maxsize=1024)
def _gesdd_lwork(kind: str, m: int, n: int, compute_uv: bool, full_matrices: bool) -> int:
    # numpy passes LAPACK's optimal workspace; the complex routine's path,
    # and so its bits, depend on it
    query = _LAPACK[kind]["gesdd_lwork"]
    work, _ = query(m, n, compute_uv=compute_uv, full_matrices=full_matrices)
    return int(np.real(work))


def svd(M, full_matrices: bool = True, compute_uv: bool = True):
    """``numpy.linalg.svd`` of a 2-D array, bit for bit, from LAPACK ``gesdd``.

    Returns ``s`` without ``compute_uv``, else ``(u, s, vh)``.  An empty
    matrix never reaches LAPACK (which rejects it); it gets numpy's empty
    factors.  Raises ``numpy.linalg.LinAlgError`` when ``gesdd`` fails (a NaN
    entry, no convergence).  With several BLAS threads the bits of large
    complex factors (about 80 rows and up) vary with the thread count, in
    numpy's SVD as well as here.
    """
    M = np.asarray(M)
    m, n = M.shape
    kind = "c" if M.dtype.kind == "c" else "f"
    if M.size == 0:
        s = np.zeros(0)
        if not compute_uv:
            return s
        dtype = np.complex128 if kind == "c" else np.float64
        if full_matrices:
            return np.eye(m, dtype=dtype), s, np.eye(n, dtype=dtype)
        return np.zeros((m, 0), dtype), s, np.zeros((0, n), dtype)
    gesdd = _LAPACK[kind]["gesdd"]
    u, s, vh, info = gesdd(M, compute_uv=compute_uv, full_matrices=full_matrices,
                           lwork=_gesdd_lwork(kind, m, n, compute_uv, full_matrices))
    if info:
        raise np.linalg.LinAlgError("SVD did not converge")
    if not compute_uv:
        return s
    # numpy's factors are C-ordered; matmul rounds differently on other layouts
    return np.ascontiguousarray(u), s, np.ascontiguousarray(vh)


@functools.lru_cache(maxsize=1024)
def _qr_lwork(kind: str, m: int, n: int) -> tuple[int, int]:
    """LAPACK's optimal workspaces, as numpy queries them, for ``geqrf`` of an
    m × n matrix and for ``orgqr``/``ungqr`` forming its complete m × m Q: the
    blocked QR's path, and so its bits, depend on them."""
    geqrf, orgqr = _LAPACK[kind]["geqrf"], _LAPACK[kind]["orgqr"]
    dtype = np.complex128 if kind == "c" else np.float64
    work_qr = geqrf(np.zeros((m, n), dtype, order="F"), lwork=-1)[2]
    work_q = orgqr(np.zeros((m, m), dtype, order="F"), np.zeros(min(m, n), dtype), lwork=-1)[1]
    return int(np.real(work_qr[0])), int(np.real(work_q[0]))


def _completion(M: np.ndarray) -> np.ndarray:
    """The columns that complete the Householder QR of the m × k ``M``,
    k ≤ m, to an orthonormal basis of the whole space:
    ``numpy.linalg.qr(M, mode="complete")[0][:, k:]`` bit for bit, strides
    included, from LAPACK ``geqrf`` and ``orgqr``/``ungqr``.  An empty ``M``
    gets the identity and a square one the empty (m, 0) basis, without a
    factorization.  ``M`` itself is left as it is.  As with :func:`svd`, the
    bits of large complex factors (about 200 rows and up) vary with the
    number of BLAS threads."""
    M = np.asarray(M)
    m, k = M.shape
    kind = "c" if M.dtype.kind == "c" else "f"
    dtype = np.complex128 if kind == "c" else np.float64
    if k == 0:
        return np.eye(m, dtype=dtype)
    if k == m:
        return np.zeros((m, 0), dtype)
    geqrf, orgqr = _LAPACK[kind]["geqrf"], _LAPACK[kind]["orgqr"]
    lwork_qr, lwork_q = _qr_lwork(kind, m, k)
    qr, tau, _, info = geqrf(M, lwork=lwork_qr)  # into a copy
    if info:
        raise np.linalg.LinAlgError("QR factorization failed")
    Q = np.zeros((m, m), dtype, order="F")
    Q[:, :k] = qr
    Q, _, info = orgqr(Q, tau, lwork=lwork_q, overwrite_a=True)
    if info:
        raise np.linalg.LinAlgError("QR factorization failed")
    # numpy's Q is C-ordered; matmul rounds differently on other layouts
    return np.ascontiguousarray(Q)[:, k:]


def _orthonormalize(X: np.ndarray) -> np.ndarray:
    """The Q of the thin QR of the tall float64 or complex128 ``X``, without
    numpy's wrapper, which costs more than a small factorization.  Raises
    ``numpy.linalg.LinAlgError`` where LAPACK refuses, as for a wide X."""
    lapack = _LAPACK[X.dtype.kind]
    qr, tau, _, info = lapack["geqrf"](X)
    if info:
        raise np.linalg.LinAlgError("QR factorization failed")
    Q, _, info = lapack["orgqr"](qr, tau)
    if info:
        raise np.linalg.LinAlgError(f"no thin Q for a {X.shape[0]} x {X.shape[1]} matrix")
    return Q


def _pivoted_leading(Y: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal columns along the ``k`` leading directions of the float64
    ``Y``: the first k columns of the Q of its column-pivoted QR.  Raises
    ``numpy.linalg.LinAlgError`` where LAPACK refuses, as for k > rows, and
    ``KeyError`` for a complex Y, which has no pivoted QR bound."""
    lapack = _LAPACK[Y.dtype.kind]
    qr, _, tau, _, info = lapack["geqp3"](Y)
    if info:
        raise np.linalg.LinAlgError("pivoted QR factorization failed")
    Q, _, info = lapack["orgqr"](qr[:, :k], tau[:k])
    if info:
        raise np.linalg.LinAlgError(f"no {k} leading columns for a {Y.shape[0]} x {Y.shape[1]} matrix")
    return Q


def _frozen(M: np.ndarray) -> np.ndarray:
    """M read-only and owning its storage.  A writable array is copied, so
    the caller's stays writable; so is a view, so that a slice of a large
    factor does not keep the whole factor alive.  A read-only array that
    owns its data is shared."""
    if M.flags.writeable or not M.flags.owndata:
        M = M.copy()
    M.setflags(write=False)
    return M


def norm2(M) -> float:
    """Spectral norm, ``numpy.linalg.norm(M, 2)`` bit for bit; 0.0 when empty."""
    M = np.asarray(M)
    return float(svd(M, compute_uv=False)[0]) if M.size else 0.0


def _svd_rank(s: np.ndarray, shape, tol: Tol, scale: float | None = None) -> int:
    if s.size == 0:
        return 0
    # ``scale`` guards products that are mathematically zero: their largest
    # singular value is roundoff, and a purely relative cutoff would promote
    # the noise to full rank.
    thresh = tol.rel * max(float(s[0]), scale or 0.0) * max(shape)
    return int(np.count_nonzero(s > thresh))


_EPS = float(np.finfo(np.float64).eps)
# the least Gram trace the Cholesky proof reads: above it, the products that
# underflow are lost in the proof's slack
_GRAM_TINY = float(np.finfo(np.float64).tiny) / _EPS


def _diagonal(H: np.ndarray) -> np.ndarray:
    """A writable view of the diagonal of the square, contiguous ``H``."""
    return H.ravel(order="K")[::H.shape[0] + 1]


class _PencilGram(NamedTuple):
    """The Gram matrix of the pencil M(λ) = M₀ − λJ, J = [[Iₙ, 0], [0, 0]],
    as a quadratic in λ (:func:`_pencil_gram`).

    T₀ is M₀ when M₀ is square or tall and M₀ᵀ when it is wide, k × c with
    k ≥ c; T(λ) = T₀ − λJ, J of T₀'s shape, is M(λ) or M(λ)ᵀ.  With
    P = T₀ᵀJ, whose first n columns are the first n rows of T₀ transposed
    and the rest zero,

        T(λ)ᴴT(λ) = G₀ − λP − λ̄Pᵀ + |λ|²E = G₀ − Re λ · S − i Im λ · K + |λ|²E,

    G₀ = T₀ᵀT₀, S = P + Pᵀ, K = P − Pᵀ and E = diag(Iₙ, 0).  ``shape`` is
    M₀'s; ``G0`` holds fl(G₀) in its lower triangle and ``t0`` is its
    computed trace.  The arrays are F-ordered and read-only.
    """

    shape: tuple[int, int]
    n: int
    G0: np.ndarray
    S: np.ndarray
    K: np.ndarray
    t0: float


def _pencil_gram(M0: np.ndarray, n: int) -> _PencilGram:
    """The Gram coefficients of the pencil M₀ − λJ of the real C-ordered
    ``M0`` whose λ-dependent block is its leading n × n: one ``syrk``, the
    only Gram product geokit forms, however many values are proven from
    them later (:func:`_pencil_proof`)."""
    rows, cols = M0.shape
    T0 = M0 if rows >= cols else M0.T
    G0 = _LAPACK["f"]["syrk"](1.0, M0.T, trans=0 if rows >= cols else 1, lower=1)
    P = np.zeros(G0.shape, order="F")
    P[:, :n] = T0[:n].T
    S, K = np.add(P, P.T, order="F"), np.subtract(P, P.T, order="F")
    for X in (G0, S, K):
        X.setflags(write=False)
    return _PencilGram(M0.shape, n, G0, S, K, float(_diagonal(G0).sum()))


def _pencil_proof(gram: _PencilGram, tol: Tol):
    """The full-rank proof of M(λ) = M₀ − λJ at ``tol``, from the Gram
    coefficients ``gram`` of the pencil, as a function of a finite λ for
    the values of one request.  It returns True only when
    ``_svd_rank(svd(M(λ), compute_uv=False), M(λ).shape, tol)`` would be
    min(rows, cols); False means "not proven", not "rank deficient".  M(λ)
    is never formed: its Gram matrix is an O(c²) update of the
    coefficients, and one Cholesky (``potrf``) of it less a shift decides.

    The proof accepts only σ_min(M(λ)) ≥ target = 2 · floor · N₀, with
    N₀ ≥ ‖M(λ)‖_F (below) and floor = max(tol.rel · max(rows, cols),
    64 (rows + cols) ε).  Since ‖M(λ)‖_F ≥ σ_max(M(λ)), that clears the SVD
    threshold tol.rel · max(rows, cols) · σ_max twice over; the factor 2
    and the ε term, which decides for a tiny ``tol.rel``, cover the
    backward error of gesdd in either orientation.

    Let u = ε/2, γ = (rows + cols + 10) ε, and T(λ), k × c with k ≥ c, be
    M(λ) or M(λ)ᵀ (:class:`_PencilGram`).  The diagonal of fl(G₀) sums
    nonnegative terms, so its computed trace t₀ gives
    ‖M₀‖_F² ≤ t₀ (1 + γ), and ‖λJ‖_F = |λ| √n: by the triangle inequality
    N₀ = √(t₀ (1 + γ)) + |λ| √n bounds both ‖M₀‖_F and ‖M(λ)‖_F.  The
    update H = fl(G₀) − Re λ · S − i Im λ · K + |λ|²E − s I is
    T(λ)ᴴT(λ) − s I, or its conjugate, which has the same eigenvalues, up
    to rounding:

    - fl(G₀), from one BLAS ``syrk``, has k-term inner products for
      entries, so it is off G₀ by at most γ_{k+2} ‖M₀‖_F² ≤ γ_{k+2} N₀² in
      norm (Higham, *Accuracy and Stability of Numerical Algorithms*,
      2002, §3.5; the +2 covers complex products, §3.6);
    - S and K copy entries of M₀, exactly but in the n × n block of A,
      where each entry is one rounded sum or difference of two;
    - each entry of H is rounded at most five times more: the product by
      Re λ or Im λ, the addition of fl(G₀) and, on the diagonal, the three
      operations of |λ|² and its addition.  So H is off by at most γ_5
      times |fl(G₀)| + |Re λ||S| + |Im λ||K| + |λ|²E, whose norm is at most
      ‖M₀‖_F² (1 + γ) + 2√2 |λ| ‖M₀‖_F + |λ|² ≤ 2 N₀²: 10u N₀²;
    - the shift adds at most u (N₀² + s), and a completed ``potrf`` gives
      R̂ᴴR̂ = H + ΔH ⪰ 0 with ‖ΔH‖₂ ≤ γ_{c+3} trace(H) / (1 − γ_{c+3})
      (Thm 10.3, again +2 for complex), trace(H) ≤ (1 + u) N₀².

    Together, since γ_j ≈ j u,

        σ_min(M(λ))² ≥ s (1 − u) − (γ_{k+2} + γ_{c+3} + 12u) N₀²
                     ≥ s (1 − u) − γ N₀² / 2.

    With s = (target² + γ N₀²)(1 + γ), that is σ_min(M(λ)) ≥ target, with
    γ N₀² / 2 to spare for the few relative roundings of N₀ and s and for
    the products that underflow while t₀ ≥ tiny / ε.  The Gram matrix
    squares the condition number, so the proof reaches down to
    σ_min ≈ √γ N₀, about 2e-7 N₀ at 83 × 82; below that, and at a large
    |λ|, where N₀ is looser than ‖M(λ)‖_F, the singular values decide.

    Not proven: a Cholesky that stops (info > 0: a pivot that is not
    positive), a t₀ below tiny / ε or not finite, and an N₀² from half the
    largest float up, where an entry of H could overflow; there H is never
    formed.  The trace guard is what keeps a NaN or an inf out of H:
    OpenBLAS's ``potrf`` completes on either.

    What depends on the request and not on λ is set up once: γ,
    √(t₀ (1 + γ)), √n, target² per unit of N₀² and the trace guard.  The
    Gram buffer of a dtype, with a view of its diagonal and its ``potrf``,
    is made at the first value of that dtype, so an all-real request makes
    no complex one; each value's update overwrites it in full.
    """
    shape, n, G0, S, K, t0 = gram
    gamma = (sum(shape) + 10) * _EPS
    norm0, root_n = math.sqrt(t0 * (1.0 + gamma)), math.sqrt(n)
    floor = max(tol.rel * max(shape), 64.0 * sum(shape) * _EPS)
    factor = 4.0 * floor * floor
    readable = t0 >= _GRAM_TINY  # False for a NaN trace too
    buffers = {}  # dtype kind: (H, real part, imaginary part, diagonal, its first n, potrf)

    def buffer(kind: str) -> tuple:
        H = np.empty(G0.shape, np.complex128 if kind == "c" else np.float64, order="F")
        diagonal = _diagonal(H)
        parts = (H.real, H.imag) if kind == "c" else (H, None)
        buffers[kind] = H, *parts, diagonal, diagonal[:n], _LAPACK[kind]["potrf"]
        return buffers[kind]

    def proves(lam: complex) -> bool:
        a, b = lam.real, lam.imag
        norm = norm0 + abs(lam) * root_n
        norm_sq = norm * norm
        if not (readable and 2.0 * norm_sq < np.inf):
            return False
        kind = "c" if b else "f"
        H, re, im, diagonal, head, potrf = buffers.get(kind) or buffer(kind)
        np.multiply(S, -a, out=re)
        np.add(re, G0, out=re)
        if b:
            np.multiply(K, -b, out=im)
        head += a * a + b * b
        diagonal -= (factor * norm_sq + gamma * norm_sq) * (1.0 + gamma)
        return potrf(H, 1, 0, 1)[1] == 0  # lower, not cleaned, in place
    return proves


def rank_of(M, tol: Tol = DEFAULT_TOL, scale: float | None = None) -> int:
    """Numerical rank: number of singular values above the relative cutoff.

    ``scale``, when given, enters the cutoff as a floor for the largest
    singular value; pass the norm of the factors when ``M`` is a product
    that may be zero up to roundoff.  The singular values alone decide: an
    empty ``M`` has none, and rank 0.
    """
    M = as_matrix(M)
    return _svd_rank(svd(M, compute_uv=False), M.shape, tol, scale)


class Subspace:
    """A linear subspace held as an orthonormal basis matrix.

    Parameters
    ----------
    basis : (n, k) array
        Columns form an orthonormal basis; ``k = 0`` encodes the zero
        subspace of an ``n``-dimensional ambient space.
    """

    __slots__ = ("basis",)

    def __init__(self, basis):
        B = _frozen(as_matrix(basis, "basis"))
        n, k = B.shape
        if k > n:
            raise ValidationError(f"basis has more columns ({k}) than rows ({n})")
        if k:
            gram = B.conj().T @ B
            gram.flat[::k + 1] -= 1.0  # the identity off, in place
            if np.abs(gram).max() > 1e-9:
                raise ValidationError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", B)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(np.zeros((n, 0)))

    @staticmethod
    def full(n: int) -> "Subspace":
        """The whole space; one shared instance per size."""
        return _full(n)

    def perp_projector(self) -> np.ndarray:
        """Orthogonal projector onto the orthogonal complement."""
        return np.eye(self.ambient_dim) - self.basis @ self.basis.conj().T

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


@functools.lru_cache(maxsize=32)
def _full(n: int) -> Subspace:
    return Subspace(np.eye(n))


def kernel_basis(M, tol: Tol = DEFAULT_TOL, scale: float | None = None) -> Subspace:
    """Orthonormal basis of the null space of ``M``.

    ``dim(kernel) + rank_of(M) == cols(M)`` holds exactly because both sides
    use the same singular-value cutoff.  A matrix with zero rows has the full
    ambient space as its kernel.
    """
    M = as_matrix(M)
    _, s, vh = svd(M)
    r = _svd_rank(s, M.shape, tol, scale)
    return Subspace(vh[r:].conj().T)


def image_basis(M, tol: Tol = DEFAULT_TOL, scale: float | None = None) -> Subspace:
    """Orthonormal basis of the column space of ``M``."""
    M = as_matrix(M)
    u, s, _ = svd(M, full_matrices=False)
    r = _svd_rank(s, M.shape, tol, scale)
    return Subspace(u[:, :r])


def pinv(M, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via rank-truncated SVD."""
    M = as_matrix(M)
    u, s, vh = svd(M, full_matrices=False)
    r = _svd_rank(s, M.shape, tol)
    if r == 0:
        return np.zeros(M.shape[::-1], dtype=M.dtype)
    return (vh[:r].conj().T / s[:r]) @ u[:, :r].conj().T


def _check_same_ambient(U: Subspace, V: Subspace):
    if U.ambient_dim != V.ambient_dim:
        raise ValidationError(
            f"ambient dimensions differ: {U.ambient_dim} vs {V.ambient_dim}"
        )


def subspace_sum(U: Subspace, V: Subspace, tol: Tol = DEFAULT_TOL) -> Subspace:
    """U + V, the span of both bases."""
    _check_same_ambient(U, V)
    return image_basis(np.hstack([U.basis, V.basis]), tol)


def subspace_intersect(U: Subspace, V: Subspace, tol: Tol = DEFAULT_TOL) -> Subspace:
    """U ∩ V via the kernel of the stacked-basis relation.

    A vector lies in both spans iff ``U a = V b`` for some coefficients, i.e.
    ``[U  -V] [a; b] = 0``; the intersection is the image of the ``a`` parts.
    The singular values of ``[U  -V]`` and ``[U  V]`` coincide, which makes
    ``dim(U+V) + dim(U∩V) = dim U + dim V`` an exact integer identity.  The
    dimension is dim N, N the kernel: ``U a = V b`` makes the columns of
    ``U N_a`` orthogonal, of norm 1/√2, so one QR orthonormalizes them.
    """
    _check_same_ambient(U, V)
    ku = U.dim
    if ku == 0 or V.dim == 0:
        return Subspace.zero(U.ambient_dim)
    N = kernel_basis(np.hstack([U.basis, -V.basis]), tol)
    return Subspace(_orthonormalize(U.basis @ N.basis[:ku]))


def preimage(M, S: Subspace, tol: Tol = DEFAULT_TOL) -> Subspace:
    """{x : M x ∈ S}, the inverse image of S under the map M."""
    M = as_matrix(M)
    if M.shape[0] != S.ambient_dim:
        raise ValidationError(
            f"map has {M.shape[0]} rows but subspace ambient is {S.ambient_dim}"
        )
    return kernel_basis(S.perp_projector() @ M, tol, scale=norm2(M))


def containment_residual(U: Subspace, V: Subspace) -> float:
    """Largest projection residual of V's basis vectors onto U (0 if V ⊆ U)."""
    _check_same_ambient(U, V)
    if V.dim == 0:
        return 0.0
    R = V.basis - U.basis @ (U.basis.conj().T @ V.basis)
    return float(np.linalg.norm(R, axis=0).max())


def contains(U: Subspace, V: Subspace, tol: Tol = DEFAULT_TOL) -> bool:
    """True iff V ⊆ U to within ``tol.abs``."""
    return containment_residual(U, V) <= tol.abs


def equals(U: Subspace, V: Subspace, tol: Tol = DEFAULT_TOL) -> bool:
    """True iff U and V contain each other to within ``tol.abs``."""
    return contains(U, V, tol) and contains(V, U, tol)


def orthonormal_complement(S: Subspace, tol: Tol = DEFAULT_TOL) -> Subspace:
    """Orthogonal complement of S in its ambient space.

    The complement of the whole space is the zero subspace in the basis's
    dtype, as ``kernel_basis`` would find it: the singular values of an
    orthonormal basis all lie within about 1e-9 of 1, above the cutoff
    whenever ``tol.rel · n < 1/2``."""
    n = S.ambient_dim
    if S.dim == 0:
        return Subspace.full(n)
    if S.dim == n and tol.rel * n < 0.5:
        return Subspace(np.zeros((n, 0), S.basis.dtype))
    return kernel_basis(S.basis.conj().T, tol)


def max_imag(M) -> float:
    """Largest imaginary magnitude of any entry."""
    M = np.asarray(M)
    if M.size == 0 or not np.iscomplexobj(M):
        return 0.0
    return float(np.abs(M.imag).max())


def require_real(M, tol: Tol = DEFAULT_TOL, name: str = "matrix") -> np.ndarray:
    """Return the real part of ``M`` after checking it is real to tolerance."""
    M = np.asarray(M)
    im = max_imag(M)
    if im > tol.abs:
        raise NumericalError(f"{name} has imaginary magnitude {im:.3e} above tolerance")
    return np.ascontiguousarray(M.real, dtype=np.float64)

