"""Kernels of the Rosenbrock system matrix [[A - λI, B], [C, D]], whose
p = 0 case is the reachability pencil [A - λI  B], plus the spectral
bookkeeping built on them: uncontrollable eigenvalues (PBH test), invariant
zeros and the normal rank (both read off the Morse frame of
:mod:`geokit.geometry`), and validation of requested closed-loop spectra.

A pencil of a real system is built, and its kernel computed, in real
arithmetic at a real λ (zero imaginary part) and in complex arithmetic only
at a complex λ.  A full rank at λ is proven without forming the matrix,
by geokit's one full-rank proof (:func:`geokit.linalg._pencil_proof`): the
system matrix M₀ − λJ is affine in λ, so its Gram matrix is quadratic in λ;
its coefficients are built once per system
(:attr:`geokit.sysmodel.SystemQuad._pencil_gram`) and what the tolerance
sets once per request, and each value then costs an O((n + m)²) update and
one Cholesky.  A matrix that still needs an SVD is built by
:func:`rosenbrock_matrix`.  The kernels of a list of values, and its ranks
(:func:`_per_conjugate_pair`, behind the PBH test of ``uncontrollable`` and
the ``rank_at_zeros`` check of the ``zeros`` report), are decided once for
each value that :func:`_firsts` lists, the first occurrence of each exact
value or exact conjugate; the other values take that decision or its
conjugate.
Every value of a request is read by one check, :func:`_finite`, which
raises at the first bad value in order.  The Morse frame keeps the
invariant zeros as the values :func:`invariant_zeros` returns, so a warm
zeros query is a read.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import SpectrumError
from .linalg import DEFAULT_TOL, Tol, _pencil_proof, _svd_rank, norm2, svd
from .sysmodel import SystemQuad

__all__ = [
    "PencilKernel",
    "rosenbrock_matrix",
    "reach_pencil_kernel",
    "rosenbrock_kernel",
    "rosenbrock_kernels",
    "uncontrollable_eigenvalues",
    "normal_rank_rosenbrock",
    "invariant_zeros",
    "deduplicate_eigenvalues",
    "validate_spectrum",
    "spectrum_scale",
]


@dataclass(frozen=True, eq=False, slots=True)
class PencilKernel:
    """Orthonormal kernel basis of a pencil at one eigenvalue, split into the
    state part V (n x q) and the input part W (m x q).

    ``q`` may be zero: a square Rosenbrock matrix away from the invariant
    zeros, for instance, has a trivial kernel.
    """

    lam: complex
    V: np.ndarray
    W: np.ndarray

    @property
    def q(self) -> int:
        return self.V.shape[1]


def _finite(lams) -> list[complex]:
    """Each λ of ``lams`` as a complex, in order.  The values are read one
    by one, and the first bad value raises: :class:`SpectrumError` if it is
    not finite, and what ``complex`` raises if ``complex`` refuses it."""
    values = []
    for lam in map(complex, lams):
        if not cmath.isfinite(lam):
            raise SpectrumError(f"eigenvalue {lam} is not finite")
        values.append(lam)
    return values


def _firsts(lams: list[complex]) -> list[complex]:
    """The values of ``lams`` that need a decision of their own, in order:
    the first occurrence of each exact value or exact conjugate (the matrix
    at λ̄ is the conjugate of the one at λ)."""
    firsts = {}
    for lam in lams:
        if lam not in firsts and lam.conjugate() not in firsts:
            firsts[lam] = None
    return list(firsts)


def rosenbrock_matrix(sys: SystemQuad, lam: complex) -> np.ndarray:
    """The (n+p) x (n+m) system matrix [[A - λI, B], [C, D]]; at p = 0 the
    reachability pencil [A - λI  B].  It is real when λ is."""
    lam, = _finite([lam])
    shift, n = lam if lam.imag else lam.real, sys.n
    M = np.empty((n + sys.p, n + sys.m), type(shift))
    M[:n, n:], M[n:, :n], M[n:, n:] = sys.B, sys.C, sys.D
    # A - λI in full, not a shifted diagonal: off it, a -0.0 of A
    # becomes +0.0 for a negative shift, and the kernels keep their bits
    np.subtract(sys.A, shift * np.eye(n), out=M[:n, :n])
    return M


def reach_pencil_kernel(A, B, lam: complex, tol: Tol = DEFAULT_TOL) -> PencilKernel:
    """Kernel of [A - λI  B], split into state and input parts: the
    Rosenbrock kernel of the real pair (A, B) without outputs."""
    return rosenbrock_kernel(SystemQuad.from_matrices(A, B), lam, tol)


def rosenbrock_kernel(sys: SystemQuad, lam: complex, tol: Tol = DEFAULT_TOL) -> PencilKernel:
    """Kernel of the Rosenbrock matrix at λ: the one-value case of
    :func:`rosenbrock_kernels`."""
    return rosenbrock_kernels(sys, [lam], tol)[0]


def rosenbrock_kernels(sys: SystemQuad, lams, tol: Tol = DEFAULT_TOL) -> list[PencilKernel]:
    """Kernels of the Rosenbrock matrix at each λ of ``lams``, in order, split
    into state and input parts: ``kernel_basis``'s decision, without
    building a Subspace.

    Each value that :func:`_firsts` lists is decided on its own.  With
    m ≤ p each matrix is square or tall, and away from the invariant zeros
    (and any normal-rank loss) its kernel is empty, (n, 0) and (m, 0) in
    its dtype: one Cholesky proves the full column rank, from a Gram matrix
    updated from the system's Gram coefficients in O((n + m)²)
    (:func:`geokit.linalg._pencil_proof`, set up once for the request), and
    no matrix is formed and no SVD runs; the proven values of a dtype share
    one empty kernel.  Where that proof fails, and whenever m > p, the
    matrix (:func:`rosenbrock_matrix`) is factored once: the full SVD's own
    singular values decide, so every nonempty kernel comes from one SVD.
    An exact repeat takes the kernel of its first occurrence, and a value
    whose exact conjugate came first the elementwise conjugate of that
    kernel.  The values are read in order by :func:`_finite`, before any
    kernel is computed, and a request whose values are all proven forms no
    matrix."""
    n, lams = sys.n, _finite(lams)
    proves = _pencil_proof(sys._pencil_gram, tol) if sys.m <= sys.p and lams else None
    empty, decided = {}, {}  # decided: each value's (V, W)
    for lam in _firsts(lams):
        if proves is not None and proves(lam):
            dtype = np.complex128 if lam.imag else np.float64
            # kept for ops-large's peak_rss_mb: harness.measure keeps every kernel
            if dtype not in empty:
                K = np.zeros((n + sys.m, 0), dtype)
                empty[dtype] = K[:n], K[n:]
            decided[lam] = empty[dtype]
        else:
            M = rosenbrock_matrix(sys, lam)
            _, s, vh = svd(M)
            K = vh[_svd_rank(s, M.shape, tol):].conj().T.copy()  # a copy frees the rest of vh
            decided[lam] = K[:n], K[n:]
    kernels = []
    for lam in lams:
        if lam not in decided:
            decided[lam] = tuple(X.conj() for X in decided[lam.conjugate()])
        kernels.append(PencilKernel(lam, *decided[lam]))
    return kernels


def deduplicate_eigenvalues(values, scale: float) -> list[complex]:
    """Cluster a list of complex values, keeping one representative per
    cluster of diameter <= ``scale``."""
    out: list[complex] = []
    for v in values:
        v = complex(v)
        if all(abs(v - w) > scale for w in out):
            out.append(v)
    return out


def _eig_scale(A: np.ndarray, tol: Tol) -> float:
    return max(tol.abs, 100.0 * tol.rel * max(1.0, norm2(A)))


def _per_conjugate_pair(sys: SystemQuad, lams, tol: Tol) -> list[int]:
    """``rank_of(M, tol)`` of the system matrix M at each λ of ``lams``: the
    one rank of M at given values, behind the PBH test and the
    ``rank_at_zeros`` check of the ``zeros`` report.

    Each value that :func:`_firsts` lists is decided on its own, and every
    other value takes the rank of its first occurrence or of its exact
    conjugate, which has the same rank.  Each decision is proof-first: one
    Cholesky of a Gram matrix updated from the system's Gram coefficients
    proves a full rank (:func:`geokit.linalg._pencil_proof`, set up once
    for the request), and the singular values of M decide where the proof
    fails, as at an invariant zero, where M loses rank.  The proof accepts
    only what the singular values would, so every rank is theirs.  The
    values are read in order by :func:`_finite`, before any rank is
    decided, and with no value to decide no Gram coefficient is formed.
    """
    lams = _finite(lams)
    ranks = dict.fromkeys(_firsts(lams))
    if ranks:
        proves = _pencil_proof(sys._pencil_gram, tol)
        for lam in ranks:
            if proves(lam):
                ranks[lam] = sys.n + min(sys.m, sys.p)
            else:
                M = rosenbrock_matrix(sys, lam)
                ranks[lam] = _svd_rank(svd(M, compute_uv=False), M.shape, tol)
    return [ranks[lam] if lam in ranks else ranks[lam.conjugate()] for lam in lams]


def uncontrollable_eigenvalues(A, B, tol: Tol = DEFAULT_TOL) -> list[complex]:
    """Eigenvalues of the real A at which [A - λI  B] drops below full row rank.

    This is the PBH test evaluated at each (deduplicated) eigenvalue of A;
    the returned list is multiplicity-free.  The eigenvalues of the real A
    come in exact conjugate pairs, and the rank is decided once per pair: a
    pair is listed whole or not at all.  One Cholesky of the row Gram
    matrix [A B][A B]ᵀ − λ̄A − λAᵀ + |λ|²I, or its conjugate, usually proves
    a controllable value's full row rank; the product [A B][A B]ᵀ is formed
    once per call, and the singular values decide where the pencil is too
    ill-conditioned for the proof (:func:`_per_conjugate_pair`).
    """
    sys = SystemQuad.from_matrices(A, B)
    eigs = deduplicate_eigenvalues(np.linalg.eigvals(sys.A), _eig_scale(sys.A, tol))
    ranks = _per_conjugate_pair(sys, eigs, tol)
    return [lam for lam, r in zip(eigs, ranks) if r < sys.n]


def normal_rank_rosenbrock(sys: SystemQuad, tol: Tol = DEFAULT_TOL) -> int:
    """Normal rank of the Rosenbrock matrix: the Morse frame's n + m − m1
    (:attr:`geokit.geometry.MorseDecomposition.normal_rank`)."""
    return geometry.morse_decomposition(sys, tol).normal_rank


def invariant_zeros(sys: SystemQuad, tol: Tol = DEFAULT_TOL) -> list[complex]:
    """Finite invariant zeros of the quadruple, with multiplicity.

    Computed as the spectrum of the middle diagonal block of the triangular
    form produced by :func:`geokit.geometry.morse_decomposition` (the map
    induced between the supremal output-nulling subspace and its reachability
    part).  At p = 0 they are the input-decoupling zeros, i.e. the
    uncontrollable eigenvalues of the PBH test (:func:`uncontrollable_eigenvalues`).
    Use :func:`deduplicate_eigenvalues` for the zero set without multiplicities.
    The Rosenbrock matrix drops below its normal rank at each zero
    (:func:`normal_rank_rosenbrock`, read off the same frame).  The frame
    keeps the zeros as these complex values, so after the first call on a
    system this is a read; each call returns a new list.
    """
    return list(geometry.morse_decomposition(sys, tol)._zero_values)


def spectrum_scale(lambdas, tol: Tol) -> float:
    """Comparison scale for eigenvalue coincidence tests."""
    mags = [abs(complex(v)) for v in lambdas] or [1.0]
    return _scale(max(mags), tol)


def _scale(largest: float, tol: Tol) -> float:
    """:func:`spectrum_scale` of values whose largest magnitude is ``largest``."""
    return max(tol.abs, tol.rel * max(1.0, largest))


def _distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x_i − y_j| for every pair, as Python's ``abs`` of a complex rounds
    it: ``np.hypot`` of the parts does, ``np.abs`` of a complex128 does not
    always."""
    d = x[:, None] - y
    return np.hypot(d.real, d.imag)


def validate_spectrum(lambdas, forbidden=(), tol: Tol = DEFAULT_TOL) -> list[tuple[complex, bool]]:
    """Check finiteness, distinctness, self-conjugacy, and distance from a
    forbidden set, and return the values to place.

    That is one ``(value, is_pair)`` per real value or conjugate pair, in
    order of first appearance: a value whose imaginary part is within
    :func:`spectrum_scale` counts as its real part, and the other values
    pair one to one, each with a value within that scale of its conjugate;
    a pair is represented by its member with positive imaginary part.  The
    values count Σ(1 + is_pair), as many as were requested.  The forbidden set
    (uncontrollable eigenvalues or invariant zeros) must be cleared by a
    margin of ten comparison scales; closer choices produce ill-conditioned
    kernels.

    The values are read in order by :func:`_finite` first, and each later
    check raises on its first offending pair in the order of the values,
    then of the forbidden set.  The values of an all-real request
    are sorted once: the closest two are neighbours there, so a request of
    distinct values forms no matrix of their distances.  Its distance to a
    forbidden value is at least that value's imaginary part, so only the
    forbidden values within twice the margin of the axis are measured.
    """
    lambdas = _finite(lambdas)
    if not lambdas:
        raise SpectrumError("empty spectrum")
    lams = np.array(lambdas)
    real = not lams.imag.any()
    if real:  # kept for ops-large's wall_s: its kh requests are all real
        xs = np.sort(lams.real)
        scale = _scale(max(-float(xs[0]), float(xs[-1])), tol)
    else:
        scale = spectrum_scale(lambdas, tol)
    # each check raises on the first offending pair (i, j) in row-major
    # order; off its diagonal, the symmetric mask's first has j > i
    if not real or ((xs[1:] - xs[:-1]) <= scale).any():
        close = _distances(lams, lams) <= scale
        np.fill_diagonal(close, False)
        if close.any():
            i, j = divmod(int(close.argmax()), len(lambdas))
            raise SpectrumError(f"eigenvalues {lambdas[i]} and {lambdas[j]} are not distinct")
    if real:
        values = [(complex(lam.real), False) for lam in lambdas]
    else:
        values, taken = [], set()  # taken: the non-real values already paired
        for i, lam in enumerate(lambdas):
            if abs(lam.imag) <= scale:
                values.append((complex(lam.real), False))
                continue
            if i in taken:
                continue
            matches = [j for j, mu in enumerate(lambdas) if j not in taken and abs(mu.imag) > scale
                       and abs(mu - lam.conjugate()) <= scale]
            if not matches:
                raise SpectrumError(f"spectrum is not self-conjugate: no partner for {lam}")
            taken.update((i, matches[0]))
            values.append((lam if lam.imag > 0 else lam.conjugate(), True))
    if not len(forbidden):
        return values
    margin = 10.0 * scale
    forbidden = np.asarray(forbidden, dtype=np.complex128)
    # the columns measured: all, or for a real request those near the axis
    columns = np.flatnonzero(np.abs(forbidden.imag) <= 2.0 * margin) if real else slice(None)
    near = _distances(lams, forbidden[columns]) <= margin
    if near.any():
        i, k = divmod(int(near.argmax()), near.shape[1])
        j = columns[k] if real else k
        raise SpectrumError(f"eigenvalue {lambdas[i]} is within {margin:.2e} of forbidden "
                            f"value {complex(forbidden[j])}")
    return values
