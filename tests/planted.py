"""Planted systems: block-diagonal joins whose structure is known by
construction, mixed by orthogonal changes of coordinates so that no block
shows in the matrices.

``planted_join(n1, n2, m2, p2, s)`` joins a SISO block ``GenSpec(n1, 1, 1,
seed=10 + s)``, whose D is nonzero, with a generic block ``GenSpec(n2, m2,
p2, seed=100 + s)``.  The SISO block has V* the whole space, R* = S* = 0 and
n1 invariant zeros (the eigenvalues of A − B D⁻¹ C).  A generic block with

- m2 > p2 has V* = R* = S* the whole space and no zeros;
- m2 = p2 has V* the whole space, R* = S* = 0 and n2 zeros;
- m2 < p2 has V* = R* = S* = 0 and no zeros.

dim V*, dim R*, dim S* and the zero count of the join are the sums over the
blocks, and the orthogonal mixing keeps them.  ``unit_norm=True`` divides A
by its spectral norm: the blocks stay generic, so the answers stay.

``squaring_down_zeros`` finds the invariant zeros of a system without any
of geokit's rank code, numpy and scipy alone, to check a zero count
independently of the staircase.  It is not a test module, so pytest does
not collect it.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import block_diag, eigvals

from geokit.sysmodel import GenSpec, SystemQuad, random_system


def planted_join(n1: int, n2: int, m2: int, p2: int, s: int,
                 unit_norm: bool = False) -> SystemQuad:
    """The join of the SISO and the generic block, in the coordinates
    x' = T x, u = U u', y' = W y.  T, U and W are the Q factors of standard
    normal matrices drawn in that order from ``numpy.random.default_rng(s)``.
    With ``unit_norm``, A is then divided by its spectral norm."""
    siso = random_system(GenSpec(n1, 1, 1, seed=10 + s))
    generic = random_system(GenSpec(n2, m2, p2, seed=100 + s))
    A, B, C, D = (block_diag(getattr(siso, k), getattr(generic, k)) for k in "ABCD")
    rng = np.random.default_rng(s)
    T, U, W = (np.linalg.qr(rng.standard_normal((k, k)))[0] for k in (n1 + n2, 1 + m2, 1 + p2))
    A = T @ A @ T.T
    if unit_norm:
        A = A / np.linalg.norm(A, 2)
    return SystemQuad.from_matrices(A, T @ B @ U, W @ C @ T.T, W @ D @ U)


def exact_answers(n1: int, n2: int, m2: int, p2: int) -> dict[str, int]:
    """dim V*, dim R*, dim S* and the zero count of the join, by construction."""
    if m2 > p2:
        generic = (n2, n2, n2, 0)
    elif m2 == p2:
        generic = (n2, 0, 0, n2)
    else:
        generic = (0, 0, 0, 0)
    siso = (n1, 0, 0, n1)
    return dict(zip(("vstar", "rstar", "sstar", "zeros"), map(sum, zip(siso, generic))))


def squaring_down_zeros(sys: SystemQuad) -> list[complex]:
    """The finite invariant zeros of ``sys`` by squaring down (Davison &
    Wang, Automatica 1974), with multiplicity.

    A system with m > p is squared to (A, BK, C, DK), and one with p > m to
    (A, B, LC, LD), for two draws of K (m x p) or L (m x p) from
    ``numpy.random.default_rng(0)``; a square system is its own square.
    The finite generalized eigenvalues (|z| < 1e8) of each square pencil
    [[A, B'], [C', D']] − z diag(I, 0) hold the zeros of ``sys`` and values
    that depend on the draw, so a value is kept when the other draw has one
    within 1e-6 relative, and then only if the Rosenbrock matrix at it drops
    below rank n + min(m, p): its (n + min(m, p))-th singular value there
    is at most 1e-8 · max(1, ‖[[A, B], [C, D]]‖₂).  On the planted joins the
    zeros read at most 4e-14 of that norm, and no other value is kept by
    both draws.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n, m, p = sys.n, sys.m, sys.p
    rng = np.random.default_rng(0)
    if m > p:
        squares = [(B @ K, C, D @ K) for K in (rng.standard_normal((m, p)) for _ in range(2))]
    elif p > m:
        squares = [(B, L @ C, L @ D) for L in (rng.standard_normal((m, p)) for _ in range(2))]
    else:
        squares = [(B, C, D)]
    draws = []
    for Bs, Cs, Ds in squares:
        J = np.zeros((n + Bs.shape[1],) * 2)
        J[:n, :n] = np.eye(n)
        z = eigvals(np.block([[A, Bs], [Cs, Ds]]), J)
        draws.append(z[np.isfinite(z) & (np.abs(z) < 1e8)])
    zeros = [z for z in draws[0] if all(
        len(other) and np.abs(other - z).min() <= 1e-6 * max(1.0, abs(z)) for other in draws[1:])]
    bound = 1e-8 * max(1.0, np.linalg.norm(np.block([[A, B], [C, D]]), 2))
    kept = []
    for z in zeros:
        s = np.linalg.svd(np.block([[A - z * np.eye(n), B], [C, D]]), compute_uv=False)
        if s[n + min(m, p) - 1] <= bound:
            kept.append(complex(z))
    return kept
