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
blocks, and the orthogonal mixing keeps them.  It is not a test module, so
pytest does not collect it.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import block_diag

from geokit.sysmodel import GenSpec, SystemQuad, random_system


def planted_join(n1: int, n2: int, m2: int, p2: int, s: int) -> SystemQuad:
    """The join of the SISO and the generic block, in the coordinates
    x' = T x, u = U u', y' = W y.  T, U and W are the Q factors of standard
    normal matrices drawn in that order from ``numpy.random.default_rng(s)``."""
    siso = random_system(GenSpec(n1, 1, 1, seed=10 + s))
    generic = random_system(GenSpec(n2, m2, p2, seed=100 + s))
    A, B, C, D = (block_diag(getattr(siso, k), getattr(generic, k)) for k in "ABCD")
    rng = np.random.default_rng(s)
    T, U, W = (np.linalg.qr(rng.standard_normal((k, k)))[0] for k in (n1 + n2, 1 + m2, 1 + p2))
    return SystemQuad.from_matrices(T @ A @ T.T, T @ B @ U, W @ C @ T.T, W @ D @ U)


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
