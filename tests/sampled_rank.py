"""Normal rank of the Rosenbrock matrix by sampling: an oracle for the
structural value n + m − m1 that the Morse frame gives.

The rank of [[A − λI, B], [C, D]] drops below its normal rank only on a
finite set of λ, so its largest rank at a few generic points is the normal
rank.  The points are five seeded uniform draws in the square of half-width
1 + max |eig(A)| around the origin.  The oracle builds no subspace and no
frame: one rank decision of ``geokit.linalg.rank_of`` per point.  It is not
a test module, so pytest does not collect it.
"""

from __future__ import annotations

import numpy as np

from geokit.linalg import DEFAULT_TOL, Tol, rank_of
from geokit.pencils import rosenbrock_matrix
from geokit.sysmodel import SystemQuad

SAMPLES = 5
SEED = 20240917


def sampled_normal_rank(sys: SystemQuad, tol: Tol = DEFAULT_TOL) -> int:
    """The largest rank of the Rosenbrock matrix at the seeded sample points."""
    rng = np.random.default_rng(SEED)
    scale = 1.0 + float(np.abs(np.linalg.eigvals(sys.A)).max())
    best = 0
    for _ in range(SAMPLES):
        lam = complex(*rng.uniform(-scale, scale, 2))
        best = max(best, rank_of(rosenbrock_matrix(sys, lam), tol))
    return best
