"""The least σ_min that the Cholesky proof of a full rank reaches, written out
from the proof's statement (``geokit.linalg._pencil_proof``) rather than read
from the library, so that a test can say which matrices the proof must
accept.  It is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import numpy as np

from geokit.linalg import Tol

EPS = float(np.finfo(np.float64).eps)


def proof_limit(shape, norm: float, tol: Tol) -> float:
    """√s for a ``shape`` matrix whose Frobenius norm is at most ``norm`` = N:
    s = (target² + γ N²)(1 + γ), target = 2 · floor · N, floor =
    max(tol.rel · max(rows, cols), 64 (rows + cols) ε) and
    γ = (rows + cols + 10) ε."""
    gamma = (sum(shape) + 10) * EPS
    floor = max(tol.rel * max(shape), 64.0 * sum(shape) * EPS)
    return float(np.sqrt(((2.0 * floor * norm) ** 2 + gamma * norm ** 2) * (1.0 + gamma)))
