"""Metamorphic invariance on generic draws: the structural dimensions must
not move under changes of the system that preserve them.

dim V*, dim R*, dim S* and the number of invariant zeros are unchanged by
input scaling (B, D) → β(B, D), by output scaling (C, D) → β(C, D) and by
orthogonal changes of state, input and output coordinates
(A, B, C, D) → (T A Tᵀ, T B U, W C Tᵀ, W D U).  Duality (A, B, C, D) →
(Aᵀ, Cᵀ, Bᵀ, Dᵀ) exchanges them: V* of the dual is S*⊥, S* of the dual is
V*⊥, R* of the dual is (V* + S*)⊥, and the zeros are the same.  Without
outputs, A → αA moves none of them: [αA − λI  B] = α [A − (λ/α)I  B/α]
has the rank of the unscaled pencil at λ/α.  Nor with D = 0: then
[αA − λI  B; C  0] = diag(αI, I) [A − (λ/α)I  B/α; C  0], and neither
Ax + Bu ∈ V nor Cx = 0 sees a scaling of u.  The draws are generic
``GenSpec`` systems; planted joins, on which some of these answers move
today, are not among them.
"""

import functools

import numpy as np
import pytest

from geokit.geometry import rstar, sstar, vstar
from geokit.linalg import subspace_sum
from geokit.pencils import invariant_zeros
from geokit.sysmodel import GenSpec, SystemQuad, dual_of, random_system

SIZES = (8, 20, 40)
SHAPES = ((3, 2), (2, 3), (2, 2), (1, 1), (3, 1))
SEEDS = (0, 1, 2)
BETAS = (1e-3, 1e-1, 10.0, 1e3)


def _picture(sys: SystemQuad) -> dict[str, int]:
    return {"vstar": vstar(sys).dim, "rstar": rstar(sys).dim, "sstar": sstar(sys).dim,
            "zeros": len(invariant_zeros(sys))}


@functools.lru_cache(maxsize=None)
def _draw(n: int, m: int, p: int, seed: int) -> tuple[SystemQuad, dict[str, int]]:
    sys = random_system(GenSpec(n, m, p, seed=seed))
    return sys, _picture(sys)


def _orthogonal(rng, k: int) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((k, k)))[0]


def _transformed(sys: SystemQuad, change: str, beta: float, seed: int) -> SystemQuad:
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    if change == "input-scale":
        return SystemQuad.from_matrices(A, beta * B, C, beta * D)
    if change == "output-scale":
        return SystemQuad.from_matrices(A, B, beta * C, beta * D)
    rng = np.random.default_rng([sys.n, sys.m, sys.p, seed])
    T, U, W = _orthogonal(rng, sys.n), _orthogonal(rng, sys.m), _orthogonal(rng, sys.p)
    return SystemQuad.from_matrices(T @ A @ T.T, T @ B @ U, W @ C @ T.T, W @ D @ U)


CHANGES = {"input-scale": BETAS, "output-scale": BETAS, "coordinates": (None,)}


@pytest.mark.parametrize("change", CHANGES)
@pytest.mark.parametrize("m, p", SHAPES, ids=[f"m{m}p{p}" for m, p in SHAPES])
@pytest.mark.parametrize("n", SIZES)
def test_dimensions_are_invariant(n, m, p, change):
    moved = {}
    for seed in SEEDS:
        sys, want = _draw(n, m, p, seed)
        for beta in CHANGES[change]:
            got = _picture(_transformed(sys, change, beta, seed))
            if got != want:
                moved[(seed, beta)] = (want, got)
    assert moved == {}


@pytest.mark.parametrize("m, p", SHAPES, ids=[f"m{m}p{p}" for m, p in SHAPES])
@pytest.mark.parametrize("n", SIZES)
def test_duality_exchanges_the_subspaces(n, m, p):
    moved = {}
    for seed in SEEDS:
        sys, picture = _draw(n, m, p, seed)
        dual = dual_of(sys)
        V, S, Vd, Sd = vstar(sys), sstar(sys), vstar(dual), sstar(dual)
        want = {"vstar": n - S.dim, "sstar": n - V.dim,
                "rstar": n - subspace_sum(V, S).dim, "zeros": picture["zeros"]}
        got = {"vstar": Vd.dim, "sstar": Sd.dim, "rstar": rstar(dual).dim,
               "zeros": len(invariant_zeros(dual))}
        # V* ⊥ S*(dual) and S* ⊥ V*(dual), to the containment tolerance
        crossed = [float(np.abs(X.basis.T @ Y.basis).max(initial=0.0)) for X, Y in ((V, Sd), (S, Vd))]
        if got != want or max(crossed) > 1e-8:
            moved[seed] = (want, got, crossed)
    assert moved == {}


ALPHAS = (1e-2, 1e2)


@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("n", SIZES)
def test_scaling_a_without_outputs(n, m):
    moved = {}
    for seed in SEEDS:
        sys, want = _draw(n, m, 0, seed)
        for alpha in ALPHAS:
            got = _picture(SystemQuad.from_matrices(alpha * sys.A, sys.B))
            if got != want:
                moved[(seed, alpha)] = (want, got)
    assert moved == {}


@pytest.mark.parametrize("m, p", SHAPES, ids=[f"m{m}p{p}" for m, p in SHAPES])
@pytest.mark.parametrize("n", SIZES)
def test_scaling_a_without_feedthrough(n, m, p):
    moved = {}
    for seed in SEEDS:
        sys = _draw(n, m, p, seed)[0]
        D = np.zeros((p, m))
        want = _picture(SystemQuad.from_matrices(sys.A, sys.B, sys.C, D))
        for alpha in ALPHAS:
            got = _picture(SystemQuad.from_matrices(alpha * sys.A, sys.B, sys.C, D))
            if got != want:
                moved[(seed, alpha)] = (want, got)
    assert moved == {}
