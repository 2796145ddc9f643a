"""High-precision oracle for the partial S* and V* chains of a seeded system.

Runs the defining recursions in mpmath at 80 significant digits on the
exact binary values of ``random_system(GenSpec(n, m, p, seed))``:

    S_0 = 0,  S_{j+1} = S_j + [A B]((S_j ⊕ U) ∩ ker[C D])
    V_0 = E,  V_{k+1} = {x ∈ V_k : A x + B u ∈ V_k and C x + D u = 0 for some u}

with E = S_h.  Every term is recomputed from its definition (no staircase,
no duality), and every rank is decided by a threshold of 1e-50 relative to
the scale of the data (the largest entry, or the norm of the vectors that
were combined), far from both the 80-digit roundoff and the smallest
genuine pivots.  Usage:

    PYTHONPATH=src python tests/mp_chain_oracle.py N M P SEED H

prints the dimensions of the S chain and of the V chain inside S_H, each up
to and including its first repeated term.  The pinned chains in
``tests/test_geometry.py`` come from this script.

    PYTHONPATH=src python tests/mp_chain_oracle.py kh N M P SEED H

solves the pencils at H real values spread over [-3, -0.5] at 80 digits
and prints the distance (the largest sine of a principal angle) between the
span of their kernels' state parts and ``build_Kh``'s basis.

    PYTHONPATH=src python tests/mp_chain_oracle.py place N M SEED

places λ = -1 - 0.5k, k < N, on the controllable draw
``GenSpec(N, M, 0, SEED, controllable=True)`` and prints the worst distance
between the request and the eigenvalues of A+BF from ``mpmath.eig`` at 60
digits, under the pairing that minimizes it (``place_poles``'s refusal,
if any, instead).  The placement regression tests use SEED = 100 N + 10 M + s.
It is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import sys

import numpy as np
from mpmath import mp, mpf

from geokit.assignment import build_Kh, place_poles
from geokit.errors import SynthesisError
from geokit.sysmodel import GenSpec, random_system
from geokit.verify import eig_multiset_match

mp.dps = 80
REL = mpf("1e-50")


def _rows(M) -> list[list]:
    return [[mpf(float(x)) for x in row] for row in M]


def _dot(x, y):
    return mp.fsum(a * b for a, b in zip(x, y))


def _apply(M, x):
    return [_dot(row, x) for row in M]


def _columns(M, vectors):
    """M @ each vector, as a list of vectors."""
    return [_apply(M, v) for v in vectors]


def orth(vectors, dim: int, scale) -> list[list]:
    """Orthonormal basis of the span of ``vectors`` (Gram-Schmidt, twice),
    keeping the given order; a residual at or below 1e-50 times ``scale``
    is dropped."""
    basis: list[list] = []
    for v in vectors:
        w = list(v)
        for _ in range(2):
            for q in basis:
                c = _dot(q, w)
                w = [a - c * b for a, b in zip(w, q)]
        nrm = mp.norm(w)
        if nrm > REL * scale and len(basis) < dim:
            basis.append([a / nrm for a in w])
    return basis


def kernel(rows, ncols: int) -> list[list]:
    """Basis of {x : rows @ x = 0}, by elimination with complete pivoting;
    a pivot at or below 1e-50 times the largest entry counts as zero."""
    R = [list(r) for r in rows]
    scale = max((abs(x) for r in R for x in r), default=mpf(0))
    pivots: list[tuple[int, int]] = []  # (row, column) of each pivot
    free = list(range(ncols))
    done = 0
    while done < len(R):
        best, bi, bj = mpf(0), -1, -1
        for i in range(done, len(R)):
            for j in free:
                if abs(R[i][j]) > best:
                    best, bi, bj = abs(R[i][j]), i, j
        if best <= REL * scale:
            break
        R[done], R[bi] = R[bi], R[done]
        piv = R[done][bj]
        R[done] = [x / piv for x in R[done]]
        for i in range(len(R)):
            if i != done and R[i][bj] != 0:
                f = R[i][bj]
                R[i] = [a - f * b for a, b in zip(R[i], R[done])]
        pivots.append((done, bj))
        free.remove(bj)
        done += 1
    basis = []
    for j in free:
        x = [mpf(0)] * ncols
        x[j] = mpf(1)
        for i, pj in pivots:
            x[pj] = -R[i][j]
        basis.append(x)
    return basis


def s_chain(A, B, C, D, n: int, m: int) -> tuple[list[int], list[list[list]]]:
    ab_norm = mp.sqrt(mp.fsum(x * x for row in A + B for x in row))  # Frobenius
    S: list[list] = []
    terms, dims = [S], [0]
    for _ in range(n + 1):
        CS = _columns(C, S)  # C applied to each basis vector
        rows = [[CS[k][i] for k in range(len(S))] + list(D[i]) for i in range(len(C))]
        feasible = kernel(rows, len(S) + m)
        AS = _columns(A, S)
        images = []
        for x in feasible:
            c, u = x[:len(S)], x[len(S):]
            v = [mp.fsum(AS[k][i] * c[k] for k in range(len(S))) + _dot(B[i], u)
                 for i in range(n)]
            images.append(v)
        scale = max([mpf(1)] + [mp.norm(x) for x in feasible]) * ab_norm
        S = orth(S + images, n, scale)
        terms.append(S)
        dims.append(len(S))
        if dims[-1] == dims[-2]:
            return dims, terms
    raise RuntimeError("S chain did not become stationary")


def v_chain(A, B, C, D, E, n: int, m: int) -> list[int]:
    V = E
    dims = [len(V)]
    for _ in range(n + 1):
        k = len(V)
        AV = _columns(A, V)
        # rows of (I - V V') [A V, B] and of [C V, D], over coefficients [c; u]
        top = []
        for i in range(n):
            top.append([AV[j][i] for j in range(k)] + list(B[i]))
        for q in V:  # project the columns off span V
            qt = [mp.fsum(q[i] * top[i][j] for i in range(n)) for j in range(k + m)]
            for i in range(n):
                top[i] = [a - q[i] * b for a, b in zip(top[i], qt)]
        CV = _columns(C, V)
        bottom = [[CV[j][i] for j in range(k)] + list(D[i]) for i in range(len(C))]
        coeffs = kernel(top + bottom, k + m)
        states = [[mp.fsum(V[j][i] * x[j] for j in range(k)) for i in range(n)] for x in coeffs]
        V = orth(states, n, max([mpf(1)] + [mp.norm(x) for x in coeffs]))
        dims.append(len(V))
        if dims[-1] == dims[-2]:
            return dims
    raise RuntimeError("V chain did not become stationary")


def kh_basis(sys, lams) -> np.ndarray:
    """Orthonormal basis, rounded to float64, of the span of the state parts
    of the pencil kernels (Rosenbrock, or [A - λI  B] for p = 0) at the real
    values ``lams``, each pencil formed and solved at 80 digits."""
    n, m = sys.n, sys.m
    rows = [a + b for a, b in zip(_rows(sys.A), _rows(sys.B))]
    rows += [c + d for c, d in zip(_rows(sys.C), _rows(sys.D))]
    states = []
    for lam in lams:
        shifted = [list(r) for r in rows]
        for i in range(n):
            shifted[i][i] -= mpf(float(lam))
        states += [x[:n] for x in kernel(shifted, n + m)]
    basis = orth(states, n, max([mpf(1)] + [mp.norm(x) for x in states]))
    return np.array([[float(x) for x in q] for q in basis]).reshape(len(basis), n).T


def place_distance(n: int, m: int, seed: int) -> str:
    s = random_system(GenSpec(n, m, 0, seed=seed, controllable=True))
    lams = -1.0 - 0.5 * np.arange(n)
    try:
        F = place_poles(s.A, s.B, lams).F
    except SynthesisError as e:
        return f"place_poles refused: {e}"
    with mp.workdps(60):
        A, B, Fm = mp.matrix(_rows(s.A)), mp.matrix(_rows(s.B)), mp.matrix(_rows(F))
        eigs = mp.eig(A + B * Fm, left=False, right=False)
        _, worst = eig_multiset_match(lams, [complex(e) for e in eigs], np.inf)
    return f"worst distance to the request: {worst:.2e}"


def main(argv: list[str]) -> None:
    if argv[0] == "place":
        print(place_distance(*(int(a) for a in argv[1:])))
        return
    if argv[0] == "kh":
        n, m, p, seed, h = (int(a) for a in argv[1:])
        s = random_system(GenSpec(n=n, m=m, p=p, seed=seed))
        lams = np.linspace(-3.0, -0.5, h)
        exact, kh = kh_basis(s, lams), build_Kh(s, lams)[0].basis
        print(f"dims: exact {exact.shape[1]}, build_Kh {kh.shape[1]}")
        print(f"distance: {np.linalg.norm(exact - kh @ (kh.T @ exact), 2):.2e}")
        return
    n, m, p, seed, h = (int(a) for a in argv)
    s = random_system(GenSpec(n=n, m=m, p=p, seed=seed))
    A, B, C, D = _rows(s.A), _rows(s.B), _rows(s.C), _rows(s.D)
    sdims, terms = s_chain(A, B, C, D, n, m)
    E = terms[min(h, len(terms) - 1)]
    print("S chain dims:", sdims)
    print(f"V chain dims inside S_{h}:", v_chain(A, B, C, D, E, n, m))


if __name__ == "__main__":
    main(sys.argv[1:])
