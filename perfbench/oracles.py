"""Independent checks of geokit's answers, in numpy/scipy.

Each check returns ``None`` when the answer is accepted or a message saying
why it is wrong.  The checks never run inside a timed span.  Where an oracle
needs another geokit answer (V* of a system against S* of its dual, or
R* = V* ∩ S*), the two answers come from different algorithms, so a defect in
either one shows.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

RANK_REL = 1e-11  # same cutoff rule as geokit: sigma > rel * sigma_max * max(shape)
ORTH_TOL = 1e-8   # orthonormality of returned bases
SPAN_TOL = 1e-6   # subspace containment / orthogonality residuals
RES_TOL = 1e-8    # feedback residuals, scaled by max(1, ||A + BF||)
EIG_REL = 1e-6    # eigenvalue multiset match, relative to the spectrum scale


def rank(M, scale: float = 0.0) -> int:
    M = np.asarray(M)
    if M.size == 0:
        return 0
    s = scipy.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(s > RANK_REL * max(s[0], scale) * max(M.shape)))


def orth(M, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the column span of M."""
    M = np.asarray(M)
    if M.size == 0:
        return np.zeros((M.shape[0], 0))
    u, s, _ = scipy.linalg.svd(M, full_matrices=False)
    r = int(np.count_nonzero(s > RANK_REL * max(s[0], scale) * max(M.shape)))
    return u[:, :r]


def krylov(A, B, blocks: int | None = None) -> tuple[np.ndarray, int]:
    """Orthonormal basis of im[B, AB, ..., A^(blocks-1) B] and the number of
    blocks after which it stopped growing (all blocks when ``blocks`` is None).

    Each new block is projected off the current basis twice before its rank
    decision, so directions are never compared against exploding powers.
    """
    n = A.shape[0]
    scale = max(1.0, float(scipy.linalg.norm(A, 2)))
    Q = orth(B, float(scipy.linalg.norm(B, 2)) if B.size else 0.0)
    if Q.shape[1] == 0:
        return Q, 0
    limit = n if blocks is None else blocks
    new = Q
    for step in range(1, limit):
        W = A @ new
        W = W - Q @ (Q.conj().T @ W)
        W = W - Q @ (Q.conj().T @ W)
        new = orth(W, scale)
        if new.shape[1] == 0:
            return Q, step
        Q = np.hstack([Q, new])
        if Q.shape[1] >= n:
            return Q, step + 1
    return Q, limit


def basis_problem(Q, n: int) -> str | None:
    Q = np.asarray(Q)
    if Q.ndim != 2 or Q.shape[0] != n or Q.shape[1] > n:
        return f"basis has shape {Q.shape}, expected ({n}, k<= {n})"
    if Q.shape[1] and np.abs(Q.conj().T @ Q - np.eye(Q.shape[1])).max() > ORTH_TOL:
        return "basis columns are not orthonormal"
    return None


def residual_outside(U, V) -> float:
    """Largest residual of V's columns after projection onto span(U)."""
    if V.shape[1] == 0:
        return 0.0
    if U.shape[1] == 0:
        return float(np.linalg.norm(V, axis=0).max())
    R = V - U @ (U.conj().T @ V)
    return float(np.linalg.norm(R, axis=0).max())


def intersection_dim(U, V) -> int:
    """dim(U ∩ V) = dim U + dim V - dim(U + V) for orthonormal bases."""
    if U.shape[1] == 0 or V.shape[1] == 0:
        return 0
    return U.shape[1] + V.shape[1] - rank(np.hstack([U, V]))


def check_complement(name: str, Q, dual_Q, n: int) -> str | None:
    """Q must be the orthogonal complement of ``dual_Q`` (V* of a system is
    the complement of S* of its dual, and the other way round)."""
    bad = basis_problem(Q, n)
    if bad:
        return f"{name}: {bad}"
    if Q.shape[1] + dual_Q.shape[1] != n:
        return f"{name}: dim {Q.shape[1]} + dual dim {dual_Q.shape[1]} != n = {n}"
    if Q.shape[1] and dual_Q.shape[1]:
        cross = float(np.abs(dual_Q.conj().T @ Q).max())
        if cross > SPAN_TOL:
            return f"{name}: not orthogonal to the dual subspace (|<.,.>| = {cross:.2e})"
    return None


def check_same_span(name: str, Q, ref, n: int) -> str | None:
    bad = basis_problem(Q, n)
    if bad:
        return f"{name}: {bad}"
    if Q.shape[1] != ref.shape[1]:
        return f"{name}: dim {Q.shape[1]}, oracle dim {ref.shape[1]}"
    gap = max(residual_outside(ref, Q), residual_outside(Q, ref))
    if gap > SPAN_TOL:
        return f"{name}: spans differ by {gap:.2e}"
    return None


def check_intersection(name: str, R, V, S, n: int) -> str | None:
    """R must equal V ∩ S."""
    bad = basis_problem(R, n)
    if bad:
        return f"{name}: {bad}"
    want = intersection_dim(V, S)
    if R.shape[1] != want:
        return f"{name}: dim {R.shape[1]}, dim(V* ∩ S*) = {want}"
    gap = max(residual_outside(V, R), residual_outside(S, R))
    if gap > SPAN_TOL:
        return f"{name}: not inside V* ∩ S* (residual {gap:.2e})"
    return None


def rosenbrock(sys, lam: complex) -> np.ndarray:
    n = sys.A.shape[0]
    top = np.hstack([sys.A - lam * np.eye(n), sys.B])
    return np.vstack([top, np.hstack([sys.C, sys.D])]).astype(complex)


def check_zeros(zeros, sys, match) -> str | None:
    """Square systems: the finite generalized eigenvalues of the Rosenbrock
    pencil.  Otherwise: the Rosenbrock matrix must lose rank at each zero."""
    zeros = [complex(z) for z in zeros]
    n, m, p = sys.A.shape[0], sys.B.shape[1], sys.C.shape[0]
    if m == p:
        M = np.block([[sys.A, sys.B], [sys.C, sys.D]])
        N = np.zeros_like(M)
        N[:n, :n] = np.eye(n)
        ev = scipy.linalg.eigvals(M, N)
        finite = [complex(v) for v in ev if np.isfinite(v) and abs(v) < 1e8]
        scale = max([1.0] + [abs(v) for v in finite])
        ok, worst = match(finite, zeros, EIG_REL * scale)
        if not ok:
            return (f"zeros: {len(zeros)} returned, {len(finite)} pencil eigenvalues, "
                    f"worst pairing {worst:.2e}")
        return None
    rng = np.random.default_rng(7)
    normal = max(rank(rosenbrock(sys, complex(*rng.uniform(-3, 3, 2)))) for _ in range(3))
    for z in zeros:
        if rank(rosenbrock(sys, z)) >= normal:
            return f"zeros: no rank drop of the Rosenbrock matrix at {z:.6g}"
    return None


def check_friend(F, sys, V) -> str | None:
    """(A+BF) V ⊆ V and (C+DF) V = 0, recomputed from F."""
    n, m = sys.B.shape
    F = np.asarray(F)
    if F.shape != (m, n) or (F.size and np.iscomplexobj(F) and np.abs(F.imag).max() > RES_TOL):
        return f"friend: F has shape {F.shape} or is not real"
    F = F.real
    Acl = sys.A + sys.B @ F
    scale = max(1.0, float(scipy.linalg.norm(Acl, 2)))
    if V.shape[1] == 0:
        return None
    mapped = Acl @ V
    res_inv = float(scipy.linalg.norm(mapped - V @ (V.conj().T @ mapped), 2))
    res_out = float(scipy.linalg.norm((sys.C + sys.D @ F) @ V, 2)) if sys.C.shape[0] else 0.0
    if res_inv > RES_TOL * scale or res_out > RES_TOL * scale:
        return f"friend: residuals invariance {res_inv:.2e}, output {res_out:.2e}"
    return None


def check_place(F, sys, lambdas, match) -> str | None:
    """Closed-loop eigenvalues of A+BF must match the requested multiset."""
    F = np.asarray(F).real
    ev = scipy.linalg.eigvals(sys.A + sys.B @ F)
    scale = max(1.0, max(abs(complex(v)) for v in lambdas))
    ok, worst = match(list(lambdas), list(ev), EIG_REL * scale)
    if not ok:
        return f"place: closed-loop spectrum off the request by {worst:.2e}"
    return None


def uncontrollable_count(sys) -> int:
    """Distinct eigenvalues of A at which [A - λI, B] loses rank."""
    n = sys.A.shape[0]
    count = 0
    seen: list[complex] = []
    scale = max(1e-8, 1e-9 * max(1.0, float(scipy.linalg.norm(sys.A, 2))))
    for lam in scipy.linalg.eigvals(sys.A):
        if any(abs(lam - mu) <= scale for mu in seen):
            continue
        seen.append(lam)
        count += rank(np.hstack([sys.A - lam * np.eye(n), sys.B])) < n
    return count
