"""Kernels of the reachability pencil [A - λI  B] and of the Rosenbrock
system matrix [[A - λI, B], [C, D]], plus the spectral bookkeeping built on
them: uncontrollable eigenvalues (PBH test), invariant zeros, and validation
of requested closed-loop spectra.

A pencil of a real system is built, and its kernel computed, in real
arithmetic at a real λ (zero imaginary part) and in complex arithmetic only
at a complex λ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpectrumError, ValidationError
from .linalg import DEFAULT_TOL, Tol, as_matrix, kernel_basis, rank_of
from .sysmodel import SystemQuad

__all__ = [
    "PencilKernel",
    "SpectrumSpec",
    "reach_pencil",
    "rosenbrock_matrix",
    "reach_pencil_kernel",
    "rosenbrock_kernel",
    "uncontrollable_eigenvalues",
    "normal_rank_rosenbrock",
    "invariant_zeros",
    "deduplicate_eigenvalues",
    "validate_spectrum",
    "spectrum_scale",
]


@dataclass(frozen=True, eq=False)
class PencilKernel:
    """Orthonormal kernel basis of a pencil at one eigenvalue, split into the
    state part V (n x q) and the input part W (m x q).

    ``q`` may be zero: a square Rosenbrock matrix away from the invariant
    zeros, for instance, has a trivial kernel.
    """

    lam: complex
    V: np.ndarray
    W: np.ndarray
    kind: str  # "reachability" | "rosenbrock"

    @property
    def q(self) -> int:
        return self.V.shape[1]


def _shifted(A: np.ndarray, lam: complex) -> np.ndarray:
    """A - λI, real when A and λ are real."""
    lam = complex(lam)
    return A - (lam if lam.imag else lam.real) * np.eye(A.shape[0])


def reach_pencil(A, B, lam: complex) -> np.ndarray:
    """The n x (n+m) matrix [A - λI  B]."""
    return np.hstack([_shifted(as_matrix(A, "A"), lam), as_matrix(B, "B")])


def rosenbrock_matrix(sys: SystemQuad, lam: complex) -> np.ndarray:
    """The (n+p) x (n+m) system matrix [[A - λI, B], [C, D]]."""
    top = np.hstack([_shifted(sys.A, lam), sys.B])
    return np.vstack([top, np.hstack([sys.C, sys.D])])


def _split_kernel(M: np.ndarray, n: int, lam: complex, kind: str, tol: Tol) -> PencilKernel:
    K = kernel_basis(M, tol).basis
    return PencilKernel(lam=complex(lam), V=K[:n], W=K[n:], kind=kind)


def reach_pencil_kernel(A, B, lam: complex, tol: Tol = DEFAULT_TOL) -> PencilKernel:
    """Kernel of [A - λI  B], split into state and input parts."""
    A = as_matrix(A, "A")
    return _split_kernel(reach_pencil(A, B, lam), A.shape[0], lam, "reachability", tol)


def rosenbrock_kernel(sys: SystemQuad, lam: complex, tol: Tol = DEFAULT_TOL) -> PencilKernel:
    """Kernel of the Rosenbrock matrix at λ, split into state and input parts."""
    if sys.p == 0:
        raise ValidationError("rosenbrock_kernel requires p >= 1; use reach_pencil_kernel")
    return _split_kernel(rosenbrock_matrix(sys, lam), sys.n, lam, "rosenbrock", tol)


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
    norm = float(np.linalg.norm(A, 2)) if A.size else 1.0
    return max(tol.abs, 100.0 * tol.rel * max(1.0, norm))


def uncontrollable_eigenvalues(A, B, tol: Tol = DEFAULT_TOL) -> list[complex]:
    """Eigenvalues of A at which [A - λI  B] drops below full row rank.

    This is the PBH test evaluated at each (deduplicated) eigenvalue of A;
    the returned list is multiplicity-free.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    n = A.shape[0]
    eigs = deduplicate_eigenvalues(np.linalg.eigvals(A), _eig_scale(A, tol))
    return [lam for lam in eigs if rank_of(reach_pencil(A, B, lam), tol) < n]


# Deterministic sample points for the normal-rank estimate.  Rank drop occurs
# on a measure-zero set, so a handful of fixed generic points suffices.
_NORMAL_RANK_SAMPLES = 5


def normal_rank_rosenbrock(sys: SystemQuad, tol: Tol = DEFAULT_TOL) -> int:
    """Normal rank of the Rosenbrock matrix, as the max over seeded random λ."""
    rng = np.random.default_rng(20240917)
    scale = 1.0 + float(np.abs(np.linalg.eigvals(sys.A)).max())
    best = 0
    for _ in range(_NORMAL_RANK_SAMPLES):
        lam = complex(*rng.uniform(-scale, scale, 2))
        best = max(best, rank_of(rosenbrock_matrix(sys, lam), tol))
    return best


def invariant_zeros(sys: SystemQuad, tol: Tol = DEFAULT_TOL) -> list[complex]:
    """Finite invariant zeros of the quadruple, with multiplicity.

    Computed as the spectrum of the middle diagonal block of the triangular
    form produced by :func:`geokit.geometry.morse_decomposition` (the map
    induced between the supremal output-nulling subspace and its reachability
    part).  Use :func:`deduplicate_eigenvalues` for the zero set without
    multiplicities, and :func:`normal_rank_rosenbrock` to cross-check each
    zero as a rank-drop point of the Rosenbrock matrix.
    """
    from . import geometry  # deferred: geometry depends on this module

    dec = geometry.morse_decomposition(sys, tol)
    return [complex(z) for z in dec.invariant_zeros]


@dataclass(frozen=True, eq=False)
class SpectrumSpec:
    """A self-conjugate list of distinct requested eigenvalues.

    ``partner[i]`` is the index of the conjugate partner of ``lambdas[i]``
    (its own index for real entries); it is filled by
    :func:`validate_spectrum`.
    """

    lambdas: tuple[complex, ...]
    partner: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(complex(v) for v in self.lambdas))
        object.__setattr__(self, "partner", tuple(int(i) for i in self.partner))

    def __len__(self) -> int:
        return len(self.lambdas)

    def is_real(self, i: int) -> bool:
        return self.partner[i] == i


def spectrum_scale(lambdas, tol: Tol) -> float:
    """Comparison scale for eigenvalue coincidence tests."""
    mags = [abs(complex(v)) for v in lambdas] or [1.0]
    return max(tol.abs, tol.rel * max(1.0, max(mags)))


def validate_spectrum(
    spec: SpectrumSpec | list | tuple,
    forbidden=(),
    tol: Tol = DEFAULT_TOL,
) -> SpectrumSpec:
    """Check distinctness, self-conjugacy, and distance from a forbidden set.

    Returns a new :class:`SpectrumSpec` with conjugate pairing computed.
    The forbidden set (uncontrollable eigenvalues or invariant zeros) must be
    cleared by a margin of ten comparison scales; closer choices produce
    ill-conditioned kernels.
    """
    lambdas = tuple(complex(v) for v in (spec.lambdas if isinstance(spec, SpectrumSpec) else spec))
    if not lambdas:
        raise SpectrumError("empty spectrum")
    scale = spectrum_scale(lambdas, tol)
    h = len(lambdas)
    for i in range(h):
        for j in range(i + 1, h):
            if abs(lambdas[i] - lambdas[j]) <= scale:
                raise SpectrumError(
                    f"eigenvalues {lambdas[i]} and {lambdas[j]} are not distinct"
                )
    partner = [-1] * h
    for i, lam in enumerate(lambdas):
        if abs(lam.imag) <= scale:
            partner[i] = i
            continue
        matches = [j for j, mu in enumerate(lambdas) if abs(mu - lam.conjugate()) <= scale]
        if not matches:
            raise SpectrumError(f"spectrum is not self-conjugate: no partner for {lam}")
        partner[i] = matches[0]
    margin = 10.0 * scale
    for lam in lambdas:
        for z in forbidden:
            if abs(lam - complex(z)) <= margin:
                raise SpectrumError(
                    f"eigenvalue {lam} is within {margin:.2e} of forbidden value {complex(z)}"
                )
    return SpectrumSpec(lambdas=lambdas, partner=tuple(partner))
