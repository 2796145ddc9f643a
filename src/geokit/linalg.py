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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    "realify_subspace",
]


@dataclass(frozen=True)
class Tol:
    """Numerical tolerances.

    ``rel`` scales the singular-value cutoff used for every rank decision;
    ``abs`` bounds residuals in containment tests and synthesis checks.
    """

    rel: float = 1e-11
    abs: float = 1e-8

    def __post_init__(self):
        if not (self.rel > 0.0):
            raise ValidationError("Tol.rel must be positive")
        if not (self.abs >= 0.0):
            raise ValidationError("Tol.abs must be nonnegative")


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


def _svd_rank(s: np.ndarray, shape, tol: Tol, scale: float | None = None) -> int:
    if s.size == 0:
        return 0
    # ``scale`` guards products that are mathematically zero: their largest
    # singular value is roundoff, and a purely relative cutoff would promote
    # the noise to full rank.
    thresh = tol.rel * max(s[0], scale or 0.0) * max(shape)
    return int(np.count_nonzero(s > thresh))


def rank_of(M, tol: Tol = DEFAULT_TOL, scale: float | None = None) -> int:
    """Numerical rank: number of singular values above the relative cutoff.

    ``scale``, when given, enters the cutoff as a floor for the largest
    singular value; pass the norm of the factors when ``M`` is a product
    that may be zero up to roundoff.
    """
    M = as_matrix(M)
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return _svd_rank(s, M.shape, tol, scale)


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
        # Own the storage: a caller's array stays writable, and a basis cut
        # from an SVD factor does not keep the whole factor alive.
        B = as_matrix(basis, "basis").copy()
        n, k = B.shape
        if k > n:
            raise ValidationError(f"basis has more columns ({k}) than rows ({n})")
        if k:
            gram = B.conj().T @ B
            if np.abs(gram - np.eye(k)).max() > 1e-9:
                raise ValidationError("basis columns are not orthonormal")
        B.setflags(write=False)
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

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(np.eye(n))

    @classmethod
    def from_span(cls, M, tol: Tol = DEFAULT_TOL) -> "Subspace":
        """Orthonormalize the columns of ``M`` into a Subspace."""
        return image_basis(M, tol)

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace, as an (n, n) matrix."""
        return self.basis @ self.basis.conj().T

    def perp_projector(self) -> np.ndarray:
        """Orthogonal projector onto the orthogonal complement."""
        return np.eye(self.ambient_dim) - self.projector()

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def kernel_basis(M, tol: Tol = DEFAULT_TOL, scale: float | None = None) -> Subspace:
    """Orthonormal basis of the null space of ``M``.

    ``dim(kernel) + rank_of(M) == cols(M)`` holds exactly because both sides
    use the same singular-value cutoff.  A matrix with zero rows has the full
    ambient space as its kernel.
    """
    M = as_matrix(M)
    rows, cols = M.shape
    if cols == 0:
        return Subspace.zero(0)
    if rows == 0:
        return Subspace.full(cols)
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    r = _svd_rank(s, M.shape, tol, scale)
    return Subspace(vh[r:].conj().T)


def image_basis(M, tol: Tol = DEFAULT_TOL, scale: float | None = None) -> Subspace:
    """Orthonormal basis of the column space of ``M``."""
    M = as_matrix(M)
    rows, cols = M.shape
    if rows == 0:
        return Subspace.zero(0)
    if cols == 0:
        return Subspace.zero(rows)
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    r = _svd_rank(s, M.shape, tol, scale)
    return Subspace(u[:, :r])


def pinv(M, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via rank-truncated SVD."""
    M = as_matrix(M)
    rows, cols = M.shape
    if M.size == 0:
        return np.zeros((cols, rows), dtype=M.dtype)
    u, s, vh = np.linalg.svd(M, full_matrices=False)
    r = _svd_rank(s, M.shape, tol)
    if r == 0:
        return np.zeros((cols, rows), dtype=M.dtype)
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
    ``dim(U+V) + dim(U∩V) = dim U + dim V`` an exact integer identity.
    """
    _check_same_ambient(U, V)
    ku = U.dim
    if ku == 0 or V.dim == 0:
        return Subspace.zero(U.ambient_dim)
    N = kernel_basis(np.hstack([U.basis, -V.basis]), tol)
    if N.dim == 0:
        return Subspace.zero(U.ambient_dim)
    return image_basis(U.basis @ N.basis[:ku], tol)


def preimage(M, S: Subspace, tol: Tol = DEFAULT_TOL) -> Subspace:
    """{x : M x ∈ S}, the inverse image of S under the map M."""
    M = as_matrix(M)
    if M.shape[0] != S.ambient_dim:
        raise ValidationError(
            f"map has {M.shape[0]} rows but subspace ambient is {S.ambient_dim}"
        )
    scale = float(np.linalg.norm(M, 2)) if M.size else 0.0
    return kernel_basis(S.perp_projector() @ M, tol, scale=scale)


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
    """Orthogonal complement of S in its ambient space."""
    return kernel_basis(S.basis.conj().T, tol) if S.dim else Subspace.full(S.ambient_dim)


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


def realify_subspace(S: Subspace, tol: Tol = DEFAULT_TOL) -> Subspace:
    """Re-express a conjugation-closed subspace with a real basis.

    A real basis is returned as is.  Raises if the real span of (Re, Im)
    parts has larger dimension than S, which means S was not closed under
    conjugation.
    """
    if S.dim == 0 or not np.iscomplexobj(S.basis):
        return S
    if max_imag(S.basis) <= tol.abs:
        return image_basis(S.basis.real, tol)
    R = image_basis(np.hstack([S.basis.real, S.basis.imag]), tol)
    if R.dim != S.dim:
        raise ValidationError("subspace is not closed under conjugation")
    return R
