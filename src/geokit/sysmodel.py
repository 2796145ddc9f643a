"""State-space quadruples (A, B, C, D): data model, JSON file I/O, and
seeded random generation for the verification sweeps.

The file format is a UTF-8 JSON object with keys ``"A"``, ``"B"`` and,
optionally, ``"C"`` and ``"D"`` (present together or absent together).  Each
value is a non-empty array of equal-length arrays of finite numbers.  A
missing C/D pair encodes a system without outputs (p = 0).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import GenerationError, SystemFormatError, ValidationError
from .linalg import DEFAULT_TOL, Tol, as_matrix, norm2

__all__ = ["SystemQuad", "GenSpec", "load_system", "dump_system", "random_system", "dual_of"]

_RETRY_BUDGET = 100


def _real_matrix(a, name: str) -> np.ndarray:
    """A finite, read-only 2-D float64 array; complex input needs zero imaginary parts.

    A caller's writable array is copied before it is frozen, so it stays
    writable; a read-only array that owns its data is shared."""
    M = as_matrix(a, name)
    if M.dtype.kind == "c":
        if M.imag.any():
            raise ValidationError(f"{name} has entries with a nonzero imaginary part")
        M = M.real
    if M.flags.writeable or not M.flags.owndata:
        M = M.copy()
    M.setflags(write=False)
    return M


@dataclass(frozen=True)
class SystemQuad:
    """An LTI quadruple x' = Ax + Bu, y = Cx + Du with real entries.

    ``p = 0`` (no outputs) is encoded by C and D with zero rows.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = _real_matrix(self.A, "A")
        B = _real_matrix(self.B, "B")
        C = _real_matrix(self.C, "C")
        D = _real_matrix(self.D, "D")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValidationError(f"A must be square, got {A.shape}")
        if n < 1:
            raise ValidationError("state dimension must be at least 1")
        if B.shape[0] != n or B.shape[1] < 1:
            raise ValidationError(f"B must be n x m with m >= 1, got {B.shape}")
        m = B.shape[1]
        if C.shape[1] != n:
            raise ValidationError(f"C must have {n} columns, got {C.shape}")
        p = C.shape[0]
        if D.shape != (p, m):
            raise ValidationError(f"D must be {p} x {m}, got {D.shape}")
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            object.__setattr__(self, name, M)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    # Spectral norms the rank decisions of geokit.geometry scale by, computed
    # once per system.  Each is the norm of the block as its caller stacks it:
    # a norm and the norm of the transpose can differ in the last bit.

    @cached_property
    def _stair_scales(self) -> tuple[float, float]:
        """(‖[A B]‖₂, ‖[C D]‖₂) for the staircase run of the system (0.0 for p = 0)."""
        return norm2(np.hstack([self.A, self.B])), norm2(np.hstack([self.C, self.D]))

    @cached_property
    def _dual_stair_scales(self) -> tuple[float, float]:
        """(‖[Aᵀ Cᵀ]‖₂, ‖[Bᵀ Dᵀ]‖₂) for the staircase run of the dual system."""
        return (norm2(np.hstack([self.A.T, self.C.T])),
                norm2(np.hstack([self.B.T, self.D.T])))

    @cached_property
    def _bd_scale(self) -> float:
        """‖[B; D]‖₂."""
        return norm2(np.vstack([self.B, self.D]))

    @cached_property
    def _ac_scale(self) -> float:
        """‖[A; C]‖₂."""
        return norm2(np.vstack([self.A, self.C]))

    @classmethod
    def from_matrices(cls, A, B, C=None, D=None) -> "SystemQuad":
        """Build a quadruple; omit C and D for a system without outputs."""
        if (C is None) != (D is None):
            raise ValidationError("C and D must be given together or not at all")
        if C is None:
            A, B = _real_matrix(A, "A"), _real_matrix(B, "B")
            C, D = np.zeros((0, A.shape[0])), np.zeros((0, B.shape[1]))
        return cls(A=A, B=B, C=C, D=D)

    def to_dict(self) -> dict:
        d = {"A": self.A.tolist(), "B": self.B.tolist()}
        if self.p:
            d["C"] = self.C.tolist()
            d["D"] = self.D.tolist()
        return d


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one random system draw."""

    n: int
    m: int
    p: int = 0
    seed: int = 0
    controllable: bool = False
    target_dim_rstar: int | None = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.p < 0:
            raise ValidationError("need n >= 1, m >= 1, p >= 0")
        if self.m > self.n:
            raise ValidationError(f"m = {self.m} exceeds n = {self.n}")
        if self.p > self.n:
            raise ValidationError(f"p = {self.p} exceeds n = {self.n}")


def _parse_json_matrix(obj, key: str) -> list[list[float]]:
    if not isinstance(obj, list) or not obj:
        raise SystemFormatError(f'"{key}" must be a non-empty array of arrays')
    rows = []
    width = None
    for r, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise SystemFormatError(f'"{key}" row {r} is not a non-empty array')
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SystemFormatError(
                f'"{key}" has ragged rows: row {r} has {len(row)} entries, expected {width}'
            )
        vals = []
        for c, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, float):
                raise SystemFormatError(f'"{key}"[{r}][{c}] is not a number')
            if not np.isfinite(v):
                raise SystemFormatError(f'"{key}"[{r}][{c}] is not finite')
            vals.append(v)
        rows.append(vals)
    return rows


def load_system(path) -> SystemQuad:
    """Load and validate a quadruple from a JSON system file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise SystemFormatError(f"system file is not UTF-8: {e}") from e
    try:
        data = json.loads(text, parse_int=float)  # an integer past the float range is inf
    except json.JSONDecodeError as e:
        raise SystemFormatError(f"malformed JSON: {e}") from e
    if not isinstance(data, dict):
        raise SystemFormatError("top-level JSON value must be an object")
    for key in ("A", "B"):
        if key not in data:
            raise SystemFormatError(f'missing required key "{key}"')
    if ("C" in data) != ("D" in data):
        raise SystemFormatError('"C" and "D" must be present together or absent together')
    A = _parse_json_matrix(data["A"], "A")
    B = _parse_json_matrix(data["B"], "B")
    C = D = None
    if "C" in data:
        C = _parse_json_matrix(data["C"], "C")
        D = _parse_json_matrix(data["D"], "D")
    try:
        return SystemQuad.from_matrices(A, B, C, D)
    except ValidationError as e:
        raise SystemFormatError(str(e)) from e


def dump_system(sys: SystemQuad, path) -> None:
    """Write a quadruple to a JSON system file."""
    Path(path).write_text(json.dumps(sys.to_dict(), indent=2), encoding="utf-8")


def random_system(spec: GenSpec, tol: Tol = DEFAULT_TOL) -> SystemQuad:
    """Draw a standard-normal quadruple, deterministically from ``spec.seed``.

    With ``controllable`` set, redraws until the reachable subspace is the
    whole state space.  With ``target_dim_rstar`` set, redraws until the
    largest output-nulling reachability subspace has the requested dimension.
    Raises :class:`GenerationError` once the retry budget is exhausted.
    """
    from . import geometry  # deferred: geometry depends on this module

    rng = np.random.default_rng(spec.seed)
    for _ in range(_RETRY_BUDGET):
        A = rng.standard_normal((spec.n, spec.n))
        B = rng.standard_normal((spec.n, spec.m))
        C = rng.standard_normal((spec.p, spec.n))  # a draw of size 0 consumes nothing
        D = rng.standard_normal((spec.p, spec.m))
        sys = SystemQuad.from_matrices(A, B, C, D)
        if spec.controllable and geometry.krylov_image(A, B, spec.n, tol).dim != spec.n:
            continue
        if spec.target_dim_rstar is not None and geometry.rstar(sys, tol).dim != spec.target_dim_rstar:
            continue
        return sys
    raise GenerationError(
        f"no system matching {spec} found within {_RETRY_BUDGET} draws"
    )


def dual_of(sys: SystemQuad) -> SystemQuad:
    """The dual quadruple (A', C', B', D')."""
    if sys.p == 0:
        raise ValidationError("dual requires p >= 1")
    return SystemQuad.from_matrices(sys.A.T, sys.C.T, sys.B.T, sys.D.T)
