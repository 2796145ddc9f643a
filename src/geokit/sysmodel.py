"""State-space quadruples (A, B, C, D): data model, JSON file I/O, and
seeded standard-normal draws for the verification sweeps.

A :class:`SystemQuad` is immutable: its arrays are read-only.  So what does
not depend on a requested eigenvalue is computed once and kept on it: the
spectral norms the rank decisions scale by, the Gram coefficients of the
system matrix that prove its full rank at a requested λ and, once per
tolerance, the staircases, the friend of V*, the subspaces V*, S* and R*
and the Morse frame of :mod:`geokit.geometry`.

The file format is a UTF-8 JSON object with keys ``"A"``, ``"B"`` and,
optionally, ``"C"`` and ``"D"`` (present together or absent together).  Each
value is a non-empty array of equal-length arrays of finite numbers.  A
missing C/D pair encodes a system without outputs (p = 0).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import SystemFormatError, ValidationError
from .linalg import _frozen, _pencil_gram, as_matrix, norm2

__all__ = ["SystemQuad", "GenSpec", "load_system", "dump_system", "random_system", "dual_of"]


def _real_matrix(a, name: str) -> np.ndarray:
    """A finite, read-only 2-D float64 array (:func:`geokit.linalg._frozen`);
    complex input needs zero imaginary parts."""
    M = as_matrix(a, name)
    if M.dtype.kind == "c":
        if M.imag.any():
            raise ValidationError(f"{name} has entries with a nonzero imaginary part")
        M = M.real
    return _frozen(M)


@dataclass(frozen=True, eq=False)
class SystemQuad:
    """An LTI quadruple x' = Ax + Bu, y = Cx + Du with real entries.

    ``p = 0`` (no outputs) is encoded by C and D with zero rows.  Two
    systems are equal only when they are the same object, and hash by
    identity, like the structure kept on each (``_memo``).
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
    # once per system.  The dual staircase stacks [Aᵀ Cᵀ] and [Bᵀ Dᵀ] and scales
    # by the norms of [A; C] and [B; D]: a transpose moves a norm by a few units
    # in the last place, and a scale only floors a rank threshold.

    @cached_property
    def _stair_scales(self) -> tuple[float, float]:
        """(‖[A B]‖₂, ‖[C D]‖₂) for the staircase run of the system (0.0 for p = 0)."""
        return norm2(np.hstack([self.A, self.B])), norm2(np.hstack([self.C, self.D]))

    @cached_property
    def _bd_scale(self) -> float:
        """‖[B; D]‖₂."""
        return norm2(np.vstack([self.B, self.D]))

    @cached_property
    def _ac_scale(self) -> float:
        """‖[A; C]‖₂."""
        return norm2(np.vstack([self.A, self.C]))

    @cached_property
    def _pencil_gram(self):
        """The Gram coefficients of the system matrix [[A − λI, B], [C, D]]
        as a quadratic in λ, from which :mod:`geokit.pencils` proves a full
        rank at each requested λ (:func:`geokit.linalg._pencil_gram`,
        :func:`geokit.linalg._pencil_proof`): built on first use, one Gram
        product per system, whatever the tolerance, and the only Gram
        product geokit forms."""
        top, bottom = np.concatenate((self.A, self.B), 1), np.concatenate((self.C, self.D), 1)
        return _pencil_gram(np.concatenate((top, bottom)), self.n)

    @cached_property
    def _memo(self) -> dict:
        """The eigenvalue-independent structure :mod:`geokit.geometry` builds
        on this system, keyed by (build, Tol): filled on first use, read-only,
        and dropped with the system."""
        return {}

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
        # A row of finite floats passes at C speed; only a bad row is walked
        # entry by entry, to name its first bad entry.
        if set(map(type, row)) != {float} or not all(map(math.isfinite, row)):
            for c, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, float):
                    raise SystemFormatError(f'"{key}"[{r}][{c}] is not a number')
                if not math.isfinite(v):
                    raise SystemFormatError(f'"{key}"[{r}][{c}] is not finite')
    return obj


def load_system(path, *, data: bytes | None = None) -> SystemQuad:
    """Load and validate a quadruple from a JSON system file.

    ``data``, when given, holds the bytes already read from ``path``, as
    the CLI reads them for the report's digest: they are parsed, and the
    file is not read again, so the system is the one digested.  The bytes
    are decoded as a text read of the file decodes them: UTF-8, with
    ``\r\n`` and ``\r`` read as ``\n``, which JSON error positions count.
    """
    if data is None:
        data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise SystemFormatError(f"system file is not UTF-8: {e}") from e
    if "\r" in text:  # universal newlines
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        obj = json.loads(text, parse_int=float)  # an integer past the float range is inf
    except json.JSONDecodeError as e:
        raise SystemFormatError(f"malformed JSON: {e}") from e
    if not isinstance(obj, dict):
        raise SystemFormatError("top-level JSON value must be an object")
    for key in ("A", "B"):
        if key not in obj:
            raise SystemFormatError(f'missing required key "{key}"')
    if ("C" in obj) != ("D" in obj):
        raise SystemFormatError('"C" and "D" must be present together or absent together')
    A = _parse_json_matrix(obj["A"], "A")
    B = _parse_json_matrix(obj["B"], "B")
    C = D = None
    if "C" in obj:
        C = _parse_json_matrix(obj["C"], "C")
        D = _parse_json_matrix(obj["D"], "D")
    try:
        return SystemQuad.from_matrices(A, B, C, D)
    except ValidationError as e:
        raise SystemFormatError(str(e)) from e


def dump_system(sys: SystemQuad, path) -> None:
    """Write a quadruple to a JSON system file."""
    Path(path).write_text(_json_text(sys.to_dict(), 2), encoding="utf-8")


def _json_float(x: float) -> str:
    """A float as ``json.dumps`` writes it."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_text(obj, indent: int | None) -> str:
    """``json.dumps(obj, indent=indent)``, byte for byte, for the values
    geokit writes.

    With an indent, json writes through its pure-Python encoder, one call per
    value.  Here a list of plain floats, a matrix row, is one ``str.join``
    over ``float.__repr__``; keys and strings go through json's own
    ``encode_basestring_ascii``.  A key that is not a string, or a value of
    any other type than dict, list, tuple, str, int, float, bool and None,
    raises ``TypeError``; neither a report nor a system file holds one.
    Without an indent json's C encoder writes.
    """
    if indent is None:
        return json.dumps(obj)
    out: list[str] = []
    _write_json(obj, out, " " * indent, "\n")
    return "".join(out)


def _write_json(obj, out: list[str], step: str, nl: str) -> None:
    """Append the pieces of ``obj`` at the depth whose line break is ``nl``."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_json_float(obj))
    elif not isinstance(obj, (list, tuple, dict)):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    elif not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        inner = nl + step
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(("," if i else "") + inner + encode_basestring_ascii(key) + ": ")
            _write_json(value, out, step, inner)
        out.append(nl + "}")
    elif set(map(type, obj)) == {float}:
        sep = "," + nl + step
        text = sep.join(map(float.__repr__, obj))
        if "n" in text:  # a nan, inf or -inf among them
            text = sep.join(map(_json_float, obj))
        out.append("[" + nl + step + text + nl + "]")
    else:
        inner = nl + step
        out.append("[")
        for i, value in enumerate(obj):
            out.append(("," if i else "") + inner)
            _write_json(value, out, step, inner)
        out.append(nl + "]")


def random_system(spec: GenSpec) -> SystemQuad:
    """Draw a standard-normal quadruple, deterministically from ``spec.seed``:
    A, B, C and D in that order, from one ``numpy.random.default_rng``."""
    rng = np.random.default_rng(spec.seed)
    A = rng.standard_normal((spec.n, spec.n))
    B = rng.standard_normal((spec.n, spec.m))
    C = rng.standard_normal((spec.p, spec.n))  # a draw of size 0 consumes nothing
    D = rng.standard_normal((spec.p, spec.m))
    return SystemQuad.from_matrices(A, B, C, D)


def dual_of(sys: SystemQuad) -> SystemQuad:
    """The dual quadruple (A', C', B', D')."""
    if sys.p == 0:
        raise ValidationError("dual requires p >= 1")
    return SystemQuad.from_matrices(sys.A.T, sys.C.T, sys.B.T, sys.D.T)
