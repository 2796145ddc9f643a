import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geokit import linalg
from geokit.errors import ValidationError
from geokit.linalg import (
    DEFAULT_TOL,
    Subspace,
    Tol,
    _completion,
    _svd_rank,
    as_matrix,
    contains,
    equals,
    image_basis,
    kernel_basis,
    max_imag,
    norm2,
    orthonormal_complement,
    pinv,
    preimage,
    rank_of,
    require_real,
    subspace_intersect,
    subspace_sum,
    svd,
)

from proof_limit import proof_limit


def span(*cols):
    return image_basis(np.column_stack([np.asarray(c, dtype=complex) for c in cols]))


E1, E2, E3 = np.eye(3)[:, 0], np.eye(3)[:, 1], np.eye(3)[:, 2]


class TestTol:
    def test_defaults(self):
        assert DEFAULT_TOL.rel == 1e-11 and DEFAULT_TOL.abs == 1e-8

    def test_invalid(self):
        with pytest.raises(ValidationError):
            Tol(rel=0.0)
        with pytest.raises(ValidationError):
            Tol(abs=-1.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"rel": float("inf")}, "Tol.rel must be below 1"),
        ({"rel": 1.0}, "Tol.rel must be below 1"),
        ({"rel": float("nan")}, "Tol.rel must be positive"),
        ({"abs": float("inf")}, "Tol.abs must be finite"),
        ({"abs": float("nan")}, "Tol.abs must be nonnegative"),
    ])
    def test_non_finite_or_total_cutoffs(self, kwargs, message):
        # rel ≥ 1 counts no singular value, abs = inf passes every residual
        with pytest.raises(ValidationError, match=message):
            Tol(**kwargs)


class TestRank:
    def test_identity(self):
        assert rank_of(np.eye(3)) == 3

    def test_zero(self):
        assert rank_of(np.zeros((2, 5))) == 0

    def test_two_by_two(self):
        # det [[1,1],[-1,-2]] = -1, nonzero by hand
        assert rank_of([[1, 1], [-1, -2]]) == 2

    def test_empty(self):
        assert rank_of(np.zeros((0, 4))) == 0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            rank_of([[np.nan, 0.0]])

    def test_dtype_follows_data(self):
        assert as_matrix([[1, 2], [3, 4]]).dtype == np.float64
        assert as_matrix(np.eye(2)).dtype == np.float64
        assert as_matrix([[1.0, 2j]]).dtype == np.complex128


class TestKernel:
    def test_zero_map_full_kernel(self):
        K = kernel_basis(np.zeros((2, 3)))
        assert K.dim == 3

    def test_identity_trivial_kernel(self):
        assert kernel_basis(np.eye(3)).dim == 0

    def test_companion_chain_pencil(self):
        # [A - lambda*I  B] for the 3-chain at lambda = -1; back substitution
        # gives v = (1, lambda, lambda^2), w = lambda^3 up to scale.
        A = np.array([[0.0, 1, 0], [0, 0, 1], [0, 0, 0]])
        B = np.eye(3)[:, 2:]
        lam = -1.0
        K = kernel_basis(np.hstack([A - lam * np.eye(3), B]))
        assert K.dim == 1
        v = K.basis[:, 0]
        v = v / v[0]
        assert np.allclose(v.real, [1.0, -1.0, 1.0, -1.0], atol=1e-12)

    def test_rank_nullity_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            M = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6)))
            assert kernel_basis(M).dim + rank_of(M) == M.shape[1]

    def test_real_input_gives_real_basis(self):
        M = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        K = kernel_basis(M)
        assert K.dim == 2 and K.basis.dtype == np.float64
        assert kernel_basis(M + 0j).basis.dtype == np.complex128


class TestImage:
    def test_identity(self):
        assert image_basis(np.eye(4)).dim == 4

    def test_zero(self):
        assert image_basis(np.zeros((3, 2))).dim == 0

    def test_proportional_columns(self):
        S = image_basis([[1.0, 2.0], [2.0, 4.0]])
        assert S.dim == 1
        v = S.basis[:, 0]
        expected = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert min(np.linalg.norm(v.real - expected), np.linalg.norm(v.real + expected)) < 1e-12

    def test_real_input_gives_real_basis(self):
        assert image_basis([[1.0, 2.0], [2.0, 4.0]]).basis.dtype == np.float64
        assert image_basis([[1.0, 2j], [2.0, 4j]]).basis.dtype == np.complex128


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(3)), np.eye(3))

    def test_zero(self):
        assert pinv(np.zeros((2, 3))).shape == (3, 2)
        assert np.all(pinv(np.zeros((2, 3))) == 0)

    def test_dtype_follows_input(self):
        for M in (np.eye(2), np.zeros((2, 3)), np.zeros((0, 3))):
            assert pinv(M).dtype == np.float64
            assert pinv(M + 0j).dtype == np.complex128

    def test_exact_inverse(self):
        # adjugate of [[1,1],[-1,-2]]: inverse = [[2,1],[-1,-1]]
        P = pinv([[1.0, 1.0], [-1.0, -2.0]])
        assert np.allclose(P.real, [[2.0, 1.0], [-1.0, -1.0]], atol=1e-12)

    def test_penrose_identities(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            M = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6)))
            if rng.uniform() < 0.3:  # rank-deficient case
                M[:, -1] = M[:, 0] if M.shape[1] > 1 else M[:, -1]
            P = pinv(M)
            assert np.linalg.norm(M @ P @ M - M) < 1e-8
            assert np.linalg.norm(P @ M @ P - P) < 1e-8
            assert np.linalg.norm((M @ P).conj().T - M @ P) < 1e-8
            assert np.linalg.norm((P @ M).conj().T - P @ M) < 1e-8


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("shape, kernel_dim", [((0, 3), 3), ((3, 0), 0), ((0, 0), 0)])
def test_empty_shapes(shape, kernel_dim, dtype):
    """An empty matrix takes the SVD path: rank 0, a kernel of the full
    input space, a zero image, and bases of the input's dtype."""
    M = np.zeros(shape, dtype)
    rows, cols = shape
    K, R = kernel_basis(M), image_basis(M)
    assert rank_of(M) == 0
    assert (K.dim, K.ambient_dim) == (kernel_dim, cols)
    assert (R.dim, R.ambient_dim) == (0, rows)
    assert K.basis.dtype == R.basis.dtype == dtype
    P = pinv(M)
    assert P.shape == (cols, rows) and P.dtype == dtype


def _svd_inputs():
    """Seeded real and complex matrices in C order, F order and as strided
    views, rank-deficient ones and empty ones included."""
    rng = np.random.default_rng(20261018)
    shapes = [(1, 1), (1, 6), (6, 1), (3, 5), (5, 3), (8, 11), (11, 8), (7, 7), (12, 4)]
    cases = []
    for kind in ("real", "complex"):
        for m, n in shapes:
            M = rng.standard_normal((m, 2 * n))
            if kind == "complex":
                M = M + 1j * rng.standard_normal(M.shape)
            C = M[:, :n].copy()
            if min(m, n) > 1:  # a repeated column: one zero singular value
                C[:, -1] = C[:, 0]
            cases += [(f"{kind}-{m}x{n}-C", C), (f"{kind}-{m}x{n}-F", np.asfortranarray(M[:, :n])),
                      (f"{kind}-{m}x{n}-strided", M[:, ::2])]
        # large enough for LAPACK's blocked code, whose path depends on the
        # workspace (complex ones stay below the size where the bits of
        # numpy's own SVD vary with the number of BLAS threads)
        for m, n in [(40, 43)] + [(100, 40)] * (kind == "real"):
            M = rng.standard_normal((m, n))
            cases.append((f"{kind}-{m}x{n}", M + 1j * M[::-1] if kind == "complex" else M))
        for m, n in [(0, 4), (4, 0), (0, 0)]:
            cases.append((f"{kind}-{m}x{n}-empty", np.zeros((m, n), complex if kind == "complex" else float)))
    return cases


SVD_INPUTS = _svd_inputs()
SVD_IDS = [name for name, _ in SVD_INPUTS]


def _same_bits(a, b) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            and a.flags.c_contiguous == b.flags.c_contiguous)


class TestSvdPrimitive:
    """``linalg.svd`` and ``linalg.norm2`` reproduce numpy bit for bit."""

    @pytest.mark.parametrize("M", [M for _, M in SVD_INPUTS], ids=SVD_IDS)
    @pytest.mark.parametrize("full_matrices", [True, False], ids=["full", "thin"])
    def test_factors_match_numpy(self, M, full_matrices):
        got = svd(M, full_matrices=full_matrices)
        want = np.linalg.svd(M, full_matrices=full_matrices)
        assert all(_same_bits(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("M", [M for _, M in SVD_INPUTS], ids=SVD_IDS)
    def test_values_and_norm_match_numpy(self, M):
        assert _same_bits(svd(M, compute_uv=False), np.linalg.svd(M, compute_uv=False))
        if M.size:
            assert norm2(M) == np.linalg.norm(M, 2)
        else:
            assert norm2(M) == 0.0

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_nan_raises(self, dtype):
        M = np.ones((3, 4), dtype)
        M[1, 2] = np.nan
        for kwargs in ({}, {"full_matrices": False}, {"compute_uv": False}):
            with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
                svd(M, **kwargs)
        with pytest.raises(np.linalg.LinAlgError):
            norm2(M)

    def test_empty_never_reaches_lapack(self, capfd):
        for shape in [(0, 3), (3, 0), (0, 0)]:
            for dtype in (float, complex):
                M = np.zeros(shape, dtype)
                svd(M)
                svd(M, full_matrices=False)
                svd(M, compute_uv=False)
                norm2(M)
                assert rank_of(M) == 0
        assert capfd.readouterr() == ("", "")


SRC = Path(__file__).resolve().parent.parent / "src" / "geokit"


# numpy routines that run an SVD: each decides a rank with its own cutoff
_NUMPY_SVD_USERS = ("svd", "lstsq", "pinv", "matrix_rank")


def _svd_bypasses(source: str) -> list[int]:
    """Lines that call numpy's SVD or spectral norm instead of ``linalg.svd``
    and ``linalg.norm2``: any use of ``np.linalg.svd``, ``lstsq``, ``pinv``
    or ``matrix_rank``, and ``np.linalg.norm`` with an ``ord`` that is 2,
    -2, "nuc" or not a constant."""
    def np_linalg(node) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "linalg"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            if any(alias.name in _NUMPY_SVD_USERS + ("norm",) for alias in node.names):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in _NUMPY_SVD_USERS
              and np_linalg(node.value)):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "norm" and np_linalg(node.func.value)):
            order = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "ord"), None)
            if order is not None and not (isinstance(order, ast.Constant)
                                          and order.value not in (2, -2, "nuc")):
                lines.append(node.lineno)
    return sorted(lines)


class TestOneSvdPrimitive:
    """Every SVD in geokit goes through ``linalg.svd``, every spectral norm
    through ``linalg.norm2``: one place to count or record rank decisions."""

    def test_sources_use_the_primitive(self):
        files = sorted(SRC.glob("*.py"))
        assert files
        bypasses = {f.name: _svd_bypasses(f.read_text(encoding="utf-8")) for f in files}
        assert {name: lines for name, lines in bypasses.items() if lines} == {}

    def test_scan_finds_bypasses(self):
        source = "\n".join([
            "import numpy as np",
            "from numpy.linalg import svd",
            "u, s, vh = np.linalg.svd(M)",
            "r = np.linalg.norm(M, 2)",
            "r = numpy.linalg.norm(M, ord=-2)",
            "r = np.linalg.norm(M, order)",
            "f = np.linalg.svd",
            "v = np.linalg.norm(x) + np.linalg.norm(M, axis=0) + np.linalg.norm(M, 'fro')",
            "W, *_ = np.linalg.lstsq(M, b, rcond=None)",
            "X = numpy.linalg.pinv(M)",
            "r = np.linalg.matrix_rank(M)",
            "from numpy.linalg import lstsq, qr",
            "Q, R = np.linalg.qr(M)",
        ])
        assert _svd_bypasses(source) == [2, 3, 4, 5, 6, 7, 9, 10, 11, 12]


def _planted(rng, shape, complex_: bool, sigma_min: float) -> np.ndarray:
    """A seeded C-ordered ``shape`` matrix with singular values spread
    geometrically from 1 down to ``sigma_min``, between random orthonormal
    factors."""
    return _with_singular_values(rng, shape, complex_, np.geomspace(1.0, sigma_min, min(shape)))


def _with_singular_values(rng, shape, complex_: bool, sv: np.ndarray) -> np.ndarray:
    """A seeded C-ordered ``shape`` matrix with the singular values ``sv``,
    between random orthonormal factors."""
    def q(k):
        G = rng.standard_normal((k, k))
        return np.linalg.qr(G + 1j * rng.standard_normal((k, k)) if complex_ else G)[0]

    rows, cols = shape
    if rows < cols:
        return np.ascontiguousarray(_with_singular_values(rng, shape[::-1], complex_, sv).T)
    return (q(rows)[:, :cols] * sv) @ q(cols).conj().T


def _one_small(rng, shape, complex_: bool, sigma_min: float) -> np.ndarray:
    """A seeded ``shape`` matrix with singular values 1 but the last,
    ``sigma_min``: ‖M‖_F is as large as σ_max allows, where the Cholesky
    proof reaches least far."""
    sv = np.ones(min(shape))
    sv[-1] = sigma_min
    return _with_singular_values(rng, shape, complex_, sv)


class TestRankOfReadsTheSingularValues:
    """``rank_of`` is the count of ``_svd_rank`` on the singular values, on
    either side of the cutoff, with or without a ``scale`` floor above
    ‖M‖_F, and forms no Gram matrix and runs no Cholesky."""

    @pytest.mark.parametrize("shape", [(12, 8), (8, 12), (10, 10)],
                             ids=["tall", "wide", "square"])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_rank_is_the_svd_count(self, monkeypatch, complex_, shape):
        gram_stage = []
        for routines in linalg._LAPACK.values():
            for name in ("potrf", "syrk"):
                monkeypatch.setitem(routines, name, lambda *a, _name=name, **k: gram_stage.append(_name))
        rng = np.random.default_rng([*shape, complex_, 6])
        ranks = set()
        for scale in (None, 10.0, 1e3):
            threshold = DEFAULT_TOL.rel * max(shape) * (scale or 1.0)
            for factor in (0.5, 1.0, 2.0, 10.0, 1e3):
                for M in (_one_small(rng, shape, complex_, factor * threshold),
                          _planted(rng, shape, complex_, factor * threshold)):
                    assert scale is None or np.linalg.norm(M) < scale
                    want = _svd_rank(svd(M, compute_uv=False), shape, DEFAULT_TOL, scale)
                    assert rank_of(M, DEFAULT_TOL, scale) == want
                    ranks.add(want)
        assert ranks == {min(shape) - 1, min(shape)}
        assert gram_stage == []


def _pencil_at(M0: np.ndarray, n: int, lam: complex) -> np.ndarray:
    """M₀ − λJ, J = [[Iₙ, 0], [0, 0]], written out: real at a real λ."""
    M = M0.astype(np.complex128 if lam.imag else np.float64)
    M[:n, :n] -= np.eye(n) * (lam if lam.imag else lam.real)
    return M


class TestPencilGramProof:
    """The proof from the Gram coefficients of a pencil M₀ − λJ: the
    coefficients give the Gram matrix of M(λ), or of M(λ)ᵀ when M₀ is wide,
    at every λ; the proof never claims a full rank that the SVD threshold
    denies and proves every value whose σ_min clears ten times its limit,
    √s at N₀ = ‖M₀‖_F + |λ| √n; and it declines where its guards say."""

    SHAPES = [((12, 9), 7), ((9, 9), 7), ((7, 10), 7), ((43, 42), 40), ((40, 42), 40)]

    @pytest.mark.parametrize("lam", [0.0, -1.3, 0.4 + 1.1j, -2.0 - 3.0j])
    @pytest.mark.parametrize("shape, n", SHAPES)
    def test_coefficients_give_the_gram_matrix(self, shape, n, lam):
        lam = complex(lam)
        M0 = np.random.default_rng([*shape, 1]).standard_normal(shape)
        gram = linalg._pencil_gram(M0, n)
        M = _pencil_at(M0, n, lam)
        want = M.conj().T @ M if shape[0] >= shape[1] else (M @ M.conj().T).conj()
        E = np.diag([1.0] * n + [0.0] * (len(want) - n))
        H = gram.G0 - lam.real * gram.S - 1j * lam.imag * gram.K + abs(lam) ** 2 * E
        assert np.allclose(np.tril(H), np.tril(want), rtol=0.0, atol=1e-12 * np.trace(want).real)
        assert gram.t0 == pytest.approx(np.linalg.norm(M0) ** 2, rel=1e-13)
        for X in (gram.G0, gram.S, gram.K):
            assert X.flags.f_contiguous and not X.flags.writeable

    @pytest.mark.parametrize("rel", [1e-15, 1e-11, 1e-6])
    @pytest.mark.parametrize("shape, n", SHAPES)
    def test_never_claims_what_the_svd_denies(self, shape, n, rel):
        # M(λ*) planted with a given σ_min at a real λ*, M₀ = M(λ*) + λ*J
        tol = Tol(rel=rel)
        rng = np.random.default_rng([*shape, round(-np.log10(rel))])
        threshold = rel * max(shape)
        for lam in (0.0, -1.5, 40.0):
            J = np.zeros(shape)
            J[:n, :n] = np.eye(n)
            for factor in (0.5, 1.0, 2.0, 1e2, 1e4, 1e6, 1e8):
                M0 = _one_small(rng, shape, False, factor * threshold) + lam * J
                M = _pencil_at(M0, n, complex(lam))
                full = _svd_rank(svd(M, compute_uv=False), shape, tol) == min(shape)
                proven = linalg._pencil_proof(linalg._pencil_gram(M0, n), tol)(complex(lam))
                assert full or not proven
                norm = np.linalg.norm(M0) + abs(lam) * np.sqrt(n)
                limit = proof_limit(shape, norm, tol)
                assert proven or svd(M, compute_uv=False)[-1] < 10.0 * limit

    def test_guards(self, monkeypatch):
        # a zero or underflowing M₀, and an N₀² that could overflow H: not
        # proven, and no Cholesky runs
        calls = []
        for routines in linalg._LAPACK.values():
            monkeypatch.setitem(routines, "potrf", lambda *a, **k: calls.append(1))
        M0 = np.random.default_rng(3).standard_normal((9, 8))
        cases = [(np.zeros((9, 8)), -1.0), (M0 * 1e-160, -1e-160),
                 (M0, 1e200), (M0, 1e160j), (M0, -1e154)]
        for M, lam in cases:
            assert not linalg._pencil_proof(linalg._pencil_gram(M, 6), DEFAULT_TOL)(complex(lam))
        assert calls == []


COMPLETION_SHAPES = [(8, 0), (8, 3), (8, 8), (40, 17), (150, 60), (200, 150)]


def _completion_matches_numpy(shape, complex_: bool) -> bool:
    """``_completion`` of a seeded orthonormal ``shape`` basis is numpy's,
    bits and strides, and leaves the basis as it was."""
    rng = np.random.default_rng([*shape, complex_])
    G = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_ else 0.0)
    Q = np.linalg.qr(G)[0] if shape[1] else G
    before = Q.copy()
    got = _completion(Q)
    want = np.linalg.qr(Q, mode="complete")[0][:, shape[1]:]
    return (_same_bits(got, want) and (got.strides == want.strides or not got.size)
            and np.array_equal(Q, before))


class TestCompletion:
    """``linalg._completion`` is numpy's complete QR, past the given columns."""

    @pytest.mark.parametrize("shape", COMPLETION_SHAPES)
    def test_matches_numpy(self, shape):
        assert _completion_matches_numpy(shape, complex_=False)

    def test_matches_numpy_at_one_blas_thread(self):
        # numpy and scipy link separate OpenBLAS builds: with several
        # threads their large complex QRs may differ in the last bits, as
        # their SVDs do; at one thread, as the benchmark runs, they agree
        code = ("import test_linalg as t; print([t._completion_matches_numpy(s, c) "
                "for s in t.COMPLETION_SHAPES for c in (False, True)])")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(SRC.parent), str(Path(__file__).parent)]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str([True] * 2 * len(COMPLETION_SHAPES))

    def test_no_factorization_at_the_edges(self, monkeypatch):
        # no stairs complete to the identity, full stairs to nothing
        monkeypatch.setattr(linalg, "_LAPACK", {})
        for dtype in (np.float64, np.complex128):
            assert _same_bits(_completion(np.zeros((5, 0), dtype)), np.eye(5, dtype=dtype))
            assert _same_bits(_completion(np.eye(5, dtype=dtype)), np.zeros((5, 0), dtype))


class TestThinQR:
    """``_orthonormalize`` and ``_pivoted_leading`` raise where LAPACK
    refuses, instead of returning the unfinished factor.  The pivoted QR
    is bound for float64 alone, its one caller's dtype: a complex Y finds
    no routine (``KeyError``), and no real routine runs on it."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_wide_input_is_refused(self, dtype):
        # orgqr/ungqr refuses a thin Q wider than tall (info = -2); the 3 x 5
        # "Q" it hands back used to reach Subspace as a misleading ValidationError
        X = np.random.default_rng(0).standard_normal((3, 5)).astype(dtype)
        with pytest.raises(np.linalg.LinAlgError):
            linalg._orthonormalize(X)
        with pytest.raises(np.linalg.LinAlgError if dtype is np.float64 else KeyError):
            linalg._pivoted_leading(X, 4)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_tall_input_is_orthonormalized(self, dtype):
        X = np.random.default_rng(1).standard_normal((5, 3)).astype(dtype)
        pivoted = [X, X.T.copy()] if dtype is np.float64 else []
        for Q in [linalg._orthonormalize(X)] + [linalg._pivoted_leading(Y, 2) for Y in pivoted]:
            assert np.allclose(Q.conj().T @ Q, np.eye(Q.shape[1]), atol=1e-14)
        assert np.allclose(linalg._orthonormalize(X), np.linalg.qr(X)[0], atol=1e-14)
        if dtype is np.complex128:
            with pytest.raises(KeyError, match="geqp3"):
                linalg._pivoted_leading(X, 2)


class TestSubspaceType:
    def test_zero_subspace_is_first_class(self):
        Z = Subspace.zero(4)
        assert Z.dim == 0 and Z.ambient_dim == 4

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValidationError):
            Subspace([[1.0, 1.0], [0.0, 1.0]])

    def test_rejects_wide(self):
        with pytest.raises(ValidationError):
            Subspace(np.ones((1, 2)))

    def test_immutable(self):
        S = Subspace.full(2)
        with pytest.raises(AttributeError):
            S.basis = np.eye(2)
        with pytest.raises(ValueError):
            S.basis[0, 0] = 5.0

    def test_caller_array_stays_writable(self):
        for a in (np.eye(3)[:, :2], np.eye(3)[:, :2] + 0j):
            S = Subspace(a)
            assert a.flags.writeable
            a[0, 0] = 5.0
            assert S.basis[0, 0] == 1.0

    def test_basis_owns_its_storage(self):
        # a kernel basis is cut from the SVD factor; the Subspace must not
        # keep the whole factor alive through a view
        K = kernel_basis(np.ones((1, 50)))
        assert K.dim == 49 and K.basis.flags.owndata

    def test_whole_space_shares_one_basis(self):
        from geokit.geometry import vstar
        from geokit.sysmodel import GenSpec, random_system

        # V* of a generic system with more inputs than outputs is the whole
        # space; every whole-space term shares one read-only identity
        V = vstar(random_system(GenSpec(n=12, m=3, p=2, seed=5)))
        full = Subspace.full(12)
        assert V.dim == 12 and np.shares_memory(full.basis, V.basis)
        assert not full.basis.flags.writeable and not V.basis.flags.writeable
        assert Subspace.full(12) is full and np.array_equal(full.basis, np.eye(12))

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_complement_of_the_whole_space(self, complex_, monkeypatch):
        # kernel_basis's answer, without the n x n SVD
        G = np.random.default_rng(3).standard_normal((6, 6))
        S = Subspace.full(6) if not complex_ else Subspace(np.linalg.qr(G + 1j * G.T)[0])
        want = kernel_basis(S.basis.conj().T).basis
        monkeypatch.setattr(linalg, "svd", None)
        got = orthonormal_complement(S).basis
        assert got.shape == want.shape == (6, 0) and got.dtype == want.dtype

    def test_read_only_owner_is_shared_and_view_copied(self):
        a = np.eye(3)[:, :2].copy()
        a.setflags(write=False)
        assert Subspace(a).basis is a
        view = a[:, :1]
        assert not np.shares_memory(Subspace(view).basis, a)


class TestSumIntersect:
    def test_sum_of_axes(self):
        S = subspace_sum(span(E1), span(E2))
        assert S.dim == 2

    def test_sum_idempotent(self):
        U = span([1.0, 1.0, 0.0])
        assert equals(subspace_sum(U, U), U)

    def test_sum_spans_plane(self):
        # det [[1,1],[1,-1]] = -2: the two lines span R^2
        S = subspace_sum(span([1.0, 1.0, 0]) , span([1.0, -1.0, 0]))
        assert S.dim == 2

    def test_intersect_self(self):
        U = span(E1, E2)
        assert equals(subspace_intersect(U, U), U)

    def test_intersect_disjoint(self):
        assert subspace_intersect(span(E1), span(E2)).dim == 0

    def test_intersect_planes(self):
        # solving [a1*e1 + a2*e2 = b1*e2 + b2*e3] gives the e2 line
        S = subspace_intersect(span(E1, E2), span(E2, E3))
        assert S.dim == 1
        assert contains(span(E2), S)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("shared", [0, 3])
    def test_intersect_is_one_kernel_svd(self, monkeypatch, complex_, shared):
        # the kernel N of [U  -V] decides the dimension: U a = V b makes the
        # columns of U N_u orthogonal, each of norm 1/sqrt(2), so one QR
        # orthonormalizes them and no second rank is decided
        rng = np.random.default_rng(4)
        G = rng.standard_normal((10, shared)) + 1j * complex_ * rng.standard_normal((10, shared))
        U = Subspace(np.linalg.qr(np.hstack([G, rng.standard_normal((10, 5 - shared))]))[0])
        V = Subspace(np.linalg.qr(np.hstack([G, rng.standard_normal((10, 4 - shared))]))[0])
        shapes = []
        for routines in linalg._LAPACK.values():
            def recorded(M, gesdd=routines["gesdd"], **kwargs):
                shapes.append(M.shape)
                return gesdd(M, **kwargs)
            monkeypatch.setitem(routines, "gesdd", recorded)
        S = subspace_intersect(U, V)
        assert shapes == [(10, 9)]
        assert S.dim == shared and S.basis.shape == (10, shared)
        assert contains(U, S) and contains(V, S)
        if shared:
            assert equals(S, Subspace(np.linalg.qr(G)[0]))

    def test_dimension_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            U = image_basis(rng.standard_normal((n, rng.integers(1, n + 1))))
            V = image_basis(rng.standard_normal((n, rng.integers(1, n + 1))))
            s = subspace_sum(U, V).dim
            i = subspace_intersect(U, V).dim
            assert s + i == U.dim + V.dim

    def test_ambient_mismatch(self):
        with pytest.raises(ValidationError):
            subspace_sum(Subspace.full(2), Subspace.full(3))


class TestPreimage:
    def test_identity_map(self):
        S = span(E2, E3)
        assert equals(preimage(np.eye(3), S), S)

    def test_zero_map(self):
        assert preimage(np.zeros((3, 3)), span(E1)).dim == 3

    def test_shift_map(self):
        # {x : x2*e1 in span e2} = {x : x2 = 0} = span e1
        P = preimage(np.array([[0.0, 1.0], [0.0, 0.0]]), span([0.0, 1.0]))
        assert P.dim == 1
        assert contains(span([1.0, 0.0]), P)

    def test_members_map_into_target(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            M = rng.standard_normal((4, 5))
            S = image_basis(rng.standard_normal((4, 2)))
            P = preimage(M, S)
            for k in range(P.dim):
                y = M @ P.basis[:, k]
                assert np.linalg.norm(y - S.basis @ (S.basis.conj().T @ y)) < 1e-8


class TestContains:
    def test_zero_always_contained(self):
        assert contains(span(E1), Subspace.zero(3))

    def test_zero_contains_nothing(self):
        assert not contains(Subspace.zero(3), span(E1))

    def test_diagonal_line_in_plane(self):
        assert contains(span(E1, E2), span([1.0, 1.0, 0.0]))

    def test_equals_mutual(self):
        U = span(E1, E2)
        V = span([1.0, 1.0, 0.0], [1.0, -1.0, 0.0])
        assert equals(U, V)
        assert not equals(U, span(E1))


class TestRealHelpers:
    def test_max_imag(self):
        assert max_imag(np.array([[1.0, 2.0]])) == 0.0
        assert max_imag(np.array([1 + 2j])) == 2.0

    def test_require_real_raises(self):
        from geokit.errors import NumericalError

        with pytest.raises(NumericalError):
            require_real(np.array([[1e-3j]]))

    def test_complement(self):
        C = orthonormal_complement(span(E1))
        assert C.dim == 2
        assert contains(C, span(E2)) and contains(C, span(E3))


def test_operations_deterministic():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((5, 3))
    out1 = image_basis(M).basis
    out2 = image_basis(M).basis
    assert np.array_equal(out1, out2)
    assert np.array_equal(pinv(M), pinv(M))
