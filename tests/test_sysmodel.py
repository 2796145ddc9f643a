import json

import numpy as np
import pytest

from geokit.errors import GenerationError, SystemFormatError, ValidationError
from geokit.linalg import rank_of
from geokit.sysmodel import GenSpec, SystemQuad, dual_of, dump_system, load_system, random_system


def write(tmp_path, payload):
    path = tmp_path / "sys.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return path


class TestSystemQuad:
    def test_p_zero_encoding(self):
        sys = SystemQuad.from_matrices([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])
        assert sys.n == 2 and sys.m == 1 and sys.p == 0
        assert sys.C.shape == (0, 2) and sys.D.shape == (0, 1)

    def test_dimension_checks(self):
        with pytest.raises(ValidationError):
            SystemQuad.from_matrices([[0.0, 1.0]], [[1.0]])
        with pytest.raises(ValidationError):
            SystemQuad.from_matrices([[0.0]], [[1.0]], [[1.0, 2.0]], [[0.0]])

    def test_c_and_d_together(self):
        with pytest.raises(ValidationError):
            SystemQuad.from_matrices([[0.0]], [[1.0]], C=[[1.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            SystemQuad.from_matrices([[np.inf]], [[1.0]])

    @pytest.mark.parametrize("which", range(4))
    def test_complex_entries_rejected(self, which):
        # each of A, B, C, D is checked before any conversion to float
        mats = [[[1.0]], [[1.0]], [[1.0]], [[0.0]]]
        mats[which] = [[1.0 + 2.0j]]
        with pytest.raises(ValidationError, match="nonzero imaginary part"):
            SystemQuad.from_matrices(*mats)

    def test_caller_arrays_stay_writable(self):
        # the system freezes copies, not the caller's float64 arrays
        mats = [np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1))]
        systems = [SystemQuad.from_matrices(*mats[:2]), SystemQuad.from_matrices(*mats)]
        for M in mats:
            M[0, 0] = 1.0
        for sys in systems:
            assert not any(M.any() for M in (sys.A, sys.B, sys.C, sys.D))
            with pytest.raises(ValueError):
                sys.A[0, 0] = 2.0

    def test_complex_with_zero_imaginary_part_accepted(self):
        sys = SystemQuad.from_matrices(np.array([[1.0 + 0j]]), [[1.0]], [[2.0 + 0j]], [[0.0]])
        assert sys.A.dtype == sys.C.dtype == np.float64
        assert sys.A[0, 0] == 1.0 and sys.C[0, 0] == 2.0


    @pytest.mark.parametrize("m, p", [(2, 1), (3, 2), (2, 0)])
    def test_scales_are_norms_as_stacked(self, m, p):
        # each cached scale is numpy's 2-norm of its block in the orientation
        # its caller stacks it, and is computed once
        sys = random_system(GenSpec(n=7, m=m, p=p, seed=3))
        A, B, C, D = sys.A, sys.B, sys.C, sys.D
        norm = lambda M: np.linalg.norm(M, 2)  # noqa: E731
        assert sys._stair_scales == (norm(np.hstack([A, B])), norm(np.hstack([C, D])) if p else 0.0)
        assert sys._dual_stair_scales == (norm(np.hstack([A.T, C.T])), norm(np.hstack([B.T, D.T])))
        assert sys._bd_scale == norm(np.vstack([B, D]))
        assert sys._ac_scale == norm(np.vstack([A, C]))
        assert sys._stair_scales is sys._stair_scales


class TestLoadSystem:
    def test_loads_without_outputs(self, tmp_path):
        path = write(tmp_path, {"A": [[0, 1], [0, 0]], "B": [[0], [1]]})
        sys = load_system(path)
        assert sys.p == 0
        assert np.allclose(sys.A, [[0, 1], [0, 0]])

    def test_roundtrip(self, tmp_path):
        sys = SystemQuad.from_matrices([[1.0, 0.5], [0.0, 2.0]], [[1.0], [0.0]],
                                       [[1.0, 0.0]], [[0.5]])
        path = tmp_path / "rt.json"
        dump_system(sys, path)
        back = load_system(path)
        assert np.array_equal(back.A, sys.A) and np.array_equal(back.D, sys.D)

    def test_ragged_rows(self, tmp_path):
        path = write(tmp_path, {"A": [[0, 1], [0]], "B": [[0], [1]]})
        with pytest.raises(SystemFormatError):
            load_system(path)

    def test_nan_entry(self, tmp_path):
        path = write(tmp_path, '{"A": [[NaN, 0], [0, 0]], "B": [[0], [1]]}')
        with pytest.raises(SystemFormatError):
            load_system(path)

    def test_integer_beyond_float_range(self, tmp_path):
        # as non-finite as NaN, though Python's int holds it
        path = write(tmp_path, '{"A": [[0, 1], [0, -1' + "0" * 400 + ']], "B": [[0], [1]]}')
        with pytest.raises(SystemFormatError, match=r'"A"\[1\]\[1\] is not finite'):
            load_system(path)

    def test_string_entry(self, tmp_path):
        path = write(tmp_path, {"A": [["x", 0], [0, 0]], "B": [[0], [1]]})
        with pytest.raises(SystemFormatError):
            load_system(path)

    def test_malformed_json(self, tmp_path):
        path = write(tmp_path, "{not json")
        with pytest.raises(SystemFormatError):
            load_system(path)

    def test_c_without_d(self, tmp_path):
        path = write(tmp_path, {"A": [[0]], "B": [[1]], "C": [[1]]})
        with pytest.raises(SystemFormatError):
            load_system(path)

    def test_missing_key(self, tmp_path):
        path = write(tmp_path, {"A": [[0]]})
        with pytest.raises(SystemFormatError):
            load_system(path)


class TestRandomSystem:
    def test_controllable_flag(self):
        for seed in range(5):
            sys = random_system(GenSpec(n=2, m=1, seed=seed, controllable=True))
            ctrb = np.hstack([sys.B, sys.A @ sys.B])
            assert rank_of(ctrb) == 2

    def test_controllable_flag_larger_n(self):
        sys = random_system(GenSpec(n=24, m=3, seed=0, controllable=True))
        assert sys.n == 24

    def test_deterministic(self):
        a = random_system(GenSpec(n=4, m=2, p=1, seed=9))
        b = random_system(GenSpec(n=4, m=2, p=1, seed=9))
        assert np.array_equal(a.A, b.A) and np.array_equal(a.D, b.D)

    def test_m_exceeding_n_rejected(self):
        with pytest.raises(ValidationError):
            GenSpec(n=2, m=3)

    def test_target_rstar_dimension(self):
        from geokit.geometry import rstar

        base = random_system(GenSpec(n=4, m=2, p=1, seed=3))
        want = rstar(base).dim
        sys = random_system(GenSpec(n=4, m=2, p=1, seed=3, target_dim_rstar=want))
        assert rstar(sys).dim == want

    def test_generation_failure(self):
        with pytest.raises(GenerationError):
            random_system(GenSpec(n=2, m=1, p=1, seed=0, target_dim_rstar=5))


class TestDual:
    def test_requires_outputs(self):
        sys = SystemQuad.from_matrices([[0.0]], [[1.0]])
        with pytest.raises(ValidationError):
            dual_of(sys)

    def test_involution(self):
        sys = random_system(GenSpec(n=3, m=2, p=1, seed=4))
        back = dual_of(dual_of(sys))
        assert np.array_equal(back.A, sys.A)
        assert np.array_equal(back.B, sys.B)
        assert np.array_equal(back.C, sys.C)
        assert np.array_equal(back.D, sys.D)

    def test_swaps_dimensions(self):
        sys = random_system(GenSpec(n=4, m=2, p=3, seed=5))
        d = dual_of(sys)
        assert (d.m, d.p) == (sys.p, sys.m)

    def test_symmetric_fixed_point(self):
        A = np.array([[1.0, 2.0], [2.0, -1.0]])
        B = np.array([[1.0], [0.0]])
        sys = SystemQuad.from_matrices(A, B, B.T, [[3.0]])
        d = dual_of(sys)
        assert np.array_equal(d.A, sys.A) and np.array_equal(d.B, sys.B)
        assert np.array_equal(d.C, sys.C) and np.array_equal(d.D, sys.D)
