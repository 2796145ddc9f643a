import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geokit.errors import SystemFormatError, ValidationError
from geokit.sysmodel import (
    GenSpec,
    SystemQuad,
    _json_text,
    dual_of,
    dump_system,
    load_system,
    random_system,
)


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

    @pytest.mark.parametrize("m, p", [(2, 1), (2, 0)])
    def test_equality_and_hash_are_identity(self, m, p):
        # comparing or hashing arrays field by field would raise: a system
        # equals only itself, as the structure kept on it is its own
        sys = random_system(GenSpec(n=4, m=m, p=p, seed=5))
        twin = SystemQuad.from_matrices(sys.A, sys.B, sys.C, sys.D)
        assert sys == sys and not sys != sys
        assert sys != twin and not sys == twin
        assert hash(sys) == object.__hash__(sys) and hash(twin) == object.__hash__(twin)
        table = {sys: 1, twin: 2}
        assert table[sys] == 1 and table[twin] == 2 and len({sys, sys, twin}) == 2

    @pytest.mark.parametrize("m, p", [(2, 1), (3, 2), (2, 0)])
    def test_scales_are_norms_as_stacked(self, m, p):
        # each cached scale is numpy's 2-norm of its block as the property
        # stacks it, and is computed once
        sys = random_system(GenSpec(n=7, m=m, p=p, seed=3))
        A, B, C, D = sys.A, sys.B, sys.C, sys.D
        norm = lambda M: np.linalg.norm(M, 2)  # noqa: E731
        assert sys._stair_scales == (norm(np.hstack([A, B])), norm(np.hstack([C, D])) if p else 0.0)
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
        with pytest.raises(SystemFormatError,
                           match=r'^"A" has ragged rows: row 1 has 1 entries, expected 2$'):
            load_system(path)

    def test_nan_entry(self, tmp_path):
        path = write(tmp_path, '{"A": [[NaN, 0], [0, 0]], "B": [[0], [1]]}')
        with pytest.raises(SystemFormatError, match=r'^"A"\[0\]\[0\] is not finite$'):
            load_system(path)

    def test_integer_beyond_float_range(self, tmp_path):
        # as non-finite as NaN, though Python's int holds it
        path = write(tmp_path, '{"A": [[0, 1], [0, -1' + "0" * 400 + ']], "B": [[0], [1]]}')
        with pytest.raises(SystemFormatError, match=r'"A"\[1\]\[1\] is not finite'):
            load_system(path)

    def test_string_entry(self, tmp_path):
        path = write(tmp_path, {"A": [["x", 0], [0, 0]], "B": [[0], [1]]})
        with pytest.raises(SystemFormatError, match=r'^"A"\[0\]\[0\] is not a number$'):
            load_system(path)

    @pytest.mark.parametrize("entry", ["true", "null", "[1]"])
    def test_non_number_entry(self, tmp_path, entry):
        path = write(tmp_path, '{"A": [[0, 1], [0, %s]], "B": [[0], [1]]}' % entry)
        with pytest.raises(SystemFormatError, match=r'^"A"\[1\]\[1\] is not a number$'):
            load_system(path)

    def test_first_bad_entry_of_a_row_is_named(self, tmp_path):
        # the NaN comes first, so it is named, not the string after it
        path = write(tmp_path, '{"A": [[0, NaN, "x"], [0, 0, 0], [0, 0, 0]], "B": [[0], [1], [0]]}')
        with pytest.raises(SystemFormatError, match=r'^"A"\[0\]\[1\] is not finite$'):
            load_system(path)

    def test_first_bad_row_is_named(self, tmp_path):
        path = write(tmp_path, '{"A": [[0, "x"], [Infinity, 0]], "B": [[0], [1]]}')
        with pytest.raises(SystemFormatError, match=r'^"A"\[0\]\[1\] is not a number$'):
            load_system(path)

    def test_bad_entry_in_d(self, tmp_path):
        path = write(tmp_path, '{"A": [[0, 1], [0, 0]], "B": [[0], [1]], "C": [[1, 0]], "D": [[-Infinity]]}')
        with pytest.raises(SystemFormatError, match=r'^"D"\[0\]\[0\] is not finite$'):
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
    def test_deterministic(self):
        a = random_system(GenSpec(n=4, m=2, p=1, seed=9))
        b = random_system(GenSpec(n=4, m=2, p=1, seed=9))
        assert np.array_equal(a.A, b.A) and np.array_equal(a.D, b.D)

    def test_m_exceeding_n_rejected(self):
        with pytest.raises(ValidationError):
            GenSpec(n=2, m=3)


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


_FLOATS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 0.1]),
)
_TEXT = st.one_of(
    st.text(st.characters()),
    st.sampled_from(["", "\x00\x1f\n\t\"\\/", "é☃𝄞 ", "\ud800"]),
)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(_TEXT, inner),
        st.lists(st.lists(_FLOATS)),  # matrix rows: the writer's fast path
    ),
    max_leaves=25,
)


class TestJsonText:
    @settings(database=None, derandomize=True, max_examples=150)
    @given(obj=_VALUES, indent=st.sampled_from([None, 0, 1, 2, 4]))
    def test_is_json_dumps(self, obj, indent):
        assert _json_text(obj, indent) == json.dumps(obj, indent=indent)

    def test_other_values_are_refused(self):
        # json would write the key 1 as "1"; no report or system file has one
        with pytest.raises(TypeError, match="^keys must be str, not int$"):
            _json_text({"a": (True, None), 1: [0.5]}, 2)
        for refused, name in (([0.5, np.float32(1.5)], "float32"),
                              ({"a": [1.0, {"b": object()}]}, "object")):
            with pytest.raises(TypeError, match=f"^Object of type {name} is not JSON serializable$"):
                _json_text(refused, 2)

    def test_dump_system_writes_json_dumps_text(self, tmp_path):
        sys = random_system(GenSpec(5, 2, 1, seed=4))
        path = tmp_path / "s.json"
        dump_system(sys, path)
        assert path.read_text() == json.dumps(sys.to_dict(), indent=2)
