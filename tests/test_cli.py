import json

import numpy as np
import pytest

from geokit.cli import main, parse_lambdas
from geokit.errors import ValidationError

DI = {"A": [[0, 1], [0, 0]], "B": [[0], [1]], "C": [[0, 1]], "D": [[0]]}
DI_P0 = {"A": [[0, 1], [0, 0]], "B": [[0], [1]]}
DIAG = {"A": [[1, 0], [0, 2]], "B": [[1], [0]]}


@pytest.fixture
def di_file(tmp_path):
    path = tmp_path / "di.json"
    path.write_text(json.dumps(DI))
    return str(path)


@pytest.fixture
def di_p0_file(tmp_path):
    path = tmp_path / "di0.json"
    path.write_text(json.dumps(DI_P0))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestParseLambdas:
    def test_reals(self):
        assert parse_lambdas("-1,-2") == [complex(-1), complex(-2)]

    def test_complex_literals(self):
        assert parse_lambdas("-1+2i, -1-2i") == [complex(-1, 2), complex(-1, -2)]

    def test_pure_imaginary(self):
        assert parse_lambdas("2i") == [complex(0, 2)]

    def test_infinity_parses(self):
        # only the imaginary-unit suffix is rewritten: "inf" keeps its "i"
        assert parse_lambdas("-inf, 1-infi") == [complex(-np.inf, 0), complex(1, -np.inf)]

    def test_garbage(self):
        with pytest.raises(ValidationError):
            parse_lambdas("-1,zap")


class TestComputeCommands:
    def test_zeros_fixture(self, capsys, di_file):
        code, rep = run_cli(capsys, "zeros", di_file)
        assert code == 0
        assert rep["op"] == "zeros"
        assert rep["result"]["zeros"] == [{"re": 0.0, "im": 0.0}]
        assert rep["result"]["normal_rank"] == 3

    def test_reach_fixture(self, capsys, tmp_path):
        path = tmp_path / "diag.json"
        path.write_text(json.dumps(DIAG))
        code, rep = run_cli(capsys, "reach", str(path))
        assert code == 0
        assert rep["result"]["dim"] == 1

    def test_place_fixture(self, capsys, di_p0_file):
        code, rep = run_cli(capsys, "place", di_p0_file, "--lambdas=-1,-2")
        assert code == 0
        F = np.asarray(rep["result"]["F"])
        assert np.allclose(F, [[-2.0, -3.0]], atol=1e-9)

    def test_vstar_chain(self, capsys, di_file):
        code, rep = run_cli(capsys, "vstar", di_file)
        assert code == 0
        assert rep["diagnostics"]["chain_dims"] == [2, 1, 1]

    def test_morse(self, capsys, di_file):
        code, rep = run_cli(capsys, "morse", di_file)
        assert code == 0
        assert rep["result"]["dim_rstar"] == 0 and rep["result"]["dim_vstar"] == 1

    def test_minspec(self, capsys, di_file):
        code, rep = run_cli(capsys, "minspec", di_file)
        assert code == 0
        assert rep["result"] == {"reachability": 2, "rosenbrock": 0}

    def test_friend(self, capsys, di_file):
        code, rep = run_cli(capsys, "friend", di_file)
        assert code == 0
        assert rep["diagnostics"]["residual_out"] <= 1e-8

    def test_unobs_without_outputs_is_whole_space(self, capsys, di_p0_file):
        code, rep = run_cli(capsys, "unobs", di_p0_file)
        assert code == 0 and rep["result"]["dim"] == 2
        assert np.allclose(np.abs(np.asarray(rep["result"]["basis"])), np.eye(2))

    def test_unobs_velocity_output(self, capsys, di_file):
        # y = velocity: the position never shows in the output
        code, rep = run_cli(capsys, "unobs", di_file)
        assert code == 0 and rep["result"]["dim"] == 1
        assert np.allclose(np.abs(np.asarray(rep["result"]["basis"])), [[1.0], [0.0]])

    def test_uncontrollable(self, capsys, tmp_path):
        path = tmp_path / "diag.json"
        path.write_text(json.dumps(DIAG))
        code, rep = run_cli(capsys, "uncontrollable", str(path))
        assert code == 0 and rep["result"]["eigenvalues"] == [{"re": 2.0, "im": 0.0}]

    def test_zeros_and_morse_without_outputs(self, capsys, tmp_path):
        # p = 0: the zeros are the input-decoupling zeros, here the
        # uncontrollable eigenvalue 2, and Morse's frame is Kalman's
        path = tmp_path / "diag.json"
        path.write_text(json.dumps(DIAG))
        code, rep = run_cli(capsys, "zeros", str(path))
        assert code == 0 and rep["result"]["zeros_distinct"] == [{"re": 2.0, "im": 0.0}]
        assert rep["diagnostics"]["rank_at_zeros"][0]["rank"] == 1
        code, rep = run_cli(capsys, "morse", str(path))
        res = rep["result"]
        assert code == 0 and (res["dim_rstar"], res["dim_vstar"], res["m1"]) == (1, 2, 1)
        assert res["invariant_zeros"] == [{"re": 2.0, "im": 0.0}]

    def test_chains_without_outputs(self, capsys, di_p0_file):
        # p = 0: the output-nulling limit is everything and the
        # input-containing terms are the step-wise reachable subspaces
        code, rep = run_cli(capsys, "vstar", di_p0_file)
        assert code == 0 and rep["result"]["dim"] == 2
        code, rep = run_cli(capsys, "sstar", di_p0_file)
        assert code == 0 and rep["diagnostics"]["chain_dims"] == [0, 1, 2, 2]

    def test_kh_at_admissible_value(self, capsys, di_file):
        # the system matrix is invertible at -1, so the kernel span is empty
        code, rep = run_cli(capsys, "kh", di_file, "--lambdas=-1")
        assert code == 0
        assert rep["result"]["dim"] == 0
        assert rep["diagnostics"]["kernel_dims"] == [0]

    def test_kh_rejects_zero_as_eigenvalue(self, capsys, di_file):
        # 0 is the invariant zero of the fixture: validation refuses it
        code, rep = run_cli(capsys, "kh", di_file, "--lambdas=0")
        assert code == 1 and rep["error"]["kind"] == "validation"


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, rep = run_cli(capsys, "zeros", "/no/such/file.json")
        assert code == 1 and "error" in rep

    def test_directory_path(self, capsys, tmp_path):
        code, rep = run_cli(capsys, "zeros", str(tmp_path))
        assert code == 1 and rep["error"]["kind"] == "validation"

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"A": [[1]], "B": [[1]], "note": "é"}'.encode("latin-1"))
        code, rep = run_cli(capsys, "reach", str(path))
        assert code == 1 and rep["error"]["kind"] == "validation"

    def test_ragged_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"A": [[0, 1], [0]], "B": [[0], [1]]}')
        code, rep = run_cli(capsys, "reach", str(path))
        assert code == 1 and rep["error"]["kind"] == "validation"

    def test_nan_file(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"A": [[NaN, 0], [0, 0]], "B": [[0], [1]]}')
        code, rep = run_cli(capsys, "reach", str(path))
        assert code == 1

    def test_unknown_theorem(self, capsys):
        code, rep = run_cli(capsys, "verify", "nosuch")
        assert code == 1 and rep["error"]["kind"] == "validation"

    def test_numerical_failure_exit_two(self, capsys, di_p0_file):
        # a single eigenvalue cannot span a 2-dim reachable subspace
        code, rep = run_cli(capsys, "place", di_p0_file, "--lambdas=-1")
        assert code == 2 and rep["error"]["kind"] == "numerical"

    def test_bad_lambda_syntax(self, capsys, di_p0_file):
        code, rep = run_cli(capsys, "place", di_p0_file, "--lambdas=-1,huh")
        assert code == 1

    @pytest.mark.parametrize("op", ["place", "kh", "friend"])
    @pytest.mark.parametrize("bad", ["nan", "1e999", "-1e999", "1+nani", "-inf", "1-infi"])
    def test_non_finite_lambda(self, capsys, di_file, op, bad):
        code, rep = run_cli(capsys, op, di_file, f"--lambdas={bad},-1")
        assert code == 1 and rep["error"]["kind"] == "validation"
        assert "not finite" in rep["error"]["message"]

    def test_integer_beyond_float_range(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"A": [[1' + "0" * 400 + ', 0], [0, 0]], "B": [[0], [1]]}')
        code, rep = run_cli(capsys, "reach", str(path))
        assert code == 1 and rep["error"]["kind"] == "validation"
        assert rep["error"]["message"] == '"A"[0][0] is not finite'


class TestVerifyCommand:
    def test_sweep_passes(self, capsys):
        code, rep = run_cli(capsys, "verify", "lemma-diag", "--trials", "10")
        assert code == 0
        assert rep["result"]["all_passed"] is True
        sweep = rep["result"]["sweeps"][0]
        assert sweep["passed"] == 10 and sweep["first_failing_seed"] is None

    def test_negative_trials_exit_one(self, capsys):
        code, rep = run_cli(capsys, "verify", "th1", "--trials", "-3")
        assert code == 1 and rep["error"]["kind"] == "validation"
        assert "result" not in rep


class TestReportContract:
    def test_report_keys(self, capsys, di_file):
        _, rep = run_cli(capsys, "vstar", di_file)
        assert set(rep) == {"op", "inputs_digest", "result", "diagnostics"}

    def test_byte_identical_reports(self, capsys, di_file):
        main(["rstar", di_file, "--seed", "4"])
        first = capsys.readouterr().out
        main(["rstar", di_file, "--seed", "4"])
        second = capsys.readouterr().out
        assert first == second

    def test_digest_tracks_flags(self, capsys, di_file):
        _, rep1 = run_cli(capsys, "reach", di_file)
        _, rep2 = run_cli(capsys, "reach", di_file, "--tol-rel", "1e-10")
        assert rep1["inputs_digest"] != rep2["inputs_digest"]

