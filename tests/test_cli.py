import builtins
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geokit
from geokit import cli, geometry, pencils
from geokit.cli import main, parse_lambdas
from geokit.errors import SystemFormatError, ValidationError
from geokit.linalg import rank_of
from geokit.pencils import rosenbrock_matrix
from geokit.sysmodel import GenSpec, dump_system, load_system, random_system

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

    def test_zeros_reads_one_morse_frame(self, capsys, monkeypatch, tmp_path):
        # the zeros and the normal rank come from one frame, and the only
        # rank decisions are the rank_at_zeros checks: no λ is sampled
        # (each value decided is asked of the pencil proof first)
        built, decided = [], []
        frame, proof = geometry.morse_decomposition, pencils._pencil_proof
        monkeypatch.setattr(geometry, "morse_decomposition",
                            lambda *args: built.append(args) or frame(*args))
        monkeypatch.setattr(pencils, "_pencil_proof", lambda gram, tol: (
            lambda lam, proves=proof(gram, tol): decided.append(lam) or proves(lam)))
        path = tmp_path / "sq.json"
        dump_system(random_system(GenSpec(8, 2, 2, seed=3)), path)
        code, rep = run_cli(capsys, "zeros", str(path))
        assert code == 0 and len(built) == 1
        assert len(rep["result"]["zeros"]) == 8 and rep["result"]["normal_rank"] == 10
        distinct = {complex(z["re"], z["im"]) for z in rep["result"]["zeros_distinct"]}
        assert decided and set(decided) <= distinct

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

    def test_zeros_of_a_pair_share_their_rank(self, capsys, tmp_path):
        # GenSpec(6, 2, 2, seed=0) has the zeros -1.52, 1.02, -0.21 ± 1.84i
        # and 1.91 ± 1.78i: each pair is decided once, and gets the rank
        # each member gets alone
        path = tmp_path / "sq.json"
        sys_quad = random_system(GenSpec(6, 2, 2, seed=0))
        dump_system(sys_quad, path)
        code, rep = run_cli(capsys, "zeros", str(path))
        assert code == 0
        rows = rep["diagnostics"]["rank_at_zeros"]
        by_zero = {complex(r["zero"]["re"], r["zero"]["im"]): r["rank"] for r in rows}
        pairs = [z for z in by_zero if z.imag > 0]
        assert len(pairs) == 2 and all(z.conjugate() in by_zero for z in pairs)
        for z, r in by_zero.items():
            assert r == by_zero[z.conjugate()] == rank_of(rosenbrock_matrix(sys_quad, z)) < 8

    @pytest.mark.parametrize("lams", ["nan", "1+1i", "2,2"])
    @pytest.mark.parametrize("outputs", [True, False])
    def test_friend_validates_on_a_zero_vstar(self, capsys, tmp_path, lams, outputs):
        # the 3-state chain seen at its first state has V* = 0, so nothing is
        # placed, but the request is refused as on its p = 0 pair
        chain = {"A": np.eye(3, k=1).tolist(), "B": np.eye(3)[:, 2:].tolist()}
        if outputs:
            chain.update(C=[[1.0, 0.0, 0.0]], D=[[0.0]])
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain))
        code, rep = run_cli(capsys, "friend", str(path), f"--lambdas={lams}")
        assert code == 1 and rep["error"]["kind"] == "validation"
        code, rep = run_cli(capsys, "friend", str(path), "--lambdas=-1")
        assert code == 0 and rep["result"]["subspace_dim"] == (0 if outputs else 3)

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
    def test_empty_lambdas(self, capsys, di_file, op):
        # an empty list is refused, not read as "no spectrum"
        code, rep = run_cli(capsys, op, di_file, "--lambdas=")
        assert code == 1 and rep["error"]["kind"] == "validation"
        assert rep["error"]["message"] == "empty eigenvalue entry in --lambdas"

    @pytest.mark.parametrize("op", ["place", "kh", "friend"])
    @pytest.mark.parametrize("bad", ["nan", "1e999", "-1e999", "1+nani", "-inf", "1-infi"])
    def test_non_finite_lambda(self, capsys, di_file, op, bad):
        code, rep = run_cli(capsys, op, di_file, f"--lambdas={bad},-1")
        assert code == 1 and rep["error"]["kind"] == "validation"
        assert "not finite" in rep["error"]["message"]

    @pytest.mark.parametrize("argv, op, message", [
        (["reach", None, "--tol-rel", "-1"], "reach", "Tol.rel must be positive"),
        (["verify", "th1", "--trials", "1", "--tol-abs", "-1"], "verify",
         "Tol.abs must be nonnegative"),
        (["vstar", None, "--tol-rel", "inf"], "vstar", "Tol.rel must be below 1"),
        (["vstar", None, "--tol-abs", "inf"], "vstar", "Tol.abs must be finite"),
        (["verify", "th1", "--trials", "2", "--seed", "-1"], "verify",
         "seed must be nonnegative, got -1"),
        (["verify", "th1", "--trials", "2", "--nmax", "-3"], "verify",
         "nmax must be at least 2, got -3"),
    ])
    def test_bad_tolerance_report(self, capsys, di_file, argv, op, message):
        # a refused tolerance or seed is reported before any input is read: no digest
        code = main([di_file if a is None else a for a in argv])
        out = capsys.readouterr().out
        assert code == 1
        assert out == json.dumps(
            {"op": op, "error": {"kind": "validation", "message": message}}, indent=2) + "\n"

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


class TestSeedFlag:
    """``--seed`` belongs to ``verify``, the only command that draws."""

    @pytest.mark.parametrize("argv", [["reach", "--seed", "0"], ["reach", "--bogus"], ["kh"]])
    def test_command_line_that_does_not_parse(self, capsys, di_file, argv):
        # --seed on a compute command, an unknown flag or a missing --lambdas:
        # exit 2 with usage text on stderr and no report
        with pytest.raises(SystemExit) as info:
            main([argv[0], di_file, *argv[1:]])
        out, err = capsys.readouterr()
        assert info.value.code == 2 and out == "" and "usage:" in err

    def test_verify_seed_enters_digest(self, capsys):
        digests = set()
        for seed in ("0", "1"):
            _, rep = run_cli(capsys, "verify", "lemma-diag", "--trials", "3", "--seed", seed)
            digests.add(rep["inputs_digest"])
        assert len(digests) == 2

    def test_compute_digest_has_no_seed(self, capsys, di_file):
        _, rep = run_cli(capsys, "zeros", di_file)
        flags = {"json_indent": 2, "tol_abs": 1e-8, "tol_rel": 1e-11}
        assert rep["inputs_digest"] == cli._digest("zeros", Path(di_file).read_bytes(), flags)


class TestReportContract:
    def test_report_keys(self, capsys, di_file):
        _, rep = run_cli(capsys, "vstar", di_file)
        assert set(rep) == {"op", "inputs_digest", "result", "diagnostics"}

    def test_byte_identical_reports(self, capsys, di_file):
        main(["rstar", di_file])
        first = capsys.readouterr().out
        main(["rstar", di_file])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("indent", [0, 2, 4, -1])
    def test_every_report_is_json_dumps_text(self, capsys, di_file, indent):
        # the writer renders float rows itself; a negative indent is compact
        lambdas = {"kh": ["--lambdas=-1"], "place": ["--lambdas=-1,-2"]}
        for op in cli._COMPUTE_OPS:
            assert main([op, di_file, f"--json-indent={indent}", *lambdas.get(op, [])]) == 0
            out = capsys.readouterr().out
            assert out == json.dumps(json.loads(out), indent=indent if indent >= 0 else None) + "\n"

    @pytest.mark.parametrize("op", cli._COMPUTE_OPS)
    def test_each_compute_op_opens_the_file_once(self, capsys, monkeypatch, tmp_path, op):
        # the bytes digested are the bytes parsed: the system file is read
        # once, with CRLF line ends, which a text read would translate
        path = tmp_path / "di.json"
        path.write_bytes(json.dumps(DI, indent=1).replace("\n", "\r\n").encode())
        opened = []
        for owner in (builtins, io):
            def recorded(file, *args, _open=getattr(owner, "open"), **kwargs):
                if isinstance(file, (str, os.PathLike)):
                    opened.append(Path(file))
                return _open(file, *args, **kwargs)
            monkeypatch.setattr(owner, "open", recorded)
        lambdas = {"kh": ["--lambdas=-1"], "place": ["--lambdas=-1,-2"]}
        code, rep = run_cli(capsys, op, str(path), *lambdas.get(op, []))
        monkeypatch.undo()
        assert code == 0 and opened == [path]
        flags = {"json_indent": 2, "tol_abs": 1e-8, "tol_rel": 1e-11}
        if op in lambdas:
            flags["lambdas"] = lambdas[op][0].removeprefix("--lambdas=")
        assert rep["inputs_digest"] == cli._digest(op, path.read_bytes(), flags)

    def test_bytes_read_once_parse_as_the_file_does(self, tmp_path):
        # load_system of the bytes already read: the system, and every
        # refusal with its text, that reading the file itself gives
        cases = [json.dumps(DI).encode(), json.dumps(DI).replace(",", ",\r").encode(),
                 b'{"A": [[1]],\r\n "B": \xff}', b'\xef\xbb\xbf{"A": [[1]], "B": [[1]]}',
                 b'{\r"A":\r\n[[1],}\r', b'[1, 2]', b'{"A": [[1]]}']
        for data in cases:
            path = tmp_path / "sys.json"
            path.write_bytes(data)
            outcomes = []
            for load in (lambda: load_system(path), lambda: load_system(path, data=data)):
                try:
                    sys_ = load()
                    outcomes.append([sys_.A.tolist(), sys_.B.tolist(), sys_.C.tolist()])
                except SystemFormatError as err:
                    outcomes.append(str(err))
            assert outcomes[0] == outcomes[1]

    def test_digest_tracks_flags(self, capsys, di_file):
        _, rep1 = run_cli(capsys, "reach", di_file)
        _, rep2 = run_cli(capsys, "reach", di_file, "--tol-rel", "1e-10")
        assert rep1["inputs_digest"] != rep2["inputs_digest"]

    def test_parser_reuse_leaks_nothing(self, capsys, di_file):
        # one parser serves every call in a process: no flag of one call
        # may reach the next, and a usage error must leave it intact
        assert cli._build_parser() is cli._build_parser()
        main(["reach", di_file])
        first = capsys.readouterr().out
        assert main(["reach", di_file, "--tol-rel", "1e-10"]) == 0
        assert main(["kh", di_file, "--lambdas=-1"]) == 0
        capsys.readouterr()
        _, friend = run_cli(capsys, "friend", di_file)
        flags = {"json_indent": 2, "tol_abs": 1e-8, "tol_rel": 1e-11}
        assert friend["inputs_digest"] == cli._digest("friend", Path(di_file).read_bytes(), flags)
        with pytest.raises(SystemExit):
            main(["kh", di_file])  # --lambdas is required
        assert main(["verify", "lemma-reach", "--trials", "2"]) == 0
        capsys.readouterr()
        main(["reach", di_file])
        assert capsys.readouterr().out == first


class TestLambdasAfterASpace:
    """``--lambdas -1,-2`` gives the report of ``--lambdas=-1,-2``, byte for
    byte: a list that starts with a minus sign is not read as an option."""

    @pytest.mark.parametrize("op, lams", [
        ("kh", "-1,-2"),
        ("kh", "-1+2i,-1-2i"),  # a leading conjugate pair
        ("kh", "-.5"),
        ("place", "-1+2i,-1-2i"),
        ("friend", "-1,-2"),
        ("kh", "-1,-2+0.5i,-2-0.5i"),  # the parser's own example
        ("kh", "-i,i"),
    ])
    def test_space_form_is_the_equals_form(self, capsys, tmp_path, op, lams):
        path = tmp_path / "sq.json"
        shape = (2, 1, 0) if op == "place" else (4, 1, 1)  # place takes one value per state
        dump_system(random_system(GenSpec(*shape, seed=2)), path)
        space = main([op, str(path), "--lambdas", lams])
        space_out = capsys.readouterr().out
        equals_ = main([op, str(path), f"--lambdas={lams}"])
        equals_out = capsys.readouterr().out
        assert (space, space_out) == (equals_, equals_out)
        assert space == 0 and json.loads(space_out)["op"] == op

    def test_a_flag_is_not_a_list(self, capsys, di_file):
        # --lambdas followed by another option still lacks its value
        with pytest.raises(SystemExit) as info:
            main(["kh", di_file, "--lambdas", "--tol-rel", "1e-9"])
        out, err = capsys.readouterr()
        assert info.value.code == 2 and out == "" and "usage:" in err

    def test_a_non_finite_list_reaches_the_library(self, capsys, di_file):
        # "-inf" joins too, and is refused as a value, not as a flag
        code, rep = run_cli(capsys, "kh", di_file, "--lambdas", "-inf")
        assert code == 1 and rep["error"]["kind"] == "validation"


class TestProcess:
    @staticmethod
    def run_python(*args):
        src = str(Path(geokit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=120)

    def test_import_leaves_scipy_optimize_unloaded(self):
        # only the sweeps match spectra, so only they load scipy.optimize
        proc = self.run_python(
            "-c", "import sys, geokit.cli; print('scipy.optimize' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_module_entry_point(self, di_file):
        proc = self.run_python("-m", "geokit.cli", "zeros", di_file)
        assert proc.returncode == 0, proc.stderr
        assert set(json.loads(proc.stdout)) == {"op", "inputs_digest", "result", "diagnostics"}

    def test_lambdas_after_a_space_from_the_command_line(self, capsys, di_file):
        # main() without arguments reads sys.argv, and joins the list there too
        proc = self.run_python("-m", "geokit.cli", "kh", di_file, "--lambdas", "-1,-2")
        assert proc.returncode == 0, proc.stderr
        assert main(["kh", di_file, "--lambdas=-1,-2"]) == 0
        assert proc.stdout == capsys.readouterr().out
