"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness as hn  # noqa: E402
from perfbench import oracles as orc  # noqa: E402
from perfbench import tracer as tr  # noqa: E402
from perfbench import workloads as wls  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Every metric the benchmark promises (see README.md), with the unit it must carry.
NAMED_END_TO_END = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "peak_rss_mb": "MiB"}
NAMED_PER_LAYER = [
    "linalg.svd.calls", "linalg.svd.self_s", "linalg.svd.complex_calls",
    "linalg.svd.flops_computed", "linalg.norm2.calls", "linalg.norm2.self_s",
    *[f"linalg.{f}.{k}" for f in ("Subspace", "rank_of", "kernel_basis", "image_basis", "pinv",
                                  "subspace_sum", "subspace_intersect", "preimage")
      for k in ("calls", "self_s")],
    *[f"sysmodel.{f}.{k}" for f in ("random_system", "load_system") for k in ("calls", "self_s")],
    *[f"pencils.{f}.{k}" for f in ("rosenbrock_kernel", "reach_pencil_kernel",
                                   "uncontrollable_eigenvalues", "normal_rank_rosenbrock",
                                   "invariant_zeros") for k in ("calls", "self_s")],
    *[f"geometry.{f}.{k}" for f in ("vstar_sequence", "sstar_sequence", "krylov_image",
                                    "reachable_subspace", "unobservable_subspace",
                                    "reachability_on", "friend_of", "morse_decomposition",
                                    "intersection_formula") for k in ("calls", "self_s")],
    "geometry.vstar_sequence.steps", "geometry.sstar_sequence.steps",
    "geometry.vstar_sequence.svd_per_step", "geometry.sstar_sequence.svd_per_step",
    "geometry.friend_of.per_reachability_on", "geometry.friend_of.ok_ratio",
    *[f"assignment.{f}.{k}" for f in ("place_poles", "build_Kh", "min_distinct_spectrum",
                                      "reach_on_Kh") for k in ("calls", "self_s")],
    "assignment.place_poles.ok_ratio",
    *[f"verify.{t}.self_s" for t in ("th1", "th2", "lattice", "thlast", "corollary-last",
                                     "lemma-diag", "lemma-reach", "lemma-intersection",
                                     "rstar-identity")],
    "verify.trials_failed", "cli.main.calls", "cli.main.self_s", "cli.report_bytes",
    "vstar_s", "sstar_s", "rstar_s", "zeros_s", "kh_s", "friend_s", "place_s", "fail_share",
]
COUNT_UNITS = ("count", "flop", "B", "share")


@pytest.fixture(scope="module")
def gk():
    return hn.modules()


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_same_seed_gives_same_inputs(gk, tmp_path):
    for name in wls.WORKLOADS:
        a = wls.build(gk, name, 3, tmp_path).digest
        assert wls.build(gk, name, 3, tmp_path).digest == a, name
        # verify-sweep's batch seeds are fixed (see build_verify)
        assert (wls.build(gk, name, 4, tmp_path).digest != a) == (name != "verify-sweep"), name


def test_benchmark_json_names_every_metric(gk):
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(wls.WORKLOADS)
    assert all(w["why"].strip() and "\n" not in w["why"] for w in SPEC["workloads"])
    assert _units("end_to_end") == NAMED_END_TO_END == hn.END_TO_END
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in SPEC["end_to_end"])
    per_layer = _units("per_layer")
    assert set(NAMED_PER_LAYER) <= set(per_layer)
    extra = {"trials_failed": 0, "report_bytes": 0, "fail_share": 0.0,
             "traced_wall_s": 1.0, "overhead_share": 0.0}
    printed = hn.layer_metrics(tr.Tracer(), list(gk.verify.THEOREM_IDS), extra)
    assert {k: u for k, (_, u) in printed.items()} == per_layer


def _traced_pass(gk, workdir):
    tracer = tr.Tracer()
    tracer.install()
    try:
        wl = wls.build_large(gk, 5, groups=1)
        warm = hn.warm_up(gk, workdir)
        attempts, times = hn.measure(wl.ops, None, tracer, passes=1)
    finally:
        tracer.uninstall()
    hn.check(wl, attempts)
    failed = sum(a.status != "ok" for a in attempts)
    extra = {"trials_failed": warm["failed_trials"], "report_bytes": warm["cli_report_bytes"],
             "fail_share": failed / len(attempts), "traced_wall_s": times[0],
             "overhead_share": 0.0}
    return hn.layer_metrics(tracer, list(gk.verify.THEOREM_IDS), extra)


def test_traced_counts_repeat_exactly(gk, tmp_path):
    first, second = _traced_pass(gk, tmp_path), _traced_pass(gk, tmp_path)
    counts = {k for k, (_, unit) in first.items() if unit in COUNT_UNITS}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["linalg.svd.calls"][0] > 0 and first["geometry.sstar_sequence.steps"][0] > 0
    # the warm-up touches every layer, so no function row is empty
    assert all(v > 0 for k, (v, _) in first.items() if k.endswith(".calls"))


def test_tracer_restores_every_binding(gk):
    before_svd, before_img = np.linalg.svd, gk.geometry.image_basis
    before_runner = gk.verify.THEOREM_IDS["th1"]
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert gk.geometry.image_basis is gk.linalg.image_basis is not before_img
        assert gk.verify.THEOREM_IDS["th1"] is not before_runner
        gk.geometry.vstar(gk.sysmodel.random_system(gk.sysmodel.GenSpec(n=4, m=2, p=1, seed=1)))
    finally:
        tracer.uninstall()
    assert np.linalg.svd is before_svd and gk.geometry.image_basis is before_img
    assert gk.verify.THEOREM_IDS["th1"] is before_runner
    assert tracer.agg["geometry.vstar_sequence"].calls == 1
    assert tracer.agg[tr.SVD].calls > 0 and tracer.agg["linalg.preimage"].calls > 0


def test_oracles_reject_wrong_answers(gk):
    GenSpec = gk.sysmodel.GenSpec
    s = gk.sysmodel.random_system(GenSpec(n=6, m=2, p=2, seed=3))
    case = wls.Case("c", s, [-1.0, -2.0, -3.0], [-1.0, -2.0, -3.0, -4.0, -5.0, -6.0])
    oracle = wls.Oracle(gk, {"c": case})
    V = gk.geometry.vstar(s).basis
    assert oracle.vstar(case, V) is None
    assert oracle.vstar(case, V[:, :-1]) is not None
    S = gk.geometry.sstar(s).basis
    assert oracle.sstar(case, S) is None
    assert oracle.rstar(case, gk.geometry.rstar(s).basis) is None
    assert oracle.rstar(case, V) is not None
    zeros = gk.pencils.invariant_zeros(s)
    assert oracle.zeros(case, zeros) is None
    assert oracle.zeros(case, list(zeros) + [0.123]) is not None
    F = gk.geometry.friend_of(s, gk.geometry.vstar(s)).F
    assert oracle.friend(case, F) is None
    assert oracle.friend(case, F + 1e-3) is not None
    P = gk.assignment.place_poles(s.A, s.B, case.place_lams).F
    assert oracle.place(case, P) is None
    assert oracle.place(case, P + 1e-3) is not None
    pair = gk.sysmodel.random_system(GenSpec(n=6, m=2, p=0, seed=4))
    case0 = wls.Case("c0", pair, [-1.0, -2.0], None)
    kh = gk.assignment.build_Kh(pair, case0.kh_lams)[0].basis
    assert kh.shape[1] == 4 and oracle.kh(case0, kh) is None
    assert oracle.kh(case0, kh[:, :-1]) is not None
    Q, steps = orc.krylov(s.A, s.B)
    assert Q.shape[1] == 6 and steps == 3


def test_failing_ops_are_recorded(gk):
    def boom():
        raise ValueError("boom")

    ops = [wls.Op("a", "x", lambda: 1), wls.Op("b", "x", boom)]
    wl = wls.Workload("t", ops, lambda op, out: None if out == 1 else "wrong", "")
    attempts, times = hn.measure(ops, None, passes=2, reference=hn.Reference())
    hn.check(wl, attempts)
    assert [a.status for a in attempts] == ["ok", "error"] * 2 and len(times) == 2
    assert all(a.ref > 0 and a.nominal > 0 for a in attempts)
    assert hn.failures(ops, attempts) == [
        {"op": "b", "kind": "x", "status": "error", "message": "ValueError: boom", "failed": 2}]


def test_left_out_ops_still_fail(gk):
    """Each rule of ``known_failure`` still holds at n = 40, and every other op
    succeeds.  A stale rule hides an op that geokit now answers: drop it."""
    cases = wls._groups(gk, np.random.default_rng([5, 2]), (40,), place_sizes=(40,))
    results: dict = {}
    oracle = wls.Oracle(gk, {c.key: c for c in cases}, results)
    ops = [op for c in cases for op in wls._library_ops(gk, c)]
    wl = wls.Workload("t", ops, lambda op, out: wls._check_library(oracle, op, out), "",
                      results=results)
    attempts, _ = hn.measure(ops, None, passes=1)
    hn.check(wl, attempts)
    for a in attempts:
        op, s = ops[a.op], ops[a.op].case.sys
        left_out = wls.known_failure(op.kind, s.n, s.m, s.p) is not None
        assert (a.status != "ok") == left_out, (op.id, a.status, a.message)
    for case in cases:
        s = case.sys
        if s.p:
            want = s.n - orc.krylov(s.A.T, s.C.T)[0].shape[1]
            got = gk.geometry.unobservable_subspace(s.C, s.A).dim
            assert (got != want) == (wls.known_failure("unobs", s.n, s.m, s.p) is not None)


def test_known_failing_sweep_batches_still_fail(gk):
    """A batch that no longer fails means the defect is fixed: drop it, and
    let verify-sweep draw its batch seeds from ``--seed`` again."""
    for theorem, k in wls.VERIFY_KNOWN_FAILING:
        report, = gk.verify.run(theorem, trials=wls.VERIFY_BATCH, seed=k, nmax=wls.VERIFY_NMAX)
        assert report.failures and not report.failures[0].message.startswith("exception")


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line(trace):
    out = _run(ROOT, "--workload", "cli-reports", "--seed", "2", "--seconds", "0.1",
               "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    want = _units("per_layer" if trace == "1" else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    detail = json.loads(out.stdout.splitlines()[-2])
    assert detail["left_out"] and all(x["reason"] for x in detail["left_out"])
    env = detail["environment"]
    assert env["blas_threads"] == 1 and env["nproc"] >= 1 and env["numpy"] and env["scipy"]


def test_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(tmp_path, "--workload", "ops-large", "--seed", "1", "--seconds", "1")
    assert out.returncode != 0 and not out.stdout.strip()
