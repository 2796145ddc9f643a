"""Benchmark entry point.

    python3 perfbench/run.py --workload ops-large --seed 1 --seconds 35 --trace 0

Run from anywhere; geokit is imported from ``src/`` next to this directory.
With ``--trace 0`` the run sets up several times, measures the workload's
closed loop for ``--seconds`` and reports the end-to-end metrics, its times
scaled to a nominal host speed (see ``harness.REF_NOMINAL_S``).  With
``--trace 1`` it sets up once with the tracer installed, times one untraced
pass, then one traced pass, and reports the per-layer metrics; this work is
fixed, so counts repeat exactly between traced runs.

The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The line before it holds the run's detail: environment, input digest,
latency sample counts, failures by op, and the ops left out because geokit
fails them today.  Both, plus every attempt, go to
``.perfbench_out/report-<workload>-seed<seed>-trace<t>.json``; a traced run
also writes its spans to ``.perfbench_out/spans-<workload>-seed<seed>.json.gz``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import warnings
from pathlib import Path

# One process, one BLAS thread: no extra threads to compete on a small box.
# Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import scipy.linalg  # noqa: E402,F401 - third-party imports stay out of setup_s
import scipy.optimize  # noqa: E402,F401

from perfbench import harness as hn  # noqa: E402
from perfbench import tracer as tr  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _metrics(pairs: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in pairs.items()}


def timed_run(name, seed, seconds, workdir):
    ref = hn.Reference()
    raw_setups, setups, digests = [], [], set()

    def set_up():
        before = ref()
        secs, _gk, wl, warm = hn.set_up(name, seed, workdir)
        raw_setups.append(secs)
        setups.append(secs * hn.REF_NOMINAL_S * 2 / (before + ref()))
        digests.add(wl.digest)
        return wl, warm

    # Set-up is timed before and after the measured loop, half a run apart,
    # so one slow spell of the machine cannot cover every sample.
    for _ in range(SETUP_REPEATS):
        wl, warm = set_up()
    attempts, pass_times = hn.measure(wl.ops, seconds, reference=ref)
    for _ in range(SETUP_REPEATS - 1):
        set_up()
    if len(digests) != 1:
        raise RuntimeError("input generation is not deterministic for one seed")
    hn.check(wl, attempts)
    lat = hn.latency_stats(attempts)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": lat["pass_s"],
        "latency_p50_ms": lat["p50_s"] * 1e3,
        "latency_tail_ms": lat["tail_s"] * 1e3,
        "peak_rss_mb": hn.peak_rss_mb(),
    }
    metrics = {k: (values[k], unit) for k, unit in hn.END_TO_END.items()}
    detail = {
        "setup_runs_s": raw_setups,
        "setup_runs_nominal_s": setups,
        "passes": len(pass_times),
        "pass_s": pass_times,
        "latency": lat,
        "op_kind_s": hn.kind_seconds(wl.ops, attempts, len(pass_times)),
    }
    return wl, warm, attempts, metrics, detail


def traced_run(name, seed, workdir, outdir):
    tracer = tr.Tracer()
    secs, gk, wl, warm = hn.set_up(name, seed, workdir, tracer)
    tracer.uninstall()
    _, untraced = hn.measure(wl.ops, None, passes=1)
    tracer.install()
    attempts, traced = hn.measure(wl.ops, None, tracer, passes=1)
    tracer.uninstall()
    answered = [a.out for a in attempts if a.out is not None]
    report_bytes = warm["cli_report_bytes"] + (
        sum(len(text) for _code, text in answered) if name == "cli-reports" else 0)
    trials_failed = warm["failed_trials"] + (
        sum(len(r.failures) for reports in answered for r in reports)
        if name == "verify-sweep" else 0)
    hn.check(wl, attempts)
    failed = sum(a.status != "ok" for a in attempts)
    extra = {
        "trials_failed": trials_failed,
        "report_bytes": report_bytes,
        "fail_share": failed / len(attempts),
        "traced_wall_s": traced[0],
        "overhead_share": traced[0] / untraced[0] - 1.0,
    }
    metrics = hn.layer_metrics(tracer, list(gk.verify.THEOREM_IDS), extra)
    spans_file = outdir / f"spans-{name}-seed{seed}.json.gz"
    tracer.write(spans_file, {"workload": name, "seed": seed,
                              "ops": [op.id for op in wl.ops]})
    detail = {"setup_s": secs, "untraced_wall_s": untraced[0], "spans": len(tracer.spans),
              "spans_file": str(spans_file.relative_to(ROOT))}
    return wl, warm, attempts, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "geokit" / "__init__.py").is_file():
        print(f"error: geokit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")  # conditioning notices would flood stderr
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=outdir))
    try:
        if args.trace:
            wl, warm, attempts, metrics, detail = traced_run(
                args.workload, args.seed, workdir, outdir)
        else:
            wl, warm, attempts, metrics, detail = timed_run(
                args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(a.status != "ok" for a in attempts)
    statuses: dict[str, int] = {}
    for a in attempts:
        statuses[a.status] = statuses.get(a.status, 0) + 1
    report_file = outdir / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": hn.environment(ROOT),
        "input_digest": wl.digest, "ops": len(wl.ops), "attempted": len(attempts),
        "statuses": statuses, "fail_share": failed / len(attempts),
        "left_out": wl.left_out,
        **detail,
        "warmup_errors": warm["errors"],
        "failures": hn.failures(wl.ops, attempts, limit=25),
        "report_file": str(report_file.relative_to(ROOT)),
    }
    result = {
        "correct": not any(a.status in ("wrong", "unchecked") for a in attempts),
        "attempted": len(attempts),
        "failed": failed,
        "metrics": _metrics(metrics),
    }
    full = dict(detail, failures=hn.failures(wl.ops, attempts), result=result, attempts=[
        [wl.ops[a.op].id, a.pass_index, a.seconds, a.status, a.message] for a in attempts])
    report_file.write_text(json.dumps(full), encoding="utf-8")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
