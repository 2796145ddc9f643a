"""Set-up, the closed measurement loop, checks, and the metrics built from them.

A workload is a closed loop with one caller: the next op starts when the
previous one returns.  Ops are timed one at a time; checks run after the
loop, outside every timed span and with the tracer removed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import numpy as np

from . import tracer as tr
from . import workloads as wls

GEOKIT_MODULES = ("linalg", "sysmodel", "pencils", "geometry", "assignment", "verify", "cli")
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it
# Times are reported at a nominal host speed: on a shared host the same work can
# take 1.3-1.8x longer for seconds to minutes at a time, and CPU time slows
# with it.  A fixed numpy/Python kernel (``Reference``), timed beside every op
# and every set-up, gauges the speed at that moment; a time t measured while
# the kernel took r is reported as t * REF_NOMINAL_S / r.
REF_NOMINAL_S = 1e-3
REF_REPEATS = 3

# End-to-end metrics of an untraced run, with their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


@dataclass
class Attempt:
    op: int
    pass_index: int
    seconds: float
    out: Any
    error: str | None
    status: str = "ok"
    message: str | None = None
    ref: float | None = None  # reference kernel time around the attempt

    @property
    def nominal(self) -> float:
        return self.seconds * REF_NOMINAL_S / self.ref


class Reference:
    """The host-speed gauge: SVDs and small-array numpy work of the kind
    geokit does, on fixed inputs.  It never calls geokit, so a change to
    geokit moves the reported times and not the gauge."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.real = rng.standard_normal((48, 48))
        self.complex = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self.small = [rng.standard_normal((4, 4)) for _ in range(50)]
        for _ in range(5):
            self.once()

    def once(self) -> float:
        t0 = time.perf_counter()
        np.linalg.svd(self.real)
        np.linalg.svd(self.complex)
        acc = np.zeros((4, 4))
        for M in self.small:
            acc = acc + M @ M.T
            acc /= np.linalg.norm(acc)
        return time.perf_counter() - t0

    def __call__(self) -> float:
        """Median of a few kernel runs, in seconds."""
        return statistics.median(self.once() for _ in range(REF_REPEATS))


def modules():
    """geokit's modules, by short name."""
    importlib.import_module("geokit")
    return SimpleNamespace(**{m: importlib.import_module(f"geokit.{m}") for m in GEOKIT_MODULES})


def fresh_import():
    """Re-import geokit from scratch; part of the measured set-up."""
    for name in [k for k in sys.modules if k == "geokit" or k.startswith("geokit.")]:
        del sys.modules[name]
    return modules()


def warm_up(gk, workdir: Path) -> dict:
    """One call of every op kind, CLI command and sweep on fixed tiny inputs.

    It pays first-call costs (lazy imports, LAPACK and argparse set-up) before
    anything is timed, and touches every layer so that each per-layer row of a
    traced run is populated.  Its inputs do not depend on the seed.
    """
    errors: list[str] = []
    report_bytes = 0
    failed_trials = 0

    def attempt(label, fn):
        try:
            return fn()
        except Exception as e:  # warm-up keeps going; failures are listed in the report
            errors.append(f"{label}: {type(e).__name__}: {e}")
            return None

    GenSpec = gk.sysmodel.GenSpec
    quad = gk.sysmodel.random_system(GenSpec(n=5, m=2, p=2, seed=11))
    pair = gk.sysmodel.random_system(GenSpec(n=5, m=2, p=0, seed=12))
    lams = [-1.0, -2.0, -3.0, -4.0, -5.0]
    for s in (quad, pair):
        V = attempt("vstar", lambda: gk.geometry.vstar(s))
        attempt("sstar", lambda: gk.geometry.sstar(s))
        attempt("rstar", lambda: gk.geometry.rstar(s))
        attempt("kh", lambda: gk.assignment.build_Kh(s, lams[:2]))
        if V is not None:
            attempt("friend", lambda: gk.geometry.friend_of(s, V))
        attempt("place", lambda: gk.assignment.place_poles(s.A, s.B, lams))
        attempt("minspec", lambda: gk.assignment.min_distinct_spectrum(
            s, "rosenbrock" if s.p else "reachability"))
    attempt("zeros", lambda: gk.pencils.invariant_zeros(quad))
    attempt("unobs", lambda: gk.geometry.unobservable_subspace(quad.C, quad.A))
    path = workdir / "warmup.json"
    gk.sysmodel.dump_system(quad, path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        attempt("cli zeros", lambda: gk.cli.main(["zeros", str(path)]))
    report_bytes += len(buf.getvalue())
    for theorem in gk.verify.THEOREM_IDS:
        reports = attempt(f"verify {theorem}",
                          lambda: gk.verify.run(theorem, trials=1, seed=0, nmax=4))
        failed_trials += sum(len(r.failures) for r in reports or ())
    return {"errors": errors, "cli_report_bytes": report_bytes, "failed_trials": failed_trials}


def set_up(name: str, seed: int, workdir: Path, tracer: tr.Tracer | None = None):
    """Import, input generation and warm-up; returns (seconds, gk, workload, warm)."""
    t0 = time.perf_counter()
    gk = fresh_import()
    if tracer is not None:
        tracer.install()
    workload = wls.build(gk, name, seed, workdir)
    warm = warm_up(gk, workdir)
    return time.perf_counter() - t0, gk, workload, warm


def measure(ops, seconds: float | None, tracer: tr.Tracer | None = None,
            passes: int | None = None, reference: Reference | None = None
            ) -> tuple[list[Attempt], list[float]]:
    """Issue ops in order, pass after pass, each when the previous returns.

    With ``seconds``: stop at the first op boundary past the deadline once at
    least one pass is complete.  With ``passes``: run exactly that many.
    With ``reference``: time it between ops, and give each attempt the mean
    of the gauges before and after it.
    Returns every attempt and the op time of each complete pass.
    """
    attempts: list[Attempt] = []
    pass_times: list[float] = []
    deadline = time.perf_counter() + (seconds or 0.0)
    ref_before = reference() if reference else None
    p = 0
    while True:
        total = 0.0
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            error = None
            t0 = time.perf_counter()
            try:
                out = op.fn()
            except Exception as e:  # a failing op is recorded, never dropped
                out = None
                error = f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            attempts.append(Attempt(i, p, dt, out, error))
            if reference:
                ref_after = reference()
                attempts[-1].ref = (ref_before + ref_after) / 2
                ref_before = ref_after
            total += dt
            if passes is None and p >= 1 and time.perf_counter() >= deadline:
                return attempts, pass_times
        pass_times.append(total)
        p += 1
        if passes is not None and p >= passes:
            return attempts, pass_times
        if passes is None and time.perf_counter() >= deadline:
            return attempts, pass_times


def check(workload: wls.Workload, attempts: list[Attempt]) -> None:
    """Give every attempt a status: ``ok``, ``error``, ``wrong`` or ``unchecked``."""
    for a in attempts:
        op = workload.ops[a.op]
        if a.error is None and op.id not in workload.results:
            workload.results[op.id] = a.out
    for a in attempts:
        op = workload.ops[a.op]
        if a.error is not None:
            a.status, a.message = "error", a.error
            continue
        try:
            problem = workload.check(op, a.out)
        except wls.OpFailed as e:
            a.status, a.message = "error", str(e)
            continue
        except Exception as e:  # an oracle that cannot decide is reported, not hidden
            a.status, a.message = "unchecked", f"oracle failed: {type(e).__name__}: {e}"
            continue
        if problem is not None:
            a.status, a.message = "wrong", problem
        a.out = None  # release the answer once checked


def latency_stats(attempts: list[Attempt]) -> dict:
    """Per-op latency at the nominal host speed (see ``REF_NOMINAL_S``).

    Each op's time is the median of its attempts' nominal times.  The pass
    time is the sum over ops; p50 and tail are taken over the ops.  The same
    figures from raw times (fastest attempt per op) are kept for the record.
    """
    nominal: dict[int, list[float]] = {}
    fastest: dict[int, float] = {}
    for a in attempts:
        nominal.setdefault(a.op, []).append(a.nominal)
        fastest[a.op] = min(a.seconds, fastest.get(a.op, a.seconds))
    values = sorted(statistics.median(v) for v in nominal.values())
    raw = sorted(fastest.values())
    n = len(values)
    idx = max(0, n - 1 - TAIL_BEYOND)
    return {
        "samples": n,
        "pass_s": sum(values),
        "p50_s": statistics.median(values),
        "tail_s": values[idx],
        "tail_percentile": 100.0 * (idx + 1) / n,
        "tail_samples_beyond": n - 1 - idx,
        "raw_fastest": {"pass_s": sum(raw), "p50_s": statistics.median(raw),
                        "tail_s": raw[idx]},
        "ref_median_s": statistics.median(a.ref for a in attempts),
    }


def kind_seconds(ops, attempts: list[Attempt], passes: int) -> dict:
    """Summed op time per op kind, per complete pass."""
    out: dict[str, float] = {}
    for a in attempts:
        if a.pass_index < passes:
            kind = ops[a.op].kind
            out[kind] = out.get(kind, 0.0) + a.seconds
    return {k: v / passes for k, v in sorted(out.items())}


def failures(ops, attempts: list[Attempt], limit: int | None = None) -> list[dict]:
    """One entry per failing op, with its status, message and attempt counts."""
    rows: dict[int, dict] = {}
    for a in attempts:
        if a.status == "ok":
            continue
        row = rows.setdefault(a.op, {"op": ops[a.op].id, "kind": ops[a.op].kind,
                                     "status": a.status, "message": a.message, "failed": 0})
        row["failed"] += 1
    out = list(rows.values())
    return out if limit is None else out[:limit]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- per-layer metrics from a traced run ----------------------------------

OP_TOTALS = {
    "vstar_s": "geometry.vstar",
    "sstar_s": "geometry.sstar",
    "rstar_s": "geometry.rstar",
    "zeros_s": "pencils.invariant_zeros",
    "kh_s": "assignment.build_Kh",
    "friend_s": "geometry.friend_of",
    "place_s": "assignment.place_poles",
}
LAYER_FUNCTIONS = {
    "linalg": ("svd", "norm2", "Subspace", "rank_of", "kernel_basis", "image_basis", "pinv",
               "subspace_sum", "subspace_intersect", "preimage"),
    "sysmodel": ("random_system", "load_system"),
    "pencils": ("rosenbrock_kernel", "reach_pencil_kernel", "uncontrollable_eigenvalues",
                "normal_rank_rosenbrock", "invariant_zeros"),
    "geometry": ("vstar_sequence", "sstar_sequence", "krylov_image", "reachable_subspace",
                 "unobservable_subspace", "reachability_on", "friend_of", "morse_decomposition",
                 "intersection_formula"),
    "assignment": ("place_poles", "build_Kh", "min_distinct_spectrum", "reach_on_Kh"),
}


def layer_metrics(tracer: tr.Tracer, theorem_ids, extra: dict) -> dict:
    """Every per-layer metric, as ``name -> (value, unit)``."""
    get, counters = tracer.stats, tracer.counters
    m: dict[str, tuple[float, str]] = {}
    for module, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            a = get(f"{module}.{fn}")
            m[f"{module}.{fn}.calls"] = (a.calls, "count")
            m[f"{module}.{fn}.self_s"] = (a.self_s, "s")
    m["linalg.svd.complex_calls"] = (counters.get("linalg.svd.complex_calls", 0), "count")
    m["linalg.svd.flops_computed"] = (counters.get("linalg.svd.flops_computed", 0.0), "flop")
    for seq in tr.SEQUENCES:
        steps = counters.get(f"{seq}.steps", 0)
        m[f"{seq}.steps"] = (steps, "count")
        m[f"{seq}.svd_per_step"] = (get(seq).svd_desc / steps if steps else 0.0, "count")
    reach_on = get("geometry.reachability_on")
    m["geometry.friend_of.per_reachability_on"] = (
        reach_on.friend_desc / reach_on.calls if reach_on.calls else 0.0, "count")
    for name in (tr.FRIEND, "assignment.place_poles"):
        a = get(name)
        m[f"{name}.ok_ratio"] = ((a.calls - a.errors) / a.calls if a.calls else 0.0, "share")
    for theorem in theorem_ids:
        m[f"verify.{theorem}.self_s"] = (get(f"verify.{theorem}").self_s, "s")
    m["verify.trials_failed"] = (extra["trials_failed"], "count")
    cli = get("cli.main")
    m["cli.main.calls"] = (cli.calls, "count")
    m["cli.main.self_s"] = (cli.self_s, "s")
    m["cli.report_bytes"] = (extra["report_bytes"], "B")
    for metric, name in OP_TOTALS.items():
        m[metric] = (get(name).outer_s, "s")
    m["fail_share"] = (extra["fail_share"], "share")
    m["trace.wall_s"] = (extra["traced_wall_s"], "s")
    m["trace.overhead_share"] = (extra["overhead_share"], "share")
    return m


# -- environment ------------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it is not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(root: Path) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = sorted((root / "src" / "geokit").glob("*.py"))
    h = hashlib.sha256()
    for f in src:
        h.update(f.name.encode() + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "source_sha256": h.hexdigest(),
    }
