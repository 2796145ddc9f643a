"""Seeded inputs, op lists and oracles for the four workloads.

Every workload is a fixed list of ops built from ``--seed`` alone; geokit
only ever sees the generated matrices.  Ops call geokit through module
attributes, so a traced run sees every call.

``ops-large``   the recursions' real cost: two groups at n = 40, one at n = 80.
``verify-sweep`` the nine sweeps at acceptance trial counts, one op per 10 trials;
                 its batch seeds are fixed.
``cli-reports`` ``geokit.cli.main`` on JSON system files, every valid op.

Systems come in groups of the four shapes (m, p) = (3,2), (2,3), (2,2),
(2,0).  The (2,3) member of a group is the dual of its (3,2) member, so the
two expensive chains (S* of (3,2), V* of (2,3)) serve as each other's
oracle: V* of a system is the orthogonal complement of S* of its dual.

A run must succeed, so no workload issues an op that geokit gets wrong or
refuses today (``known_failure``); each run lists the ops it left out, with
the reason, in its detail line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import oracles as orc

SHAPES = ((3, 2), (2, 3), (2, 2), (2, 0))
WORKLOADS = ("ops-large", "verify-sweep", "cli-reports")
CLI_OPS = ("reach", "unobs", "vstar", "sstar", "rstar", "zeros", "uncontrollable",
           "morse", "kh", "place", "friend", "minspec")
CLI_NEEDS_OUTPUTS = ("unobs", "zeros", "morse")
VERIFY_NMAX = 8
VERIFY_BATCH = 10
# 80, not 120: a pass must fit several times in one run, so that every op's
# median time has several attempts (see harness.latency_stats).
# Two groups at n = 40 keep the median op from hinging on one system.
LARGE_SIZES = (40, 40, 80)
CLI_SIZES = (8, 40)
# A sweep batch ``verify.run(theorem, trials=10, seed=k, nmax=8)`` that finds
# a wrong answer, as (theorem, k): thlast's trial 9 gets a zero-dimensional
# reachability subspace at h = 8 where 8 is due.  About one thlast trial in
# a few thousand fails this way, so verify-sweep uses fixed batch seeds.
VERIFY_KNOWN_FAILING = (("thlast", 2099642678),)
# Every op succeeds at n = 8; the rules of ``known_failure`` hold above it.
KNOWN_FAILING_ABOVE_N = 8


def known_failure(kind: str, n: int, m: int, p: int) -> str | None:
    """Why geokit fails ``kind`` today on generic seeded (n, m, p) systems at
    the sizes used here (40 and 80), or None.  These fail on every seed
    tried.  Drop a rule once geokit is fixed, so that its ops come back.
    """
    if n <= KNOWN_FAILING_ABOVE_N:
        return None
    if kind == "place":
        return "SynthesisError: eigenvector-based placement spans too few directions"
    if kind == "unobs":
        return "wrong: unobservable_subspace reports a large subspace on observable systems"
    if kind == "kh" and p == 0:
        return "wrong: build_Kh returns less than the h-step reachable subspace"
    if m > p and (kind in ("rstar", "zeros", "morse", "kh", "friend")
                  or (kind == "minspec" and p > 0)):
        return "SynthesisError: dependent eigenvector selection in the friend of V*"
    return None


def _split(ops: list["Op"]) -> tuple[list["Op"], list[dict]]:
    """The ops to issue, and the left-out ones with their reasons."""
    kept, left_out = [], []
    for op in ops:
        s = op.case.sys
        why = known_failure(op.kind, s.n, s.m, s.p)
        if why:
            left_out.append({"op": op.id, "reason": why})
        else:
            kept.append(op)
    return kept, left_out


@dataclass
class Case:
    key: str
    sys: Any
    kh_lams: list
    place_lams: list | None
    dual_key: str | None = None
    path: str | None = None

    @property
    def n(self) -> int:
        return self.sys.n


@dataclass
class Op:
    id: str
    kind: str
    fn: Callable[[], Any]
    case: Case | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    check: Callable[[Op, Any], str | None]
    digest: str
    # ops not issued because geokit fails them today (see known_failure)
    left_out: list[dict] = field(default_factory=list)
    # first answer of each op id, filled by the harness before checks run
    results: dict[str, Any] = field(default_factory=dict)


class OpFailed(Exception):
    """Raised by a check when an op's output reports a failure (a nonzero
    CLI exit code, an exception inside a sweep trial): an error, not a wrong
    answer."""


def spread_spectrum(rng, A, count: int) -> list[complex]:
    """``count`` distinct negative reals spread across the open-loop band,
    one per equal-width bin with a seeded position inside the bin."""
    s = max(1.0, float(np.abs(np.linalg.eigvals(A)).max()))
    u = (np.arange(count) + 0.1 + 0.8 * rng.uniform(size=count)) / count
    return [complex(-s * (0.15 + 0.95 * x)) for x in u]


def _groups(gk, rng, sizes, place_sizes) -> list[Case]:
    GenSpec = gk.sysmodel.GenSpec
    cases: list[Case] = []
    for g, n in enumerate(sizes):
        group = {}
        for m, p in SHAPES:
            key = f"g{g}-n{n}-m{m}p{p}"
            if (m, p) == (2, 3):
                sys = gk.sysmodel.dual_of(group[(3, 2)].sys)
            else:
                spec = GenSpec(n=n, m=m, p=p, seed=int(rng.integers(0, 2**31)))
                sys = gk.sysmodel.random_system(spec)
            place = spread_spectrum(rng, sys.A, n) if n in place_sizes else None
            group[(m, p)] = Case(key, sys, spread_spectrum(rng, sys.A, max(1, n // 2)), place)
        group[(3, 2)].dual_key = group[(2, 3)].key
        group[(2, 3)].dual_key = group[(3, 2)].key
        cases.extend(group.values())
    return cases


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _case_digest(cases, ops) -> str:
    parts = []
    for c in cases:
        parts += [c.key, c.sys.A, c.sys.B, c.sys.C, c.sys.D, c.kh_lams, c.place_lams]
    return _digest(parts + [op.id for op in ops])


# -- library ops ------------------------------------------------------------

def _library_ops(gk, case: Case) -> list[Op]:
    geometry, pencils, assignment = gk.geometry, gk.pencils, gk.assignment
    s = case.sys
    state: dict = {}

    def vstar():
        state["vstar"] = geometry.vstar(s)
        return state["vstar"]

    def friend():
        if "vstar" not in state:
            raise RuntimeError("no V* from this pass's vstar op")
        return geometry.friend_of(s, state["vstar"])

    ops = [
        Op(f"{case.key}/vstar", "vstar", vstar),
        Op(f"{case.key}/sstar", "sstar", lambda: geometry.sstar(s)),
        Op(f"{case.key}/rstar", "rstar", lambda: geometry.rstar(s)),
    ]
    if s.p:
        ops.append(Op(f"{case.key}/zeros", "zeros", lambda: pencils.invariant_zeros(s)))
    ops.append(Op(f"{case.key}/kh", "kh", lambda: assignment.build_Kh(s, case.kh_lams)))
    ops.append(Op(f"{case.key}/friend", "friend", friend))
    if case.place_lams is not None:
        ops.append(Op(f"{case.key}/place", "place",
                      lambda: assignment.place_poles(s.A, s.B, case.place_lams)))
    for op in ops:
        op.case = case
    return ops


class Oracle:
    """Reference answers per case, computed once and outside timed spans.

    V*, S* and the S* chain come from the workload's own op results when
    available (the cross-check is then between two ops), else from geokit
    directly; the complement/Krylov/eigenvalue checks are numpy/scipy.
    """

    def __init__(self, gk, cases: dict[str, Case], results: dict[str, Any] | None = None):
        self.gk = gk
        self.cases = cases
        self.results = results if results is not None else {}
        self._memo: dict = {}

    def _get(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def basis(self, case: Case, which: str) -> np.ndarray:
        """Basis of V* or S* of ``case``."""
        def make():
            got = self.results.get(f"{case.key}/{which}")
            if got is not None:
                return got.basis
            fn = self.gk.geometry.vstar if which == "vstar" else self.gk.geometry.sstar
            return fn(case.sys).basis
        return self._get((case.key, which), make)

    def dual_basis(self, case: Case, which: str) -> np.ndarray:
        """Basis of V* or S* of the dual of ``case``."""
        def make():
            if case.dual_key:
                return self.basis(self.cases[case.dual_key], which)
            dual = self.gk.sysmodel.dual_of(case.sys)
            fn = self.gk.geometry.vstar if which == "vstar" else self.gk.geometry.sstar
            return fn(dual).basis
        return self._get((case.key, "dual", which), make)

    def reach(self, case: Case):
        return self._get((case.key, "reach"), lambda: orc.krylov(case.sys.A, case.sys.B))

    def kh_dim(self, case: Case) -> int:
        def make():
            h = len(case.kh_lams)
            if case.sys.p == 0:
                return orc.krylov(case.sys.A, case.sys.B, h)[0].shape[1]
            chain = self.s_chain(case)
            S_h = chain[min(h, len(chain) - 1)]
            return orc.intersection_dim(self.basis(case, "vstar"), S_h)
        return self._get((case.key, "kh"), make)

    def s_chain(self, case: Case) -> list[np.ndarray]:
        return self._get((case.key, "chain"),
                         lambda: [S.basis for S in self.gk.geometry.sstar_sequence(case.sys)])

    def rstar_dim(self, case: Case) -> int:
        return orc.intersection_dim(self.basis(case, "vstar"), self.basis(case, "sstar"))

    # -- per-answer checks -------------------------------------------------
    def vstar(self, case: Case, Q) -> str | None:
        n = case.n
        if case.sys.p == 0:
            bad = orc.basis_problem(Q, n)
            return bad or (None if Q.shape[1] == n else f"vstar: dim {Q.shape[1]} != n for p = 0")
        return orc.check_complement("vstar", Q, self.dual_basis(case, "sstar"), n)

    def sstar(self, case: Case, Q) -> str | None:
        if case.sys.p == 0:
            return orc.check_same_span("sstar", Q, self.reach(case)[0], case.n)
        return orc.check_complement("sstar", Q, self.dual_basis(case, "vstar"), case.n)

    def rstar(self, case: Case, Q) -> str | None:
        return orc.check_intersection("rstar", Q, self.basis(case, "vstar"),
                                      self.basis(case, "sstar"), case.n)

    def zeros(self, case: Case, zeros) -> str | None:
        return orc.check_zeros(zeros, case.sys, self.gk.verify.eig_multiset_match)

    def kh(self, case: Case, Q) -> str | None:
        bad = orc.basis_problem(Q, case.n)
        if bad:
            return f"kh: {bad}"
        if Q.size and np.iscomplexobj(Q) and np.abs(Q.imag).max() > orc.ORTH_TOL:
            return "kh: basis is not real"
        want = self.kh_dim(case)
        return None if Q.shape[1] == want else f"kh: dim {Q.shape[1]}, oracle dim {want}"

    def friend(self, case: Case, F) -> str | None:
        return orc.check_friend(F, case.sys, self.basis(case, "vstar"))

    def place(self, case: Case, F) -> str | None:
        return orc.check_place(F, case.sys, case.place_lams, self.gk.verify.eig_multiset_match)


def _check_library(oracle: Oracle, op: Op, out) -> str | None:
    case = op.case
    if op.kind in ("vstar", "sstar", "rstar"):
        return getattr(oracle, op.kind)(case, out.basis)
    if op.kind == "zeros":
        return oracle.zeros(case, out)
    if op.kind == "kh":
        return oracle.kh(case, out[0].basis)
    return getattr(oracle, op.kind)(case, out.F)


def build_large(gk, seed: int, groups: int | None = None) -> Workload:
    """``ops-large``; ``groups`` keeps only the first groups of ``LARGE_SIZES``."""
    rng = np.random.default_rng([seed, 2])
    cases = _groups(gk, rng, LARGE_SIZES[:groups], place_sizes=(40,))
    ops, left_out = _split([op for c in cases for op in _library_ops(gk, c)])
    by_key = {c.key: c for c in cases}
    results: dict[str, Any] = {}
    oracle = Oracle(gk, by_key, results)
    return Workload("ops-large", ops, lambda op, out: _check_library(oracle, op, out),
                    _case_digest(cases, ops), left_out, results)


# -- verify-sweep -----------------------------------------------------------

def build_verify(gk, seed: int) -> Workload:
    """The nine sweeps at the acceptance counts (100 trials, 200 for
    ``lemma-diag``; nmax = 8), as one op per batch of ``VERIFY_BATCH``
    trials: ``verify.run(id, trials=10, seed=k, nmax=8)`` for k = 0, 1, ...
    A batch averages the light and the heavy trials, so the latency tail
    does not hinge on how many n = 8 trials a batch drew.

    The batch seeds are fixed, like the acceptance sweep's, and ``seed`` does
    not change them: seeded batch seeds reach the rare wrong answers of
    ``VERIFY_KNOWN_FAILING``, and a run must succeed.
    """
    verify = gk.verify
    ops = []
    for theorem in verify.THEOREM_IDS:
        trials = 200 if theorem == "lemma-diag" else 100
        for k in range(trials // VERIFY_BATCH):
            def run(theorem=theorem, k=k):
                return verify.run(theorem, trials=VERIFY_BATCH, seed=k, nmax=VERIFY_NMAX)
            ops.append(Op(f"{theorem}/{k}", theorem, run))

    def check(op: Op, reports) -> str | None:
        if len(reports) != 1 or reports[0].theorem != op.kind:
            return "verify: malformed report"
        rep = reports[0]
        if rep.trials != VERIFY_BATCH or rep.passed + len(rep.failures) != VERIFY_BATCH:
            return "verify: trial counts do not add up"
        if not rep.failures:
            return None
        message = f"{len(rep.failures)} failed trials, first: {rep.failures[0].message}"
        if all(f.message.startswith("exception") for f in rep.failures):
            raise OpFailed(message)
        return message

    return Workload("verify-sweep", ops, check, _digest([op.id for op in ops]))


# -- cli-reports ------------------------------------------------------------

def _cli_call(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _lams_arg(lams) -> str:
    return ",".join(f"{z.real:.17g}" for z in lams)


def _matrix_in(obj) -> np.ndarray:
    if isinstance(obj, dict):
        return np.asarray(obj["re"]) + 1j * np.asarray(obj["im"])
    return np.asarray(obj, dtype=float)


def _basis_in(obj, n: int) -> np.ndarray:
    M = _matrix_in(obj)
    return M.reshape(n, -1) if M.size else np.zeros((n, 0))


def _check_cli(oracle: Oracle, op: Op, out) -> str | None:
    code, text = out
    report = json.loads(text)
    if code != 0:
        raise OpFailed(report.get("error", {}).get("message", f"exit code {code}"))
    case, kind, res = op.case, op.kind, report["result"]
    n = case.n
    if kind == "reach":
        Q, steps = oracle.reach(case)
        bad = orc.check_same_span("reach", _basis_in(res["basis"], n), Q, n)
        return bad or (None if res["saturation_steps"] == steps
                       else f"reach: saturation {res['saturation_steps']}, oracle {steps}")
    if kind == "unobs":
        want = n - orc.krylov(case.sys.A.T, case.sys.C.T)[0].shape[1]
        return None if res["dim"] == want else f"unobs: dim {res['dim']}, dual Krylov says {want}"
    if kind in ("vstar", "sstar", "rstar"):
        return getattr(oracle, kind)(case, _basis_in(res["basis"], n))
    if kind == "zeros":
        return oracle.zeros(case, [complex(z["re"], z["im"]) for z in res["zeros"]])
    if kind == "uncontrollable":
        want = orc.uncontrollable_count(case.sys)
        got = len(res["eigenvalues"])
        return None if got == want else f"uncontrollable: {got} eigenvalues, oracle {want}"
    if kind == "morse":
        dv = oracle.basis(case, "vstar").shape[1]
        if res["dim_vstar"] != dv or res["dim_rstar"] != oracle.rstar_dim(case):
            return f"morse: dims {res['dim_rstar']}/{res['dim_vstar']} disagree with R*/V*"
        return oracle.zeros(case, [complex(z["re"], z["im"]) for z in res["invariant_zeros"]])
    if kind == "kh":
        return oracle.kh(case, _basis_in(res["basis"], n))
    if kind == "place":
        return oracle.place(case, _matrix_in(res["F"]))
    if kind == "friend":
        return oracle.friend(case, _matrix_in(res["F"]))
    # minspec
    if res["reachability"] != oracle.reach(case)[1]:
        return f"minspec: reachability {res['reachability']}, oracle {oracle.reach(case)[1]}"
    if case.sys.p == 0:
        return None if res["rosenbrock"] is None else "minspec: rosenbrock given for p = 0"
    V, target = oracle.basis(case, "vstar"), oracle.rstar_dim(case)
    want = next(ell for ell, S in enumerate(oracle.s_chain(case))
                if orc.intersection_dim(V, S) == target)
    return None if res["rosenbrock"] == want else f"minspec: rosenbrock {res['rosenbrock']}, oracle {want}"


def build_cli(gk, seed: int, workdir: Path) -> Workload:
    cli = gk.cli
    rng = np.random.default_rng([seed, 4])
    cases = _groups(gk, rng, CLI_SIZES, place_sizes=CLI_SIZES)
    ops = []
    for case in cases:
        case.path = str(workdir / f"{case.key}.json")
        gk.sysmodel.dump_system(case.sys, case.path)
        for kind in CLI_OPS:
            if kind in CLI_NEEDS_OUTPUTS and case.sys.p == 0:
                continue
            argv = [kind, case.path]
            if kind == "kh":  # "=" keeps argparse from reading "-1.5,..." as a flag
                argv.append("--lambdas=" + _lams_arg(case.kh_lams))
            elif kind == "place":
                argv.append("--lambdas=" + _lams_arg(case.place_lams))
            ops.append(Op(f"{case.key}/{kind}", kind,
                          lambda argv=argv: _cli_call(cli, argv), case))
    ops, left_out = _split(ops)
    by_key = {c.key: c for c in cases}
    oracle = Oracle(gk, by_key)
    return Workload("cli-reports", ops, lambda op, out: _check_cli(oracle, op, out),
                    _case_digest(cases, ops), left_out)


def build(gk, name: str, seed: int, workdir: Path) -> Workload:
    if name == "ops-large":
        return build_large(gk, seed)
    if name == "verify-sweep":
        return build_verify(gk, seed)
    return build_cli(gk, seed, workdir)
