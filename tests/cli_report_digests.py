"""One sha256 per CLI report, to compare two versions of geokit byte for byte.

For each seed, draws the cli-reports systems with perfbench's own
``workloads._groups`` (one group of the four shapes (m, p) = (3,2), (2,3),
(2,2), (2,0) at n = 8 and one at n = 40, from
``numpy.random.default_rng([seed, 4])``), writes each with ``dump_system``
and runs every compute op of ``geokit.cli.main`` on it: ``kh`` and
``place`` at the case's values, plus ``kh-pairs`` and ``place-pairs``, the
same ops at conjugate pairs built from those values, and ``friend-lambdas``
and ``friend-pairs``, ``friend`` at ``kh``'s values and at their pairs.
Then it draws perfbench's ops-large systems the same way (the shapes at
n = 40, 40 and 80, from ``numpy.random.default_rng([seed, 2])``) and runs
``kh`` on each at the case's values, so that the 80-state Kh certificate is
covered too, and ``vstar``, ``rstar``, ``zeros`` and ``morse``, whose dual
staircase there ends at both edges of its basis completion (V* = 0 at
(m, p) = (2, 3), V* the whole space at p = 0); their lines carry the case
key with a ``large-`` prefix.
Last come the ``planted-`` cases, on which ``zeros`` and ``morse`` run: the
planted joins of ``tests/planted.py`` with the seed as their ``s`` (among
them the joins whose V* or S* geokit gets wrong), and one draw whose second
input column (of B and D) equals its first, so that its Rosenbrock matrix
loses normal rank.  Ops that fail are kept: their error report is digested
too.
Usage:

    PYTHONPATH=src python tests/cli_report_digests.py [SEED ...]

(seeds 1 2 3 by default) prints one line ``seed case file sha256`` per
system file and ``seed case op exit-code sha256`` per report, so

    diff <(PYTHONPATH=old/src python tests/cli_report_digests.py) \\
         <(PYTHONPATH=src python tests/cli_report_digests.py)

is empty when no report and no system file changed.  The cases are drawn
with the geokit found on ``PYTHONPATH`` and the ``perfbench`` next to this
file, so two checkouts draw the same systems as long as ``perfbench`` is
the same.  It runs with one BLAS thread (the last bits of complex factors at
about 80 states and up depend on the thread count).

It is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import geokit.sysmodel  # noqa: E402
from geokit import cli  # noqa: E402
from geokit.sysmodel import GenSpec, SystemQuad, dump_system, random_system  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import CLI_SIZES, LARGE_SIZES, _groups  # noqa: E402
from planted import planted_join  # noqa: E402

# (n1, n2, m2, p2) of the planted joins: one per shape of the generic block
PLANTED = ((4, 8, 2, 2), (4, 8, 1, 2), (4, 8, 3, 2), (8, 16, 3, 1))

# the ops run on perfbench's ops-large systems
LARGE_OPS = ("kh", "vstar", "rstar", "zeros", "morse")


def draw_cases(seed: int):
    """perfbench's cli-reports cases for ``seed``, in its draw order."""
    return _groups(geokit, np.random.default_rng([seed, 4]), CLI_SIZES, CLI_SIZES)


def draw_large_cases(seed: int):
    """perfbench's ops-large cases for ``seed``, in its draw order."""
    return _groups(geokit, np.random.default_rng([seed, 2]), LARGE_SIZES, (40,))


def draw_planted_cases(seed: int):
    """``(key, system)`` for the planted joins and the duplicated-input draw."""
    for n1, n2, m2, p2 in PLANTED:
        yield f"planted-{n1}-{n2}-{m2}{p2}", planted_join(n1, n2, m2, p2, seed)
    base = random_system(GenSpec(12, 3, 3, seed=seed))
    B, D = base.B.copy(), base.D.copy()
    B[:, 1], D[:, 1] = B[:, 0], D[:, 0]
    yield "planted-dup-input", SystemQuad.from_matrices(base.A, B, base.C, D)


def _lams(values) -> str:
    """The ``--lambdas`` flag; real values as perfbench writes them."""
    return "--lambdas=" + ",".join(f"{z.real:.17g}" + (f"{z.imag:+.17g}i" if z.imag else "")
                                   for z in values)


def _pairs(values) -> list[complex]:
    """The first half of ``values`` moved off the real axis in conjugate pairs."""
    out = []
    for z in values[: max(1, len(values) // 2)]:
        out += [complex(z.real, 0.5 * abs(z.real)), complex(z.real, -0.5 * abs(z.real))]
    return out


def _case_digests(seed: int, key: str, sys_, ops, flags, workdir: Path):
    """Yield the system file's line and one line per op of ``ops``; an op
    named in ``flags`` gets those values as ``--lambdas``."""
    path = workdir / f"{key}.json"
    dump_system(sys_, path)
    yield f"{seed} {key} file {hashlib.sha256(path.read_bytes()).hexdigest()}"
    for op in ops:
        argv = [op.split("-")[0], str(path)]
        if op in flags:
            argv.append(_lams(flags[op]))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        sha = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        yield f"{seed} {key} {op} {code} {sha}"


def report_digests(seed: int, workdir: Path):
    """Yield the output lines for one seed."""
    for case in draw_cases(seed):
        kh, place = case.kh_lams, case.place_lams
        extra = {"kh-pairs": _pairs(kh), "place-pairs": _pairs(place),
                 "friend-lambdas": kh, "friend-pairs": _pairs(kh)}
        yield from _case_digests(seed, case.key, case.sys, cli._COMPUTE_OPS + tuple(extra),
                                 {"kh": kh, "place": place, **extra}, workdir)
    for case in draw_large_cases(seed):
        yield from _case_digests(seed, f"large-{case.key}", case.sys, LARGE_OPS,
                                 {"kh": case.kh_lams}, workdir)
    for key, sys_ in draw_planted_cases(seed):
        yield from _case_digests(seed, key, sys_, ("zeros", "morse"), {}, workdir)


def main(argv: list[str]) -> None:
    seeds = [int(s) for s in argv] or [1, 2, 3]
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for line in report_digests(seed, Path(tmp)):
                print(line, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
