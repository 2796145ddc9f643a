"""One sha256 per verify-sweep report, to compare two versions of geokit byte
for byte.

Digests the ``to_dict()`` JSON of three sets of reports:

``batch``
    each verify-sweep batch of perfbench, ``verify.run(theorem, trials=10,
    seed=k, nmax=8)``, with the batch list taken from
    ``perfbench.workloads.build_verify``;
``all``
    each sweep of ``geokit verify all --trials 100`` (seed 0, nmax 8);
``nmax20``
    each sweep at ``nmax=20, trials=20, seed=0`` (200 trials for
    ``lemma-diag``).  These reports carry known failures (th1 trial 2, th2
    and thlast trial 12, five lemma-diag trials), and their messages are
    digested with them.

Usage:

    PYTHONPATH=src python tests/verify_digests.py

prints one line ``set name passed/trials sha256`` per report, so

    diff <(PYTHONPATH=old/src python tests/verify_digests.py) \\
         <(PYTHONPATH=src python tests/verify_digests.py)

is empty when no sweep report changed.  The batches are listed by the
``perfbench`` next to this file.  It runs with one BLAS thread, like the
benchmark, and takes about ten seconds.

It is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import geokit  # noqa: E402
from geokit import verify  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import build_verify  # noqa: E402


def _line(label: str, name: str, rep) -> str:
    sha = hashlib.sha256(json.dumps(rep.to_dict()).encode()).hexdigest()
    return f"{label} {name} {rep.passed}/{rep.trials} {sha}"


def digests():
    """Yield the output lines, batches first."""
    for op in build_verify(geokit, seed=0).ops:
        (rep,) = op.fn()
        yield _line("batch", op.id, rep)
    for rep in verify.run("all", trials=100):
        yield _line("all", rep.theorem, rep)
    for theorem in verify.THEOREM_IDS:
        trials = 200 if theorem == "lemma-diag" else 20
        (rep,) = verify.run(theorem, trials=trials, seed=0, nmax=20)
        yield _line("nmax20", theorem, rep)


if __name__ == "__main__":
    for line in digests():
        print(line, flush=True)
