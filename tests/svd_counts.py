"""LAPACK factorizations and Gram products per calling site: how many
``gesdd`` (SVD), ``geqrf`` (Householder QR), ``potrf`` (Cholesky) and
``syrk`` (a real Gram product) calls each geokit function asks for.

Wraps the ``gesdd``, ``geqrf``, ``potrf`` and ``syrk`` of each dtype in
``geokit.linalg._LAPACK``, the table every factorization in geokit goes
through, and charges each call to the function that asked for it: the
first frame outward that is neither one of ``linalg``'s factorization
wrappers (``svd``, ``norm2``, ``_completion``, ``_orthonormalize``,
``_pivoted_leading``, ``rank_of``, ``_pencil_gram`` and the per-value
proof ``proves`` that ``_pencil_proof`` returns), nor the system's
``_pencil_gram`` property that builds the pencil's Gram coefficients on
first use (with ``functools``' frame that calls it), nor a generator
expression.  So ``norm2`` of a residual block is charged to the function
that checks the block, a rank's SVD to the function that asks for the
rank, a pencil value's Cholesky to the function that asks for its kernel
or rank, the one ``syrk`` of a system's pencil to the first function that
proves a value on it, and the SVD of ``kernel_basis`` to
``kernel_basis``.  Workspace queries (``lwork=-1``) are not counted.

Three workloads:

``verify``
    ``verify.run("all", trials=100)``, the acceptance sweeps;
``cli``
    one pass of the cases of ``tests/cli_report_digests.py`` (seed 1);
``picture``
    several ops on one system: for one 40-state ``GenSpec`` system of each
    shape (m, p) = (3,2), (2,3), (2,2), (2,0), ``vstar``, ``sstar``,
    ``rstar``, ``invariant_zeros``, ``build_Kh`` at 20 real values and
    ``friend_of(sys, vstar(sys))``, in two rounds on the same systems,
    counted apart as ``picture-1`` and ``picture-2``.  The second round
    reads the structure the first built (:mod:`geokit.geometry`), the
    friend of V* and its residual norms included; what it still factors
    depends on the requested values alone.

Usage:

    PYTHONPATH=src python tests/svd_counts.py [verify] [cli] [picture]

(all by default) prints one line ``workload module.function gesdd geqrf
potrf syrk`` per calling site, most SVDs first, and a ``workload total
gesdd geqrf potrf syrk`` line, so

    diff <(PYTHONPATH=old/src python tests/svd_counts.py) \\
         <(PYTHONPATH=src python tests/svd_counts.py)

shows which sites gained or lost factorizations.  A ``potrf`` is the
Cholesky proof of a pencil value's full rank (``linalg._pencil_proof``),
and its Gram matrix comes from the Gram coefficients of the system's
pencil, one ``syrk`` per system (``pencils.rosenbrock_kernels`` with
m ≤ p, and ``pencils._per_conjugate_pair``, the ranks behind
``uncontrollable_eigenvalues`` and the ``zeros`` report's
``rank_at_zeros``): ``rank_of`` runs neither, only its SVD.  A ``geqrf`` is always a QR of the site's own, since no rank is
proven by a QR.  It runs with one BLAS thread, like the benchmark, and takes a few
seconds.

It is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import collections  # noqa: E402
import inspect  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

from geokit import assignment, geometry, linalg, pencils, verify  # noqa: E402
from geokit.sysmodel import GenSpec, random_system  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import cli_report_digests  # noqa: E402

# the frames, by module, that pass a call on for their caller
_WRAPPERS = {
    "geokit.linalg": {"svd", "norm2", "_completion", "_orthonormalize", "_pivoted_leading",
                      "rank_of", "_pencil_gram", "proves"},
    "geokit.sysmodel": {"_pencil_gram"},
    "functools": {"__get__"},
}
_COUNTED = ("gesdd", "geqrf", "potrf", "syrk")


def _site(frame) -> str:
    """``module.function`` of the first frame outward that asked for a factorization."""
    while frame.f_code.co_name == "<genexpr>" or (
            frame.f_code.co_name in _WRAPPERS.get(frame.f_globals["__name__"], ())):
        frame = frame.f_back
    module = frame.f_globals["__name__"].removeprefix("geokit.")
    return f"{module}.{frame.f_code.co_name}"


def _install(counts: dict) -> None:
    """Wrap the counted routines of ``linalg._LAPACK`` to tally into ``counts``."""
    for routines in linalg._LAPACK.values():
        for name in [name for name in _COUNTED if name in routines]:  # syrk: float64 only
            def counted(*args, _routine=routines[name], _name=name, **kwargs):
                if kwargs.get("lwork") != -1:
                    counts[_site(inspect.currentframe().f_back)][_name] += 1
                return _routine(*args, **kwargs)
            routines[name] = counted


def _run_verify() -> None:
    verify.run("all", trials=100)


def _run_cli() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for _ in cli_report_digests.report_digests(1, Path(tmp)):
            pass


def _picture_round(systems) -> None:
    lams = [-1.0 - 0.25 * k for k in range(20)]
    for sys in systems:
        V = geometry.vstar(sys)
        geometry.sstar(sys)
        geometry.rstar(sys)
        pencils.invariant_zeros(sys)
        assignment.build_Kh(sys, lams)
        geometry.friend_of(sys, V)


def _picture() -> list:
    systems = [random_system(GenSpec(40, m, p, seed=40 + 10 * m + p))
               for m, p in ((3, 2), (2, 3), (2, 2), (2, 0))]
    return [(f"picture-{k}", lambda: _picture_round(systems)) for k in (1, 2)]


# each workload's rounds, (label, run) in order, counted apart
WORKLOADS = {
    "verify": lambda: [("verify", _run_verify)],
    "cli": lambda: [("cli", _run_cli)],
    "picture": _picture,
}


def site_counts(run) -> dict[str, collections.Counter]:
    """``{site: Counter(gesdd=..., geqrf=..., potrf=..., syrk=...)}`` over
    one call of ``run``."""
    counts = collections.defaultdict(collections.Counter)
    saved = {kind: dict(routines) for kind, routines in linalg._LAPACK.items()}
    _install(counts)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the sweeps' condition-number warnings
            run()
    finally:
        for kind, routines in saved.items():
            linalg._LAPACK[kind].update(routines)
    return counts


def main(argv: list[str]) -> None:
    for workload in argv or list(WORKLOADS):
        for label, run in WORKLOADS[workload]():
            counts = site_counts(run)
            for site, c in sorted(counts.items(),
                                  key=lambda kv: (-kv[1]["gesdd"], -kv[1]["geqrf"], kv[0])):
                print(label, site, *(c[name] for name in _COUNTED), flush=True)
            print(label, "total", *(sum(c[name] for c in counts.values()) for name in _COUNTED),
                  flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
