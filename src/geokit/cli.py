"""Command-line front end.

Every invocation that parses prints one JSON report to stdout with keys
``op``, ``inputs_digest``, ``result`` and ``diagnostics`` (plus ``error`` on
failure).  Exit codes: 0 success, 1 validation error, 2 numerical failure
(including failed verification sweeps) or a command line that does not parse
(an unknown flag, a missing ``--lambdas``: usage text on stderr, no report).
Identical command, file and flags produce byte-identical reports on one platform.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys

import numpy as np

from . import assignment, geometry, pencils, verify
from .errors import GeokitError, NumericalError, ValidationError
from .linalg import Tol, containment_residual, subspace_intersect
from .sysmodel import _json_text, load_system

_COMPUTE_OPS = (
    "reach", "unobs", "vstar", "sstar", "rstar", "zeros", "uncontrollable",
    "morse", "kh", "place", "friend", "minspec",
)


def _complex_out(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _matrix_out(M: np.ndarray) -> list:
    """Rows of floats: every matrix reported for a real system is real."""
    return np.asarray(M, dtype=np.float64).tolist()


def parse_lambdas(text: str) -> list[complex]:
    """Parse a comma-separated eigenvalue list with `a+bi` complex literals.

    Only a trailing imaginary unit ``i`` becomes Python's ``j``, so ``inf``
    and ``nan`` parse, and are refused as non-finite downstream."""
    values = []
    for raw in text.split(","):
        token = raw.strip().replace(" ", "")
        if not token:
            raise ValidationError("empty eigenvalue entry in --lambdas")
        try:
            values.append(complex(token[:-1] + "j" if token.endswith("i") else token))
        except ValueError as e:
            raise ValidationError(f"cannot parse eigenvalue {raw.strip()!r}") from e
    return values


def _digest(op: str, file_bytes: bytes | None, flags: dict) -> str:
    payload = {
        "op": op,
        "file_sha256": hashlib.sha256(file_bytes).hexdigest() if file_bytes is not None else None,
        "flags": flags,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@functools.cache  # parse_args leaves the parser as it was, so one build serves every call
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-rel", type=float, default=1e-11,
                        help="relative rank threshold")
    common.add_argument("--tol-abs", type=float, default=1e-8,
                        help="absolute residual threshold")
    common.add_argument("--json-indent", type=int, default=2, help="report indentation")

    parser = argparse.ArgumentParser(
        prog="geokit",
        description="Geometric-control computations and verification sweeps for LTI systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    needs_lambdas = {"kh": True, "place": True, "friend": False}
    for op in _COMPUTE_OPS:
        p = sub.add_parser(op, parents=[common], help=f"compute {op}")
        p.add_argument("system", help="path to a JSON system file")
        if op in needs_lambdas:
            p.add_argument("--lambdas", required=needs_lambdas[op],
                           help="comma-separated eigenvalues, e.g. -1,-2+0.5i,-2-0.5i")

    v = sub.add_parser("verify", parents=[common], help="run a seeded verification sweep")
    v.add_argument("theorem", help="one of %s or 'all'" % ", ".join(sorted(verify.THEOREM_IDS)))
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--seed", type=int, default=0, help="base seed")
    v.add_argument("--nmax", type=int, default=8)
    return parser


def _run_compute(args, file_bytes: bytes, tol: Tol) -> tuple[dict, dict]:
    sys_quad = load_system(args.system, data=file_bytes)
    result: dict = {}
    diagnostics: dict = {}
    op = args.command

    if op == "reach":
        R, hmin = geometry.reachable_subspace(sys_quad.A, sys_quad.B, tol)
        result = {"dim": R.dim, "saturation_steps": hmin, "basis": _matrix_out(R.basis)}
    elif op == "unobs":
        Q = geometry.unobservable_subspace(sys_quad.C, sys_quad.A, tol)
        result = {"dim": Q.dim, "basis": _matrix_out(Q.basis)}
    elif op == "vstar":
        chain = geometry.vstar_sequence(sys_quad, None, tol)
        result = {"dim": chain[-1].dim, "basis": _matrix_out(chain[-1].basis)}
        diagnostics = {"chain_dims": [S.dim for S in chain]}
    elif op == "sstar":
        chain = geometry.sstar_sequence(sys_quad, tol)
        result = {"dim": chain[-1].dim, "basis": _matrix_out(chain[-1].basis)}
        diagnostics = {"chain_dims": [S.dim for S in chain]}
    elif op == "rstar":
        vst = geometry.vstar(sys_quad, None, tol)
        rst = geometry.reachability_on(sys_quad, vst, tol)
        result = {"dim": rst.dim, "basis": _matrix_out(rst.basis)}
        sst = geometry.sstar(sys_quad, tol)
        cross = subspace_intersect(vst, sst, tol)
        diagnostics = {
            "vstar_dim": vst.dim,
            "sstar_dim": sst.dim,
            "identity_residual": max(containment_residual(rst, cross),
                                     containment_residual(cross, rst)),
        }
    elif op == "zeros":
        dec = geometry.morse_decomposition(sys_quad, tol)
        zs = dec.invariant_zeros
        distinct = pencils.deduplicate_eigenvalues(zs, 10.0 * pencils.spectrum_scale(zs, tol))
        result = {
            "zeros": [_complex_out(z) for z in zs],
            "zeros_distinct": [_complex_out(z) for z in distinct],
            "normal_rank": dec.normal_rank,
        }
        ranks = pencils._per_conjugate_pair(sys_quad, distinct, tol)
        diagnostics = {
            "rank_at_zeros": [{"zero": _complex_out(z), "rank": r} for z, r in zip(distinct, ranks)],
        }
    elif op == "uncontrollable":
        vals = pencils.uncontrollable_eigenvalues(sys_quad.A, sys_quad.B, tol)
        result = {"eigenvalues": [_complex_out(z) for z in vals]}
    elif op == "morse":
        dec = geometry.morse_decomposition(sys_quad, tol)
        result = {
            "dim_rstar": dec.dim_rstar,
            "dim_vstar": dec.dim_vstar,
            "m1": dec.m1,
            "invariant_zeros": [_complex_out(z) for z in dec.invariant_zeros],
            "T": _matrix_out(dec.T),
            "Omega": _matrix_out(dec.Omega),
            "F": _matrix_out(dec.F),
            "Abar": _matrix_out(dec.Abar),
            "Bbar": _matrix_out(dec.Bbar),
            "Cbar": _matrix_out(dec.Cbar),
            "Dbar": _matrix_out(dec.Dbar),
        }
        diagnostics = {"residual": dec.residual}
    elif op == "kh":
        lams = parse_lambdas(args.lambdas)
        kh, kernels = assignment.build_Kh(sys_quad, lams, tol)
        result = {"dim": kh.dim, "basis": _matrix_out(kh.basis)}
        diagnostics = {"kernel_dims": [K.q for K in kernels]}
    elif op == "place":
        lams = parse_lambdas(args.lambdas)
        fb = assignment.place_poles(sys_quad.A, sys_quad.B, lams, tol)
        closed = np.linalg.eigvals(sys_quad.A + sys_quad.B @ fb.F)
        result = {"F": _matrix_out(fb.F),
                  "closed_loop_eigenvalues": [_complex_out(z) for z in sorted(closed, key=lambda z: (z.real, z.imag))]}
        diagnostics = {"residual_eig": fb.residual_eig, "cond_V": fb.cond_V,
                       "assigned": len(fb.assigned)}
    elif op == "friend":
        spectrum = parse_lambdas(args.lambdas) if args.lambdas is not None else None
        vst = geometry.vstar(sys_quad, None, tol)
        fb = geometry.friend_of(sys_quad, vst, spectrum, tol)
        result = {"F": _matrix_out(fb.F), "subspace_dim": vst.dim}
        diagnostics = {"residual_out": fb.residual_out, "residual_inv": fb.residual_inv,
                       "residual_eig": fb.residual_eig, "cond_V": fb.cond_V,
                       "assigned": len(fb.assigned)}
    elif op == "minspec":
        result = {"reachability": assignment.min_distinct_spectrum(sys_quad, "reachability", tol)}
        result["rosenbrock"] = (
            assignment.min_distinct_spectrum(sys_quad, "rosenbrock", tol) if sys_quad.p else None
        )
    else:  # pragma: no cover
        raise ValidationError(f"unknown op {op!r}")
    return result, diagnostics


def _joined_lambdas(argv: list[str]) -> list[str]:
    """``argv`` with each ``--lambdas`` joined to a following value that
    starts with a minus sign and then a digit, ``.``, ``i`` or ``j``, as in
    ``--lambdas -1,-2``: argparse reads a token that starts with ``-`` and
    is not a bare number as an option, and would refuse the list."""
    out = []
    for token in argv:
        if out and out[-1] == "--lambdas" and re.match(r"-[0-9.ij]", token):
            out[-1] = "--lambdas=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(_joined_lambdas(sys.argv[1:] if argv is None else argv))
    indent = args.json_indent if args.json_indent >= 0 else None
    flags = {k: v for k, v in sorted(vars(args).items())
             if k not in ("command", "system") and v is not None}
    op = args.command
    report = {"op": op}
    exit_code = 0
    try:
        tol = Tol(rel=args.tol_rel, abs=args.tol_abs)  # refused before any digest is taken
        if op == "verify":
            reports = verify.run(args.theorem, trials=args.trials, seed=args.seed,
                                 nmax=args.nmax, tol=tol)
            report["inputs_digest"] = _digest(op, None, flags)
            report["result"] = {"sweeps": [r.to_dict() for r in reports],
                                "all_passed": all(r.ok for r in reports)}
            report["diagnostics"] = {"trials": args.trials, "seed": args.seed, "nmax": args.nmax}
            if not report["result"]["all_passed"]:
                exit_code = 2
        else:
            with open(args.system, "rb") as fh:
                file_bytes = fh.read()
            report["inputs_digest"] = _digest(op, file_bytes, flags)
            result, diagnostics = _run_compute(args, file_bytes, tol)
            report["result"] = result
            report["diagnostics"] = diagnostics
    except OSError as e:  # missing, unreadable, or a directory
        report["error"] = {"kind": "validation", "message": f"cannot read file: {e}"}
        exit_code = 1
    except ValidationError as e:
        report["error"] = {"kind": "validation", "message": str(e)}
        exit_code = 1
    except NumericalError as e:
        report["error"] = {"kind": "numerical", "message": str(e)}
        exit_code = 2
    except GeokitError as e:  # pragma: no cover - catch-all for library errors
        report["error"] = {"kind": "error", "message": str(e)}
        exit_code = 2

    print(_json_text(report, indent))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
