"""Command-line front end.

Every invocation prints one JSON report to stdout with keys ``op``,
``inputs_digest``, ``result`` and ``diagnostics`` (plus ``error`` on
failure).  Exit codes: 0 success, 1 parse/validation error, 2 numerical
failure (including failed verification sweeps).  Identical command, file,
flags and seed produce byte-identical reports on one platform.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import assignment, geometry, pencils, verify
from .errors import GeokitError, NumericalError, ValidationError
from .linalg import Tol, containment_residual, max_imag, rank_of, subspace_intersect
from .sysmodel import load_system

_COMPUTE_OPS = (
    "reach", "unobs", "vstar", "sstar", "rstar", "zeros", "uncontrollable",
    "morse", "kh", "place", "friend", "minspec",
)


def _complex_out(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _matrix_out(M: np.ndarray) -> object:
    M = np.asarray(M)
    if M.size and np.iscomplexobj(M) and max_imag(M) > 0.0:
        return {"re": M.real.tolist(), "im": M.imag.tolist()}
    return np.asarray(M.real, dtype=float).tolist()


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
    if not values:
        raise ValidationError("--lambdas is empty")
    return values


def _digest(op: str, file_bytes: bytes | None, flags: dict) -> str:
    payload = {
        "op": op,
        "file_sha256": hashlib.sha256(file_bytes).hexdigest() if file_bytes is not None else None,
        "flags": flags,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-rel", type=float, default=1e-11,
                        help="relative rank threshold")
    common.add_argument("--tol-abs", type=float, default=1e-8,
                        help="absolute residual threshold")
    common.add_argument("--seed", type=int, default=0, help="base seed")
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
    v.add_argument("--nmax", type=int, default=8)
    return parser


def _run_compute(args, tol: Tol) -> tuple[dict, dict]:
    sys_quad = load_system(args.system)
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
        zs = pencils.invariant_zeros(sys_quad, tol)
        scale = pencils.spectrum_scale(zs, tol) if zs else tol.abs
        distinct = pencils.deduplicate_eigenvalues(zs, 10.0 * scale)
        nr = pencils.normal_rank_rosenbrock(sys_quad, tol)
        result = {
            "zeros": [_complex_out(z) for z in zs],
            "zeros_distinct": [_complex_out(z) for z in distinct],
            "normal_rank": nr,
        }
        diagnostics = {
            "rank_at_zeros": [
                {"zero": _complex_out(z),
                 "rank": rank_of(pencils.rosenbrock_matrix(sys_quad, z), tol)}
                for z in distinct
            ],
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
        spectrum = parse_lambdas(args.lambdas) if args.lambdas else None
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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    indent = args.json_indent if args.json_indent >= 0 else None

    try:
        tol = Tol(rel=args.tol_rel, abs=args.tol_abs)
    except GeokitError as e:
        print(json.dumps({"op": args.command, "error": {"kind": "validation", "message": str(e)}},
                         indent=indent))
        return 1

    flags = {k: v for k, v in sorted(vars(args).items())
             if k not in ("command", "system") and v is not None}
    op = args.command
    file_bytes = None
    report = {"op": op}
    exit_code = 0
    try:
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
            result, diagnostics = _run_compute(args, tol)
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

    print(json.dumps(report, indent=indent))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
