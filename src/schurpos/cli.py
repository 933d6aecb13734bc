"""Command-line driver: fixture generation, scaling, Phi, Schur forms, verify.

Exit codes: 0 success, 2 precondition violation, 3 non-convergence,
4 verification failure.  All reports are JSON, deterministic for fixed
seed and flags except the timestamp field.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import forms, phi, serialization as ser, verify
from .posmap import (NotStrictlyPositiveError, choi_fixture, random_kraus_map,
                     sinkhorn_normalize, trace_map)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VERIFY_FAILED = 4


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def _emit(obj: dict, path: str | None) -> None:
    text = ser.dump(obj, path)
    if not path:
        print(text)


def _load_block_map(path: str):
    return ser.block_map_from_json(ser.load(path))


def cmd_gen(args) -> int:
    if args.kind == "trace":
        obj = ser.block_map_to_json(trace_map(args.rank))
    elif args.kind == "choi":
        obj = ser.block_map_to_json(choi_fixture())
    elif args.kind == "kraus":
        obj = ser.block_map_to_json(
            random_kraus_map(args.rank, args.terms, args.eps, args.seed))
    elif args.kind == "curvature":
        tensor = forms.random_griffiths_curvature(
            args.rank, args.dim, args.terms, args.eps, args.seed)
        obj = ser.curvature_to_json(tensor)
    else:
        raise ValueError(f"unknown fixture kind {args.kind!r}")
    _emit(obj, args.output)
    return EXIT_OK


def cmd_scale(args) -> int:
    h = _load_block_map(args.input)
    result = sinkhorn_normalize(h, tol=args.tol, max_iter=args.max_iter)
    report = {
        "scaled": ser.block_map_to_json(result.scaled),
        "c1": ser.matrix_to_json(result.c1),
        "c2": ser.matrix_to_json(result.c2),
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": result.converged,
        "timestamp": _timestamp(),
    }
    _emit(report, args.output)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _integral_report(h) -> phi.PhiReport:
    if h.r not in (2, 3):
        raise ValueError(f"method 'integral' needs rank 2 or 3, map has rank {h.r}")
    return (phi.phi_integral_r2 if h.r == 2 else phi.phi_integral_r3)(h)


def _r4_report(h) -> phi.PhiReport:
    decomp = phi.phi_r4_decomposition(h)
    return phi.PhiReport(value=decomp.total, imaginary_residue=0.0,
                         method="r4_decomposition")


#: --method name -> (report function, ranks at which 'all' runs it).  The
#: direct sum applies at every rank, so beyond its cap 'all' reports its error.
_PHI_ROUTES = {
    "direct": (phi.phi_direct, lambda r: True),
    "dual": (phi.phi_dual, lambda r: r <= 4),
    "integral": (_integral_report, lambda r: r in (2, 3)),
    "r4": (_r4_report, lambda r: r == 4),
}


def _phi_reports(h, method: str) -> list[phi.PhiReport]:
    if method == "all":
        return [report(h) for report, applies in _PHI_ROUTES.values() if applies(h.r)]
    if method not in _PHI_ROUTES:
        raise ValueError(f"unknown method {method!r}")
    return [_PHI_ROUTES[method][0](h)]


def cmd_phi(args) -> int:
    h = _load_block_map(args.input)
    reports = _phi_reports(h, args.method)
    obj = {
        "reports": [ser.phi_report_to_json(r) for r in reports],
        "timestamp": _timestamp(),
    }
    if args.method == "all":
        spread = max(r.value for r in reports) - min(r.value for r in reports)
        obj["max_spread"] = spread
        if spread >= 1e-8:
            _emit(obj, args.output)
            print(f"method disagreement: spread {spread:.3e}", file=sys.stderr)
            return EXIT_VERIFY_FAILED
    _emit(obj, args.output)
    return EXIT_OK


def cmd_schur(args) -> int:
    tensor = ser.curvature_from_json(ser.load(args.input))
    parts = tuple(int(x) for x in args.partition.split(","))
    cs = forms.chern_forms(tensor)
    form = forms.schur_form(cs, parts)
    min_coeff, witness = forms.weak_positivity_min(form, args.samples, args.seed)
    obj = {
        "partition": list(forms.validate_partition(parts, tensor.rank, tensor.dim)),
        "schur_form": ser.form_to_json(form),
        "weak_positivity": {
            "samples": args.samples,
            "min_coeff": min_coeff,
            "witness": [[ser.complex_to_json(z) for z in cov] for cov in witness],
        },
        "timestamp": _timestamp(),
    }
    _emit(obj, args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    limit = args.trials if args.trials else None
    results = verify.run_all(seed=args.seed, limit=limit)
    for res in results:
        print(res.line(), file=sys.stderr)
    obj = {
        "seed": args.seed,
        "trials": args.trials or "full",
        "criteria": [{"name": r.name, "passed": r.passed, **r.details}
                     for r in results],
        "all_passed": all(r.passed for r in results),
        "timestamp": _timestamp(),
    }
    _emit(obj, args.output)
    return EXIT_OK if obj["all_passed"] else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurpos",
        description="Mixed discriminants, operator scaling, and Chern/Schur "
                    "form positivity checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a fixture (block map or curvature)")
    gen.add_argument("kind", choices=["kraus", "choi", "trace", "curvature"])
    gen.add_argument("--rank", type=int, default=3)
    gen.add_argument("--dim", type=int, default=3)
    gen.add_argument("--terms", type=int, default=3)
    gen.add_argument("--eps", type=float, default=0.1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output")
    gen.set_defaults(func=cmd_gen)

    scale_p = sub.add_parser("scale", help="Sinkhorn-normalize a block map")
    scale_p.add_argument("--input", required=True)
    scale_p.add_argument("--tol", type=float, default=1e-10)
    scale_p.add_argument("--max-iter", type=int, default=500)
    scale_p.add_argument("--output")
    scale_p.set_defaults(func=cmd_scale)

    phi_p = sub.add_parser("phi", help="evaluate the double mixed discriminant")
    phi_p.add_argument("--input", required=True)
    phi_p.add_argument("--method", default="all",
                       choices=[*_PHI_ROUTES, "all"])
    phi_p.add_argument("--output")
    phi_p.set_defaults(func=cmd_phi)

    schur_p = sub.add_parser("schur", help="Schur form and weak-positivity check")
    schur_p.add_argument("--input", required=True)
    schur_p.add_argument("--partition", required=True,
                         help="comma-separated, e.g. 2,1,0")
    schur_p.add_argument("--samples", type=int, default=10_000)
    schur_p.add_argument("--seed", type=int, default=0)
    schur_p.add_argument("--output")
    schur_p.set_defaults(func=cmd_schur)

    verify_p = sub.add_parser("verify", help="run the acceptance suite")
    verify_p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    verify_p.add_argument("--trials", type=int, default=0,
                          help="cap instances per criterion family; 0 = full suite")
    verify_p.add_argument("--output")
    verify_p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotStrictlyPositiveError as exc:
        print(f"positivity precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValueError, OSError, KeyError) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
