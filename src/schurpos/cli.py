"""Command-line driver: fixture generation, scaling, Phi, Schur forms, verify.

Exit codes: 0 success, 2 precondition violation (an overflow or invalid
float operation counts as one), 3 non-convergence, 4 verification failure.
All reports are JSON, byte-identical for fixed seed and flags.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import forms, phi, serialization as ser, verify
from .discriminants import require_int
from .posmap import (NotStrictlyPositiveError, choi_fixture, random_kraus_map,
                     sinkhorn_normalize, trace_map)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VERIFY_FAILED = 4


def _emit(obj: dict, path: str | None) -> None:
    text = ser.dump(obj, path)
    if not path:
        print(text)


#: Per ``gen`` kind: what it makes, its generator, and the options that
#: generator reads, in argument order, with their defaults.  Any other option
#: given is a precondition violation.
GEN_KINDS = {
    "kraus": ("a random Kraus map, w = r", random_kraus_map,
              {"rank": 3, "terms": 3, "eps": 0.1, "seed": 0}),
    "choi": ("the rank 3 Choi fixture", choi_fixture, {}),
    "trace": ("the trace map, w = r", trace_map, {"rank": 3}),
    "curvature": ("a random Griffiths tensor", forms.random_griffiths_curvature,
                  {"rank": 3, "dim": 3, "terms": 3, "eps": 0.1, "seed": 0}),
}
GEN_OPTIONS = {"rank": int, "dim": int, "terms": int, "eps": float, "seed": int}


def cmd_gen(args) -> int:
    what, make, defaults = GEN_KINDS[args.kind]
    given = {name: value for name, value in vars(args).items() if name in GEN_OPTIONS}
    foreign = [f"--{name}" for name in given if name not in defaults]
    if foreign:
        raise ValueError(f"gen {args.kind} ({what}) does not read {', '.join(foreign)}")
    made = make(*{**defaults, **given}.values())
    _emit(ser.curvature_to_json(made) if isinstance(made, forms.CurvatureTensor)
          else ser.block_map_to_json(made), args.output)
    return EXIT_OK


def cmd_scale(args) -> int:
    h = ser.block_map_from_json(ser.load(args.input))
    result = sinkhorn_normalize(h, tol=args.tol, max_iter=args.max_iter)
    report = {
        "scaled": ser.block_map_to_json(result.scaled),
        "c1": ser.matrix_to_json(result.c1),
        "c2": ser.matrix_to_json(result.c2),
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": result.converged,
    }
    _emit(report, args.output)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_phi(args) -> int:
    h = ser.block_map_from_json(ser.load(args.input))
    reports = phi.phi_reports(h, args.method)
    obj = {"reports": [ser.phi_report_to_json(r) for r in reports]}
    if args.method == "all":
        spread = phi.route_spread(reports)
        obj["max_spread"] = spread
        if spread >= phi.ROUTE_AGREEMENT_TOL[h.r]:
            _emit(obj, args.output)
            print(f"method disagreement: spread {spread:.3e}", file=sys.stderr)
            return EXIT_VERIFY_FAILED
    _emit(obj, args.output)
    return EXIT_OK


def cmd_schur(args) -> int:
    tensor = ser.curvature_from_json(ser.load(args.input))
    try:
        parts = forms.validate_partition([int(x) for x in args.partition.split(",")],
                                         tensor.rank, tensor.dim)
    except ValueError as exc:
        raise ValueError(f"--partition {args.partition!r}: {exc}") from None
    form = forms.schur_form(forms.chern_forms(tensor), parts)
    min_coeff, witness = forms.weak_positivity_min(form, args.samples, args.seed)
    exact = forms.weak_positivity_is_exact(form)
    obj = {
        "partition": list(parts),
        "schur_form": ser.form_to_json(form),
        "weak_positivity": {
            "samples": 0 if exact else args.samples,
            "exact": exact,
            "min_coeff": min_coeff,
            "witness": [[ser.complex_to_json(z) for z in cov] for cov in witness],
        },
    }
    _emit(obj, args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    require_int(args.trials, "--trials", 0)
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
    gen.add_argument("kind", choices=list(GEN_KINDS))
    for name, convert in GEN_OPTIONS.items():
        read_by = [f"{kind} {d[name]}" for kind, (_, _, d) in GEN_KINDS.items() if name in d]
        gen.add_argument(f"--{name}", type=convert, default=argparse.SUPPRESS,
                         help="default: " + ", ".join(read_by))
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
                       choices=[*phi.ROUTES, "all"])
    phi_p.add_argument("--output")
    phi_p.set_defaults(func=cmd_phi)

    schur_p = sub.add_parser("schur", help="Schur form and weak-positivity check")
    schur_p.add_argument("--input", required=True)
    schur_p.add_argument("--partition", required=True,
                         help="comma-separated, e.g. 2,1,0")
    schur_p.add_argument("--samples", type=int, default=forms.WEAK_POSITIVITY_SAMPLES)
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
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except FloatingPointError as exc:
        print(f"precondition violation: input leaves the float range "
              f"(|x| <= {sys.float_info.max:.3e}): {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NotStrictlyPositiveError as exc:
        print(f"positivity precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValueError, OSError, KeyError) as exc:
        what = f"input JSON has no key {exc}" if isinstance(exc, KeyError) else exc
        print(f"precondition violation: {what}", file=sys.stderr)
        return EXIT_PRECONDITION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
