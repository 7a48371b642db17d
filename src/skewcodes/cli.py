"""Command-line interface.

Polynomials are passed as comma-separated element encodings, little-endian,
with the trailing monic coefficient implicit: over Z_n each element is an
integer; over GF(p^r) each element is its digit vector joined by dots
(e.g. over GF(4) with basis 1, w:  "--f 0.1,0" means f = t^2 + w).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .catalogue import run_catalogue
from .classify import (
    classify_pair,
    count_constacyclic_classes,
    count_constacyclic_classes_formula,
)
from .codes import build_code, min_hamming_distance
from .coeffring import Automorphism, make_field, make_residue_ring
from .errors import EnumerationCapExceeded, SkewCodesError
from .petit import PetitAlgebra, probe_structure
from .skewpoly import DEFAULT_ENUM_CAP, SkewPoly, TwistContext

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CAP = 2
EXIT_VERIFY = 3


def _parse_ring(args):
    if args.field and args.ring:
        raise ValueError("--field and --ring are mutually exclusive")
    if args.field:
        parts = args.field.split(",")
        if len(parts) < 2:
            raise ValueError("--field needs at least p,r")
        p, r = int(parts[0]), int(parts[1])
        modulus = [int(c) for c in parts[2:]] or None
        return make_field(p, r, modulus=modulus)
    if args.ring:
        return make_residue_ring(int(args.ring))
    raise ValueError("one of --field or --ring is required")


def _parse_element(ctx, token: str):
    token = token.strip()
    if ctx.kind == "field":
        digits = [int(d) for d in token.split(".")]
        return ctx.from_json(digits)
    return ctx.from_json(int(token))


def _parse_poly(ctx, tw, text: str) -> SkewPoly:
    # text lists the coefficients below the leading 1
    return SkewPoly([_parse_element(ctx, tok) for tok in text.split(",")] + [ctx.one], tw)


def _twist(args, ctx) -> TwistContext:
    return TwistContext(ctx, Automorphism(ctx, args.sigma))


def _write(text: str, args):
    """Write text to --out's path, or to stdout when there is none."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc, args):
    _write(json.dumps(doc, sort_keys=True) + "\n", args)


def cmd_algebra_info(args) -> int:
    ctx = _parse_ring(args)
    tw = _twist(args, ctx)
    f = _parse_poly(ctx, tw, args.f)
    _emit(probe_structure(PetitAlgebra(f)).to_json(), args)
    return EXIT_OK


def cmd_mindist(args) -> int:
    ctx = _parse_ring(args)
    tw = _twist(args, ctx)
    f = _parse_poly(ctx, tw, args.f)
    g = _parse_poly(ctx, tw, args.g)
    C = build_code(PetitAlgebra(f), g)
    doc = {
        "length": C.length,
        "dim": C.dimension,
        "min_dist": min_hamming_distance(C, cap=args.cap),
        "gen_matrix": [[ctx.elements[v].to_json() for v in row] for row in C.rows],
    }
    _emit(doc, args)
    return EXIT_OK


def cmd_check_equiv(args) -> int:
    ctx = _parse_ring(args)
    tw = _twist(args, ctx)
    f = _parse_poly(ctx, tw, args.f)
    h = _parse_poly(ctx, tw, args.h)
    _emit(classify_pair(f, h, chen_only=args.chen, k=args.k).to_json(), args)
    return EXIT_OK


def cmd_count_classes(args) -> int:
    ctx = _parse_ring(args)
    sigma = Automorphism(ctx, args.sigma)
    nonassoc, assoc = count_constacyclic_classes(ctx, sigma, args.m)
    doc = {"nonassoc": nonassoc, "assoc": assoc,
           "formula_nonassoc": None, "formula_assoc": None}
    if ctx.kind == "field":
        s = args.sigma % ctx.r or ctx.r  # frob exp 0 is sigma = x^(p^r)
        try:
            fn, fa = count_constacyclic_classes_formula(ctx.p, ctx.r, s, args.m)
            doc["formula_nonassoc"] = fn
            doc["formula_assoc"] = fa
        except ValueError:
            pass  # closed formulas assume s | r; enumeration still stands
    _emit(doc, args)
    return EXIT_OK


def cmd_catalogue(args) -> int:
    ctx = _parse_ring(args)
    tw = _twist(args, ctx)
    _write("\n".join(run_catalogue(tw, args.m, args.constacyclic, args.cap)) + "\n", args)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify  # compiled only when this command runs

    report = verify.run_verify()
    _emit(report, args)
    return EXIT_OK if all(part["passed"] for part in report) else EXIT_VERIFY


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewcodes",
        description="Skew polycyclic code construction and classification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, poly_flags=(), needs_m=False):
        p.add_argument("--field", help="p,r[,modulus coefficients little-endian]")
        p.add_argument("--ring", help="n for the residue ring Z_n")
        p.add_argument("--sigma", type=int, default=0,
                       help="Frobenius exponent s of sigma = x -> x^(p^s)")
        for flag in poly_flags:
            p.add_argument(
                f"--{flag}",
                required=True,
                help="coefficients c0,c1,... (little-endian, monic top implicit)",
            )
        if needs_m:
            p.add_argument("--m", type=int, required=True, help="degree of f")
        p.add_argument("--out", help="write output to PATH instead of stdout")

    p = sub.add_parser("algebra-info", help="structural probe of the quotient algebra")
    common(p, poly_flags=("f",))
    p.set_defaults(func=cmd_algebra_info)

    p = sub.add_parser("mindist", help="generator matrix and minimum distance")
    common(p, poly_flags=("f", "g"))
    p.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP, help="enumeration cap")
    p.set_defaults(func=cmd_mindist)

    p = sub.add_parser("check-equiv", help="classify the relation between two classes")
    common(p, poly_flags=("f", "h"))
    p.add_argument("--chen", action="store_true",
                   help="restrict tau to the identity: only the Chen relations")
    p.add_argument("--k", type=int, default=None,
                   help="search only monomial degree K: 1 for the equivalences, "
                        "a valid K > 1 for the isometries")
    p.set_defaults(func=cmd_check_equiv)

    p = sub.add_parser("count-classes", help="count constacyclic Chen-equivalence classes")
    common(p, needs_m=True)
    p.set_defaults(func=cmd_count_classes)

    p = sub.add_parser("catalogue", help="deduplicated catalogue of code classes")
    common(p, needs_m=True)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP, help="enumeration cap")
    p.add_argument("--constacyclic", action="store_true",
                   help="restrict to f = t^m - a")
    p.set_defaults(func=cmd_catalogue)

    p = sub.add_parser("verify", help="run the built-in cross-check suites")
    p.add_argument("--out", help="write output to PATH instead of stdout")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help / --version and 2 on a usage error,
        # which is the cap code here; usage errors are invalid input
        return EXIT_OK if exc.code == 0 else EXIT_INVALID
    try:
        return args.func(args)
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (SkewCodesError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
