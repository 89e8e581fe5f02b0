"""Batch front end: generate families, run verification suites, emit JSON/CSV.

Exit codes: 0 success / all checks pass, 1 verification failure (a gen or
oracle that failed its cross-check prints "error: <Mismatch>"), 2 usage or
parse error (a malformed LAGTP_LIMIT and rational entries in sampled mode
included), or an oracle cap or the polynomial exponent limit exceeded; 3 when
a verify check raised and none failed.  Identical invocations (including
--seed) produce byte-identical output; the per-check wall-clock timings are
therefore opt-in (--timings).

Polynomials print with variables in the global (alphabetical) order and
terms in graded lex order, with explicit '*' and '^'.  The LAGTP_LIMIT
environment variable overrides the digraph oracles' vertex cap (8, under any
weights: gen cross-checks rows 0..cap), not the path oracle's 24 steps.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import checks, digraphs, laguerre, quadtp, srpaths
from .digraphs import BadLimitSetting, LimitExceeded
from .laguerre import EdgeWeights, LaguerreParams, VertexWeights
from .matrices import RouteMismatchError, Truncation, tp_check_sampled, tp_check_symbolic

GEN_SELECTORS = ("laguerre-coeff", "first-mv", "second-mv",
                 *(f"prodmat:{kind}" for kind in laguerre.PRODMAT_KINDS),
                 "smj", "quad-general", "quad-variant")

class UsageError(Exception):
    pass


def _parse_alpha(text: str) -> LaguerreParams:
    if text == "sym":
        return LaguerreParams.symbolic()
    try:
        return LaguerreParams.of(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --alpha value {text!r}: {exc}") from None


def _parse_family(cell_id: str, kappa_text: str | None) -> srpaths.KappaFamily:
    if cell_id not in srpaths.CELLS_BY_ID:
        raise UsageError(f"unknown --family {cell_id!r}; "
                         f"choose from {', '.join(srpaths.CELLS_BY_ID)}")
    j, alpha = srpaths.CELLS_BY_ID[cell_id]
    if (j, alpha) not in srpaths.KAPPA_CELLS:
        if kappa_text is not None:
            raise UsageError(f"--family {cell_id} has no kappa; drop --kappa")
        return srpaths.KappaFamily(j, alpha)
    try:
        kappa = Fraction(kappa_text) if kappa_text is not None else Fraction(1)
        return srpaths.KappaFamily(j, alpha, kappa)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --kappa value {kappa_text!r}: {exc}") from None


def _gen_matrix(args) -> Truncation:
    n = args.n
    if n < 1:
        raise UsageError("--n must be at least 1")
    sel = args.selector
    if sel == "laguerre-coeff":
        return laguerre.coeff_matrix_uni(_parse_alpha(args.alpha), n)
    if sel == "first-mv":
        return laguerre.coeff_matrix_first_mv(
            _parse_alpha(args.alpha), EdgeWeights.symbolic(), n)
    if sel == "second-mv":
        return laguerre.coeff_matrix_second_mv(
            _parse_alpha(args.alpha), VertexWeights.symbolic(), n, flat=args.flat)
    if sel.startswith("prodmat:"):
        return laguerre.prodmat(_parse_alpha(args.alpha), sel.split(":", 1)[1],
                                weights=VertexWeights.symbolic()).truncate(n)
    if sel == "smj":
        if args.family:
            fam = _parse_family(args.family, args.kappa)
            if args.j is not None and args.j != fam.j:
                raise UsageError(f"--family {args.family} fixes --j {fam.j}")
            if args.m != 2:
                raise UsageError("the table families are defined for --m 2")
            coeffs = srpaths.kappa_family_coeffs(fam)
            return srpaths.prodmat_smj(coeffs, fam.j, n)
        if args.kappa is not None:
            raise UsageError("--kappa needs --family")
        try:
            coeffs = srpaths.SRCoeffs.symbolic(args.m)
            return srpaths.prodmat_smj(coeffs, args.j or 0, n)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if sel == "quad-general":
        return quadtp.build_general_quad(quadtp.QuadFactorParams.symbolic()).truncate(n)
    if sel == "quad-variant":
        return quadtp.build_variant_quad(quadtp.QuadVariantParams.symbolic()).truncate(n)
    raise UsageError(f"unknown selector {sel!r}")


def _emit_matrix(m: Truncation, fmt: str, out) -> None:
    if fmt == "json":
        out.write(m.to_json() + "\n")
    else:
        for row in m.data:
            out.write(",".join(str(e) for e in row) + "\n")


def cmd_gen(args) -> int:
    matrix = _gen_matrix(args)
    if args.out:
        with open(args.out, "w") as fh:
            _emit_matrix(matrix, args.format, fh)
    else:
        _emit_matrix(matrix, args.format, sys.stdout)
    return 0


def cmd_tp_check(args) -> int:
    if args.order < 1:
        raise UsageError("--order must be at least 1")
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    try:
        with open(args.matrix) as fh:
            obj = json.load(fh)
        matrix = Truncation.from_json_obj(obj)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot read matrix JSON: {exc}") from None
    if args.mode == "symbolic":
        report = tp_check_symbolic(matrix, args.order)
    else:
        try:
            report = tp_check_sampled(matrix, args.order, seed=args.seed,
                                      samples=args.samples)
        except ValueError as exc:
            raise UsageError(f"{exc}; use --mode symbolic for rational entries") from None
    print(report.to_json())
    return 0 if report.ok else 1


def cmd_verify(args) -> int:
    # a malformed LAGTP_LIMIT is a usage error (exit 2), not an error in
    # every check that reads it
    digraphs._vertex_cap()
    if args.max_n is not None and args.max_n < 1:
        raise UsageError("--max-n must be at least 1")
    ctx = checks.Ctx(seed=args.seed, max_n=args.max_n)
    results = checks.run_suite(args.suite, ctx)
    ok = all(r[2] for r in results)
    payload = {
        "suite": args.suite,
        "seed": args.seed,
        "ok": ok,
        "checks": [
            {"suite": s, "name": n, "ok": passed}
            | ({"error": error} if error else {})
            | ({"witness": witness} if witness is not None else {})
            | ({"seconds": round(secs, 6)} if args.timings else {})
            for s, n, passed, secs, error, witness in results
        ],
    }
    print(json.dumps(payload, separators=(",", ":"), sort_keys=True))
    if any(not passed and error is None for _, _, passed, _, error, _ in results):
        return 1
    return 0 if ok else 3


def cmd_oracle(args) -> int:
    if args.n < 0:
        raise UsageError("--n must be at least 0")
    kind = args.kind
    if kind in ("first-mv", "second-mv", "second-mv-general"):
        params = _parse_alpha(args.alpha)
        if kind == "first-mv":
            w = EdgeWeights.symbolic()
        else:
            w = VertexWeights.symbolic(with_z=(kind == "second-mv-general"))
        value = digraphs.oracle_entry(args.n, args.k, w.oracle_weights(params.lam),
                                      kind.replace("-", "_"))
    elif kind in ("cyclic", "linear00"):
        value = digraphs.permutation_oracles(args.n, kind)
    elif kind == "sr-path":
        try:
            coeffs = srpaths.SRCoeffs.symbolic(args.m)
            value = srpaths.sr_path_oracle(coeffs, args.j, args.n, args.k)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    else:
        raise UsageError(f"unknown oracle kind {kind!r}")
    if args.format == "json":
        print(json.dumps(value.to_json_obj(), separators=(",", ":"), sort_keys=True))
    else:
        print(value)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, and building it costs about a millisecond per ``main`` call."""
    top = argparse.ArgumentParser(
        prog="lagtp",
        description="Exact Laguerre/rook/Lah production matrices and total positivity checks.")
    sub = top.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("gen", help="generate a family truncation")
    gen.add_argument("selector", choices=GEN_SELECTORS)
    gen.add_argument("--alpha", default="sym", help="'sym' or an exact rational (default sym)")
    gen.add_argument("--n", type=int, default=5, help="truncation size")
    gen.add_argument("--m", type=int, default=2, help="branch order for smj")
    gen.add_argument("--j", type=int, default=None, help="type for smj (from --family when given)")
    gen.add_argument("--family", help=f"table cell for smj: {', '.join(srpaths.CELLS_BY_ID)}")
    gen.add_argument("--kappa", help="rational kappa in [0, 1] for the kappa-family cells "
                     "(default 1)")
    gen.add_argument("--flat", action="store_true", help="flat second-mv matrix")
    gen.add_argument("--format", choices=("json", "csv"), default="json")
    gen.add_argument("--out", help="output path (default stdout)")
    gen.set_defaults(fn=cmd_gen)

    tp = sub.add_parser("tp-check", help="total positivity check of a matrix JSON file")
    tp.add_argument("matrix", help="path to matrix JSON")
    tp.add_argument("--order", type=int, default=3, help="largest minor size")
    tp.add_argument("--mode", choices=("symbolic", "sampled"), default="symbolic")
    tp.add_argument("--seed", type=int, default=1)
    tp.add_argument("--samples", type=int, default=50)
    tp.set_defaults(fn=cmd_tp_check)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=("all",) + checks.SUITE_NAMES)
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--max-n", type=int, default=None, dest="max_n",
                     help="cap the truncation sizes used by the checks")
    ver.add_argument("--timings", action="store_true",
                     help="include wall-clock seconds per check (breaks byte determinism)")
    ver.set_defaults(fn=cmd_verify)

    oracle = sub.add_parser("oracle", help="query a brute-force enumeration oracle")
    oracle.add_argument("kind", choices=("first-mv", "second-mv", "second-mv-general",
                                         "cyclic", "linear00", "sr-path"))
    oracle.add_argument("--n", type=int, required=True)
    oracle.add_argument("--k", type=int, default=0)
    oracle.add_argument("--m", type=int, default=2)
    oracle.add_argument("--j", type=int, default=0)
    oracle.add_argument("--alpha", default="sym")
    oracle.add_argument("--format", choices=("json", "str"), default="json")
    oracle.set_defaults(fn=cmd_oracle)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, LimitExceeded, BadLimitSetting, OverflowError, RouteMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, RouteMismatchError) else 2


if __name__ == "__main__":
    sys.exit(main())
