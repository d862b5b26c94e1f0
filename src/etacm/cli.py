"""Command-line interface.

Subcommands: classpoly, modpoly, nsystem, multiplicity, cm-curve, roots,
reproduce-example.  Output is one machine-readable record per line, all big
integers in plain decimal.  Exit codes: 0 success, 2 precondition failure,
3 precision exhausted, 64 usage error.

--precision-max caps the working precision of classpoly, modpoly, cm-curve
and reproduce-example, each of which works out its start from its input.
--seed seeds the order certificate's random points in cm-curve and
reproduce-example; no other subcommand reads it.
"""

from __future__ import annotations

import argparse
import sys

from . import atkin, classpoly, modpoly, pipeline, qforms
from .apcomplex import MAX_PRECISION
from .arith import check_distinct_odd_primes, check_odd_prime
from .errors import EtaCMError, PreconditionError, PrecisionExhausted
from .ffield import FpPolynomial, roots_mod_l
from .intpoly import divmod_monic

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_PRECISION = 3
EXIT_USAGE = 64

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="etacm", description=__doc__)
    parser.add_argument("--precision-max", type=int, default=MAX_PRECISION)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="write output to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classpoly", help="class polynomial of the double eta-quotient")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--p1", type=int, required=True)
    p.add_argument("--p2", type=int, required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--b", type=int, default=None)
    which.add_argument("--all-b", action="store_true")

    p = sub.add_parser("modpoly", help="modular polynomial Phi_{p1,p2}(X, J)")
    p.add_argument("--p1", type=int)
    p.add_argument("--p2", type=int)
    p.add_argument("--verify-embedded", action="store_true")

    p = sub.add_parser("nsystem", help="print an N-system as 'A B C' lines")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--p1", type=int, required=True)
    p.add_argument("--p2", type=int, required=True)
    p.add_argument("--b", type=int, default=None)

    p = sub.add_parser("multiplicity", help="multiple-root condition per residue B")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--p1", type=int, required=True)
    p.add_argument("--p2", type=int, required=True)
    p.add_argument("--b", type=int, default=None)

    p = sub.add_parser("cm-curve", help="construct a CM curve over F_q")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--p1", type=int, required=True)
    p.add_argument("--p2", type=int, required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--seed", dest="seed_sub", type=int, default=None)

    p = sub.add_parser("roots", help="roots of a polynomial over F_l")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--coeffs", required=True,
                   help="space-separated integers, highest degree first")

    sub.add_parser("reproduce-example", help="re-run the worked example checks")
    return parser


def _validated_n(args) -> int:
    check_distinct_odd_primes(args.p1, args.p2)
    return args.p1 * args.p2


def _cmd_classpoly(args, out) -> int:
    disc = qforms.Discriminant(args.disc)
    check_distinct_odd_primes(args.p1, args.p2)
    bs = [args.b] if args.b is not None else qforms.b_candidates(disc, args.p1, args.p2)
    if not args.all_b:
        bs = bs[:1]
    for b in bs:
        poly = classpoly.compute_class_polynomial(
            disc, args.p1, args.p2, b, max_prec=args.precision_max)
        print(" ".join(str(c) for c in poly.descending()), file=out)
    return EXIT_OK


def _cmd_modpoly(args, out) -> int:
    pair = (args.p1, args.p2)
    if args.verify_embedded and pair == (None, None):
        pair = (3, 13)
    if None in pair:
        raise PreconditionError("--p1 and --p2 required (or --verify-embedded)")
    embedded = modpoly.load_embedded(*pair) if args.verify_embedded else None
    phi = modpoly.compute_modular_polynomial(*pair, max_prec=args.precision_max)
    if embedded is not None:
        ok = embedded == phi
        print("embedded-matches-computed: " + ("yes" if ok else "no"), file=out)
        return EXIT_OK if ok else EXIT_PRECONDITION
    out.write(modpoly.serialize(phi).decode("ascii"))
    return EXIT_OK


def _cmd_nsystem(args, out) -> int:
    disc = qforms.Discriminant(args.disc)
    N = _validated_n(args)
    b = args.b if args.b is not None else qforms.b_candidates(disc, args.p1, args.p2)[0]
    system = qforms.build_nsystem(disc, N, b)
    for f in system.forms:
        print(f"{f.a} {f.b} {f.c}", file=out)
    return EXIT_OK


def _cmd_multiplicity(args, out) -> int:
    disc = qforms.Discriminant(args.disc)
    N = _validated_n(args)
    bs = [args.b] if args.b is not None else qforms.b_candidates(disc, args.p1, args.p2)
    for b in bs:
        witness = atkin.multiple_root_condition(disc, N, b)
        if witness is None:
            print(f"B={b} SIMPLE", file=out)
        else:
            print(f"B={b} MULTIPLE u={witness.u} v={witness.v}", file=out)
    return EXIT_OK


def _cmd_cm_curve(args, out) -> int:
    curve, cert, shortcut = pipeline.construct_cm_curve(
        args.disc, args.p1, args.p2, args.prime, B=args.b, seed=args.seed,
        max_prec=args.precision_max)
    print(f"{curve.q} {curve.a4.value} {curve.a6.value} {cert.order} "
          f"{cert.trace} shortcut={'yes' if shortcut else 'no'}", file=out)
    return EXIT_OK


def _cmd_roots(args, out) -> int:
    try:
        coeffs = [int(tok) for tok in args.coeffs.split()]
    except ValueError:
        raise PreconditionError("--coeffs must be space-separated integers")
    if not coeffs:
        raise PreconditionError("empty coefficient list")
    check_odd_prime(args.modulus)  # before FpPolynomial.make reduces by it
    poly = FpPolynomial.make(list(reversed(coeffs)), args.modulus)
    counts = roots_mod_l(poly)
    for root in sorted(counts):
        print(f"{root} {counts[root]}", file=out)
    return EXIT_OK


def _cmd_reproduce_example(args, out) -> int:
    checks: list[tuple[str, bool]] = []

    poly = classpoly.compute_class_polynomial(-56, 3, 13, 10, max_prec=args.precision_max)
    checks.append(("class-polynomial-coefficients",
                   poly.descending() == [1, -2, -1, 2, -1]))

    ell = 3593
    hq = FpPolynomial.make(poly.coeffs, ell)
    roots = roots_mod_l(hq)
    checks.append(("class-polynomial-roots-mod-3593",
                   sorted(roots.elements()) == [166, 607, 2987, 3428]))

    phi = modpoly.load_embedded(3, 13)
    expected = {607: 229, 166: 2979, 3428: 2874, 2987: 2696}
    square_ok = True
    for wbar, jroot in expected.items():
        s = modpoly.evaluate_in_j_mod_l(phi, wbar, ell).monic()
        square_ok &= s == FpPolynomial.make([jroot * jroot, -2 * jroot, 1], ell)
    checks.append(("four-perfect-square-quadratics", square_ok))

    disc_poly = modpoly.discriminant_in_j(phi)
    _, rem = divmod_monic(disc_poly, list(poly.coeffs))
    checks.append(("discriminant-divisible-by-class-polynomial", rem == []))

    curve, cert, shortcut = pipeline.construct_cm_curve(
        -56, 3, 13, ell, B=10, seed=args.seed, max_prec=args.precision_max)
    checks.append(("curve-order-membership",
                   shortcut and cert.order in (3588, 3600)))

    all_ok = True
    for name, ok in checks:
        print(("PASS " if ok else "FAIL ") + name, file=out)
        all_ok &= ok
    return EXIT_OK if all_ok else EXIT_PRECONDITION


_COMMANDS = {
    "classpoly": _cmd_classpoly,
    "modpoly": _cmd_modpoly,
    "nsystem": _cmd_nsystem,
    "multiplicity": _cmd_multiplicity,
    "cm-curve": _cmd_cm_curve,
    "roots": _cmd_roots,
    "reproduce-example": _cmd_reproduce_example,
}


def dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "seed_sub", None) is not None:
        args.seed = args.seed_sub
    try:
        handler = _COMMANDS[args.command]
        if not args.out:
            return handler(args, sys.stdout)
        try:
            out = open(args.out, "w", encoding="ascii")
        except OSError as exc:
            raise PreconditionError(f"cannot write --out {args.out}: {exc.strerror}") from exc
        with out:
            return handler(args, out)
    except PrecisionExhausted as exc:
        print(f"etacm: precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except EtaCMError as exc:
        print(f"etacm: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
