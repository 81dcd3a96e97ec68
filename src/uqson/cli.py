"""Command-line front end.

Verbs: relations-verify, pbw-reduce, commrel-verify, assoc-fuzz, rep-build,
rep-verify, rep-commutant, embed-verify, psi-verify, params-sample.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or expression
syntax, 3 degenerate parameter or q value, 4 structural misuse (rank,
variant, index, dimension), 5 file or format trouble. main maps errors
to codes with one clause per family of uqson.errors: ExpressionSyntaxError
2, DegenerateInput 3, StructuralMisuse 4, then any other ValueError or an
OSError 5. Each checking verb ends in one verdict line, `...: PASS` or
`...: FAIL`, which _verdict writes while it picks exit 0 or 1.

Each verb imports only the modules it runs, and no module of the package
imports dataclasses. The exact verbs load the coefficient ring `coeffring`
with `fractions`, and the PBW code they check. The numeric verbs
(params-sample, rep-build, rep-verify, rep-commutant, psi-verify) take
their q-powers from `qnumeric` and their relation table from
`pbw._relations`, so they load neither the exact ring nor the PBW kernel;
rep-verify, rep-commutant and psi-verify, which compute with matrices, load
numpy, whose import costs more than the rest of the package's.
embed-verify and psi-verify load `jsonio` only to write --out.
"""

from __future__ import annotations

import argparse
import random
import sys

from .errors import DegenerateInput, ExpressionSyntaxError, StructuralMisuse
from .pbw import MINUS, PLUS, check_rank  # loads the rule table only
from .qnumeric import RootOfUnity

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_MISUSE = 4
EXIT_IO = 5


def _verdict(ok, head, tail=""):
    """Print a checking verb's last line, `head: PASS|FAIL tail`; return its exit code."""
    print(f"{head}: {'PASS' if ok else 'FAIL'}{tail}")
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


def _exact_verdict(args, verb, noun, report):
    for entry in report:
        print(f"{entry['relation']}: exact-zero: {'true' if entry['exact_zero'] else 'false'}")
    return _verdict(all(entry["exact_zero"] for entry in report),
                    f"{verb} n={args.n} variant={args.variant}", f" ({len(report)} {noun})")


def _dump_report(report, path):
    """Write a report to --out, loading jsonio only when there is one."""
    if path:
        from . import jsonio

        jsonio.dump_json(report, path)


def _default_rep_tol(dim):
    # double precision is comfortable at 1e-9; scale with size past 100
    return 1e-9 if dim <= 100 else 1e-9 * dim


def cmd_relations_verify(args):
    from .pbw import verify_defining_relations

    report = verify_defining_relations(args.n, args.variant)
    return _exact_verdict(args, "relations-verify", "relations", report)


def cmd_commrel_verify(args):
    from .pbw import verify_commutation_relations

    report = verify_commutation_relations(args.n, args.variant)
    return _exact_verdict(args, "commrel-verify", "identities", report)


def cmd_pbw_reduce(args):
    from .expr import evaluate_expression

    variant = args.variant
    element = evaluate_expression(args.expression, args.n, variant=variant)
    print(str(element))
    return EXIT_PASS


def cmd_assoc_fuzz(args):
    from .pbw.fuzz import associativity_fuzz

    report = associativity_fuzz(
        args.n, args.degree, args.trials, args.seed, args.variant
    )
    for failure in report["failures"]:
        print(f"FAIL trial {failure['trial']}: (a*b)*c != a*(b*c)")
        print(f"  a = {failure['a']}")
        print(f"  b = {failure['b']}")
        print(f"  c = {failure['c']}")
    return _verdict(report["pass"], f"assoc-fuzz n={args.n} degree={args.degree} "
                    f"trials={args.trials} seed={args.seed} variant={args.variant}")


def cmd_rep_build(args):
    from . import jsonio, params, reps

    omega = jsonio.params_from_json(jsonio.load_json(args.params))
    params.assert_generic(omega)
    ops = reps.build_representation(omega)
    jsonio.dump_rep(ops, args.out)
    nnz = sum(len(op.entries) for op in ops)
    print(
        f"rep-build: n={omega.n} k={omega.order_k} dim={ops[0].dim} "
        f"generators={len(ops)} nonzeros={nnz} -> {args.out}"
    )
    return EXIT_PASS


def cmd_rep_verify(args):
    from . import jsonio, reps

    ops = jsonio.load_rep(args.rep)
    root = RootOfUnity(args.q_order, args.q_t)
    dim = ops[0].dim
    tol = args.tol if args.tol is not None else _default_rep_tol(dim)
    check_rank(len(ops) + 1)  # the residual's rank, refused before any work
    cdim = reps.commutant_dimension(ops) if args.commutant else None  # refuses a large d first
    report = reps.relation_residual(ops, root)
    for entry in report:
        print(f"{entry['relation']}: residual: {entry['residual']:.3e}")
    ok = all(entry["residual"] < tol for entry in report)  # a nan residual fails
    artifacts = list(report)
    if args.commutant:
        artifacts.append({"commutantDim": cdim})
        print(f"commutant-dim: {'uncertified' if cdim is None else cdim}")
        ok = ok and cdim == 1
    _dump_report(artifacts, args.out)
    return _verdict(ok, f"rep-verify dim={dim} tol={tol:.3e}")


def cmd_rep_commutant(args):
    from . import jsonio, reps

    ops = jsonio.load_rep(args.rep)
    cdim = reps.commutant_dimension(ops)
    print(f"commutant-dim: {'uncertified' if cdim is None else cdim}")
    return _verdict(cdim == 1, "rep-commutant", " (irreducible iff 1)")


def cmd_embed_verify(args):
    from . import djembed

    report = djembed.verify_embedding(args.n)
    for entry in report:
        print(f"{entry['check']}: {'pass' if entry['pass'] else 'FAIL'}")
    ok = all(entry["pass"] for entry in report)
    _dump_report(report, args.out)
    return _verdict(ok, f"embed-verify n={args.n}", f" ({len(report)} checks)")


def cmd_psi_verify(args):
    from . import djembed

    rng = random.Random(args.seed)
    report = []
    for i in range(args.samples):
        q = djembed.sample_generic_q(
            rng, on_circle=(i % 2 == 0), min_order=args.twoj + 1
        )
        report.extend(djembed.verify_psi(args.twoj, q, tol=args.tol))
    for entry in report:
        print(
            f"{entry['check']}: residual: {entry['residual']:.3e} "
            f"{'pass' if entry['pass'] else 'FAIL'}"
        )
    ok = all(entry["pass"] for entry in report)
    _dump_report(report, args.out)
    return _verdict(ok, f"psi-verify twoj={args.twoj} samples={args.samples} "
                    f"seed={args.seed} tol={args.tol:.1e}")


def cmd_params_sample(args):
    from . import jsonio, params

    omega = params.random_generic_params(args.n, args.order, args.seed, t=args.t)
    jsonio.dump_json(jsonio.params_to_json(omega), args.out)
    count = params.parameter_count(args.n)
    print(
        f"params-sample: n={args.n} order={args.order} t={args.t} "
        f"seed={args.seed} parameters={count} -> {args.out}"
    )
    return EXIT_PASS


def _count(text):
    """argparse type of --samples, --trials, --degree: positive, as zero checks nothing."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _twice_spin(text):
    """argparse type of --twoj: 2j for the spin j, a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _check_root(parser, args):
    """A verb's order and t flags must name a primitive root of unity: other
    values are usage errors here (exit 2), and format errors in a parameter
    file (exit 5)."""
    flags = getattr(args, "root_flags", None)
    if flags:
        order, t = (getattr(args, flag[2:].replace("-", "_")) for flag in flags)
        try:
            RootOfUnity(order, t)
        except ValueError as exc:
            parser.exit(EXIT_USAGE, f"uqson {args.verb}: error: {'/'.join(flags)}: {exc}\n")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uqson",
        description="Verification and construction tools for the q-deformed "
        "orthogonal enveloping algebra.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_variant(p):
        p.add_argument(
            "--variant", choices=(PLUS, MINUS), default=PLUS,
            help="which bracket variant to use (default plus)",
        )

    p = sub.add_parser("relations-verify", help="check the defining relations symbolically")
    p.add_argument("--n", type=int, required=True)
    add_variant(p)
    p.set_defaults(func=cmd_relations_verify)

    p = sub.add_parser("pbw-reduce", help="print the normal form of an expression")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("expression")
    add_variant(p)
    p.set_defaults(func=cmd_pbw_reduce)

    p = sub.add_parser("commrel-verify", help="check the composite-bracket identities")
    p.add_argument("--n", type=int, required=True)
    add_variant(p)
    p.set_defaults(func=cmd_commrel_verify)

    p = sub.add_parser("assoc-fuzz", help="randomized associativity check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=_count, default=4)
    p.add_argument("--trials", type=_count, default=100)
    p.add_argument("--seed", type=int, required=True)
    add_variant(p)
    p.set_defaults(func=cmd_assoc_fuzz)

    p = sub.add_parser("rep-build", help="build representation matrices from parameters")
    p.add_argument("--params", required=True, help="parameter JSON file")
    p.add_argument("--out", required=True, help="output JSON dump")
    p.set_defaults(func=cmd_rep_build)

    p = sub.add_parser("rep-verify", help="check defining relations on a dumped representation")
    p.add_argument("--rep", required=True, help="representation JSON dump")
    p.add_argument("--q-order", type=int, required=True, dest="q_order")
    p.add_argument("--q-t", type=int, default=1, dest="q_t")
    p.add_argument("--tol", type=float, default=None,
                   help="residual tolerance (default 1e-9, scaled by dim past 100)")
    p.add_argument("--commutant", action="store_true",
                   help="also require commutant dimension 1")
    p.add_argument("--out", default=None, help="optional JSON report path")
    p.set_defaults(func=cmd_rep_verify, root_flags=("--q-order", "--q-t"))

    p = sub.add_parser("rep-commutant", help="commutant dimension of a dumped representation")
    p.add_argument("--rep", required=True)
    p.set_defaults(func=cmd_rep_commutant)

    p = sub.add_parser("embed-verify", help="check the special-linear embedding symbolically")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None, help="optional JSON report path")
    p.set_defaults(func=cmd_embed_verify)

    p = sub.add_parser("psi-verify", help="check the rank-3 composition on weight-basis irreps")
    p.add_argument("--twoj", type=_twice_spin, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=_count, default=10)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default=None, help="optional JSON report path")
    p.set_defaults(func=cmd_psi_verify)

    p = sub.add_parser("params-sample", help="sample generic representation parameters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order", type=int, required=True, help="order k of the root of unity")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t", type=int, default=1, help="which primitive root (exponent numerator)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_params_sample, root_flags=("--order", "--t"))

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_root(parser, args)
    except SystemExit as exc:  # argparse reports usage errors itself
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ExpressionSyntaxError as exc:
        print(f"error: {exc.msg if exc.msg else exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateInput as exc:
        print(f"error: degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except StructuralMisuse as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISUSE
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
