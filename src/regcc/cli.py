"""Command-line front end.

One structured-text document per invocation on standard output; identical
inputs produce byte-identical output.  Exit codes: 0 success, 1 domain
error, 2 usage error.  Progress notes go to standard error only with
--verbose.
"""

from __future__ import annotations

import argparse
import sys

from .automata import CcError, builtin_language_names, minimize, parse_dfa, serialize_dfa
from .classify import (
    BUILTIN_MONOID_NAMES, DEFAULT_WITNESS_LEN, classify_nondet,
    serialize_classification,
)
from .commcc import (
    CC_FUNCTION_NAMES, PIP2_VARIANTS, builtin_function, exact_deterministic_cc,
    language_problem, max_fooling_set, min_cover, min_disjoint_cover,
    serialize_cover, serialize_function, serialize_tree,
)
from .monoid import serialize_monoid, syntactic_ordered_monoid, transition_monoid
from .reductions import (
    BUILTIN_REDUCTION_NAMES, builtin_reduction,
    search_local_reduction_nonexistence, serialize_reduction, verify_reduction,
)


def _read_dfa(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CcError("cannot read %s: %s" % (path, exc))
    return parse_dfa(text)


def _note(args, message):
    if args.verbose:
        print(message, file=sys.stderr)


def _function(args):
    name = args.name
    if name not in CC_FUNCTION_NAMES:
        raise CcError("unknown function %r; one of %s"
                      % (name, ", ".join(CC_FUNCTION_NAMES)))
    kwargs = {}
    if name == "IP":
        if args.q is None:
            raise CcError("IP requires --q")
        kwargs["q"] = args.q
    if name == "PIP2":
        kwargs["variant"] = args.variant
    return builtin_function(name, args.n, **kwargs)


def cmd_dfa(args):
    d = _read_dfa(args.file)
    if args.action == "minimize":
        d = minimize(d)
    sys.stdout.write(serialize_dfa(d))
    return 0


def cmd_monoid(args):
    d = _read_dfa(args.file)
    if args.ordered:
        _note(args, "computing syntactic ordered monoid")
        om, _, ideal = syntactic_ordered_monoid(d)
        sys.stdout.write(serialize_monoid(om, ideal=ideal))
    else:
        m, _ = transition_monoid(d)
        sys.stdout.write(serialize_monoid(m))
    return 0


def cmd_classify(args):
    d = _read_dfa(args.file)
    _note(args, "classifying")
    om, _, _ = syntactic_ordered_monoid(d)
    result = classify_nondet(om, max_witness_len=args.max_witness_len)
    sys.stdout.write(serialize_classification(result, om))
    return 0


def cmd_cc(args):
    if args.measure == "language":
        f = language_problem(_read_dfa(args.name), args.n)
        sys.stdout.write(serialize_function(f))
        return 0
    f = _function(args)
    _note(args, "solving %s on %s" % (args.measure, f.name))
    if args.measure == "exact":
        bits, tree = exact_deterministic_cc(f)
        sys.stdout.write("function: %s\nn: %d\nbits: %d\nleaves: %d\n"
                         % (f.name, args.n, bits, len(tree.leaves())))
        sys.stdout.write(serialize_tree(tree))
    elif args.measure == "cover":
        count, cover = min_cover(f, args.color)
        sys.stdout.write("function: %s\nn: %d\n" % (f.name, args.n))
        sys.stdout.write(serialize_cover(f, count, cover))
    elif args.measure == "disjoint":
        count, cover = min_disjoint_cover(f)
        sys.stdout.write("function: %s\nn: %d\n" % (f.name, args.n))
        sys.stdout.write(serialize_cover(f, count, cover))
    elif args.measure == "fooling":
        cells = max_fooling_set(f, args.color)
        sys.stdout.write("function: %s\nn: %d\ncolor: %d\nsize: %d\n"
                         % (f.name, args.n, args.color, len(cells)))
        for i, j in cells:
            sys.stdout.write("cell: %s,%s\n" % (f.row_labels[i], f.col_labels[j]))
    return 0


def cmd_reduce(args):
    if args.action == "verify":
        reduction = builtin_reduction(args.name, q=args.q, variant=args.variant)
        _note(args, "verifying %s up to n=%d" % (args.name, args.n_max))
        report = verify_reduction(reduction, args.n_max)
        sys.stdout.write(serialize_reduction(reduction))
        sys.stdout.write(report.serialize())
        return 0
    report = search_local_reduction_nonexistence(
        s_max=args.s_max, relaxed=args.relaxed)
    sys.stdout.write(report.serialize())
    return 0


def cmd_builtin(args):
    lines = ["languages: " + ",".join(builtin_language_names()),
             "monoids: " + ",".join(BUILTIN_MONOID_NAMES),
             "functions: " + ",".join(CC_FUNCTION_NAMES),
             "reductions: " + ",".join(BUILTIN_REDUCTION_NAMES)]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regcc",
        description="communication-complexity classification of regular "
                    "languages, with exact desk-scale oracles")
    parser.add_argument("--verbose", action="store_true",
                        help="progress notes on standard error")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dfa", help="show or minimize an automaton file")
    p.add_argument("action", choices=["show", "minimize"])
    p.add_argument("file")
    p.set_defaults(func=cmd_dfa)

    p = sub.add_parser("monoid", help="transition or syntactic ordered monoid")
    p.add_argument("action", choices=["compute"])
    p.add_argument("file")
    p.add_argument("--ordered", action="store_true")
    p.set_defaults(func=cmd_monoid)

    p = sub.add_parser("classify", help="non-deterministic complexity tier")
    p.add_argument("file")
    p.add_argument("--max-witness-len", type=int, default=DEFAULT_WITNESS_LEN)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cc", help="exact communication-complexity oracles")
    p.add_argument("measure",
                   choices=["exact", "cover", "disjoint", "fooling", "language"])
    p.add_argument("name", help="function name, or a DFA file for 'language'")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--color", type=int, choices=[0, 1], default=1)
    p.add_argument("--variant", default="TWO_SIDED", choices=PIP2_VARIANTS)
    p.set_defaults(func=cmd_cc)

    p = sub.add_parser("reduce", help="verify reductions, search non-existence")
    action = p.add_subparsers(dest="action", required=True)
    v = action.add_parser("verify")
    v.add_argument("name", choices=BUILTIN_REDUCTION_NAMES)
    v.add_argument("--n-max", type=int, default=4)
    v.add_argument("--q", type=int)
    v.add_argument("--variant", default="TWO_SIDED", choices=PIP2_VARIANTS)
    v.set_defaults(func=cmd_reduce)
    s = action.add_parser("search-nonexistence")
    s.add_argument("--s-max", type=int, default=1)
    s.add_argument("--relaxed", action="store_true")
    s.set_defaults(func=cmd_reduce)

    p = sub.add_parser("builtin", help="list the built-in registry")
    p.add_argument("action", choices=["list"])
    p.set_defaults(func=cmd_builtin)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CcError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
