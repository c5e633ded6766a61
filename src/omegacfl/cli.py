"""Command-line interface.

Exit codes: 0 success, 1 negative verdict (REJECT, or a failing verify
suite), 2 malformed input, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys

# each verb imports the modules it uses when it runs, so that one call
# loads only those
from . import formats
from .formats import ParseError
from .words import parse_lasso


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _cmd_check_lasso(args) -> int:
    from .buchi import BuchiAutomaton, MullerAutomaton
    machine = formats.parse_machine(_read(args.machine))
    if isinstance(machine, (BuchiAutomaton, MullerAutomaton)):
        alpha = machine.machine.alphabet
        w = parse_lasso(args.word, alpha)
        accepted, witness = machine.decide_lasso(w)
        print("ACCEPT" if accepted else "REJECT")
        if witness is not None:
            print("witness spoke: " + " ".join(witness.spoke_states))
            print("witness cycle: " + " ".join(witness.cycle_states))
            print("witness inf: " + " ".join(sorted(witness.inf_set)))
        return 0 if accepted else 1
    from .pushdown import Mpda
    if isinstance(machine, Mpda):
        raise ParseError("exact lasso acceptance is not offered for "
                         "Muller pushdown machines")
    alpha = machine.machine.input_alphabet
    w = parse_lasso(args.word, alpha)
    accepted = machine.accepts_lasso(w)
    print("ACCEPT" if accepted else "REJECT")
    return 0 if accepted else 1


def _cmd_build_bar(args) -> int:
    from .branching import branch_guess_machine
    from .buchi import BuchiAutomaton
    from .pushdown import Bpda, inert_stack_bpda
    machine = formats.parse_machine(_read(args.machine))
    if isinstance(machine, BuchiAutomaton):
        # the result is a one-counter machine
        machine = inert_stack_bpda(machine)
    if not isinstance(machine, Bpda):
        raise ParseError("build-bar needs a Buchi machine")
    bm = branch_guess_machine(machine, args.separator)
    with open(args.out, "w") as fh:
        fh.write(formats.format_bpda(bm.bpda))
    with open(args.out + ".provenance", "w") as fh:
        fh.write(formats.format_provenance(bm))
    print(f"wrote {args.out} and {args.out}.provenance")
    print(f"states: {len(bm.bpda.machine.states)} "
          f"final: {len(bm.bpda.final)} "
          f"counter: {bm.counter_symbol}")
    return 0


def _cmd_code_tree(args) -> int:
    from .trees import h_prefix
    tree = formats.parse_tree(_read(args.tree))
    prefix = h_prefix(tree, args.levels, args.separator)
    print(".".join(prefix.symbols))
    return 0


def _cmd_kc_to_bpda(args) -> int:
    from .kleene import kc_to_bpda
    expr = formats.read_expression(args.expr)
    machine = kc_to_bpda(expr)
    with open(args.out, "w") as fh:
        fh.write(formats.format_bpda(machine))
    print(f"wrote {args.out}")
    print(f"states: {len(machine.machine.states)} "
          f"rules: {len(machine.machine.rules)}")
    return 0


def _cmd_omega_power(args) -> int:
    from .kleene import omega_power
    grammar = formats.parse_grammar(_read(args.grammar))
    expr = omega_power(grammar)
    written = formats.write_expression(expr, args.out)
    print("wrote " + " ".join(written))
    return 0


def _cmd_substitute(args) -> int:
    from .kleene import kc_substitute
    expr = formats.read_expression(args.expr)
    subst = formats.read_substitution(args.subst)
    image = kc_substitute(expr, subst)
    written = formats.write_expression(image, args.out)
    print("wrote " + " ".join(written))
    return 0


def _suite(name: str) -> str:
    """Check a --suite value against the live suite table while the
    arguments are parsed, so that only the verify verb imports it."""
    from .verify import SUITES
    if name not in SUITES:
        raise argparse.ArgumentTypeError(
            f"unknown suite {name!r} (choose from "
            + ", ".join(sorted(SUITES)) + ")")
    return name


def _cmd_verify(args) -> int:
    from .verify import run_suite
    print(f"suite: {args.suite}")
    print(f"seed: {args.seed}")
    results = run_suite(args.suite, args.seed)
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"{tag} {r.name}")
        print(f"     {r.detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} properties hold")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="omegacfl",
        description="Decide lasso words, build branch-guessing machines, "
                    "code trees, convert expressions, and run the "
                    "verification suites.")
    sub = p.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("check-lasso", help="decide one ultimately periodic word")
    c.add_argument("--machine", required=True)
    c.add_argument("--word", required=True,
                   help="lasso literal, e.g. 01(10)^w")
    c.set_defaults(fn=_cmd_check_lasso)

    c = sub.add_parser("build-bar",
                       help="branch-guessing transform of a Buchi machine")
    c.add_argument("--machine", required=True)
    c.add_argument("--separator", default="A")
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_build_bar)

    c = sub.add_parser("code-tree", help="print the coded prefix of a tree")
    c.add_argument("--tree", required=True)
    c.add_argument("--levels", type=int, required=True)
    c.add_argument("--separator", default="A")
    c.set_defaults(fn=_cmd_code_tree)

    c = sub.add_parser("kc-to-bpda",
                       help="convert an expression file to a Buchi machine")
    c.add_argument("--expr", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_kc_to_bpda)

    c = sub.add_parser("omega-power",
                       help="the omega power of a grammar, as an expression")
    c.add_argument("--grammar", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_omega_power)

    c = sub.add_parser("substitute",
                       help="apply a substitution file to an expression")
    c.add_argument("--expr", required=True)
    c.add_argument("--subst", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_substitute)

    c = sub.add_parser("verify", help="run a verification suite")
    c.add_argument("--suite", required=True, type=_suite)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(fn=_cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # invariant violation
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
