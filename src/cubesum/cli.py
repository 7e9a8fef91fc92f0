"""Command-line front end.

    cubesum classify <M> [--scope Q|K] [--budget-denom N] [--budget-coord N]
                         [--budget-relation N] [--json]
    cubesum factor <x> [--json]
    cubesum split-prime <p> [--json]
    cubesum report <p> [--json]
    cubesum solve <M> [--method lucas|relation|tangent] [--from x,y]
                      [--budget-relation N] [--json]
    cubesum descend <x> <y> <M>
    cubesum search <M> [--budget-denom N] [--budget-coord N] [--json]
    cubesum tables <which> [--max N] [--json]
    cubesum verify [quick|full] [--json]

Exit codes: 0 for any definite outcome, 2 for Unknown / nothing found,
1 for usage or input errors.  All numeric I/O is exact (no floating
point); elements parse in either the "a+b*w" or "a*u+b*v" spelling and
print on the {1, w} basis.  Each budget flag defaults to its
SearchBudget field, and a subcommand takes only the flags it reads.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import verify as verify_mod
from .classifier import LUCAS_SEARCH_BOUND, classify
from .constructors import (
    descent_trace,
    lucas_triple_search,
    lucas_witness,
    solution_from_relation,
    tangent_step,
)
from .criteria import (
    condition_I_table,
    exceptional_A_set,
    exceptional_B_set,
    first_exceptional_A_1mod9,
    prime_report,
)
from .eisenstein import format_eisenstein, format_k, parse_eisenstein, parse_k
from .factorization import classify_rational_prime, factor
from .search import SearchBudget, relation_search, search_eisenstein, search_rational

EXIT_OK, EXIT_ERROR, EXIT_UNKNOWN = 0, 1, 2


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the contract, and
    reads a token such as -w or -6+3*w as an element, not as a flag."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse takes a token that names no flag as a positional when it
        # matches this; its own pattern matches only negative numbers.
        self._negative_number_matcher = re.compile(r"-[\d(wuv]")

    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _budget(args: argparse.Namespace) -> SearchBudget:
    """The budget of the flags given; SearchBudget checks every bound."""
    return SearchBudget(**{k.removeprefix("budget_"): v
                           for k, v in vars(args).items() if k.startswith("budget_")})


def _add_budget_flags(p: argparse.ArgumentParser, *fields: str) -> None:
    for field in fields:
        p.add_argument(f"--budget-{field}", type=int, metavar="N",
                       default=getattr(SearchBudget(), field))


def build_parser() -> _Parser:
    parser = _Parser(prog="cubesum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide x³ + y³ = M with a theorem citation")
    p.add_argument("target")
    p.add_argument("--scope", choices=("Q", "K"), default="K")
    _add_budget_flags(p, "denom", "coord", "relation")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("factor", help="unique factorization in Z[w]")
    p.add_argument("element")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("split-prime", help="how a rational prime sits in Z[w]")
    p.add_argument("p", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("report", help="condition (I) and Exceptional A/B for a prime")
    p.add_argument("p", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("solve", help="construct a witness by a chosen method")
    p.add_argument("target")
    p.add_argument("--method", choices=("lucas", "relation", "tangent"), default="lucas")
    p.add_argument("--from", dest="base_point", metavar="x,y",
                   help="base point for --method tangent")
    _add_budget_flags(p, "relation")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("descend", help="run the 3-descent trace from a solution")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("target")

    p = sub.add_parser("search", help="brute-force witness search")
    p.add_argument("target")
    _add_budget_flags(p, "denom", "coord")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("tables", help="regenerate a table and check it")
    p.add_argument("which", choices=("conditionI", "excA", "excB", "excA-mod9-first5"))
    p.add_argument("--max", type=int, default=200)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("level", nargs="?", choices=("quick", "full"), default="quick")
    p.add_argument("--json", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"cubesum: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _cmd_classify(args: argparse.Namespace) -> int:
    m = parse_k(args.target)
    verdict = classify(m, args.scope, _budget(args))
    if args.json:
        print(verdict.to_json(args.target))
    else:
        line = f"{verdict.status} [{verdict.rule}] {verdict.reason}"
        print(line)
        if verdict.witness is not None:
            print(f"  witness: ({format_k(verdict.witness[0])}, {format_k(verdict.witness[1])})")
        if verdict.trivial_solutions is not None:
            listed = ", ".join(
                f"({format_k(a)}, {format_k(b)})" for a, b in verdict.trivial_solutions
            )
            print(f"  solutions: {listed}")
        if verdict.citation is not None:
            print(f"  citation: {verdict.citation}")
    return verdict.exit_code()


def _cmd_factor(args: argparse.Namespace) -> int:
    f = factor(parse_eisenstein(args.element))
    print(f.to_json() if args.json else str(f))
    return EXIT_OK


def _cmd_split_prime(args: argparse.Namespace) -> int:
    cls = classify_rational_prime(args.p)
    if args.json:
        doc = {"p": cls.p, "class": cls.tag}
        if cls.pi is not None:
            doc["pi"] = format_eisenstein(cls.pi)
            doc["pi_bar"] = format_eisenstein(cls.pi_bar)
        print(json.dumps(doc))
    elif cls.tag == "split":
        print(f"{cls.p} splits: pi = {format_eisenstein(cls.pi)}, "
              f"conj = {format_eisenstein(cls.pi_bar)}")
    elif cls.tag == "ramified":
        print("3 ramifies: 3 = (-1) * (1+2*w)^2")
    else:
        print(f"{cls.p} is inert (irreducible in Z[w])")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    rep = prime_report(args.p)
    if args.json:
        print(rep.to_json())
        return EXIT_OK
    print(f"p = {rep.p}  ({rep.tag}, {rep.mod9} mod 9)")
    if rep.pi is not None:
        print(f"  pi = {format_eisenstein(rep.pi)}")
        print(f"  condition (I): {rep.condition_I}")
        wit = f" via 4p = {rep.exceptional_A_witness[0]}² + 243·{rep.exceptional_A_witness[1]}²" \
            if rep.exceptional_A_witness else ""
        print(f"  Exceptional A: {rep.exceptional_A}{wit}")
        print(f"  Exceptional B: {rep.exceptional_B}")
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    m = parse_k(args.target)
    budget = _budget(args)
    if args.method == "lucas":
        if not m.is_rational() or not m.is_integral():
            raise ValueError("--method lucas needs a rational integer target")
        pair = lucas_triple_search(m.num.a, LUCAS_SEARCH_BOUND)
        if pair is None:
            print("no integer triple found within the bound", file=sys.stderr)
            return EXIT_UNKNOWN
        x, y = lucas_witness(pair[0], pair[1], m.num.a)
        extra = {"triple": [pair[0], pair[1], -pair[0] - pair[1]]}
    elif args.method == "relation":
        if not m.is_integral():
            raise ValueError("--method relation needs an integral target")
        rel = relation_search(m.num, budget.relation)
        if rel is None:
            print("no relation found within the bound", file=sys.stderr)
            return EXIT_UNKNOWN
        x, y = solution_from_relation(*rel, m.num)
        extra = {"relation": [format_eisenstein(z) for z in rel]}
    else:  # tangent
        if not args.base_point:
            raise ValueError("--method tangent needs --from x,y")
        base = _parse_point(args.base_point)
        x, y = tangent_step(m, base)
        extra = {"from": [format_k(base[0]), format_k(base[1])]}
    if args.json:
        doc = {"target": args.target, "method": args.method,
               "witness": [format_k(x), format_k(y)], **extra}
        print(json.dumps(doc))
    else:
        print(f"({format_k(x)}, {format_k(y)})")
    return EXIT_OK


def _parse_point(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'x,y', got {text!r}")
    return parse_k(parts[0]), parse_k(parts[1])


def _cmd_descend(args: argparse.Namespace) -> int:
    x, y = parse_k(args.x), parse_k(args.y)
    m = parse_k(args.target)
    if not m.is_integral():
        raise ValueError("descent target must be integral")
    trace = descent_trace(x, y, m.num)
    for t in trace.steps:
        doc = {
            "A": format_eisenstein(t.A),
            "B": format_eisenstein(t.B),
            "C": format_eisenstein(t.C),
            "norm_product": t.norm_product(),
        }
        print(json.dumps(doc))
    print(json.dumps({"terminal": trace.terminal}))
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    m = parse_k(args.target)
    if not m.is_integral():
        raise ValueError("search target must be integral")
    budget = _budget(args)
    if m.is_rational():
        hits = search_rational(m.num.a, budget.denom)
    else:
        hits = search_eisenstein(m.num, budget.coord, budget.denom)
    if args.json:
        print(json.dumps([[format_k(a), format_k(b)] for a, b in hits]))
    else:
        for a, b in hits:
            print(f"({format_k(a)}, {format_k(b)})")
        if not hits:
            print("no solutions within the budget", file=sys.stderr)
    return EXIT_OK if hits else EXIT_UNKNOWN


def _cmd_tables(args: argparse.Namespace) -> int:
    which = args.which
    if which == "conditionI":
        rows = condition_I_table(args.max)
        if args.json:
            print(json.dumps(rows))
        else:
            for r in rows:
                print(f"p={r['p']:<5} a={r['a']:<5} b={r['b']:<5} a+b={r['a+b']:<5} cube={r['cube']}")
        criterion = verify_mod.criterion_4_condition_I_table
    else:
        if which == "excA":
            got = exceptional_A_set(args.max)
        elif which == "excB":
            got = exceptional_B_set(args.max)
        else:  # excA-mod9-first5
            got = first_exceptional_A_1mod9(5)
        print(json.dumps(got) if args.json else " ".join(map(str, got)))
        criterion = verify_mod.criterion_5_exceptional_sets
    try:
        criterion()
    except verify_mod.VerificationError as err:
        print(f"table mismatch against expected constants: {err}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verify_mod.run(args.level)
    if args.json:
        print(json.dumps([
            {"criterion": r.number, "name": r.name, "ok": r.ok, "detail": r.detail}
            for r in results
        ]))
    else:
        for r in results:
            print(f"{'PASS' if r.ok else 'FAIL'}  {r.number:>2} {r.name}: {r.detail}")
    return EXIT_OK if all(r.ok for r in results) else EXIT_ERROR


_COMMANDS = {
    "classify": _cmd_classify,
    "factor": _cmd_factor,
    "split-prime": _cmd_split_prime,
    "report": _cmd_report,
    "solve": _cmd_solve,
    "descend": _cmd_descend,
    "search": _cmd_search,
    "tables": _cmd_tables,
    "verify": _cmd_verify,
}


if __name__ == "__main__":
    raise SystemExit(main())
