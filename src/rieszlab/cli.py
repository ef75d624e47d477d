"""Command-line front end.

Exit codes: 0 success, 2 parse error, 3 type/name error (including an
unknown check id), 4 precondition violation, 5 check failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import checks, dsl, evaluator
from .dsl import DslTypeError
from .errors import (
    MalformedElement, PreconditionError, RieszError, SpaceMismatch,
    Unsupported, UnknownCheck,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TYPE = 3
EXIT_PRECONDITION = 4
EXIT_CHECK_FAILED = 5

_GRAMMAR_HELP = """\
script grammar (one statement per line, ';' terminated):
  let NAME = EXPR;
  eval EXPR [@level N];
  check ID [key=value ...];
  suite quick|full [ID ...];
  search [key=value ...];

element literals:
  coord[1,-2,3]   simple{0,1/2,1}[2,0]   ec[1,5|5]   fin{(1,2),(4,-1)}
  pl{(0,0),(1/2,1),(1,0)}
space literal:
  simplespace{0,1/2,1}
operator literals:
  kernel{1: t -> t^2, 2->1: t -> -t}
  linec{1:1, 2:2; unit -> EXPR; target EXPR}
  table{EXPR -> EXPR, ...}
every comma list takes an optional trailing comma: coord[1,2,]  f(x,)

operators and relations (loosest to tightest):
  <=  <<=  _|_  ==       order, lateral order, disjointness, equality
  \\/  /\\               supremum / infimum (elements or operators)
  lsup  linf             lateral supremum / infimum
  + -  *                 vector operations and scaling
  ^+  ^-  |EXPR|  T(x)   parts, modulus/abs, application
builtins: fragments(e) decomps(x) latsup(x,y[,e]) latinf(x,y) one(S) zero(S)
          pos(T) neg(T) mod(T) latmeet(x,y) coordspace(n)
          meyer(T; x, y[; e]) pliev(u1,..; v1,..)
predefined names, which a let can rebind:
  series (Example 2.2's functional)  finspace  ecspace  plspace
Unicode input aliases are accepted for the relations and lattice symbols.
"""


def _check_ids_help() -> str:
    lines = ["check ids:"]
    for cid in checks.check_ids():
        lines.append(f"  {cid:<22} {checks.REGISTRY[cid].title}")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszlab",
        description="Exact-arithmetic workbench for vector lattices and "
                    "orthogonally additive operators.",
        epilog=_GRAMMAR_HELP + "\n" + _check_ids_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a .rl script")
    run.add_argument("script")
    run.add_argument("--seed", type=int, default=None)

    suite = sub.add_parser("suite", help="run the named check suite")
    suite.add_argument("--profile", choices=("quick", "full"), default="quick")
    suite.add_argument("--seed", type=int, default=None)
    suite.add_argument("--report", help="write newline-delimited key=value "
                                        "records to this path")
    suite.add_argument("--ids", help="comma-separated check id subset")

    check = sub.add_parser("check", help="run one named check")
    check.add_argument("id")
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("--profile", choices=("quick", "full"), default="quick")
    check.add_argument("--report")
    check.add_argument("--config", nargs="*", action="extend", default=[],
                       metavar="KEY=VALUE")

    search = sub.add_parser("search", help="exploratory truncated-join scan")
    search.add_argument("--max-level", type=int, default=64)
    search.add_argument("--instances", type=int, default=8)
    search.add_argument("--bound", type=int, default=10 ** 6)
    search.add_argument("--seed", type=int, default=None)
    return parser


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("RIESZLAB_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise PreconditionError(
            f"RIESZLAB_SEED must be an integer, got {raw!r}") from None


def _write_report(path, results):
    with open(path, "w", encoding="utf-8") as fh:
        for r in results:
            fh.write("\n".join(r.record()))
            fh.write("\n\n")


def _cmd_run(args) -> int:
    try:
        with open(args.script, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnicodeDecodeError as exc:
        print(f"error: {args.script} is not UTF-8 text ({exc})",
              file=sys.stderr)
        return EXIT_PARSE
    result = dsl.parse(text)
    if not result.ok:
        for d in result.diagnostics:
            print(f"{args.script}:{d}", file=sys.stderr)
        return EXIT_PARSE
    env = evaluator.Environment(seed=_seed_of(args))
    # each statement prints as it completes, so an error keeps the output
    # of the statements before it
    for stmt in result.script.statements:
        where = f"{args.script}:{stmt.span[0]}:{stmt.span[1]}:"
        try:
            lines, env = evaluator.evaluate(dsl.Script((stmt,)), env=env)
        except RecursionError:
            # a body nested past the interpreter's limit, such as a join
            # of 3 000 joins, recurses while it is applied
            print(f"{where} error: expression too deeply nested to evaluate",
                  file=sys.stderr)
            return EXIT_PARSE
        except DslTypeError as exc:
            # the position of the offending expression, not the statement
            line, col = exc.span
            print(f"{args.script}:{line}:{col}: type error: {exc.message}",
                  file=sys.stderr)
            return EXIT_TYPE
        except (UnknownCheck, MalformedElement, SpaceMismatch,
                Unsupported) as exc:
            print(f"{where} type error: {exc}", file=sys.stderr)
            return EXIT_TYPE
        except PreconditionError as exc:
            print(f"{where} precondition violated: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
        for line in lines:
            print(line)
    return EXIT_CHECK_FAILED if env.failures else EXIT_OK


def _cmd_suite(args) -> int:
    ids = None
    if args.ids is not None:
        ids = [i for i in args.ids.split(",") if i]
    results, summary = checks.run_all(args.profile, ids=ids,
                                      seed=_seed_of(args))
    for r in results:
        print(r.summary_line())
    print(checks.summary_text(summary))
    if args.report:
        _write_report(args.report, results)
    return EXIT_CHECK_FAILED if summary["fails"] else EXIT_OK


def _cmd_check(args) -> int:
    for item in args.config:
        if "=" not in item:
            print(f"error: config entries look like key=value, got {item!r}",
                  file=sys.stderr)
            return EXIT_TYPE
    config = checks.parse_config(item.split("=", 1) for item in args.config)
    result = checks.run_check(args.id, config or None,
                              profile=args.profile, seed=_seed_of(args))
    print(result.summary_line())
    for art in result.artifacts:
        print(f"  {art}")
    if args.report:
        _write_report(args.report, [result])
    return EXIT_OK if result.result.ok else EXIT_CHECK_FAILED


def _cmd_search(args) -> int:
    report = checks.search_truncated_joins({
        "max_level": args.max_level,
        "instances": args.instances,
        "bound": args.bound,
        "seed": _seed_of(args),
    })
    for line in report.lines():
        print(line)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "suite": _cmd_suite,
                "check": _cmd_check, "search": _cmd_search}
    try:
        return handlers[args.command](args)
    except UnknownCheck as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TYPE
    except RieszError as exc:  # a precondition, or a usage bug
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
