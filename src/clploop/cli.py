"""Command line front end.

Two subcommands.  ``analyze`` loads a rule file, searches every clause for
derivation-neutral filters and looping queries, and prints a per-clause
report (text by default, machine-readable with --json).  ``check`` asks
whether one user-supplied query is provably looping: it reuses the analysis
and answers LOOPS (proved) when the query is more general than a verified
looping query, or filter-more-general than a proven looping head query under
one of the found filters.

Exit codes: 0 analysis completed (whatever the findings), 1 stdout closed
before the report was written, 2 parse, validation or usage error, 3 a
resource limit was hit somewhere or a witness failed engine validation (the
partial report is still printed; ``check`` names the first such error on
stderr) or a derived number is too long to print (the text report stops
at it).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Optional

from . import __version__, linarith
from .analyzer import AnalyzeOptions, ClauseReport, ProgramReport, analyze_program
from .engine import format_trace, run
from .filters import Filter, delta_more_general, more_general, positions_str
from .linarith import ResourceLimitError
from .syntax import (
    ParseError,
    Program,
    Query,
    _position,
    parse_program,
    parse_query,
)


def _sorted_classes(classes) -> list[frozenset[int]]:
    return sorted(classes, key=lambda m: (len(m), tuple(sorted(m))))


def _clause_source(report: ClauseReport) -> str:
    return report.clause.text or str(report.clause)


def _check_error(check) -> str:
    # a failed witness is the only error of a subset that was decided
    kind = "error" if check.head_ok else "resource limit"
    return f"{kind} at tau {positions_str(check.positions)}: {check.error}"


def _first_error(report: ProgramReport) -> str:
    """The first error of a report that has one, as one line."""
    for r in report.reports:
        for check in r.checks:
            if check.error:
                return f"clause {r.index + 1}: {_check_error(check)}"
    return f"resource limit in propagation: {report.propagation_error}"


def _print_text_report(report: ProgramReport, out) -> None:
    looping = sum(1 for r in report.reports if r.results)
    for r in report.reports:
        print(f"clause {r.index + 1}: {_clause_source(r)}", file=out)
        if r.results:
            for res in r.results:
                verified = (f"verified {res.verified_steps} steps"
                            if res.verified_steps else "not run")
                print(f"  tau: {positions_str(res.positions)}", file=out)
                print(f"    delta: {res.delta}", file=out)
                print(f"    witness: {res.witness}  ({verified})", file=out)
            rendered = ", ".join(positions_str(m)
                                 for m in _sorted_classes(r.classes))
            print(f"  classes: {rendered}", file=out)
        else:
            print("  none found", file=out)
        for check in r.checks:
            if check.error:
                print(f"  {_check_error(check)}", file=out)
    if report.propagated:
        print("propagated:", file=out)
        for p in report.propagated:
            print(f"  clause {p.index + 1}: {p.head_query}  via {p.via}",
                  file=out)
    if report.propagation_error:
        print(f"resource limit in propagation: {report.propagation_error}",
              file=out)
    total = len(report.reports)
    print(f"{total} clause{'s' if total != 1 else ''}: "
          f"{looping} looping, {total - looping} none found", file=out)


def report_to_json(report: ProgramReport) -> dict:
    """The report as JSON data; the key ``propagation_error`` is present only
    when a resource limit stopped propagation."""
    clauses = []
    for r in report.reports:
        clauses.append({
            "source": _clause_source(r),
            "status": r.status,
            "results": [
                {
                    "tau": sorted(res.positions),
                    "delta": str(res.delta),
                    "witness": str(res.witness),
                    "verified_steps": res.verified_steps,
                }
                for res in r.results
            ],
            "classes": [sorted(m) for m in _sorted_classes(r.classes)],
            "errors": [
                {"tau": sorted(c.positions), "message": c.error}
                for c in r.checks if c.error
            ],
        })
    data = {
        "version": __version__,
        "clauses": clauses,
        "propagated": [
            {
                "clause": p.index + 1,
                "head_query": str(p.head_query),
                "via": str(p.via),
            }
            for p in report.propagated
        ],
    }
    if report.propagation_error:
        data["propagation_error"] = report.propagation_error
    return data


def _utf8(text: str) -> str:
    """Text read with ``errors="surrogateescape"``, as a rule file and the
    command line are: a byte that is not UTF-8 is read as a lone surrogate
    (U+DC80..U+DCFF), which valid UTF-8 never decodes to, and the first one
    is a positioned parse error."""
    bad = not text.isascii() and re.search("[\udc80-\udcff]", text)
    if bad:
        raise ParseError(f"invalid UTF-8 byte {ord(bad.group()) - 0xdc00:#04x}",
                         *_position(text, bad.start()))
    return text


def _load_program(path: str) -> Program:
    """Parse a rule file."""
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
    except OSError as err:
        raise ParseError(str(err))
    return parse_program(_utf8(text))


def _options_from(args) -> AnalyzeOptions:
    return AnalyzeOptions(
        first_only=getattr(args, "first_only", False),
        verify_steps=args.verify_steps,
        max_dnf=args.max_dnf,
        propagate=not getattr(args, "no_propagate", False),
    )


def cmd_analyze(args) -> int:
    program = _load_program(args.file)
    report = analyze_program(program, _options_from(args))
    if args.json:
        sys.stdout.write(json.dumps(report_to_json(report), indent=2))
        print()
    else:
        _print_text_report(report, sys.stdout)
    if args.trace and not args.json:
        for r in report.reports:
            for res in r.results:
                if res.verified_steps <= 0:
                    continue
                state = run(res.witness, Program((r.clause,)), res.verified_steps,
                            keep_trace=True, limit=args.max_dnf)
                print(f"trace for {res.witness} "
                      f"(clause {r.index + 1}, tau {positions_str(res.positions)}):")
                for line in format_trace(state):
                    print(f"  {line}")
    return 3 if report.had_error else 0


def _proof_for(query: Query, report: ProgramReport,
               limit: int) -> Optional[tuple[str, str]]:
    """A (kind, fact) pair proving the query loops, or None.

    kind 'more general than' cites a verified looping query; kind
    'filter-more-general than' cites a looping head query whose clause has a
    passing filter.
    """
    looping = [r for r in report.reports if r.results]
    facts: list[Query] = []
    for r in looping:
        facts.append(r.clause.head_query)
        facts.extend(res.witness for res in r.results)
    facts.extend(p.head_query for p in report.propagated)
    for fact in facts:
        if fact.pred == query.pred and more_general(query, fact, limit):
            return ("more general than", str(fact))
    for r in looping:
        head = r.clause.head_query
        if head.pred != query.pred:
            continue
        for res in r.results:
            if delta_more_general(query, head, Filter(res.positions, res.delta), limit):
                return ("filter-more-general than",
                        f"{head} under tau {positions_str(res.positions)}")
    return None


def cmd_check(args) -> int:
    program = _load_program(args.file)
    query = parse_query(_utf8(args.query), program)
    report = analyze_program(program, _options_from(args))
    try:
        proof = _proof_for(query, report, args.max_dnf)
        state = (run(query, program, args.run, keep_trace=args.trace,
                     limit=args.max_dnf)
                 if args.run > 0 else None)
    except ResourceLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    verdict = "LOOPS (proved)" if proof else "UNKNOWN"
    empirical = state.steps if state else None
    if args.json:
        payload = {
            "query": str(query),
            "verdict": verdict,
            "via": f"{proof[0]} {proof[1]}" if proof else None,
            "empirical_steps": empirical,
        }
        sys.stdout.write(json.dumps(payload, indent=2))
        print()
    else:
        print(f"{query}: {verdict}")
        if proof:
            print(f"  {proof[0]} {proof[1]}")
        if empirical is not None:
            note = ("limit reached" if empirical >= args.run
                    else "derivation ended")
            print(f"  empirical: {empirical} steps ({note})")
        if args.trace and state:
            for line in format_trace(state):
                print(f"  {line}")
    if report.had_error:
        print(f"error: {_first_error(report)}", file=sys.stderr)
        return 3
    return 0


def _at_least(least: int):
    """An argparse type: an integer, below ``least`` a usage error (exit 2)."""
    def parse(text: str) -> int:
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text}")
        return int(text)
    parse.__name__ = "int"  # argparse's invalid-value message names it
    return parse


_MAX_DNF_HELP = ("ceiling on the conjuncts of one elimination step in the "
                 "filter search, witness construction and verification, "
                 "propagation, check's proof and --run (default 10^6)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clploop",
        description="Prove non-termination of queries to binary rules over "
                    "linear rational constraints.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="find looping queries for every clause")
    pa.add_argument("file", help="rule file")
    pa.add_argument("--json", action="store_true", help="machine readable report")
    pa.add_argument("--first-only", action="store_true",
                    help="stop at the first passing position set per clause")
    pa.add_argument("--verify-steps", type=_at_least(0), default=100, metavar="K",
                    help="derivation steps each witness must survive "
                         "(0 disables the runtime check; default 100)")
    pa.add_argument("--trace", action="store_true",
                    help="print the verification derivation of each witness")
    pa.add_argument("--max-dnf", type=_at_least(1),
                    default=linarith.DEFAULT_DNF_LIMIT, metavar="N",
                    help=_MAX_DNF_HELP)
    pa.add_argument("--no-propagate", action="store_true",
                    help="skip the cross-clause propagation pass")
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("check", help="decide whether one query provably loops")
    pc.add_argument("file", help="rule file")
    pc.add_argument("--query", required=True, metavar="Q",
                    help='query text, e.g. "p(0, X) : X >= 1"')
    pc.add_argument("--run", type=_at_least(0), default=0, metavar="K",
                    help="also run the query for up to K derivation steps")
    pc.add_argument("--json", action="store_true", help="machine readable verdict")
    pc.add_argument("--trace", action="store_true",
                    help="with --run, print the derivation steps")
    pc.add_argument("--verify-steps", type=_at_least(0), default=100, metavar="K",
                    help="witness verification steps for the underlying analysis")
    pc.add_argument("--max-dnf", type=_at_least(1),
                    default=linarith.DEFAULT_DNF_LIMIT, metavar="N",
                    help=_MAX_DNF_HELP)
    pc.set_defaults(func=cmd_check)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            code = args.func(args)
        except ParseError as err:
            print(f"error: {err}", file=sys.stderr)
            code = 2
        except ValueError as err:
            # a number the analysis derived is too long to print; it has no
            # source position, and the report may stop part-way
            if "integer string conversion" not in str(err):
                raise
            print("error: a derived number exceeds the interpreter's "
                  f"int-string limit ({sys.get_int_max_str_digits()} digits)",
                  file=sys.stderr)
            code = 3
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so flushing it at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
