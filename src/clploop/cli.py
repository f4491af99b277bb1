"""Command line front end: it parses arguments and renders reports.

Two subcommands.  ``analyze`` loads a rule file, runs the analysis
(`analyzer.analyze_program`) and prints a per-clause report (text by
default, machine-readable with --json).  ``check`` runs the same analysis
and prints the verdict `analyzer.proof_for` gives one user-supplied query:
LOOPS (proved) when the query is more general than a verified looping query,
or filter-more-general than a proven looping head query under one of the
found filters.  The decisions are the library's: the parser rejects a byte
that is not UTF-8, the analyzer proves, and ``main`` opens the one scope of
the --max-dnf ceiling around the command.

Exit codes: 0 analysis completed (whatever the findings), 1 stdout closed
before the report was written, 2 parse, validation or usage error, 3 a
resource limit was hit somewhere or a witness failed engine validation (the
partial report is still printed; ``check`` names the first such error on
stderr) or a derived number is too long to print (the text report stops
at it).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import Optional

from . import __version__, linarith
from .analyzer import (
    AnalyzeOptions,
    ClauseReport,
    ProgramReport,
    analyze_program,
    proof_for,
)
from .engine import format_trace, run
from .filters import positions_str
from .linarith import ResourceLimitError
from .syntax import ParseError, Program, parse_program, parse_query


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


def _load_program(path: str) -> Program:
    """Parse a rule file; the parser rejects a byte that is not UTF-8."""
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
    except OSError as err:
        raise ParseError(str(err))
    return parse_program(text)


def cmd_analyze(args, program: Program) -> int:
    report = analyze_program(program, AnalyzeOptions(
        first_only=args.first_only, verify_steps=args.verify_steps,
        propagate=not args.no_propagate))
    if args.json:
        print(json.dumps(report_to_json(report), indent=2))
    else:
        _print_text_report(report, sys.stdout)
    if args.trace and not args.json:
        for r in report.reports:
            for res in r.results:
                if res.verified_steps <= 0:
                    continue
                state = run(res.witness, Program((r.clause,)), res.verified_steps,
                            keep_trace=True)
                # number each step by the clause in the program, not in the run's
                state = state._replace(trace=[(r.index, q) for _, q in state.trace])
                print(f"trace for {res.witness} "
                      f"(clause {r.index + 1}, tau {positions_str(res.positions)}):")
                for line in format_trace(state):
                    print(f"  {line}")
    return 3 if report.had_error else 0


def cmd_check(args, program: Program) -> int:
    query = parse_query(args.query, program)
    report = analyze_program(program, AnalyzeOptions(verify_steps=args.verify_steps))
    proof = proof_for(query, report)
    state = run(query, program, args.run, keep_trace=args.trace) if args.run > 0 else None
    verdict = "LOOPS (proved)" if proof else "UNKNOWN"
    empirical = state.steps if state else None
    if args.json:
        payload = {
            "query": str(query),
            "verdict": verdict,
            "via": f"{proof[0]} {proof[1]}" if proof else None,
            "empirical_steps": empirical,
        }
        print(json.dumps(payload, indent=2))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clploop",
        description="Prove non-termination of queries to binary rules over "
                    "linear rational constraints.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("file", help="rule file")
    shared.add_argument("--json", action="store_true", help="machine readable output")
    shared.add_argument("--verify-steps", type=_at_least(0),
                        default=AnalyzeOptions().verify_steps, metavar="K",
                        help="derivation steps each witness of the analysis must "
                             "survive (0 disables the runtime check; default "
                             "%(default)s)")
    shared.add_argument("--max-dnf", type=_at_least(1),
                        default=linarith.DEFAULT_DNF_LIMIT, metavar="N",
                        help="ceiling on the conjuncts of one elimination step in "
                             "the filter search, witness construction and "
                             "verification, propagation, check's proof and --run "
                             "(default 10^6)")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", parents=[shared],
                        help="find looping queries for every clause")
    pa.add_argument("--first-only", action="store_true",
                    help="stop at the first passing position set per clause")
    pa.add_argument("--trace", action="store_true",
                    help="print the verification derivation of each witness")
    pa.add_argument("--no-propagate", action="store_true",
                    help="skip the cross-clause propagation pass")
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("check", parents=[shared],
                        help="decide whether one query provably loops")
    pc.add_argument("--query", required=True, metavar="Q",
                    help='query text, e.g. "p(0, X) : X >= 1"')
    pc.add_argument("--run", type=_at_least(0), default=0, metavar="K",
                    help="also run the query for up to K derivation steps")
    pc.add_argument("--trace", action="store_true",
                    help="with --run, print the derivation steps")
    pc.set_defaults(func=cmd_check)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and return its exit code (see the module docstring).

    The cyclic garbage collector is paused for the whole command, and the
    state it was found in is restored on the way out, also when argparse
    exits.  The analysis builds no reference cycles, so the collector's
    scans of the many young objects it makes free nothing, while they cost
    1-4 ms of a cold ``analyze``; the tests check that a command leaves no
    cyclic garbage of this package behind.  Only the entry point pauses it:
    the library functions leave the collector alone."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        try:
            # the rule file is parsed outside the ceiling's scope, as
            # normalizing a rule decides its constraint satisfiable
            program = _load_program(args.file)
            with linarith.max_dnf(args.max_dnf):
                code = args.func(args, program)
        except ParseError as err:
            print(f"error: {err}", file=sys.stderr)
            code = 2
        except ResourceLimitError as err:
            print(f"error: {err}", file=sys.stderr)
            code = 3
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
    finally:
        if enabled:
            gc.enable()
    return code


if __name__ == "__main__":
    sys.exit(main())
