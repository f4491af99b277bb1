"""Benchmark inputs and their expected verdicts.

Each workload yields a rule file text plus a checker for the JSON report of
``clploop analyze FILE --json``.  The expected verdicts of the generated
workloads follow from how the rules are built, never from a run of the
analyzer; the corpus report is compared byte for byte with the committed
golden file.

A checker returns the number of clauses whose verdict is wrong.  A report
that cannot be read at all counts every clause as wrong.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

CORPUS = Path("src/clploop/corpus/demo.clp")
GOLDEN = Path("tests/golden/demo.json")

VERIFY_STEPS = 100  # the analyzer's default --verify-steps

# 126 of the 128 position subsets fail the head condition.  At arity 7 the
# subset search outweighs witness verification; at 6 and below it does not.
SHIFT_ARITY = 7
CHAIN_SINKS = 10
CHAIN_DEPTH = 20
CHAIN_WIDTH = 20  # callers per level: 400 callers in all
# The documented sampler picks the integer of smallest magnitude, so a sink
# `s(A) <- A = B <> s(B)` is reported with the ground witness s(0) beside
# its head query, which denotes every value.  A caller body `Y <= k2`
# contains one of those looping queries exactly when k2 >= 0.
SINK_BOUND = 0


@dataclass(frozen=True)
class Workload:
    name: str
    text: str
    clauses: int
    check: Callable[[str], int]  # report text -> clauses with a wrong verdict


def _read_report(report: str, clauses: int):
    try:
        data = json.loads(report)
    except ValueError:
        return None
    if not isinstance(data, dict) or len(data.get("clauses", ())) != clauses:
        return None
    return data


def corpus(root: Path) -> Workload:
    """The bundled 18-rule demo corpus; the seed does not change it."""
    text = (root / CORPUS).read_text(encoding="utf-8")
    golden = (root / GOLDEN).read_text(encoding="utf-8")
    expected = json.loads(golden)
    count = len(expected["clauses"])

    def check(report: str) -> int:
        if report == golden:
            return 0
        data = _read_report(report, count)
        if data is None:
            return count
        wrong = sum(1 for got, want in zip(data["clauses"], expected["clauses"])
                    if got != want)
        # bytes differ although every clause matches: the difference is in
        # the propagated list, the version or the layout
        return wrong or count

    return Workload("corpus", text, count, check)


def _ground_args(witness: str, pred: str) -> list[Fraction] | None:
    """Arguments of a ground witness ``<pred(c1, .., cn) | true>``."""
    prefix, suffix = f"<{pred}(", ") | true>"
    if not (witness.startswith(prefix) and witness.endswith(suffix)):
        return None
    try:
        return [Fraction(a.strip())
                for a in witness[len(prefix):-len(suffix)].split(",")]
    except ValueError:
        return None


def shift(seed: int) -> Workload:
    """One shift rule of arity SHIFT_ARITY with seeded predicate and variable
    names:  p(X1..Xn) <- Yi = Xi + 1, Xi >= Xi+1 <> p(Y1..Yn).

    The names keep the head variables sorting before the body variables, so
    every seed asks for the same elimination work.

    Expected by construction: a step adds 1 to every argument, which keeps
    the arguments non-increasing, so every query with non-increasing
    arguments loops.  The filter on all positions therefore passes, the
    clause is looping, and the witness of the full filter is a ground query
    with non-increasing arguments that survives every verification step."""
    rng = random.Random(seed)
    n = SHIFT_ARITY
    x, y = sorted(rng.sample(string.ascii_uppercase, 2))
    pred = f"shift_{rng.randrange(10**6)}"
    head = ", ".join(f"{x}{i}" for i in range(1, n + 1))
    body = ", ".join(f"{y}{i}" for i in range(1, n + 1))
    steps = [f"{y}{i} = {x}{i} + 1" for i in range(1, n + 1)]
    order = [f"{x}{i} >= {x}{i + 1}" for i in range(1, n)]
    text = f"{pred}({head}) <- {', '.join(steps + order)} <> {pred}({body}).\n"

    def check(report: str) -> int:
        data = _read_report(report, 1)
        if data is None or data.get("propagated"):
            return 1
        clause = data["clauses"][0]
        results = clause.get("results", [])
        if clause.get("status") != "looping" or any(
                r.get("verified_steps") != VERIFY_STEPS for r in results):
            return 1
        full = [r for r in results if r.get("tau") == list(range(1, n + 1))]
        if len(full) != 1:
            return 1
        args = _ground_args(full[0].get("witness", ""), pred)
        ok = (args is not None and len(args) == n
              and all(a >= b for a, b in zip(args, args[1:])))
        return 0 if ok else 1

    return Workload("shift", text, 1, check)


def chain(seed: int) -> Workload:
    """Looping unary sinks  s(A) <- A = B <> s(B)  and levels of
    non-recursive callers  c(X) <- X <= k, Y <= k2 <> prev(Y).

    A caller at level L calls a sink (L = 1) or a caller at level L - 1.  One
    caller per level is blocked with k2 below its callee's bound, and no
    caller calls a blocked one, so the set of propagated callers is the same
    size for every seed.  Callers are listed deepest level first, so the
    propagation fixpoint needs one round per level.

    Expected by construction: every sink is looping.  A caller's head query
    <c(X) | X <= k> is propagated exactly when its callee loops and its body
    query <prev(Y) | Y <= k2> contains a looping query of the callee, which
    is when k2 is at least the callee's bound (k of a caller, SINK_BOUND of a
    sink)."""
    rng = random.Random(seed)
    sinks = [f"sink{j}" for j in range(1, CHAIN_SINKS + 1)]
    lines = [f"{s}(A) <- A = B <> {s}(B)." for s in sinks]
    expected: dict[str, tuple[bool, str]] = {}  # caller -> (propagates, callee)
    bound = {s: SINK_BOUND for s in sinks}
    callees = list(sinks)
    levels: list[list[tuple[str, str]]] = []  # (caller, rule) per level
    for level in range(1, CHAIN_DEPTH + 1):
        names = [f"c{level}_{i}" for i in range(1, CHAIN_WIDTH + 1)]
        rng.shuffle(names)
        blocked = rng.choice(names)
        rules = []
        for name in names:
            callee = rng.choice(callees)
            k = rng.randint(-50, 50)
            if name == blocked:
                k2 = bound[callee] - rng.randint(1, 3)
            else:
                k2 = bound[callee] + rng.randint(0, 3)
            bound[name] = k
            expected[name] = (name != blocked, callee)
            rules.append((name, f"{name}(X) <- X <= {k}, Y <= {k2} <> {callee}(Y)."))
        levels.append(rules)
        callees = [n for n in names if n != blocked]
    callers = [rule for rules in reversed(levels) for rule in rules]
    lines += [rule for _, rule in callers]
    order = sinks + [name for name, _ in callers]
    count = len(order)

    def check(report: str) -> int:
        data = _read_report(report, count)
        if data is None:
            return count
        try:
            via = {order[p["clause"] - 1]: p["via"] for p in data["propagated"]}
        except (KeyError, IndexError, TypeError):
            return count
        wrong = 0
        for name, clause in zip(order, data["clauses"]):
            if name not in expected:  # a sink
                ok = (clause.get("status") == "looping" and name not in via
                      and all(r.get("verified_steps") == VERIFY_STEPS
                              for r in clause["results"]))
            else:
                propagates, callee = expected[name]
                ok = clause.get("status") == "none found" and (
                    via.get(name, "").startswith(f"<{callee}(") if propagates
                    else name not in via)
            wrong += not ok
        return wrong

    return Workload("chain", "\n".join(lines) + "\n", count, check)


def make(name: str, root: Path, seed: int) -> Workload:
    if name == "corpus":
        return corpus(root)
    if name == "shift":
        return shift(seed)
    if name == "chain":
        return chain(seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("corpus", "shift", "chain")
