"""Layer spans for the traced benchmark run.

``Tracer.install`` wraps the public functions of each clploop module from
outside, at the name through which the caller looks them up: the analyzer
binds ``run``, ``delta_more_general``, ``more_general`` and the neutrality
formula builders by name, so those are wrapped at ``clploop.analyzer``; the
linarith primitives are wrapped on their module, and ``derivation_step`` on
``clploop.engine``, whose ``run`` looks it up there.  Each call records a
span (name, start, end, parent) in memory; ``export`` hands them out when
the sample ends.  ``summarize`` turns the spans of one sample into the
per-layer metrics.

A call from linarith into linarith (``satisfiable`` calls ``decide``) is not
a layer boundary and records no span.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, note]
        self.stack: list[int] = []  # indices of the open spans
        # formulas built by a wrapped neutrality builder and not yet decided,
        # by id, so their decide call can be charged to the builder; holding
        # the formula keeps its id from being reused
        self.built: dict[int, tuple[object, str]] = {}

    def wrap(self, owner, attr: str, name: str,
             note: Optional[Callable] = None, nested: bool = True) -> None:
        """Replace ``owner.attr`` by a function recording a span ``name``
        around each call.  ``note(args, result)`` runs after the span closes
        and its value is kept with the span.  With ``nested`` false, a call
        made while a span of the same layer is open records nothing."""
        fn = getattr(owner, attr)
        spans, stack = self.spans, self.stack
        layer = name.split(".", 1)[0] + "."
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not nested and stack and spans[stack[-1]][NAME].startswith(layer):
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if note is not None:
                record[NOTE] = note(args, result)
            return result

        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from clploop import analyzer, cli, engine, linarith

        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "parse_program", "syntax.parse")
        self.wrap(cli, "report_to_json", "cli.render")
        self.wrap(analyzer, "find_looping_queries", "analyzer.clause",
                  note=_subset_counts)
        self.wrap(analyzer, "candidate_filter", "analyzer.candidate_filter")
        self.wrap(analyzer, "neutrality_head_formula", "neutral.head",
                  note=self._remember("neutral.head"))
        self.wrap(analyzer, "neutrality_body_formula", "neutral.body",
                  note=self._remember("neutral.body"))
        self.wrap(analyzer, "make_witness", "analyzer.witness")
        self.wrap(analyzer, "run", "engine.run")
        self.wrap(analyzer, "delta_more_general", "filters.subsumes")
        self.wrap(analyzer, "more_general", "filters.more_general")
        self.wrap(analyzer, "propagate", "analyzer.propagate",
                  note=lambda args, result: len(result))
        # the step and the query it started from, for the variant check
        self.wrap(engine, "derivation_step", "engine.step",
                  note=lambda args, result: (args[0], result))
        for attr, name in (("decide", "linarith.decide"),
                           ("project", "linarith.project"),
                           ("satisfiable", "linarith.satisfiable"),
                           ("sample_solution", "linarith.sample")):
            note = self._built_by if attr == "decide" else None
            self.wrap(linarith, attr, name, note=note, nested=False)

    def _remember(self, tag: str) -> Callable:
        def note(args, formula):
            self.built[id(formula)] = (formula, tag)
        return note

    def _built_by(self, args, result) -> Optional[str]:
        entry = self.built.pop(id(args[0]), None)
        return entry[1] if entry else None

    def export(self) -> list[list]:
        """The spans, with each engine step's note replaced by whether its
        successor is a variant of the query it started from."""
        for record in self.spans:
            if record[NAME] == "engine.step":
                before, after = record[NOTE]
                record[NOTE] = after is not None and _shape(after) == _shape(before)
        return self.spans


def _subset_counts(args, report) -> dict:
    checks = report.checks
    return {
        "subsets": len(checks),
        "passed": sum(1 for c in checks if c.passed),
        "head": sum(1 for c in checks if c.failed_condition == "head"),
        "body": sum(1 for c in checks if c.failed_condition == "body"),
        "subsumes": sum(1 for c in checks if c.failed_condition == "subsumes"),
    }


def _shape(query) -> tuple:
    """A query with its variables renamed by order of first occurrence, atom
    arguments first: two queries are variants exactly when shapes are equal."""
    names: dict = {}

    def term(t) -> tuple:
        return (tuple((names.setdefault(v, len(names)), c.numerator, c.denominator)
                      for v, c in t.coeffs),
                t.const.numerator, t.const.denominator)

    args = tuple(term(t) for t in query.atom.args)
    store = tuple((a.rel, term(a.term)) for a in query.constraint.atoms)
    return (query.atom.pred, args, store)


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced sample.  Times are inclusive unless
    named self time below: a span's self time is its duration minus the
    durations of its child spans."""
    self_s = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            self_s[s[PARENT]] -= s[END] - s[START]
    count: Counter = Counter()
    total: defaultdict = defaultdict(float)
    own: defaultdict = defaultdict(float)
    for s, own_s in zip(spans, self_s):
        count[s[NAME]] += 1
        total[s[NAME]] += s[END] - s[START]
        own[s[NAME]] += own_s

    def decided_for(tag: str) -> float:
        return sum(s[END] - s[START] for s in spans
                   if s[NAME] == "linarith.decide" and s[NOTE] == tag)

    steps = [s for s in spans if s[NAME] == "engine.step"]
    clauses = [s[NOTE] for s in spans if s[NAME] == "analyzer.clause"]
    subsets = sum(c["subsets"] for c in clauses)
    main = next(s for s in spans if s[NAME] == "cli.main")
    render = next((s for s in spans if s[NAME] == "cli.render"), None)
    out = {
        "engine.runs": count["engine.run"],
        "engine.steps": len(steps),
        "engine.run_s": total["engine.run"],
        "engine.step_s": total["engine.step"],
        "engine.step_us": (1e6 * total["engine.step"] / len(steps)
                           if steps else 0.0),
        "engine.variant_ratio": (sum(1 for s in steps if s[NOTE]) / len(steps)
                                 if steps else 0.0),
        "neutral.head_s": total["neutral.head"] + decided_for("neutral.head"),
        "neutral.body_s": total["neutral.body"] + decided_for("neutral.body"),
        "analyzer.candidate_filter_s": total["analyzer.candidate_filter"],
        "analyzer.subsets": subsets,
        "analyzer.pass_ratio": (sum(c["passed"] for c in clauses) / subsets
                                if subsets else 0.0),
        "analyzer.fail_head": sum(c["head"] for c in clauses),
        "analyzer.fail_body": sum(c["body"] for c in clauses),
        "analyzer.fail_subsumes": sum(c["subsumes"] for c in clauses),
        "analyzer.propagate_s": total["analyzer.propagate"],
        "analyzer.propagated": sum(s[NOTE] for s in spans
                                   if s[NAME] == "analyzer.propagate"),
        "analyzer.witness_s": total["analyzer.witness"],
        "analyzer.clause_s": own["analyzer.clause"],
        "syntax.parse_s": total["syntax.parse"],
        "cli.render_s": main[END] - render[START] if render else 0.0,
    }
    for name in ("filters.more_general", "filters.subsumes"):
        out[f"{name}_calls"] = count[name]
        out[f"{name}_s"] = total[name]
    for name in ("linarith.decide", "linarith.project", "linarith.satisfiable"):
        out[f"{name}_calls"] = count[name]
        out[f"{name}_s"] = own[name]
    out["linarith.sample_s"] = own["linarith.sample"]
    return out
