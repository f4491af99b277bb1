"""Search for looping queries of binary recursive rules.

For each subset m of a recursive rule's head positions, the analyzer takes
the condition cond(m), the rule constraint existentially projected onto the
m-selected head variables.  The conditions are nodes of the rule's one
projection lattice (``neutral.projection``), which also holds the head
condition's sides under a parent rule of their own, since the chain fixes a
node's printed atoms and where a ``--max-dnf`` limit stops: the full set's
condition projects the rule constraint, and any other subset's projects its
parent's condition, the parent being m plus the smallest position outside
m.  The scan runs in decreasing cardinality, so each subset costs one
projection of a small constraint over head variables.  Fourier-Motzkin
output depends on the elimination order, so on rare inputs a condition's
printed text differs from a direct projection of the rule constraint in
atom order or by a redundant atom; the two denote the same set.  If the
filter at m with condition cond(m) is derivation neutral for the rule
(decided on cond(m) itself) and the body query is filter-more-general than
the head query (whose filter half is the body condition), the head query
loops; only then is the filter built, and a ground witness sampled from
cond(m) at the filtered positions, with the lattice's condition at the
other positions as its store.  Every reported query is validated by running
the derivation engine for a configurable number of steps; with zero steps
the witnesses are reported unverified (``verified_steps`` 0, "not run").

The reports expose the downward closure of the passing position subsets as
"non-terminating classes": m is a class when some query with constants at the
positions m, fresh variables elsewhere and the store true loops.  Dropping
positions does not keep a filter neutral (on the corpus, clause 16's {1} and
{2} fail the head check); the closure holds by lifting.  A passing tau's
witness has constants at tau; putting fresh variables in place of its
arguments outside m, a subset of tau, and true in place of its store gives a
more general query, and a query more general than a looping query loops
too.  A witness needs no generality check of its own: `make_witness` builds
it delta-more-general than the head query (see there), and the tests run
every corpus class query on the engine.  A separate
propagation pass extends looping facts through non-recursive rules: if a
rule's body query is more general than a known looping query, its head query
loops as well.
"""

from __future__ import annotations

import heapq
import itertools
from typing import NamedTuple, Optional

from . import linarith
from .engine import run
from .filters import (
    Filter,
    delta_more_general,
    more_general,
    positions,
    positions_str,
    projected_pred,
    select_positions,
)
from .linarith import ResourceLimitError
from .neutral import neutrality_body_formula, neutrality_head_formula, projection
from .syntax import (
    Atom,
    Clause,
    LinTerm,
    Pred,
    Program,
    Query,
    atom_of_vars,
)


class AnalyzeOptions(NamedTuple):
    first_only: bool = False
    verify_steps: int = 100
    propagate: bool = True


class SubsetCheck(NamedTuple):
    """Diagnostics for one position subset: which side of the neutrality
    criterion held, and whether the body query subsumed the head query.
    Unevaluated checks are None.  ``error`` carries a resource-limit
    message, or says that the subset's witness failed engine validation
    (all three checks then held, and the subset has no result)."""

    positions: frozenset[int]
    head_ok: Optional[bool] = None
    body_ok: Optional[bool] = None
    subsumes: Optional[bool] = None
    error: Optional[str] = None

    @property
    def passed(self) -> bool:
        return bool(self.head_ok and self.body_ok and self.subsumes) and not self.error

    @property
    def failed_condition(self) -> Optional[str]:
        """Name of the first failing check: 'head', 'body', 'subsumes'."""
        if self.head_ok is False:
            return "head"
        if self.body_ok is False:
            return "body"
        if self.subsumes is False:
            return "subsumes"
        return None


class FilterResult(NamedTuple):
    """One passing filter, ``Filter(positions, delta)``: the position subset
    and its condition query, with a verified looping witness."""

    positions: frozenset[int]
    delta: Query
    witness: Query
    verified_steps: int


class ClauseReport(NamedTuple):
    """The subset scan of one clause; a non-recursive rule is not scanned.
    The head query the scan decided on is ``clause.head_query``."""

    index: int
    clause: Clause
    results: tuple[FilterResult, ...] = ()
    checks: tuple[SubsetCheck, ...] = ()
    classes: frozenset[frozenset[int]] = frozenset()

    @property
    def status(self) -> str:
        return "looping" if self.results else "none found"

    @property
    def errors(self) -> tuple[str, ...]:
        return tuple(c.error for c in self.checks if c.error)


class PropagatedLoop(NamedTuple):
    index: int
    head_query: Query
    via: Query


class PropagationLimitError(ResourceLimitError):
    """A resource limit hit by the propagation pass.  ``found`` holds the
    loops it derived before that."""

    def __init__(self, message: str, found: tuple[PropagatedLoop, ...]):
        super().__init__(message)
        self.found = found


class ProgramReport(NamedTuple):
    """The scans of all clauses and the loops propagation derived from them.
    ``propagation_error`` is the resource limit that stopped propagation,
    whose loops are then those found before it."""

    reports: tuple[ClauseReport, ...]
    propagated: tuple[PropagatedLoop, ...] = ()
    propagation_error: Optional[str] = None

    @property
    def had_error(self) -> bool:
        """Whether some subset or the propagation pass hit a resource limit,
        or some witness failed engine validation (the CLI then exits with
        3)."""
        return (any(r.errors for r in self.reports)
                or self.propagation_error is not None)


def candidate_filter(rule: Clause, positions: frozenset[int]) -> Filter:
    """The projection filter for a recursive rule and a head position subset:
    the condition query keeps the selected head variables and projects the
    rule constraint onto them, derived from the condition of the parent
    subset (see `neutral.projection`).  The condition is satisfiable, as a
    filter condition must be, because the rule constraint is."""
    if not rule.is_recursive():
        raise ValueError("candidate filters are defined for recursive rules only")
    pred = rule.head_pred
    selected = select_positions(rule.head_vars, positions)
    condition = Query(atom_of_vars(projected_pred(pred, positions), selected),
                      projection(rule, frozenset(positions), None))
    return Filter(positions, condition)


def make_witness(filt: Filter, rule: Clause) -> Query:
    """A concrete looping query for a passing filter: constants sampled from
    the condition constraint at the filtered positions (whose atom is over
    the head variables there), head variables kept elsewhere, and as store
    the rule constraint projected onto the kept variables, which is the
    candidate condition at the complement positions (taken from the same
    lattice as the filters, see `neutral.projection`).

    The witness is delta-more-general than the rule's head query by
    construction, so it loops as the head query does: over the kept
    positions its denotation is proj(c, X_kept), the head query's own
    denotation there, and its constants at the filtered positions satisfy
    cond(tau), from which they were sampled.  So no generality check is
    made here; a property test checks it on the corpus and on generated
    rules."""
    tau, condition = filt
    values = linarith.sample_solution(condition.constraint, condition.atom.variables)
    if values is None:
        raise AssertionError("filter condition constraints are satisfiable by construction")
    kept = positions(rule.head_pred.arity) - tau
    args = tuple(LinTerm.of_const(values[v]) if i in tau else LinTerm.of_var(v)
                 for i, v in enumerate(rule.head_vars, start=1))
    return Query(Atom(rule.head_pred, args), projection(rule, kept, None))


def class_closure(passing: set[frozenset[int]]) -> frozenset[frozenset[int]]:
    """Downward closure under inclusion of the passing position subsets.
    The sets are visited largest first, so a set that lies inside one
    visited before is already in the closure with all its subsets."""
    out: set[frozenset[int]] = set()
    for m in sorted(passing, key=len, reverse=True):
        if m in out:
            continue
        for size in range(len(m) + 1):
            out.update(frozenset(sub) for sub in itertools.combinations(sorted(m), size))
    return frozenset(out)


def find_looping_queries(rule: Clause, index: int = 0,
                         opts: AnalyzeOptions = AnalyzeOptions()) -> ClauseReport:
    """Scan position subsets in decreasing cardinality (lexicographic within a
    cardinality) and collect every passing filter with a verified witness.
    Non-recursive rules yield an empty report.  Resource-limit errors and
    witnesses that fail engine validation are recorded as the subset's
    error, and the scan continues.  It runs under the ceiling of conjuncts
    that `linarith` has in force, as every building block does."""
    if not rule.is_recursive():
        return ClauseReport(index=index, clause=rule)
    arity = rule.head_pred.arity
    full = positions(arity)
    to_body = dict(zip(rule.head_vars, rule.body_vars))
    head, body = rule.head_query, rule.body_query
    checks: list[SubsetCheck] = []
    results: list[FilterResult] = []
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(1, arity + 1), size) for size in range(arity, -1, -1))
    for combo in subsets:
        m = frozenset(combo)
        try:
            cond = projection(rule, m, None)
            head_ok = linarith.decide(neutrality_head_formula(rule, m, m, cond))
            body_ok = subsumes = None
            if head_ok:
                body_ok = linarith.decide(neutrality_body_formula(
                    rule, m, cond.rename(to_body)))
                if body_ok:  # the filter half of delta_more_general
                    subsumes = more_general(body, head, full - m)
            error = None
            if subsumes:  # all three checks held
                filt = candidate_filter(rule, m)
                witness = make_witness(filt, rule)
                verified = 0
                if opts.verify_steps > 0:
                    verified = run(witness, Program((rule,)), opts.verify_steps).steps
                if verified < opts.verify_steps:
                    # the criterion is sound, so this is an implementation fault
                    error = (f"witness {witness} failed engine validation after "
                             f"{verified} of {opts.verify_steps} steps")
        except ResourceLimitError as err:
            checks.append(SubsetCheck(m, error=str(err)))
            continue
        checks.append(SubsetCheck(m, head_ok, body_ok, subsumes, error))
        if not subsumes or error:
            continue
        results.append(FilterResult(m, filt.condition, witness, verified))
        if opts.first_only:
            break
    classes = class_closure({r.positions for r in results})
    return ClauseReport(index=index, clause=rule, results=tuple(results),
                        checks=tuple(checks), classes=classes)


def looping_facts(reports: tuple[ClauseReport, ...],
                  propagated: tuple[PropagatedLoop, ...] = ()) -> dict[Pred, list[Query]]:
    """The queries proved looping, per predicate in order of discovery: each
    looping rule's head query and then its witnesses not listed yet, then
    the head queries of the propagated loops.  Propagation starts from the
    first two, and `proof_for` cites all three."""
    facts: dict[Pred, list[Query]] = {}
    listed: set[Query] = set()  # the queries in facts, for hash lookups
    for r in reports:
        if r.results:
            known = facts.setdefault(r.clause.head_pred, [])
            known.append(r.clause.head_query)
            listed.add(r.clause.head_query)
            for res in r.results:
                if res.witness not in listed:
                    listed.add(res.witness)
                    known.append(res.witness)
    for p in propagated:
        facts.setdefault(p.head_query.pred, []).append(p.head_query)
    return facts


def proof_for(query: Query, report: ProgramReport) -> Optional[tuple[str, str]]:
    """A (kind, fact) pair proving the query loops, or None.

    kind 'more general than' cites a query of `looping_facts`; kind
    'filter-more-general than' cites a looping head query, under a passing
    filter of its clause, that the query is delta-more-general than.  It
    runs under the ceiling of conjuncts that `linarith` has in force.
    """
    for fact in looping_facts(report.reports, report.propagated).get(query.pred, ()):
        if more_general(query, fact):
            return ("more general than", str(fact))
    for r in report.reports:
        head = r.clause.head_query
        if head.pred != query.pred:
            continue
        for res in r.results:
            if delta_more_general(query, head, Filter(res.positions, res.delta)):
                return ("filter-more-general than",
                        f"{head} under tau {positions_str(res.positions)}")
    return None


def propagate(program: Program,
              reports: tuple[ClauseReport, ...]) -> tuple[PropagatedLoop, ...]:
    """Close looping facts under the rules: whenever a rule's body query is
    more general than a known looping query, its head query loops too.  The
    facts start from `looping_facts`; the pass runs to a fixpoint (at most
    one new head query per rule).

    The result (loops, order and ``via`` facts) is that of rounds over the
    underived rules in program order, each rule tested against every known
    fact of its body predicate in order of discovery.  The pass visits only
    the rules whose body predicate gained a fact, from a priority queue
    keyed by (round, program index), whose order is the round order.  It
    starts with (0, i) for each rule i whose body predicate has an initial
    fact.  When rule ``index``, popped in round r, derives its head query,
    each underived rule i reading that predicate and not queued yet is
    queued as (r + (i < index), i): round r still reaches a rule after
    ``index``, and a rule before it waits for round r + 1.  A queued rule
    never needs an earlier key: each subsequent event of round r comes from
    a larger index, so it would queue the rule in the same round or after.
    Each rule keeps a cursor into the facts of its body predicate and a
    visit tests only the facts past it; since ``more_general`` is pure, a
    fact before the cursor stays refuted, so the first match past the
    cursor is the first match of a full rescan, and each (rule, fact) pair
    is tested at most once.

    A ``ResourceLimitError`` ends the pass with a
    :class:`PropagationLimitError` holding the loops found before it."""
    facts = looping_facts(reports)
    derived = {r.index for r in reports if r.results}
    readers: dict[Pred, list[int]] = {}  # body predicate -> underived rules
    for index, rule in enumerate(program.clauses):
        if index not in derived:
            readers.setdefault(rule.body_pred, []).append(index)
    queue = [(0, i) for pred in facts for i in readers.get(pred, ())]
    heapq.heapify(queue)
    queued = {i for _, i in queue}
    cursor = [0] * len(program.clauses)
    out: list[PropagatedLoop] = []
    while queue:
        turn, index = heapq.heappop(queue)
        queued.remove(index)
        rule = program.clauses[index]
        known = facts[rule.body_pred]
        start, cursor[index] = cursor[index], len(known)
        for fact in known[start:]:
            try:
                found = more_general(rule.body_query, fact)
            except ResourceLimitError as err:
                raise PropagationLimitError(str(err), tuple(out)) from err
            if found:
                derived.add(index)
                facts.setdefault(rule.head_pred, []).append(rule.head_query)
                out.append(PropagatedLoop(index, rule.head_query, via=fact))
                for i in readers.get(rule.head_pred, ()):
                    if i not in derived and i not in queued:
                        queued.add(i)
                        heapq.heappush(queue, (turn + (i < index), i))
                break
    return tuple(out)


def analyze_program(program: Program,
                    opts: AnalyzeOptions = AnalyzeOptions()) -> ProgramReport:
    """Scan every clause and propagate, under the ceiling of conjuncts that
    `linarith` has in force (its innermost scope, or the default)."""
    reports = tuple(
        find_looping_queries(rule, index, opts)
        for index, rule in enumerate(program.clauses)
    )
    propagated: tuple[PropagatedLoop, ...] = ()
    error = None
    if opts.propagate:
        try:
            propagated = propagate(program, reports)
        except PropagationLimitError as err:
            propagated, error = err.found, str(err)
    return ProgramReport(reports, propagated, error)
