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
too.  The head-query fallback of `make_witness` has no such constants; the
tests run every corpus class query on the engine.  A separate
propagation pass extends looping facts through non-recursive rules: if a
rule's body query is more general than a known looping query, its head query
loops as well.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from . import linarith
from .engine import run
from .filters import (
    Filter,
    delta_more_general,
    more_general,
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
    max_dnf: int = linarith.DEFAULT_DNF_LIMIT
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


def candidate_filter(rule: Clause, positions: frozenset[int],
                     limit: int = linarith.DEFAULT_DNF_LIMIT) -> Filter:
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
                      projection(rule, frozenset(positions), None, limit))
    return Filter(positions, condition)


def make_witness(filt: Filter, rule: Clause,
                 limit: int = linarith.DEFAULT_DNF_LIMIT) -> Query:
    """A concrete looping query for a passing filter: constants sampled from
    the condition constraint at the filtered positions (whose atom is over
    the head variables there), head variables kept elsewhere, and as store
    the rule constraint projected onto the kept variables, which is the
    candidate condition at the complement positions (taken from the same
    lattice as the filters, see `neutral.projection`).  Falls back to the
    rule's head query (itself proved looping) if the generality check for
    the constructed candidate does not go through."""
    tau, condition = filt
    values = linarith.sample_solution(
        condition.constraint, variables=condition.atom.variables, limit=limit
    )
    if values is None:
        raise AssertionError("filter condition constraints are satisfiable by construction")
    kept = frozenset(range(1, rule.head_pred.arity + 1)) - tau
    args = tuple(LinTerm.of_const(values[v]) if i in tau else LinTerm.of_var(v)
                 for i, v in enumerate(rule.head_vars, start=1))
    head = rule.head_query
    candidate = Query(Atom(rule.head_pred, args), projection(rule, kept, None, limit))
    if candidate == head:
        candidate = head  # its denotation is cached
    if delta_more_general(candidate, head, filt, limit):
        return candidate
    return head


def class_closure(passing: set[frozenset[int]]) -> frozenset[frozenset[int]]:
    """Downward closure under inclusion of the passing position subsets."""
    out: set[frozenset[int]] = set()
    for m in passing:
        for size in range(len(m) + 1):
            out.update(frozenset(sub) for sub in itertools.combinations(sorted(m), size))
    return frozenset(out)


def find_looping_queries(rule: Clause, index: int = 0,
                         opts: AnalyzeOptions = AnalyzeOptions()) -> ClauseReport:
    """Scan position subsets in decreasing cardinality (lexicographic within a
    cardinality) and collect every passing filter with a verified witness.
    Non-recursive rules yield an empty report.  Resource-limit errors and
    witnesses that fail engine validation are recorded as the subset's
    error, and the scan continues."""
    if not rule.is_recursive():
        return ClauseReport(index=index, clause=rule)
    arity = rule.head_pred.arity
    full = frozenset(range(1, arity + 1))
    to_body = dict(zip(rule.head_vars, rule.body_vars))
    head, body = rule.head_query, rule.body_query
    checks: list[SubsetCheck] = []
    results: list[FilterResult] = []
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(1, arity + 1), size) for size in range(arity, -1, -1))
    for combo in subsets:
        m = frozenset(combo)
        try:
            cond = projection(rule, m, None, opts.max_dnf)
            head_ok = linarith.decide(
                neutrality_head_formula(rule, m, m, cond, opts.max_dnf), opts.max_dnf)
            body_ok = subsumes = None
            if head_ok:
                body_ok = linarith.decide(neutrality_body_formula(
                    rule, m, cond.rename(to_body)), opts.max_dnf)
                if body_ok:  # the filter half of delta_more_general
                    subsumes = more_general(body, head, opts.max_dnf, full - m)
            check = SubsetCheck(m, head_ok, body_ok, subsumes)
            if check.passed:
                filt = candidate_filter(rule, m, opts.max_dnf)
                witness = make_witness(filt, rule, opts.max_dnf)
                verified = 0
                if opts.verify_steps > 0:
                    verified = run(witness, Program((rule,)), opts.verify_steps,
                                   limit=opts.max_dnf).steps
        except ResourceLimitError as err:
            checks.append(SubsetCheck(m, error=str(err)))
            continue
        if check.passed and verified < opts.verify_steps:
            # the criterion is sound, so this is an implementation fault
            check = SubsetCheck(m, head_ok, body_ok, subsumes, error=(
                f"witness {witness} failed engine validation after "
                f"{verified} of {opts.verify_steps} steps"))
        checks.append(check)
        if not check.passed:
            continue
        results.append(FilterResult(m, filt.condition, witness, verified))
        if opts.first_only:
            break
    classes = class_closure({r.positions for r in results})
    return ClauseReport(index=index, clause=rule, results=tuple(results),
                        checks=tuple(checks), classes=classes)


def propagate(program: Program, reports: tuple[ClauseReport, ...],
              limit: int = linarith.DEFAULT_DNF_LIMIT) -> tuple[PropagatedLoop, ...]:
    """Close looping facts under the rules: whenever a rule's body query is
    more general than a known looping query, its head query loops too.  Known
    facts start from the head queries and verified witnesses of directly
    looping rules; the pass iterates to a fixpoint (at most one new head query
    per rule).

    The fixpoint is semi-naive and driven by new facts.  Facts are kept per
    predicate in order of discovery, each rule keeps a cursor into the list
    of its body predicate, and the underived rules are indexed by body
    predicate once.  The pass runs in sweeps over a worklist: the first
    sweep holds every rule whose body predicate has an initial fact, and a
    rule whose body predicate gains a fact becomes pending, in the current
    sweep if it comes later in program order than the rule that added the
    fact and in the next sweep otherwise.  A sweep visits its pending rules
    in program order and tests each only against the facts past its cursor,
    then moves the cursor to the end; the pass ends with an empty sweep.
    These are exactly the visits of rounds over all underived rules in
    program order that skip a rule with no new facts, so the result (loops,
    order and ``via`` facts) is theirs, at a cost that follows the (rule, new
    fact) pairs rather than rounds times rules.  ``more_general`` is pure,
    so a fact before the cursor was already refuted for that rule and stays
    refuted.  The first match past the cursor is therefore the first match a
    full rescan of all known facts finds, and the result equals the naive
    rescan's, with each (rule, fact) pair tested at most once.

    Every generality test runs under ``limit``; a ``ResourceLimitError``
    ends the pass with a :class:`PropagationLimitError` holding the loops
    found before it."""
    facts: dict[Pred, list[Query]] = {}
    have_head: set[int] = set()
    for r in reports:
        if r.results:
            have_head.add(r.index)
            known = facts.setdefault(r.clause.head_pred, [])
            known.append(r.clause.head_query)
            for res in r.results:
                if res.witness not in known:
                    known.append(res.witness)
    readers: dict[Pred, list[int]] = {}  # body predicate -> underived rules
    for index, rule in enumerate(program.clauses):
        if index not in have_head:
            readers.setdefault(rule.body_pred, []).append(index)
    cursor = [0] * len(program.clauses)
    out: list[PropagatedLoop] = []
    # the rules still to visit in this sweep, the next one last; a visit
    # that adds some sorts it again
    sweep = sorted((i for pred in facts for i in readers.get(pred, ())), reverse=True)
    while sweep:
        pending, later = set(sweep), set()
        while sweep:
            index = sweep.pop()
            rule = program.clauses[index]
            if index in have_head:
                continue
            known = facts.get(rule.body_pred, [])
            start = cursor[index]
            cursor[index] = len(known)
            for fact in known[start:]:
                try:
                    found = more_general(rule.body_query, fact, limit)
                except ResourceLimitError as err:
                    raise PropagationLimitError(str(err), tuple(out)) from err
                if found:
                    head_q = rule.head_query
                    facts.setdefault(rule.head_pred, []).append(head_q)
                    have_head.add(index)
                    out.append(PropagatedLoop(index, head_q, via=fact))
                    for i in readers.get(rule.head_pred, ()):
                        if i < index:
                            later.add(i)
                        elif i > index and i not in pending:
                            pending.add(i)
                            sweep.append(i)
                    sweep.sort(reverse=True)
                    break
        sweep = sorted(later, reverse=True)
    return tuple(out)


def analyze_program(program: Program,
                    opts: AnalyzeOptions = AnalyzeOptions()) -> ProgramReport:
    reports = tuple(
        find_looping_queries(rule, index, opts)
        for index, rule in enumerate(program.clauses)
    )
    propagated: tuple[PropagatedLoop, ...] = ()
    error = None
    if opts.propagate:
        try:
            propagated = propagate(program, reports, opts.max_dnf)
        except PropagationLimitError as err:
            propagated, error = err.found, str(err)
    return ProgramReport(reports, propagated, error)
