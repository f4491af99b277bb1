"""Seeded random generators shared by the property and acceptance suites.

Everything takes an explicit random.Random so each suite is reproducible.
Scales are kept small on purpose: arity at most 2 (3 for drifting rules, 5
for ``rand_wide_rule``), a handful of atoms, coefficients in a narrow
integer band.  Generators that must deliver a well-formed value
(satisfiable rule constraint, satisfiable filter condition) retry instead
of returning a broken one.
``every_step_run`` is the reference the engine's variant and affine
shortcuts are tested against, ``textbook_step`` the reference for the
meaning of one derivation step, and ``renaming_step`` the reference for the
atoms the engine's compiled step builds.  ``rename_apart``,
``variables_of`` and ``max_gen`` over any objects serve those references.
``membership``, ``renaming_more_general``,
``renaming_head_formula`` and ``renaming_body_formula`` build the three
entailments as they were built before query denotations: by renaming apart,
with nothing projected before ``decide``; the property tests compare the
analyzer's builders against them.  ``project_query``,
``projected_satisfies`` and ``projected_delta_more_general`` decide filter
satisfaction and δ-generality as they were decided before each question
became one entailment on the whole query's denotation: on queries kept at
some argument positions, each with a denotation of its own.
``equation_denotation`` computes a query's denotation by its definition,
from the equations ``W = t``, for every query; the property tests compare
``filters.denotation``, which projects the store alone when the arguments
are distinct variables, against it.  ``direct_condition`` projects the rule
constraint onto a head position subset in one step, the reference for the
analyzer's candidate conditions, which each project their parent subset's
condition; ``direct_sides`` likewise projects the rule constraint onto the
head condition's two sides, the reference for the neutrality builder's
lattice of sides.  ``rand_wide_rule`` draws rules wide enough for the
lattices and the references to eliminate in different orders.
``reference_decide`` decides an entailment by eliminating every variable
of each refutation, the reference for ``decide``'s early stop on a left
side recorded satisfiable.  ``reference_step`` makes one Fourier-Motzkin
step (``step_list``) and simplifies the whole result, the reference for the
indexed elimination store's step, which simplifies only the slopes its new
atoms reach.  It simplifies by ``reference_simplify``, a pass of its own
and the reference for ``_simplify_conj``, which merges into a store; and
``reference_sample`` samples a solution by projecting the whole
conjunction onto each variable in turn, the reference for
``sample_solution``'s one chain of projections.  ``benchmark_text``
reads a benchmark workload's rule file (``perfbench/workloads.py``) for
the checks that replay it.
``reference_propagate`` is the propagation pass as rounds over every
underived rule in program order, the reference for ``analyzer.propagate``'s
worklist; ``rand_propagation_program`` draws the programs they are compared
on.
A ``Filter`` is one predicate's positions and condition, so a rule's
head and body predicates each have a filter, one and the same for a
recursive rule.  ``filter_head_formula`` and ``filter_body_formula`` build
the neutrality entailments for hand-built filters, whose conditions the
builders in ``clploop.neutral`` take as constraints over the rule's
variables: each condition's denotation renamed to the filtered variables.
``make_filter`` checks a condition, or builds the unconstrained one;
``rand_filter`` draws a filter for one predicate and
``rand_condition_filter`` one for each predicate of a rule.
``is_true``, ``local_vars``, ``rename_term`` and ``atom`` (one comparison
read by the parser, e.g. ``atom("2*X + 2*Y <= 1")``) are small
constructors and accessors only the tests use.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Optional

from clploop.analyzer import ClauseReport, PropagatedLoop, PropagationLimitError
from clploop.engine import derivation_step
from clploop.filters import (
    Filter,
    condition_denotation,
    more_general,
    probes,
    projected_pred,
    select_positions,
)
from clploop.linarith import (
    DEFAULT_DNF_LIMIT,
    Entailment,
    ResourceLimitError,
    _combine,
    _Store,
    _negate_atom,
    _pick_value,
    project,
    satisfiable,
)
from clploop.neutral import neutrality_body_formula, neutrality_head_formula
from clploop.syntax import (
    REL_EQ,
    REL_LT,
    Atom,
    AtomicProp,
    Clause,
    Constraint,
    LinTerm,
    ParseError,
    Pred,
    Program,
    Query,
    Var,
    atom_of_vars,
    compare,
    normalize_clause,
    parse_program,
    parse_query,
    _atom,
    var_eq,
)

RELS = ("=", "<=", "<", ">=", ">")


def is_true(c: Constraint) -> bool:
    """Whether a constraint is the empty conjunction."""
    return not c.atoms


def local_vars(rule: Clause) -> frozenset[Var]:
    """Constraint variables that occur in neither argument tuple."""
    return rule.constraint.variables - set(rule.head_vars) - set(rule.body_vars)


def make_filter(pred: Pred, positions: Iterable[int],
                condition: Optional[Query] = None) -> Filter:
    """A filter for pred with its condition checked: it must be over the
    projected predicate and have a satisfiable constraint, else ValueError.
    Without a condition, the unconstrained query ``p|{..}(X1, .., Xk)``."""
    ps = frozenset(positions)
    expected = projected_pred(pred, ps)
    if condition is None:
        fresh = tuple(Var(f"X{i}") for i in range(1, len(ps) + 1))
        condition = Query(atom_of_vars(expected, fresh), Constraint(()))
    if condition.pred != expected:
        raise ValueError(
            f"condition for {pred} must be over {expected}, got {condition.pred}")
    if not satisfiable(condition.constraint):
        raise ValueError(f"condition for {pred} is unsatisfiable: {condition}")
    return Filter(ps, condition)


def filter_head_formula(head: Filter, body: Filter, rule: Clause,
                        limit: int = DEFAULT_DNF_LIMIT) -> Entailment:
    """The head condition of the filters of a rule's head and body
    predicates (one filter twice for a recursive rule): the head filter's
    condition denotation renamed to the filtered head variables, given to
    the builder."""
    at = select_positions(rule.head_vars, head.positions)
    cond = condition_denotation(head, at, limit)
    return neutrality_head_formula(rule, head.positions, body.positions, cond, limit)


def filter_body_formula(body: Filter, rule: Clause,
                        limit: int = DEFAULT_DNF_LIMIT) -> Entailment:
    """The body condition of the filter of a rule's body predicate: its
    condition denotation renamed to the filtered body variables, given to
    the builder."""
    at = select_positions(rule.body_vars, body.positions)
    return neutrality_body_formula(rule, body.positions, condition_denotation(body, at, limit))


def variables_of(obj) -> frozenset[Var]:
    if isinstance(obj, (LinTerm, AtomicProp, Constraint, Atom, Query, Clause)):
        return obj.variables
    if isinstance(obj, Program):
        out: set[Var] = set()
        for c in obj.clauses:
            out |= c.variables
        return frozenset(out)
    raise TypeError(f"cannot collect variables of {type(obj).__name__}")


def max_gen(*objects) -> int:
    """Largest renaming generation occurring in the given objects (0 if none):
    variables, containers of objects, and anything ``variables_of`` takes.
    A Var is tested first, since it is a tuple itself.  On one query it
    equals ``syntax.max_gen``."""
    best = 0
    for obj in objects:
        if isinstance(obj, Var):
            best = max(best, obj.gen)
        elif isinstance(obj, (set, frozenset, tuple, list)):
            best = max(best, max_gen(*obj))
        else:
            best = max(best, max_gen(*variables_of(obj)))
    return best


def rename_term(t: LinTerm, mapping: Mapping[Var, Var]) -> LinTerm:
    """A term with its variables renamed; variables not in the mapping are
    kept."""
    return LinTerm.make({mapping.get(v, v): c for v, c in t.coeffs}, t.const)


def atom(text: str) -> AtomicProp:
    """The atom of one comparison in source syntax, e.g.
    ``atom("2*X + 2*Y <= 1")``, read by the parser."""
    (a,) = parse_query(f"p : {text}").constraint.atoms
    return a


def rename_apart(obj, gen: int):
    """Return a variant of ``obj`` with every variable re-indexed at or above
    ``gen``.  Distinct generations in the input stay distinct (the i-th
    generation present maps to gen + i), so objects whose variables all have
    generation 0 are re-indexed to exactly ``gen``.  Callers pick ``gen``
    strictly greater than any generation in the objects the variant must be
    disjoint from; there is no hidden global counter."""
    vs = variables_of(obj)
    gens = sorted({v.gen for v in vs})
    shift = {g: gen + i for i, g in enumerate(gens)}
    mapping = {v: Var(v.name, shift[v.gen]) for v in vs}
    if isinstance(obj, LinTerm):
        return rename_term(obj, mapping)
    if isinstance(obj, (AtomicProp, Constraint)):
        return obj.rename(mapping)
    if isinstance(obj, Atom):
        return Atom(obj.pred, tuple(rename_term(t, mapping) for t in obj.args))
    if isinstance(obj, Query):
        return Query(
            Atom(obj.atom.pred, tuple(rename_term(t, mapping) for t in obj.atom.args)),
            obj.constraint.rename(mapping),
        )
    if isinstance(obj, Clause):
        return Clause(
            obj.head_pred,
            tuple(mapping[v] for v in obj.head_vars),
            obj.constraint.rename(mapping),
            obj.body_pred,
            tuple(mapping[v] for v in obj.body_vars),
            text=obj.text,
        )
    raise TypeError(f"cannot rename {type(obj).__name__}")


def rand_term(rng: random.Random, variables, max_vars: int = 2, span: int = 4) -> LinTerm:
    picks = list(variables)
    rng.shuffle(picks)
    coeffs = {}
    for v in picks[: rng.randint(0, min(max_vars, len(picks)))]:
        c = rng.randint(-span, span)
        if c:
            coeffs[v] = Fraction(c)
    return LinTerm.make(coeffs, Fraction(rng.randint(-span, span)))


def rand_atom(rng: random.Random, variables, span: int = 4):
    lhs = rand_term(rng, variables, span=span)
    rhs = rand_term(rng, variables, span=span)
    return compare(lhs, rng.choice(RELS), rhs)


def rand_constraint(rng: random.Random, variables, max_atoms: int = 3) -> Constraint:
    n = rng.randint(0, max_atoms)
    return Constraint(tuple(rand_atom(rng, variables) for _ in range(n)))


def rand_rule(rng: random.Random, arity: int | None = None, name: str = "p"):
    """Random recursive rule with a satisfiable constraint."""
    n = arity if arity is not None else rng.randint(1, 2)
    pred = Pred(name, n)
    head_vars = tuple(Var(f"A{i}") for i in range(1, n + 1))
    body_vars = tuple(Var(f"B{i}") for i in range(1, n + 1))
    locals_ = tuple(Var(f"L{i}") for i in range(1, rng.randint(0, 1) + 1))
    pool = head_vars + body_vars + locals_
    while True:
        c = rand_constraint(rng, pool)
        try:
            return normalize_clause(atom_of_vars(pred, head_vars), c,
                                    atom_of_vars(pred, body_vars))
        except ParseError:
            continue


def rand_wide_rule(rng: random.Random, name: str = "p") -> Clause:
    """Random recursive rule of arity 2-5 with 3-9 atoms over its head, body
    and 0-2 local variables, and a satisfiable constraint: wide enough that
    projecting onto a head position subset directly and through its
    supersets eliminate variables in different orders."""
    n = rng.randint(2, 5)
    pred = Pred(name, n)
    head_vars = tuple(Var(f"A{i}") for i in range(1, n + 1))
    body_vars = tuple(Var(f"B{i}") for i in range(1, n + 1))
    locals_ = tuple(Var(f"L{i}") for i in range(1, rng.randint(0, 2) + 1))
    pool = head_vars + body_vars + locals_
    while True:
        c = Constraint(tuple(rand_atom(rng, pool) for _ in range(rng.randint(3, 9))))
        try:
            return normalize_clause(atom_of_vars(pred, head_vars), c,
                                    atom_of_vars(pred, body_vars))
        except ParseError:
            continue


def rand_drift_rule(rng: random.Random, arity: int | None = None,
                    name: str = "p", body_name: str | None = None) -> Clause:
    """Random rule ``p(X1..Xn) <- guards, Y1 = a1*X1 + k1, .. <> p(Y1..Yn)``
    whose store drifts along a run: each Yi is Xi moved by a translation
    (``Y = X + k``) or a scaling (``Y = a*X + k``, a in {2, -1, 3}), or left
    free, and guards such as ``X >= 0``, ``X < 10`` or ``X <= 50`` may end the
    drift.  With ``body_name`` the rule is an exit ``p(X1..Xn) <- Xi >= k <>
    q(Y1..Yn)`` (or ``<=``) to that predicate instead, for the first rule of
    a two-rule program: a drifting run may cross its bound after some steps."""
    n = arity if arity is not None else rng.randint(1, 3)
    head = tuple(Var(f"A{i}") for i in range(1, n + 1))
    body = tuple(Var(f"B{i}") for i in range(1, n + 1))
    if body_name is not None:
        atoms = [compare(LinTerm.of_var(rng.choice(head)), rng.choice((">=", "<=")),
                         LinTerm.of_const(rng.randint(-6, 6)))]
        return normalize_clause(atom_of_vars(Pred(name, n), head), Constraint(tuple(atoms)),
                                atom_of_vars(Pred(body_name, n), body))
    atoms = []
    for x, y in zip(head, body):
        kind = rng.random()
        if kind < 0.85:
            a = 1 if kind < 0.45 else rng.choice((2, -1, 3))
            atoms.append(compare(LinTerm.of_var(y), "=", LinTerm.make(
                {x: Fraction(a)}, Fraction(rng.randint(-3, 3)))))
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        x = rng.choice(head)
        rel, bound = rng.choice(((">=", 0), ("<", 10), ("<=", 50), (">=", -5)))
        atoms.append(compare(LinTerm.of_var(x), rel, LinTerm.of_const(bound)))
    rng.shuffle(atoms)
    return normalize_clause(atom_of_vars(Pred(name, n), head), Constraint(tuple(atoms)),
                            atom_of_vars(Pred(name, n), body))


def rand_query(rng: random.Random, pred: Pred, max_atoms: int = 2) -> Query:
    """Random query over the given predicate; the constraint may be
    unsatisfiable (the empty denotation is a case worth covering)."""
    arg_vars = tuple(Var(f"Q{i}") for i in range(1, pred.arity + 1))
    args = tuple(
        LinTerm.of_var(v) if rng.random() < 0.6
        else LinTerm.of_const(rng.randint(-3, 3))
        for v in arg_vars
    )
    pool = arg_vars + (Var("Q0"),)
    return Query(Atom(pred, args), rand_constraint(rng, pool, max_atoms))


def rand_step_rule(rng: random.Random, head_pred: Pred | None = None,
                   body_pred: Pred | None = None) -> Clause:
    """Random rule p(..) <- c <> q(..) (or over the given predicates) with
    head and body arities from 0 to 2, possibly a local variable, and its
    variables spread over several generations, some sharing a name (such as
    ``U#2`` beside ``U``), so the rule's generations are not all 0."""
    head_pred = head_pred or Pred("p", rng.randint(0, 2))
    body_pred = body_pred or Pred("q", rng.randint(0, 2))
    head = tuple(Var(f"A{i}") for i in range(1, head_pred.arity + 1))
    body = tuple(Var(f"B{i}") for i in range(1, body_pred.arity + 1))
    locals_ = tuple(Var(f"L{i}") for i in range(1, rng.randint(0, 1) + 1))
    pool = head + body + locals_
    while True:
        c = rand_constraint(rng, pool, max_atoms=4)
        try:
            rule = normalize_clause(atom_of_vars(head_pred, head), c,
                                    atom_of_vars(body_pred, body))
            break
        except ParseError:
            continue
    names = [(n, g) for n in "UVW" for g in (0, 2, 3, 7)]
    mapping = {v: Var(*ng) for v, ng in zip(sorted(rule.variables),
                                            rng.sample(names, len(rule.variables)))}
    return Clause(rule.head_pred, tuple(mapping[v] for v in rule.head_vars),
                  rule.constraint.rename(mapping), rule.body_pred,
                  tuple(mapping[v] for v in rule.body_vars))


def rand_rational_query(rng: random.Random, pred: Pred) -> Query:
    """Random query whose arguments mix variables (often repeated, as in
    ``p(X, X)``), linear terms with rational coefficients and constants
    (``2*X + 1/3``) and rational constants; its variables may carry a
    generation."""
    pool = tuple(Var(f"Q{i}", rng.choice((0, 0, 1, 4))) for i in range(2))

    def rational() -> Fraction:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    def arg() -> LinTerm:
        kind = rng.randrange(3)
        if kind == 0:
            return LinTerm.of_var(rng.choice(pool))
        if kind == 1:
            return LinTerm.make({v: rational() for v in pool if rng.random() < 0.6},
                                rational())
        return LinTerm.of_const(rational())

    return Query(Atom(pred, tuple(arg() for _ in range(pred.arity))),
                 rand_constraint(rng, pool, 2))


def rand_linear_query(rng: random.Random, pred: Pred, max_atoms: int = 2) -> Query:
    """Random query whose arguments are linear terms with coefficients, such
    as ``2*Q1 - 1``, possibly sharing variables between positions."""
    pool = tuple(Var(f"Q{i}") for i in range(pred.arity + 1))
    args = tuple(rand_term(rng, pool, span=3) for _ in range(pred.arity))
    return Query(Atom(pred, args), rand_constraint(rng, pool, max_atoms))


def relax(rng: random.Random, q: Query) -> Query:
    """A query more general than q by construction: drop conjuncts, swap an
    argument for a fresh variable, or take a variant (same denotation)."""
    kind = rng.randrange(3)
    if kind == 0:
        kept = tuple(a for a in q.constraint.atoms if rng.random() < 0.6)
        return Query(q.atom, Constraint(kept))
    if kind == 1 and q.atom.args:
        i = rng.randrange(len(q.atom.args))
        fresh = Var(f"G{i + 1}", max_gen(q) + 1)
        args = tuple(LinTerm.of_var(fresh) if j == i else t
                     for j, t in enumerate(q.atom.args))
        return Query(Atom(q.atom.pred, args), q.constraint)
    return rename_apart(q, 1 + max_gen(q))


def rand_positions(rng: random.Random, arity: int) -> frozenset[int]:
    return frozenset(i for i in range(1, arity + 1) if rng.random() < 0.5)


def rand_filter(rng: random.Random, pred: Pred,
                positions: frozenset[int] | None = None) -> Filter:
    """Random filter for one predicate with a satisfiable condition."""
    ps = positions if positions is not None else rand_positions(rng, pred.arity)
    cvars = tuple(Var(f"C{i}") for i in range(1, len(ps) + 1))
    while True:
        atoms = (tuple(rand_atom(rng, cvars)
                       for _ in range(rng.randint(0, 2))) if cvars else ())
        cond = Query(
            Atom(projected_pred(pred, ps), tuple(LinTerm.of_var(v) for v in cvars)),
            Constraint(atoms),
        )
        try:
            return make_filter(pred, ps, cond)
        except ValueError:
            continue


def textbook_step(q: Query, rule: Clause, generation: int, *,
                  limit: int = DEFAULT_DNF_LIMIT) -> Optional[Query]:
    """The derivation step as the paper defines it: from <p(u) | d> with the
    fresh variant p(s) <- c' <> q(t), the successor <q(t) | s = u, c', d>
    when that store is satisfiable, else None.  No substitution and no
    projection: the whole store is kept and checked."""
    fresh = rename_apart(rule, generation)
    equations = tuple(compare(LinTerm.of_var(s), "=", u)
                      for s, u in zip(fresh.head_vars, q.atom.args))
    store = Constraint(equations).conjoin(fresh.constraint).conjoin(q.constraint)
    if not satisfiable(store, limit):
        return None
    return Query(fresh.body_atom, store)


def renaming_step(q: Query, rule: Clause, generation: int, *,
                  limit: int = DEFAULT_DNF_LIMIT) -> Optional[Query]:
    """The engine's derivation step built from the general operations: the
    fresh variant ``rename_apart(rule, generation)``, each of its atoms with
    the query arguments substituted for the head variables
    (``AtomicProp.substitute``, which canonicalizes the rational result),
    the query store conjoined, and the projection onto the body variables
    kept when it is satisfiable."""
    fresh = rename_apart(rule, generation)
    args = dict(zip(fresh.head_vars, q.atom.args))
    atoms = tuple(a.substitute(args) for a in fresh.constraint) + q.constraint.atoms
    store = project(Constraint(atoms), fresh.body_atom.variables, limit)
    if not satisfiable(store, limit):
        return None
    return Query(fresh.body_atom, store)


def every_step_run(q: Query, program: Program, max_steps: int,
                   step=derivation_step, *,
                   limit: int = DEFAULT_DNF_LIMIT) -> list[tuple[int, Query]]:
    """The (clause index, query) pair of each step of the derivation from q,
    every step executed: leftmost selection over ``step`` (the engine's
    ``derivation_step`` or ``textbook_step``, called with ``limit``) with no
    variant or affine shortcut, stopping at ``max_steps`` or when no rule
    applies."""
    steps: list[tuple[int, Query]] = []
    while len(steps) < max_steps:
        for index, rule in enumerate(program.clauses):
            if rule.head_pred == q.pred:
                successor = step(q, rule, 1 + max_gen(q), limit=limit)
                if successor is not None:
                    break
        else:
            break
        q = successor
        steps.append((index, q))
    return steps


def membership(
    probe: tuple[LinTerm, ...], q: Query, gen: Optional[int] = None
) -> Constraint:
    """Constraint whose solutions, restricted to the variables of ``probe``,
    are exactly the valuations under which the tuple of probe values is
    denoted by q: the equations ``probe = t'`` plus the store of the variant
    of q at generation ``gen``.  ``gen`` must exceed every generation in
    probe and q; when omitted it is chosen that way."""
    if len(probe) != q.pred.arity:
        raise ValueError(f"probe arity {len(probe)} does not match {q.pred}")
    if gen is None:
        gen = 1 + max_gen(q, frozenset().union(*[t.variables for t in probe])
                          if probe else frozenset())
    variant: Query = rename_apart(q, gen)
    equations = tuple(compare(s, "=", t) for s, t in zip(probe, variant.atom.args))
    return Constraint(equations + variant.constraint.atoms)


def _gen_span(q: Query) -> int:
    return len({v.gen for v in q.variables}) or 1


def renaming_more_general(q_gen: Query, q: Query) -> Entailment:
    """Generality of two queries over one predicate:
    ``membership(W, q) |= membership(W, q_gen)`` over fresh probes W, each
    query renamed apart from W and from the other."""
    base = 1 + max_gen(q_gen, q)
    span_q = _gen_span(q)
    probe_gen = base + span_q + _gen_span(q_gen)
    probe_vars = tuple(Var(f"W{i}", probe_gen) for i in range(1, q.pred.arity + 1))
    probe = tuple(LinTerm.of_var(v) for v in probe_vars)
    return Entailment(membership(probe, q, base),
                      membership(probe, q_gen, base + span_q),
                      frozenset(probe_vars))


def _renaming_parts(head: Filter, body: Filter, rule: Clause):
    head_sel = select_positions(rule.head_vars, head.positions)
    body_sel = select_positions(rule.body_vars, body.positions)
    base = 1 + max(max_gen(rule), max_gen(head.condition), max_gen(body.condition))
    return head_sel, body_sel, base


def renaming_head_formula(head: Filter, body: Filter, rule: Clause) -> Entailment:
    """The head condition ``c[H renamed apart], M(H) |= c`` over O and H,
    with R (B plus the locals) existential on each side."""
    head_sel, body_sel, base = _renaming_parts(head, body, rule)
    c = rule.constraint
    probe = tuple(LinTerm.of_var(v) for v in head_sel)
    member = membership(probe, head.condition, base)
    fresh = 1 + max_gen(rule, member)
    apart = c.rename({v: Var(v.name, fresh + v.gen) for v in head_sel})
    rechoose = set(body_sel) | local_vars(rule)
    return Entailment(apart.conjoin(member), c, rule.variables - rechoose)


def renaming_body_formula(head: Filter, body: Filter, rule: Clause) -> Entailment:
    """The body condition ``c |= M(B)`` over B."""
    _, body_sel, base = _renaming_parts(head, body, rule)
    probe = tuple(LinTerm.of_var(v) for v in body_sel)
    member = membership(probe, body.condition, base)
    return Entailment(rule.constraint, member, frozenset(body_sel))


def rand_condition_filter(rng: random.Random, rule: Clause) -> dict[Pred, Filter]:
    """Random filters, one for each of a rule's head and body predicates,
    whose condition queries mix variable arguments (sometimes repeated),
    linear terms with rational coefficients and constants, rational
    constants and local variables, drawn from a pool that holds some of the
    rule's own variables (same name and generation), so conditions share
    names with the rule, and ``W1``, the name of a probe variable at
    generation 0.  A condition is sometimes the unconstrained query that
    ``make_filter`` builds."""
    preds = sorted({rule.head_pred, rule.body_pred}, key=lambda p: p.name)
    shared = sorted(rule.variables)
    while True:
        positions = {p: rand_positions(rng, p.arity) if rng.random() < 0.6
                     else frozenset(range(1, p.arity + 1)) for p in preds}
        pool = rng.sample(shared, min(2, len(shared))) + [Var("W1")]
        rng.shuffle(pool)
        conditions = dict.fromkeys(preds)
        for p in preds:
            if rng.random() < 0.15:
                continue
            pp = projected_pred(p, positions[p])
            cond = rand_rational_query(rng, pp)
            mapping = dict(zip(sorted(cond.variables), pool))
            args = [rename_term(t, mapping) for t in cond.atom.args]
            if len(args) > 1 and rng.random() < 0.25:
                args[0] = args[-1] = LinTerm.of_var(rng.choice(pool))
            conditions[p] = Query(Atom(pp, tuple(args)), cond.constraint.rename(mapping))
        try:
            return {p: make_filter(p, positions[p], conditions[p]) for p in preds}
        except ValueError:
            continue


def project_query(q: Query, positions: frozenset[int]) -> Query:
    """Keep only the argument positions given; the constraint is unchanged
    (dropped argument variables become existential)."""
    return Query(
        Atom(projected_pred(q.pred, positions), select_positions(q.atom.args, positions)),
        q.constraint,
    )


def projected_satisfies(q: Query, filt: Filter) -> bool:
    """q kept at the filtered positions denotes a subset of the filter's
    condition query."""
    return more_general(filt.condition, project_query(q, filt.positions))


def projected_delta_more_general(q_gen: Query, q: Query, filt: Filter) -> bool:
    """``more_general`` on the two queries kept at the unfiltered positions,
    and q_gen satisfies the filter."""
    unfiltered = frozenset(range(1, q.pred.arity + 1)) - filt.positions
    return more_general(
        project_query(q_gen, unfiltered), project_query(q, unfiltered),
    ) and projected_satisfies(q_gen, filt)


def equation_denotation(q: Query, limit: int = DEFAULT_DNF_LIMIT) -> Constraint:
    """den(q) by its definition: ``W = t, d`` projected onto the probes W
    for q = <p(t) | d>."""
    w = probes(q.pred.arity)
    member = tuple(var_eq(v, t) for v, t in zip(w, q.atom.args))
    return project(Constraint(member + q.constraint.atoms), w, limit)


def direct_condition(rule: Clause, positions: frozenset[int],
                     limit: int = DEFAULT_DNF_LIMIT) -> Query:
    """The candidate condition at ``positions`` by its definition: the rule
    constraint projected onto the head variables there in one projection."""
    selected = select_positions(rule.head_vars, positions)
    return Query(atom_of_vars(projected_pred(rule.head_pred, positions), selected),
                 project(rule.constraint, selected, limit))


def direct_sides(rule: Clause, m: frozenset[int],
                 body_m: Optional[frozenset[int]] = None,
                 limit: int = DEFAULT_DNF_LIMIT) -> tuple[Constraint, Constraint]:
    """The head condition's sides ``(rhs, lhs)`` by their definition, each
    one projection of the rule constraint c: ``proj(c, X u Y_-m)`` and
    ``proj(c, X_-m u Y_-m)``, with ``body_m`` (default m) the filtered body
    positions.  The reference for the neutrality builder's lattice of
    sides."""
    body_m = m if body_m is None else body_m
    body = set(rule.body_vars) - set(select_positions(rule.body_vars, body_m))
    head = set(rule.head_vars)
    kept_head = head - set(select_positions(rule.head_vars, m))
    return (project(rule.constraint, head | body, limit),
            project(rule.constraint, kept_head | body, limit))


def reference_decide(e: Entailment, limit: int = DEFAULT_DNF_LIMIT) -> bool:
    """``decide`` without the early stop: both sides projected onto
    ``over`` (a side already over it taken as it is), and for each
    right-hand atom not among the left side's, ``satisfiable`` of the left
    side conjoined with each atom of its negation, which eliminates every
    variable and knows no atom satisfiable."""
    lhs, rhs = (c if c.variables <= e.over else project(c, e.over, limit)
                for c in (e.lhs, e.rhs))
    have = set(lhs.atoms)
    for a in rhs.atoms:
        if a in have:
            continue
        for n in _negate_atom(a):
            if satisfiable(Constraint(lhs.atoms + (n,)), limit):
                return False
    return True


def step_list(atoms: tuple[AtomicProp, ...], x: Var) -> list[AtomicProp]:
    """One Fourier-Motzkin step on x of a simplified conjunction, before
    simplification: with an equality on x (the first), each other atom of x
    replaced in place by its substitution; otherwise the atoms without x
    followed by every lower bound combined with every upper bound, lowers in
    order, each with the uppers in order."""
    eq = next((a for a in atoms if a.rel == "=" and a.coeff(x)), None)
    if eq is not None:
        c = eq.coeff(x)
        return [_combine(abs(c), a, -d if c > 0 else d, eq, x, a.rel) if d else a
                for a, d in ((a, a.coeff(x)) for a in atoms) if a is not eq]
    kept = [a for a in atoms if not a.coeff(x)]
    lowers = [(a, -a.coeff(x)) for a in atoms if a.coeff(x) < 0]
    uppers = [(a, a.coeff(x)) for a in atoms if a.coeff(x) > 0]
    return kept + [_combine(b, up, c, lo, x, "<" if "<" in (lo.rel, up.rel) else "<=")
                   for lo, b in lowers for up, c in uppers]


def reference_step(atoms: tuple[AtomicProp, ...], x: Var) -> Optional[tuple[AtomicProp, ...]]:
    """The step of ``step_list`` simplified as a whole by
    ``reference_simplify``."""
    return reference_simplify(step_list(atoms, x))


def reference_simplify(atoms: Iterable[AtomicProp]) -> Optional[tuple[AtomicProp, ...]]:
    """The simplification as one pass of its own, the reference for
    ``linarith._simplify_conj``, which merges the atoms into an elimination
    store.  Normalize a conjunction: drop ground-true conjuncts, duplicates,
    and inequalities slackened by a tighter bound on the same slope (the growth
    mode of iterated projection, which otherwise accumulates shifted copies of
    one bound); fold inequalities settled by an equality over the same
    variables, and opposite non-strict bounds that meet into one equality.
    Returns None when a conjunct is ground-false or two conjuncts
    contradict outright.  An atom with slope (d, s, g) (see
    :meth:`AtomicProp.slope`) and constant k says ``s*d.x + k/g REL 0``; the
    constants of atoms on one slope are compared by cross-multiplication."""
    eqs: dict[tuple, tuple[int, int, AtomicProp]] = {}  # d -> (k, g, atom)
    ineqs: dict[tuple, list] = {}  # (d, s) -> [k, g, strict, atom]
    order: list[tuple[bool, tuple]] = []
    for a in atoms:
        if not a.coeffs:
            if a.ground_truth():
                continue
            return None
        d, s, g = a.slope()
        k = a.const
        if a.rel == REL_EQ:
            prev = eqs.get(d)
            if prev is not None:
                if prev[0] * g != k * prev[1]:
                    return None
                continue
            eqs[d] = (k, g, a)
            order.append((True, d))
        else:
            strict = a.rel == REL_LT
            key = (d, s)
            cell = ineqs.get(key)
            if cell is None:
                ineqs[key] = [k, g, strict, a]
                order.append((False, key))
            else:
                k0, g0, s0, _ = cell
                # s*d.x <= -k/g (or <): larger k/g is tighter
                if k * g0 > k0 * g or (k * g0 == k0 * g and strict and not s0):
                    cell[:] = k, g, strict, a
    out: list[AtomicProp] = []
    for is_eq, key in order:
        if is_eq:
            out.append(eqs[key][2])
            continue
        k, g, strict, a = ineqs[key]
        if a is None:
            continue  # folded into an equality with its opposite bound
        d, s = key
        pinned = eqs.get(d)
        if pinned is not None:
            # the equality pins d.x to -ke/ge; s*d.x + k/g there, times g*ge
            ke, ge, _ = pinned
            slack = k * ge - s * ke * g
            if slack < 0 or (slack == 0 and not strict):
                continue
            return None
        if not strict:
            bound = ineqs.get((d, -s))
            if (bound is not None and not bound[2]
                    and bound[0] * g == -k * bound[1]):
                # s*d.x <= -k/g and s*d.x >= -k/g
                bound[3] = None
                a = _atom(a.coeffs, k, REL_EQ)
        out.append(a)
    return tuple(out)


def reference_sample(
    c: Constraint, variables: Optional[Iterable[Var]] = None,
    limit: int = DEFAULT_DNF_LIMIT,
) -> Optional[dict[Var, Fraction]]:
    """``linarith.sample_solution`` by projecting the whole conjunction onto
    each variable in name order, then substituting its value, the reference
    for sampling back along one chain of projections.  A deterministic
    solution of a constraint, or None when unsatisfiable.
    ``variables`` may extend the domain of the returned valuation;
    unconstrained variables get 0.  Values prefer the integer of smallest
    magnitude inside the feasible interval, ties toward the non-negative,
    midpoints when no integer fits."""
    order = sorted(c.variables.union(variables or ()))
    current: Optional[tuple[AtomicProp, ...]] = reference_simplify(c.atoms)
    valuation: dict[Var, Fraction] = {}
    for x in order:
        if current is None:
            return None
        # project the remaining system onto x alone; over the rationals the
        # projected interval is exactly the set of feasible x values
        others = {v for a in current for v in a.variables} - {x}
        onto_x = _Store(current, others, limit).eliminate_all()
        if onto_x is None:
            return None
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        lo_strict = hi_strict = False
        for a in onto_x:
            k = a.coeff(x)
            if k == 0:
                continue  # ground leftovers are true after reference_simplify
            bound = Fraction(-a.const, k)
            if a.rel == REL_EQ:
                if (lo is None or bound > lo or (bound == lo and not lo_strict)) :
                    lo, lo_strict = bound, False
                if hi is None or bound < hi or (bound == hi and not hi_strict):
                    hi, hi_strict = bound, False
            elif k > 0:  # x <= bound
                if hi is None or bound < hi or (bound == hi and a.rel == REL_LT):
                    hi, hi_strict = bound, a.rel == REL_LT
            else:  # bound <= x
                if lo is None or bound > lo or (bound == lo and a.rel == REL_LT):
                    lo, lo_strict = bound, a.rel == REL_LT
        value = _pick_value(lo, lo_strict, hi, hi_strict)
        valuation[x] = value
        current = reference_simplify(
            a.substitute({x: LinTerm.of_const(value)}) for a in current
        )
    if current is None or current:
        # leftover unsubstituted atoms would mean a variable escaped `order`
        if current:
            raise AssertionError("sampling left unresolved conjuncts")
        return None
    return valuation


def benchmark_text(name: str, seed: int = 7) -> str:
    """The rule file of the benchmark workload ``name`` at ``seed``."""
    root = Path(__file__).resolve().parent.parent
    module = sys.modules.get("workloads")
    if module is None:
        spec = importlib.util.spec_from_file_location(
            "workloads", root / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses looks its module up
        spec.loader.exec_module(module)
    return module.make(name, root, seed).text


def reference_propagate(program: Program, reports: tuple[ClauseReport, ...],
                        limit: int = DEFAULT_DNF_LIMIT) -> tuple[PropagatedLoop, ...]:
    """The propagation pass in rounds: each round visits every underived
    rule in program order and tests it against the facts of its body
    predicate past its cursor, until a round derives nothing."""
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
    cursor = [0] * len(program.clauses)
    out: list[PropagatedLoop] = []
    changed = True
    while changed:
        changed = False
        for index, rule in enumerate(program.clauses):
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
                    changed = True
                    break
    return tuple(out)


def rand_propagation_program(rng: random.Random) -> Program:
    """Looping sinks with several witnesses each, sinks sharing a head
    predicate, a recursive rule that does not loop, and callers of several
    predicates whose bodies call any predicate, the callers included, so
    that callers come both before and after their callees, may call one
    another in a cycle and may call themselves; all shuffled.  A caller body
    mostly bounds its variable from above, so that callers inherit the
    looping facts of their callees, and bounds it up to three times, so that
    small limits stop some generality tests."""
    k = rng.randint(-2, 2)
    rules = [
        "s(A) <- A = B <> s(B).",
        f"s(A) <- A = B + 1, B >= {k} <> s(B).",
        "t(A, B) <- A = C, B = D <> t(C, D).",
        f"u(A) <- A = B - 1, B <= {k + 3} <> u(B).",
        "r(A) <- A = 0, B = 1 <> r(B).",
    ]
    callers = [f"c{i}" for i in range(rng.randint(3, 6))]
    callees = ["s", "t", "u", "r"] + callers
    for _ in range(rng.randint(6, 14)):
        head, callee = rng.choice(callers), rng.choice(callees + callers)
        args, y = ("Y, Z", "Y + Z") if callee == "t" else ("Y", "Y")
        bounds = [f"X <= {rng.randint(-2, 8)}"]
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(["<=", "<=", "<=", "<", ">="])
            bounds.append(f"{rng.choice(('', '2*'))}{y} {op} "
                          f"{rng.choice(('', '', 'X + ', '2*X + '))}{rng.randint(-3, 6)}")
        rule = f"{head}(X) <- {', '.join(bounds)} <> {callee}({args})."
        try:
            parse_program(rule)
        except ParseError:
            continue  # an unsatisfiable rule constraint
        rules.append(rule)
    rng.shuffle(rules)
    return parse_program("\n".join(rules) + "\n")
