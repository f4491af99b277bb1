"""Runtime derivation engine: the ground-truth oracle for looping claims.

A derivation step from query <p(u) | d> with a rule whose fresh variant is
p(s) <- c' <> q(t) exists exactly when ``s = u and c' and d`` is satisfiable;
the successor query is <q(t) | s = u and c' and d>.  The engine renames every
applied rule with a strictly increasing generation so variables never collide
across steps.  Rule selection is leftmost: the first rule in program order
whose head predicate matches and whose combined store is satisfiable.

Constraint stores grow as plain conjunction lists.  An optional per-step
projection onto the current atom's variables keeps stores small on long runs;
it preserves the denoted set of every intermediate query, hence also the
existence of every later step.

A run stops executing steps once a query repeats: ``run`` keeps the variant
key of one earlier query (Brent's cycle detection) and, when a successor is a
variant of it, infers the remaining steps instead of executing them.  This is
the variant check of tabled resolution (Tamaki & Sato, OLDT, 1986) applied to
one deterministic run.  It is sound because selection is leftmost over a
fixed program:
  - whether a step exists depends only on the query's denotation up to
    renaming, and so does the denotation of the successor;
  - a variant therefore repeats the stretch of steps that led back to it;
  - so every later step exists, and the run reaches any step budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import linarith
from .syntax import Clause, Constraint, LinTerm, Program, Query, compare, max_gen, rename_apart


@dataclass
class DerivationState:
    """Outcome of a (partial) derivation run."""

    current: Query
    steps: int
    generation: int
    trace: list[tuple[int, Query]] = field(default_factory=list)


def derivation_step(
    q: Query,
    rule: Clause,
    generation: int,
    *,
    project_store: bool = False,
    limit: int = linarith.DEFAULT_DNF_LIMIT,
) -> Optional[Query]:
    """One derivation step, or None when the store is unsatisfiable.
    ``generation`` must exceed every renaming generation in q.  With
    ``project_store`` the successor keeps only the store's projection onto its
    own atom variables (same denoted set, one elimination pass instead of a
    satisfiability check plus a projection)."""
    if rule.head_pred != q.pred:
        raise ValueError(f"rule head {rule.head_pred} does not match query {q.pred}")
    fresh = rename_apart(rule, generation)
    equations = [
        compare(LinTerm.of_var(s), "=", u)
        for s, u in zip(fresh.head_vars, q.atom.args)
    ]
    store = Constraint(tuple(equations)).conjoin(fresh.constraint).conjoin(q.constraint)
    if project_store:
        kept = linarith.project(store, fresh.body_atom.variables, limit)
        if not linarith.satisfiable(kept, limit):
            return None
        return Query(fresh.body_atom, kept)
    if not linarith.satisfiable(store, limit):
        return None
    return Query(fresh.body_atom, store)


def run(
    q: Query,
    program: Program,
    max_steps: int = 100,
    *,
    project_stores: bool = False,
    keep_trace: bool = False,
) -> DerivationState:
    """Run up to ``max_steps`` derivation steps from q using leftmost rule
    selection.  Stops early when no rule applies.

    When a successor is a variant of an earlier query (see the module
    docstring), the run has period p and every later step exists: whole
    periods are counted without executing them, and the fewer than p steps
    left over are executed.  ``steps`` then equals ``max_steps`` and
    ``current`` is the last query actually computed, a variant of the query
    after ``steps`` steps.  With ``keep_trace`` every step is executed, since
    the trace lists each one."""
    generation = 1 + max_gen(q)
    state = DerivationState(current=q, steps=0, generation=generation)
    checkpoint = None if keep_trace else _variant_key(q)
    checkpoint_step = 0
    while state.steps < max_steps:
        successor = None
        used_index = -1
        for index, rule in enumerate(program.clauses):
            if rule.head_pred != state.current.pred:
                continue
            successor = derivation_step(
                state.current, rule, state.generation,
                project_store=project_stores,
            )
            if successor is not None:
                used_index = index
                break
        if successor is None:
            break
        state.current = successor
        state.steps += 1
        state.generation = 1 + max_gen(successor)
        if keep_trace:
            state.trace.append((used_index, successor))
        if checkpoint is None:
            continue
        key = _variant_key(successor)
        if key == checkpoint:
            period = state.steps - checkpoint_step
            state.steps += (max_steps - state.steps) // period * period
            checkpoint = None
        elif state.steps >= 2 * checkpoint_step:
            checkpoint, checkpoint_step = key, state.steps
    return state


def _variant_key(q: Query) -> tuple:
    """q with its variables renamed in order of first occurrence, atom
    arguments first, then the store atoms in order, with each rational as an
    exact numerator and denominator.  Equal keys mean the queries are
    variants; variants whose terms list variables in another order get
    different keys, which only forgoes a shortcut."""
    names: dict = {}

    def term(t: LinTerm) -> tuple:
        return (tuple((names.setdefault(v, len(names)), c.numerator, c.denominator)
                      for v, c in t.coeffs),
                t.const.numerator, t.const.denominator)

    args = tuple(term(t) for t in q.atom.args)
    store = tuple((a.rel, term(a.term)) for a in q.constraint.atoms)
    return (q.pred, args, store)


def format_trace(state: DerivationState) -> list[str]:
    """One line per recorded step, clause numbers 1-based as in reports."""
    return [
        f"step {k}: clause {index + 1} |- {query}"
        for k, (index, query) in enumerate(state.trace, start=1)
    ]
