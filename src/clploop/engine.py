"""Runtime derivation engine: the ground-truth oracle for looping claims.

A derivation step from query <p(u) | d> with a rule whose fresh variant is
p(s) <- c' <> q(t) exists exactly when ``s = u and c' and d`` is satisfiable;
the successor query is <q(t) | s = u and c' and d>.  The engine renames every
applied rule with a strictly increasing generation so variables never collide
across steps.  Rule selection is leftmost: the first rule in program order
whose head predicate matches and whose combined store is satisfiable.

The engine never builds the equations s = u.  Normalization makes the head
variables s distinct and disjoint from every other variable of the rule, and
renaming makes them disjoint from the query, so each s_i occurs in the store
only in its own equation and in c'.  Substituting u_i for s_i in c' therefore
eliminates s exactly (``exists s . s = u and c'`` is ``c'[s := u]``), and it
is the standard solver step of CLP(Q).  The store is then projected onto
t's variables: projection keeps the denoted set of the successor, hence the
existence of every later step, and keeps stores from growing on long runs.

A run, traced or not, stops executing steps once a query repeats: ``run``
keeps the variant key of one earlier query (Brent's cycle detection) and,
when a successor is a variant of it, infers the remaining steps instead of
executing them; a trace lists the executed steps only.  This is the variant
check of tabled resolution (Tamaki & Sato, OLDT, 1986) applied to one
deterministic run.  It is sound because selection is leftmost over a fixed
program:
  - whether a step exists depends only on the query's denotation up to
    renaming, and so does the denotation of the successor;
  - a variant therefore repeats the stretch of steps that led back to it;
  - so every later step exists, and the run reaches any step budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import linarith
from .syntax import Clause, Constraint, LinTerm, Program, Query, max_gen, rename_apart


@dataclass
class DerivationState:
    """Outcome of a (partial) derivation run.  ``cycle`` is (step, period)
    when the run skipped steps: the query after ``step`` steps was a variant
    of the one ``period`` steps earlier.  ``trace`` holds (clause index,
    query) for each executed step when the run keeps it."""

    current: Query
    steps: int
    cycle: Optional[tuple[int, int]] = None
    trace: list[tuple[int, Query]] = field(default_factory=list)


def derivation_step(
    q: Query,
    rule: Clause,
    generation: int,
    *,
    limit: int = linarith.DEFAULT_DNF_LIMIT,
) -> Optional[Query]:
    """One derivation step, or None when no such step exists.
    ``generation`` must exceed every renaming generation in q.  The step
    renames the rule to p(s) <- c' <> q(t), substitutes each query argument
    u_i for s_i in c', conjoins the query store d and projects the result
    onto t's variables; the step exists exactly when that projection is
    satisfiable, and the successor is <q(t) | projection>."""
    if rule.head_pred != q.pred:
        raise ValueError(f"rule head {rule.head_pred} does not match query {q.pred}")
    fresh = rename_apart(rule, generation)
    args = dict(zip(fresh.head_vars, q.atom.args))
    atoms = tuple(a.substitute(args) for a in fresh.constraint) + q.constraint.atoms
    store = linarith.project(Constraint(atoms), fresh.body_atom.variables, limit)
    if not linarith.satisfiable(store, limit):
        return None
    return Query(fresh.body_atom, store)


def run(
    q: Query,
    program: Program,
    max_steps: int = 100,
    *,
    keep_trace: bool = False,
    limit: int = linarith.DEFAULT_DNF_LIMIT,
) -> DerivationState:
    """Run up to ``max_steps`` derivation steps from q using leftmost rule
    selection.  Stops early when no rule applies.

    When a successor is a variant of an earlier query (see the module
    docstring), the run has period p and every later step exists: whole
    periods are counted without executing them and recorded in ``cycle``, and
    the fewer than p steps left over are executed.  ``steps`` then equals
    ``max_steps`` and ``current`` is the last query actually computed, a
    variant of the query after ``steps`` steps.  ``keep_trace`` only records
    the executed steps; it does not change which steps are executed.
    ``limit`` bounds the conjuncts of each elimination step of every
    derivation step."""
    state = DerivationState(current=q, steps=0)
    generation = 1 + max_gen(q)
    checkpoint = _variant_key(q)
    checkpoint_step = 0
    while state.steps < max_steps:
        for index, rule in enumerate(program.clauses):
            if rule.head_pred == state.current.pred:
                successor = derivation_step(state.current, rule, generation,
                                            limit=limit)
                if successor is not None:
                    break
        else:
            break
        state.current = successor
        state.steps += 1
        generation = 1 + max_gen(successor)
        if keep_trace:
            state.trace.append((index, successor))
        if checkpoint is None:
            continue
        key = _variant_key(successor)
        if key == checkpoint:
            period = state.steps - checkpoint_step
            skipped = (max_steps - state.steps) // period * period
            if skipped:
                state.cycle = (state.steps, period)
                state.steps += skipped
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
    """One line per recorded step under its step number, clause numbers
    1-based as in reports, and one line for the steps a cycle skipped."""
    at, period = state.cycle or (state.steps, 1)
    skipped = state.steps - at - (state.steps - at) % period
    lines = [f"step {k + skipped if k > at else k}: clause {index + 1} |- {query}"
             for k, (index, query) in enumerate(state.trace, start=1)]
    if state.cycle:
        lines.insert(at, f"steps {at + 1}..{at + skipped} not executed: step {at} "
                         f"is a variant of step {at - period} (period {period})")
    return lines
