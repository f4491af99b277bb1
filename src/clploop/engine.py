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

Renaming and substitution are one integer pass over a form of the rule
compiled once and cached on the clause.  The compiled form names each
variable of c' by its head argument index or by (name, generation offset),
the offset being the rank of its generation among the rule's generations,
so generation + offset is exactly where renaming the rule apart at that
generation puts it (the rule's i-th generation goes to generation + i).  A
step multiplies the query arguments by one common denominator L; each atom of
c'[s := u], times L, is then an integer vector, and dividing it by the gcd
of its entries gives the same primitive vector as substituting the rational
arguments and scaling the result (a positive multiple of a term has one
primitive form), so every atom equals the one the literal rename, substitute
and canonicalize would build.

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

A run whose store drifts (``B = A + 1``, ``B = 2*A``) never repeats a
query, so at the same checkpoints, when no variant has been found, ``run``
also tries the variant check modulo an affine map.  It applies when the
last three queries Q_k-2, Q_k-1, Q_k share a predicate p that exactly one
rule p(x) <- c(x, y, z) <> p(y) of the program heads.  A diagonal map
A(W)_i = a_i*W_i + b_i is guessed from samples s0, s1, s2 of the three
query denotations: a_i = (s2_i - s1_i)/(s1_i - s0_i), or 1 when
s1_i = s0_i, and b_i = s2_i - a_i*s1_i.  Two entailments are then decided:
  - (i) ``den(Q_k-1) |= den(Q_k)[W := A.W]`` over the probes W: the image
    of Q_k-1 under A lies in Q_k;
  - (ii) ``proj(c, x u y) |= proj(c, x u y)[x := A.x, y := A.y]`` over x
    and y: the rule's relation is closed under A on both sides.
Together they prove that every later step exists:
  - with the single rule, den(Q_j+1) is post(den(Q_j)) for the monotone
    post(S) = {y : some x in S has c(x, y, z)}, and a step exists exactly
    when post is non-empty;
  - by (ii), post(A.S) contains A.post(S);
  - so by induction from (i), den(Q_j+1) contains A.den(Q_j) for every
    j >= k-1, and none of them is empty, since den(Q_k) is not.
The proof needs no inverse of A, so a_i = 0 is sound.  The variant check
is the case where A is the identity, and it stays the only shortcut for a
predicate headed by several rules, where leftmost selection may pick an
earlier rule on a larger query, and for periods no diagonal map describes.
A sample or decision that exceeds the ceiling of conjuncts only forgoes
the shortcut at that checkpoint.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from . import linarith
from .filters import denotation, probes
from .linarith import Entailment, ResourceLimitError
from .syntax import (
    Atom,
    Clause,
    Constraint,
    LinTerm,
    Program,
    Query,
    Var,
    _atom,
    max_gen,
)


class DerivationState(NamedTuple):
    """Outcome of a (partial) derivation run, immutable like the package's
    other result types; ``_replace`` derives a changed copy.  ``current``
    is the last query computed after ``steps`` steps.  ``cycle`` is (step,
    period) when the run skipped steps.  With ``drift`` None, the query
    after ``step`` steps was a variant of the one ``period`` steps earlier.
    Otherwise ``drift`` is the diagonal map A(W)_i = a_i*W_i + b_i as its
    (a_i, b_i) pairs, the period is 1, the query after ``step`` steps
    denotes a superset of the image under A of the one before, and the rule
    is closed under A (see the module docstring).  ``trace`` holds (clause
    index, query) for each executed step when the run keeps it, and is
    empty otherwise."""

    current: Query
    steps: int
    cycle: Optional[tuple[int, int]]
    drift: Optional[tuple[tuple[Fraction, Fraction], ...]]
    trace: list[tuple[int, Query]]


def _compiled(rule: Clause) -> tuple[tuple, tuple[tuple[str, int], ...], int]:
    """A rule p(s) <- c <> q(t) prepared for `derivation_step`, built on
    first use and cached on it: (atoms, body, span).  Each atom of c is held
    as its head variables, as (argument index, coefficient), its other
    variables, as (name, offset, coefficient), its constant and its
    relation, where offset is the rank of the variable's generation among
    the rule's generations.  ``body`` holds t as (name, offset) pairs;
    ``span`` is one more than the largest offset in t (0 when t is empty)."""
    form = rule._step
    if form is None:
        gens = sorted({v.gen for v in rule.variables})
        offset = {g: i for i, g in enumerate(gens)}
        head = {v: i for i, v in enumerate(rule.head_vars)}
        atoms = tuple(
            (tuple((head[v], c) for v, c in a.coeffs if v in head),
             tuple((v.name, offset[v.gen], c) for v, c in a.coeffs if v not in head),
             a.const, a.rel)
            for a in rule.constraint)
        body = tuple((v.name, offset[v.gen]) for v in rule.body_vars)
        form = rule._step = (atoms, body, 1 + max((o for _, o in body), default=-1))
    return form


def derivation_step(q: Query, rule: Clause, generation: int) -> Optional[Query]:
    """One derivation step, or None when no such step exists.
    ``generation`` must exceed every renaming generation in q.  The step
    takes the rule's fresh variant p(s) <- c' <> q(t) at ``generation``
    (its i-th generation renamed to ``generation`` + i), substitutes each
    query argument u_i for s_i in c', conjoins the query store d and
    projects the result onto t's variables; the step exists exactly when
    that projection is satisfiable, and the successor is <q(t) | projection>.

    Renaming and substitution are one integer loop over the compiled rule
    (see the module docstring): the arguments are multiplied by the lcm L
    of their denominators, each atom of c' is accumulated as L times its
    substituted form and reduced by ``_atom``, so the store atoms equal
    those of renaming, substituting and canonicalizing one by one."""
    if rule.head_pred != q.pred:
        raise ValueError(f"rule head {rule.head_pred} does not match query {q.pred}")
    atoms, body, _ = _compiled(rule)
    args = q.atom.args
    scale = math.lcm(*(t.const.denominator for t in args),
                     *(c.denominator for t in args for _, c in t.coeffs))
    scaled = [(tuple((v, c.numerator * (scale // c.denominator)) for v, c in t.coeffs),
               t.const.numerator * (scale // t.const.denominator))
              for t in args]
    store = []
    for heads, others, k, rel in atoms:
        acc = {Var(name, generation + off): c * scale for name, off, c in others}
        k *= scale
        for i, c in heads:
            coeffs, const = scaled[i]
            k += c * const
            for v, d in coeffs:
                acc[v] = acc.get(v, 0) + c * d
        store.append(_atom(tuple(sorted([(v, c) for v, c in acc.items() if c])),
                           k, rel))
    keep = tuple(Var(name, generation + off) for name, off in body)
    projected = linarith.project(Constraint(tuple(store) + q.constraint.atoms), keep)
    if not linarith.satisfiable(projected):
        return None
    return Query(Atom(rule.body_pred, tuple(LinTerm.of_var(v) for v in keep)),
                 projected)


def run(
    q: Query,
    program: Program,
    max_steps: int = 100,
    *,
    keep_trace: bool = False,
) -> DerivationState:
    """Run up to ``max_steps`` derivation steps from q using leftmost rule
    selection.  Stops early when no rule applies.

    When a successor is a variant of an earlier query (see the module
    docstring), the run has period p and every later step exists: whole
    periods are counted without executing them and recorded in ``cycle``, and
    the fewer than p steps left over are executed.  ``steps`` then equals
    ``max_steps`` and ``current`` is the last query actually computed, a
    variant of the query after ``steps`` steps.  When a checkpoint's query
    instead contains the image of the one before under an affine map the
    rule is closed under (see ``_drift``), every later step exists as well:
    the run records the map in ``drift``, sets ``steps`` to ``max_steps``
    and keeps the checkpoint's query as ``current``.  ``keep_trace`` only
    records the executed steps; it does not change which steps are executed.
    The result is one immutable `DerivationState`, built when the run
    stops.

    Each step's generation exceeds every generation of its query: the first
    is ``1 + max_gen(q)``, and the next is read off the compiled body of the
    rule applied, which is ``1 + max_gen`` of the successor (whose variables
    are the body variables, or none)."""
    current, steps, cycle, drift = q, 0, None, None
    trace: list[tuple[int, Query]] = []
    generation = 1 + max_gen(q)
    checkpoint = _variant_key(q)
    checkpoint_step = 0
    recent = (q,)  # the last three queries, while a checkpoint is kept
    while steps < max_steps:
        for index, rule in enumerate(program.clauses):
            if rule.head_pred == current.pred:
                successor = derivation_step(current, rule, generation)
                if successor is not None:
                    break
        else:
            break
        current = successor
        steps += 1
        _, _, span = _compiled(rule)
        generation = generation + span if span else 1
        if keep_trace:
            trace.append((index, successor))
        if checkpoint is None:
            continue
        recent = recent[-2:] + (successor,)
        key = _variant_key(successor)
        if key == checkpoint:
            period = steps - checkpoint_step
            skipped = (max_steps - steps) // period * period
            if skipped:
                cycle = (steps, period)
                steps += skipped
            checkpoint = None
        elif steps >= 2 * checkpoint_step:
            checkpoint, checkpoint_step = key, steps
            if len(recent) == 3 and steps < max_steps:
                drift = _drift(recent, program)
                if drift is not None:
                    cycle, steps = (steps, 1), max_steps
    return DerivationState(current, steps, cycle, drift, trace)


def _drift(queries: tuple[Query, Query, Query],
           program: Program) -> Optional[tuple[tuple[Fraction, Fraction], ...]]:
    """The diagonal map of the module docstring as (a_i, b_i) pairs when
    both of its entailments hold for the three queries, else None.  None
    also when the queries do not share a predicate headed by exactly one
    rule, that rule is not recursive, or the ceiling of conjuncts is
    exceeded."""
    pred = queries[-1].pred
    rules = [r for r in program.clauses if r.head_pred == pred]
    if (any(q.pred != pred for q in queries) or len(rules) != 1
            or not rules[0].is_recursive()):
        return None
    rule = rules[0]
    w = probes(pred.arity)
    try:
        dens = [denotation(q) for q in queries]
        s0, s1, s2 = (linarith.sample_solution(d, w) for d in dens)
        drift = []
        for v in w:
            a = ((s2[v] - s1[v]) / (s1[v] - s0[v]) if s1[v] != s0[v]
                 else Fraction(1))
            drift.append((a, s2[v] - a * s1[v]))
        if not linarith.decide(Entailment(
                dens[1], _image(dens[2], w, drift), frozenset(w))):
            return None
        moved = rule.head_vars + rule.body_vars  # x and y, both moved by A
        if not linarith.decide(Entailment(
                rule.constraint, _image(rule.constraint, moved, drift * 2),
                frozenset(moved))):
            return None
    except ResourceLimitError:
        return None
    return tuple(drift)


def _image(c: Constraint, variables: tuple[Var, ...],
           drift: list[tuple[Fraction, Fraction]]) -> Constraint:
    """c with each variable v_i replaced by a_i*v_i + b_i."""
    mapping = {v: LinTerm.make({v: a}, b) for v, (a, b) in zip(variables, drift)}
    return Constraint(tuple(atom.substitute(mapping) for atom in c))


def _variant_key(q: Query) -> tuple:
    """q with its variables renamed in order of first occurrence, atom
    arguments first, then the store atoms in order, with each rational as an
    exact numerator and denominator.  Equal keys mean the queries are
    variants; variants whose terms list variables in another order get
    different keys, which only forgoes a shortcut."""
    names: dict = {}

    def term(t) -> tuple:  # a LinTerm or an AtomicProp: coefficients, constant
        return (tuple((names.setdefault(v, len(names)), c.numerator, c.denominator)
                      for v, c in t.coeffs),
                t.const.numerator, t.const.denominator)

    args = tuple(term(t) for t in q.atom.args)
    store = tuple((a.rel, term(a)) for a in q.constraint.atoms)
    return (q.pred, args, store)


def format_trace(state: DerivationState) -> list[str]:
    """One line per recorded step under its step number, clause numbers
    1-based as in reports, and one line for the steps a cycle skipped that
    names the variant period or the affine map."""
    at, period = state.cycle or (state.steps, 1)
    skipped = state.steps - at - (state.steps - at) % period
    lines = [f"step {k + skipped if k > at else k}: clause {index + 1} |- {query}"
             for k, (index, query) in enumerate(state.trace, start=1)]
    if state.drift is not None:
        moves = ", ".join(f"W{i} := {LinTerm.make({Var(f'W{i}'): a}, b)}"
                          for i, (a, b) in enumerate(state.drift, start=1))
        lines.insert(at, f"steps {at + 1}..{at + skipped} not executed: step {at} "
                         f"contains the image of step {at - 1} under {moves}")
    elif state.cycle:
        lines.insert(at, f"steps {at + 1}..{at + skipped} not executed: step {at} "
                         f"is a variant of step {at - period} (period {period})")
    return lines
