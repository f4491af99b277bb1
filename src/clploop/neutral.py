"""The logical criterion for derivation-neutral filters.

A filter is *derivation neutral* for a rule when replacing the filtered
argument positions of any query in a derivation by anything satisfying the
filter's condition preserves the existence of every derivation step.  For a
normalized rule ``p(X) <- c <> q(Y)`` write H for the filtered head
variables, B for the filtered body variables, R for B plus the rule's local
variables and O for every other rule variable, and ``proj(c, V)`` for c
projected onto V.  The builders take the filter condition as a constraint
over the rule's own variables.  For the analyzer's candidate filter at head
positions m that is ``cond(m) = proj(c, X_m)``, over H = X_m, and
``cond(m)<B>``, the same with X_m renamed to B = Y_m; another filter's
condition query enters by its denotation with the probes renamed to H or B.
The criterion is a pair of entailments over linear rational arithmetic,
decided exactly:

* the head condition ``proj(c, O), cond(m) |= proj(c, O u H)`` over O and
  H: whenever c holds, every replacement of the filtered head positions
  that satisfies the condition can be completed to a solution of c by
  re-choosing R.  Its left side is that of the renaming form
  ``c[H renamed apart], M(H) |= c``, with M(H) the membership of H in the
  condition, projected onto O and H: the two conjuncts share no variable,
  so the projection splits into ``proj(c, O)`` and ``cond(m)``.  Both
  projections of c come from one lattice per rule (:func:`head_sides`);

* the body condition ``c |= cond(m)<B>`` over B: whenever c holds, the
  filtered body positions satisfy the condition.

Both conditions together imply derivation neutrality, and over linear
rational constraints they are exact.  The two conditions must be decided
separately: merging them into the single entailment "every replacement can
be completed to a solution that also satisfies the condition",
``proj(c, O), cond(m) |= proj((c, cond(m)<B>), O u H)`` over O and H, is
strictly weaker and unsound (the analyzer's tests pin a counterexample).
The analyzer decides each entailment on its own and reports each verdict.
Its third condition, that the body query be filter-more-general than the
head query, has the body condition as its filter half, so only generality
at the unfiltered positions is left to decide.

With X and Y the head and body variables, m the filtered positions and Z_m
the variables of Z at the positions in m (Z_-m at the others), the head
condition's sides are ``rhs(m) = proj(c, O u H) = proj(c, X u Y_-m)`` and
``lhs(m) = proj(c, O) = proj(c, X_-m u Y_-m)``.  They form a lattice:
``rhs({}) = lhs({}) = proj(c, X u Y)``, and for any other m, with j the
largest position in m, ``rhs(m)`` is ``rhs(m - {j})`` with y_j eliminated
and ``lhs(m)`` is ``lhs(m - {j})`` with x_j and y_j eliminated, which
denotes the same set because projections compose.  When the head and body
positions differ, j is the largest filtered position on either side; x_j
is eliminated only if j is a filtered head position, and y_j only if it is
a filtered body position.  The sides are cached on the rule as constraints
by :func:`cached_lattice`, which also caches the analyzer's candidate
conditions, so each subset eliminates at most three variables from a small
constraint.

Both builders' left sides are recorded satisfiable (see
:class:`syntax.Constraint`), so ``linarith.decide`` stops each refutation
once no atom derived from the negated atom is left.  The body condition's
left side is c, which normalization proved satisfiable.  The head
condition's is ``lhs(m)``, a projection of c, conjoined with the filter
condition, which is satisfiable as a filter condition must be; the two
parts lie over O and H, which are disjoint, so a solution of each makes one
of the conjunction.  Projection carries the record, and
:func:`neutrality_head_formula` sets it on the conjunction once it has
checked that the parts share no variable.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional, TypeVar

from . import linarith
from .filters import select_positions
from .linarith import Entailment
from .syntax import Clause, Constraint

T = TypeVar("T")


def cached_lattice(rule: Clause, attr: str, node: Hashable,
                   parent: Callable[[Hashable], Optional[Hashable]],
                   step: Callable[[Optional[T], Hashable], T], limit: int) -> T:
    """The value at ``node`` of a lattice cached on the rule in the dict
    ``rule.<attr>`` as {node: (limit, value)}, created on first use.
    ``parent(node)`` is the node a value is derived from, None at the top;
    ``step(value, node)`` derives a node's value from its parent's, and the
    top's from None.  A value is computed from its nearest cached ancestor
    and cached with every uncached node on the way.  An ancestor cached with
    a smaller limit than ``limit`` serves; one cached with a larger limit
    does not, and the chain is computed again, so a request raises
    ``ResourceLimitError`` exactly when an uncached one would.  A node whose
    step raised is not cached, and every node below it raises too.  The
    caches hold constraints, not queries, so a denotation cached on a query
    built from them is freed with that query."""
    cache = getattr(rule, attr)
    if cache is None:
        cache = {}
        setattr(rule, attr, cache)
    chain = []  # node and its uncached ancestors
    value: Optional[T] = None
    up: Optional[Hashable] = node
    while up is not None:
        cached = cache.get(up)
        if cached is not None and limit >= cached[0]:
            value = cached[1]
            break
        chain.append(up)
        up = parent(up)
    for m in reversed(chain):
        value = step(value, m)
        cache[m] = (limit, value)
    return value


_Node = tuple[frozenset[int], frozenset[int]]  # (head positions, body positions)


def _side_parent(node: _Node) -> Optional[_Node]:
    head_pos, body_pos = node
    if not head_pos and not body_pos:
        return None
    j = max(head_pos | body_pos)
    return head_pos - {j}, body_pos - {j}


def head_sides(rule: Clause, head_pos: frozenset[int], body_pos: frozenset[int],
               limit: int = linarith.DEFAULT_DNF_LIMIT) -> tuple[Constraint, Constraint]:
    """``(rhs, lhs)`` of the head condition for the filtered head positions
    ``head_pos`` and body positions ``body_pos``: the rule constraint
    projected onto ``X u Y_-m`` and onto ``X_-m u Y_-m``, taken from the
    rule's lattice of sides (see the module docstring)."""
    head, body = frozenset(rule.head_vars), frozenset(rule.body_vars)

    def step(parent: Optional[tuple[Constraint, Constraint]],
             node: _Node) -> tuple[Constraint, Constraint]:
        if parent is None:
            top = linarith.project(rule.constraint, head | body, limit)
            return top, top
        hp, bp = node
        kept_body = body - set(select_positions(rule.body_vars, bp))
        rhs, lhs = parent
        if max(hp | bp) in bp:
            rhs = linarith.project(rhs, head | kept_body, limit)
        kept_head = head - set(select_positions(rule.head_vars, hp))
        return rhs, linarith.project(lhs, kept_head | kept_body, limit)

    return cached_lattice(rule, "_sides", (head_pos, body_pos), _side_parent,
                          step, limit)


def neutrality_head_formula(rule: Clause, head_pos: frozenset[int],
                            body_pos: frozenset[int], cond: Constraint,
                            limit: int = linarith.DEFAULT_DNF_LIMIT) -> Entailment:
    """Entailment of the head condition (see the module docstring), with
    ``cond`` the filter condition over the filtered head variables.  The
    left side is recorded satisfiable when both its parts are and they share
    no variable."""
    rhs, lhs = head_sides(rule, head_pos, body_pos, limit)
    body_sel = select_positions(rule.body_vars, body_pos)
    over = frozenset(rule.head_vars + rule.body_vars).difference(body_sel)
    both = lhs.conjoin(cond)
    if lhs._sat and cond._sat and lhs.variables.isdisjoint(cond.variables):
        both._sat = True
    return Entailment(both, rhs, over)


def neutrality_body_formula(rule: Clause, body_pos: frozenset[int],
                            cond: Constraint) -> Entailment:
    """Entailment of the body condition (see the module docstring), with
    ``cond`` the filter condition over the filtered body variables."""
    return Entailment(rule.constraint, cond,
                      frozenset(select_positions(rule.body_vars, body_pos)))
