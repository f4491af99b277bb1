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
  projections of c come from the rule's lattice (:func:`head_sides`);

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
``lhs(m) = proj(c, O) = proj(c, X_-m u Y_-m)``.  They and the candidate
conditions ``cond(m) = proj(c, X_m)`` are nodes (a, b) of one lattice per
rule, ``proj(c, X_a u Y_b)`` with b None for a condition, cached by
:func:`projection`.  Each node projects its parent's value, which denotes
the same set because projections compose, under one of two parent rules:

* a condition's parent adds back the smallest head position it misses, up
  to the root ``(X, None)``;

* a side's parent adds back j, the largest position missing on either
  side, to each side that misses it, up to the root ``(X, Y)``.  So
  ``rhs(m)`` is ``rhs(m - {j})`` with y_j eliminated and ``lhs(m)`` is
  ``lhs(m - {j})`` with x_j and y_j eliminated (with differing head and
  body positions, x_j only if j is a filtered head position and y_j only
  if a filtered body one).

Fourier-Motzkin output depends on the elimination order, so the chain
decides a node's printed atoms and where a ``--max-dnf`` limit stops.  The
families share no node, not even ``(X, None)`` and ``(X, {})`` or
``({}, None)`` and ``({}, {})``, which denote the same sets: the conditions
are the text the reports print, and sides reached through the conditions'
chain hit a small limit at other subsets (on the corpus at ``--max-dnf 3``
the first error falls at tau {1,2} instead of {1,2,3}).  Each subset
eliminates at most three variables from a small constraint.

Both builders' left sides are recorded satisfiable (see
:class:`syntax.Constraint`), so ``linarith.decide`` stops each refutation
once no atom derived from the negated atom is left.  The body condition's
left side is c, which normalization proved satisfiable.  The head
condition's is ``lhs(m)``, a projection of c, conjoined with the filter
condition, which is satisfiable as a filter condition must be; the two
parts lie over O and H, which are disjoint, so a solution of each makes one
of the conjunction.  Projection carries the record, and
:func:`neutrality_head_formula` sets it on the conjunction once it has
checked that the parts share no variable.  It also records the conjunction
simplified when both parts are, as projections are: atoms over disjoint
variables share no slope, so ``decide`` merges each negated atom into the
left side without simplifying it again.

A necessary condition refutes many subsets whose head condition fails
before their sides are built (:func:`head_splits`; on the benchmark's shift
rule, all 126 of 128): the head denotation must split over m,
``cond(X_-m), cond(m) |= cond(X)`` over X.  Proof: if the head condition holds, its two sides denote sets over
X u Y_-m, the left inside the right; projecting both onto X keeps the
inclusion.  The left side lies over X_-m u Y_-m and X_m, disjoint, so its
projection is ``proj(c, X_-m) x cond(m)``; the right side's is
``proj(c, X) = cond(X)``, since projections compose.  So a split that fails
refutes the head condition, and one that holds says nothing.  All three
sides are condition nodes of the lattice.  The left side's parts lie over
disjoint variables and are satisfiable projections, so it is recorded
satisfiable and simplified, as the head condition's own left side is.

Two shortcuts keep the split cheap where it cannot refute.  When no atom
of ``cond(X)`` mentions a head variable both inside and outside m, the atoms
partition into a conjunction A over X_m and one B over X_-m; since
``cond(X)`` is satisfiable, B and A are its projections onto X_-m and X_m,
so the split holds and nothing is decided: a passing subset still costs
its head, body and subsumption decisions only.  When building or deciding
the split exceeds the ceiling of conjuncts, the split is taken to hold and
the head condition is decided as before, so the split adds no
resource-limit error; it only removes those that the sides or the head
decision of a refuted subset would have raised.
"""

from __future__ import annotations

from typing import Optional

from . import linarith
from .filters import positions, select_positions
from .linarith import Entailment, ResourceLimitError
from .syntax import Clause, Constraint


def projection(rule: Clause, head_kept: frozenset[int],
               body_kept: Optional[frozenset[int]]) -> Constraint:
    """``proj(c, X_a u Y_b)`` for the rule constraint c, a = ``head_kept``
    and b = ``body_kept``, or the candidate condition ``cond(a)`` when b is
    None: one node of the rule's lattice (see the module docstring), cached
    on the rule as {(a, b): (ceiling, constraint)}, with the ceiling of
    conjuncts it was projected under.  A node is projected from its nearest
    cached ancestor, or from c at a root, and cached with every uncached
    node on the way.  An ancestor cached under a larger ceiling than the one
    in force does not serve, so a request raises ``ResourceLimitError``
    exactly when an uncached one would; a node whose projection raised is
    not cached.  The cache holds constraints, not queries, so a denotation
    cached on a query built from them is freed with that query."""
    cache = rule._projections
    if cache is None:
        cache = rule._projections = {}
    heads, bodies = positions(len(rule.head_vars)), positions(len(rule.body_vars))
    ceiling = linarith.ceiling()
    chain = []  # the node and its uncached ancestors
    value: Optional[Constraint] = None
    node: Optional[tuple] = (head_kept, body_kept)
    while node is not None:
        cached = cache.get(node)
        if cached is not None and ceiling >= cached[0]:
            value = cached[1]
            break
        chain.append(node)
        a, b = node
        if b is None:
            node = (a | {min(heads - a)}, None) if a != heads else None
        elif a != heads or b != bodies:
            j = {max((heads - a) | (bodies - b))}
            node = a | (j & heads), b | (j & bodies)
        else:
            node = None
    for node in reversed(chain):
        a, b = node
        keep = [rule.head_vars[i - 1] for i in a] + [rule.body_vars[i - 1] for i in b or ()]
        value = linarith.project(rule.constraint if value is None else value, keep)
        cache[node] = (ceiling, value)
    return value


def head_sides(rule: Clause, head_pos: frozenset[int],
               body_pos: frozenset[int]) -> tuple[Constraint, Constraint]:
    """``(rhs, lhs)`` of the head condition for the filtered head positions
    ``head_pos`` and body positions ``body_pos``: ``proj(c, X u Y_-m)`` and
    ``proj(c, X_-m u Y_-m)``, two nodes of the rule's lattice."""
    heads = positions(len(rule.head_vars))
    body_kept = positions(len(rule.body_vars)) - body_pos
    return (projection(rule, heads, body_kept),
            projection(rule, heads - head_pos, body_kept))


def head_splits(rule: Clause, head_pos: frozenset[int]) -> bool:
    """Whether ``cond(X_-m), cond(m) |= cond(X)`` over the head variables X,
    for m = ``head_pos`` (see the module docstring).  False refutes the head
    condition at m; True, also returned when no atom of ``cond(X)`` crosses
    m or the split exceeds the ceiling of conjuncts, decides nothing."""
    heads = positions(len(rule.head_vars))
    inside = frozenset(select_positions(rule.head_vars, head_pos))
    try:
        whole = projection(rule, heads, None)
        if all(a.variables <= inside or a.variables.isdisjoint(inside)
               for a in whole.atoms):
            return True  # no atom crosses m, so the split holds
        outer = projection(rule, heads - head_pos, None)
        inner = projection(rule, head_pos, None)
        both = outer.conjoin(inner)
        # two projections over disjoint variables: a solution of each makes
        # one of both, and no slope of one is a slope of the other
        if outer._sat and inner._sat:
            both._sat = True
        both._simplified = outer._simplified and inner._simplified
        return linarith.decide(Entailment(both, whole, frozenset(rule.head_vars)))
    except ResourceLimitError:
        return True


def neutrality_head_formula(rule: Clause, head_pos: frozenset[int],
                            body_pos: frozenset[int], cond: Constraint) -> Entailment:
    """Entailment of the head condition (see the module docstring), with
    ``cond`` the filter condition over the filtered head variables.  The
    left side is recorded satisfiable when both its parts are and they share
    no variable."""
    rhs, lhs = head_sides(rule, head_pos, body_pos)
    body_sel = select_positions(rule.body_vars, body_pos)
    over = frozenset(rule.head_vars + rule.body_vars).difference(body_sel)
    both = lhs.conjoin(cond)
    if lhs.variables.isdisjoint(cond.variables):
        # a solution of each part makes one of both, and no slope of one
        # part is a slope of the other
        if lhs._sat and cond._sat:
            both._sat = True
        both._simplified = lhs._simplified and cond._simplified
    return Entailment(both, rhs, over)


def neutrality_body_formula(rule: Clause, body_pos: frozenset[int],
                            cond: Constraint) -> Entailment:
    """Entailment of the body condition (see the module docstring), with
    ``cond`` the filter condition over the filtered body variables."""
    return Entailment(rule.constraint, cond,
                      frozenset(select_positions(rule.body_vars, body_pos)))
