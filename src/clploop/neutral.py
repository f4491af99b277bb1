"""The logical criterion for derivation-neutral filters.

A filter is *derivation neutral* for a rule when replacing the filtered
argument positions of any query in a derivation by anything satisfying the
filter's condition preserves the existence of every derivation step.  For a
normalized rule ``p(X) <- c <> q(Y)`` write H for the filtered head
variables, B for the filtered body variables, R for B plus the rule's local
variables and O for every other rule variable, and ``proj(c, V)`` for c
projected onto V.  With F the filter condition over H, and ``F<B>`` the
same with H renamed to B, the criterion is a pair of entailments over
linear rational arithmetic, decided exactly:

* the head condition ``proj(c, O), F |= proj(c, O u H)`` over O and H:
  whenever c holds, every replacement of the filtered head positions that
  satisfies the condition can be completed to a solution of c by
  re-choosing R.  Its left side is that of the renaming form
  ``c[H renamed apart], M(H) |= c``, with M(H) the membership of H in the
  condition, projected onto O and H: the two conjuncts share no variable,
  so the projection splits into ``proj(c, O)`` and F;

* the body condition ``c |= F<B>`` over B: whenever c holds, the filtered
  body positions satisfy the condition.

Both conditions together imply derivation neutrality, and over linear
rational constraints they are exact.  The two conditions must be decided
separately: merging them into the single entailment "every replacement can
be completed to a solution that also satisfies the condition",
``proj(c, O), F |= proj((c, F<B>), O u H)`` over O and H, is strictly
weaker and unsound (the analyzer's tests pin a counterexample).  The
analyzer decides each entailment on its own and reports each verdict.  Its
third condition, that the body query be filter-more-general than the head
query, has the body condition as its filter half, so only generality at
the unfiltered positions is left to decide.

The analyzer's candidate filter at head positions m filters the same
positions of the head and the body, with the condition
``cond(m) = proj(c, X_m)``, where X and Y are the head and body variables
and Z_m the variables of Z at the positions in m (Z_-m at the others).  The
body builder takes ``cond(m)<B>``, or any condition over B.  The head
builder takes no condition: it builds the head condition of the candidate
filter, one atom at a time, from the rule's lattice, below.

The head condition's right side ``rhs(m) = proj(c, X u Y_-m)``, the
projections of c its atoms are decided on (below) and the candidate
conditions are nodes (a, b) of one lattice per rule, ``proj(c, X_a u Y_b)``
with b None for a condition, cached by :func:`projection`.  Each node
projects its parent's value, which denotes the same set because
projections compose, under one of two parent rules:

* a condition's parent adds back the smallest head position it misses, up
  to the root ``(X, None)``;

* a side's parent adds back j, the largest position missing on either
  side, to each side that misses it, up to the root ``(X, Y)``.  So
  ``rhs(m)`` is ``rhs(m - {j})`` with y_j eliminated, and a node whose
  head and body positions are the same is its parent with x_j and y_j
  eliminated (a node whose positions differ eliminates x_j only if j is a
  head position it misses, and y_j only if j is a body one).

Fourier-Motzkin output depends on the elimination order, so the chain
decides a node's printed atoms and where a ``--max-dnf`` limit stops.  The
families share no node, not even ``(X, None)`` and ``(X, {})`` or
``({}, None)`` and ``({}, {})``, which denote the same sets: the conditions
are the text the reports print, and sides reached through the conditions'
chain hit a small limit at other subsets.

The head condition is a split.  ``lhs(m)`` and ``cond(m)`` are projections
of ``rhs(m)``, so ``rhs(m)`` always lies inside ``lhs(m) x cond(m)``, and
the head condition says the converse: the node ``rhs(m)`` splits over X_m.
Write N for the node ``proj(c, X u Y_b)`` and L for the left side
``proj(c, X_-m u Y_b), cond(m)`` of its split over X_m, ``L |= N`` over
X u Y_b; at b the positions outside m it is the head condition.  At b
None, N is ``cond(X)`` and the split a necessary condition: a product's
projection onto X is the product of its factors' projections, so if
``rhs(m)`` splits over X_m, its projection ``cond(X)`` splits into
``cond(X_-m) x cond(m)``.  The analyzer decides this split first, because
it refutes most failing subsets from small condition nodes (on the
benchmark's shift rule, all 126 of 128), and it decides the head condition
only where the split holds.

The split is decided atom by atom, each atom on its own variables.  L
entails N exactly when it entails each atom a of N.  L's two factors lie
over disjoint variables, so L projected onto vars(a) is the product of
their projections, which are ``proj(c, vars(a) - X_m)`` and
``proj(c, vars(a) n X_m)`` since projections compose; so L entails a
exactly when ``proj(c, vars(a) - X_m), proj(c, vars(a) n X_m) |= a`` over
vars(a).  :func:`neutrality_head_formula` builds that entailment.  An atom
that does not cross X_m, whose variables all lie inside X_m or all
outside, needs no decision: one of the two projections is over no
variable, so the left side is ``proj(c, vars(a))``, the projection of N
onto vars(a), which entails a since N does.  So a split that no atom
crosses holds, at m = {} and m = X for every node, and a passing subset
whose two nodes no atom crosses costs its body and subsumption decisions
only.  A crossing atom's entailment depends on the atom and on the
variables of X_m it mentions only, so the analyzer decides each such pair
once per rule (``analyzer.head_splits``): on the shift rule, the 126
failing subsets ask 12 questions.

The entailment's two projections are lattice nodes: the condition at a's
head positions in m, and the node at a's other head and body positions,
on the chain of N's family: a side when b is not None, and a condition
when b is None.  On generated rules under small ceilings, the head
condition exceeds the ceiling at fewer subsets this way than when it
takes conditions too.  When building or deciding the necessary split's
check of an atom exceeds the ceiling of conjuncts, the analyzer takes the
atom to be kept, so the split adds no resource-limit error.

Both builders' left sides are recorded satisfiable (see
:class:`syntax.Constraint`), so ``linarith.decide`` stops each refutation
once no atom derived from the negated atom is left.  The body condition's
left side is c, which normalization proved satisfiable.  A head check's is
two satisfiable projections of c over disjoint variables, so a solution of
each makes one of the conjunction.  Projection carries the record, and
:func:`neutrality_head_formula` sets it on the conjunction.  It also
records the conjunction simplified, as projections are: atoms over
disjoint variables share no slope, so ``decide`` merges each negated atom
into the left side without simplifying it again.
"""

from __future__ import annotations

from typing import Optional

from . import linarith
from .filters import positions, select_positions
from .linarith import Entailment
from .syntax import AtomicProp, Clause, Constraint


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


def neutrality_head_formula(rule: Clause, head_pos: frozenset[int],
                            body_kept: Optional[frozenset[int]],
                            atom: AtomicProp) -> Entailment:
    """Whether the split of the lattice node ``N = proj(c, X u Y_b)`` over
    X_m keeps the atom a = ``atom`` of N, for m = ``head_pos`` and b =
    ``body_kept`` (see the module docstring):
    ``proj(c, vars(a) - X_m), proj(c, vars(a) n X_m) |= a`` over vars(a).
    The two projections are lattice nodes: the condition at a's head
    positions in m, and the node at a's other positions, a side when b is
    not None and a condition when it is."""
    head = {v: i for i, v in enumerate(rule.head_vars, start=1)}
    body = {v: i for i, v in enumerate(rule.body_vars, start=1)}
    at = {head[v] for v in atom.variables if v in head}
    at_body = frozenset(body[v] for v in atom.variables if v in body)
    outer = projection(rule, frozenset(at - head_pos),
                       None if body_kept is None else at_body)
    cond = projection(rule, frozenset(at & head_pos), None)
    both = outer.conjoin(cond)
    # two projections over disjoint variables: a solution of each makes one
    # of both, and no slope of one is a slope of the other
    if outer._sat and cond._sat:
        both._sat = True
    both._simplified = outer._simplified and cond._simplified
    return Entailment(both, Constraint((atom,)), atom.variables)


def neutrality_body_formula(rule: Clause, body_pos: frozenset[int],
                            cond: Constraint) -> Entailment:
    """Entailment of the body condition (see the module docstring), with
    ``cond`` the filter condition over the filtered body variables."""
    return Entailment(rule.constraint, cond,
                      frozenset(select_positions(rule.body_vars, body_pos)))
