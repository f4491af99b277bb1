"""The logical criterion for derivation-neutral filters.

A filter is *derivation neutral* for a rule when replacing the filtered
argument positions of any query in a derivation by anything satisfying the
filter's condition preserves the existence of every derivation step.  For a
normalized rule ``p(X) <- c <> q(Y)`` write H for the filtered head
variables, B for the filtered body variables, R for B plus the rule's local
variables and O for every other rule variable, ``proj(c, V)`` for c
projected onto V and ``den(cond)<V>`` for the condition query's cached
denotation with its probes renamed to V (:func:`filters.condition_denotation`).
The criterion is a pair of entailments over linear rational arithmetic,
decided exactly:

* the head condition ``proj(c, O), den(cond)<H> |= proj(c, O u H)`` over O
  and H: whenever c holds, every replacement of the filtered head positions
  that satisfies the condition query can be completed to a solution of c
  by re-choosing R.  Its left side is that of the renaming form
  ``c[H renamed apart], M(H) |= c``, with M(H) the membership of H in the
  condition query, projected onto O and H: the two conjuncts share no
  variable, so the projection splits into ``proj(c, O)`` and
  ``den(cond)<H>``.  ``proj(c, O)`` is taken from ``proj(c, O u H)``;

* the body condition ``c |= den(cond)<B>`` over B: whenever c holds, the
  filtered body positions satisfy the condition query.

Both conditions together imply derivation neutrality, and over linear
rational constraints they are exact.  The two conditions must be decided
separately: merging them into the single entailment "every replacement can
be completed to a solution that also satisfies the condition",
``proj(c, O), den(cond)<H> |= proj((c, den(cond)<B>), O u H)`` over O and
H, is strictly weaker and unsound (the analyzer's tests pin a
counterexample).  The analyzer decides each entailment on its own and
reports each verdict.
"""

from __future__ import annotations

from . import linarith
from .filters import Filter, condition_denotation, select_positions
from .linarith import Entailment
from .syntax import Clause


def neutrality_head_formula(filt: Filter, rule: Clause,
                            limit: int = linarith.DEFAULT_DNF_LIMIT) -> Entailment:
    """Entailment of the head condition (see the module docstring)."""
    head_sel = select_positions(rule.head_vars, filt.positions.get(rule.head_pred))
    member = condition_denotation(filt, rule.head_pred, head_sel, limit)
    body_sel = select_positions(rule.body_vars, filt.positions.get(rule.body_pred))
    over = rule.variables - rule.local_vars() - set(body_sel)
    rhs = linarith.project(rule.constraint, over, limit)
    lhs = linarith.project(rhs, over - set(head_sel), limit)
    return Entailment(lhs.conjoin(member), rhs, over)


def neutrality_body_formula(filt: Filter, rule: Clause,
                            limit: int = linarith.DEFAULT_DNF_LIMIT) -> Entailment:
    """Entailment of the body condition (see the module docstring)."""
    body_sel = select_positions(rule.body_vars, filt.positions.get(rule.body_pred))
    member = condition_denotation(filt, rule.body_pred, body_sel, limit)
    return Entailment(rule.constraint, member, frozenset(body_sel))
