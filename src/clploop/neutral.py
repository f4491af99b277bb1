"""The logical criterion for derivation-neutral filters.

A filter is *derivation neutral* for a rule when replacing the filtered
argument positions of any query in a derivation by anything satisfying the
filter's condition preserves the existence of every derivation step.  For a
normalized rule ``p(X) <- c <> q(Y)`` write H for the filtered head
variables, B for the filtered body variables, R for B plus the rule's local
variables and O for every other rule variable, and M(V) for the membership
constraint of V in the condition query (see :func:`filters.membership`).
The criterion is a pair of entailments over linear rational arithmetic,
decided exactly:

* the head condition ``c[H renamed apart], M(H) |= c`` over O and H:
  whenever c holds, every replacement of the filtered head positions that
  satisfies the condition query can be completed to a solution of c by
  re-choosing R;

* the body condition ``c |= M(B)`` over B: whenever c holds, the filtered
  body positions satisfy the condition query.

Both conditions together imply derivation neutrality, and over linear
rational constraints they are exact.  The two conditions must be decided
separately: merging them into the single entailment "every replacement can
be completed to a solution that also satisfies the condition",
``c[H renamed apart], M(H) |= c, M(B)`` over O and H, is strictly weaker
and unsound (the analyzer's tests pin a counterexample).  The analyzer
decides each entailment on its own and reports each verdict.
"""

from __future__ import annotations

from .filters import Filter, membership, select_positions
from .linarith import Entailment
from .syntax import Clause, LinTerm, Var, max_gen


def _parts(filt: Filter, rule: Clause):
    head_tau = filt.positions.get(rule.head_pred)
    body_tau = filt.positions.get(rule.body_pred)
    head_sel = select_positions(rule.head_vars, head_tau)
    body_sel = select_positions(rule.body_vars, body_tau)
    base = 1 + max(
        max_gen(rule),
        max_gen(filt.condition(rule.head_pred)),
        max_gen(filt.condition(rule.body_pred)),
    )
    return head_sel, body_sel, base


def neutrality_head_formula(filt: Filter, rule: Clause) -> Entailment:
    """Entailment of the head condition (see the module docstring)."""
    head_sel, body_sel, base = _parts(filt, rule)
    c = rule.constraint
    probe = tuple(LinTerm.of_var(v) for v in head_sel)
    member = membership(probe, filt.condition(rule.head_pred), base)
    # R is existential on each side, so only H needs renaming apart
    fresh = 1 + max_gen(rule, member)
    apart = c.rename({v: Var(v.name, fresh + v.gen) for v in head_sel})
    rechoose = set(body_sel) | rule.local_vars()
    return Entailment(apart.conjoin(member), c, rule.variables - rechoose)


def neutrality_body_formula(filt: Filter, rule: Clause) -> Entailment:
    """Entailment of the body condition (see the module docstring)."""
    _, body_sel, base = _parts(filt, rule)
    probe = tuple(LinTerm.of_var(v) for v in body_sel)
    member = membership(probe, filt.condition(rule.body_pred), base)
    return Entailment(rule.constraint, member, frozenset(body_sel))
