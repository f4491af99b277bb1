"""The logical criterion for derivation-neutral filters.

A filter is *derivation neutral* for a rule when replacing the filtered
argument positions of any query in a derivation by anything satisfying the
filter's condition preserves the existence of every derivation step.  For a
normalized rule ``p(X) <- c <> q(Y)`` the criterion used here is a pair of
closed formulas over linear rational arithmetic, decided exactly:

* the head condition: whenever c holds, every replacement of the filtered
  head positions that satisfies the condition query can be completed to a
  solution of c by re-choosing the filtered body positions and the rule's
  local variables;

* the body condition: whenever c holds, the filtered body positions satisfy
  the condition query.

Both conditions together imply derivation neutrality, and over linear
rational constraints they are exact.  The two conditions must be decided
separately: merging them into the single formula "every replacement can be
completed to a solution that also satisfies the condition" is strictly weaker
and unsound (the analyzer's tests pin a counterexample).  The analyzer
decides each formula on its own and reports each verdict.
"""

from __future__ import annotations

from .filters import Filter, sat_formula, select_positions
from .linarith import Formula, exists, forall, implies, to_formula
from .syntax import Clause, LinTerm, max_gen


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


def neutrality_head_formula(filt: Filter, rule: Clause) -> Formula:
    """Closed formula of the head condition (see the module docstring)."""
    head_sel, body_sel, base = _parts(filt, rule)
    c = to_formula(rule.constraint)
    probe = tuple(LinTerm.of_var(v) for v in head_sel)
    member = sat_formula(probe, filt.condition(rule.head_pred), base)
    rechoose = sorted(set(body_sel) | rule.local_vars())
    return implies(c, forall(head_sel, implies(member, exists(rechoose, c))))


def neutrality_body_formula(filt: Filter, rule: Clause) -> Formula:
    """Closed formula of the body condition (see the module docstring)."""
    _, body_sel, base = _parts(filt, rule)
    c = to_formula(rule.constraint)
    probe = tuple(LinTerm.of_var(v) for v in body_sel)
    member = sat_formula(probe, filt.condition(rule.body_pred), base)
    return implies(c, member)

