"""Position filters and generality checks between atomic queries.

A query Q1 is *more general* than Q iff every ground instance denoted by Q is
also denoted by Q1.  For Q = <p(t) | d> and probe variables W that occur
nowhere else, the values of W are denoted by Q exactly when ``W = t, d``
has a solution extending them.  That constraint projected onto W is the
*denotation* den(Q) (:func:`denotation`, computed once per query), and
inclusion between two denotations is the entailment ``den(Q) |= den(Q1)``
over W, decided exactly by the linarith module.  Two cases compute it:
when t is a tuple of distinct variables, den(Q) is ``proj(d, t)`` with t
renamed to W, and no equation is eliminated; a constant, a compound term
or a repeated variable among t takes the equations ``W = t``.

A *filter* for a predicate p is a set of its argument positions together
with a condition query over the projected predicate (``p|{1,3}``); every
query it is asked about is a query of p.  Both filter questions restrict
inclusion to the probes of some positions: Q satisfies the filter when
``den(Q) |= den(cond)<W_tau>`` over W_tau, the probes at the filtered
positions (:func:`condition_denotation`), and Q1 is more general than Q at
the unfiltered positions (:func:`more_general` with ``positions``) plus
satisfies the filter (δ-generality, the analyzer's order: transitive, not
reflexive) when also ``den(Q) |= den(Q1)`` over the probes there.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, NamedTuple, Optional

from . import linarith
from .linarith import Entailment
from .syntax import Constraint, Pred, Query, Var, var_eq


def positions_str(positions: Iterable[int]) -> str:
    """A position set as text, e.g. {1,3}, for symbols and reports."""
    return "{" + ",".join(str(i) for i in sorted(positions)) + "}"


def projected_pred(pred: Pred, positions: Iterable[int]) -> Pred:
    """The projected predicate symbol, e.g. p|{1,3} for positions {1, 3}."""
    ordered = sorted(set(positions))
    if ordered and (ordered[0] < 1 or ordered[-1] > pred.arity):
        raise ValueError(f"positions {ordered} out of range for {pred}")
    return Pred(f"{pred.name}|{positions_str(ordered)}", len(ordered))


def select_positions(items: tuple, positions: Iterable[int]) -> tuple:
    """Subsequence of a tuple at the given ascending 1-based positions."""
    return tuple(items[i - 1] for i in sorted(set(positions)))


class Filter(NamedTuple):
    """The filtered positions of one predicate (1-based) and the condition
    query over its projected predicate, whose constraint must be
    satisfiable.  The queries given with a filter are of that predicate."""

    positions: frozenset[int]
    condition: Query


# ---------------------------------------------------------------------------
# denotation and inclusion

@cache
def probes(n: int) -> tuple[Var, ...]:
    """The probe variables W1..Wn, one shared tuple per arity.  Their
    generation, -1, is reserved: no parsed, normalized or renamed variable
    carries it."""
    return tuple(Var(f"W{i}", -1) for i in range(1, n + 1))


def denotation(q: Query, limit: int = linarith.DEFAULT_DNF_LIMIT) -> Constraint:
    """q's denotation as a constraint over ``probes(n)``: ``W = t, d``
    projected onto W for q = <p(t) | d>, where q needs no renaming apart
    since no variable of q has the probes' generation.  When t is a tuple of
    distinct variables, that set is ``proj(d, t)`` with t renamed to W,
    computed so without the equations, and it keeps the satisfiability
    record of that projection, since the renaming is one-to-one; a
    constant, a compound term or a repeated variable among t takes the
    equations.  Cached on q; a call
    with a smaller ``limit`` than the cached one computes it again, so it
    raises ``ResourceLimitError`` exactly when an uncached call would."""
    cached = q._den
    if cached is None or limit < cached[0]:
        w = probes(q.pred.arity)
        args = tuple(t.is_var() for t in q.atom.args)
        if None not in args and len(set(args)) == len(args):
            projected = linarith.project(q.constraint, args, limit)
            den = projected.rename(dict(zip(args, w)))
            den._sat, den._simplified = projected._sat, projected._simplified
        else:
            member = tuple(var_eq(v, t) for v, t in zip(w, q.atom.args))
            den = linarith.project(Constraint(member + q.constraint.atoms), w, limit)
        cached = q._den = (limit, den)
    return cached[1]


def condition_denotation(filt: Filter, at: tuple[Var, ...],
                         limit: int = linarith.DEFAULT_DNF_LIMIT) -> Constraint:
    """``den(cond)<at>``: the denotation of the filter's condition with its
    i-th probe renamed to ``at[i]``, one variable per filtered position."""
    den = denotation(filt.condition, limit)
    return den.rename(dict(zip(probes(len(at)), at)))


def more_general(q_gen: Query, q: Query, limit: int = linarith.DEFAULT_DNF_LIMIT,
                 positions: Optional[Iterable[int]] = None) -> bool:
    """Whether q_gen denotes a superset of q: ``den(q) |= den(q_gen)`` over
    the probes (see :func:`denotation`), or those at ``positions`` if given.
    Queries over distinct predicates are incomparable unless q denotes the
    empty set, in which case any query is more general."""
    if q_gen.pred != q.pred:
        return not linarith.satisfiable(q.constraint, limit)
    w = probes(q.pred.arity)
    over = w if positions is None else select_positions(w, positions)
    return linarith.decide(Entailment(
        denotation(q, limit), denotation(q_gen, limit), frozenset(over)), limit)


def satisfies(q: Query, filt: Filter,
              limit: int = linarith.DEFAULT_DNF_LIMIT) -> bool:
    """Whether q denotes a subset of the filter's condition query at the
    filtered positions (see the module docstring)."""
    at = select_positions(probes(q.pred.arity), filt.positions)
    return linarith.decide(Entailment(
        denotation(q, limit), condition_denotation(filt, at, limit),
        frozenset(at)), limit)


def delta_more_general(q_gen: Query, q: Query, filt: Filter,
                       limit: int = linarith.DEFAULT_DNF_LIMIT) -> bool:
    """More general on the unfiltered positions, and q_gen satisfies the
    filter.  Transitive; not reflexive in general."""
    unfiltered = frozenset(range(1, q.pred.arity + 1)) - filt.positions
    return (more_general(q_gen, q, limit, unfiltered)
            and satisfies(q_gen, filt, limit))
