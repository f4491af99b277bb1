"""Position filters and generality checks between atomic queries.

A query Q1 is *more general* than Q iff every ground instance denoted by Q is
also denoted by Q1.  Membership of a tuple of values in a query's denotation
is captured by a constraint: taking a variant Q' = <p(t') | d'> of Q that
shares no variables with the probe terms s, the tuple s belongs to Q's
denotation exactly when ``s = t', d'`` has a solution extending the values
of s.  Inclusion between two denotations is then the entailment
``membership(W, Q) |= membership(W, Q1)`` over fresh probe variables W,
decided exactly by the linarith module.

A *filter* assigns every predicate a set of argument positions together with a
condition query over the projected predicate.  A query satisfies the filter
when its projection onto the filtered positions denotes a subset of the
condition query.  "More general at the unfiltered positions plus satisfies the
filter" is the combined order used by the analyzer; it is transitive but not
reflexive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from . import linarith
from .linarith import Entailment
from .syntax import (
    Atom,
    Constraint,
    LinTerm,
    Pred,
    Query,
    Var,
    compare,
    max_gen,
    rename_apart,
)


def projected_pred(pred: Pred, positions: Iterable[int]) -> Pred:
    """The projected predicate symbol, e.g. p|{1,3} for positions {1, 3}."""
    ordered = sorted(set(positions))
    if ordered and (ordered[0] < 1 or ordered[-1] > pred.arity):
        raise ValueError(f"positions {ordered} out of range for {pred}")
    inner = ",".join(str(i) for i in ordered)
    return Pred(f"{pred.name}|{{{inner}}}", len(ordered))


@dataclass(frozen=True)
class PositionSet:
    """A map from predicate to a set of argument positions (1-based)."""

    entries: tuple[tuple[Pred, frozenset[int]], ...] = ()

    @staticmethod
    def of(mapping: Mapping[Pred, Iterable[int]]) -> "PositionSet":
        items = []
        for pred, positions in mapping.items():
            ps = frozenset(positions)
            if any(i < 1 or i > pred.arity for i in ps):
                raise ValueError(f"positions {sorted(ps)} out of range for {pred}")
            items.append((pred, ps))
        items.sort(key=lambda kv: (kv[0].name, kv[0].arity))
        return PositionSet(tuple(items))

    def get(self, pred: Pred) -> frozenset[int]:
        """Positions for a predicate; predicates without an entry map to the
        empty set."""
        for p, ps in self.entries:
            if p == pred:
                return ps
        return frozenset()

    def complement_for(self, pred: Pred) -> frozenset[int]:
        return frozenset(range(1, pred.arity + 1)) - self.get(pred)


def select_positions(items: tuple, positions: Iterable[int]) -> tuple:
    """Subsequence of a tuple at the given ascending 1-based positions."""
    return tuple(items[i - 1] for i in sorted(set(positions)))


def _keep_positions(q: Query, ps: frozenset[int]) -> Query:
    """Keep only the argument positions ps; the constraint is unchanged
    (dropped argument variables become existential)."""
    return Query(
        Atom(projected_pred(q.pred, ps), select_positions(q.atom.args, ps)),
        q.constraint,
    )


def project_query(q: Query, tau: PositionSet) -> Query:
    """Keep only the filtered argument positions."""
    return _keep_positions(q, tau.get(q.pred))


@dataclass(frozen=True)
class Filter:
    """Positions plus a condition query per predicate.  Condition queries are
    over the projected predicate and must have satisfiable constraints;
    predicates without an explicit condition default to the unconstrained
    query over their projected positions."""

    positions: PositionSet
    conditions: tuple[tuple[Pred, Query], ...] = ()

    @staticmethod
    def make(
        positions: PositionSet,
        conditions: Optional[Mapping[Pred, Query]] = None,
    ) -> "Filter":
        items = []
        for pred, q in (conditions or {}).items():
            expected = projected_pred(pred, positions.get(pred))
            if q.pred != expected:
                raise ValueError(
                    f"condition for {pred} must be over {expected}, got {q.pred}")
            if not linarith.satisfiable(q.constraint):
                raise ValueError(f"condition for {pred} is unsatisfiable: {q}")
            items.append((pred, q))
        items.sort(key=lambda kv: (kv[0].name, kv[0].arity))
        return Filter(positions, tuple(items))

    def condition(self, pred: Pred) -> Query:
        for p, q in self.conditions:
            if p == pred:
                return q
        ps = self.positions.get(pred)
        fresh = tuple(Var(f"X{i}") for i in range(1, len(ps) + 1))
        return Query(
            Atom(projected_pred(pred, ps), tuple(LinTerm.of_var(v) for v in fresh)),
            Constraint(()),
        )


# ---------------------------------------------------------------------------
# membership and inclusion

def membership(
    probe: tuple[LinTerm, ...], q: Query, gen: Optional[int] = None
) -> Constraint:
    """Constraint whose solutions, restricted to the variables of ``probe``,
    are exactly the valuations under which the tuple of probe values is
    denoted by q: the equations ``probe = t'`` plus the store of the variant
    of q at generation ``gen``.  ``gen`` must exceed every generation in
    probe and q; when omitted it is chosen that way."""
    if len(probe) != q.pred.arity:
        raise ValueError(f"probe arity {len(probe)} does not match {q.pred}")
    if gen is None:
        gen = 1 + max_gen(q, frozenset().union(*[t.variables for t in probe])
                          if probe else frozenset())
    variant: Query = rename_apart(q, gen)
    equations = tuple(compare(s, "=", t) for s, t in zip(probe, variant.atom.args))
    return Constraint(equations + variant.constraint.atoms)


def _gen_span(q: Query) -> int:
    return len({v.gen for v in q.variables}) or 1


def more_general(q_gen: Query, q: Query,
                 limit: int = linarith.DEFAULT_DNF_LIMIT) -> bool:
    """Whether q_gen denotes a superset of q.  Queries over distinct
    predicates are incomparable unless q denotes the empty set, in which case
    any query is more general."""
    if q_gen.pred != q.pred:
        return not linarith.satisfiable(q.constraint, limit)
    base = 1 + max_gen(q_gen, q)
    span_q = _gen_span(q)
    span_g = _gen_span(q_gen)
    probe_gen = base + span_q + span_g
    probe_vars = tuple(Var(f"W{i}", probe_gen) for i in range(1, q.pred.arity + 1))
    probe = tuple(LinTerm.of_var(v) for v in probe_vars)
    return linarith.decide(Entailment(
        membership(probe, q, base),
        membership(probe, q_gen, base + span_q),
        frozenset(probe_vars),
    ), limit)


def satisfies(q: Query, filt: Filter,
              limit: int = linarith.DEFAULT_DNF_LIMIT) -> bool:
    """Whether q's projection onto the filtered positions denotes a subset of
    the filter's condition query for q's predicate."""
    return more_general(filt.condition(q.pred),
                        project_query(q, filt.positions), limit)


def delta_more_general(q_gen: Query, q: Query, filt: Filter,
                       limit: int = linarith.DEFAULT_DNF_LIMIT) -> bool:
    """More general on the unfiltered positions, and q_gen satisfies the
    filter.  Transitive; not reflexive in general."""
    return more_general(
        _keep_positions(q_gen, filt.positions.complement_for(q_gen.pred)),
        _keep_positions(q, filt.positions.complement_for(q.pred)),
        limit,
    ) and satisfies(q_gen, filt, limit)
