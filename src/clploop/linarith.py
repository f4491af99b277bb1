"""Exact entailment between linear rational constraints.

Every question the prover asks is one :class:`Entailment`: does one
conjunction, projected onto some variables, entail another projected onto
the same variables?  There are three such questions, for a rule with
constraint c, filtered head variables H, filtered body variables B, R the
variables re-chosen (B plus the locals), O the other rule variables and M
the membership constraint of a filter condition:

* the head condition ``c[H renamed apart], M(H) |= c`` over O and H;
* the body condition ``c |= M(B)`` over B;
* query generality ``membership(W, Q) |= membership(W, Q1)`` over fresh
  probe variables W.

The admitted structure is the rationals with addition, rational constants
and the orderings.

The decision procedure is Fourier-Motzkin elimination.  Equalities containing
the eliminated variable are removed first by substitution, and every
remaining lower bound l REL1 x is combined with every upper bound x REL2 u
into l REL u, strict iff either side is strict.  `project` eliminates the
variables outside a set, `satisfiable` eliminates them all, and `decide`
projects both sides of an entailment onto its universal variables and
refutes the left side conjoined with the negation of each right-hand atom,
the standard entailment check of CLP(Q) solvers.  All arithmetic is exact
(`fractions.Fraction`); one configurable ceiling caps the conjuncts one
elimination step produces, raising :class:`ResourceLimitError` when
exceeded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .syntax import (
    REL_EQ,
    REL_LE,
    REL_LT,
    AtomicProp,
    Constraint,
    LinTerm,
    Var,
    _canon,
    _F0,
    _NEG_F1,
)

DEFAULT_DNF_LIMIT = 10**6


class ResourceLimitError(Exception):
    """Raised when one Fourier-Motzkin step exceeds the configured ceiling of
    conjuncts."""


def _slope_key(atoms_coeffs) -> tuple:
    return tuple((v.name, v.gen, c.numerator, c.denominator)
                 for v, c in atoms_coeffs)


def _neg_slope_key(key: tuple) -> tuple:
    return tuple((n, g, -num, den) for n, g, num, den in key)


def _simplify_conj(atoms: Iterable[AtomicProp]) -> Optional[tuple[AtomicProp, ...]]:
    """Normalize a conjunction: drop ground-true conjuncts, duplicates, and
    inequalities slackened by a tighter bound on the same slope (the growth
    mode of iterated projection, which otherwise accumulates shifted copies of
    one bound); fold inequalities settled by an equality over the same
    variables, and opposite non-strict bounds that meet into one equality.
    Returns None when a conjunct is ground-false or two conjuncts
    contradict outright."""
    eqs: dict[tuple, tuple[Fraction, AtomicProp]] = {}
    ineqs: dict[tuple, list] = {}  # slope -> [const, strict, atom]
    order: list[tuple[bool, tuple]] = []
    for a in atoms:
        if a.is_ground():
            if a.ground_truth():
                continue
            return None
        sk = _slope_key(a.term.coeffs)
        if a.rel == REL_EQ:
            prev = eqs.get(sk)
            if prev is not None:
                if prev[0] != a.term.const:
                    return None
                continue
            eqs[sk] = (a.term.const, a)
            order.append((True, sk))
        else:
            strict = a.rel == REL_LT
            cell = ineqs.get(sk)
            if cell is None:
                ineqs[sk] = [a.term.const, strict, a]
                order.append((False, sk))
            else:
                c0, s0, _ = cell
                c1 = a.term.const
                # s.x + c REL 0 is s.x <= -c: larger c is tighter
                if c1 > c0 or (c1 == c0 and strict and not s0):
                    cell[0], cell[1], cell[2] = c1, strict, a
    out: list[AtomicProp] = []
    for is_eq, sk in order:
        if is_eq:
            out.append(eqs[sk][1])
            continue
        c, strict, a = ineqs[sk]
        if a is None:
            continue  # folded into an equality with its opposite bound
        neg_sk = _neg_slope_key(sk)
        # an equality on the same or negated slope pins s.x to one value
        value: Optional[Fraction] = None
        same = eqs.get(sk)
        if same is not None:
            value = -same[0]
        else:
            opposite = eqs.get(neg_sk)
            if opposite is not None:
                value = opposite[0]
        if value is not None:
            # the inequality says s.x <= -c (or <)
            if value < -c or (value == -c and not strict):
                continue
            return None
        if not strict:
            opposite_bound = ineqs.get(neg_sk)
            if (opposite_bound is not None and not opposite_bound[1]
                    and opposite_bound[0] == -c):
                # s.x <= -c and s.x >= -c
                opposite_bound[2] = None
                a = _canon(a.term, REL_EQ)
        out.append(a)
    return tuple(out)


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination

def _eliminate_var_conj(
    atoms: Sequence[AtomicProp], x: Var, limit: int
) -> Optional[tuple[AtomicProp, ...]]:
    """Eliminate one variable from a conjunction.  Returns the reduced
    conjunction or None if it becomes inconsistent (ground-false)."""
    equalities = [a for a in atoms if a.rel == REL_EQ and a.term.coeff(x) != 0]
    if equalities:
        # solve x = -(rest)/c and substitute everywhere else
        eq = equalities[0]
        c = eq.term.coeff(x)
        rest = eq.term - LinTerm(((x, c),), _F0)
        replacement = rest.scaled(_NEG_F1 / c)
        out = [a.substitute({x: replacement}) for a in atoms if a is not eq]
        return _simplify_conj(out)

    kept: list[AtomicProp] = []
    lowers: list[tuple[LinTerm, bool]] = []  # (bound term, strict)
    uppers: list[tuple[LinTerm, bool]] = []
    for a in atoms:
        c = a.term.coeff(x)
        if c == 0:
            kept.append(a)
            continue
        rest = a.term - LinTerm(((x, c),), _F0)
        bound = rest.scaled(_NEG_F1 / c)
        strict = a.rel == REL_LT
        if c > 0:
            uppers.append((bound, strict))  # x <= bound
        else:
            lowers.append((bound, strict))  # bound <= x
    if len(kept) + len(lowers) * len(uppers) > limit:
        raise ResourceLimitError(f"elimination exceeds {limit} conjuncts")
    for lo, lo_strict in lowers:
        for up, up_strict in uppers:
            rel = REL_LT if (lo_strict or up_strict) else REL_LE
            kept.append(_canon(lo - up, rel))
    return _simplify_conj(kept)


def _cheapest_var(atoms: Sequence[AtomicProp], todo: set[Var]) -> Optional[Var]:
    """Greedy elimination order: the next variable to remove, preferring ones
    solvable by an equality (substitution adds nothing) and otherwise the one
    whose bound combination grows the conjunction least.  Variables absent
    from the atoms are dropped from ``todo``."""
    best: Optional[Var] = None
    best_cost = None
    for x in sorted(todo):
        lowers = uppers = 0
        present = False
        has_eq = False
        for a in atoms:
            c = a.term.coeff(x)
            if c == 0:
                continue
            present = True
            if a.rel == REL_EQ:
                has_eq = True
                break
            if c > 0:
                uppers += 1
            else:
                lowers += 1
        if not present:
            todo.discard(x)
            continue
        cost = -1 if has_eq else lowers * uppers - lowers - uppers
        if best_cost is None or cost < best_cost:
            best, best_cost = x, cost
            if cost == -1:
                break
    return best


def _eliminate_all(
    atoms: Optional[tuple[AtomicProp, ...]], drop: Iterable[Var], limit: int
) -> Optional[tuple[AtomicProp, ...]]:
    """Eliminate every variable of ``drop`` from a conjunction; None when the
    conjunction is inconsistent."""
    todo = set(drop)
    while todo and atoms:
        x = _cheapest_var(atoms, todo)
        if x is None:
            break
        todo.discard(x)
        atoms = _eliminate_var_conj(atoms, x, limit)
        if atoms is None:
            return None
    return atoms


def project(c: Constraint, keep: Iterable[Var], limit: int = DEFAULT_DNF_LIMIT) -> Constraint:
    """Existentially project a constraint onto ``keep``: the result is a
    constraint over (a subset of) keep describing the same solutions there.
    Projection of a conjunction stays a conjunction."""
    atoms = _eliminate_all(_simplify_conj(c.atoms), c.variables - set(keep), limit)
    if atoms is None:
        # unsatisfiable input: a ground-false conjunction
        return Constraint((AtomicProp(LinTerm.of_const(1), REL_LT),))
    return Constraint(atoms)


def satisfiable(c: Constraint, limit: int = DEFAULT_DNF_LIMIT) -> bool:
    """Whether a constraint has a rational solution."""
    return _eliminate_all(_simplify_conj(c.atoms), c.variables, limit) is not None


# ---------------------------------------------------------------------------
# entailment

@dataclass(frozen=True)
class Entailment:
    """For every valuation of ``over``: if ``lhs`` has a solution extending
    it, then so does ``rhs``.  Variables outside ``over`` are existential,
    each on its own side."""

    lhs: Constraint
    rhs: Constraint
    over: frozenset[Var]


def _negate_atom(a: AtomicProp) -> tuple[AtomicProp, ...]:
    """Atoms whose disjunction is the negation of ``a``."""
    t = a.term
    if a.rel == REL_EQ:
        return (_canon(t, REL_LT), _canon(-t, REL_LT))
    if a.rel == REL_LE:
        return (_canon(-t, REL_LT),)
    return (_canon(-t, REL_LE),)


def decide(e: Entailment, limit: int = DEFAULT_DNF_LIMIT) -> bool:
    """Whether the entailment holds over the rationals: with both sides
    projected onto ``over``, the left side conjoined with any atom of the
    negation of a right-hand atom is unsatisfiable."""
    lhs = project(e.lhs, e.over, limit).atoms
    have = set(lhs)
    for a in project(e.rhs, e.over, limit):
        if a in have:
            continue  # the projected left side contains a, so entails it
        for n in _negate_atom(a):
            if satisfiable(Constraint(lhs + (n,)), limit):
                return False
    return True


# ---------------------------------------------------------------------------
# deterministic solution sampling

def _pick_value(
    lo: Optional[Fraction], lo_strict: bool, hi: Optional[Fraction], hi_strict: bool
) -> Fraction:
    """Deterministic representative of a nonempty rational interval: the
    integer of smallest magnitude, ties broken toward the non-negative; the
    midpoint when the interval contains no integer."""

    def lowest_int(bound: Fraction, strict: bool) -> int:
        n = -((-bound).__floor__())  # ceil
        if strict and n == bound:
            n += 1
        return n

    def highest_int(bound: Fraction, strict: bool) -> int:
        n = bound.__floor__()
        if strict and n == bound:
            n -= 1
        return n

    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        h = highest_int(hi, hi_strict)
        return Fraction(min(0, h) if h >= 0 else h)
    if hi is None:
        l = lowest_int(lo, lo_strict)
        return Fraction(max(0, l) if l <= 0 else l)
    l, h = lowest_int(lo, lo_strict), highest_int(hi, hi_strict)
    if l <= h:
        return Fraction(min(max(0, l), h))
    return (lo + hi) / 2


def sample_solution(
    c: Constraint, variables: Optional[Iterable[Var]] = None,
    limit: int = DEFAULT_DNF_LIMIT,
) -> Optional[dict[Var, Fraction]]:
    """A deterministic solution of a constraint, or None when unsatisfiable.
    ``variables`` may extend the domain of the returned valuation;
    unconstrained variables get 0.  Values prefer the integer of smallest
    magnitude inside the feasible interval, ties toward the non-negative,
    midpoints when no integer fits."""
    order = sorted(c.variables.union(variables or ()))
    current: Optional[tuple[AtomicProp, ...]] = _simplify_conj(c.atoms)
    valuation: dict[Var, Fraction] = {}
    for x in order:
        if current is None:
            return None
        # project the remaining system onto x alone; over the rationals the
        # projected interval is exactly the set of feasible x values
        others = {v for a in current for v in a.variables} - {x}
        onto_x = _eliminate_all(current, others, limit)
        if onto_x is None:
            return None
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        lo_strict = hi_strict = False
        for a in onto_x:
            k = a.term.coeff(x)
            if k == 0:
                continue  # ground leftovers are true after _simplify_conj
            bound = -a.term.const / k
            if a.rel == REL_EQ:
                if (lo is None or bound > lo or (bound == lo and not lo_strict)) :
                    lo, lo_strict = bound, False
                if hi is None or bound < hi or (bound == hi and not hi_strict):
                    hi, hi_strict = bound, False
            elif k > 0:  # x <= bound
                if hi is None or bound < hi or (bound == hi and a.rel == REL_LT):
                    hi, hi_strict = bound, a.rel == REL_LT
            else:  # bound <= x
                if lo is None or bound > lo or (bound == lo and a.rel == REL_LT):
                    lo, lo_strict = bound, a.rel == REL_LT
        value = _pick_value(lo, lo_strict, hi, hi_strict)
        valuation[x] = value
        current = _simplify_conj(
            a.substitute({x: LinTerm.of_const(value)}) for a in current
        )
    if current is None or current:
        # leftover unsubstituted atoms would mean a variable escaped `order`
        if current:
            raise AssertionError("sampling left unresolved conjuncts")
        return None
    return valuation
