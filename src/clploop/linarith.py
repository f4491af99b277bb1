"""Exact entailment between linear rational constraints.

Every question the prover asks is one :class:`Entailment`: does one
conjunction, projected onto some variables, entail another projected onto
the same variables?  There are three such questions, for a rule with
constraint c, filtered head variables H, filtered body variables B, O the
unfiltered head and body variables, ``proj(c, V)`` the projection of c onto
V, ``cond(m) = proj(c, H)`` the condition of the filter at head positions m
(``cond(m)<B>`` with H renamed to B) and ``den(Q)`` the denotation of a
query Q as a constraint over probe variables W:

* the head condition ``proj(c, O), cond(m) |= proj(c, O u H)`` over O
  and H;
* the body condition ``c |= cond(m)<B>`` over B;
* query generality ``den(Q) |= den(Q1)`` over W, or over the probes at the
  unfiltered positions for filter generality, whose filter half is the
  body condition (filters).

The admitted structure is the rationals with addition, rational constants
and the orderings.

The decision procedure is Fourier-Motzkin elimination over integers.  Every
atom is a primitive integer vector that holds its ``int`` coefficients and
constant (see :class:`syntax.AtomicProp`), so each step is an integer
combination of two atoms that cancels the eliminated variable x, divided by
the gcd of its entries, as in the normalization of the Omega test (Pugh,
CACM 1992).  Equalities containing x are removed first
by substitution: an equality with coefficient c on x turns an atom a with
coefficient d on x into ``|c|*a - sign(c)*d*eq``.  Every remaining lower
bound ``lo`` (coefficient -b on x, b > 0) is combined with every upper bound
``up`` (coefficient a > 0) into ``b*up + a*lo``, strict iff either side is
strict.  A step that adds no atom, because x occurs only in the equality
that eliminates it or has lower bounds only or upper bounds only, returns
the atoms without x as they are: they are an order-preserving subset of a
simplified conjunction, which simplification leaves unchanged.
`project` eliminates the variables outside a set, `satisfiable`
eliminates them all, and `decide` projects both sides of an entailment onto
its universal variables (a side already over them is taken as it is) and
refutes the left side conjoined with the negation of each right-hand atom,
the standard entailment check of CLP(Q) solvers.  The three, and
`sample_solution`, share one elimination loop, :func:`_eliminate_all`.
When the left side carries the record that it is satisfiable (see
:class:`syntax.Constraint`), a refutation keeps the atoms derived from the
negated atom apart from the left side's and stops as soon as none is left,
as an incremental CLP(Q) solver checks only what a constraint added to a
solved store reaches (Jaffar, Michaylov, Stuckey & Yap, TOPLAS 1992).  All
arithmetic is exact;
sampled values are ``Fraction``s.  One configurable ceiling caps the
conjuncts one elimination step produces, raising
:class:`ResourceLimitError` when exceeded.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .syntax import (
    REL_EQ,
    REL_LE,
    REL_LT,
    AtomicProp,
    Constraint,
    LinTerm,
    Var,
    _atom,
)

DEFAULT_DNF_LIMIT = 10**6


class ResourceLimitError(Exception):
    """Raised when one Fourier-Motzkin step exceeds the configured ceiling of
    conjuncts."""


def _simplify_conj(atoms: Iterable[AtomicProp]) -> Optional[tuple[AtomicProp, ...]]:
    """Normalize a conjunction: drop ground-true conjuncts, duplicates, and
    inequalities slackened by a tighter bound on the same slope (the growth
    mode of iterated projection, which otherwise accumulates shifted copies of
    one bound); fold inequalities settled by an equality over the same
    variables, and opposite non-strict bounds that meet into one equality.
    Returns None when a conjunct is ground-false or two conjuncts
    contradict outright.  An atom with slope (d, s, g) (see
    :meth:`AtomicProp.slope`) and constant k says ``s*d.x + k/g REL 0``; the
    constants of atoms on one slope are compared by cross-multiplication."""
    eqs: dict[tuple, tuple[int, int, AtomicProp]] = {}  # d -> (k, g, atom)
    ineqs: dict[tuple, list] = {}  # (d, s) -> [k, g, strict, atom]
    order: list[tuple[bool, tuple]] = []
    for a in atoms:
        if a.is_ground():
            if a.ground_truth():
                continue
            return None
        d, s, g = a.slope()
        k = a.const
        if a.rel == REL_EQ:
            prev = eqs.get(d)
            if prev is not None:
                if prev[0] * g != k * prev[1]:
                    return None
                continue
            eqs[d] = (k, g, a)
            order.append((True, d))
        else:
            strict = a.rel == REL_LT
            key = (d, s)
            cell = ineqs.get(key)
            if cell is None:
                ineqs[key] = [k, g, strict, a]
                order.append((False, key))
            else:
                k0, g0, s0, _ = cell
                # s*d.x <= -k/g (or <): larger k/g is tighter
                if k * g0 > k0 * g or (k * g0 == k0 * g and strict and not s0):
                    cell[:] = k, g, strict, a
    out: list[AtomicProp] = []
    for is_eq, key in order:
        if is_eq:
            out.append(eqs[key][2])
            continue
        k, g, strict, a = ineqs[key]
        if a is None:
            continue  # folded into an equality with its opposite bound
        d, s = key
        pinned = eqs.get(d)
        if pinned is not None:
            # the equality pins d.x to -ke/ge; s*d.x + k/g there, times g*ge
            ke, ge, _ = pinned
            slack = k * ge - s * ke * g
            if slack < 0 or (slack == 0 and not strict):
                continue
            return None
        if not strict:
            bound = ineqs.get((d, -s))
            if (bound is not None and not bound[2]
                    and bound[0] * g == -k * bound[1]):
                # s*d.x <= -k/g and s*d.x >= -k/g
                bound[3] = None
                a = _atom(a.coeffs, k, REL_EQ)
        out.append(a)
    return tuple(out)


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination

def _combine(p: int, a: AtomicProp, q: int, b: AtomicProp, x: Var,
             rel: str) -> AtomicProp:
    """The atom ``p*a + q*b REL 0``, where p and q cancel x."""
    acc = {v: p * c for v, c in a.coeffs}
    for v, c in b.coeffs:
        acc[v] = acc.get(v, 0) + q * c
    del acc[x]
    return _atom(tuple(sorted((v, c) for v, c in acc.items() if c)),
                 p * a.const + q * b.const, rel)


def _eliminate_var_conj(
    atoms: Sequence[AtomicProp], x: Var, limit: int,
    known: Optional[set[AtomicProp]] = None,
) -> Optional[tuple[AtomicProp, ...]]:
    """Eliminate one variable from a conjunction, an order-preserving subset
    of a :func:`_simplify_conj` result.  Returns the reduced conjunction or
    None if it becomes inconsistent (ground-false).  A step that adds no
    atom returns the atoms without x as they are: ``_simplify_conj`` would
    return them unchanged.  ``known``, if given, is a set of atoms implied by
    some satisfiable conjunction; each atom the step combines from two known
    atoms is implied by it too and is added to the set."""
    with_x = [(a, a.coeff(x)) for a in atoms]
    eq, c = next(((a, c) for a, c in with_x if c and a.rel == REL_EQ), (None, 0))
    if eq is not None:
        if not any(d for a, d in with_x if a is not eq):
            return tuple(a for a in atoms if a is not eq)
        eq_known = known is not None and eq in known
        out = []
        for a, d in with_x:
            if a is eq:
                continue
            if d:
                # |c|*a - sign(c)*d*eq cancels the d*x of a
                b = _combine(abs(c), a, -d if c > 0 else d, eq, x, a.rel)
                if eq_known and a in known:
                    known.add(b)
                a = b
            out.append(a)
        return _simplify_conj(out)

    kept: list[AtomicProp] = []
    lowers: list[tuple[AtomicProp, int]] = []  # (atom, -coefficient of x)
    uppers: list[tuple[AtomicProp, int]] = []
    for a, c in with_x:
        if c == 0:
            kept.append(a)
        elif c > 0:
            uppers.append((a, c))  # x <= -rest/c
        else:
            lowers.append((a, -c))  # -rest/c <= x
    if len(kept) + len(lowers) * len(uppers) > limit:
        raise ResourceLimitError(f"elimination exceeds {limit} conjuncts")
    if not lowers or not uppers:
        return tuple(kept)
    for lo, b in lowers:
        lo_known = known is not None and lo in known
        for up, a in uppers:
            rel = REL_LT if REL_LT in (lo.rel, up.rel) else REL_LE
            combined = _combine(b, up, a, lo, x, rel)
            kept.append(combined)
            if lo_known and up in known:
                known.add(combined)
    return _simplify_conj(kept)


def _cheapest_var(atoms: Sequence[AtomicProp],
                  todo: set[Var]) -> tuple[Optional[Var], Optional[int]]:
    """Greedy elimination order: the next variable of ``todo`` to remove and
    its cost, the change in the number of atoms its elimination makes,
    ``lowers*uppers - lowers - uppers`` for its lower and upper bounds, or -1
    when an equality contains it (substitution adds nothing).  Variables are
    scanned in name order and the first of least cost wins, but the scan
    ends at the first variable whose cost -1 makes it a new best, so a later
    one of lower cost (one-sided, with two or more bounds) is not reached.
    Variables absent from the atoms are dropped from ``todo``; ``(None,
    None)`` when none is left."""
    best: Optional[Var] = None
    best_cost = None
    for x in sorted(todo):
        lowers = uppers = 0
        present = False
        has_eq = False
        for a in atoms:
            c = a.coeff(x)
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
    return best, best_cost


def _eliminate_all(
    atoms: Optional[tuple[AtomicProp, ...]], drop: Iterable[Var], limit: int,
    known: Optional[set[AtomicProp]] = None,
) -> Optional[tuple[AtomicProp, ...]]:
    """Eliminate every variable of ``drop`` from a conjunction; None when the
    conjunction is inconsistent.

    ``known``, if given, is a set of atoms implied by some satisfiable
    conjunction, which grows as the steps combine known atoms (see
    :func:`_eliminate_var_conj`), and ``drop`` holds every variable; the
    atoms outside ``known`` are the derived ones.  The known atoms left at
    any point are jointly satisfiable, so the loop stops and returns the
    atoms left as soon as none of them is derived: the result then tells
    satisfiability only.  It eliminates first a variable of a derived atom
    whose elimination shrinks the conjunction (:func:`_cheapest_var` cost
    at most -1), and otherwise the cheapest variable.  Without ``known``
    every atom is derived, and that order is the cheapest variable's."""
    todo = set(drop)
    while todo and atoms:
        if known is None:
            x, _ = _cheapest_var(atoms, todo)
        else:
            reach = {v for a in atoms if a not in known for v in a.variables}
            if not reach:
                break
            x, cost = _cheapest_var(atoms, reach)
            if cost > -1:
                x, _ = _cheapest_var(atoms, todo)
        if x is None:
            break
        todo.discard(x)
        atoms = _eliminate_var_conj(atoms, x, limit, known)
        if atoms is None:
            return None
    return atoms


def project(c: Constraint, keep: Iterable[Var], limit: int = DEFAULT_DNF_LIMIT) -> Constraint:
    """Existentially project a constraint onto ``keep``: the result is a
    constraint over (a subset of) keep describing the same solutions there.
    Projection of a conjunction stays a conjunction, and it carries c's
    satisfiability record (see :class:`syntax.Constraint`)."""
    atoms = _eliminate_all(_simplify_conj(c.atoms), c.variables - set(keep), limit)
    if atoms is None:
        # unsatisfiable input: a ground-false conjunction
        out = Constraint((_atom((), 1, REL_LT),))
        out._sat = False
        return out
    out = Constraint(atoms)
    out._sat = c._sat
    return out


def satisfiable(c: Constraint, limit: int = DEFAULT_DNF_LIMIT) -> bool:
    """Whether a constraint has a rational solution: every variable is
    eliminated, with no atom known.  The verdict is recorded on c."""
    sat = _eliminate_all(_simplify_conj(c.atoms), c.variables, limit) is not None
    c._sat = sat
    return sat


# ---------------------------------------------------------------------------
# entailment

class Entailment(NamedTuple):
    """For every valuation of ``over``: if ``lhs`` has a solution extending
    it, then so does ``rhs``.  Variables outside ``over`` are existential,
    each on its own side."""

    lhs: Constraint
    rhs: Constraint
    over: frozenset[Var]


def _negate_atom(a: AtomicProp) -> tuple[AtomicProp, ...]:
    """Atoms whose disjunction is the negation of ``a``."""
    neg = tuple((v, -c) for v, c in a.coeffs)
    if a.rel == REL_EQ:
        return (_atom(a.coeffs, a.const, REL_LT), _atom(neg, -a.const, REL_LT))
    if a.rel == REL_LE:
        return (_atom(neg, -a.const, REL_LT),)
    return (_atom(neg, -a.const, REL_LE),)


def _onto(c: Constraint, over: frozenset[Var], limit: int) -> Constraint:
    """c projected onto ``over``; c itself when all its variables lie in
    ``over``, since such a projection eliminates nothing."""
    if c.variables <= over:
        return c
    return project(c, over, limit)


def decide(e: Entailment, limit: int = DEFAULT_DNF_LIMIT) -> bool:
    """Whether the entailment holds over the rationals: with both sides
    projected onto ``over``, the left side conjoined with any atom of the
    negation of a right-hand atom is unsatisfiable.  A side whose variables
    already lie in ``over`` is taken as it is, unsimplified: the left side
    entails a conjunction exactly when it entails each of its atoms, so the
    verdict does not depend on the form of the right side, and the
    elimination simplifies the left side itself.

    When the left side is recorded satisfiable (see
    :class:`syntax.Constraint`), the set of atoms it implies, at first its
    own, is known to :func:`_eliminate_all`, which adds to it the atoms it
    combines from known ones: a refutation stops once no atom derived from
    the negated atom is left, as an incremental CLP(Q) solver checks only
    what a constraint added to a solved store reaches, and a right-hand
    atom found in the set is entailed without one.  Otherwise every
    variable is eliminated, as :func:`satisfiable` does."""
    left = _onto(e.lhs, e.over, limit)
    lhs = left.atoms
    have = set(lhs)  # atoms the left side implies
    known = have if left._sat else None
    for a in _onto(e.rhs, e.over, limit).atoms:
        if a in have:
            continue  # the projected left side implies a
        for n in _negate_atom(a):
            # both sides lie over `over`, so eliminating it leaves no variable
            if _eliminate_all(_simplify_conj(lhs + (n,)), e.over, limit, known) is not None:
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
            k = a.coeff(x)
            if k == 0:
                continue  # ground leftovers are true after _simplify_conj
            bound = Fraction(-a.const, k)
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
