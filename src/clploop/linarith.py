"""Exact first-order reasoning over linear rational arithmetic.

The formula language has seven node kinds: the atomic propositions of the
syntax module, true, false, negation, conjunction, disjunction and the
existential quantifier.  Implication and the universal quantifier are built
from them by `implies` and `forall`.  The admitted structure is the rationals
with addition, rational constants and the orderings; every connective and
quantifier is decidable here by quantifier elimination.

The decision pipeline is Fourier-Motzkin elimination: a quantifier-free body
is put into disjunctive normal form, equalities containing the eliminated
variable are removed first by substitution, and every remaining lower bound
l REL1 x is combined with every upper bound x REL2 u into l REL u, strict iff
either side is strict.  `decide` closes the formula universally and
evaluates the ground residue.  All arithmetic is exact (`fractions.Fraction`);
one configurable ceiling caps both the disjuncts of a normal form and the
conjuncts an elimination step produces, raising :class:`ResourceLimitError`
when exceeded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

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

Valuation = Mapping[Var, Fraction]

DEFAULT_DNF_LIMIT = 10**6


class ResourceLimitError(Exception):
    """Raised when a disjunctive normal form exceeds the configured ceiling
    of disjuncts, or one Fourier-Motzkin step exceeds it in conjuncts."""


class EvalError(Exception):
    """Raised by eval on quantified formulas or unbound variables."""


# ---------------------------------------------------------------------------
# formulas

class _Node:
    __slots__ = ()


@dataclass(frozen=True)
class Top(_Node):
    def __str__(self):
        return "true"


@dataclass(frozen=True)
class Bottom(_Node):
    def __str__(self):
        return "false"


TRUE = Top()
FALSE = Bottom()


@dataclass(frozen=True)
class Not(_Node):
    arg: "Formula"


@dataclass(frozen=True)
class And(_Node):
    args: tuple["Formula", ...]


@dataclass(frozen=True)
class Or(_Node):
    args: tuple["Formula", ...]


@dataclass(frozen=True)
class Exists(_Node):
    vars: tuple[Var, ...]
    body: "Formula"


Formula = Union[AtomicProp, Top, Bottom, Not, And, Or, Exists]


def conj(*parts: Formula) -> Formula:
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, Top):
            continue
        if isinstance(p, Bottom):
            return FALSE
        if isinstance(p, And):
            flat.extend(p.args)
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*parts: Formula) -> Formula:
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, Bottom):
            continue
        if isinstance(p, Top):
            return TRUE
        if isinstance(p, Or):
            flat.extend(p.args)
        else:
            flat.append(p)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def neg(f: Formula) -> Formula:
    if isinstance(f, Top):
        return FALSE
    if isinstance(f, Bottom):
        return TRUE
    if isinstance(f, Not):
        return f.arg
    return Not(f)


def implies(a: Formula, b: Formula) -> Formula:
    return disj(neg(a), b)


def exists(variables: Iterable[Var], body: Formula) -> Formula:
    vs = tuple(variables)
    if not vs:
        return body
    return Exists(vs, body)


def forall(variables: Iterable[Var], body: Formula) -> Formula:
    return neg(exists(variables, neg(body)))


def to_formula(obj) -> Formula:
    """Coerce a Constraint (or formula) into a Formula."""
    if isinstance(obj, Constraint):
        return conj(*obj.atoms)
    return obj


def free_vars(f: Formula) -> frozenset[Var]:
    if isinstance(f, AtomicProp):
        return f.variables
    if isinstance(f, (Top, Bottom)):
        return frozenset()
    if isinstance(f, Not):
        return free_vars(f.arg)
    if isinstance(f, (And, Or)):
        out: frozenset[Var] = frozenset()
        for a in f.args:
            out |= free_vars(a)
        return out
    if isinstance(f, Exists):
        return free_vars(f.body) - set(f.vars)
    raise TypeError(f"not a formula: {type(f).__name__}")


def substitute(f: Formula, mapping: Mapping[Var, object]) -> Formula:
    """Substitute linear terms or rational constants for free variables."""
    terms = {
        v: t if isinstance(t, LinTerm) else LinTerm.of_const(t)
        for v, t in mapping.items()
    }

    def go(g: Formula, active: Mapping[Var, LinTerm]) -> Formula:
        if isinstance(g, AtomicProp):
            return g.substitute(active)
        if isinstance(g, (Top, Bottom)):
            return g
        if isinstance(g, Not):
            return Not(go(g.arg, active))
        if isinstance(g, And):
            return And(tuple(go(a, active) for a in g.args))
        if isinstance(g, Or):
            return Or(tuple(go(a, active) for a in g.args))
        if isinstance(g, Exists):
            inner = {v: t for v, t in active.items() if v not in g.vars}
            return Exists(g.vars, go(g.body, inner))
        raise TypeError(f"not a formula: {type(g).__name__}")

    return go(f, terms)


# ---------------------------------------------------------------------------
# evaluation of quantifier-free formulas

def eval_formula(f: Formula, valuation: Valuation) -> bool:
    """Exact truth value of a quantifier-free formula under a valuation.
    Raises EvalError on quantifiers or variables missing from the valuation."""
    if isinstance(f, AtomicProp):
        try:
            return f.eval(valuation)
        except KeyError as err:
            raise EvalError(f"unbound variable {err.args[0]}") from None
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Not):
        return not eval_formula(f.arg, valuation)
    if isinstance(f, And):
        return all(eval_formula(a, valuation) for a in f.args)
    if isinstance(f, Or):
        return any(eval_formula(a, valuation) for a in f.args)
    if isinstance(f, Exists):
        raise EvalError("cannot evaluate a quantified formula; use decide")
    raise TypeError(f"not a formula: {type(f).__name__}")


# ---------------------------------------------------------------------------
# disjunctive normal form

def _negate_atom(a: AtomicProp) -> Formula:
    t = a.term
    if a.rel == REL_EQ:
        return disj(_canon(t, REL_LT), _canon(-t, REL_LT))
    if a.rel == REL_LE:
        return _canon(-t, REL_LT)
    return _canon(-t, REL_LE)


def _nnf(f: Formula, negated: bool) -> Formula:
    if isinstance(f, AtomicProp):
        return _negate_atom(f) if negated else f
    if isinstance(f, Top):
        return FALSE if negated else TRUE
    if isinstance(f, Bottom):
        return TRUE if negated else FALSE
    if isinstance(f, Not):
        return _nnf(f.arg, not negated)
    if isinstance(f, And):
        parts = tuple(_nnf(a, negated) for a in f.args)
        return disj(*parts) if negated else conj(*parts)
    if isinstance(f, Or):
        parts = tuple(_nnf(a, negated) for a in f.args)
        return conj(*parts) if negated else disj(*parts)
    if isinstance(f, Exists):
        raise ValueError("quantifier inside a quantifier-free context")
    raise TypeError(f"not a formula: {type(f).__name__}")


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
    variables.  Returns None when a conjunct is ground-false or two conjuncts
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
        # an equality on the same or negated slope pins s.x to one value
        value: Optional[Fraction] = None
        same = eqs.get(sk)
        if same is not None:
            value = -same[0]
        else:
            opposite = eqs.get(_neg_slope_key(sk))
            if opposite is not None:
                value = opposite[0]
        if value is not None:
            # the inequality says s.x <= -c (or <)
            if value < -c or (value == -c and not strict):
                continue
            return None
        out.append(a)
    return tuple(out)


def to_dnf(f: Formula, limit: int = DEFAULT_DNF_LIMIT) -> list[tuple[AtomicProp, ...]]:
    """Disjunctive normal form as a list of conjunctions of atomic
    propositions.  An empty list is false; a list containing the empty
    conjunction is true.  Raises ResourceLimitError past ``limit`` disjuncts."""
    # bare conjunctions (constraint stores) skip the NNF walk
    if isinstance(f, AtomicProp):
        single = _simplify_conj((f,))
        return [] if single is None else [single]
    if isinstance(f, And) and all(isinstance(a, AtomicProp) for a in f.args):
        single = _simplify_conj(f.args)
        return [] if single is None else [single]
    g = _nnf(f, False)

    def go(nd: Formula) -> list[tuple[AtomicProp, ...]]:
        if isinstance(nd, Top):
            return [()]
        if isinstance(nd, Bottom):
            return []
        if isinstance(nd, AtomicProp):
            return [(nd,)]
        if isinstance(nd, Or):
            out: list[tuple[AtomicProp, ...]] = []
            for a in nd.args:
                out.extend(go(a))
                if len(out) > limit:
                    raise ResourceLimitError(
                        f"normal form exceeds {limit} disjuncts")
            return out
        if isinstance(nd, And):
            acc: list[tuple[AtomicProp, ...]] = [()]
            for a in nd.args:
                branch = go(a)
                if len(acc) * max(len(branch), 1) > limit:
                    raise ResourceLimitError(
                        f"normal form exceeds {limit} disjuncts")
                acc = [d1 + d2 for d1 in acc for d2 in branch]
                if not acc:
                    return []
            return acc
        raise TypeError(f"unexpected node in NNF: {type(nd).__name__}")

    result = []
    for d in go(g):
        simplified = _simplify_conj(d)
        if simplified is not None:
            result.append(simplified)
    return result


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


def eliminate_exists(
    variables: Iterable[Var], f: Formula, limit: int = DEFAULT_DNF_LIMIT
) -> Formula:
    """Quantifier elimination for ``exists variables . f`` with f
    quantifier-free.  The result is a quantifier-free formula over the
    remaining variables, equivalent in the rationals."""
    todo = set(variables)
    disjuncts = to_dnf(f, limit)
    out: list[tuple[AtomicProp, ...]] = []
    seen: set[tuple[AtomicProp, ...]] = set()
    for d in disjuncts:
        atoms = _eliminate_all(_simplify_conj(d), todo, limit)
        if atoms is None:
            continue
        if not atoms:
            return TRUE  # one disjunct collapsed to true
        if atoms not in seen:
            seen.add(atoms)
            out.append(atoms)
    if not out:
        return FALSE
    return disj(*[conj(*d) for d in out])


def _qe(f: Formula, limit: int) -> Formula:
    """Eliminate all quantifiers innermost-first; result is quantifier-free."""
    if isinstance(f, (AtomicProp, Top, Bottom)):
        return f
    if isinstance(f, Not):
        return neg(_qe(f.arg, limit))
    if isinstance(f, And):
        return conj(*[_qe(a, limit) for a in f.args])
    if isinstance(f, Or):
        return disj(*[_qe(a, limit) for a in f.args])
    if isinstance(f, Exists):
        return eliminate_exists(f.vars, _qe(f.body, limit), limit)
    raise TypeError(f"not a formula: {type(f).__name__}")


def decide(f, limit: int = DEFAULT_DNF_LIMIT) -> bool:
    """Validity of the universal closure of ``f`` over the rationals."""
    g = to_formula(f)
    return eval_formula(_qe(forall(sorted(free_vars(g)), g), limit), {})


def satisfiable(c, limit: int = DEFAULT_DNF_LIMIT) -> bool:
    """Satisfiability of a constraint or quantifier-free formula."""
    f = to_formula(c)
    fv = sorted(free_vars(f))
    return decide(exists(fv, f), limit)


def project(c: Constraint, keep: Iterable[Var], limit: int = DEFAULT_DNF_LIMIT) -> Constraint:
    """Existentially project a constraint onto ``keep``: the result is a
    constraint over (a subset of) keep describing the same solutions there.
    Projection of a conjunction stays a conjunction."""
    atoms = _eliminate_all(_simplify_conj(c.atoms), c.variables - set(keep), limit)
    if atoms is None:
        # unsatisfiable input: a ground-false conjunction
        return Constraint((AtomicProp(LinTerm.of_const(1), REL_LT),))
    return Constraint(atoms)


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


def _sample_conj(
    atoms: Sequence[AtomicProp], variables: Iterable[Var], limit: int
) -> Optional[dict[Var, Fraction]]:
    order = sorted(set(variables) | {v for a in atoms for v in a.variables})
    current: Optional[tuple[AtomicProp, ...]] = _simplify_conj(atoms)
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
            c = a.term.coeff(x)
            if c == 0:
                continue  # ground leftovers are true after _simplify_conj
            bound = -a.term.const / c
            if a.rel == REL_EQ:
                if (lo is None or bound > lo or (bound == lo and not lo_strict)) :
                    lo, lo_strict = bound, False
                if hi is None or bound < hi or (bound == hi and not hi_strict):
                    hi, hi_strict = bound, False
            elif c > 0:  # x <= bound
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


def sample_solution(
    c, variables: Optional[Iterable[Var]] = None, limit: int = DEFAULT_DNF_LIMIT
) -> Optional[dict[Var, Fraction]]:
    """A deterministic solution of a constraint (or quantifier-free formula),
    or None when unsatisfiable.  ``variables`` may extend the domain of the
    returned valuation; unconstrained variables get 0.  Values prefer the
    integer of smallest magnitude inside the feasible interval, ties toward
    the non-negative, midpoints when no integer fits."""
    extra = tuple(variables) if variables is not None else ()
    f = to_formula(c)
    for d in to_dnf(f, limit):
        solution = _sample_conj(d, set(extra) | free_vars(f), limit)
        if solution is not None:
            return solution
    return None
