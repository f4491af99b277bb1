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
CACM 1992).  Equalities containing x are removed first by substitution: an
equality with coefficient c on x turns an atom a with coefficient d on x
into ``|c|*a - sign(c)*d*eq``, in a's place.  Otherwise every lower bound
``lo`` (coefficient -b on x, b > 0) is combined with every upper bound
``up`` (coefficient a > 0) into ``b*up + a*lo``, strict iff either side is
strict, after the atoms without x.  After each step the conjunction is the
simplification (:func:`_simplify_conj`) of that list, order included.

The conjunction under elimination is one indexed store (:class:`_Store`),
built once per elimination from a simplified conjunction.  It holds the
atoms in insertion order, and for each variable still to eliminate the
counts of its lower bounds, upper bounds and equalities and the positions
of its atoms.  A step reads x's atoms from the index, removes them and
merges its new atoms by their slopes: only a slope that a new atom shares
with another is simplified again, since every other one already is.  The
slope rules live there alone (:meth:`_Store._resolve`, which compares two
atoms of one slope by :func:`_implies`): simplifying a list is merging it
into a store with nothing to eliminate.  The next variable is the cheapest
by those counts.  This is the incremental solver's rule of touching only
what a new constraint reaches in a solved store (Jaffar, Michaylov, Stuckey
& Yap, TOPLAS 1992).

One routine, :func:`_eliminate`, runs every elimination.  It simplifies
its input first, unless the constraint is recorded simplified (see
:class:`syntax.Constraint`), and records it simplified when that leaves it
unchanged.  It builds no store in Fourier-Motzkin's base case, where no
variable to eliminate is in an equality or bounded on both sides: each step
then only deletes the variable's atoms (Dantzig & Eaves, JCT A 1973), so
the result is the atoms without those variables, in order, and, with at
most as many atoms as the ceiling of conjuncts, no step exceeds it.

`project` eliminates the variables outside a set, `satisfiable` eliminates
them all, `sample_solution` projects along one chain, the last-named
variable first, and picks values back along it, and `decide` eliminates
the left side's variables outside its universal variables, projects the
right side onto them (a right side already over them is taken as it is)
and refutes the left side conjoined with the negation of each right-hand
atom, the standard entailment check of CLP(Q) solvers: it merges the
negated atom into a store of the left side.  A right-hand atom implied by
one left atom of its slope needs no refutation (the quasi-syntactic
redundancy of Lassez, Huynh & McAloon, 1993).  When the left side of an
entailment carries the record that it is satisfiable, the store flags its
atoms known, and a refutation stops as soon as no atom derived from the
negated atom is left.  All arithmetic is exact; sampled values are
``Fraction``s.  One configurable ceiling caps the conjuncts one elimination
step produces, raising :class:`ResourceLimitError` when exceeded.
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
    contradict outright.  The atoms are merged, in order, into a store with
    nothing to eliminate, whose :meth:`_Store._resolve` holds these rules;
    when no atom is ground and no two share a slope, no rule applies, and
    the atoms are returned as they are."""
    atoms = tuple(atoms)
    if all(a.coeffs for a in atoms) and len({a.slope()[0] for a in atoms}) == len(atoms):
        return atoms
    store = _Store((), frozenset(), DEFAULT_DNF_LIMIT)
    if not store.merge([(None, a, False) for a in atoms]):
        return None
    return store.conjunction()


def _implies(b: AtomicProp, a: AtomicProp) -> bool:
    """Whether atom b implies atom a, two non-ground atoms of one slope d,
    each read as ``s*d.x + k/g REL 0`` with (d, s, g) its slope and k its
    constant.  An equality (led by a positive coefficient, so s = 1) pins
    d.x to -k/g, and b implies a when a holds there.  A bound implies a
    bound of its direction s that is no tighter: a larger k/g is tighter,
    and at an equal k/g a strict bound is tighter than a non-strict one."""
    _, sa, ga = a.slope()
    _, sb, gb = b.slope()
    if b.rel == REL_EQ:
        v = a.const * gb - sa * b.const * ga  # s*d.x + k/g at d.x = -kb/gb, times g*gb
        return v == 0 if a.rel == REL_EQ else v < 0 if a.rel == REL_LT else v <= 0
    if a.rel == REL_EQ or sa != sb:
        return False
    diff = a.const * gb - b.const * ga
    return diff < 0 or (diff == 0 and (a.rel == REL_LE or b.rel == REL_LT))


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


class _Store:
    """A simplified conjunction under elimination, indexed so that a
    Fourier-Motzkin step touches only the eliminated variable's atoms and
    the slopes its new atoms reach.

    ``atoms`` holds the conjunction by position, None where an atom was
    removed; read in position order it is the conjunction.  ``index`` maps
    each variable of ``drop`` that occurs in some atom to ``[lowers, uppers,
    equalities, {position: coefficient}]``: the counts of its atoms by
    coefficient sign, equalities apart, and where they are.  ``slopes`` maps
    each slope d (see :meth:`AtomicProp.slope`) to the positions of its
    atoms, or is None until the first merge needs it.
    ``derived``, when the store tracks known atoms, holds the positions of
    the atoms that are not known, and is None otherwise.

    New atoms are merged as if the whole conjunction were simplified as one
    list, order included: each goes at the end or, for an atom an equality
    substitution made, at the position of the atom it replaces; a slope that
    new atoms share with another atom is then simplified on its own
    (:meth:`_resolve`), and every other slope already is."""

    __slots__ = ("atoms", "index", "slopes", "drop", "derived", "limit")

    def __init__(self, atoms: Sequence[AtomicProp], drop: frozenset[Var] | set[Var],
                 limit: int, derived: Optional[set[int]] = None):
        """A store of ``atoms``, a simplified conjunction; ``derived`` as the
        attribute of that name."""
        self.atoms: list[Optional[AtomicProp]] = list(atoms)
        self.index: dict[Var, list] = {}
        self.slopes: Optional[dict[tuple, list[int]]] = None
        self.drop = drop
        self.derived = derived
        self.limit = limit
        for p, a in enumerate(atoms):
            self._place(p, a, False, None)

    def conjunction(self) -> tuple[AtomicProp, ...]:
        return tuple(filter(None, self.atoms))  # the holes are None

    def _place(self, p: int, a: AtomicProp, derived: bool, d: tuple) -> None:
        """Put the non-ground atom a of slope d at position p and index it."""
        self.atoms[p] = a
        drop, index = self.drop, self.index
        eq = a.rel == REL_EQ
        for v, c in a.coeffs:
            if v in drop:
                e = index.get(v)
                if e is None:
                    e = index[v] = [0, 0, 0, {}]
                e[3][p] = c
                e[2 if eq else c > 0] += 1  # lowers at 0, uppers at 1
        slopes = self.slopes
        if slopes is not None:
            ps = slopes.get(d)
            if ps is None:
                slopes[d] = [p]
            else:
                ps.append(p)
        if derived and self.derived is not None:
            self.derived.add(p)

    def _unplace(self, p: int) -> None:
        """Remove the atom at position p and its index entries."""
        atoms = self.atoms
        a = atoms[p]
        atoms[p] = None
        drop, index = self.drop, self.index
        eq = a.rel == REL_EQ
        for v, c in a.coeffs:
            if v in drop:
                e = index.get(v)
                if e is None:
                    continue  # the variable being eliminated
                where = e[3]
                del where[p]
                if where:
                    e[2 if eq else c > 0] -= 1
                else:
                    del index[v]
        slopes = self.slopes
        if slopes is not None:
            d = a.slope()[0]
            ps = slopes[d]
            if len(ps) == 1:
                del slopes[d]
            else:
                ps.remove(p)
        if self.derived is not None:
            self.derived.discard(p)

    def merge(self, new: list) -> bool:
        """Merge the ``(position, atom, derived)`` entries of ``new``, a
        position None meaning after every other atom (see the class
        docstring); False when the conjunction becomes inconsistent."""
        atoms, slopes = self.atoms, self.slopes
        if slopes is None:
            slopes = self.slopes = {}
            for p, a in enumerate(atoms):
                if a is not None:
                    slopes.setdefault(a.slope()[0], []).append(p)
        pending: dict[tuple, list] = {}  # slope -> its new entries
        for p, a, derived in new:
            if not a.coeffs:
                if a.ground_truth():
                    continue
                return False
            if p is None:
                p = len(atoms)
                atoms.append(None)
            pending.setdefault(a.slope()[0], []).append((p, a, derived))
        for d, group in pending.items():
            old = slopes.get(d)
            if old is None and len(group) == 1:
                p, a, derived = group[0]
                self._place(p, a, derived, d)
            elif not self._resolve(d, list(old or ()), group):
                return False
        return True

    def _resolve(self, d: tuple, old: list[int], group: list) -> bool:
        """Merge the new entries ``group`` into slope d, whose atoms are at
        the positions ``old``, by the slope rules of simplification, whose
        one home this is, comparing two atoms of the slope by
        :func:`_implies`.  The slope holds at most one atom per key: the
        equality, the upper bound (s = 1) and the lower bound (s = -1),
        where an atom with slope (d, s, g) and constant k says ``s*d.x +
        k/g REL 0``.  A new atom of a key already held is a duplicate, a
        looser bound (dropped) or a tighter one (kept), and a key sits at
        the position of its first atom; which atom a key keeps does not
        depend on their order.  Only then is each bound checked against the
        equality that pins it, or two bounds that meet folded into one
        equality at the first one's position.  A surviving atom is derived
        when every atom equal to it is; a folded equality is derived.  False
        when two atoms contradict."""
        atoms, derived = self.atoms, self.derived
        keys: list = [None, None, None]  # equality, upper, lower: [position, atom, derived]
        for p in old:
            a = atoms[p]
            keys[0 if a.rel == REL_EQ else 1 if a.slope()[1] > 0 else 2] = [
                p, a, derived is not None and p in derived]
        for p, a, der in group:
            i = 0 if a.rel == REL_EQ else 1 if a.slope()[1] > 0 else 2
            held = keys[i]
            if held is None:
                keys[i] = [p, a, der]
                continue
            if p < held[0]:
                held[0] = p
            b = held[1]
            if not _implies(b, a):
                if not i:
                    return False  # two equalities pin d.x apart
                held[1], held[2] = a, der  # a tighter bound
            elif _implies(a, b):
                held[2] = held[2] and der  # the same atom again
        eq, up, lo = keys
        if eq is not None:
            for held in (up, lo):
                if held is not None and not _implies(eq[1], held[1]):
                    return False
            keys = [eq]
        elif (up is not None and lo is not None and up[1].rel == REL_LE
              and lo[1].rel == REL_LE
              and up[1].const * lo[1].slope()[2] == -lo[1].const * up[1].slope()[2]):
            first = up if up[0] < lo[0] else lo
            keys = [[first[0], _atom(first[1].coeffs, first[1].const, REL_EQ), True]]
        kept = [held[0] for held in keys if held is not None]
        for p in old:
            if p not in kept:
                self._unplace(p)
        for held in keys:
            if held is not None:
                p, a, der = held
                b = atoms[p]
                if a is not b:
                    if b is not None:
                        self._unplace(p)
                    self._place(p, a, der, d)
                elif derived is not None:
                    (derived.add if der else derived.discard)(p)
        return True

    def _cheapest(self, candidates: Iterable[Var]) -> tuple[Var, int]:
        """Greedy elimination order: the first variable of ``candidates`` (in
        name order) of least cost, the change in the number of atoms its
        elimination makes, ``lowers*uppers - lowers - uppers`` for its lower
        and upper bounds, or -1 when an equality contains it (substitution
        adds nothing).  The scan ends at the first variable whose cost -1
        makes it a new best, so a later one of lower cost (one-sided, with
        two or more bounds) is not reached.  The candidates are keys of the
        index, at least one."""
        index = self.index
        best: Optional[Var] = None
        best_cost = None
        for x in candidates:
            lowers, uppers, eqs, _ = index[x]
            cost = -1 if eqs else lowers * uppers - lowers - uppers
            if best_cost is None or cost < best_cost:
                best, best_cost = x, cost
                if cost == -1:
                    break
        return best, best_cost

    def eliminate(self, x: Var) -> bool:
        """One Fourier-Motzkin step on x's atoms, read from the index; False
        when the conjunction becomes inconsistent.  With an equality on x,
        each other atom of x is replaced in place by its substitution;
        otherwise every lower bound is combined with every upper bound and
        the combinations go at the end.  A combination is derived when
        either of its atoms is.  Every new atom goes to :meth:`merge`, which
        drops a true ground one and fails on a false one."""
        atoms, derived = self.atoms, self.derived
        lowers, uppers, eqs, where = self.index.pop(x)
        where = sorted(where.items())
        new = []
        if eqs:
            p, c = next((p, c) for p, c in where if atoms[p].rel == REL_EQ)
            eq = atoms[p]
            for q, d in where:
                if q != p:
                    # |c|*a - sign(c)*d*eq cancels the d*x of a
                    a = atoms[q]
                    b = _combine(abs(c), a, -d if c > 0 else d, eq, x, a.rel)
                    new.append((q, b, derived is not None
                                and (p in derived or q in derived)))
        else:
            grown = lowers * uppers - len(where)
            if (len(atoms) + grown > self.limit  # counts the holes too
                    and sum(a is not None for a in atoms) + grown > self.limit):
                raise ResourceLimitError(f"elimination exceeds {self.limit} conjuncts")
            if lowers and uppers:
                ups = [(q, c) for q, c in where if c > 0]  # x <= -rest/c
                for lo, b in where:
                    if b > 0:
                        continue
                    a_lo = atoms[lo]  # -rest/b <= x
                    for up, a in ups:
                        a_up = atoms[up]
                        rel = REL_LT if REL_LT in (a_lo.rel, a_up.rel) else REL_LE
                        comb = _combine(-b, a_up, a, a_lo, x, rel)
                        new.append((None, comb, derived is not None
                                    and (lo in derived or up in derived)))
        for q, _ in where:
            self._unplace(q)
        return not new or self.merge(new)

    def eliminate_all(self) -> Optional[tuple[AtomicProp, ...]]:
        """Eliminate every variable of ``drop``; None when the conjunction is
        inconsistent.

        When the store tracks known atoms (implied by some satisfiable
        conjunction), the known atoms left at any point are jointly
        satisfiable, so the loop stops and returns the atoms left as soon as
        none of them is derived: the result then tells satisfiability only.
        It eliminates first a variable of a derived atom whose elimination
        shrinks the conjunction (:meth:`_cheapest` cost at most -1), and
        otherwise the cheapest variable; ``drop`` must then hold every
        variable.  Otherwise every atom counts as derived, and the order is
        the cheapest variable's."""
        index, derived, atoms = self.index, self.derived, self.atoms
        while index:
            if derived is not None and not derived:
                break
            if len(index) == 1:
                x = next(iter(index))  # the only choice
            elif derived is None:
                x, _ = self._cheapest(sorted(index))
            else:
                x, cost = self._cheapest(sorted({v for p in derived for v, _ in atoms[p].coeffs}))
                if cost > -1:
                    x, _ = self._cheapest(sorted(index))
            if not self.eliminate(x):
                return None
        return self.conjunction()


def _one_sided(atoms: Sequence[AtomicProp], drop: frozenset[Var] | set[Var],
               limit: int) -> Optional[list[AtomicProp]]:
    """The atoms that mention no variable of ``drop``, in order, when
    eliminating drop from ``atoms`` is Fourier-Motzkin's base case, and None
    otherwise.  The base case: no variable of drop is in an equality or has
    both a lower and an upper bound, so each step only deletes the
    variable's atoms, and there are at most ``limit`` atoms, so no step
    exceeds the ceiling of conjuncts."""
    if len(atoms) > limit:
        return None
    upper: dict[Var, bool] = {}
    kept = []
    for a in atoms:
        eq = a.rel == REL_EQ
        free = True
        for v, c in a.coeffs:
            if v in drop:
                if eq or upper.setdefault(v, c > 0) is not (c > 0):
                    return None
                free = False
        if free:
            kept.append(a)
    return kept


def _eliminate(c: Constraint, drop: frozenset[Var] | set[Var],
               limit: int) -> Optional[tuple[AtomicProp, ...]]:
    """Eliminate every variable of ``drop`` from c's atoms, simplified
    first unless c is recorded simplified; None when they are inconsistent.
    A c that the simplification leaves unchanged is recorded simplified.
    This is the one elimination behind `project`, `satisfiable` and the
    left side of `decide`.

    In the base case (:func:`_one_sided`) the result is the atoms that
    mention no variable of drop, in order, and no store is built: that is
    what the store returns, since each of its steps then only deletes
    atoms."""
    atoms = c.atoms
    if not c._simplified:
        atoms = _simplify_conj(atoms)
        if atoms is None:
            return None
        c._simplified = atoms == c.atoms
    if not drop:
        return atoms
    kept = _one_sided(atoms, drop, limit)
    if kept is not None:
        return tuple(kept)
    return _Store(atoms, drop, limit).eliminate_all()


def project(c: Constraint, keep: Iterable[Var], limit: int = DEFAULT_DNF_LIMIT) -> Constraint:
    """Existentially project a constraint onto ``keep``: the result is a
    constraint over (a subset of) keep describing the same solutions there.
    Projection of a conjunction stays a conjunction; it carries c's
    satisfiability record and is recorded simplified (see
    :class:`syntax.Constraint`).  A c recorded simplified is taken as it
    is."""
    atoms = _eliminate(c, c.variables - set(keep), limit)
    if atoms is None:
        # unsatisfiable input: a ground-false conjunction
        out = Constraint((_atom((), 1, REL_LT),))
        out._sat = False
        return out
    out = Constraint(atoms)
    out._sat = c._sat
    out._simplified = True
    return out


def satisfiable(c: Constraint, limit: int = DEFAULT_DNF_LIMIT) -> bool:
    """Whether a constraint has a rational solution: :func:`_eliminate`
    eliminates every variable, with no atom known, and c is satisfiable
    unless that finds an inconsistency.  The verdict is recorded on c, and
    c is recorded simplified when the simplification leaves it unchanged."""
    sat = _eliminate(c, c.variables, limit) is not None
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


def decide(e: Entailment, limit: int = DEFAULT_DNF_LIMIT) -> bool:
    """Whether the entailment holds over the rationals: with both sides
    projected onto ``over``, the left side conjoined with any atom of the
    negation of a right-hand atom is unsatisfiable.  The left side is
    projected by :func:`_eliminate`, which also simplifies it unless it is
    recorded simplified.  A right side whose variables already lie in
    ``over`` is taken as it is: the left side entails a conjunction exactly
    when it entails each of its atoms, so the verdict does not depend on
    the form of the right side.  A right-hand atom that is one of the left
    side's atoms, or that one left atom of its slope implies
    (:func:`_implies`), is entailed without a refutation: the
    quasi-syntactic redundancy of Lassez, Huynh & McAloon (1993).

    Each refutation merges the negated atom into a store of the left side's
    atoms.  When the left side is recorded satisfiable (see
    :class:`syntax.Constraint`), its atoms are known to the store, so a
    refutation stops once no atom derived from the negated atom is left, as
    an incremental CLP(Q) solver checks only what a constraint added to a
    solved store reaches.  Otherwise every variable is eliminated, as
    :func:`satisfiable` does."""
    lhs = _eliminate(e.lhs, e.lhs.variables - e.over, limit)
    rhs = e.rhs if e.rhs.variables <= e.over else project(e.rhs, e.over, limit)
    if lhs is None:
        return True  # an unsatisfiable left side entails anything
    have = set(lhs)
    for a in rhs.atoms:
        if a in have:
            continue  # the projected left side implies a
        if a.coeffs:
            d = a.slope()[0]
            if any(b.slope()[0] == d and _implies(b, a) for b in lhs):
                continue  # one left atom of a's slope implies a
        for n in _negate_atom(a):
            # both sides lie over `over`, so eliminating it leaves no variable
            store = _Store(lhs, e.over, limit, set() if e.lhs._sat else None)
            if store.merge([(None, n, True)]) and store.eliminate_all() is not None:
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
    midpoints when no integer fits.

    With x1..xn the variables in name order, the stages ``proj(c, x1..xk)``
    for k = n-1 down to 0 each project the one before, so xn is eliminated
    first; c is unsatisfiable when the last, ground, stage is false.
    Otherwise the values are picked back along the chain (Dantzig & Eaves,
    JCT A 1973): xk's from its interval in the stage over x1..xk (c itself
    for xn) with x1..x(k-1) plugged in.  Over the rationals that interval
    is exactly the set of feasible xk values, so it is never empty."""
    order = sorted(c.variables.union(variables or ()))
    stages = [c]
    for k in range(len(order) - 1, -1, -1):
        stages.append(project(stages[-1], order[:k], limit))
    if not all(a.ground_truth() for a in stages.pop().atoms):
        return None
    valuation: dict[Var, Fraction] = {}
    for x, stage in zip(order, reversed(stages)):
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        lo_strict = hi_strict = False
        for a in stage.atoms:
            k = a.coeff(x)
            if k == 0:
                continue  # true at the values already picked
            rest = a.const + sum(n * valuation[v] for v, n in a.coeffs if v != x)
            bound = Fraction(-rest, k)
            if a.rel == REL_EQ:
                if lo is None or bound > lo or (bound == lo and not lo_strict):
                    lo, lo_strict = bound, False
                if hi is None or bound < hi or (bound == hi and not hi_strict):
                    hi, hi_strict = bound, False
            elif k > 0:  # x <= bound
                if hi is None or bound < hi or (bound == hi and a.rel == REL_LT):
                    hi, hi_strict = bound, a.rel == REL_LT
            else:  # bound <= x
                if lo is None or bound > lo or (bound == lo and a.rel == REL_LT):
                    lo, lo_strict = bound, a.rel == REL_LT
        valuation[x] = _pick_value(lo, lo_strict, hi, hi_strict)
    return valuation
