"""Entailments, elimination, decision, projection, sampling."""

from fractions import Fraction

import pytest
from fuzzers import atom, reference_decide, reference_pick_value

from clploop import linarith
from clploop.linarith import (
    DEFAULT_DNF_LIMIT,
    Entailment,
    ResourceLimitError,
    _negate_atom,
    _pick_value,
    _simplify_conj,
    ceiling,
    decide,
    max_dnf,
    project,
    sample_solution,
    satisfiable,
)
from clploop.syntax import (
    Constraint,
    LinTerm,
    Var,
    compare,
    parse_program,
)

X, Y, Z = Var("X"), Var("Y"), Var("Z")
tx, ty, tz = LinTerm.of_var(X), LinTerm.of_var(Y), LinTerm.of_var(Z)
one = LinTerm.of_const(1)
zero = LinTerm.of_const(0)


def le(a, b):
    return compare(a, "<=", b)


def lt(a, b):
    return compare(a, "<", b)


def eq(a, b):
    return compare(a, "=", b)


def ge(a, b):
    return compare(a, ">=", b)


def entails(lhs, rhs, over) -> bool:
    return decide(Entailment(Constraint(tuple(lhs)), Constraint(tuple(rhs)),
                             frozenset(over)))


class TestConstructors:
    def test_entailment_is_frozen_and_hashable(self):
        e = Entailment(Constraint.of(le(tx, ty)), Constraint(()), frozenset({X}))
        assert e == Entailment(Constraint.of(le(tx, ty)), Constraint(()),
                               frozenset({X}))
        assert hash(e) == hash(Entailment(Constraint.of(le(tx, ty)),
                                          Constraint(()), frozenset({X})))
        with pytest.raises(AttributeError):
            e.over = frozenset()

    def test_negated_atom_is_a_disjunction_of_atoms(self):
        # the negation of an atom is the disjunction of the returned atoms
        assert _negate_atom(eq(tx, one)) == (lt(tx, one), lt(one, tx))
        assert _negate_atom(le(tx, one)) == (lt(one, tx),)
        assert _negate_atom(lt(tx, one)) == (le(one, tx),)


class TestFreeVarsSubstitute:
    def test_variables_outside_over_are_existential(self):
        # variables outside `over` are existential, each on its own side
        assert entails([le(tx, ty), le(ty, tz)], [le(tx, tz)], {X, Z})
        assert entails([le(tx, tz)], [le(tx, ty), le(ty, tz)], {X, Z})
        assert not entails([le(tx, tz)], [le(tx, ty), le(ty, tz)], {X, Y, Z})

    def test_substitute_atom_and_number(self):
        f = le(tx, ty)
        assert f.substitute({X: LinTerm.of_const(3)}) == le(LinTerm.of_const(3), ty)
        assert f.substitute({X: LinTerm.make({Z: 1}, 1)}) == atom("Z + 1 <= Y")


class TestEval:
    def test_basic(self):
        f = atom("Y <= X + 2")
        assert f.eval({X: Fraction(0), Y: Fraction(2)})
        assert not f.eval({X: Fraction(0), Y: Fraction(3)})
        assert not lt(tx, tx).eval({X: Fraction(1)})

    def test_connectives(self):
        # exactly one of an atom and its negation holds at every point
        for atom in (eq(tx, zero), le(tx, zero), lt(tx, zero)):
            for value in (-1, 0, Fraction(1, 2), 1):
                v = {X: Fraction(value)}
                assert atom.eval(v) != any(n.eval(v) for n in _negate_atom(atom))

    def test_unbound_variable(self):
        with pytest.raises(KeyError):
            le(tx, ty).eval({X: Fraction(0)})


class TestSimplifyAndNegate:
    """The forms decide works with: a simplified conjunction, and the
    negation of an atom as a disjunction of atoms."""

    def test_independent_bounds_kept(self):
        assert _simplify_conj((le(tx, ty), le(ty, tz))) == (le(tx, ty), le(ty, tz))

    def test_negated_equality_splits(self):
        assert len(_negate_atom(eq(tx, zero))) == 2

    def test_contradictory_equalities_pruned(self):
        assert _simplify_conj((eq(tx, zero), eq(tx, one))) is None

    def test_limit(self):
        # eliminating X combines 30 lower with 30 upper bounds
        atoms = tuple(le(LinTerm.of_var(Var(f"L{i}")), tx) for i in range(30))
        atoms += tuple(le(tx, LinTerm.of_var(Var(f"H{i}"))) for i in range(30))
        c = Constraint(atoms)
        with pytest.raises(ResourceLimitError, match="conjuncts"), max_dnf(800):
            project(c, c.variables - {X})


class TestEliminate:
    def test_transitive_bound(self):
        c = Constraint.of(le(tx, ty), le(ty, tz))
        assert project(c, {X, Z}) == Constraint.of(le(tx, tz))

    def test_strictness_preserved(self):
        c = Constraint.of(lt(tx, ty), le(ty, tz))
        assert project(c, {X, Z}) == Constraint.of(lt(tx, tz))

    def test_unbounded_variable_drops_out(self):
        c = Constraint.of(le(tx, ty), le(zero, tx))
        assert project(c, {X}) == Constraint.of(le(zero, tx))

    def test_equality_substitution(self):
        c = Constraint.of(atom("Y = X + 1"), le(ty, tz))
        assert project(c, {X, Z}) == Constraint.of(atom("X + 1 <= Z"))

    def test_empty_and_false(self):
        assert project(Constraint.of(le(tx, tx)), ()) == Constraint(())
        assert not satisfiable(project(Constraint.of(lt(tx, tx)), ()))

    def test_equivalence_with_original(self):
        c = Constraint.of(le(tx, ty), le(ty, tz), atom("X + 1 < Z"))
        p = project(c, {X, Z})
        assert entails(p, c, {X, Z})
        assert entails(c, p, {X, Z})

    def test_opposite_bounds_fold_into_an_equality(self):
        c = Constraint.of(le(tx, ty), le(ty, tx), le(zero, tz))
        assert project(c, {X, Y, Z}) == Constraint.of(eq(tx, ty), le(zero, tz))
        # strict or apart bounds stay as they are
        c = Constraint.of(le(tx, ty), lt(ty, tx))
        assert project(c, {X, Y}) == c
        c = Constraint.of(le(tx, ty), atom("Y + 1 <= X"))
        assert project(c, {X, Y}) == c


class TestIntegerForm:
    """Atoms are primitive integer vectors, and bounds on one slope compare
    by value whatever the gcd of their coefficients."""

    def test_proportional_slopes_keep_the_tighter_bound(self):
        # 2*X + 2*Y <= 1 says X + Y <= 1/2
        loose = atom("2*X + 2*Y <= 1")
        tight = atom("X + Y <= 0")
        assert _simplify_conj((loose, tight)) == (tight,)
        assert _simplify_conj((tight, loose)) == (tight,)
        assert project(Constraint.of(loose, tight, le(zero, tz)), {X, Y}) == \
            Constraint.of(tight)

    def test_opposite_bounds_with_different_gcds_fold(self):
        atoms = (atom("2*X <= 1"), atom("-4*X <= -2"))
        folded = _simplify_conj(atoms)
        assert folded == (atom("2*X = 1"),)
        assert str(folded[0]) == "2*X = 1"
        # bounds meet only after each sign keeps its tightest: X <= 3 and
        # X >= 5 do not, though X <= 5 and X >= 5 would
        tightened = _simplify_conj((atom("X <= 5"), atom("X >= 5"), atom("X <= 3")))
        assert [str(a) for a in tightened] == ["X <= 3", "X >= 5"]

    def test_equality_settles_bounds_on_its_slope(self):
        e = atom("2*X + 2*Y = 1")  # X + Y = 1/2
        assert _simplify_conj((e, atom("X + Y <= 1"))) == (e,)
        assert _simplify_conj((e, atom("0 <= X + Y"))) == (e,)
        assert _simplify_conj((e, atom("X + Y < 0"))) is None
        assert _simplify_conj((e, atom("1 <= X + Y"))) is None
        assert _simplify_conj((e, atom("X + Y = 0"))) is None

    def test_atoms_print_their_integer_vector(self):
        a = le(LinTerm.make({X: Fraction(2, 3)}), LinTerm.make({Y: Fraction(1, 2)}, 1))
        assert [c for _, c in a.term.coeffs] == [4, -3] and a.term.const == -6
        assert str(a) == "4*X - 3*Y <= 6"
        assert str(project(Constraint.of(lt(tx, tx)), ())) == "1 < 0"


class TestDecide:
    def test_dense_order(self):
        assert entails([], [lt(tx, ty)], {X})
        assert not entails([], [lt(tx, ty)], {X, Y})

    def test_between(self):
        assert entails([lt(tx, tz)], [lt(tx, ty), lt(ty, tz)], {X, Z})

    def test_free_vars_universally_closed(self):
        assert not entails([], [le(tx, ty)], {X, Y})
        assert entails([], [le(tx, tx)], {X})

    def test_shift_clause_head_rechoice_fails(self):
        # constraint of a shift-by-one rule: moving the first argument while
        # keeping the second means no single first coordinate covers all cases
        x1, x2, y1, y2 = Var("X1"), Var("X2"), Var("Y1"), Var("Y2")
        c = Constraint.of(
            le(LinTerm.of_var(x1), LinTerm.of_var(x2)),
            atom("Y1 = X1 + 1"),
            eq(LinTerm.of_var(y2), LinTerm.of_var(x2)),
        )
        apart = c.rename({x1: Var("X1", 1), y1: Var("Y1", 1)})
        assert not decide(Entailment(apart, c, frozenset({x1, x2, y2})))
        # but rechoosing both body coordinates succeeds
        apart = c.rename({v: Var(v.name, 1) for v in (x1, x2, y1, y2)})
        assert decide(Entailment(apart, c, frozenset({x1})))

    def test_unsatisfiable_sides(self):
        assert entails([lt(tx, tx)], [lt(ty, ty)], {X, Y})
        assert entails([lt(tx, zero), lt(zero, tx)], [eq(tx, one)], {X})
        assert not entails([le(tx, zero)], [lt(ty, ty)], {X})
        assert entails([], [le(zero, one)], ())

    # one left atom of the right-hand atom's slope: the verdict needs no
    # refutation when that atom implies it, and a refutation otherwise
    SAME_SLOPE = {
        "equality, strict bound at its value": ("X = 3", "X < 3", False),
        "equality, bound at its value": ("X = 3", "X <= 3", True),
        "equality, another equality": ("X = 3", "X = 4", False),
        "scaled equality, bound": ("2*X + 4*Y = 3", "X + 2*Y <= 2", True),
        "tighter bound": ("X <= 2", "X < 3", True),
        "strict, non-strict at one value": ("X < 3", "X <= 3", True),
        "non-strict, strict at one value": ("X <= 3", "X < 3", False),
        "scaled slope": ("2*X <= 6", "X <= 3", True),
        "scaled slope, tighter": ("2*X <= 5", "X <= 3", True),
        "scaled slope, looser": ("2*X <= 7", "X <= 3", False),
        "lower bounds": ("X > 4", "X >= 4", True),
        "opposite direction": ("X >= 4", "X <= 5", False),
        "bound, equality": ("X <= 3", "X = 3", False),
    }

    @pytest.mark.parametrize("case", sorted(SAME_SLOPE))
    def test_one_left_atom_of_the_slope(self, case, monkeypatch):
        left, right, held = self.SAME_SLOPE[case]
        e = Entailment(Constraint.of(atom(left)), Constraint.of(atom(right)),
                       frozenset({X, Y}))
        assert reference_decide(e) is held
        built = []
        store = linarith._Store

        def counted(*args):
            built.append(args)
            return store(*args)

        monkeypatch.setattr(linarith, "_Store", counted)
        assert decide(e) is held
        assert bool(built) is not held  # only an atom no left atom implies is refuted

    def test_satisfiable(self):
        assert satisfiable(Constraint.of(le(tx, ty)))
        assert not satisfiable(Constraint.of(lt(tx, tx)))
        assert satisfiable(Constraint(()))
        assert not satisfiable(Constraint.of(le(tx, zero), lt(zero, tx)))


class TestSatisfiabilityRecord:
    """A constraint records the verdict ``satisfiable`` proved; ``decide``
    stops a refutation early only on a left side recorded satisfiable."""

    def test_satisfiable_writes_and_project_carries(self):
        c = Constraint.of(le(tx, ty), le(ty, tz))
        u = Constraint.of(le(tx, zero), lt(zero, tx))
        assert c._sat is None and u._sat is None
        assert satisfiable(c) and c._sat is True
        assert not satisfiable(u) and u._sat is False
        assert project(c, {X, Z})._sat is True
        assert project(u, {Y})._sat is False
        assert project(Constraint.of(le(tx, ty)), {X})._sat is None
        # a rename or a conjunction is not recorded, whatever its parts were
        assert c.rename({X: Var("X", 1)})._sat is None
        assert u.rename({X: Y})._sat is None
        assert c.conjoin(c)._sat is None

    # unrecorded inputs, each with whether simplifying leaves it unchanged
    RECORDED = (
        ([le(tx, ty), le(ty, tz)], True),  # one-sided in X and Z
        ([eq(tx, ty), le(ty, one)], True),  # an equality: not one-sided
        ([le(tx, ty), le(ty, tx)], False),  # folded into X = Y
        ([le(tx, ty), le(tx, ty)], False),  # a duplicate
        ([lt(zero, one), le(tx, zero)], False),  # a ground-true atom
        ([eq(tx, one), le(tx, LinTerm.of_const(5))], False),  # pinned
        ([le(tx, zero), lt(zero, tx)], True),  # inconsistent, found by elimination
        ([eq(tx, zero), eq(tx, one)], False),  # inconsistent, found by simplifying
    )

    def test_satisfiable_records_an_unchanged_simplification(self):
        for atoms, unchanged in self.RECORDED:
            c = Constraint(tuple(atoms))
            assert (_simplify_conj(c.atoms) == c.atoms) is unchanged
            satisfiable(c)
            assert c._simplified is unchanged, atoms

    def test_decide_records_its_left_side_and_not_its_verdict(self):
        for over in (frozenset({X, Y, Z}), frozenset({X})):
            for atoms, unchanged in self.RECORDED:
                lhs = Constraint(tuple(atoms))
                decide(Entailment(lhs, Constraint.of(le(tx, one)), over))
                assert lhs._simplified is unchanged, (atoms, over)
                assert lhs._sat is None

    def test_unsatisfiable_left_side_without_record_entails(self):
        lhs = Constraint.of(le(tx, zero), ge(tx, one))
        assert decide(Entailment(lhs, Constraint.of(le(ty, zero)), frozenset({X, Y})))
        assert lhs._sat is None

    def test_known_combination_before_the_negated_atom_is_reached(self):
        # refuting Z < X: X and Z each have two lower and two upper bounds,
        # so no variable of the negated atom shrinks the conjunction, and A
        # goes first; its elimination combines two atoms of the recorded
        # left side into X <= Z, which contradicts Z < X
        A = Var("A")
        ta, five = LinTerm.of_var(A), LinTerm.of_const(5)
        lhs = Constraint.of(le(tx, ta), le(ta, tz), ge(tx, zero), le(tx, five),
                            ge(tz, zero), le(tz, five))
        assert satisfiable(lhs)
        assert decide(Entailment(lhs, Constraint.of(le(tx, tz)), frozenset({A, X, Z})))
        assert not decide(Entailment(lhs, Constraint.of(lt(tx, tz)),
                                     frozenset({A, X, Z})))


class TestProject:
    def test_keep_all_is_identity_up_to_equivalence(self):
        c = Constraint.of(le(tx, ty), le(zero, tx))
        p = project(c, c.variables)
        assert entails(p, c, c.variables)
        assert entails(c, p, c.variables)

    def test_onto_empty(self):
        c = Constraint.of(le(tx, ty))
        assert project(c, ()) == Constraint(())

    def test_unsat_projects_to_false(self):
        c = Constraint.of(lt(tx, tx))
        p = project(c, ())
        assert not satisfiable(p)
        assert len(tuple(p)) == 1

    def test_doubling_rule_projections(self):
        prog = parse_program(
            "p(N, T) <- N >= 1, N = N1 + 1, T1 = 2*T, T >= 1 <> p(N1, T1)."
        )
        c = prog.clauses[0].constraint
        t, t1 = Var("T"), Var("T1")
        pt = project(c, {t})
        pt1 = project(c, {t1})
        assert str(pt) == "T >= 1"
        assert str(pt1) == "T1 >= 2"

    def test_result_variables_within_keep(self):
        c = Constraint.of(le(tx, ty), le(ty, tz))
        p = project(c, {X, Z})
        assert p.variables <= {X, Z}


class TestSample:
    def test_unconstrained_defaults_to_zero(self):
        assert sample_solution(Constraint(()), [Y]) == {Y: Fraction(0)}

    def test_lower_bound(self):
        assert sample_solution(Constraint.of(le(LinTerm.of_const(-1), ty)),
                               [Y]) == {Y: Fraction(0)}
        assert sample_solution(Constraint.of(le(one, ty)), [Y]) == {Y: Fraction(1)}
        assert sample_solution(Constraint.of(lt(zero, ty)), [Y]) == {Y: Fraction(1)}

    def test_two_variables(self):
        c = Constraint.of(le(one, ty), le(LinTerm.of_const(2), tz))
        assert sample_solution(c) == {Y: Fraction(1), Z: Fraction(2)}

    def test_equality_pinned(self):
        for value in (5, -2, Fraction(3, 2), Fraction(-7, 3)):
            c = Constraint.of(eq(ty, LinTerm.of_const(value)))
            assert sample_solution(c) == {Y: Fraction(value)}

    @pytest.mark.parametrize("interval, expected", [
        # unbounded on one side
        ((None, False, Fraction(3), False), 0),
        ((None, False, Fraction(-5, 2), False), -3),
        ((Fraction(-5, 2), False, None, False), 0),
        ((Fraction(3, 2), True, None, False), 2),
        # unbounded on both
        ((None, False, None, False), 0),
        # strict integer ends
        ((Fraction(2), True, Fraction(5), True), 3),
        ((Fraction(-5), True, Fraction(-2), True), -3),
        ((Fraction(0), True, None, False), 1),
        ((None, False, Fraction(0), True), -1),
        # all negative
        ((Fraction(-7), False, Fraction(-3), False), -3),
        ((Fraction(-15, 2), True, Fraction(-1, 3), False), -1),
        # no integer inside
        ((Fraction(1, 3), False, Fraction(2, 3), False), Fraction(1, 2)),
        ((Fraction(1), True, Fraction(2), True), Fraction(3, 2)),
        ((Fraction(-9, 4), True, Fraction(-2), True), Fraction(-17, 8)),
        # a single point
        ((Fraction(5, 2), False, Fraction(5, 2), False), Fraction(5, 2)),
        ((Fraction(-4), False, Fraction(-4), False), -4),
        ((Fraction(0), False, Fraction(0), False), 0),
    ])
    def test_pick_value_equals_the_reference(self, interval, expected):
        assert _pick_value(*interval) == reference_pick_value(*interval) == expected
        assert type(_pick_value(*interval)) is Fraction

    def test_midpoint_when_no_integer(self):
        c = Constraint.of(lt(LinTerm.of_const(Fraction(1, 2)), ty), lt(ty, one))
        assert sample_solution(c) == {Y: Fraction(3, 4)}

    def test_unsat_returns_none(self):
        assert sample_solution(Constraint.of(lt(ty, ty))) is None

    def test_deterministic(self):
        c = Constraint.of(le(tx, ty), le(zero, tx), lt(ty, LinTerm.of_const(9)))
        assert sample_solution(c) == sample_solution(c)

    def test_solution_satisfies(self):
        c = Constraint.of(atom("X + 1 <= Y"), le(zero, tx))
        v = sample_solution(c)
        assert all(a.eval(v) for a in c)


class TestDecideSidesInsideOver:
    """A side whose variables lie in ``over`` is decided as it is, without
    being projected (which would simplify it); the verdict equals the one
    with both sides projected first."""

    OVER = frozenset({X, Y})
    CASES = {
        "duplicate rhs": ([le(tx, ty)], [le(tx, ty), le(tx, ty)], True),
        "duplicate lhs": ([le(tx, ty), le(tx, ty)], [lt(tx, ty)], False),
        "slackened rhs": ([le(tx, ty)], [atom("X <= Y + 1"), le(tx, ty)], True),
        "slackened lhs": ([atom("X <= Y + 1"), atom("X <= Y + 2")], [le(tx, ty)],
                          False),
        "ground-true rhs": ([le(tx, ty)], [le(zero, one), le(tx, ty)], True),
        "ground-true lhs": ([lt(zero, one), eq(tx, ty)], [le(ty, tx)], True),
        "opposite bounds rhs": ([eq(tx, ty)], [le(tx, ty), ge(tx, ty)], True),
        "contradictory lhs": ([eq(tx, zero), eq(tx, one)], [le(ty, zero)], True),
        "contradictory rhs": ([le(tx, ty)], [eq(tx, ty), atom("X = Y + 1")], False),
        "ground-false rhs": ([le(tx, ty)], [le(one, zero)], False),
        "ground-false both": ([le(one, zero)], [le(one, zero)], True),
        # unrecorded left sides whose simplification removes the right-hand atom
        "folded lhs": ([le(tx, ty), ge(tx, ty)], [eq(tx, ty)], True),
        "pinned lhs": ([eq(tx, LinTerm.of_const(2)), le(tx, LinTerm.of_const(5))],
                       [le(tx, LinTerm.of_const(5))], True),
        "slackened lhs, looser rhs": ([atom("X <= Y + 1"), atom("X <= Y + 2")],
                                      [atom("X <= Y + 2")], True),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_verdict_as_projected_sides(self, case):
        lhs_atoms, rhs_atoms, held = self.CASES[case]
        lhs, rhs = Constraint(tuple(lhs_atoms)), Constraint(tuple(rhs_atoms))
        assert lhs.variables <= self.OVER and rhs.variables <= self.OVER
        # projecting simplifies at least one side, so the two forms differ
        projected = (project(lhs, self.OVER), project(rhs, self.OVER))
        assert projected != (lhs, rhs)
        assert decide(Entailment(lhs, rhs, self.OVER)) is held
        assert decide(Entailment(*projected, self.OVER)) is held


class TestResourceLimits:
    def test_decide_limit_raises(self):
        # eliminating Y combines three lower with three upper bounds
        lows = [Var(f"L{i}") for i in range(3)]
        highs = [Var(f"H{i}") for i in range(3)]
        lhs = Constraint(tuple(le(LinTerm.of_var(v), ty) for v in lows)
                         + tuple(le(ty, LinTerm.of_var(v)) for v in highs))
        rhs = Constraint.of(le(LinTerm.of_var(lows[0]), LinTerm.of_var(highs[0])))
        e = Entailment(lhs, rhs, frozenset(lows + highs))
        assert decide(e)
        with max_dnf(9):
            assert decide(e)
        with pytest.raises(ResourceLimitError, match="exceeds 8 conjuncts"), max_dnf(8):
            decide(e)

    def test_nested_scopes_restore_the_outer_ceiling(self):
        # eliminating X combines two lower with two upper bounds
        c = Constraint.of(le(LinTerm.of_var(Var("L0")), tx), le(LinTerm.of_var(Var("L1")), tx),
                          le(tx, LinTerm.of_var(Var("H0"))), le(tx, LinTerm.of_var(Var("H1"))))
        keep = c.variables - {X}
        assert ceiling() == DEFAULT_DNF_LIMIT
        with max_dnf(4):
            with max_dnf(3):
                assert ceiling() == 3
                with pytest.raises(ResourceLimitError, match="exceeds 3 conjuncts"):
                    project(c, keep)
            assert ceiling() == 4
            with pytest.raises(ResourceLimitError, match="exceeds 2 conjuncts"), max_dnf(2):
                project(c, keep)
            assert ceiling() == 4
            assert len(project(c, keep).atoms) == 4
        assert ceiling() == DEFAULT_DNF_LIMIT
