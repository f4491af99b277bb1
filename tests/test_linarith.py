"""Formulas, exact quantifier elimination, decision, projection, sampling."""

from fractions import Fraction

import pytest

from clploop.linarith import (
    FALSE,
    TRUE,
    And,
    Bottom,
    EvalError,
    Exists,
    Not,
    Or,
    ResourceLimitError,
    Top,
    conj,
    decide,
    disj,
    eliminate_exists,
    eval_formula,
    exists,
    forall,
    free_vars,
    implies,
    neg,
    project,
    sample_solution,
    satisfiable,
    substitute,
    to_dnf,
    to_formula,
)
from clploop.analyzer import candidate_filter
from clploop.neutral import neutrality_body_formula, neutrality_head_formula
from clploop.syntax import (
    AtomicProp,
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


class TestConstructors:
    def test_conj_disj_units(self):
        a = le(tx, ty)
        assert conj() is TRUE
        assert disj() is FALSE
        assert conj(a) == a
        assert conj(TRUE, a) == a
        assert conj(a, FALSE) is FALSE
        assert disj(a, TRUE) is TRUE
        assert disj(FALSE, a) == a

    def test_neg_implies(self):
        a = le(tx, ty)
        assert neg(TRUE) is FALSE
        assert neg(neg(a)) == a
        assert implies(TRUE, a) == a
        assert implies(FALSE, a) is TRUE
        assert implies(a, TRUE) is TRUE

    def test_quantifier_constructors(self):
        a = le(tx, ty)
        assert exists([], a) == a
        assert forall([], a) == a
        q = exists([X, Y], a)
        assert isinstance(q, Exists)
        assert set(q.vars) == {X, Y}
        assert q.body == a

    def test_to_formula(self):
        c = Constraint.of(le(tx, ty), le(ty, tz))
        f = to_formula(c)
        assert isinstance(f, And)
        assert to_formula(TRUE) is TRUE
        assert to_formula(le(tx, ty)) == le(tx, ty)


class TestFreeVarsSubstitute:
    def test_free_vars_under_binders(self):
        f = exists([Y], conj(le(tx, ty), le(ty, tz)))
        assert free_vars(f) == {X, Z}
        assert free_vars(forall([X, Z], f)) == frozenset()

    def test_substitute_atom_and_number(self):
        f = le(tx, ty)
        g = substitute(f, {X: 3})
        assert g == le(LinTerm.of_const(3), ty)
        h = substitute(f, {X: tz + one})
        assert h == le(tz + one, ty)

    def test_substitute_skips_bound(self):
        f = exists([Y], eq(ty, tx))
        g = substitute(f, {X: 5, Y: 7})
        assert free_vars(g) == frozenset()
        assert decide(g)  # exists Y. Y = 5


class TestEval:
    def test_basic(self):
        f = le(ty, tx + LinTerm.of_const(2))
        assert eval_formula(f, {X: Fraction(0), Y: Fraction(2)})
        assert not eval_formula(f, {X: Fraction(0), Y: Fraction(3)})
        assert not eval_formula(lt(tx, tx), {X: Fraction(1)})

    def test_connectives(self):
        a = le(tx, zero)
        v = {X: Fraction(1)}
        assert eval_formula(neg(a), v)
        assert eval_formula(implies(a, FALSE), v)
        assert eval_formula(disj(a, TRUE), v)

    def test_unbound_variable(self):
        with pytest.raises(EvalError):
            eval_formula(le(tx, ty), {X: Fraction(0)})

    def test_quantifier_rejected(self):
        with pytest.raises(EvalError):
            eval_formula(exists([X], le(tx, zero)), {})


class TestDnf:
    def test_conjunction_single_disjunct(self):
        f = conj(le(tx, ty), le(ty, tz))
        d = to_dnf(f)
        assert len(d) == 1
        assert set(d[0]) == {le(tx, ty), le(ty, tz)}

    def test_negated_equality_splits(self):
        d = to_dnf(neg(eq(tx, zero)))
        assert len(d) == 2

    def test_contradictory_equalities_pruned(self):
        f = conj(eq(tx, zero), eq(tx, one))
        assert to_dnf(f) == []

    def test_limit(self):
        # (a1 or b1) and ... and (a25 or b25) wants 2**25 disjuncts
        pairs = [
            disj(eq(LinTerm.of_var(Var(f"V{i}")), zero),
                 eq(LinTerm.of_var(Var(f"V{i}")), one))
            for i in range(25)
        ]
        with pytest.raises(ResourceLimitError, match="disjuncts"):
            to_dnf(conj(*pairs), limit=1000)


class TestEliminate:
    def test_transitive_bound(self):
        f = conj(le(tx, ty), le(ty, tz))
        g = eliminate_exists([Y], f)
        assert g == le(tx, tz)

    def test_strictness_preserved(self):
        f = conj(lt(tx, ty), le(ty, tz))
        assert eliminate_exists([Y], f) == lt(tx, tz)

    def test_unbounded_variable_drops_out(self):
        g = eliminate_exists([Y], conj(le(tx, ty), le(zero, tx)))
        assert g == le(zero, tx)

    def test_equality_substitution(self):
        f = conj(eq(ty, tx + one), le(ty, tz))
        assert eliminate_exists([Y], f) == le(tx + one, tz)

    def test_empty_and_false(self):
        assert eliminate_exists([X], le(tx, tx)) is TRUE
        assert eliminate_exists([X], lt(tx, tx)) is FALSE

    def test_equivalence_with_original(self):
        f = conj(le(tx, ty), le(ty, tz), lt(tx + one, tz))
        g = eliminate_exists([Y], f)
        assert decide(implies(g, exists([Y], f)))
        assert decide(implies(exists([Y], f), g))


class TestDecide:
    def test_dense_order(self):
        assert decide(exists([Y], lt(tx, ty)))
        assert decide(forall([X], exists([Y], lt(tx, ty))))
        assert not decide(exists([Y], forall([X], lt(tx, ty))))

    def test_between(self):
        f = implies(lt(tx, tz), exists([Y], conj(lt(tx, ty), lt(ty, tz))))
        assert decide(f)

    def test_free_vars_universally_closed(self):
        assert not decide(le(tx, ty))
        assert decide(le(tx, tx))

    def test_shift_clause_head_rechoice_fails(self):
        # constraint of a shift-by-one rule: moving the first argument while
        # keeping the second means no single first coordinate covers all cases
        x1, x2, y1, y2 = Var("X1"), Var("X2"), Var("Y1"), Var("Y2")
        c = conj(
            le(LinTerm.of_var(x1), LinTerm.of_var(x2)),
            eq(LinTerm.of_var(y1), LinTerm.of_var(x1) + one),
            eq(LinTerm.of_var(y2), LinTerm.of_var(x2)),
        )
        assert not decide(implies(c, forall([x1], exists([y1], c))))
        # but rechoosing both body coordinates succeeds
        assert decide(implies(c, forall([x1], exists([y1, y2, x2], c))))

    def test_satisfiable(self):
        assert satisfiable(Constraint.of(le(tx, ty)))
        assert not satisfiable(Constraint.of(lt(tx, tx)))
        assert satisfiable(disj(lt(tx, tx), le(zero, one)))


class TestProject:
    def test_keep_all_is_identity_up_to_equivalence(self):
        c = Constraint.of(le(tx, ty), le(zero, tx))
        p = project(c, c.variables)
        assert decide(implies(to_formula(p), to_formula(c)))
        assert decide(implies(to_formula(c), to_formula(p)))

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
        assert sample_solution(Constraint.of(le(-one, ty)), [Y]) == {Y: Fraction(0)}
        assert sample_solution(Constraint.of(le(one, ty)), [Y]) == {Y: Fraction(1)}
        assert sample_solution(Constraint.of(lt(zero, ty)), [Y]) == {Y: Fraction(1)}

    def test_two_variables(self):
        c = Constraint.of(le(one, ty), le(LinTerm.of_const(2), tz))
        assert sample_solution(c) == {Y: Fraction(1), Z: Fraction(2)}

    def test_equality_pinned(self):
        c = Constraint.of(eq(ty, LinTerm.of_const(5)))
        assert sample_solution(c) == {Y: Fraction(5)}

    def test_midpoint_when_no_integer(self):
        c = Constraint.of(lt(LinTerm.of_const(Fraction(1, 2)), ty), lt(ty, one))
        assert sample_solution(c) == {Y: Fraction(3, 4)}

    def test_unsat_returns_none(self):
        assert sample_solution(Constraint.of(lt(ty, ty))) is None

    def test_deterministic(self):
        c = Constraint.of(le(tx, ty), le(zero, tx), lt(ty, LinTerm.of_const(9)))
        assert sample_solution(c) == sample_solution(c)

    def test_solution_satisfies(self):
        c = Constraint.of(le(tx + one, ty), le(zero, tx))
        v = sample_solution(c)
        assert all(a.eval(v) for a in c)


class TestResourceLimits:
    def test_decide_limit_raises(self):
        pairs = [
            disj(eq(LinTerm.of_var(Var(f"V{i}")), zero),
                 eq(LinTerm.of_var(Var(f"V{i}")), one))
            for i in range(25)
        ]
        with pytest.raises(ResourceLimitError):
            decide(neg(conj(*pairs)), limit=100)

    def test_nodes(self):
        assert isinstance(TRUE, Top)
        assert isinstance(FALSE, Bottom)
        assert Not(TRUE) == Not(TRUE)
        assert Or((TRUE, FALSE)) == Or((TRUE, FALSE))
        # implication and the universal quantifier are sugar: every formula
        # the criterion builds uses the seven core node kinds only
        core = (AtomicProp, Top, Bottom, Not, And, Or, Exists)
        rule = parse_program(
            "p(X1, X2) <- X1 >= X2, Y1 = X1 + 1, Y2 = X2 <> p(Y1, Y2).\n"
        ).clauses[0]
        built = [forall([X], implies(le(tx, ty), exists([Y], lt(tx, ty))))]
        for ps in (frozenset({1, 2}), frozenset({1}), frozenset()):
            filt = candidate_filter(rule, ps)
            built += [neutrality_head_formula(filt, rule),
                      neutrality_body_formula(filt, rule)]
        todo, seen = list(built), set()
        while todo:
            f = todo.pop()
            assert isinstance(f, core), type(f).__name__
            seen.add(type(f))
            if isinstance(f, Not):
                todo.append(f.arg)
            elif isinstance(f, (And, Or)):
                todo.extend(f.args)
            elif isinstance(f, Exists):
                todo.append(f.body)
        assert {Not, Or, Exists} <= seen
