"""The two-part neutrality criterion on hand-built filters."""

from fuzzers import filter_body_formula, filter_head_formula, make_filter

from clploop.filters import Filter, projected_pred, satisfies
from clploop.linarith import decide
from clploop.syntax import (
    Atom,
    Constraint,
    LinTerm,
    Pred,
    Query,
    Var,
    compare,
    parse_program,
)

DOUBLING = "p(N, T) <- N >= 1, N = N1 + 1, T1 = 2*T, T >= 1 <> p(N1, T1).\n"
SHIFT_GE = "p(X1, X2) <- X1 >= X2, Y1 = X1 + 1, Y2 = X2 <> p(Y1, Y2).\n"
SHIFT_LE = "p(X1, X2) <- X1 <= X2, Y1 = X1 + 1, Y2 = X2 <> p(Y1, Y2).\n"


def clause(text):
    return parse_program(text).clauses[0]


def both_hold(filt: Filter, rule) -> bool:
    """Both conditions of the criterion, each decided on its own."""
    return (decide(filter_head_formula(filt, filt, rule))
            and decide(filter_body_formula(filt, rule)))


def filter_for(pred: Pred, ps, *atom_builders) -> Filter:
    """Filter with condition atoms over C1..Ck (one per kept position)."""
    pp = projected_pred(pred, ps)
    cvars = tuple(Var(f"C{i}") for i in range(1, pp.arity + 1))
    atoms = tuple(build(cvars) for build in atom_builders)
    cond = Query(Atom(pp, tuple(LinTerm.of_var(v) for v in cvars)),
                 Constraint(atoms))
    return make_filter(pred, ps, cond)


class TestDoublingRule:
    def test_second_position_with_lower_bound(self):
        rule = clause(DOUBLING)
        filt = filter_for(
            rule.head_pred, {2},
            lambda cv: compare(LinTerm.of_var(cv[0]), ">=", LinTerm.of_const(1)),
        )
        assert decide(filter_head_formula(filt, filt, rule))
        assert decide(filter_body_formula(filt, rule))
        assert both_hold(filt, rule)

    def test_second_position_wrong_conditions_fail(self):
        rule = clause(DOUBLING)
        # unconstrained condition admits replacements below the rule's bound
        loose = filter_for(rule.head_pred, {2})
        assert not decide(filter_head_formula(loose, loose, rule))
        assert not both_hold(loose, rule)
        # too tight a condition and the body values fall outside it
        tight = filter_for(
            rule.head_pred, {2},
            lambda cv: compare(LinTerm.of_var(cv[0]), ">=", LinTerm.of_const(3)),
        )
        assert not decide(filter_body_formula(tight, rule))
        assert not both_hold(tight, rule)

    def test_empty_positions_always_neutral(self):
        rule = clause(DOUBLING)
        filt = make_filter(rule.head_pred, set())
        assert both_hold(filt, rule)


class TestShiftRules:
    def test_ge_full_positions_neutral(self):
        rule = clause(SHIFT_GE)
        filt = filter_for(
            rule.head_pred, {1, 2},
            lambda cv: compare(LinTerm.of_var(cv[0]), ">=", LinTerm.of_var(cv[1])),
        )
        assert decide(filter_head_formula(filt, filt, rule))
        assert decide(filter_body_formula(filt, rule))
        assert both_hold(filt, rule)

    def test_le_full_positions_fails_body(self):
        rule = clause(SHIFT_LE)
        filt = filter_for(
            rule.head_pred, {1, 2},
            lambda cv: compare(LinTerm.of_var(cv[0]), "<=", LinTerm.of_var(cv[1])),
        )
        assert decide(filter_head_formula(filt, filt, rule))
        assert not decide(filter_body_formula(filt, rule))
        assert not both_hold(filt, rule)

    def test_le_single_positions_fail_head(self):
        rule = clause(SHIFT_LE)
        for ps in ({1}, {2}):
            filt = filter_for(rule.head_pred, ps)
            assert not decide(filter_head_formula(filt, filt, rule))
            assert not both_hold(filt, rule)

    def test_le_empty_positions_neutral(self):
        rule = clause(SHIFT_LE)
        filt = make_filter(rule.head_pred, set())
        assert decide(filter_head_formula(filt, filt, rule))
        assert decide(filter_body_formula(filt, rule))
        assert both_hold(filt, rule)


class TestBodyConditionMatchesMembership:
    def test_body_formula_iff_satisfies(self):
        # the body condition is exactly: the body query satisfies the filter
        for text in (SHIFT_GE, SHIFT_LE):
            rule = clause(text)
            for ps in (set(), {1}, {2}, {1, 2}):
                filt = (
                    make_filter(rule.head_pred, ps)
                    if not ps
                    else filter_for(
                        rule.head_pred, ps,
                        lambda cv: compare(LinTerm.of_var(cv[0]), ">=",
                                           LinTerm.of_var(cv[-1])),
                    )
                )
                lhs = decide(filter_body_formula(filt, rule))
                rhs = satisfies(rule.body_query, filt)
                assert lhs == rhs


class TestUnboundedBodyRule:
    def test_head_passes_body_fails(self):
        rule = clause("p(X) <- X <= 3, 2 <= Y <> p(Y).\n")
        pp = projected_pred(rule.head_pred, {1})
        cond = Query(
            Atom(pp, (LinTerm.of_var(Var("C1")),)),
            Constraint.of(compare(LinTerm.of_var(Var("C1")), "<=",
                                  LinTerm.of_const(3))),
        )
        filt = make_filter(rule.head_pred, {1}, cond)
        assert decide(filter_head_formula(filt, filt, rule))
        assert not decide(filter_body_formula(filt, rule))
        assert not both_hold(filt, rule)
