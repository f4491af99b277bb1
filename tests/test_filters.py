"""Projected predicates, query projection, generality and filter membership."""

import pytest
from fuzzers import is_true, make_filter, membership, project_query

from clploop import linarith
from clploop.filters import (
    Filter,
    delta_more_general,
    denotation,
    more_general,
    probes,
    projected_pred,
    satisfies,
    select_positions,
)
from clploop.linarith import ResourceLimitError, satisfiable
from clploop.syntax import (
    Atom,
    Constraint,
    LinTerm,
    Pred,
    Query,
    Var,
    compare,
    parse_query,
)

P2 = Pred("p", 2)
X, Y = Var("X"), Var("Y")
tx, ty = LinTerm.of_var(X), LinTerm.of_var(Y)


def q(text: str) -> Query:
    return parse_query(text)


class TestProjectedPred:
    def test_names(self):
        assert projected_pred(P2, {1, 2}) == Pred("p|{1,2}", 2)
        assert projected_pred(P2, {2}) == Pred("p|{2}", 1)
        assert projected_pred(P2, ()) == Pred("p|{}", 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            projected_pred(P2, {3})
        with pytest.raises(ValueError, match="out of range"):
            projected_pred(P2, {0})


class TestSelectPositions:
    def test_select_positions(self):
        assert select_positions(("a", "b", "c"), {3, 1}) == ("a", "c")
        assert select_positions(("a", "b"), ()) == ()


class TestProjectQuery:
    def test_single_position(self):
        r = project_query(q("p(X, Y) : X >= 1, Y >= X"), {2})
        assert r.pred == Pred("p|{2}", 1)
        assert r.atom.args == (ty,)
        # constraint carries over; dropped variables are existential in use,
        # so the denotation matches the eliminated form
        expected = parse_query("dummy(Y) : Y >= 1")
        reference = Query(r.atom, expected.constraint)
        assert more_general(r, reference)
        assert more_general(reference, r)

    def test_empty_projection_keeps_satisfiability(self):
        r = project_query(q("p(X, Y) : X >= 1"), set())
        assert r.pred.arity == 0
        zero_true = Query(r.atom, Constraint(()))
        assert more_general(r, zero_true)
        assert more_general(zero_true, r)
        unsat = project_query(q("p(X, Y) : X < X"), set())
        assert not more_general(unsat, zero_true)

    def test_full_projection(self):
        r = project_query(q("p(X, Y) : Y <= X"), {1, 2})
        assert r.pred == Pred("p|{1,2}", 2)
        assert str(r.constraint) == "X - Y >= 0"


class TestSatFormula:
    def test_ground_membership(self):
        target = q("p(X, Y) : Y <= X + 2")
        inside = membership((LinTerm.of_const(0), LinTerm.of_const(2)), target)
        outside = membership((LinTerm.of_const(0), LinTerm.of_const(3)), target)
        assert satisfiable(inside)
        assert not satisfiable(outside)

    def test_unconstrained_membership(self):
        target = q("p(X, Y)")
        c = membership((LinTerm.of_const(7), LinTerm.of_const(-7)), target)
        assert satisfiable(c)

    def test_arity_check(self):
        with pytest.raises(ValueError, match="arity"):
            membership((tx,), q("p(X, Y)"))


class TestDenotation:
    def test_over_the_reserved_probes(self):
        den = denotation(q("p(X, 2*X + 1/2) : X >= L, L >= 1"))
        assert probes(2) == (Var("W1", -1), Var("W2", -1))
        assert den.variables == set(probes(2))
        assert str(den) == "4*W1#-1 - 2*W2#-1 = -1, W1#-1 >= 1"
        assert str(denotation(q("p(X, X, 3)"))) == "W1#-1 - W2#-1 = 0, W3#-1 = 3"
        assert is_true(denotation(q("p")))
        # a query over variables named like the probes needs no renaming
        assert str(denotation(q("p(W2, W1) : W2 <= W1"))) == "W1#-1 - W2#-1 <= 0"

    def test_cached_on_the_query(self):
        target = q("p(X, Y) : Y <= X + 2")
        assert denotation(target) is denotation(target)

    def test_recorded_store_gives_recorded_denotation(self):
        # distinct variable arguments: the store is projected and renamed to
        # the probes one to one, which keeps its satisfiability record
        recorded = q("p(X, Y) : Y <= X + 2, X >= L")
        assert satisfiable(recorded.constraint)
        assert denotation(recorded)._sat is True
        assert denotation(q("p(X, Y) : Y <= X + 2"))._sat is None
        # a repeated variable takes the equations, and a new constraint
        repeated = q("p(X, X) : X >= 0")
        assert satisfiable(repeated.constraint)
        assert denotation(repeated)._sat is None

    def test_smaller_limit_than_the_cached_one_raises(self):
        target = q("p(X) : X >= L, X >= M, L >= 0, M >= 1, X <= 9")
        den = denotation(target)
        with pytest.raises(ResourceLimitError, match="exceeds 3"), linarith.max_dnf(3):
            denotation(target)
        with linarith.max_dnf(4):
            assert denotation(target) == den
        assert str(den) == "W1#-1 <= 9, W1#-1 >= 1"


class TestMoreGeneral:
    def test_constraint_relaxation(self):
        assert more_general(q("p(X, Y) : Y <= X + 3"), q("p(X, Y) : Y <= X + 2"))
        assert not more_general(q("p(X, Y) : Y <= X + 2"), q("p(X, Y) : Y <= X + 3"))

    def test_reflexive(self):
        a = q("p(X, Y) : Y <= X + 2")
        assert more_general(a, a)

    def test_instance_vs_general(self):
        assert more_general(q("p(X, Y)"), q("p(0, 1)"))
        assert not more_general(q("p(0, 1)"), q("p(X, Y)"))

    def test_variant_invariance(self):
        a = q("p(X, Y) : Y <= X")
        b = q("p(A, B) : B <= A")
        assert more_general(a, b)
        assert more_general(b, a)

    def test_distinct_predicates(self):
        assert not more_general(q("p(X, Y)"), q("r(X)"))
        # any query is more general than an empty denotation
        assert more_general(q("p(X, Y)"), q("r(X) : X < X"))

    def test_shared_variables_no_capture(self):
        a = q("p(X, Y) : X >= 0")
        b = q("p(Y, X) : Y >= 1")
        assert more_general(a, b)
        assert not more_general(b, a)


class TestFilter:
    def filter_on(self, ps, constraint_text=None) -> Filter:
        pp = projected_pred(P2, ps)
        args = tuple(LinTerm.of_var(Var(f"C{i}")) for i in range(1, pp.arity + 1))
        atoms = ()
        if constraint_text is not None:
            names = ", ".join(str(a) for a in args) or "C0"
            parsed = parse_query(f"probe({names}) : {constraint_text}")
            atoms = parsed.constraint.atoms
        cond = Query(Atom(pp, args), Constraint(atoms))
        return make_filter(P2, ps, cond)

    def test_make_validates_pred(self):
        bad = Query(Atom(Pred("p|{1}", 1), (tx,)), Constraint(()))
        with pytest.raises(ValueError, match="must be over"):
            make_filter(P2, {2}, bad)

    def test_make_validates_satisfiable(self):
        pp = projected_pred(P2, {2})
        bad = Query(Atom(pp, (ty,)), Constraint.of(compare(ty, "<", ty)))
        with pytest.raises(ValueError, match="unsatisfiable"):
            make_filter(P2, {2}, bad)

    def test_default_condition_unconstrained(self):
        c = make_filter(P2, {1, 2}).condition
        assert c.pred == projected_pred(P2, {1, 2})
        assert is_true(c.constraint)

    def test_satisfies(self):
        filt = self.filter_on({2}, "C1 >= 0")
        assert satisfies(q("p(X, Y) : Y >= 1"), filt)
        assert satisfies(q("p(X, 0) : X >= 5"), filt)
        assert not satisfies(q("p(X, Y) : Y >= -1"), filt)
        assert not satisfies(q("p(X, Y)"), filt)

    def test_satisfies_empty_positions(self):
        filt = make_filter(P2, set())
        assert satisfies(q("p(X, Y)"), filt)

    def test_delta_more_general(self):
        filt = self.filter_on({2}, "C1 >= 0")
        gen = q("p(X, Y) : Y >= 0")
        narrow = q("p(X, Y) : X >= 1, Y >= 2")
        assert delta_more_general(gen, narrow, filt)
        # fails when the would-be generalization misses the filter
        assert not delta_more_general(q("p(X, Y)"), narrow, filt)
        # fails when not more general on the unfiltered positions
        assert not delta_more_general(q("p(0, Y) : Y >= 0"), narrow, filt)

    def test_delta_more_general_ground(self):
        filt = self.filter_on({1}, "C1 >= 0")
        assert delta_more_general(q("p(1, 0)"), q("p(0, 0)"), filt)
        assert not delta_more_general(q("p(-1, 0)"), q("p(0, 0)"), filt)

    def test_delta_more_general_not_reflexive(self):
        filt = self.filter_on({2}, "C1 >= 0")
        outside = q("p(X, Y) : Y <= -1")
        assert not delta_more_general(outside, outside, filt)

    def test_transitive(self):
        filt = self.filter_on({2}, "C1 >= 0")
        q1 = q("p(X, Y) : Y >= 0")
        q2 = q("p(X, Y) : X >= 0, Y >= 1")
        q3 = q("p(0, 2)")
        assert delta_more_general(q1, q2, filt)
        assert delta_more_general(q2, q3, filt)
        assert delta_more_general(q1, q3, filt)
