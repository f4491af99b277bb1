"""Candidate filters, witnesses, the subset scan and loop propagation."""

import itertools
import random
import sys
from collections import Counter

import pytest
from fuzzers import equivalent, is_true, naive_propagate

from clploop import analyzer, linarith, neutral
from clploop.analyzer import (
    AnalyzeOptions,
    analyze_program,
    candidate_filter,
    class_closure,
    find_looping_queries,
    head_splits,
    make_witness,
    propagate,
)
from clploop.engine import run
from clploop.linarith import ResourceLimitError, decide
from clploop.syntax import (
    Atom,
    Clause,
    Constraint,
    LinTerm,
    Program,
    Query,
    Var,
    compare,
    parse_program,
)


def clause(text):
    return parse_program(text).clauses[0]


SHIFT_GE = "p(X1, X2) <- X1 >= X2, Y1 = X1 + 1, Y2 = X2 <> p(Y1, Y2).\n"
SHIFT_LE = "p(X1, X2) <- X1 <= X2, Y1 = X1 + 1, Y2 = X2 <> p(Y1, Y2).\n"


class TestCandidateFilter:
    def test_full_positions_project_whole_constraint(self):
        rule = clause(SHIFT_GE)
        filt = candidate_filter(rule, frozenset({1, 2}))
        cond = filt.condition
        x1, x2 = rule.head_vars
        assert cond.atom.args == tuple(map(LinTerm.of_var, (x1, x2)))
        assert equivalent(
            cond.constraint,
            Constraint.of(compare(LinTerm.of_var(x1), ">=", LinTerm.of_var(x2))),
        )

    def test_empty_positions(self):
        rule = clause(SHIFT_GE)
        filt = candidate_filter(rule, frozenset())
        cond = filt.condition
        assert cond.pred.arity == 0
        assert is_true(cond.constraint)

    def test_single_position_unconstrained(self):
        rule = clause(SHIFT_LE)
        filt = candidate_filter(rule, frozenset({1}))
        cond = filt.condition
        # X1 alone is unbounded in X1 <= X2
        assert is_true(cond.constraint)

    def test_non_recursive_rejected(self):
        rule = clause("p(A) <- A >= 0 <> q(A).\nq(A) <- true <> q(A).")
        with pytest.raises(ValueError, match="recursive"):
            candidate_filter(rule, frozenset())


class TestConditionCache:
    # {1, 2} eliminates A3 from the full set's condition: 2 lower bounds
    # times 3 upper bounds make 6 conjuncts
    RULE = ("p(A1, A2, A3) <- A3 <= A1, A3 <= A2, A3 <= 9, A3 >= 0, A3 >= A1 - 5 "
            "<> p(B1, B2, B3).")

    def test_smaller_limit_than_the_cached_one_raises(self):
        rule = clause(self.RULE)
        cond = candidate_filter(rule, frozenset({1, 2})).condition
        for r in (rule, clause(self.RULE)):  # cached, then uncached
            with pytest.raises(ResourceLimitError, match="exceeds 5"), linarith.max_dnf(5):
                candidate_filter(r, frozenset({1, 2}))
        with linarith.max_dnf(6):
            assert candidate_filter(rule, frozenset({1, 2})).condition == cond
        assert str(cond.constraint) == "A1 >= 0, A2 >= 0, A1 - A2 <= 5, A1 <= 14"

    def test_a_subset_that_raised_is_not_cached(self):
        rule = clause(self.RULE)

        def cached_conditions():
            return {a for a, b in rule._projections if b is None}

        with pytest.raises(ResourceLimitError, match="exceeds 5"), linarith.max_dnf(5):
            candidate_filter(rule, frozenset({1}))
        # {1} projects {1, 2}, which raised; the full set's condition fit
        assert cached_conditions() == {frozenset({1, 2, 3})}
        # so in the scan {1, 2} and the subsets below it, {1}, {2} and {},
        # have no condition: the head conditions of {1, 2}, {1} and {2}
        # decide an atom on cond({1}) or cond({2}), and {}'s holds with no
        # decision and its own condition raises.  {1, 3}, {2, 3} and {3}
        # are refuted on cond({3}), which fits, and a failing subset's
        # condition is not projected
        with linarith.max_dnf(5):
            report = find_looping_queries(rule)
        assert {c.positions for c in report.checks if c.error} == {
            frozenset({1, 2}), frozenset({1}), frozenset({2}), frozenset()}
        assert cached_conditions() == {
            frozenset({1, 2, 3}), frozenset({1, 3}), frozenset({3})}


class TestMakeWitness:
    def witness_for(self, text, positions):
        rule = clause(text)
        filt = candidate_filter(rule, frozenset(positions))
        return make_witness(filt, rule)

    def test_shift_ge_full(self):
        w = self.witness_for(SHIFT_GE, {1, 2})
        assert str(w) == "<p(0, 0) | true>"

    def test_counter_second_position(self):
        w = self.witness_for(
            "p11(A, B) <- A >= 1, A = C + 1, B = D <> p11(C, D).", {2})
        assert str(w) == "<p11(A, 0) | A >= 1>"

    def test_lower_bounds_push_sample_up(self):
        w = self.witness_for(
            "pow2(A, B, C) <- A >= 1, A = D + 1, B = E, C = F, B >= 1, C >= 2, "
            "C >= B <> pow2(D, E, F).",
            {2, 3})
        assert str(w) == "<pow2(A, 1, 2) | A >= 1>"

    def test_empty_positions_keep_head_vars(self):
        w = self.witness_for("p10(A) <- A >= 1, B = A <> p10(B).", frozenset())
        assert str(w) == "<p10(A) | A >= 1>"

    def test_a_condition_without_a_sample_is_a_fault(self, monkeypatch):
        # a filter condition is satisfiable by construction, so a sampler
        # that finds no solution is a fault, not a witness
        monkeypatch.setattr(linarith, "sample_solution", lambda *args, **kw: None)
        with pytest.raises(AssertionError, match="satisfiable by construction"):
            self.witness_for(SHIFT_GE, {1, 2})


class TestClassClosure:
    def test_full_set(self):
        got = class_closure({frozenset({1, 2})})
        assert got == {frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})}

    def test_empty_only(self):
        assert class_closure({frozenset()}) == {frozenset()}

    def test_nothing(self):
        assert class_closure(set()) == frozenset()

    def test_union_of_chains(self):
        got = class_closure({frozenset({2, 3}), frozenset({2})})
        assert got == {frozenset(), frozenset({2}), frozenset({3}), frozenset({2, 3})}


class TestFindLoopingQueries:
    def test_shift_ge_passes_full_set(self):
        report = find_looping_queries(clause(SHIFT_GE))
        passing = {r.positions for r in report.results}
        assert frozenset({1, 2}) in passing
        assert report.status == "looping"
        assert report.classes == class_closure(passing)
        for r in report.results:
            assert r.verified_steps == 100

    def test_shift_le_only_empty_set(self):
        report = find_looping_queries(clause(SHIFT_LE))
        passing = {r.positions for r in report.results}
        assert passing == {frozenset()}
        by_positions = {c.positions: c for c in report.checks}
        assert by_positions[frozenset({1, 2})].failed_condition == "body"
        assert by_positions[frozenset({1})].failed_condition == "head"
        assert by_positions[frozenset({2})].failed_condition == "head"

    def test_descending_counter_has_no_filter(self):
        report = find_looping_queries(clause("p(A) <- A = 0, B = 1 <> p(B)."))
        assert report.status == "none found"
        assert report.results == ()
        assert report.classes == frozenset()

    def test_non_recursive_rule_empty_report(self):
        rule = clause("p(A) <- A >= 0 <> q(A).\nq(A) <- true <> q(A).")
        report = find_looping_queries(rule)
        assert report.status == "none found"
        assert report.checks == ()

    def test_shift_ge_single_result_with_full_closure(self):
        report = find_looping_queries(clause(SHIFT_GE))
        assert [r.positions for r in report.results] == [frozenset({1, 2})]
        assert len(report.classes) == 4

    def test_first_only_stops_at_largest(self):
        rule = clause("p(A, B) <- A >= 1, A = C + 1, B = D <> p(C, D).")
        full = find_looping_queries(rule)
        first = find_looping_queries(rule, opts=AnalyzeOptions(first_only=True))
        assert {r.positions for r in full.results} == {frozenset({2}), frozenset()}
        assert len(first.results) == 1
        assert first.results[0].positions == frozenset({2})

    def test_verify_steps_zero_skips_engine(self):
        report = find_looping_queries(
            clause(SHIFT_GE), opts=AnalyzeOptions(verify_steps=0))
        assert report.results
        assert all(r.verified_steps == 0 for r in report.results)

    def test_subset_scan_order(self):
        report = find_looping_queries(clause(SHIFT_GE))
        sizes = [len(c.positions) for c in report.checks]
        assert sizes == sorted(sizes, reverse=True)

    def test_resource_errors_recorded_and_scan_continues(self):
        rule = clause(
            "pow2(A, B, C) <- A >= 1, A = D + 1, B = E, C = F, B >= 1, C >= 2, "
            "C >= B <> pow2(D, E, F).")
        with linarith.max_dnf(3):
            report = find_looping_queries(rule)
        assert report.errors
        assert any("exceeds 3" in e for e in report.errors)
        # subsets after the failing one were still checked
        assert len(report.checks) == 8

    def test_limit_in_the_head_builder_is_the_subsets_error(self):
        # subset {2}'s candidate filter projects within 3 conjuncts; the
        # head condition's right side, the rule constraint projected onto
        # X u Y_-m, needs more
        rule = clause(
            "p(A1, A2, A3) <- 3*A2 - B1 > 3, A2 - 2*B2 > 7, 3*A2 + 2*B1 > -1, "
            "B3 = -2, 2*B1 = 1 <> p(B1, B2, B3).")
        m, full = frozenset({2}), frozenset({1, 2, 3})
        with linarith.max_dnf(3):
            candidate_filter(rule, m)
            with pytest.raises(ResourceLimitError, match="exceeds 3"):
                neutral.projection(rule, full, full - m)
            with pytest.raises(ResourceLimitError, match="exceeds 3"):
                head_splits(rule, m, full - m)
            report = find_looping_queries(rule)
        failed = next(c for c in report.checks if c.positions == m)
        assert failed.error == "elimination exceeds 3 conjuncts"
        assert failed.head_ok is None
        assert report.results

    def test_a_head_side_that_raised_is_not_cached(self):
        # {2}'s head condition decides the atom B - C <= 0 of its right side
        # rhs, over X u Y_-m, on proj(c, {C}) and cond({2}); proj(c, {C}) is
        # the side ({3}, {}), projected from the top down the chain
        # ({2, 3}, {2, 3}), ({3}, {3}).  Within 4 conjuncts rhs fits and the
        # chain's first step does not
        rule = clause(
            "pow2(A, B, C) <- A >= 1, A = D + 1, B = E, C = F, B >= 1, C >= 2, "
            "C >= B <> pow2(D, E, F).")
        m = frozenset({2})

        def cached_sides():
            return {node for node in rule._projections if node[1] is not None}

        full, rest = frozenset({1, 2, 3}), frozenset({1, 3})
        with pytest.raises(ResourceLimitError, match="exceeds 4"), linarith.max_dnf(4):
            head_splits(rule, m, rest)
        top, rhs = (full, full), (full, rest)
        assert cached_sides() == {top, rhs}
        assert not rule._crossings
        # a larger limit serves from the top; the chain and the atom's
        # verdict are cached once they fit
        held = head_splits(rule, m, rest)
        chain = {(frozenset({2, 3}), frozenset({2, 3})), (frozenset({3}), frozenset({3})),
                 (frozenset({3}), frozenset())}
        assert cached_sides() == {top, rhs} | chain
        assert len(rule._crossings) == 1
        assert held == head_splits(clause(str(rule)), m, rest)

    def test_a_verdict_is_served_only_under_its_ceiling(self, monkeypatch):
        # {2}'s head condition decides B - C <= 0 on the side ({3}, {}),
        # whose chain's first step exceeds 4 conjuncts (see the test
        # above).  The verdict decided under 2000 is served, with nothing
        # built, under 2000 and more; under 4 it is decided again and
        # raises, which leaves the cached verdict as it was
        rule = clause(
            "pow2(A, B, C) <- A >= 1, A = D + 1, B = E, C = F, B >= 1, C >= 2, "
            "C >= B <> pow2(D, E, F).")
        m, rest = frozenset({2}), frozenset({1, 3})
        built = []
        builder = analyzer.neutrality_head_formula
        monkeypatch.setattr(analyzer, "neutrality_head_formula",
                            lambda *args: built.append(args) or builder(*args))
        with linarith.max_dnf(2000):
            held = head_splits(rule, m, rest)
        [(key, cached)] = rule._crossings.items()
        assert cached == (2000, held) and len(built) == 1
        for limit in (2000, linarith.DEFAULT_DNF_LIMIT):
            with linarith.max_dnf(limit):
                assert head_splits(rule, m, rest) == held
        assert len(built) == 1
        with pytest.raises(ResourceLimitError, match="exceeds 4"), linarith.max_dnf(4):
            head_splits(rule, m, rest)
        assert len(built) == 2 and rule._crossings == {key: (2000, held)}
        # decided within 5, the verdict serves every ceiling from 5 up
        with linarith.max_dnf(5):
            assert head_splits(rule, m, rest) == held
        assert len(built) == 3 and rule._crossings == {key: (5, held)}

    def test_witness_overflow_is_the_subsets_error(self):
        # subset {1, 2} passes the search within 4 conjuncts; its witness
        # needs 5
        rule = clause("p(A1, A2) <- 4*B1 > -1, A1 - 2*B1 > -8, B2 >= 1 <> p(B1, B2).")
        with linarith.max_dnf(4):
            report = find_looping_queries(rule)
        assert [(c.positions, c.error) for c in report.checks if c.error] == [
            (frozenset({1, 2}), "elimination exceeds 4 conjuncts")]
        assert not report.results
        with linarith.max_dnf(5):
            report = find_looping_queries(rule)
        assert [r.positions for r in report.results] == [frozenset({1, 2})]
        assert report.results[0].verified_steps == 100


class TestPropagate:
    PAIR = (
        "p(A) <- A = B + 1, B >= 0 <> p(B).\n"
        "q(Z) <- Z <= 5 <> p(W).\n"
    )

    def test_head_query_propagates(self):
        prog = parse_program(self.PAIR)
        report = analyze_program(prog)
        assert len(report.propagated) == 1
        loop = report.propagated[0]
        assert loop.index == 1
        assert str(loop.head_query) == "<q(Z) | Z <= 5>"
        assert str(loop.via) == "<p(A) | A - B = 1, B >= 0>"

    def test_propagated_query_actually_loops(self):
        prog = parse_program(self.PAIR)
        report = analyze_program(prog)
        q = report.propagated[0].head_query
        state = run(q, prog, max_steps=100)
        assert state.steps == 100

    def test_chain_of_two(self):
        prog = parse_program(self.PAIR + "s(U) <- U >= 0 <> q(V).\n")
        report = analyze_program(prog)
        assert len(report.propagated) == 2
        assert [p.index for p in report.propagated] == [1, 2]
        assert str(report.propagated[1].head_query) == "<s(U) | U >= 0>"

    def test_no_propagation_when_disabled(self):
        prog = parse_program(self.PAIR)
        report = analyze_program(prog, AnalyzeOptions(propagate=False))
        assert report.propagated == ()

    def test_body_constraint_blocks_propagation(self):
        # body query demands W <= -1 where the known loop needs W >= 0
        prog = parse_program(
            "p(A) <- A = B + 1, B >= 0 <> p(B).\n"
            "q(Z) <- Z <= 5, W <= -1 <> p(W).\n"
        )
        report = analyze_program(prog)
        assert report.propagated == ()


def random_program(rng):
    """Directly looping rules (unary and binary sinks with several witnesses,
    two rules sharing a head), a recursive rule with no result, and levels of
    non-recursive callers, some blocked by their body bound and some sharing
    a head predicate, listed callee-first, callee-last or shuffled."""
    lines = [
        "s(A) <- A = B <> s(B).",
        "t(A, B) <- A = C, B = D <> t(C, D).",
        "u(A) <- A = B + 1, B >= 0 <> u(B).",
        "u(A) <- A = B - 1, B <= 5 <> u(B).",
        "r(A) <- A = 0, B = 1 <> r(B).",
    ]
    callees = ["s", "t", "u", "r"]
    levels = []
    for level in range(rng.randint(2, 4)):
        names = [f"c{level}_{i}" for i in range(rng.randint(2, 4))]
        rules = []
        for _ in range(rng.randint(3, 6)):
            head = rng.choice(names + ["r"] * (level == 0))
            callee = rng.choice(callees)
            k, k2 = rng.randint(-3, 6), rng.randint(-3, 6)
            op = rng.choice(["<=", "<=", "<=", ">="])
            args = "Y, Z" if callee == "t" else "Y"
            rules.append(f"{head}(X) <- X <= {k}, Y {op} {k2} <> {callee}({args}).")
        levels.append(rules)
        callees += names
    order = rng.choice(["first", "last", "shuffled"])
    callers = [rule for rules in levels for rule in rules]
    if order == "last":
        callers = [rule for rules in reversed(levels) for rule in rules]
    elif order == "shuffled":
        rng.shuffle(callers)
    return parse_program("\n".join(lines + callers) + "\n")


def chain_program(depth, width):
    """Unary sinks and `depth` levels of `width` callers listed callee-last;
    one caller of the second level is blocked, and every body query is
    distinct."""
    lines = ["s1(A) <- A = B <> s1(B).", "s2(A) <- A = B <> s2(B)."]
    callees = ["s1", "s2"]
    bound = {"s1": 0, "s2": 0}  # the sinks' witnesses are s1(0) and s2(0)
    levels = []
    for level in range(1, depth + 1):
        names = [f"c{level}_{i}" for i in range(width)]
        rules = []
        for i, name in enumerate(names):
            callee = callees[i % len(callees)]
            k2 = bound[callee] - ((level, i) == (2, 0))
            bound[name] = 10 * level + i
            rules.append(f"{name}(X) <- X <= {bound[name]}, Y <= {k2} <> "
                         f"{callee}(Y).")
        levels.append(rules)
        callees = names
    callers = [rule for rules in reversed(levels) for rule in rules]
    return parse_program("\n".join(lines + callers) + "\n")


class TestSemiNaivePropagate:
    OPTS = AnalyzeOptions(verify_steps=0, propagate=False)

    def test_equals_naive_rescan(self):
        propagated = rounds = 0
        for seed in range(24):
            prog = random_program(random.Random(seed))
            reports = analyze_program(prog, self.OPTS).reports
            got = propagate(prog, reports)
            assert got == naive_propagate(prog, reports), seed
            propagated += len(got)
            rounds += any(a.index > b.index for a, b in zip(got, got[1:]))
        # the programs exercise propagation, also over several rounds
        assert propagated >= 24 and rounds >= 4

    def test_each_pair_tested_at_most_once(self, monkeypatch):
        prog = chain_program(depth=6, width=4)
        reports = analyze_program(prog, self.OPTS).reports
        calls = []
        more_general = analyzer.more_general

        def counted(body_q, fact):
            calls.append((body_q, fact))
            return more_general(body_q, fact)

        monkeypatch.setattr(analyzer, "more_general", counted)
        got = propagate(prog, reports)
        # the blocked caller cuts its callers off, one per level above it
        assert len(got) == 6 * 4 - 5
        assert calls and len(calls) == len(set(calls))
        calls.clear()
        assert naive_propagate(prog, reports) == got
        assert len(calls) > len(set(calls))

    def test_each_query_built_at_most_once(self, monkeypatch):
        # a rule builds its head and body query once and keeps them, so the
        # scan and propagation compute no rule query's denotation twice
        built = Counter()
        init = Query.__init__

        def counted(q, atom, constraint):
            built[atom, constraint] += 1
            init(q, atom, constraint)

        monkeypatch.setattr(Query, "__init__", counted)
        tested = 0
        for seed in range(24):
            prog = random_program(random.Random(seed))
            # equal rules may each build their own
            rules = Counter((atom, rule.constraint) for rule in prog.clauses
                            for atom in (rule.head_atom, rule.body_atom))
            built.clear()
            propagate(prog, analyze_program(prog, self.OPTS).reports)
            assert all(built[key] <= n for key, n in rules.items()), seed
            tested += sum(built[key] > 0 for key in rules)
        assert tested >= 500, tested  # 579 at these seeds


class TestPropagationLimit:
    # clause 3's body denotation eliminates X from three lower and two upper
    # bounds: 6 conjuncts, above a ceiling of 3; clause 2's takes 2
    PROGRAM = (
        "s(A) <- A = B <> s(B).\n"
        "c(X) <- X >= Y, X >= 2*Y, X <= 5 <> s(Y).\n"
        "d(X) <- X >= Y, X >= 2*Y, X >= 3*Y, X <= 5, X <= 6 + Y <> s(Y).\n"
    )

    def test_propagation_obeys_max_dnf(self):
        prog = parse_program(self.PROGRAM)
        report = analyze_program(prog)
        assert [p.index for p in report.propagated] == [1, 2]
        assert report.propagation_error is None and not report.had_error
        with linarith.max_dnf(3):
            limited = analyze_program(prog)
        # the scan is unaffected; propagation keeps the loop found before
        # the limit and records it
        assert limited.reports == report.reports
        assert limited.propagated == report.propagated[:1]
        assert limited.propagation_error == "elimination exceeds 3 conjuncts"
        assert limited.had_error

    def test_the_ceiling_does_not_outlive_the_call(self):
        # an enclosing scope reaches the scan (clause 4 needs more than 3
        # conjuncts, see TestFindLoopingQueries) and propagation alike
        prog = parse_program(
            self.PROGRAM + "pow2(A, B, C) <- A >= 1, A = D + 1, B = E, C = F, "
            "B >= 1, C >= 2, C >= B <> pow2(D, E, F).\n")
        with linarith.max_dnf(3):
            limited = analyze_program(prog)
        assert any("exceeds 3" in e for e in limited.reports[3].errors)
        assert limited.propagation_error == "elimination exceeds 3 conjuncts"
        assert linarith.ceiling() == linarith.DEFAULT_DNF_LIMIT
        report = analyze_program(prog)
        assert not report.had_error
        assert [p.index for p in report.propagated] == [1, 2]

    def test_propagate_raises_with_the_loops_found(self):
        prog = parse_program(self.PROGRAM)
        reports = analyze_program(prog, AnalyzeOptions(propagate=False)).reports
        with pytest.raises(analyzer.PropagationLimitError) as exc, linarith.max_dnf(3):
            propagate(prog, reports)
        assert isinstance(exc.value, ResourceLimitError)
        assert [p.index for p in exc.value.found] == [1]
        with linarith.max_dnf(6):
            assert len(propagate(prog, reports)) == 2


class TestProgramReport:
    def test_results_within_classes(self, corpus_report):
        for rep in corpus_report.reports:
            passing = {r.positions for r in rep.results}
            assert passing <= rep.classes
            assert rep.classes == class_closure(passing)

    def test_no_resource_errors_at_default_limit(self, corpus_report):
        assert not corpus_report.had_error

    def test_statuses(self, corpus_report):
        statuses = [r.status for r in corpus_report.reports]
        assert statuses.count("none found") == 2
        assert statuses.count("looping") == 16

    def test_class_queries_loop(self, corpus_report):
        # every class m is lifted from a passing tau containing it: the
        # witness constants at m, fresh variables elsewhere, store true
        members = 0
        for rep in corpus_report.reports:
            for m in rep.classes:
                res = next(r for r in rep.results if m <= r.positions)
                args = []
                for i, t in enumerate(res.witness.atom.args, start=1):
                    if i in m:
                        assert not t.variables, (rep.index, sorted(m))
                        args.append(t)
                    else:
                        args.append(LinTerm.of_var(Var(f"F{i}")))
                q = Query(Atom(rep.clause.head_pred, tuple(args)),
                          Constraint(()))
                state = run(q, Program((rep.clause,)), max_steps=100)
                assert state.steps == 100, (rep.index, sorted(m))
                members += 1
        assert members == 31


class _StoredDenotations:
    """Stands in for ``Query._den``, the cache of ``filters.denotation``:
    every denotation stored into it is a cache miss, recorded as the query's
    text.  The empty cache a new query starts with is no store.  Entries are
    kept by query id, with the query, which keeps the id from being reused."""

    def __init__(self):
        self.queries: list[str] = []
        self.stored: dict[int, tuple] = {}

    def __get__(self, q, owner=None):
        if q is None:
            return self
        entry = self.stored.get(id(q))
        return None if entry is None else entry[1]

    def __set__(self, q, value):
        if value is not None:
            self.queries.append(str(q))
            self.stored[id(q)] = (q, value)


def test_corpus_denotations_computed(corpus_path, monkeypatch):
    # each clause's head and body queries are built once for the whole
    # subset scan, and filter generality is decided on their denotations;
    # propagation starts from the scan's head queries.  The scan decides
    # both neutrality conditions on the condition constraint, and a witness
    # is delta-more-general by construction, so no condition query and no
    # witness is denoted by the scan
    stored = _StoredDenotations()
    monkeypatch.setattr(Query, "_den", stored)
    analyze_program(parse_program(corpus_path.read_text(encoding="utf-8")))
    repeats = len(stored.queries) - len(set(stored.queries))
    assert (len(stored.queries), repeats) == (59, 0)


def _shift_rule(n: int) -> Clause:
    xs = [f"X{i}" for i in range(1, n + 1)]
    ys = [f"Y{i}" for i in range(1, n + 1)]
    atoms = [f"{y} = {x} + 1" for x, y in zip(xs, ys)]
    atoms += [f"{a} >= {b}" for a, b in zip(xs, xs[1:])]
    return clause(f"p({', '.join(xs)}) <- {', '.join(atoms)} <> p({', '.join(ys)}).")


def test_shift_conditions_projected_once_per_subset(monkeypatch):
    # the candidate conditions of an arity-7 rule form one lattice, and the
    # scan projects only those it reads, each once from its parent's
    # condition: the 12 crossing atoms of the head denotation X1 >= X2, ...,
    # X6 >= X7 are decided on the conditions at single positions, the ends
    # of 7 chains from the full set (28 nodes), and the passing subsets, {}
    # and the full set, read their own and their witness stores; no
    # condition is checked for satisfiability again
    rule = _shift_rule(7)
    calls = Counter()
    open_filters = []
    project, satisfiable = linarith.project, linarith.satisfiable
    candidate = analyzer.candidate_filter

    def counted_project(c, keep):
        # the condition nodes of the rule's projection lattice, not its
        # head-condition sides or the layers below
        frame = sys._getframe(1)
        calls["project"] += (frame.f_code is neutral.projection.__code__
                             and frame.f_locals["node"][1] is None)
        return project(c, keep)

    def counted_satisfiable(c):
        calls["satisfiable"] += bool(open_filters)
        return satisfiable(c)

    def counted_candidate(*args):
        open_filters.append(args)
        try:
            return candidate(*args)
        finally:
            open_filters.pop()

    monkeypatch.setattr(linarith, "project", counted_project)
    monkeypatch.setattr(linarith, "satisfiable", counted_satisfiable)
    monkeypatch.setattr(analyzer, "candidate_filter", counted_candidate)
    report = find_looping_queries(rule)
    assert len(report.checks) == 128
    assert [sorted(r.positions) for r in report.results] == [list(range(1, 8)), []]
    assert (calls["project"], calls["satisfiable"]) == (29, 0)
    assert sum(1 for a, b in rule._projections if b is None) == 29


def test_shift_filters_built_for_passing_subsets_only(monkeypatch):
    # the scan decides each of the 128 subsets on its condition constraint;
    # only the 2 passing subsets, the full set and {}, get a candidate
    # filter, and no condition query is denoted: a witness needs no
    # generality check
    rule = _shift_rule(7)
    built = []
    candidate = analyzer.candidate_filter
    stored = _StoredDenotations()
    monkeypatch.setattr(analyzer, "candidate_filter",
                        lambda r, m, *rest: built.append(m) or candidate(r, m, *rest))
    monkeypatch.setattr(Query, "_den", stored)
    report = find_looping_queries(rule)
    passing = [r.positions for r in report.results]
    assert len(report.checks) == 128
    assert passing == [frozenset(range(1, 8)), frozenset()]
    assert built == passing
    conditions = [q for q in stored.queries if q.startswith("<p|")]
    assert conditions == [], conditions


def test_shift_head_sides_eliminate_at_most_three_per_subset(monkeypatch):
    # the head condition's sides of an arity-7 rule form one lattice: each
    # subset's rhs eliminates y_j from its parent's, and its lhs x_j and
    # y_j, with j the subset's largest position; projecting the whole rule
    # constraint again for each subset took 895 eliminations
    rule = _shift_rule(7)
    calls = Counter()
    inside = []
    eliminate = linarith._Store.eliminate
    builder = analyzer.neutrality_head_formula

    def counted_eliminate(store, x):
        calls["head"] += bool(inside)
        return eliminate(store, x)

    def counted_builder(*args):
        inside.append(args)
        try:
            return builder(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(linarith._Store, "eliminate", counted_eliminate)
    monkeypatch.setattr(analyzer, "neutrality_head_formula", counted_builder)
    report = find_looping_queries(rule)
    assert len(report.checks) == 128
    assert [sorted(r.positions) for r in report.results] == [list(range(1, 8)), []]
    assert calls["head"] <= 3 * 128, calls


def test_shift_refutations_stop_once_the_negated_atom_is_gone(monkeypatch):
    # both neutrality formulas of a subset have a left side recorded
    # satisfiable, so a refutation eliminates only until no atom derived
    # from the negated atom is left; eliminating every variable of each
    # refutation took 1233 eliminations
    rule = _shift_rule(7)
    calls = Counter()
    inside = []
    eliminate = linarith._Store.eliminate
    decide = linarith.decide

    def counted_eliminate(store, x):
        calls["decide"] += bool(inside)
        return eliminate(store, x)

    def counted_decide(*args):
        inside.append(args)
        try:
            return decide(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(linarith._Store, "eliminate", counted_eliminate)
    monkeypatch.setattr(linarith, "decide", counted_decide)
    report = find_looping_queries(rule)
    assert len(report.checks) == 128
    assert [sorted(r.positions) for r in report.results] == [list(range(1, 8)), []]
    assert calls["decide"] <= 4 * 128, calls


def test_shift_simplifies_few_whole_conjunctions(monkeypatch):
    # projections are recorded simplified, so a lattice step or a
    # refutation takes its input as it is, and an elimination step
    # simplifies only the slopes its new atoms reach: simplifying each
    # input and each step's whole output took 1156 passes
    rule = _shift_rule(7)
    calls = Counter()
    simplify = linarith._simplify_conj

    def counted_simplify(atoms):
        calls["simplify"] += 1
        return simplify(atoms)

    monkeypatch.setattr(linarith, "_simplify_conj", counted_simplify)
    report = find_looping_queries(rule)
    assert len(report.checks) == 128
    assert [sorted(r.positions) for r in report.results] == [list(range(1, 8)), []]
    assert calls["simplify"] <= 100, calls


def test_a_passing_subset_costs_its_two_decisions_only(monkeypatch):
    # every subset of p(X1..X8) <- Yi = Xi + 1 <> p(Y1..Y8) passes; each
    # takes exactly the body and subsumption decisions: no atom of the
    # head denotation or of the head condition's right side crosses the
    # subset, so neither head split is decided; a witness is
    # delta-more-general by construction and not decided again, and its
    # fact joins the fact base by a hash lookup
    xs = [f"X{i}" for i in range(1, 9)]
    ys = [f"Y{i}" for i in range(1, 9)]
    rule = clause(f"p({', '.join(xs)}) <- "
                  f"{', '.join(f'{y} = {x} + 1' for x, y in zip(xs, ys))} "
                  f"<> p({', '.join(ys)}).")
    decided = []
    decide = linarith.decide
    monkeypatch.setattr(linarith, "decide", lambda e: decided.append(e) or decide(e))
    report = find_looping_queries(rule, opts=AnalyzeOptions(verify_steps=0))
    assert (len(report.results), len(report.classes)) == (256, 256)
    assert len(decided) == 2 * 256
    # the head query and 256 distinct witnesses, in order of discovery
    facts = analyzer.looping_facts((report,))[rule.head_pred]
    assert facts == [rule.head_query] + [r.witness for r in report.results]


def test_shift_builds_head_sides_only_where_the_split_holds(monkeypatch):
    # the head denotation X1 >= X2, ..., X6 >= X7 splits over {} and the
    # full set, where no atom crosses the subset, and over no other subset:
    # the split refutes the other 126 undecided by their sides.  It decides
    # each crossing atom once with each of its two variables inside the
    # subset, 12 checks in all, and serves them again from the rule.  At {}
    # and the full set no atom of the head condition's right side crosses
    # the subset either, so no atom of it is decided
    rule = _shift_rule(7)
    full = frozenset(range(1, 8))
    whole = neutral.projection(rule, full, None)
    built = []
    builder = analyzer.neutrality_head_formula

    def counted_builder(rule, head_pos, body_kept, atom):
        built.append((body_kept, atom, atom.variables & set(rule.head_vars[i - 1]
                                                             for i in head_pos)))
        return builder(rule, head_pos, body_kept, atom)

    monkeypatch.setattr(analyzer, "neutrality_head_formula", counted_builder)
    report = find_looping_queries(rule)
    assert [sorted(r.positions) for r in report.results] == [list(range(1, 8)), []]
    assert sum(1 for c in report.checks if c.failed_condition == "head") == 126
    assert len(built) == len(set(built)) == 12
    assert {b for b, _, _ in built} == {None}
    assert {a for _, a, _ in built} == set(whole.atoms)
    assert len(rule._crossings) == 12
    sides = {node for node in rule._projections if node[1] is not None}
    # the full set's right side and its chain up to the root, rhs({})
    assert sides == {(full, frozenset(range(j, 8))) for j in range(1, 9)}


def test_a_redundant_atom_across_the_subset_leaves_the_split_holding(monkeypatch):
    # X1 + X2 >= 0 crosses {1} and {2}, but X1 >= 0 and X2 >= 0 imply it,
    # so the head denotation splits over both.  The atom is decided once
    # for each, on X1 >= 0 and X2 >= 0; their head conditions, which hold,
    # cross it with the same variable inside and are served those verdicts
    rule = clause("p(X1, X2) <- X1 >= 0, X2 >= 0, X1 + X2 >= 0, "
                  "Y1 = X1 + 1, Y2 = X2 + 1 <> p(Y1, Y2).")
    whole = neutral.projection(rule, frozenset({1, 2}), None)
    assert str(whole) == "X1 >= 0, X2 >= 0, X1 + X2 >= 0"
    built = []
    builder = analyzer.neutrality_head_formula
    monkeypatch.setattr(analyzer, "neutrality_head_formula",
                        lambda *args: built.append(args) or builder(*args))
    report = find_looping_queries(rule, opts=AnalyzeOptions(verify_steps=0))
    assert [c.head_ok for c in report.checks] == [True] * 4
    crossing = whole.atoms[2]
    assert [(sorted(m), b, a) for _, m, b, a in built] == [
        ([1], None, crossing), ([2], None, crossing)]
    for m in ({1}, {2}):
        assert head_splits(rule, frozenset(m), frozenset({1, 2}) - m)
        assert decide(builder(rule, frozenset(m), None, crossing))


def test_a_split_over_the_ceiling_leaves_the_head_condition_to_decide():
    # under a ceiling of 3 conjuncts cond({1, 2}), which eliminates X3 from
    # two lower and two upper bounds, does not fit.  So at {2, 3} the split
    # of the head denotation cannot decide either of its crossing atoms on
    # cond({1}), below cond({1, 2}), and takes both to be kept.  The head
    # condition decides the first, X1 - X2 - X3 >= -2, on proj(c, {X1}) as
    # the side ({1}, {}), whose chain eliminates X2 before X3, and refutes
    # it.  Every other subset exceeds the ceiling
    text = ("p(X1, X2, X3) <- X3 >= 0, X2 + X3 <= X1 + 2, X1 >= X3, X3 >= X2, "
            "Y1 = X1, Y2 = X2, Y3 = X3 <> p(Y1, Y2, Y3).")
    rule = clause(text)
    m = frozenset({2, 3})
    with linarith.max_dnf(3):
        with pytest.raises(ResourceLimitError):
            neutral.projection(rule, frozenset({1, 2}), None)
        assert head_splits(rule, m, None)
        assert not rule._crossings
        assert not head_splits(rule, m, frozenset({1}))
        report = find_looping_queries(clause(text), opts=AnalyzeOptions(verify_steps=0))
    limit = "elimination exceeds 3 conjuncts"
    assert [(sorted(c.positions), c.head_ok, c.error) for c in report.checks] == [
        ([1, 2, 3], None, limit), ([1, 2], None, limit), ([1, 3], None, limit),
        ([2, 3], False, None), ([1], None, limit), ([2], None, limit),
        ([3], None, limit), ([], None, limit)]
    # within the default ceiling the split refutes {2, 3} itself
    assert not head_splits(clause(text), m, None)


def _head_decisions(monkeypatch) -> list:
    """The head formulas that the scan decides, as a list that fills as
    it runs."""
    decided = []
    built = {}  # holding each formula keeps its id from being reused
    builder, decide = analyzer.neutrality_head_formula, linarith.decide

    def counted_builder(*args):
        formula = builder(*args)
        built[id(formula)] = formula
        return formula

    def counted_decide(e):
        if id(e) in built:
            decided.append(e)
        return decide(e)

    monkeypatch.setattr(analyzer, "neutrality_head_formula", counted_builder)
    monkeypatch.setattr(linarith, "decide", counted_decide)
    return decided


def test_head_decisions_do_not_grow_with_the_subsets(monkeypatch):
    # the head denotation X1 >= X2, ..., X9 >= X10 has 9 atoms, each
    # crossing a subset with one of its two variables inside: 18 questions
    # for the 1022 subsets over which it does not split.  Deciding each
    # split whole took 1022 decisions
    rule = _shift_rule(10)
    decided = _head_decisions(monkeypatch)
    report = find_looping_queries(rule, opts=AnalyzeOptions(verify_steps=0))
    assert len(report.checks) == 1024
    assert sum(1 for c in report.checks if c.failed_condition == "head") == 1022
    assert len(decided) <= 2 * (10 - 1)


def test_a_rule_whose_subsets_all_pass_makes_no_head_decision(monkeypatch):
    # no atom of p(X1..X10) <- Yi = Xi + 1 <> p(Y1..Y10)'s head denotation
    # or head conditions' right sides mentions two positions
    xs = [f"X{i}" for i in range(1, 11)]
    ys = [f"Y{i}" for i in range(1, 11)]
    rule = clause(f"p({', '.join(xs)}) <- "
                  f"{', '.join(f'{y} = {x} + 1' for x, y in zip(xs, ys))} "
                  f"<> p({', '.join(ys)}).")
    decided = _head_decisions(monkeypatch)
    report = find_looping_queries(rule, opts=AnalyzeOptions(verify_steps=0))
    assert len(report.results) == 1024
    assert decided == []


def test_class_closure_of_every_subset_of_ten_positions(monkeypatch):
    # the full set comes first and holds every other passing set, so the
    # closure enumerates its 2^10 subsets once, not the 3^10 pairs of a
    # passing set and its subset
    every = {frozenset(c) for size in range(11)
             for c in itertools.combinations(range(1, 11), size)}
    made = []
    combinations = itertools.combinations

    def counted(items, size):
        for sub in combinations(items, size):
            made.append(sub)
            yield sub

    monkeypatch.setattr(analyzer.itertools, "combinations", counted)
    closure = class_closure(every)
    monkeypatch.undo()
    assert closure == every and len(every) == 1024
    assert len(made) == 1024
