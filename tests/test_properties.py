"""Randomized invariants over the term, formula and engine layers.

Counts stay modest here; the heavier randomized suites with their own
budgets live in the acceptance gate.
"""

import random

from fuzzers import (
    every_step_run,
    rand_constraint,
    rand_formula,
    rand_linear_query,
    rand_query,
    rand_rule,
    relax,
    textbook_step,
)

from clploop import engine
from clploop.engine import derivation_step, run
from clploop.filters import PositionSet, more_general, project_query
from clploop.linarith import (
    decide,
    eliminate_exists,
    exists,
    free_vars,
    implies,
    neg,
    project,
    sample_solution,
    satisfiable,
    substitute,
    to_formula,
)
from clploop.syntax import Pred, Program, Var, max_gen, parse_program


class TestGeneralityProperties:
    def test_reflexive(self):
        rng = random.Random(101)
        pred = Pred("p", 2)
        for _ in range(150):
            q = rand_query(rng, pred)
            assert more_general(q, q)

    def test_relax_is_more_general(self):
        rng = random.Random(102)
        pred = Pred("p", 2)
        for _ in range(150):
            q = rand_query(rng, pred)
            assert more_general(relax(rng, q), q)

    def test_projection_preserves_inclusion(self):
        rng = random.Random(103)
        pred = Pred("p", 2)
        for _ in range(100):
            q1 = rand_query(rng, pred)
            q2 = relax(rng, q1)
            ps = frozenset(i for i in (1, 2) if rng.random() < 0.5)
            tau = PositionSet.of({pred: ps})
            assert more_general(project_query(q2, tau), project_query(q1, tau))


class TestEliminationProperties:
    VARS = (Var("U"), Var("V"), Var("W"))

    def test_eliminate_exists_equivalent(self):
        rng = random.Random(104)
        x = Var("X")
        for _ in range(150):
            body = rand_formula(rng, self.VARS[: rng.randint(0, 2)] + (x,))
            lhs = exists([x], body)
            rhs = eliminate_exists([x], body)
            assert decide(implies(lhs, rhs))
            assert decide(implies(rhs, lhs))

    def test_closed_formulas_are_two_valued(self):
        # exactly one of f, not f holds once f is closed
        rng = random.Random(105)
        for _ in range(150):
            f = rand_formula(rng, self.VARS)
            grounded = substitute(
                f, {v: rng.randint(-4, 4) for v in free_vars(f)})
            assert decide(grounded) != decide(neg(grounded))

    def test_projection_variables_within_keep(self):
        rng = random.Random(106)
        for _ in range(150):
            c = rand_constraint(rng, self.VARS, max_atoms=4)
            keep = {v for v in self.VARS if rng.random() < 0.5}
            p = project(c, keep)
            assert p.variables <= keep

    def test_projection_equivalent_to_existential(self):
        rng = random.Random(107)
        for _ in range(100):
            c = rand_constraint(rng, self.VARS, max_atoms=4)
            keep = {v for v in self.VARS if rng.random() < 0.5}
            drop = sorted(c.variables - keep)
            lhs = exists(drop, to_formula(c))
            rhs = to_formula(project(c, keep))
            assert decide(implies(lhs, rhs))
            assert decide(implies(rhs, lhs))


class TestSampleProperties:
    VARS = (Var("U"), Var("V"), Var("W"))

    def test_sample_iff_satisfiable(self):
        rng = random.Random(108)
        for _ in range(200):
            c = rand_constraint(rng, self.VARS, max_atoms=4)
            v = sample_solution(c)
            assert (v is not None) == satisfiable(c)
            if v is not None:
                assert all(a.eval(v) for a in c)
                assert sample_solution(c) == v


class TestEngineProperties:
    def test_stores_stay_satisfiable_along_runs(self):
        rng = random.Random(109)
        for _ in range(60):
            rule = rand_rule(rng)
            q = rand_query(rng, rule.head_pred)
            state = run(q, Program((rule,)), max_steps=5, keep_trace=True)
            for _, step_q in state.trace:
                assert satisfiable(step_q.constraint)

    def test_shortcut_matches_every_step_run(self):
        # two-rule programs exercise leftmost selection: the second rule
        # applies only where the first one fails
        rng = random.Random(112)
        for k in range(40):
            rule = rand_rule(rng)
            first = rand_rule(rng, arity=rule.head_pred.arity)
            rules = (rule,) if k % 2 else (first, rule)
            q = rand_query(rng, rule.head_pred)
            prog = Program(rules)
            fast = run(q, prog, max_steps=20, keep_trace=True)
            full = every_step_run(q, prog, 20)
            assert fast.steps == len(full)
            at = fast.cycle[0] if fast.cycle else fast.steps
            assert fast.trace[:at] == full[:at]
            if full:
                assert engine._variant_key(fast.current) == engine._variant_key(full[-1][1])

    def test_steps_match_textbook_steps(self):
        # every rule tried from every executed query, rules with a local
        # variable included: the projecting step exists exactly when the
        # textbook step does, and the two successors denote the same set
        rng = random.Random(111)
        found = missing = 0
        for k in range(40):
            rule = rand_rule(rng)
            first = rand_rule(rng, arity=rule.head_pred.arity)
            prog = Program((rule,) if k % 2 else (first, rule))
            make_query = rand_linear_query if k % 4 >= 2 else rand_query
            q = make_query(rng, rule.head_pred)
            state = run(q, prog, max_steps=6, keep_trace=True)
            at = state.cycle[0] if state.cycle else state.steps
            executed = state.trace[:at]
            for query, taken in zip([q] + [sq for _, sq in executed], executed + [None]):
                generation = 1 + max_gen(query)
                for index, r in enumerate(prog.clauses):
                    ours = derivation_step(query, r, generation)
                    book = textbook_step(query, r, generation)
                    assert (ours is None) == (book is None), (str(r), str(query))
                    if ours is None:
                        missing += 1
                        continue
                    found += 1
                    assert more_general(ours, book) and more_general(book, ours)
                    if taken is not None and taken[0] == index:
                        assert taken[1] == ours
        assert found >= 100 and missing >= 5

    def test_projected_and_plain_runs_agree_on_length(self):
        rng = random.Random(110)
        for k in range(40):
            rule = rand_rule(rng)
            make_query = rand_linear_query if k % 2 else rand_query
            q = make_query(rng, rule.head_pred)
            prog = Program((rule,))
            plain = every_step_run(q, prog, 4, step=textbook_step)
            small = run(q, prog, max_steps=4)
            assert len(plain) == small.steps


class TestSourceRoundTrip:
    def test_corpus_round_trips(self, corpus_program):
        text = str(corpus_program)
        assert parse_program(text) == corpus_program

    def test_random_rules_round_trip(self):
        rng = random.Random(111)
        for _ in range(60):
            rule = rand_rule(rng)
            prog = Program((rule,))
            again = parse_program(str(prog))
            assert again.clauses[0] == rule
