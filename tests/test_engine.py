"""Derivation steps and bounded runs."""

import pytest

from clploop import engine
from clploop.engine import DerivationState, derivation_step, format_trace, run
from clploop.linarith import decide, satisfiable
from clploop.filters import sat_formula
from clploop.syntax import (
    LinTerm,
    max_gen,
    parse_program,
    parse_query,
)


def clause(text):
    return parse_program(text).clauses[0]


class TestStep:
    def test_successor_shape(self):
        rule = clause("p(X1) <- true <> p(Y1).")
        q = parse_query("p(0)")
        succ = derivation_step(q, rule, 1)
        assert str(succ) == "<p(Y1#1) | X1#1 = 0>"

    def test_predicate_mismatch(self):
        rule = clause("p(X1) <- true <> p(Y1).")
        with pytest.raises(ValueError, match="does not match"):
            derivation_step(parse_query("q(0)"), rule, 1)

    def test_store_gates_the_step(self):
        rule = clause("p(X1, X2) <- X2 >= X1, X1 >= 0, Y1 = X1, Y2 = X2 <> p(Y1, Y2).")
        assert derivation_step(parse_query("p(1, 0)"), rule, 1) is None
        assert derivation_step(parse_query("p(0, 0)"), rule, 1) is not None
        assert derivation_step(parse_query("p(X, Y) : Y < X"), rule, 1) is None

    def test_query_constraint_joins_store(self):
        rule = clause("p(A) <- A >= 1, A = B + 1 <> p(B).")
        assert derivation_step(parse_query("p(X) : X >= 5"), rule, 1) is not None
        assert derivation_step(parse_query("p(X) : X <= 0"), rule, 1) is None

    def test_projected_store_same_denotation(self):
        rule = clause("p(A) <- A >= 1, A = B + 1 <> p(B).")
        q = parse_query("p(X) : X >= 5")
        full = derivation_step(q, rule, 1)
        small = derivation_step(q, rule, 1, project_store=True)
        assert full is not None and small is not None
        assert small.constraint.variables <= small.atom.variables
        probe = (LinTerm.of_const(4),)
        assert decide(sat_formula(probe, full)) == decide(sat_formula(probe, small))
        probe = (LinTerm.of_const(3),)
        assert decide(sat_formula(probe, full)) == decide(sat_formula(probe, small))


class TestRun:
    def test_loops_to_step_budget(self):
        prog = parse_program("p(A) <- A >= 1 <> p(A).")
        state = run(parse_query("p(2)"), prog, max_steps=100, project_stores=True)
        assert state.steps == 100
        plain = run(parse_query("p(2)"), prog, max_steps=10)
        assert plain.steps == 10

    def test_single_step_then_stuck(self):
        prog = parse_program("p(A) <- A = 0, B = 1 <> p(B).")
        state = run(parse_query("p(A) : A = 0"), prog, max_steps=100)
        assert state.steps == 1

    def test_shift_rule_descends_and_stops(self):
        prog = parse_program("p(X1, X2) <- X1 <= X2, Y1 = X1 + 1, Y2 = X2 <> p(Y1, Y2).")
        state = run(parse_query("p(5, 5)"), prog, max_steps=100)
        assert state.steps == 1

    def test_no_matching_rule(self):
        prog = parse_program("p(A) <- A >= 1 <> p(A).")
        state = run(parse_query("p(0)"), prog, max_steps=100)
        assert state.steps == 0
        assert state.current == parse_query("p(0)")

    def test_generations_increase(self):
        prog = parse_program("p(A) <- A >= 1 <> p(A).")
        state = run(parse_query("p(2)"), prog, max_steps=5, keep_trace=True)
        gens = [max_gen(q) for _, q in state.trace]
        assert gens == sorted(gens)
        assert len(set(gens)) == len(gens)

    def test_projected_run_matches_plain_run(self):
        prog = parse_program("p(A) <- A >= 1, A = B + 1 <> p(B).")
        q = parse_query("p(3)")
        plain = run(q, prog, max_steps=10)
        small = run(q, prog, max_steps=10, project_stores=True)
        assert plain.steps == small.steps == 3
        # the projected store stays bounded instead of accumulating
        assert len(tuple(small.current.constraint)) <= len(tuple(plain.current.constraint))

    def test_every_intermediate_store_satisfiable(self):
        prog = parse_program("p(A) <- A >= 1, A = B + 1 <> p(B).")
        state = run(parse_query("p(4)"), prog, max_steps=100, keep_trace=True)
        assert state.steps == 4
        for _, q in state.trace:
            assert satisfiable(q.constraint)

    def test_leftmost_selection(self):
        prog = parse_program(
            "p(A) <- A >= 10 <> q(A).\n"
            "p(A) <- true <> p(A).\n"
            "q(A) <- true <> q(A).\n"
        )
        state = run(parse_query("p(0)"), prog, max_steps=3, keep_trace=True)
        # first rule never applies below 10, second catches everything
        assert [i for i, _ in state.trace] == [1, 1, 1]
        state = run(parse_query("p(20)"), prog, max_steps=3, keep_trace=True)
        assert [i for i, _ in state.trace][0] == 0
        assert [i for i, _ in state.trace][1:] == [2, 2]


class TestVariantShortcut:
    """A run that reaches a variant of an earlier query stops executing
    steps; the steps it reports are those of the every-step run."""

    @pytest.fixture
    def step_calls(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return derivation_step(*args, **kwargs)

        monkeypatch.setattr(engine, "derivation_step", counted)
        return calls

    def test_period_one(self, step_calls):
        prog = parse_program("p2(A) <- A = B <> p2(B).")
        state = run(parse_query("p2(0)"), prog, max_steps=100, project_stores=True)
        assert state.steps == 100
        assert len(step_calls) <= 8

    def test_period_two(self, step_calls):
        prog = parse_program("p(A) <- B = -A <> p(B).")
        state = run(parse_query("p(1)"), prog, max_steps=100, project_stores=True)
        assert state.steps == 100
        assert len(step_calls) <= 8

    def test_current_is_a_variant_of_the_last_step(self):
        # period 2 with an odd budget: the leftover step is executed, so the
        # final query has the sign of step 99, not of an even step
        prog = parse_program("p(A) <- B = -A <> p(B).")
        state = run(parse_query("p(1)"), prog, max_steps=99, project_stores=True)
        full = run(parse_query("p(1)"), prog, max_steps=99, project_stores=True,
                   keep_trace=True)
        assert state.steps == full.steps == 99
        assert engine._variant_key(state.current) == engine._variant_key(full.current)

    def test_drifting_run_executes_every_step(self, step_calls):
        prog = parse_program("p(A) <- A = B - 1 <> p(B).")
        state = run(parse_query("p(0)"), prog, max_steps=100, project_stores=True)
        assert state.steps == 100
        assert len(step_calls) == 100

    def test_run_that_ends_early(self, step_calls):
        prog = parse_program("p(A) <- A >= 1, A = B + 1 <> p(B).")
        state = run(parse_query("p(3)"), prog, max_steps=100, project_stores=True)
        assert state.steps == 3
        assert str(state.current) == "<p(B#3) | B#3 = 0>"
        assert len(step_calls) == 4  # three steps and the attempt that fails

    def test_trace_executes_every_step(self, step_calls):
        prog = parse_program("p2(A) <- A = B <> p2(B).")
        state = run(parse_query("p2(0)"), prog, max_steps=20, project_stores=True,
                    keep_trace=True)
        assert state.steps == len(state.trace) == len(step_calls) == 20


class TestTrace:
    def test_format(self):
        prog = parse_program("p(A) <- A = B + 1, B >= 0 <> p(B).")
        state = run(parse_query("p(3)"), prog, max_steps=3,
                    project_stores=True, keep_trace=True)
        lines = format_trace(state)
        assert lines == [
            "step 1: clause 1 |- <p(B#1) | B#1 = 2>",
            "step 2: clause 1 |- <p(B#2) | B#2 = 1>",
            "step 3: clause 1 |- <p(B#3) | B#3 = 0>",
        ]

    def test_empty_without_keep_trace(self):
        prog = parse_program("p(A) <- true <> p(A).")
        state = run(parse_query("p(0)"), prog, max_steps=3)
        assert state.trace == []
        assert isinstance(state, DerivationState)
