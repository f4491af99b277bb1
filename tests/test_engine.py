"""Derivation steps and bounded runs."""

import pytest
from fuzzers import every_step_run, membership, textbook_step

from clploop import engine
from clploop.engine import DerivationState, derivation_step, format_trace, run
from clploop.linarith import ResourceLimitError, satisfiable
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
        # the head equation X1 = 0 is substituted away: no atom mentions X1
        rule = clause("p(X1) <- true <> p(Y1).")
        q = parse_query("p(0)")
        succ = derivation_step(q, rule, 1)
        assert str(succ) == "<p(Y1#1) | true>"
        assert str(textbook_step(q, rule, 1)) == "<p(Y1#1) | X1#1 = 0>"

    def test_head_arguments_are_substituted(self):
        rule = clause("p(A, B) <- A + B >= 2, C = A - B <> p(C, D).")
        q = parse_query("p(2*X - 1, X) : X <= 1")
        succ = derivation_step(q, rule, 1)
        # A + B >= 2 becomes 3X >= 3 and C = A - B becomes C = X - 1, so
        # with X <= 1 the projection pins C to 0
        assert str(succ) == "<p(C#1, D#1) | C#1 = 0>"
        assert derivation_step(parse_query("p(2*X - 1, X) : X < 1"), rule, 1) is None

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
        full = textbook_step(q, rule, 1)
        small = derivation_step(q, rule, 1)
        assert full is not None and small is not None
        assert small.constraint.variables <= small.atom.variables
        probe = (LinTerm.of_const(4),)
        assert satisfiable(membership(probe, full)) == satisfiable(membership(probe, small))
        probe = (LinTerm.of_const(3),)
        assert satisfiable(membership(probe, full)) == satisfiable(membership(probe, small))


class TestRun:
    def test_loops_to_step_budget(self):
        prog = parse_program("p(A) <- A >= 1 <> p(A).")
        state = run(parse_query("p(2)"), prog, max_steps=100)
        assert state.steps == 100
        short = run(parse_query("p(2)"), prog, max_steps=10)
        assert short.steps == 10

    def test_limit_bounds_every_step(self):
        # the second step from p(0, 1) combines more than five bounds
        prog = parse_program(
            "p(A, B) <- D <= C, E <= C, C <= A, C <= B + D <> p(D, E).")
        q = parse_query("p(0, 1)", prog)
        assert run(q, prog, 1, limit=5).steps == 1
        with pytest.raises(ResourceLimitError, match="exceeds 5 conjuncts"):
            run(q, prog, 2, limit=5)
        assert run(q, prog, 100, limit=6).steps == 100

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
        plain = every_step_run(q, prog, 10, step=textbook_step)
        small = run(q, prog, max_steps=10)
        assert len(plain) == small.steps == 3
        # the projected store stays bounded instead of accumulating
        assert len(tuple(small.current.constraint)) <= len(tuple(plain[-1][1].constraint))

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
        # first rule never applies below 10, second catches everything
        full = every_step_run(parse_query("p(0)"), prog, 3)
        assert [i for i, _ in full] == [1, 1, 1]
        state = run(parse_query("p(0)"), prog, max_steps=3, keep_trace=True)
        # step 2 repeats step 1, so step 3 is inferred
        assert [i for i, _ in state.trace] == [1, 1]
        assert (state.steps, state.cycle) == (3, (2, 1))
        full = every_step_run(parse_query("p(20)"), prog, 3)
        assert [i for i, _ in full] == [0, 2, 2]
        state = run(parse_query("p(20)"), prog, max_steps=3, keep_trace=True)
        assert [i for i, _ in state.trace] == [0, 2]
        assert (state.steps, state.cycle) == (3, (2, 1))


PERIOD_ONE = "p2(A) <- A = B <> p2(B)."
PERIOD_TWO = "p(A) <- B = -A <> p(B)."
DRIFTING = "p(A) <- A = B - 1 <> p(B)."
ENDS_EARLY = "p(A) <- A >= 1, A = B + 1 <> p(B)."


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
        prog = parse_program(PERIOD_ONE)
        state = run(parse_query("p2(0)"), prog, max_steps=100)
        assert state.steps == 100
        assert state.cycle == (2, 1)
        assert len(step_calls) <= 8

    def test_period_two(self, step_calls):
        prog = parse_program(PERIOD_TWO)
        state = run(parse_query("p(1)"), prog, max_steps=100)
        assert state.steps == 100
        assert state.cycle == (4, 2)
        assert len(step_calls) <= 8

    def test_current_is_a_variant_of_the_last_step(self):
        # period 2 with an odd budget: the leftover step is executed, so the
        # final query has the sign of step 99, not of an even step
        prog = parse_program(PERIOD_TWO)
        state = run(parse_query("p(1)"), prog, max_steps=99)
        full = every_step_run(parse_query("p(1)"), prog, 99)
        assert state.steps == len(full) == 99
        assert state.cycle == (4, 2)
        assert engine._variant_key(state.current) == engine._variant_key(full[-1][1])

    def test_drifting_run_executes_every_step(self, step_calls):
        prog = parse_program(DRIFTING)
        state = run(parse_query("p(0)"), prog, max_steps=100)
        assert state.steps == 100
        assert state.cycle is None
        assert len(step_calls) == 100

    def test_run_that_ends_early(self, step_calls):
        prog = parse_program(ENDS_EARLY)
        state = run(parse_query("p(3)"), prog, max_steps=100)
        assert state.steps == 3
        assert state.cycle is None
        assert str(state.current) == "<p(B#3) | B#3 = 0>"
        assert len(step_calls) == 4  # three steps and the attempt that fails

    def test_cycle_that_skips_nothing_is_not_recorded(self):
        # period 2 is found at step 4; one step is left, so it is executed
        state = run(parse_query("p(1)"), parse_program(PERIOD_TWO), max_steps=5)
        assert state.steps == 5
        assert state.cycle is None

    @pytest.mark.parametrize("rules, query", [
        (PERIOD_ONE, "p2(0)"), (PERIOD_TWO, "p(1)"),
        (DRIFTING, "p(0)"), (ENDS_EARLY, "p(3)"),
    ], ids=["period-one", "period-two", "drifting", "ends-early"])
    def test_trace_takes_the_same_path(self, step_calls, rules, query):
        prog = parse_program(rules)
        plain = run(parse_query(query), prog, max_steps=99)
        plain_calls = len(step_calls)
        traced = run(parse_query(query), prog, max_steps=99,
                     keep_trace=True)
        assert len(step_calls) == 2 * plain_calls
        assert (traced.steps, traced.cycle, traced.current) == (
            plain.steps, plain.cycle, plain.current)
        if traced.cycle is None:
            assert len(traced.trace) == traced.steps

    @pytest.mark.parametrize("rules, query", [
        (PERIOD_ONE, "p2(0)"), (PERIOD_TWO, "p(1)"), (DRIFTING, "p(0)"),
    ], ids=["period-one", "period-two", "drifting"])
    def test_traced_steps_are_those_of_the_every_step_run(self, rules, query):
        prog = parse_program(rules)
        traced = run(parse_query(query), prog, max_steps=99,
                     keep_trace=True)
        full = every_step_run(parse_query(query), prog, 99)
        at = traced.cycle[0] if traced.cycle else traced.steps
        assert traced.trace[:at] == full[:at]
        for k, (index, q) in enumerate(traced.trace[at:], start=1):
            number = traced.steps - len(traced.trace) + at + k
            assert index == full[number - 1][0]
            assert engine._variant_key(q) == engine._variant_key(full[number - 1][1])


class TestTrace:
    def test_format(self):
        prog = parse_program("p(A) <- A = B + 1, B >= 0 <> p(B).")
        state = run(parse_query("p(3)"), prog, max_steps=3, keep_trace=True)
        lines = format_trace(state)
        assert lines == [
            "step 1: clause 1 |- <p(B#1) | B#1 = 2>",
            "step 2: clause 1 |- <p(B#2) | B#2 = 1>",
            "step 3: clause 1 |- <p(B#3) | B#3 = 0>",
        ]

    def test_format_period_one(self):
        state = run(parse_query("p2(0)"), parse_program(PERIOD_ONE), max_steps=100, keep_trace=True)
        assert format_trace(state) == [
            "step 1: clause 1 |- <p2(B#1) | B#1 = 0>",
            "step 2: clause 1 |- <p2(B#2) | B#2 = 0>",
            "steps 3..100 not executed: step 2 is a variant of step 1 (period 1)",
        ]

    def test_format_period_two_with_a_leftover_step(self):
        state = run(parse_query("p(1)"), parse_program(PERIOD_TWO), max_steps=99, keep_trace=True)
        assert format_trace(state) == [
            "step 1: clause 1 |- <p(B#1) | B#1 = -1>",
            "step 2: clause 1 |- <p(B#2) | B#2 = 1>",
            "step 3: clause 1 |- <p(B#3) | B#3 = -1>",
            "step 4: clause 1 |- <p(B#4) | B#4 = 1>",
            "steps 5..98 not executed: step 4 is a variant of step 2 (period 2)",
            "step 99: clause 1 |- <p(B#5) | B#5 = -1>",
        ]

    def test_empty_without_keep_trace(self):
        prog = parse_program("p(A) <- true <> p(A).")
        state = run(parse_query("p(0)"), prog, max_steps=3)
        assert state.trace == []
        assert isinstance(state, DerivationState)
