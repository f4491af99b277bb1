"""Derivation steps and bounded runs."""

import pytest
from fuzzers import every_step_run, max_gen, membership, textbook_step

from clploop import engine, linarith
from clploop.engine import DerivationState, derivation_step, format_trace, run
from clploop.linarith import ResourceLimitError, satisfiable
from clploop.syntax import (
    LinTerm,
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
        with linarith.max_dnf(5):
            assert run(q, prog, 1).steps == 1
            with pytest.raises(ResourceLimitError, match="exceeds 5 conjuncts"):
                run(q, prog, 2)
        with linarith.max_dnf(6):
            assert run(q, prog, 100).steps == 100

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
# B = -A alone is caught as the affine map W1 := -W1; a second rule for p,
# never selected from p(1), leaves the run only the variant check
SIGN_FLIP = "p(A) <- B = -A <> p(B)."
PERIOD_TWO = SIGN_FLIP + "\np(A) <- B = A <> p(B)."
DRIFTING = "p(A) <- A = B - 1 <> p(B)."
# the first argument grows by the second, so no diagonal map relates steps
NON_AFFINE = "p(A, B) <- C = A + B, D = B + 1 <> p(C, D)."
ENDS_EARLY = "p(A) <- A >= 1, A = B + 1 <> p(B)."


@pytest.fixture
def step_calls(monkeypatch):
    """The query of each derivation_step call ``run`` makes."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return derivation_step(*args, **kwargs)

    monkeypatch.setattr(engine, "derivation_step", counted)
    return calls


class TestVariantShortcut:
    """A run that reaches a variant of an earlier query stops executing
    steps; the steps it reports are those of the every-step run."""

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
        prog = parse_program(NON_AFFINE)
        state = run(parse_query("p(0, 0)"), prog, max_steps=100)
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
        (DRIFTING, "p(0)"), (NON_AFFINE, "p(0, 0)"), (ENDS_EARLY, "p(3)"),
    ], ids=["period-one", "period-two", "drifting", "non-affine", "ends-early"])
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
        (NON_AFFINE, "p(0, 0)"),
    ], ids=["period-one", "period-two", "drifting", "non-affine"])
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


class TestAffineShortcut:
    """A run of a predicate headed by one recursive rule stops executing
    steps once a step contains the previous one moved by a diagonal affine
    map the rule is closed under; the steps it executes are those of the
    every-step run."""

    def test_drifting_run_executes_at_most_four_steps(self, step_calls):
        prog = parse_program(DRIFTING)
        state = run(parse_query("p(0)"), prog, max_steps=100)
        assert state.steps == 100
        assert state.cycle == (2, 1)
        assert state.drift == ((1, 1),)
        assert len(step_calls) <= 4

    def test_sign_flip(self, step_calls):
        # the affine counterpart of period two: W1 := -W1 at step 2
        state = run(parse_query("p(1)"), parse_program(SIGN_FLIP), max_steps=100)
        assert state.steps == 100
        assert (state.cycle, state.drift) == ((2, 1), ((-1, 0),))
        assert len(step_calls) == 2

    def test_doubling(self):
        state = run(parse_query("p(1)"), parse_program("p(A) <- B = 2*A <> p(B)."),
                    max_steps=100)
        assert (state.steps, state.cycle, state.drift) == (100, (2, 1), ((2, 0),))

    def test_current_is_the_last_executed_step(self):
        # no step is left over: current is the every-step run's query at
        # the step where the map was found, exactly
        prog = parse_program(SIGN_FLIP)
        state = run(parse_query("p(1)"), prog, max_steps=99)
        full = every_step_run(parse_query("p(1)"), prog, 99)
        assert state.steps == len(full) == 99
        assert state.cycle == (2, 1)
        assert state.current == full[1][1]

    def test_drift_that_skips_nothing_is_not_recorded(self):
        # the map is found at step 2 only when steps remain to skip
        state = run(parse_query("p(1)"), parse_program(SIGN_FLIP), max_steps=2)
        assert (state.steps, state.cycle, state.drift) == (2, None, None)

    def test_terminating_guard_runs_every_step(self, step_calls):
        # W1 := W1 + 1 maps each step into the next, but the rule is not
        # closed under it: A < 10 fails once A is moved past 9
        prog = parse_program("p(A) <- A < 10, B = A + 1 <> p(B).")
        state = run(parse_query("p(0)"), prog, max_steps=100)
        assert (state.steps, state.cycle) == (10, None)
        assert len(step_calls) == 11

    def test_shrinking_run_is_not_accelerated(self):
        # the samples stay at 0, so the map guessed is the identity, which
        # the rule is closed under; but each denotation is smaller than the
        # one before (X <= 6, then -6..5, -6..4, ...), so (i) fails and the
        # run ends once the interval is empty
        prog = parse_program("p(A) <- A >= -5, B = A - 1 <> p(B).")
        state = run(parse_query("p(X) : X <= 6"), prog, max_steps=100)
        assert (state.steps, state.cycle, state.drift) == (12, None, None)

    def test_two_rules_keep_only_the_variant_check(self, step_calls):
        # leftmost selection picks the first rule once A reaches 10, so the
        # drift of the second rule does not go on forever
        prog = parse_program("p(A) <- A >= 10 <> q(A).\n"
                             "p(A) <- B = A + 1 <> p(B).")
        state = run(parse_query("p(0)"), prog, max_steps=100)
        assert (state.steps, state.cycle) == (11, None)
        assert str(state.current) == "<q(Y1#11) | Y1#11 = 10>"

    def test_limit_forgoes_the_shortcut(self, monkeypatch):
        # a decision that exceeds the limit leaves the run on every step
        def exceeded(*args, **kwargs):
            raise ResourceLimitError("elimination exceeds 1 conjuncts")

        monkeypatch.setattr(engine.linarith, "decide", exceeded)
        state = run(parse_query("p(0)"), parse_program(DRIFTING), max_steps=20)
        assert (state.steps, state.cycle, state.drift) == (20, None, None)


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

    def test_format_affine_map(self):
        state = run(parse_query("p(1)"), parse_program(SIGN_FLIP), max_steps=99,
                    keep_trace=True)
        assert format_trace(state) == [
            "step 1: clause 1 |- <p(B#1) | B#1 = -1>",
            "step 2: clause 1 |- <p(B#2) | B#2 = 1>",
            "steps 3..99 not executed: step 2 contains the image of step 1 "
            "under W1 := -W1",
        ]

    def test_format_map_of_several_arguments(self):
        prog = parse_program("p(A, B, C) <- D = A, E = 2*B, F = C - 1/2 <> p(D, E, F).")
        state = run(parse_query("p(0, 1, 0)"), prog, max_steps=10, keep_trace=True)
        assert format_trace(state)[-1] == (
            "steps 3..10 not executed: step 2 contains the image of step 1 "
            "under W1 := W1, W2 := 2*W2, W3 := W3 - 1/2")

    def test_empty_without_keep_trace(self):
        prog = parse_program("p(A) <- true <> p(A).")
        state = run(parse_query("p(0)"), prog, max_steps=3)
        assert state.trace == []
        assert isinstance(state, DerivationState)

    def test_the_result_is_immutable(self):
        prog = parse_program("p(A) <- A = B + 1, B >= 0 <> p(B).")
        state = run(parse_query("p(5)"), prog, max_steps=10, keep_trace=True)
        assert (state.steps, state.cycle, state.drift) == (5, None, None)
        with pytest.raises(AttributeError):
            state.steps = 10
        shorter = state._replace(steps=2)
        assert (shorter.steps, shorter.current, shorter.trace) == (2, state.current, state.trace)
        assert state.steps == 5
