"""Acceptance gate: one test per shipped guarantee.

Each test prints a single pass/fail line under pytest -v.  Frozen expected
values live inline; randomized suites are seeded and deterministic.
"""

import hashlib
import importlib.util
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from fuzzers import (
    equivalent,
    filter_body_formula,
    filter_head_formula,
    local_vars,
    make_filter,
    max_gen,
    membership,
    project_query,
    rand_constraint,
    rand_filter,
    rand_query,
    rand_rule,
    relax,
    rename_apart,
)

from clploop.analyzer import analyze_program, candidate_filter, find_looping_queries
from clploop.cli import main
from clploop.engine import derivation_step, run
from clploop.filters import (
    delta_more_general,
    more_general,
    projected_pred,
    satisfies,
    select_positions,
)
from clploop.linarith import (
    Entailment,
    decide,
    project,
    sample_solution,
    satisfiable,
)
from clploop.syntax import (
    Atom,
    Constraint,
    LinTerm,
    Program,
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


# expected per corpus row: the strongest position set and its condition
# constraint, written as atom builders over the condition arguments in
# position order; None marks rows with no derivation-neutral filter at all
def _c(value):
    return LinTerm.of_const(value)


EXPECTED_ROWS = {
    1: ({1}, lambda a: []),
    2: ({1}, lambda a: []),
    3: (frozenset(), lambda a: []),
    4: (frozenset(), lambda a: []),
    5: None,
    6: ({1}, lambda a: [compare(a[0], ">=", _c(0))]),
    7: ({1}, lambda a: [compare(a[0], ">=", _c(0))]),
    8: (frozenset(), lambda a: []),
    9: None,
    10: (frozenset(), lambda a: []),
    11: ({2}, lambda a: []),
    12: ({2}, lambda a: []),
    13: ({2}, lambda a: []),
    14: ({2}, lambda a: [compare(a[0], ">=", _c(-1))]),
    15: (frozenset(), lambda a: []),
    16: ({1, 2}, lambda a: [compare(a[0], ">=", a[1])]),
    17: (frozenset(), lambda a: []),
    18: ({2, 3}, lambda a: [compare(a[0], ">=", _c(1)),
                            compare(a[1], ">=", _c(2))]),
}


def test_criterion_1_corpus_reproduction(corpus_program):
    start = time.monotonic()
    report = analyze_program(corpus_program)
    elapsed = time.monotonic() - start

    assert len(report.reports) == 18
    none_found = {r.index + 1 for r in report.reports
                  if r.status == "none found"}
    assert none_found == {5, 9}
    sources = {r.index + 1: r.clause.text for r in report.reports}
    assert "A = 0, B = 1" in sources[5]
    assert "A >= 1, B <= 0" in sources[9]

    for row, expectation in EXPECTED_ROWS.items():
        rep = report.reports[row - 1]
        if expectation is None:
            assert rep.results == (), f"row {row} should have no filter"
            continue
        tau, atoms_for = expectation
        by_tau = {res.positions: res for res in rep.results}
        assert frozenset(tau) in by_tau, f"row {row} misses tau {set(tau)}"
        delta = by_tau[frozenset(tau)].delta
        expected = Constraint(tuple(atoms_for(delta.atom.args)))
        assert equivalent(delta.constraint, expected), \
            f"row {row} delta {delta} not equivalent to {expected}"

    assert elapsed < 5.0, f"corpus analysis took {elapsed:.2f}s"


def test_criterion_2_witnesses_survive_100_steps(corpus_program, corpus_report):
    checked = 0
    for rep in corpus_report.reports:
        single = Program((rep.clause,))
        for res in rep.results:
            state = run(res.witness, single, 100)
            assert state.steps == 100, \
                f"witness {res.witness} stopped after {state.steps} steps"
            checked += 1
    for loop in corpus_report.propagated:
        state = run(loop.head_query, corpus_program, 100)
        assert state.steps == 100
    assert checked >= 16  # every looping clause contributed at least one

    for text in (DOUBLING, SHIFT_GE):
        rule = clause(text)
        rep = find_looping_queries(rule)
        assert rep.results, f"no filter found for {rule.text}"
        for res in rep.results:
            state = run(res.witness, Program((rule,)), 100)
            assert state.steps == 100


def test_criterion_3_shift_rule_discrimination():
    ge = find_looping_queries(clause(SHIFT_GE))
    assert {r.positions for r in ge.results} == {frozenset({1, 2})}
    assert ge.classes == {frozenset(), frozenset({1}), frozenset({2}),
                          frozenset({1, 2})}

    le = find_looping_queries(clause(SHIFT_LE))
    assert {r.positions for r in le.results} == {frozenset()}
    by_tau = {c.positions: c for c in le.checks}
    assert by_tau[frozenset({1, 2})].failed_condition == "body"
    assert by_tau[frozenset({1})].failed_condition == "head"
    assert by_tau[frozenset({2})].failed_condition == "head"


def test_criterion_4_projection_unit_facts():
    rule = clause(DOUBLING)
    c = rule.constraint
    t, t1 = Var("T"), Var("T1")
    expected_t = Constraint.of(compare(LinTerm.of_var(t), ">=", _c(1)))
    expected_t1 = Constraint.of(compare(LinTerm.of_var(t1), ">=", _c(2)))
    assert equivalent(project(c, {t}), expected_t)
    assert equivalent(project(c, {t1}), expected_t1)


def _one_var_candidates(atoms, x):
    """Complete evaluation points for one-variable atoms over the rationals:
    every finite bound an atom implies for x, midpoints of consecutive
    bounds, and the bounds shifted by one on each side."""
    bounds = set()
    for atom in atoms:
        a = atom.coeff(x)
        if a != 0:
            bounds.add(Fraction(-atom.const) / a)
    if not bounds:
        return [Fraction(0)]
    ordered = sorted(bounds)
    points = list(ordered)
    points.append(ordered[0] - 1)
    points.append(ordered[-1] + 1)
    for lo, hi in zip(ordered, ordered[1:]):
        points.append((lo + hi) / 2)
    return points


def _holds(c, valuation):
    return all(a.eval(valuation) for a in c)


def test_criterion_5_decision_agrees_with_boundary_oracle():
    rng = random.Random(20260816)
    frees = (Var("U"), Var("V"), Var("W"))
    x = Var("X")
    start = time.monotonic()
    for i in range(500):
        pool = frees[: rng.randint(0, 3)] + (x,)
        valuation = {
            v: LinTerm.of_const(Fraction(rng.randint(-8, 8), rng.choice((1, 2))))
            for v in frees
        }
        lhs, rhs = (
            Constraint(tuple(a.substitute(valuation)
                             for a in rand_constraint(rng, pool)))
            for _ in range(2))
        points = [{x: pt} for pt in
                  _one_var_candidates(lhs.atoms + rhs.atoms, x)]
        sat_oracle = any(_holds(lhs, v) for v in points)
        entails_oracle = all(_holds(rhs, v) for v in points if _holds(lhs, v))
        assert satisfiable(lhs) == sat_oracle, f"instance {i} (satisfiable)"
        assert decide(Entailment(lhs, rhs, frozenset({x}))) == entails_oracle, \
            f"instance {i} (entailment)"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"500 decisions took {elapsed:.2f}s"


def _ground_head_instance(rng, rule):
    values = sample_solution(rule.constraint, variables=rule.head_vars)
    assert values is not None  # rule constraints are satisfiable
    args = tuple(LinTerm.of_const(values[v]) for v in rule.head_vars)
    return Query(Atom(rule.head_pred, args), Constraint(()))


def test_criterion_6_randomized_soundness_suites():
    # a: a derivation step exists exactly when the query and the rule head
    # denote a common tuple
    rng = random.Random(61)
    for _ in range(1000):
        rule = rand_rule(rng)
        q = (_ground_head_instance(rng, rule) if rng.random() < 0.5
             else rand_query(rng, rule.head_pred))
        probe = tuple(LinTerm.of_var(Var(f"W{i}", 0))
                      for i in range(1, rule.head_pred.arity + 1))
        overlap = membership(probe, q, 1 + max_gen(q)).conjoin(
            membership(probe, rule.head_query, 2 + max_gen(q, rule)))
        step = derivation_step(q, rule, 1 + max_gen(q))
        assert satisfiable(overlap) == (step is not None)

    # b: the body side of the neutrality criterion is exactly filter
    # membership of the body query
    rng = random.Random(62)
    for _ in range(1000):
        rule = rand_rule(rng)
        filt = rand_filter(rng, rule.head_pred)
        lhs = decide(filter_body_formula(filt, rule))
        rhs = satisfies(rule.body_query, filt)
        assert lhs == rhs

    # c: lifting a query preserves generality across one derivation step
    rng = random.Random(63)
    for _ in range(1000):
        rule = rand_rule(rng)
        q1 = _ground_head_instance(rng, rule)
        q2 = relax(rng, q1)
        assert more_general(q2, q1)
        s1 = derivation_step(q1, rule, 1 + max_gen(q1, rule))
        s2 = derivation_step(q2, rule, 1 + max_gen(q2, rule))
        assert s1 is not None
        assert s2 is not None
        assert more_general(s2, s1)

    # d: filter-aware generality is transitive
    rng = random.Random(64)
    done = 0
    while done < 1000:
        rule = rand_rule(rng)
        pred = rule.head_pred
        q3 = rand_query(rng, pred)
        q2 = relax(rng, q3)
        q1 = relax(rng, q2)
        if not satisfiable(q1.constraint):
            continue
        ps = frozenset(i for i in range(1, pred.arity + 1)
                       if rng.random() < 0.5)
        cond = project_query(q1, ps)
        try:
            filt = make_filter(pred, ps, cond)
        except ValueError:
            continue
        assert delta_more_general(q1, q2, filt)
        assert delta_more_general(q2, q3, filt)
        assert delta_more_general(q1, q3, filt)
        done += 1

    # e: generality only depends on denotations, never on variable names
    rng = random.Random(65)
    for _ in range(1000):
        pred = rand_rule(rng).head_pred
        q = rand_query(rng, pred)
        r = rand_query(rng, pred)
        vq = rename_apart(q, 1 + max_gen(q, r))
        vr = rename_apart(r, 1 + max_gen(q, r))
        assert more_general(q, vq) and more_general(vq, q)
        assert more_general(q, r) == more_general(vq, r) == more_general(q, vr)

    # f: the projection filter on the empty position set is always neutral
    rng = random.Random(66)
    for _ in range(1000):
        rule = rand_rule(rng)
        filt = candidate_filter(rule, frozenset())
        assert decide(filter_head_formula(filt, filt, rule))
        assert decide(filter_body_formula(filt, rule))


def test_criterion_7_merged_criterion_is_rejected():
    # a single merged implication accepts this filter, the two-part
    # criterion rejects it, and the engine sides with the two-part one
    rule = clause("p(X) <- X <= 3, 2 <= Y <> p(Y).\n")
    pred = rule.head_pred
    cvar = Var("C1")
    cond = Query(
        Atom(projected_pred(pred, {1}), (LinTerm.of_var(cvar),)),
        Constraint.of(compare(LinTerm.of_var(cvar), "<=", _c(3))),
    )
    filt = make_filter(pred, {1}, cond)

    head_sel = select_positions(rule.head_vars, {1})
    body_sel = select_positions(rule.body_vars, {1})
    base = 1 + max(max_gen(rule), max_gen(cond))
    c = rule.constraint
    member_head = membership(
        tuple(LinTerm.of_var(v) for v in head_sel), cond, base)
    member_body = membership(
        tuple(LinTerm.of_var(v) for v in body_sel), cond, base + 1)
    apart = c.rename({v: Var(v.name, base + 2) for v in head_sel})
    rechoose = set(body_sel) | local_vars(rule)
    merged = Entailment(apart.conjoin(member_head), c.conjoin(member_body),
                        rule.variables - rechoose)

    assert decide(merged)  # the merged form wrongly certifies the filter
    assert decide(filter_head_formula(filt, filt, rule))
    assert not decide(filter_body_formula(filt, rule))

    # engine evidence: derivations reach first arguments above 3, where no
    # further step exists
    succ = derivation_step(rule.head_query, rule,
                           1 + max_gen(rule.head_query))
    assert succ is not None
    assert satisfiable(membership((_c(4),), succ))
    stuck = Query(Atom(pred, (_c(4),)), Constraint(()))
    assert derivation_step(stuck, rule, 1) is None


# sha256 of `clploop analyze FILE --json` and `--trace` on the corpus and on
# the seed-7 scaled benchmark workloads (perfbench/workloads.py), which no
# golden file covers
REPORT_SHA256 = {
    ("corpus", "--trace"): "9b71a495f7933bd738acb6e95611018a8183ad344955bc383f4678c67bed1992",
    ("shift", "--json"): "c5d3a64fb7a4a45c33b7bf6998776eb857ba09e37cab8dc350c615c1f988f124",
    ("shift", "--trace"): "681bf2467e22ad188410fa541501e22c89ee9ea74c2a44510d77a4adfc6a5a3c",
    ("chain", "--json"): "5838260696832f1b2cfb058cb281b83f63e60a9b48bd32d609a9d91632bfd01a",
    ("chain", "--trace"): "dcd7a38f8e89647a3164afe33ae032f0f4b4cf51f2bc7266ac6f68b9f0a7896b",
}


def _benchmark_workloads():
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "workloads", root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up
    spec.loader.exec_module(module)
    return root, module


def test_criterion_8_scaled_reports_are_byte_identical(tmp_path, capsys):
    # a refactor must leave every report byte for byte as it was
    root, workloads = _benchmark_workloads()
    for (name, flag), expected in REPORT_SHA256.items():
        path = tmp_path / f"{name}.clp"
        path.write_text(workloads.make(name, root, 7).text, encoding="utf-8")
        assert main(["analyze", str(path), flag]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected, (name, flag)
