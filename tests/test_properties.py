"""Randomized invariants over the term, entailment and engine layers.

Counts stay modest here; the heavier randomized suites with their own
budgets live in the acceptance gate.
"""

import itertools
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

import mutate
import pytest
from fuzzers import (
    RELS,
    atom,
    direct_condition,
    direct_sides,
    equation_denotation,
    every_step_run,
    filter_body_formula,
    filter_head_formula,
    make_filter,
    max_gen,
    membership,
    project_query,
    projected_delta_more_general,
    projected_satisfies,
    rand_condition_filter,
    rand_constraint,
    rand_drift_rule,
    rand_filter,
    rand_linear_query,
    rand_positions,
    rand_propagation_program,
    rand_query,
    rand_rational_query,
    rand_rule,
    rand_step_rule,
    rand_term,
    rand_wide_rule,
    benchmark_text,
    reference_decide,
    reference_propagate,
    reference_sample,
    reference_simplify,
    reference_step,
    relax,
    renaming_body_formula,
    renaming_head_formula,
    renaming_more_general,
    renaming_step,
    step_list,
    textbook_step,
)

from clploop import analyzer, engine, linarith
from clploop.analyzer import (
    AnalyzeOptions,
    candidate_filter,
    find_looping_queries,
    make_witness,
)
from clploop.engine import derivation_step, run
from clploop.filters import (
    condition_denotation,
    delta_more_general,
    denotation,
    more_general,
    probes,
    satisfies,
    select_positions,
)
from clploop.linarith import (
    DEFAULT_DNF_LIMIT,
    Entailment,
    ResourceLimitError,
    _negate_atom,
    _simplify_conj,
    decide,
    project,
    sample_solution,
    satisfiable,
)
from clploop.neutral import (
    head_sides,
    neutrality_body_formula,
    neutrality_head_formula,
    projection,
)
from clploop.syntax import (
    REL_EQ,
    REL_LE,
    REL_LT,
    Atom,
    AtomicProp,
    Clause,
    Constraint,
    LinTerm,
    ParseError,
    Pred,
    Program,
    Query,
    Var,
    _atom,
    _linear_atom,
    atom_of_vars,
    compare,
    parse_program,
    parse_query,
    var_eq,
)


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
            assert more_general(project_query(q2, ps), project_query(q1, ps))


class TestEliminationProperties:
    VARS = (Var("U"), Var("V"), Var("W"))

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
            p = project(c, keep)
            assert decide(Entailment(c, p, frozenset(keep)))
            assert decide(Entailment(p, c, frozenset(keep)))

    def test_simplify_is_idempotent_on_its_subsets(self):
        # the elimination step returns the atoms without x unsimplified when
        # it adds no atom; atoms over three slopes exercise the dropped,
        # pinned and folded bounds
        rng = random.Random(109)
        u, v, w = self.VARS
        slopes = ({u: 1}, {u: 1, v: -1}, {v: 2, w: 1})
        folded = subsets = 0
        for _ in range(300):
            atoms = []
            for _ in range(rng.randint(1, 5)):
                slope, factor = rng.choice(slopes), rng.choice((1, -1, 2))
                atoms.append(compare(LinTerm.make({x: factor * c for x, c in slope.items()}),
                                     rng.choice(RELS), LinTerm.of_const(rng.randint(-2, 2))))
            if rng.random() < 0.3:
                t, k = LinTerm.make(rng.choice(slopes)), LinTerm.of_const(rng.randint(-2, 2))
                atoms += (compare(t, "<=", k), compare(t, ">=", k))
            rng.shuffle(atoms)
            out = _simplify_conj(atoms)
            if out is None:
                continue
            folded += any(a not in atoms for a in out)
            for _ in range(4):
                sub = tuple(a for a in out if rng.random() < 0.6)
                assert _simplify_conj(sub) == sub, (atoms, sub)
                subsets += len(sub) >= 2
        # at this seed: 45 outputs hold a folded equality, 414 subsets have
        # two atoms or more
        assert folded >= 30 and subsets >= 300, (folded, subsets)


def _store_matches_its_atoms(store) -> None:
    """The index, the slope map and the derived positions of an elimination
    store describe exactly the atoms it holds."""
    live = [(p, a) for p, a in enumerate(store.atoms) if a is not None]
    index = {}
    for p, a in live:
        for v, c in a.coeffs:
            if v in store.drop:
                e = index.setdefault(v, [0, 0, 0, {}])
                e[3][p] = c
                e[2 if a.rel == "=" else int(c > 0)] += 1
    assert store.index == index
    if store.slopes is not None:
        slopes = {}
        for p, a in live:
            slopes.setdefault(a.slope()[0], []).append(p)
        assert {d: sorted(ps) for d, ps in store.slopes.items()} == slopes
    if store.derived is not None:
        assert store.derived <= {p for p, _ in live}


def _merge_kinds(listed: list, out) -> set[str]:
    """What simplifying a step's atoms ``listed`` into ``out`` did: two
    bounds of one sign on a slope (one tightened or duplicated away), an
    equality pinning a bound, two bounds folded into an equality, a ground
    atom, or a contradiction."""
    kinds = set()
    by_slope: dict = {}
    for a in listed:
        if a.coeffs:
            by_slope.setdefault(a.slope()[0], []).append(a)
        else:
            kinds.add("ground")
    for group in by_slope.values():
        eqs = sum(a.rel == "=" for a in group)
        if eqs and eqs < len(group):
            kinds.add("pinned")
        signs = Counter(a.slope()[1] for a in group if a.rel != "=")
        if any(n > 1 for n in signs.values()):
            kinds.add("tightened")
    if out is None:
        kinds.add("inconsistent")
    elif any(a not in listed for a in out):
        kinds.add("folded")
    return kinds


class TestSimplifyEqualsTheReference:
    """``_simplify_conj`` merges the atoms into a store with nothing to
    eliminate, whose slope rules stand in for one pass over the whole list:
    it equals ``reference_simplify``, that pass, in value and order, None
    included."""

    VARS = (Var("U"), Var("V"), Var("W"))

    def test_random_conjunctions_equal_the_reference(self):
        # atoms on three slopes, some ground and some repeated, and a third
        # of the time two opposite bounds that meet
        rng = random.Random(252)
        u, v, w = self.VARS
        slopes = ({u: 1}, {u: 1, v: -1}, {v: 2, w: 1})
        kinds = Counter()
        for _ in range(1500):
            atoms = []
            for _ in range(rng.randint(0, 6)):
                if rng.random() < 0.1:
                    atoms.append(compare(LinTerm.of_const(rng.randint(-1, 1)),
                                         rng.choice(RELS), LinTerm.of_const(0)))
                elif atoms and rng.random() < 0.15:
                    atoms.append(rng.choice(atoms))
                else:
                    slope, factor = rng.choice(slopes), rng.choice((1, -1, 2))
                    atoms.append(compare(
                        LinTerm.make({x: factor * c for x, c in slope.items()}),
                        rng.choice(RELS), LinTerm.of_const(rng.randint(-2, 2))))
            if rng.random() < 0.3:
                t, k = LinTerm.make(rng.choice(slopes)), LinTerm.of_const(rng.randint(-2, 2))
                atoms += (compare(t, "<=", k), compare(t, ">=", k))
            rng.shuffle(atoms)
            expected = reference_simplify(atoms)
            assert _simplify_conj(atoms) == expected, atoms
            kinds.update(_merge_kinds(atoms, expected))
            kinds["duplicate"] += len(set(atoms)) < len(atoms)
        # at this seed: 652 inputs tighten or repeat a bound, 357 pin one
        # and 240 fold two, 396 are inconsistent, 378 hold a ground atom and
        # 419 an atom twice
        assert min(kinds.values()) >= 150 and len(kinds) == 6, kinds

    def test_bounds_meet_only_after_tightening_in_any_order(self):
        # folding X <= 5 and X >= 5 into X = 5 before X <= 3 tightens the
        # upper bound would pin X <= 3 into a contradiction
        trap = (atom("X <= 5"), atom("X >= 5"), atom("X <= 3"))
        for atoms in itertools.permutations(trap):
            assert _simplify_conj(atoms) == reference_simplify(atoms)
            assert sorted(map(str, _simplify_conj(atoms))) == ["X <= 3", "X >= 5"]


class TestEliminationStore:
    """Each step of the indexed elimination store equals ``reference_step``,
    the step simplified as a whole, in value and order, though the store
    simplifies only the slopes the step's new atoms reach."""

    VARS = (Var("U"), Var("V"), Var("W"))

    def _conjunction(self, rng: random.Random):
        # atoms on a few slopes, so that a step's new atoms meet kept ones;
        # a third of the time also t >= k with bounds on W that combine
        # into t <= k, which meets it, and a third bounds on t with
        # equalities on W that substitute into t = k, which pins them
        u, v, w = self.VARS
        slopes = ({u: 1}, {u: 1, v: -1}, {u: 1, w: 1}, {v: 1, w: -1}, {w: 1},
                  {v: 2, w: 1}, {u: 1, v: 1, w: -2})
        atoms = []
        for _ in range(rng.randint(2, 6)):
            slope, factor = rng.choice(slopes), rng.choice((1, -1, 2))
            atoms.append(compare(LinTerm.make({x: factor * c for x, c in slope.items()}),
                                 rng.choice(RELS), LinTerm.of_const(rng.randint(-3, 3))))
        t = LinTerm.make(rng.choice(({u: 1}, {u: 1, v: -1}, {v: 1})))
        tw = LinTerm.make({**dict(t.coeffs), w: -1})
        k, a = rng.randint(-2, 2), rng.randint(-2, 2)
        seed = rng.randrange(3)
        if seed == 1:
            atoms += (compare(t, ">=", LinTerm.of_const(k)),
                      compare(tw, "<=", LinTerm.of_const(a)),
                      compare(LinTerm.of_var(w), "<=", LinTerm.of_const(k - a)))
        elif seed == 2:
            atoms += (compare(t, rng.choice((">=", ">")), LinTerm.of_const(k - rng.randint(0, 2))),
                      compare(t, rng.choice(("<=", "<")), LinTerm.of_const(k + rng.randint(0, 2))),
                      compare(tw, "=", LinTerm.of_const(a)),
                      compare(LinTerm.of_var(w), "=", LinTerm.of_const(k - a)))
        rng.shuffle(atoms)
        return _simplify_conj(atoms)

    def test_random_steps_equal_the_reference(self):
        rng = random.Random(151)
        kinds = Counter()
        for _ in range(600):
            atoms = self._conjunction(rng)
            if atoms is None:
                continue
            store = linarith._Store(atoms, frozenset(self.VARS), DEFAULT_DNF_LIMIT)
            _store_matches_its_atoms(store)
            while store.index:
                x = rng.choice(sorted(store.index))
                before = store.conjunction()
                ok = store.eliminate(x)
                after = store.conjunction() if ok else None
                assert after == reference_step(before, x), (before, x)
                kinds.update(_merge_kinds(step_list(before, x), after))
                if not ok:
                    break
                _store_matches_its_atoms(store)
        # at this seed: 243 steps make a contradiction, 212 tighten or repeat
        # a bound, 209 make a ground atom, 140 pin a bound and 45 fold two
        assert min(kinds.values()) >= 40 and len(kinds) == 5, kinds

    @pytest.mark.parametrize("substitute", [False, True])
    def test_bounds_meet_only_after_tightening(self, substitute):
        # the step keeps X <= 5 and adds X <= 3 and X >= 5, which simplify
        # to X <= 3, X >= 5 as one list; folding X <= 5 and X >= 5 into
        # X = 5 as X >= 5 arrives would pin X <= 3 into a contradiction.
        # The new atoms come from bounds on Y, or from substituting X for Y
        # in place
        y = Var("Y")
        if substitute:
            atoms = (atom("X <= 5"), atom("X - Y = 0"), atom("Y >= 5"), atom("Y <= 3"))
        else:
            atoms = (atom("X <= 5"), atom("Y >= X"), atom("Y <= 3"), atom("Y <= 2*X - 5"))
        assert _simplify_conj(atoms) == atoms
        store = linarith._Store(atoms, frozenset({y}), DEFAULT_DNF_LIMIT)
        assert store.eliminate(y)
        assert [str(a) for a in store.conjunction()] == ["X <= 3", "X >= 5"]
        assert store.conjunction() == reference_step(atoms, y)
        _store_matches_its_atoms(store)

    # store steps per analysis; an elimination in Fourier-Motzkin's base
    # case builds no store (see TestOneSidedElimination)
    WORKLOAD_STEPS = {"corpus": 523, "shift": 979, "chain": 171}

    @pytest.mark.parametrize("name", ["corpus", "shift", "chain"])
    def test_workload_steps_equal_the_reference(self, name, monkeypatch):
        # every step of one analysis of each benchmark workload (seed 7)
        eliminate = linarith._Store.eliminate
        made = []

        def checked(store, x):
            before = store.conjunction()
            ok = eliminate(store, x)
            assert (store.conjunction() if ok else None) == reference_step(before, x), (
                before, x)
            if ok:
                _store_matches_its_atoms(store)
            made.append(ok)
            return ok

        monkeypatch.setattr(linarith._Store, "eliminate", checked)
        analyzer.analyze_program(parse_program(benchmark_text(name)))
        assert len(made) == self.WORKLOAD_STEPS[name]


class TestOneSidedElimination:
    """Eliminating variables each bounded on one side only, and in no
    equality, only deletes atoms: ``project`` and ``satisfiable`` settle it
    without a store, and agree with a store forced on the same input, its
    ceiling of conjuncts included."""

    VARS = (Var("U"), Var("V"), Var("W"), Var("X"), Var("Y"))
    LIMITS = (1, 2, 3, 4, DEFAULT_DNF_LIMIT)

    def _atoms(self, rng: random.Random, drop, upper: dict) -> list:
        """Atoms whose variables of ``drop`` have the sign ``upper`` gives
        them (upper bounds positive) and are in no equality; the other
        variables are free, and a few atoms are ground, some false."""
        atoms = []
        for _ in range(rng.randint(1, 7)):
            if rng.random() < 0.12:
                atoms.append(compare(LinTerm.of_const(rng.randint(-1, 1)),
                                     rng.choice(RELS), LinTerm.of_const(0)))
                continue
            coeffs = {}
            for v in rng.sample(self.VARS, rng.randint(1, 3)):
                c = rng.randint(1, 3)
                coeffs[v] = c if v not in drop or upper[v] else -c
                if v not in drop and rng.random() < 0.5:
                    coeffs[v] = -c
            rels = ("<=", "<") if drop.intersection(coeffs) else ("<=", "<", "=")
            atoms.append(compare(LinTerm.make(coeffs), rng.choice(rels),
                                 LinTerm.of_const(rng.randint(-3, 3))))
        return atoms

    @staticmethod
    def _store(atoms, drop, limit):
        """The store's elimination, forced: the simplified atoms, None when
        inconsistent, or the ResourceLimitError it raises."""
        simplified = _simplify_conj(atoms)
        if simplified is None:
            return None
        try:
            return linarith._Store(simplified, drop, limit).eliminate_all()
        except ResourceLimitError as err:
            return err

    def test_project_and_satisfiable_equal_the_store(self, monkeypatch):
        rng = random.Random(241)
        built = []
        init = linarith._Store.__init__

        def counted(store, atoms, drop, *rest):
            if drop:  # not the simplifier's store, which eliminates nothing
                built.append((atoms, drop))
            init(store, atoms, drop, *rest)

        monkeypatch.setattr(linarith._Store, "__init__", counted)
        kinds = Counter()
        for _ in range(500):
            drop = frozenset(rng.sample(self.VARS, rng.randint(1, len(self.VARS))))
            upper = {v: rng.random() < 0.5 for v in drop}
            atoms = self._atoms(rng, drop, upper)
            keep = frozenset(self.VARS) - drop
            recorded = rng.random() < 0.3 and _simplify_conj(atoms)
            for limit in self.LIMITS:
                expected = self._store(atoms, drop, limit)
                c = Constraint(tuple(atoms))
                if recorded:
                    c = Constraint(recorded)
                    c._simplified = True
                built.clear()
                try:
                    got = project(c, keep, limit)
                except ResourceLimitError as err:
                    assert isinstance(expected, ResourceLimitError), (atoms, limit)
                    assert str(err) == str(expected)
                    kinds["raised"] += 1
                    continue
                if expected is None:
                    assert got.atoms == (_atom((), 1, "<"),) and got._sat is False
                    kinds["inconsistent"] += 1
                    continue
                assert got.atoms == expected, (atoms, drop, limit)
                assert got._simplified
                if len(_simplify_conj(atoms)) <= limit:
                    assert not built, (atoms, drop, limit)  # settled without a store
                    kinds["deleted" if len(expected) < len(c.atoms) else "kept"] += 1
            # with every variable one-sided, satisfiable settles the base
            # case after simplifying; the other inputs take the store
            every = frozenset(v for a in atoms for v in a.variables)
            for limit in self.LIMITS:
                c = Constraint(tuple(atoms))
                expected = self._store(atoms, every, limit)
                if isinstance(expected, ResourceLimitError):
                    with pytest.raises(ResourceLimitError):
                        satisfiable(c, limit)
                    kinds["sat raised"] += 1
                    continue
                assert satisfiable(c, limit) == (expected is not None), (atoms, limit)
                assert c._sat == (expected is not None)
                if every <= drop and len(atoms) <= limit:
                    # recorded simplified exactly when simplifying changes nothing
                    assert c._simplified == (_simplify_conj(atoms) == tuple(atoms))
                    kinds["sat" if c._sat else "unsat"] += 1
        # at this seed: 962 projections delete atoms and 126 keep them all,
        # 535 inputs are inconsistent, the store raises in 314 projections
        # and 350 satisfiability checks, and the one-sided inputs number 330
        # satisfiable and 63 unsatisfiable
        assert min(kinds.values()) >= 30 and len(kinds) == 7, kinds


class TestWorklistPropagation:
    """``propagate`` visits the rules a worklist holds, and returns what
    rounds over every underived rule return (``reference_propagate``):
    the same loops in the same order with the same ``via`` facts, and at a
    small limit the same loops found before the same error."""

    OPTS = AnalyzeOptions(verify_steps=0, propagate=False)

    def test_equals_the_rounds(self):
        seen = Counter()
        for seed in range(60):
            prog = rand_propagation_program(random.Random(seed))
            reports = analyzer.analyze_program(prog, self.OPTS).reports
            got = analyzer.propagate(prog, reports)
            assert got == reference_propagate(prog, reports), seed
            seen["loops"] += len(got)
            # a loop of an earlier rule than the one before it came in a
            # later sweep
            seen["sweeps"] += any(a.index > b.index for a, b in zip(got, got[1:]))
            for limit in (1, 2, 3, 4):
                try:
                    expected = reference_propagate(prog, reports, limit)
                except analyzer.PropagationLimitError as err:
                    with pytest.raises(analyzer.PropagationLimitError) as raised:
                        analyzer.propagate(prog, reports, limit)
                    assert raised.value.found == err.found, (seed, limit)
                    assert str(raised.value) == str(err)
                    seen["raised"] += 1
                    seen["found before"] += bool(err.found)
                else:
                    assert analyzer.propagate(prog, reports, limit) == expected
        # at these seeds: 150 loops, 15 programs whose loops take more than
        # one sweep, 77 limit errors, 30 of them after some loop was found
        assert min(seen.values()) >= 10, seen


def _primitive(a) -> bool:
    """Whether an atom is a primitive integer vector: int entries with gcd 1
    (or all zero), an equality led by a positive coefficient."""
    entries = [c for _, c in a.term.coeffs] + [a.term.const]
    return (all(type(e) is int for e in entries)
            and (math.gcd(*entries) == 1 or not any(entries))
            and (a.rel != "=" or not a.term.coeffs or a.term.coeffs[0][1] > 0))


def _rational_text(rng, names) -> str:
    """A linear term with rational coefficients and constant, as source."""
    parts = [f"{rng.randint(1, 9)}/{rng.randint(1, 6)}*{n}"
             for n in rng.sample(names, rng.randint(1, len(names)))]
    parts.append(f"{rng.randint(0, 9)}/{rng.randint(1, 6)}")
    signed = [("-" if rng.random() < 0.5 else "") + parts[0]]
    signed += [(" + " if rng.random() < 0.5 else " - ") + p for p in parts[1:]]
    return "".join(signed)


class TestIntegerAtomProperties:
    VARS = (Var("U"), Var("V"), Var("W"))

    def test_every_layer_returns_primitive_atoms(self):
        rng = random.Random(115)
        pred = Pred("p", 2)
        atoms = []
        steps = samples = 0
        for _ in range(60):
            text = ", ".join(
                f"{_rational_text(rng, 'UVW')} {rng.choice(RELS)} "
                f"{_rational_text(rng, 'UV')}" for _ in range(rng.randint(1, 3)))
            c = parse_query(f"p(U, V) : {text}").constraint
            atoms += c.atoms
            atoms += project(c, {v for v in self.VARS if rng.random() < 0.5}).atoms
            for a in c.atoms:
                atoms += _negate_atom(a)
            rule = rand_rule(rng, arity=2)
            atoms += rule.constraint.atoms
            succ = derivation_step(rand_linear_query(rng, pred), rule,
                                   1 + max_gen(rule))
            if succ is not None:
                steps += 1
                atoms += succ.constraint.atoms
            values = sample_solution(c)
            if values is not None:
                samples += 1
                assert all(type(x) is Fraction for x in values.values())
        # 54 steps, 59 samples and 435 atoms at this seed
        assert steps > 40 and samples > 40 and len(atoms) > 400
        assert all(_primitive(a) for a in atoms)

    def test_one_builder_matches_a_fraction_reference(self):
        # lhs op rhs from random rational maps, built by compare and by the
        # parser, against the reference, and again with both sides scaled
        # by a positive rational
        rng = random.Random(116)
        for _ in range(300):
            lhs, rhs = _rational_map(rng, self.VARS), _rational_map(rng, self.VARS)
            op = rng.choice(RELS)
            a = compare(_term(lhs), op, _term(rhs))
            assert _primitive(a)
            assert _reference_atom(lhs, op, rhs) == (a.term.coeffs, a.term.const, a.rel)
            assert parse_query(f"p : {_source(lhs)} {op} {_source(rhs)}").constraint \
                == Constraint.of(a)
            k = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            lhs_k = {v: k * c for v, c in lhs.items()}
            rhs_k = {v: k * c for v, c in rhs.items()}
            for b in (compare(_term(lhs_k), op, _term(rhs_k)),
                      parse_query(f"p : {_source(lhs_k)} {op} {_source(rhs_k)}")
                      .constraint.atoms[0]):
                assert b == a and hash(b) == hash(a)

    def test_int_data_equals_its_fraction_form(self):
        # _linear_atom on int data, under either sign, equals the same call
        # with every number given as a Fraction, which takes the scaling path
        rng = random.Random(117)
        for _ in range(300):
            acc = {v: rng.randint(-6, 6) for v in self.VARS if rng.random() < 0.7}
            const = rng.randint(-12, 12)
            rel = rng.choice((REL_EQ, REL_LE, REL_LT))
            for sign in (1, -1):
                a = _linear_atom(acc, const, rel, sign)
                assert _primitive(a)
                assert a == _linear_atom({v: Fraction(c) for v, c in acc.items()},
                                         Fraction(const), rel, sign)

    def test_substitute_agrees_with_eval(self):
        # a[m] at v holds exactly when a holds at v extended by m's values,
        # and a[m]'s term is one fixed multiple of a's term under m
        rng = random.Random(117)
        pool = self.VARS + (Var("T"),)
        for _ in range(300):
            a = compare(_term(_rational_map(rng, self.VARS)), rng.choice(RELS),
                        _term(_rational_map(rng, self.VARS)))
            m = {x: _term(_rational_map(rng, pool))
                 for x in self.VARS if rng.random() < 0.6}
            s = a.substitute(m)
            assert _primitive(s)
            ratios = set()
            for _ in range(5):
                v = {x: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for x in pool}
                ext = {**v, **{x: t.eval(v) for x, t in m.items()}}
                assert s.eval(v) == a.eval(ext)
                value = a.term.eval(ext)
                if value == 0:
                    assert s.term.eval(v) == 0
                else:
                    ratios.add(s.term.eval(v) / value)
            assert len(ratios) <= 1, (a, m)


def _rational_map(rng, variables) -> dict:
    """Random rational coefficients over some of ``variables`` (a few of
    them zero) and a rational constant under the key None."""
    out = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 6))
           for v in variables if rng.random() < 0.6}
    out[None] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return out


def _term(coeffs: dict) -> LinTerm:
    return LinTerm.make({v: c for v, c in coeffs.items() if v is not None}, coeffs[None])


def _source(coeffs: dict) -> str:
    """A rational map as source text, e.g. ``-3/2*U + 0/1*V + 5/6``."""
    parts = [f"{abs(c.numerator)}/{c.denominator}*{v}" if v is not None else
             f"{abs(c.numerator)}/{c.denominator}" for v, c in coeffs.items()]
    signs = ["-" if c < 0 else "+" for c in coeffs.values()]
    return " ".join(f"{sign} {part}" for sign, part in zip(signs, parts)).lstrip("+ ")


def _reference_atom(lhs: dict, op: str, rhs: dict) -> tuple:
    """(coefficients, constant, relation) of the atom ``lhs op rhs`` in
    Fraction arithmetic: lhs - rhs, negated for >= and >, scaled by the lcm
    of the denominators, divided by the gcd of the entries, and an equality
    negated when its leading coefficient is negative."""
    diff = dict(lhs)
    for v, c in rhs.items():
        diff[v] = diff.get(v, 0) - c
    if op in (">=", ">"):
        diff = {v: -c for v, c in diff.items()}
    rel = {">=": "<=", ">": "<"}.get(op, op)
    const = diff.pop(None)
    coeffs = sorted((v, c) for v, c in diff.items() if c != 0)
    scale = math.lcm(*(c.denominator for _, c in coeffs), const.denominator)
    g = math.gcd(*(int(c * scale) for _, c in coeffs), int(const * scale)) or 1
    if rel == "=" and coeffs and coeffs[0][1] < 0:
        g = -g
    unit = Fraction(scale, g)
    return (tuple((v, int(c * unit)) for v, c in coeffs), int(const * unit), rel)


def _holds(c, valuation) -> bool:
    return all(a.eval(valuation) for a in c)


def _loosen(rng, a):
    """An atom that ``a`` implies: its term lowered by a non-negative
    constant, an equality read as one of its two bounds."""
    term = a.term if a.rel != "=" or rng.random() < 0.5 else LinTerm(
        tuple((v, -c) for v, c in a.coeffs), -a.const)
    op = "<" if a.rel == "<" else "<="
    return compare(term, op, LinTerm.of_const(rng.randint(0, 2)))


def _refuting_sample(e: Entailment):
    """A sample of the left side that violates an atom of the right side,
    found by sampling the left side conjoined with each negated atom."""
    for a in e.rhs:
        for n in _negate_atom(a):
            v = sample_solution(e.lhs.conjoin(Constraint.of(n)), e.over)
            if v is not None:
                return v
    return None


class TestDecideProperties:
    OVER = (Var("U"), Var("V"))
    EXTRA = (Var("W"),)

    def test_verdicts_checked_by_eval(self):
        # the left side ranges over `over` plus an extra variable, the right
        # side over `over` alone; each verdict is checked by evaluating atoms
        # at sampled points, never by decide
        rng = random.Random(113)
        over = frozenset(self.OVER)
        refuted = held = 0
        for _ in range(200):
            lhs = rand_constraint(rng, self.OVER + self.EXTRA, max_atoms=4)
            rhs = rand_constraint(rng, self.OVER, max_atoms=2)
            if rng.random() < 0.5:
                # implied by construction, unless a random atom is kept
                rhs = Constraint(tuple(_loosen(rng, a) for a in lhs
                                       if a.variables <= over)
                                 + rhs.atoms[:rng.randint(0, 1)])
            e = Entailment(lhs, rhs, over)
            if not decide(e):
                v = _refuting_sample(e)
                assert v is not None, (str(lhs), str(rhs))
                assert _holds(lhs, v) and not _holds(rhs, v)
                refuted += 1
                continue
            for _ in range(3):
                bounds = Constraint(tuple(
                    compare(LinTerm.of_var(x), rng.choice(("<=", ">=")),
                            LinTerm.of_const(rng.randint(-4, 4)))
                    for x in self.OVER + self.EXTRA if rng.random() < 0.5))
                v = sample_solution(lhs.conjoin(bounds), self.OVER)
                if v is not None:
                    assert _holds(rhs, v), (str(lhs), str(rhs), v)
                    held += 1
        assert refuted >= 50 and held >= 50, (refuted, held)


def _all_subsets(n: int):
    return (frozenset(c) for k in range(n + 1)
            for c in itertools.combinations(range(1, n + 1), k))


class TestEarlyStopProperties:
    """``decide`` stops a refutation once no atom derived from the negated
    atom is left when its left side is recorded satisfiable;
    ``reference_decide`` eliminates every variable instead."""

    def test_decide_equals_reference_on_neutrality_formulas(self, corpus_program):
        # the head and body formulas of every subset, as the analyzer builds
        # them; then crossed head formulas, whose condition is the full-set
        # condition of an earlier rule of the same arity renamed onto this
        # rule's head variables, so the two parts of the left side overlap
        # and may contradict each other
        rng = random.Random(131)
        rules = ([rand_wide_rule(rng) for _ in range(40)]
                 + [rand_rule(rng) for _ in range(120)])
        kinds = Counter()
        for rule in rules + list(corpus_program.clauses):
            if not rule.is_recursive():
                continue
            to_body = dict(zip(rule.head_vars, rule.body_vars))
            for m in _all_subsets(rule.head_pred.arity):
                cond = projection(rule, m, None, linarith.DEFAULT_DNF_LIMIT)
                for kind, e in (
                        ("head", neutrality_head_formula(rule, m, m, cond)),
                        ("body", neutrality_body_formula(rule, m, cond.rename(to_body)))):
                    # both left sides are projections of the rule constraint,
                    # which the parser proved satisfiable
                    assert e.lhs._sat is True, (str(rule), sorted(m))
                    verdict = decide(e)
                    assert verdict == reference_decide(e), (kind, str(rule), sorted(m))
                    kinds[kind, verdict] += 1
        earlier = {}
        for rule in rules:
            n = rule.head_pred.arity
            other = earlier.get(n)
            earlier[n] = rule
            if other is None:
                continue
            full = frozenset(range(1, n + 1))
            cond = projection(other, full, None, linarith.DEFAULT_DNF_LIMIT).rename(
                dict(zip(other.head_vars, rule.head_vars)))
            for m in _all_subsets(n):
                if m == full:
                    continue  # the parts are disjoint there
                e = neutrality_head_formula(rule, m, m, cond)
                verdict = decide(e)
                assert verdict == reference_decide(e), (str(rule), str(cond), sorted(m))
                kinds["crossed", verdict] += 1
                kinds["crossed, parts overlap"] += e.lhs._sat is None
                kinds["crossed lhs unsatisfiable"] += not satisfiable(e.lhs)
        # at this seed: head formulas hold 710 times and fail 358 times,
        # body formulas 721 and 347; crossed formulas hold 371 times and
        # fail 424 times, the parts of 203 of them overlap, and 9 of their
        # left sides are unsatisfiable
        assert min(kinds[k, v] for k in ("head", "body", "crossed")
                   for v in (True, False)) >= 300, kinds
        assert kinds["crossed, parts overlap"] >= 100, kinds
        assert kinds["crossed lhs unsatisfiable"] >= 5, kinds


class TestNeutralityProperties:
    def test_failed_head_condition_loses_a_step(self):
        # completeness of the head condition, on the engine: when it fails,
        # its refuting sample gives unfiltered values O, replacement values H'
        # satisfying the filter, and original values H0 that c admits with
        # O; the query with H0 has a step whose successor admits the
        # unfiltered body values, the query with H' has none
        rng = random.Random(114)
        failed = 0
        for _ in range(400):
            rule = rand_rule(rng)
            filt = rand_filter(rng, rule.head_pred)
            e = filter_head_formula(filt, filt, rule)
            if decide(e):
                continue
            failed += 1
            refuting = _refuting_sample(
                Entailment(e.lhs, project(e.rhs, e.over), e.over))
            assert refuting is not None
            replaced = select_positions(rule.head_vars, filt.positions)
            unfiltered = sorted(e.over - set(replaced))
            fixed = Constraint(tuple(var_eq(v, LinTerm.of_const(refuting[v]))
                                     for v in unfiltered))
            original = sample_solution(rule.constraint.conjoin(fixed),
                                       rule.head_vars)
            assert original is not None
            probe = tuple(LinTerm.of_const(refuting[v]) if v in unfiltered
                          else LinTerm.of_var(Var(f"W{i}"))
                          for i, v in enumerate(rule.body_vars, start=1))

            def ground(values):
                args = tuple(LinTerm.of_const(values[v]) for v in rule.head_vars)
                return Query(Atom(rule.head_pred, args), Constraint(()))

            def admits(q):
                succ = derivation_step(q, rule, 1)
                return succ is not None and satisfiable(membership(probe, succ))

            assert admits(ground(original))
            assert satisfies(ground(refuting), filt)
            assert not admits(ground(refuting))
        assert failed >= 50, failed


def _condition_kinds(cond: Query, rule: Clause) -> set[str]:
    """The features of a filter condition the denotation tests cover."""
    args = cond.atom.args
    var_args = [t.is_var() for t in args if t.is_var() is not None]
    kinds = set()
    if len(var_args) < len(args):
        kinds.add("non-variable")
    if any(c.denominator != 1 for t in args for _, c in t.coeffs) or any(
            t.const.denominator != 1 for t in args):
        kinds.add("rational")
    if len(set(var_args)) < len(var_args):
        kinds.add("repeated")
    if cond.constraint.variables - cond.atom.variables:
        kinds.add("local")
    if cond.variables & rule.variables:
        kinds.add("shared")
    return kinds


def _inside_condition(rng: random.Random, filt, pred: Pred) -> Query:
    """A query over pred whose arguments at the filtered positions are the
    condition's of pred's filter, with fresh variables elsewhere, and whose
    constraint is the condition's with perhaps one more conjunct, so it
    satisfies the filter."""
    cond = filt.condition
    by_position = dict(zip(sorted(filt.positions), cond.atom.args))
    args = tuple(by_position.get(i, LinTerm.of_var(Var(f"F{i}")))
                 for i in range(1, pred.arity + 1))
    atom = Atom(pred, args)
    pool = sorted(atom.variables | cond.constraint.variables)
    extra = rand_constraint(rng, pool, 1) if pool else Constraint(())
    return Query(atom, cond.constraint.conjoin(extra))


def _variable_query(rng: random.Random, pred: Pred) -> Query:
    """A query whose arguments are variables, some named like the probes or
    carrying a generation, over a store that may have locals.  The
    arguments are distinct, or at times the last repeats the first."""
    pool = [Var(n, g) for n in ("Q1", "Q2", "W1", "W2") for g in (0, 3)]
    rng.shuffle(pool)
    args = pool[:pred.arity]
    if len(args) >= 2 and rng.random() < 0.3:
        args[-1] = args[0]
    return Query(atom_of_vars(pred, args),
                 rand_constraint(rng, pool[:pred.arity + rng.randint(0, 2)], 3))


_ARGUMENT_KINDS = ("repeated", "constant", "compound", "rational")


def _argument_kinds(q: Query) -> set[str]:
    """The kinds of arguments that take the equations ``W = t``."""
    var_args = [t.is_var() for t in q.atom.args if t.is_var() is not None]
    kinds = set()
    if len(set(var_args)) < len(var_args):
        kinds.add("repeated")
    if any(not t.coeffs for t in q.atom.args):
        kinds.add("constant")
    if any(t.coeffs and t.is_var() is None for t in q.atom.args):
        kinds.add("compound")
    if any(c.denominator != 1 for t in q.atom.args
           for c in (t.const, *(c for _, c in t.coeffs))):
        kinds.add("rational")
    return kinds


class TestDenotationProperties:
    """The entailments built on cached denotations decide as the renaming
    builders kept in the fuzzers do."""

    def test_neutrality_equals_renaming_builders(self):
        # recursive rules with and without locals, rules over generations
        # 0, 2, 3 and 7 that reuse the probe name W, and non-recursive rules;
        # recursive rules sometimes take the analyzer's candidate filter
        rng = random.Random(117)
        verdicts = Counter()
        kinds = Counter()
        for k in range(360):
            if k % 3 == 0:
                rule = rand_rule(rng)
            elif k % 3 == 1:
                pred = Pred("p", rng.randint(1, 2))
                rule = rand_step_rule(rng, pred, pred)
            else:
                rule = rand_step_rule(rng)
            if rule.is_recursive() and rng.random() < 0.3:
                filters = {rule.head_pred: candidate_filter(
                    rule, rand_positions(rng, rule.head_pred.arity))}
            else:
                filters = rand_condition_filter(rng, rule)
            for filt in filters.values():
                kinds.update(_condition_kinds(filt.condition, rule))
            hf, bf = filters[rule.head_pred], filters[rule.body_pred]
            head = decide(filter_head_formula(hf, bf, rule))
            assert head == decide(renaming_head_formula(hf, bf, rule)), (str(rule), filters)
            body = decide(filter_body_formula(bf, rule))
            assert body == decide(renaming_body_formula(hf, bf, rule)), (str(rule), filters)
            verdicts[head, body] += 1
        # at this seed: (head, body) verdicts 189/105/44/22; conditions with
        # shared names 285, locals 181, non-variable arguments 155, rational
        # ones 96 and repeated variables 21
        assert min(verdicts.values()) >= 15 and len(verdicts) == 4, verdicts
        assert min(kinds.values()) >= 15 and len(kinds) == 5, kinds

    def test_more_general_equals_renaming_reference(self):
        rng = random.Random(118)
        verdicts = Counter()
        for k in range(400):
            pred = Pred("p", rng.randint(0, 2))
            q = (rand_rational_query, rand_linear_query, rand_query)[k % 3](rng, pred)
            kind = rng.randrange(3)
            if kind == 0:
                g = relax(rng, q)
            elif kind == 1:
                g = rand_rational_query(rng, pred)
            else:
                g = rand_query(rng, pred)
            held = more_general(g, q)
            assert held == decide(renaming_more_general(g, q)), (str(g), str(q))
            verdicts[held] += 1
        # 264 held and 136 did not at this seed
        assert verdicts[True] >= 100 and verdicts[False] >= 100, verdicts

    def test_filter_generality_equals_projected_reference(self):
        # conditions from rand_condition_filter over the head and body
        # predicates; queries inside a condition, random or relaxed
        rng = random.Random(120)
        verdicts = Counter()
        kinds = Counter()
        for k in range(400):
            rule = rand_rule(rng) if k % 2 else rand_step_rule(rng)
            filters = rand_condition_filter(rng, rule)
            for f in filters.values():
                kinds.update(_condition_kinds(f.condition, rule))
            kinds["two predicates"] += len(filters) == 2
            kinds["W1"] += any(Var("W1") in f.condition.variables for f in filters.values())
            pred = rng.choice((rule.head_pred, rule.body_pred))
            filt = filters[pred]
            q = (_inside_condition(rng, filt, pred) if rng.random() < 0.3 else
                 (rand_rational_query, rand_linear_query, rand_query)[k % 3](rng, pred))
            kind = rng.randrange(3)
            if kind == 0:
                g = relax(rng, q)
            elif kind == 1:
                g = _inside_condition(rng, filt, pred)
            else:
                g = rand_rational_query(rng, pred)
            sat = satisfies(q, filt)
            assert sat == projected_satisfies(q, filt), (str(q), filt)
            delta = delta_more_general(g, q, filt)
            assert delta == projected_delta_more_general(g, q, filt), (str(g), str(q), filt)
            verdicts["satisfies", sat] += 1
            verdicts["delta", delta] += 1
        # at this seed: satisfies held 314 times and failed 86 times,
        # delta_more_general held 270 times and failed 130 times; conditions
        # with shared names 346, locals 282, the name W1 204, non-variable
        # arguments 199, rational ones 116 and repeated variables 41; 200
        # filters over two predicates
        assert len(verdicts) == 4 and min(verdicts.values()) >= 60, verdicts
        assert len(kinds) == 7 and min(kinds.values()) >= 30, kinds

    def test_denotation_equals_equation_reference(self, monkeypatch):
        # distinct-variable arguments project the store alone; repeated
        # variables, constants and compound or rational terms take the
        # equations W = t; an unsatisfiable store occurs on both paths
        rng = random.Random(121)
        projected = []
        project_ = linarith.project
        monkeypatch.setattr(linarith, "project", lambda c, keep, limit: (
            projected.append(c) or project_(c, keep, limit)))
        kinds = Counter()
        for k in range(400):
            pred = Pred("p", rng.randint(0, 3))
            q = (_variable_query, rand_query, rand_rational_query,
                 rand_linear_query)[k % 4](rng, pred)
            if rng.random() < 0.2:
                t = LinTerm.of_var(rng.choice(sorted(q.variables) or [Var("L")]))
                q = Query(q.atom, q.constraint.conjoin(Constraint.of(
                    compare(t, ">=", LinTerm.of_const(1)),
                    compare(t, "<=", LinTerm.of_const(0)))))
            den = denotation(q)
            path = "store" if projected[-1] is q.constraint else "equations"
            w = probes(pred.arity)
            ref = equation_denotation(q)
            assert den.variables <= set(w)
            assert decide(Entailment(den, ref, frozenset(w))), str(q)
            assert decide(Entailment(ref, den, frozenset(w))), str(q)
            kinds[path] += 1
            kinds.update((path, kind) for kind in _argument_kinds(q))
            if not satisfiable(q.constraint):
                kinds[path, "unsatisfiable"] += 1
        # at this seed: 198 denotations projected the store and 202 took the
        # equations, with constants 140, compound terms 91, rational ones
        # 34 and repeated variables 14; 77 and 50 stores were unsatisfiable
        assert kinds["store"] >= 100 and kinds["equations"] >= 100, kinds
        assert not any(kinds["store", kind] for kind in _ARGUMENT_KINDS), kinds
        assert min(kinds["equations", kind] for kind in _ARGUMENT_KINDS) >= 10, kinds
        assert min(kinds[path, "unsatisfiable"] for path in ("store", "equations")) >= 30, kinds

    def test_denotation_equals_projected_membership(self):
        rng = random.Random(119)
        for k in range(300):
            pred = Pred("p", rng.randint(0, 3))
            q = (rand_rational_query, rand_linear_query, rand_query)[k % 3](rng, pred)
            w = probes(pred.arity)
            ref = project(membership(tuple(LinTerm.of_var(v) for v in w), q), w)
            den = denotation(q)
            assert den.variables <= set(w)
            assert decide(Entailment(den, ref, frozenset(w)))
            assert decide(Entailment(ref, den, frozenset(w)))


def _equivalent(c1: Constraint, c2: Constraint, over: frozenset) -> bool:
    return decide(Entailment(c1, c2, over)) and decide(Entailment(c2, c1, over))


class TestCandidateConditionProperties:
    """Each candidate condition projects the condition of its parent subset
    (the subset plus its smallest missing position), and a witness takes its
    store from the same lattice; ``direct_condition``, one projection of the
    rule constraint, is the reference."""

    def test_lattice_conditions_equal_direct_projection(self):
        rng = random.Random(125)
        kinds = Counter()
        for _ in range(50):
            rule = rand_wide_rule(rng)
            pred = rule.head_pred
            head, body = rule.head_query, rule.body_query
            report = find_looping_queries(rule, opts=AnalyzeOptions(verify_steps=0))
            assert len(report.checks) == 2 ** pred.arity and not report.errors
            for check in report.checks:
                m = check.positions
                filt = candidate_filter(rule, m)
                cond, ref = filt.condition, direct_condition(rule, m)
                assert cond.atom == ref.atom
                assert _equivalent(cond.constraint, ref.constraint,
                                   frozenset(ref.atom.variables)), (str(rule), sorted(m))
                kinds["text differs"] += str(cond) != str(ref)
                # the witness store against the complement's reference, over
                # the head variables the witness keeps
                witness = make_witness(filt, rule)
                ref_kept = direct_condition(rule, frozenset(range(1, pred.arity + 1)) - m)
                assert _equivalent(witness.constraint, ref_kept.constraint,
                                   frozenset(ref_kept.atom.variables)), (str(rule), sorted(m))
                ref_filt = make_filter(pred, m, ref)
                head_ok = decide(filter_head_formula(ref_filt, ref_filt, rule))
                body_ok = subsumes = None
                if head_ok:
                    body_ok = decide(filter_body_formula(ref_filt, rule))
                    if body_ok:
                        subsumes = delta_more_general(body, head, ref_filt)
                assert (check.head_ok, check.body_ok, check.subsumes) == (
                    head_ok, body_ok, subsumes), (str(rule), sorted(m))
                kinds[check.failed_condition or "passed"] += 1
        # at this seed: 828 subsets; 358 failed the head condition, 203 the
        # body condition and 146 subsumption, and 121 passed; 12 conditions
        # print differently from their direct projection
        assert kinds["text differs"] >= 5, kinds
        assert min(kinds[k] for k in ("head", "body", "subsumes", "passed")) >= 100, kinds


class TestWitnessProperties:
    def test_passing_subsets_take_the_constructed_candidate(self, corpus_program,
                                                            monkeypatch):
        # make_witness falls back to the head query when its candidate is
        # not delta-more general than it, but by construction the candidate
        # always is: its constants are sampled from the condition, and its
        # store is the condition at the kept positions, the head
        # denotation's projection onto them.  The check stays in the
        # analyzer; this pins that it never fails.
        checked = []
        real = analyzer.delta_more_general

        def recorded(*args):
            checked.append(real(*args))
            return checked[-1]

        monkeypatch.setattr(analyzer, "delta_more_general", recorded)
        rng = random.Random(3)
        rules = (list(corpus_program.clauses)
                 + [rand_wide_rule(rng) for _ in range(150)]
                 + [rand_rule(rng) for _ in range(300)])
        passing = 0
        for rule in rules:
            report = find_looping_queries(rule, opts=AnalyzeOptions(verify_steps=0))
            for res in report.results:
                passing += 1
                args = res.witness.atom.args
                assert all(not args[i - 1].variables for i in res.positions), \
                    (str(rule), str(res.witness))
        # at this seed: 984 passing subsets
        assert passing >= 900 and checked == [True] * passing


class TestHeadSideProperties:
    """The head condition's sides come from one lattice per rule: each
    side eliminates one or two variables from its parent subset's (the
    subset without its largest position); ``direct_sides``, one projection
    of the rule constraint per side, is the reference."""

    @staticmethod
    def check_sides(rule: Clause, hm: frozenset[int], bm: frozenset[int]):
        """Compares the lattice sides at head positions hm and body
        positions bm with the reference; returns the reference sides, the
        right side's variables and whether either side prints differently."""
        rhs, lhs = head_sides(rule, hm, bm)
        ref_rhs, ref_lhs = direct_sides(rule, hm, bm)
        kept_body = set(rule.body_vars) - set(select_positions(rule.body_vars, bm))
        kept_head = set(rule.head_vars) - set(select_positions(rule.head_vars, hm))
        over = frozenset(rule.head_vars).union(kept_body)
        kept = frozenset(kept_head | kept_body)
        # each side lies over its variables, so decide takes it as it is
        assert rhs.variables <= over and lhs.variables <= kept
        where = (str(rule), sorted(hm), sorted(bm))
        assert _equivalent(rhs, ref_rhs, over), where
        assert _equivalent(lhs, ref_lhs, kept), where
        differs = (str(rhs), str(lhs)) != (str(ref_rhs), str(ref_lhs))
        return ref_rhs, ref_lhs, over, differs

    def test_lattice_sides_equal_direct_projection(self):
        rng = random.Random(126)
        kinds = Counter()
        for _ in range(40):
            rule = rand_wide_rule(rng)
            pred = rule.head_pred
            n = pred.arity
            report = find_looping_queries(rule, opts=AnalyzeOptions(verify_steps=0))
            assert len(report.checks) == 2 ** n and not report.errors
            for check in report.checks:
                m = check.positions
                ref_rhs, ref_lhs, over, differs = self.check_sides(rule, m, m)
                kinds["text differs"] += differs
                # the verdict decided on the reference sides
                filt = candidate_filter(rule, m)
                member = condition_denotation(filt, select_positions(rule.head_vars, m))
                head_ok = decide(Entailment(ref_lhs.conjoin(member), ref_rhs, over))
                assert check.head_ok == head_ok, (str(rule), sorted(m))
                kinds["head holds" if head_ok else "head fails"] += 1
            # filters whose head and body positions differ take the same
            # lattice, with j the largest filtered position on either side
            for _ in range(4):
                hm, bm = rand_positions(rng, n), rand_positions(rng, n)
                self.check_sides(rule, hm, bm)
                kinds["differing positions"] += hm != bm
        # at this seed: 664 subsets, 338 head conditions hold and 326 fail,
        # 4 side pairs print differently from the reference, and 146 of the
        # 160 extra filters have differing head and body positions
        assert kinds["text differs"] >= 3, kinds
        assert min(kinds["head holds"], kinds["head fails"]) >= 100, kinds
        assert kinds["differing positions"] >= 100, kinds


class TestProjectionOrderProperties:
    """Each node of a rule's projection lattice is one projection of a
    fixed parent's value, so its printed value does not depend on which
    nodes were cached before it: filling one copy of a rule in scan order
    and a fresh copy in shuffled order gives the same constraints."""

    @staticmethod
    def requests(rng: random.Random, rule: Clause) -> list:
        """Every candidate condition and the sides at every subset m in the
        scan order (decreasing cardinality, lexicographic within one), then
        the sides of random filters whose head and body positions differ."""
        n, k = len(rule.head_vars), len(rule.body_vars)
        out = []
        for m in sorted(_all_subsets(n), key=lambda m: (-len(m), sorted(m))):
            out += [("cond", m, None), ("sides", m, frozenset(i for i in m if i <= k))]
        out += [("sides", rand_positions(rng, n), rand_positions(rng, k))
                for _ in range(8)]
        return out

    @staticmethod
    def fill(rule: Clause, requests: list) -> dict:
        out = {}
        for kind, a, b in requests:
            value = (projection(rule, a, None) if kind == "cond"
                     else head_sides(rule, a, b))
            out[kind, a, b] = str(value) if kind == "cond" else tuple(map(str, value))
        return out

    def test_any_call_order_gives_the_same_constraints(self):
        rng = random.Random(127)
        kinds = Counter()
        for _ in range(60):
            wide = rand_wide_rule(rng)
            # the same constraint under a non-recursive rule whose body
            # keeps a prefix of the body variables (the others turn local)
            k = rng.randint(0, len(wide.body_vars))
            other = Clause(wide.head_pred, wide.head_vars, wide.constraint,
                           Pred("q", k), wide.body_vars[:k])
            kinds["shorter body"] += k < len(wide.body_vars)
            for rule in (wide, other):
                requests = self.requests(rng, rule)
                fresh = Clause(rule.head_pred, rule.head_vars, rule.constraint,
                               rule.body_pred, rule.body_vars)
                shuffled = requests[:]
                rng.shuffle(shuffled)
                in_scan_order = self.fill(rule, requests)
                assert self.fill(fresh, shuffled) == in_scan_order, str(rule)
                assert set(fresh._projections) == set(rule._projections), str(rule)
                kinds["recursive" if rule.is_recursive() else "non-recursive"] += 1
                kinds["nodes"] += len(rule._projections)
        # at this seed: 60 rules of each kind, 36 of the non-recursive ones
        # with a shorter body, and 5908 lattice nodes
        assert kinds["recursive"] == kinds["non-recursive"] == 60, kinds
        assert kinds["shorter body"] >= 25 and kinds["nodes"] >= 5000, kinds


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

    def test_sample_equals_the_reference(self):
        # sampling back along one chain of projections picks the values
        # that projecting onto each variable in turn picks; under a small
        # ceiling of conjuncts the two eliminate in different orders, so
        # they may raise ResourceLimitError at different points
        rng = random.Random(253)
        wider = self.VARS + (Var("X"), Var("Z"))
        kinds = Counter()

        def attempt(sample, c, variables, limit):
            try:
                return sample(Constraint(c.atoms), variables, limit)
            except ResourceLimitError:
                return ResourceLimitError

        for _ in range(2000):
            c = rand_constraint(rng, wider[:4], max_atoms=6)
            variables = wider if rng.random() < 0.3 else None
            expected = reference_sample(c, variables)
            assert sample_solution(Constraint(c.atoms), variables) == expected, c
            kinds["sat" if expected is not None else "unsat"] += 1
            for limit in rng.sample(range(2, 11), 3):
                got, expected = (attempt(sample, c, variables, limit)
                                 for sample in (sample_solution, reference_sample))
                if got is expected is ResourceLimitError:
                    kinds["both raise"] += 1
                elif got is ResourceLimitError:
                    kinds["the chain raises"] += 1
                elif expected is ResourceLimitError:
                    kinds["the reference raises"] += 1
                else:
                    assert got == expected, (c, limit)
                    kinds["limited"] += 1
        # at this seed: 1438 satisfiable and 562 unsatisfiable inputs; under
        # the small ceilings 5804 samples are equal, 105 raise in both, 54
        # only in the reference and 37 only in the chain
        assert min(kinds.values()) >= 25 and len(kinds) == 6, kinds


# the projected store of a run from p(-3, 1) doubles every step
STORE_DOUBLES = ("p(A1, A2) <- 2*A2 - B1 - 4*B2 = 1, 3*A1 + 4*B1 > 0, "
                 "3*A1 + 4*A2 + 2*B1 >= 1 <> p(B1, B2).")


def _drift_case(rng: random.Random, k: int) -> tuple[Program, Query]:
    """A drifting rule (every fifth a ``rand_rule``) and a query whose
    arguments are constants or variables with at most one bound each (a
    random query for every fourth case).  Every third program puts an exit
    to another predicate first and starts from a ground query, so that the
    exit's bound may first fail and then be crossed; every sixth puts
    another drifting rule for the same predicate first."""
    rule = rand_rule(rng) if k % 5 == 4 else rand_drift_rule(rng)
    pred = rule.head_pred
    rules, ground = (rule,), rng.random() < 0.5
    if k % 3 == 0:
        rules, ground = (rand_drift_rule(rng, pred.arity, body_name="q"), rule), True
    elif k % 6 == 1:
        rules = (rand_drift_rule(rng, pred.arity), rule)
    if k % 4 == 1 and not ground:
        return Program(rules), rand_query(rng, pred)
    args, bounds = [], []
    for i in range(pred.arity):
        if ground or rng.random() < 0.5:
            args.append(LinTerm.of_const(rng.randint(-12, 12)))
            continue
        x = LinTerm.of_var(Var(f"X{i + 1}"))
        args.append(x)
        if rng.random() < 0.7:
            bound = LinTerm.of_const(rng.randint(-12, 12))
            bounds.append(compare(x, rng.choice((">=", "<=")), bound))
    return Program(rules), Query(Atom(pred, tuple(args)), Constraint(tuple(bounds)))


def _recording(successors: list):
    """``derivation_step`` appending each successor it finds to a list."""
    def step(*args, **kwargs):
        successor = derivation_step(*args, **kwargs)
        if successor is not None:
            successors.append(successor)
        return successor
    return step


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

    def test_affine_shortcut_matches_every_step_run(self, monkeypatch):
        # drifting rules, some with a guard that ends the drift, random
        # rules, and two-rule programs whose first rule (possibly an exit to
        # another predicate) may take over on a later query.  Both sides run
        # under one small limit: when the every-step run exceeds it, the
        # run must exceed it at the same step or have stopped executing
        # steps before it.  The first case is a rule whose projected store
        # doubles every step, so both of its runs exceed the limit
        limit, budget = 60, 30
        rng = random.Random(5)
        fast_steps: list = []
        monkeypatch.setattr(engine, "derivation_step", _recording(fast_steps))
        seen = Counter()
        for k in range(300):
            if k == 0:
                prog = parse_program(STORE_DOUBLES)
                q = parse_query("p(-3, 1)")
            else:
                prog, q = _drift_case(rng, k)
            full_steps: list = []
            try:
                full = every_step_run(q, prog, budget, step=_recording(full_steps),
                                      limit=limit)
                full_raised = None
            except ResourceLimitError:
                full, full_raised = None, len(full_steps) + 1
            fast_steps.clear()
            try:
                fast = run(q, prog, budget, keep_trace=True, limit=limit)
            except ResourceLimitError:
                assert len(fast_steps) + 1 == full_raised, (k, str(q))
                seen["raised"] += 1
                continue
            at = fast.cycle[0] if fast.cycle else fast.steps
            assert [query for _, query in fast.trace[:at]] == full_steps[:at], k
            if full_raised is not None:
                assert at < full_raised and fast.steps == budget, (k, str(q))
                seen["stopped before the limit"] += 1
                continue
            assert fast.steps == len(full), (k, str(prog), str(q))
            assert fast.trace[:at] == full[:at]
            if fast.drift is not None:
                assert fast.current == full[at - 1][1]
                seen["affine"] += 1
            elif fast.cycle:
                assert engine._variant_key(fast.current) == engine._variant_key(full[-1][1])
                seen["variant"] += 1
            else:
                assert fast.current == (full[-1][1] if full else q)
                seen["ended" if fast.steps < budget else "every step"] += 1
        assert seen["affine"] >= 30 and seen["variant"] >= 30 and seen["ended"] >= 30, seen
        assert seen["raised"] >= 1, seen

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

    def test_compiled_step_equals_renaming_step(self):
        # the compiled integer pass builds exactly the atoms of renaming the
        # rule apart and substituting the rational arguments atom by atom:
        # same successor atom, same store atoms in the same order, same
        # generations, and the next generation run derives from the rule;
        # the inputs include rational, repeated and ground arguments and
        # rules over several generations
        rng = random.Random(113)
        found = 0
        seen = set()
        for _ in range(300):
            rule = rand_step_rule(rng)
            q = rand_rational_query(rng, rule.head_pred)
            args = q.atom.args
            if len({v.gen for v in rule.variables}) > 2:
                seen.add("generations")
            if any(c.denominator > 1 for t in args for _, c in t.coeffs) and \
                    any(t.const.denominator > 1 for t in args):
                seen.add("rational")
            if any(not t.coeffs for t in args):
                seen.add("ground")
            if len(args) == 2 and args[0].is_var() and args[0] == args[1]:
                seen.add("repeated")
            generation = 1 + max_gen(q) + rng.randint(0, 2)
            ours = derivation_step(q, rule, generation)
            ref = renaming_step(q, rule, generation)
            assert (ours is None) == (ref is None), (str(rule), str(q))
            if ours is None:
                continue
            found += 1
            assert ours == ref  # the atom, and the store atoms in order
            assert str(ours) == str(ref)
            assert [v for t in ours.atom.args for v, _ in t.coeffs] == \
                [v for t in ref.atom.args for v, _ in t.coeffs]
            assert all(type(c) is int for a in ours.constraint for _, c in a.term.coeffs)
            _, _, span = engine._compiled(rule)
            assert (generation + span if span else 1) == 1 + max_gen(ref)
        assert found >= 150
        assert seen == {"generations", "rational", "ground", "repeated"}

    def test_runs_take_the_renaming_steps(self):
        # two-rule cycles p -> q -> p over rules with several generations and
        # arities from 0: every executed step of a run equals the renaming
        # step at 1 + max_gen of its query, so run derives each next
        # generation as the renaming step's successor requires
        rng = random.Random(114)
        executed = 0
        for _ in range(80):
            there = rand_step_rule(rng)
            back = rand_step_rule(rng, there.body_pred, there.head_pred)
            prog = Program((there, back))
            q = rand_rational_query(rng, there.head_pred)
            state = run(q, prog, max_steps=6, keep_trace=True)
            at = state.cycle[0] if state.cycle else state.steps
            ref = every_step_run(q, prog, 6, step=renaming_step)
            assert state.trace[:at] == ref[:at]
            assert [str(s) for _, s in state.trace[:at]] == [str(s) for _, s in ref[:at]]
            executed += at
        assert executed >= 100

    def test_compiled_step_examples(self):
        # p(1/2, 2*X + 1/3) and p(X, X) against a rule whose variables
        # carry generations 0, 2 and 5
        (rule,) = parse_program(
            "p(A, B) <- A + B >= 1, C = 2*A - B, D <= C + 1 <> q(C, D).").clauses
        gens = {Var("A"): Var("A", 2), Var("B"): Var("B"), Var("C"): Var("C", 5),
                Var("D"): Var("D", 2)}
        rule = Clause(rule.head_pred, tuple(gens[v] for v in rule.head_vars),
                      rule.constraint.rename(gens), rule.body_pred,
                      tuple(gens[v] for v in rule.body_vars))
        for text in ("p(1/2, 2*X + 1/3)", "p(X, X)", "p(X, X) : X >= 1/3"):
            q = parse_query(text)
            for generation in (1, 4):
                ours = derivation_step(q, rule, generation)
                assert ours == renaming_step(q, rule, generation)
                assert str(ours) == str(renaming_step(q, rule, generation))
        ours = derivation_step(parse_query("p(1/2, 2*X + 1/3)"), rule, 1)
        assert str(ours.atom) == "q(C#3, D#2)"

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

    def test_random_programs_round_trip(self):
        rng = random.Random(3)
        for _ in range(300):
            make = rand_wide_rule if rng.random() < 0.5 else rand_rule
            prog = Program(tuple(make(rng, name=f"p{k}")
                                 for k in range(rng.randint(1, 3))))
            assert parse_program(str(prog)) == prog, str(prog)

    def test_token_soup_ends_in_a_program_or_a_positioned_error(self):
        # a third of the texts are random token sequences, a third random
        # rules with one token dropped, doubled or replaced, and a third
        # random rules as they are; the tokens are separated by random
        # blanks, line ends and comments.  Parsing ends in a Program or in a
        # ParseError pointing into the text
        rng = random.Random(127)
        outcomes = Counter()
        for k in range(450):
            if k % 3 == 0:
                tokens = [rng.choice(_SOUP) for _ in range(rng.randint(0, 30))]
            else:
                tokens = _rule_tokens(rng)
            if k % 3 == 1:
                i = rng.randrange(len(tokens))
                mutation = rng.choice(("drop", "double", "replace"))
                if mutation == "drop":
                    del tokens[i]
                elif mutation == "double":
                    tokens.insert(i, tokens[i])
                else:
                    tokens[i] = rng.choice(_SOUP)
            text = "".join(tok + rng.choice(_SEPARATORS) for tok in tokens)
            try:
                prog = parse_program(text)
            except ParseError as err:
                lines = text.split("\n")
                assert err.line is not None and 1 <= err.line <= len(lines), text
                assert 1 <= err.col <= len(lines[err.line - 1]) + 1, text
                outcomes[re.sub(r"'.*?'|:.*", "_", err.message)] += 1
            else:
                assert isinstance(prog, Program)
                outcomes["program"] += 1
        # at this seed: 169 programs and 281 errors of 8 kinds
        assert outcomes["program"] > 120 and len(outcomes) >= 7, outcomes


_SOUP = ("p", "q", "true", "A", "B", "L", "0", "1", "2", "3/4", "1/0", "(", ")",
         ",", ".", ":", "<-", "<>", "=", "<=", "<", ">=", ">", "+", "-", "*", "/",
         "# note\n", "\r\n", "\t", "@")
_SEPARATORS = ("", " ", " ", "\n", "\t", "\r\n", " # c\n")


def _rule_tokens(rng: random.Random) -> list[str]:
    """The tokens of one or two random rules, as text."""
    tokens: list[str] = []
    for name in ("p", "q")[: rng.randint(1, 2)]:
        rule = rand_rule(rng, name=name)
        tokens += str(rule).replace("(", " ( ").replace(")", " ) ") \
            .replace(",", " , ").replace(".", " . ").split()
    return tokens


def _structure(x):
    """The fields a value type compares on, as nested tuples with every
    number a Fraction: equality as the types defined it when they were
    frozen dataclasses.  A clause's source text is not compared."""
    if isinstance(x, LinTerm):
        return ("LinTerm", tuple((v, Fraction(c)) for v, c in x.coeffs),
                Fraction(x.const))
    if isinstance(x, AtomicProp):
        return ("AtomicProp", x.rel, _structure(x.term))
    if isinstance(x, Constraint):
        return ("Constraint", tuple(_structure(a) for a in x.atoms))
    if isinstance(x, Pred):
        return ("Pred", x.name, x.arity)
    if isinstance(x, Atom):
        return ("Atom", _structure(x.pred), tuple(_structure(t) for t in x.args))
    if isinstance(x, Query):
        return ("Query", _structure(x.atom), _structure(x.constraint))
    if isinstance(x, Clause):
        return ("Clause", _structure(x.head_pred), x.head_vars,
                _structure(x.constraint), _structure(x.body_pred), x.body_vars)
    assert isinstance(x, Program)
    return ("Program", tuple(_structure(c) for c in x.clauses))


def _fraction_twin(t: LinTerm) -> LinTerm:
    return LinTerm(tuple((v, Fraction(c)) for v, c in t.coeffs), Fraction(t.const))


class TestValueSemantics:
    """The value types are __slots__ classes whose equality and hashing
    ``syntax._Value`` derives from their ``_fields``; ``_structure`` is the
    reference for what they compare."""

    # the slots outside ``_fields``: caches and records, which equality
    # ignores
    UNCOMPARED = {
        LinTerm: set(),
        AtomicProp: {"_hash", "_slope", "_vars"},
        Constraint: {"_sat", "_simplified"},
        Pred: set(),
        Atom: set(),
        Query: {"_den", "_str"},
        Clause: {"text", "_head_query", "_body_query", "_step", "_projections"},
        Program: set(),
    }

    def test_every_slot_is_compared_or_a_documented_cache(self):
        # a slot added later without being listed in _fields fails here
        for cls, uncompared in self.UNCOMPARED.items():
            slots, fields = set(cls.__slots__), set(cls._fields)
            assert fields <= slots, cls
            assert slots - fields == uncompared, cls

    def _values(self, rng: random.Random) -> list:
        """Values from the generators, each next to an equal copy built
        separately, so that equal values are distinct objects."""
        out = []
        for _ in range(25):
            rule = rand_rule(rng)
            twin = Clause(rule.head_pred, rule.head_vars, rule.constraint,
                          rule.body_pred, rule.body_vars, text=f"rule {len(out)}")
            out += [rule, twin, Program((rule,)), Program((twin,)),
                    rule.head_pred, Pred(rule.head_pred.name, rule.head_pred.arity)]
            for q in (rule.head_query, rand_query(rng, rule.head_pred),
                      rand_query(rng, rule.head_pred)):
                filled = Query(q.atom, q.constraint)
                denotation(filled)
                out += [q, filled, q.atom, q.constraint, Constraint(q.constraint.atoms)]
            for a in rule.constraint:
                out += [a, AtomicProp(a.coeffs, a.const, a.rel), a.term,
                        _fraction_twin(a.term)]
            out += [rand_term(rng, rule.variables) for _ in range(3)]
        return out

    def test_equality_matches_structure_and_equal_values_hash_equal(self):
        values = self._values(random.Random(17))
        keys = [_structure(v) for v in values]
        equal_pairs = 0
        for (a, ka), (b, kb) in itertools.combinations(zip(values, keys), 2):
            assert (a == b) == (ka == kb) and (a != b) == (ka != kb), (a, b)
            if ka == kb:
                equal_pairs += 1
                assert hash(a) == hash(b), (a, b)
        # at this seed: 760 values, 3018 equal pairs
        assert equal_pairs >= 2000, equal_pairs

    def test_named_equalities(self):
        rng = random.Random(18)
        for _ in range(20):
            rule = rand_rule(rng)
            # an integer-coefficient term equals its Fraction twin
            for a in rule.constraint:
                twin = _fraction_twin(a.term)
                assert twin == a.term and hash(twin) == hash(a.term)
            # the source text takes no part in a clause's equality
            other = Clause(rule.head_pred, rule.head_vars, rule.constraint,
                           rule.body_pred, rule.body_vars, text="other text")
            assert other.text != rule.text
            assert other == rule and hash(other) == hash(rule)
            # nor does a query's cached denotation
            q = rule.head_query
            filled = Query(q.atom, q.constraint)
            denotation(filled)
            assert filled._den is not None and q._den is None
            assert filled == q and hash(filled) == hash(q) and str(filled) == str(q)

    def test_constructor_checks(self):
        p = Pred("p", 2)
        term = LinTerm.of_var(Var("A"))
        with pytest.raises(ValueError, match="bad canonical relation"):
            AtomicProp(term.coeffs, term.const, ">=")
        with pytest.raises(ValueError, match="applied to 1 arguments"):
            Atom(p, (term,))
        A, B = Var("A"), Var("B")
        for head_vars, body_vars in (((A, A), (B, Var("C"))),
                                     ((A, B), (Var("C"), Var("C"))),
                                     ((A, B), (B, Var("C")))):
            with pytest.raises(ValueError, match="disjoint sequences"):
                Clause(p, head_vars, Constraint(()), p, body_vars)


class TestMutationGate:
    """Every mutant of ``tests/mutants.json`` still applies: its old text
    occurs exactly once in its file, so a refactor that rewrites a mutated
    line fails here, and not only in ``python tests/mutate.py``."""

    def test_no_mutant_is_stale(self):
        mutants = json.loads((mutate.ROOT / "tests" / "mutants.json").read_text(encoding="utf-8"))
        assert mutate._stale(mutants) == []
