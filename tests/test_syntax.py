"""Terms, atomic propositions, rule parsing and normalization."""

import hashlib
import random
from fractions import Fraction

import pytest
from fuzzers import atom, benchmark_text, is_true, local_vars, max_gen, rename_apart

from clploop import syntax
from clploop.syntax import (
    Atom,
    Constraint,
    LinTerm,
    ParseError,
    Pred,
    Query,
    Var,
    atom_of_vars,
    compare,
    normalize_clause,
    parse_program,
    parse_query,
    var_eq,
)

A, B, C = Var("A"), Var("B"), Var("C")
ta, tb = LinTerm.of_var(A), LinTerm.of_var(B)


class TestVar:
    def test_order_by_name_then_generation(self):
        vs = [Var("Y"), Var("X", 10), Var("X"), Var("X", 2), Var("W", 3)]
        assert sorted(vs) == [Var("W", 3), Var("X"), Var("X", 2), Var("X", 10), Var("Y")]
        assert Var("X", 9) < Var("Y") and not Var("Y") < Var("X", 9)
        assert max(vs) == Var("Y") and min(vs) == Var("W", 3)

    def test_str(self):
        assert str(Var("X")) == "X"
        assert str(Var("X", 0)) == "X"
        assert str(Var("X", 3)) == "X#3"
        assert f"{Var('Y1', 12)}" == "Y1#12"

    def test_fields_and_default_generation(self):
        v = Var("X", 3)
        assert (v.name, v.gen) == ("X", 3)
        assert Var("X").gen == 0 and Var("X") == Var("X", 0)

    def test_equality_and_hash_across_instances(self):
        assert Var("X", 3) == Var("X", 3)
        assert hash(Var("X", 3)) == hash(Var("X", 3))
        assert Var("X", 3) != Var("X", 4) and Var("X") != Var("Y")
        assert len({Var("X", 3), Var("X", 3), Var("X"), Var("Y", 3)}) == 3
        assert {Var("X", 3): 1}[Var("X", 3)] == 1

    def test_printed_orders(self):
        t = LinTerm.make({Var("Y"): 1, Var("X", 2): 2, Var("X"): -1, Var("X", 10): 1}, 1)
        assert str(t) == "-X + 2*X#2 + X#10 + Y + 1"
        assert str(compare(t, "<=", LinTerm.of_const(0))) == "X - 2*X#2 - X#10 - Y >= 1"

    def test_max_gen_over_objects_holding_vars(self):
        assert max_gen(Var("X", 4)) == 4
        assert max_gen(Var("X", 4), Var("Y", 6)) == 6
        assert max_gen((Var("X", 2), Var("Y", 5))) == 5
        assert max_gen(frozenset({Var("X", 7)}), [Var("Y")]) == 7
        assert max_gen(LinTerm.make({Var("X", 3): 1})) == 3
        assert max_gen(parse_query("p(A) : A >= B"), [(Var("C", 8),)]) == 8
        assert max_gen() == 0 and max_gen(()) == 0


class TestLinTerm:
    def test_algebra(self):
        t = LinTerm.make({A: 2, B: -1, C: 0}, 3)
        assert t.coeffs == ((A, 2), (B, -1))
        assert t.const == 3
        assert t.variables == {A, B}
        # an atom holds the term's integer vector and reads coefficients off it
        a = compare(t, "<=", LinTerm.of_const(0))
        assert (a.coeff(A), a.coeff(B), a.coeff(C), a.const) == (2, -1, 0, 3)
        assert a.term == t
        neg = compare(t, ">=", LinTerm.of_const(0))
        assert (neg.coeff(A), neg.coeff(B), neg.const) == (-2, 1, -3)

    def test_zero_coefficients_vanish(self):
        assert LinTerm.make({A: 0}) == LinTerm.of_const(0)
        assert LinTerm.make({A: Fraction(0)}, 1).variables == frozenset()

    def test_is_var(self):
        assert ta.is_var() == A
        assert LinTerm.make({A: 1}, 1).is_var() is None
        assert LinTerm.make({A: 2}).is_var() is None

    def test_eval(self):
        t = LinTerm.make({A: 2, B: -1}, 1)
        assert t.eval({A: Fraction(3), B: Fraction(5)}) == 2
        with pytest.raises(KeyError):
            t.eval({A: Fraction(3)})

    def test_str(self):
        assert str(LinTerm.make({A: 1, B: -1})) == "A - B"
        assert str(LinTerm.make({A: 2}, -3)) == "2*A - 3"
        assert str(LinTerm.of_const(Fraction(-1, 2))) == "-1/2"
        assert str(LinTerm.make({A: -1, B: 1})) == "-A + B"

    def test_inexact_number_rejected(self):
        # terms hold exact rationals only; a float is a caller's error
        with pytest.raises(TypeError, match="expected an exact rational, got float"):
            LinTerm.of_const(1.5)
        with pytest.raises(TypeError, match="got float"):
            LinTerm.make({A: 0.5})


class TestAtomicProp:
    def test_canonical_forms(self):
        # both spellings of the same comparison collapse to one atom
        assert compare(ta, ">=", tb) == compare(tb, "<=", ta)
        assert compare(ta, ">", tb) == compare(tb, "<", ta)
        assert compare(LinTerm.make({A: 2}), "<=", LinTerm.make({B: 2})) == \
            compare(ta, "<=", tb)
        assert compare(ta, "=", tb) == compare(tb, "=", ta)

    def test_str(self):
        assert str(compare(ta, ">=", tb)) == "A - B >= 0"
        assert str(compare(ta, "=", LinTerm.of_const(2))) == "A = 2"
        assert str(compare(ta, ">", LinTerm.of_const(0))) == "A > 0"
        half = LinTerm.of_const(Fraction(1, 2))
        assert str(compare(ta, "<=", half)) == "2*A <= 1"

    def test_eval(self):
        p = atom("A <= B + 2")
        assert p.eval({A: Fraction(0), B: Fraction(-2)})
        assert not p.eval({A: Fraction(1), B: Fraction(-2)})
        q = compare(ta, "<", ta)
        assert not q.eval({A: Fraction(7)})

    def test_substitute(self):
        a = atom("C = 2*A + B")
        s = a.substitute({A: LinTerm.make({B: 1}, 1)})
        assert s == atom("C = 3*B + 2")
        assert a.substitute({}) is a
        assert atom("A <= 1/2").substitute({A: LinTerm.of_const(Fraction(1, 3))}) == \
            atom("0 <= 1")

    def test_ground(self):
        p = compare(LinTerm.of_const(1), "<=", LinTerm.of_const(2))
        assert p.ground_truth()

    def test_var_eq(self):
        assert var_eq(A, LinTerm.of_const(0)) == compare(ta, "=", LinTerm.of_const(0))

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError, match="unknown relation '=='"):
            compare(ta, "==", tb)

    def test_repr_lists_the_compared_fields(self):
        assert repr(Pred("p", 2)) == "Pred('p', 2)"
        assert repr(Constraint(())) == "Constraint(())"


class TestConstraint:
    def test_str(self):
        assert str(Constraint(())) == "true"
        c = Constraint.of(compare(ta, ">=", LinTerm.of_const(1)), compare(tb, "=", ta))
        assert str(c) == "A >= 1, A - B = 0"

    def test_conjoin_and_is_true(self):
        c = Constraint.of(compare(ta, "<=", tb))
        assert is_true(Constraint(()))
        assert not is_true(c)
        assert Constraint(()).conjoin(c) == c
        assert len(tuple(c.conjoin(c))) == 2


class TestParsing:
    def test_clause_shape(self):
        prog = parse_program("p(A) <- A >= 1, A = B + 1 <> p(B).\n")
        (cl,) = prog.clauses
        assert cl.head_pred == Pred("p", 1)
        assert cl.head_vars == (A,)
        assert cl.body_vars == (B,)
        assert cl.is_recursive()
        assert str(cl.head_query) == "<p(A) | A >= 1, A - B = 1>"
        assert str(cl.body_query) == "<p(B) | A >= 1, A - B = 1>"

    def test_local_vars(self):
        prog = parse_program("p(A) <- A >= L, L >= 0 <> p(B).")
        (cl,) = prog.clauses
        assert local_vars(cl) == {Var("L")}

    def test_zero_arity(self):
        prog = parse_program("loop <- true <> loop.")
        (cl,) = prog.clauses
        assert cl.head_pred.arity == 0
        assert str(cl.head_query) == "<loop | true>"

    def test_rationals_and_comments(self):
        prog = parse_program(
            "# halving\n"
            "p(A) <- A >= 1, B = A / 2 <> p(B).  # tail comment\n"
        )
        (cl,) = prog.clauses
        atoms = tuple(cl.constraint)
        assert any(a == compare(tb, "=", LinTerm.make({A: Fraction(1, 2)})) for a in atoms)

    def test_rational_literal(self):
        prog = parse_program("p(A) <- A >= 2/3 <> p(B).")
        (cl,) = prog.clauses
        assert tuple(cl.constraint)[0] == compare(ta, ">=", LinTerm.of_const(Fraction(2, 3)))

    def test_normalization_constant_argument(self):
        prog = parse_program("p(0) <- true <> p(B).")
        (cl,) = prog.clauses
        assert cl.head_vars == (Var("X1"),)
        assert var_eq(Var("X1"), LinTerm.of_const(0)) in tuple(cl.constraint)
        assert cl.body_vars == (B,)

    def test_normalization_repeated_variable(self):
        prog = parse_program("p(A, A) <- true <> p(A, B).")
        (cl,) = prog.clauses
        assert cl.head_vars == (Var("X1"), Var("X2"))
        assert cl.body_vars == (Var("Y1"), B)
        atoms = set(cl.constraint)
        assert var_eq(Var("X1"), ta) in atoms
        assert var_eq(Var("X2"), ta) in atoms
        assert var_eq(Var("Y1"), ta) in atoms

    def test_unsatisfiable_rule_rejected(self):
        with pytest.raises(ParseError, match="unsatisfiable rule constraint"):
            parse_program("p(A) <- A >= 1, A <= 0 <> p(B).")

    def test_nonlinear_rejected(self):
        with pytest.raises(ParseError, match="nonlinear term: variable \\* variable"):
            parse_program("p(A) <- A * A >= 1 <> p(B).")
        with pytest.raises(ParseError, match="division"):
            parse_program("p(A) <- B = 1 / A <> p(B).")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_program("p(A) <- A >= 1/0 <> p(B).")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="arity mismatch"):
            parse_program("p(A) <- true <> p(A, B).")

    def test_clause_text_is_its_source_span(self):
        # a clause on one line keeps its text as written; the lines of a
        # multi-line clause are stripped and joined by one space
        prog = parse_program(
            "p(A) <-\n   A >= 1,\n  A = B + 1   # c\n <> p(B).  q(X) <- X = Y <>\n"
            "q(Y).\n\n  r(X,\tY) <- X >= Y,   Y = Z <> r(Z, W).")
        assert [c.text for c in prog.clauses] == [
            "p(A) <- A >= 1, A = B + 1   # c <> p(B).",
            "q(X) <- X = Y <> q(Y).",
            "r(X,\tY) <- X >= Y,   Y = Z <> r(Z, W).",
        ]

    def test_true_reserved(self):
        with pytest.raises(ParseError, match="'true' is reserved"):
            parse_program("true <- true <> true.")

    def test_long_minus_chain_parses_iteratively(self):
        prog = parse_program("p(A) <- A = " + "-" * 5000 + "B <> p(B).")
        assert str(prog.clauses[0].constraint) == "A - B = 0"
        prog = parse_program("p(A) <- A = " + "-" * 5001 + "B <> p(B).")
        assert str(prog.clauses[0].constraint) == "A + B = 0"

    def test_paren_nesting_bounded(self):
        nested = "(" * 100 + "B" + ")" * 100
        prog = parse_program(f"p(A) <- A = {nested} <> p(B).")
        assert str(prog.clauses[0].constraint) == "A - B = 0"
        deep = "(" * 500 + "B" + ")" * 500
        with pytest.raises(ParseError, match="nested deeper than 100") as exc:
            parse_program(f"p(A) <- A = {deep} <> p(B).")
        # the position is that of the first parenthesis past the bound
        assert (exc.value.line, exc.value.col) == (1, 13 + 100)

    def test_error_position(self):
        try:
            parse_program("p(A) <- A * A >= 1 <> p(B).")
        except ParseError as e:
            assert "1:" in str(e)
        else:
            pytest.fail("expected ParseError")


_ONE_RULE = "p(A) <- true <> p(B)."

# One input per raise site of the tokenizer, the parser, rule normalization
# and parse_query: (parser, source, message, line, column).  "program" runs
# parse_program, "query" parse_query, "query in p/1" parse_query against
# _ONE_RULE.  Columns count characters, a tab or a carriage return as one.
_PARSE_ERRORS = [
    ("program", "p(A) <- A >= 1 <> p(B). @",
     "unexpected character '@'", 1, 25),
    ("program", "p(A) <- A >= 1 <> p(B).\r\nq(A) <- A >= 1 ;\r\n",
     "unexpected character ';'", 2, 16),
    ("program", "# one\n# two\n#three\n$p(A) <- true <> p(B).",
     "unexpected character '$'", 4, 1),
    ("program", "p(A) <-\tA\t>= 1 <> p(B)\n# tail comment",
     "expected '.', found 'end of input'", 2, 15),
    ("program", "p(A) <- A >= 1 <> p(B)#x",
     "expected '.', found 'end of input'", 1, 25),
    ("program", "\tp(A) <- A\t>= 1 <> p(B) q",
     "expected '.', found 'q'", 1, 25),
    ("program", "p(A <- A >= 1 <> p(B).",
     "expected ')', found '<-'", 1, 5),
    ("program", "p(A) <- A >= 1 <> p(B",
     "expected ')', found 'end of input'", 1, 22),
    ("program", "p(A) A >= 1 <> p(B).",
     "expected '<-', found 'A'", 1, 6),
    ("program", "p(A) <- A >= 1 p(B).",
     "expected '<>', found 'p'", 1, 16),
    ("program", "p(A) <- A >= 1/0 <> p(B).",
     "zero denominator in rational literal", 1, 14),
    ("program", "p(A) <- A = " + "(" * 101 + "B" + ")" * 101 + " <> p(B).",
     "parentheses nested deeper than 100", 1, 113),
    ("program", "p(A) <- 2 * 3 >= A <> p(B).",
     "nonlinear term: products must be constant * variable", 1, 13),
    ("program", "p(A) <- 2 * (A) >= 1 <> p(B).",
     "expected a variable after '*'", 1, 13),
    ("program", "p(A) <- B = 1 / A <> p(B).",
     "division must be variable / constant", 1, 15),
    ("program", "p(A) <- A * B >= 1 <> p(B).",
     "nonlinear term: variable * variable", 1, 11),
    ("program", "p(A) <- A * (2) >= 1 <> p(B).",
     "expected a constant after '*'", 1, 13),
    ("program", "p(A) <- A / B >= 1 <> p(B).",
     "nonlinear term: division by a variable", 1, 13),
    ("program", "p(A) <- A / (2) >= 1 <> p(B).",
     "expected a constant divisor", 1, 13),
    ("program", "p(A) <- A / 0 >= 1 <> p(B).",
     "division by zero", 1, 13),
    ("program", "p(A) <- A = <> p(B).",
     "expected a term", 1, 13),
    ("program", "p(A) <- A >= ",
     "expected a term", 1, 14),
    ("program", "p(A) <- A <> p(B).",
     "expected a relation (=, <=, <, >=, >)", 1, 11),
    ("program", "P(A) <- true <> p(B).",
     "expected a predicate name", 1, 1),
    ("program", "p(A) <- true <>\r\n",
     "expected a predicate name", 2, 1),
    ("program", "true <- true <> p(B).",
     "'true' is reserved", 1, 1),
    ("program", "p(A) <- true <> p(A, B).",
     "arity mismatch: p used with 1 and 2 arguments", 1, 17),
    # normalization raises without a position; the clause's start is given
    ("program", _ONE_RULE + "\n  q(A) <- A >= 1,\n A <= 0 <> q(B).",
     "unsatisfiable rule constraint: A >= 1, A <= 0", 2, 3),
    ("query", "p(X). q(Y).",
     "trailing input after query", 1, 7),
    ("query", "p(X) : X >= ",
     "expected a term", 1, 13),
    ("query", "p(X) :\r\n\tX ! 1",
     "unexpected character '!'", 2, 4),
    ("query in p/1", "p(X, Y)",
     "arity mismatch: p used with 1 and 2 arguments", 1, 1),
    ("query in p/1", "q(X)",
     "unknown predicate q/1", 1, 1),
    # appended, so the earlier rows keep their ids
    ("program", "p(A) <- A * (B) >= 0 <> p(C).",
     "expected a constant after '*'", 1, 13),
]


@pytest.mark.parametrize("parser, source, message, line, col", _PARSE_ERRORS,
                         ids=[f"{i}-{row[2]}" for i, row in enumerate(_PARSE_ERRORS)])
def test_parse_error_message_and_position(parser, source, message, line, col):
    with pytest.raises(ParseError) as exc:
        if parser == "program":
            parse_program(source)
        elif parser == "query":
            parse_query(source)
        else:
            parse_query(source, parse_program(_ONE_RULE))
    err = exc.value
    assert (err.message, err.line, err.col) == (message, line, col)
    assert str(err) == (message if line is None else f"{line}:{col}: {message}")


@pytest.mark.parametrize("parser, source, message, line, col", _PARSE_ERRORS,
                         ids=[f"{i}-{row[2]}" for i, row in enumerate(_PARSE_ERRORS)])
def test_a_leading_byte_order_mark_moves_no_error_position(parser, source, message,
                                                           line, col):
    # a text that begins with U+FEFF, as a file with a UTF-8 byte-order
    # mark reads under the "utf-8" codec, reports each error where the text
    # without it does: positions count from the first visible character
    program = parse_program(_ONE_RULE) if parser == "query in p/1" else None
    with pytest.raises(ParseError) as exc:
        if parser == "program":
            parse_program("\ufeff" + source)
        else:
            parse_query("\ufeff" + source, program)
    err = exc.value
    assert (err.message, err.line, err.col) == (message, line, col)


def test_a_leading_byte_order_mark_is_skipped(corpus_path):
    text = corpus_path.read_text(encoding="utf-8")
    plain, marked = parse_program(text), parse_program("\ufeff" + text)
    assert marked == plain
    assert [c.text for c in marked.clauses] == [c.text for c in plain.clauses]
    assert parse_query("\ufeffp(0, B) : B >= 1") == parse_query("p(0, B) : B >= 1")
    # only one mark is skipped
    with pytest.raises(ParseError) as exc:
        parse_program("\ufeff\ufeff" + text)
    assert str(exc.value) == "1:1: unexpected character '\\ufeff'"


@pytest.mark.parametrize("parse, source, where", [
    (parse_program, "p(A) <- A >= 0 \udcff <> p(B).", "1:16: invalid UTF-8 byte 0xff"),
    (parse_program, "\ufeffp(A) <- A >= 0 \udcff <> p(B).",
     "1:16: invalid UTF-8 byte 0xff"),
    (parse_program, "# \udce9\np(A) <- A = B <> p(B).\n", "1:3: invalid UTF-8 byte 0xe9"),
    (parse_query, "p1(\udcff)", "1:4: invalid UTF-8 byte 0xff"),
], ids=["constraint", "after-bom", "comment", "query"])
def test_a_surrogate_escaped_byte_is_a_positioned_error(parse, source, where):
    # text read with errors="surrogateescape" holds a byte that is not UTF-8
    # as a lone surrogate; the first one is the error, also in a comment
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert str(exc.value) == where


def test_normalize_clause_error_has_no_position():
    p = Pred("p", 1)
    c = Constraint.of(compare(ta, "<", ta))
    with pytest.raises(ParseError) as exc:
        normalize_clause(atom_of_vars(p, (A,)), c, atom_of_vars(p, (B,)))
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        "unsatisfiable rule constraint: 0 < 0", None, None)


# The characters a one-character edit writes in place of another.
_EDIT_CHARACTERS = "(),.-*/<>=#A1\n"

# sha256 of the outcomes of 400 seeded one-character edits of each source
# (see _edit_outcomes): a parser change that moves an error position,
# changes a message or builds another clause changes the digest
EDIT_OUTCOME_SHA256 = {
    "demo": "23f9728679fb29b64973eddb3bbef724c0b46a9ec2b3319f5450aa7293210620",
    "chain": "f8d970c7b4b129d8060dba69886abec4b3b9710c41068d151c0779ccc650fd80",
}


def _edit_outcomes(text: str, seed: int):
    """The outcome of parse_program on each of 400 edits of the text, at
    distinct seeded positions: the character deleted, duplicated, or
    replaced by one of _EDIT_CHARACTERS.  An outcome is ("clauses", the
    repr and text of each clause) or ("error", (message, line, column))."""
    rng = random.Random(seed)
    for i in sorted(rng.sample(range(len(text)), 400)):
        edit = rng.randrange(3)
        if edit == 0:
            edited = text[:i] + text[i + 1:]
        elif edit == 1:
            edited = text[:i] + text[i] + text[i:]
        else:
            edited = text[:i] + rng.choice(_EDIT_CHARACTERS) + text[i + 1:]
        try:
            clauses = parse_program(edited).clauses
        except ParseError as err:
            yield "error", (err.message, err.line, err.col)
        else:
            yield "clauses", [(repr(c), c.text) for c in clauses]


@pytest.mark.parametrize("name", sorted(EDIT_OUTCOME_SHA256))
def test_one_character_edits_keep_their_parse_outcomes(name, corpus_path):
    text = corpus_path.read_text(encoding="utf-8") if name == "demo" else benchmark_text(name)
    digest = hashlib.sha256()
    kinds = set()
    for kind, outcome in _edit_outcomes(text, seed=1):
        kinds.add(kind)
        digest.update(repr((kind, outcome)).encode("utf-8") + b"\n")
    assert kinds == {"clauses", "error"}
    assert digest.hexdigest() == EDIT_OUTCOME_SHA256[name]


class TestParseQuery:
    def test_forms(self):
        q = parse_query("p(0, B) : B >= 1.")
        assert str(q) == "<p(0, B) | B >= 1>"
        assert parse_query("p(0, B) : B >= 1") == q
        bare = parse_query("p(A, B)")
        assert is_true(bare.constraint)

    def test_predicate_check(self):
        prog = parse_program("p(A) <- true <> p(B).")
        assert parse_query("p(X) : X >= 0", prog).pred == Pred("p", 1)
        with pytest.raises(ParseError, match="unknown predicate"):
            parse_query("q(X)", prog)
        # a known name at the wrong arity is flagged as an arity clash
        with pytest.raises(ParseError, match="arity mismatch"):
            parse_query("p(X, Y)", prog)

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing input"):
            parse_query("p(X). q(Y).")

    def test_one_pred_object_per_name(self):
        # the parser interns predicates, so equal predicates of one program
        # and of a query parsed against it are one object
        prog = parse_program("p(A) <- A >= 0 <> q(B).\n"
                             "q(A) <- true <> q(B).\n"
                             "r(A, C) <- true <> p(B).")
        by_name = {}
        for cl in prog.clauses:
            for pred in (cl.head_pred, cl.body_pred):
                assert by_name.setdefault(pred.name, pred) is pred
        assert sorted(by_name) == ["p", "q", "r"]
        assert parse_query("q(X) : X <= 1", prog).pred is by_name["q"]
        assert parse_query("r(0, Y)", prog).pred is by_name["r"]


class TestRenaming:
    def test_rename_apart_query(self):
        q = parse_query("p(A) : A >= B")
        r = rename_apart(q, 3)
        assert str(r) == "<p(A#3) | A#3 - B#3 >= 0>"
        assert max_gen(r) == 3
        assert max_gen(q) == 0

    def test_rename_apart_shifts_existing_generations(self):
        q = parse_query("p(A) : A >= B")
        r1 = rename_apart(q, 1)
        r2 = rename_apart(r1, 2)
        # every generation present must be fresh w.r.t. the requested base
        assert min(v.gen for v in r2.variables) >= 2

    def test_max_gen_over_objects(self):
        q = parse_query("p(A)")
        assert max_gen(q, rename_apart(q, 5)) == 5

    def test_query_max_gen(self):
        q = rename_apart(parse_query("p(A) : A >= B"), 3)
        assert syntax.max_gen(q) == max_gen(q) == 3
        assert syntax.max_gen(parse_query("p(0)")) == 0


class TestRoundTrip:
    def test_program_source(self):
        text = "p(A) <- A >= 1, A = B + 1 <> p(B).\nq(A, B) <- A - B <= 0 <> q(B, A).\n"
        prog = parse_program(text)
        again = parse_program(str(prog))
        assert again == prog

    def test_clause_source(self):
        # the second rule's fresh head variable takes a suffix, since X1 is
        # in use; the third writes its coefficient after the variable
        for source, printed in (
                ("p(0) <- true <> p(B).", "p(X1) <- X1 = 0 <> p(B)."),
                ("p(X1 + 1) <- X1 >= 0 <> p(B).",
                 "p(X1_) <- X1 - X1_ = -1, X1 >= 0 <> p(B)."),
                ("p(A) <- A * 2 >= 1 <> p(B).", "p(A) <- 2*A >= 1 <> p(B).")):
            (cl,) = parse_program(source).clauses
            assert str(cl) == printed
            assert parse_program(printed).clauses[0] == cl

    def test_empty_program(self):
        assert parse_program("").clauses == ()
        assert str(parse_program("")) == ""


class TestNormalizeClause:
    def test_direct_use(self):
        p = Pred("p", 1)
        head = Atom(p, (LinTerm.of_const(0),))
        body = atom_of_vars(p, (B,))
        cl = normalize_clause(head, Constraint(()), body)
        assert cl.head_vars == (Var("X1"),)
        assert cl.body_vars == (B,)

    def test_unsatisfiable(self):
        p = Pred("p", 1)
        c = Constraint.of(compare(ta, "<", ta))
        with pytest.raises(ParseError, match="unsatisfiable"):
            normalize_clause(atom_of_vars(p, (A,)), c, atom_of_vars(p, (B,)))

    def test_normal_form_keeps_the_constraint(self):
        # distinct argument variables need no equations: the atoms stay as
        # given, directly and through the parser
        p, q = Pred("p", 2), Pred("q", 1)
        c = Constraint.of(compare(ta, ">=", tb), compare(LinTerm.of_var(C), "<", ta))
        cl = normalize_clause(atom_of_vars(p, (A, B)), c, atom_of_vars(q, (C,)))
        assert (cl.head_vars, cl.body_vars) == ((A, B), (C,))
        assert cl.constraint.atoms == c.atoms
        (parsed,) = parse_program("p(A, B) <- A >= B, C < A <> q(C).").clauses
        assert parsed == cl
        assert str(parsed) == "p(A, B) <- A - B >= 0, A - C > 0 <> q(C)."

    @pytest.mark.parametrize("source, printed", [
        # a repeated variable
        ("p(A, A) <- true <> p(B, C).", "p(X1, X2) <- A - X1 = 0, A - X2 = 0 <> p(B, C)."),
        # a constant
        ("p(0) <- A >= 0 <> p(B).", "p(X1) <- X1 = 0, A >= 0 <> p(B)."),
        # a variable shared by head and body
        ("p(A) <- A >= 0 <> p(A).", "p(X1) <- A - X1 = 0, A - Y1 = 0, A >= 0 <> p(Y1)."),
        # a compound argument
        ("p(A + 1) <- A >= 0 <> p(B).", "p(X1) <- A - X1 = -1, A >= 0 <> p(B)."),
    ])
    def test_other_arguments_get_equations(self, source, printed):
        (cl,) = parse_program(source).clauses
        assert str(cl) == printed

    def test_query_str_uses_angle_brackets(self):
        q = Query(Atom(Pred("p", 2), (ta, LinTerm.of_const(0))), Constraint(()))
        assert str(q) == "<p(A, 0) | true>"
