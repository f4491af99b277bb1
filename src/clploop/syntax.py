"""Source syntax for binary constraint rules and queries.

A rule has the shape ``head <- constraint <> body`` where head and body are
single atoms over one predicate each and the constraint is a conjunction of
linear (in)equalities over the rationals.  A query is ``atom : constraint``.
This module owns the data types (variables, linear terms, atomic propositions,
constraints, atoms, rules, queries, programs), the parser, normalization of
rules into the internal form (argument tuples that are disjoint sequences of
distinct variables), variable renaming, and printing.

Everything is exact, and immutable by convention: the data types other
than the NamedTuple ``Var`` are ``__slots__`` subclasses of ``_Value`` with
no setters.  Each lists the fields it compares on in ``_fields``, and
``_Value`` derives equality, hashing and repr from that list.  After
construction only their lazy caches and a constraint's satisfiability record
are assigned; they are the slots outside ``_fields``, so none of them takes
part in equality or hashing.  No floating point is used anywhere in the
package.  Terms, query arguments and sampled values are rationals
(``fractions.Fraction``).  An atomic proposition is a primitive integer
vector: it holds its coefficients and constant itself, as Python ``int``s
with gcd 1, so the Fourier-Motzkin kernel combines atoms in integer
arithmetic.

The parser reads the source in one regular-expression pass into tokens that
carry their source offset; a line and column are computed from the offset
only for a ``ParseError``, and a clause's text is sliced by offsets.  Each
comparison is read into one map of coefficients and a constant, which are
``int``s unless the source writes a fraction.  :func:`_linear_atom` is the one
builder that turns such a map into an atom; the parser, :func:`compare` and
``AtomicProp.substitute`` all go through it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

# relations of canonical atomic propositions (term REL 0)
REL_EQ = "="
REL_LE = "<="
REL_LT = "<"


class ParseError(Exception):
    """Raised for syntax errors, arity mismatches, nonlinear terms and
    unsatisfiable rule constraints.  Carries an optional source position."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        self.message = message
        self.line = line
        self.col = col
        where = f"{line}:{col}: " if line is not None else ""
        super().__init__(where + message)


class Var(NamedTuple):
    """A variable.  ``gen`` is the renaming generation; user-written variables
    have generation 0.  A NamedTuple, so ordering (by name, then
    generation), equality and hashing are the tuple's own C methods; the FM
    core sorts and compares variables once per coefficient."""

    name: str
    gen: int = 0

    def __str__(self) -> str:
        return self.name if self.gen == 0 else f"{self.name}#{self.gen}"


_SMALL_FRACTIONS = {i: Fraction(i) for i in range(-8, 9)}
_F0 = _SMALL_FRACTIONS[0]
_F1 = _SMALL_FRACTIONS[1]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        cached = _SMALL_FRACTIONS.get(value)
        return cached if cached is not None else Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class _Value:
    """Base of the value types.  A subclass lists the fields it compares on
    in ``_fields``; equality (same class, then field by field), hashing and
    repr are derived from them through one ``attrgetter`` per class.  The
    other slots are caches and records, which take no part in any of the
    three."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._field_values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._field_values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._field_values(self))

    def __repr__(self) -> str:
        fields = ", ".join(repr(getattr(self, f)) for f in self._fields)
        return f"{self.__class__.__name__}({fields})"


class LinTerm(_Value):
    """A linear term: sum of coefficient*variable pairs plus a constant, the
    arguments of atoms and queries.

    ``coeffs`` is sorted by variable and contains no zero coefficients, so
    structural equality is semantic equality.  The coefficients and constant
    are ``Fraction``s, except in :attr:`AtomicProp.term`, which holds an
    atom's ``int``s; a number equals and hashes as its ``Fraction``, so the
    two compare as one.  A term is data: it is built whole by :meth:`make`
    or by the parser, and combining terms into an atom is
    :func:`_linear_atom`'s job.
    """

    _fields = ("coeffs", "const")
    __slots__ = _fields

    def __init__(self, coeffs: tuple[tuple[Var, Fraction], ...] = (),
                 const: Fraction = _F0):
        self.coeffs = coeffs
        self.const = const

    @staticmethod
    def make(coeffs: Mapping[Var, Fraction], const=0) -> "LinTerm":
        items = tuple(sorted((v, _as_fraction(c)) for v, c in coeffs.items() if c != 0))
        return LinTerm(items, _as_fraction(const))

    @staticmethod
    def of_var(v: Var) -> "LinTerm":
        return LinTerm(((v, _F1),), _F0)

    @staticmethod
    def of_const(value) -> "LinTerm":
        return LinTerm((), _as_fraction(value))

    @property
    def variables(self) -> frozenset[Var]:
        return frozenset(v for v, _ in self.coeffs)

    def is_var(self) -> Optional[Var]:
        """The variable if this term is exactly one variable, else None."""
        if self.const == 0 and len(self.coeffs) == 1 and self.coeffs[0][1] == 1:
            return self.coeffs[0][0]
        return None

    def eval(self, valuation: Mapping[Var, Fraction]) -> Fraction:
        total = self.const
        for v, c in self.coeffs:
            if v not in valuation:
                raise KeyError(v)
            total += c * _as_fraction(valuation[v])
        return total

    def __str__(self) -> str:
        if not self.coeffs:
            return str(self.const)
        parts = []
        for i, (v, c) in enumerate(self.coeffs):
            mag = abs(c)
            body = str(v) if mag == 1 else f"{mag}*{v}"
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        if self.const != 0:
            parts.append((" + " if self.const > 0 else " - ") + str(abs(self.const)))
        return "".join(parts)


class AtomicProp(_Value):
    """A canonical atomic proposition ``sum of c*v + const REL 0`` with REL
    in {=, <=, <}.

    The atom is a primitive integer vector: ``coeffs`` holds (variable,
    ``int``) pairs sorted by variable, none zero, and ``const`` is an
    ``int``; their gcd is 1, and an equality's leading coefficient is
    positive, so the positive multiples of a proposition share one form.
    Rational data becomes an atom only through :func:`_linear_atom`, which
    the parser, :func:`compare` and :meth:`substitute` call (all five source
    relations reduce to this form); :func:`_atom` builds one from an integer
    vector.  The hash is cached, since entailment checks hash atoms into
    sets.
    """

    _fields = ("coeffs", "const", "rel")
    __slots__ = _fields + ("_hash", "_slope", "_vars")

    def __init__(self, coeffs: tuple[tuple[Var, int], ...], const: int, rel: str):
        if rel not in (REL_EQ, REL_LE, REL_LT):
            raise ValueError(f"bad canonical relation {rel!r}")
        self.coeffs = coeffs
        self.const = const
        self.rel = rel
        self._hash = self._slope = self._vars = None

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self._field_values(self))
        return h

    @property
    def term(self) -> LinTerm:
        """The left side ``sum of c*v + const`` as a term of ``int``s."""
        return LinTerm(self.coeffs, self.const)

    def coeff(self, v: Var) -> int:
        """The coefficient of v; 0 when v does not occur."""
        for var, c in self.coeffs:
            if var == v:
                return c
        return 0

    @property
    def variables(self) -> frozenset[Var]:
        vs = self._vars
        if vs is None:
            vs = self._vars = frozenset(v for v, _ in self.coeffs)
        return vs

    def substitute(self, mapping: Mapping[Var, LinTerm]) -> "AtomicProp":
        """The atom with variables replaced by linear terms; variables not
        in the mapping are kept."""
        coeffs = self.coeffs
        if not any(v in mapping for v, _ in coeffs):
            return self
        acc: dict[Var, int | Fraction] = {}
        const = self.const
        for v, c in coeffs:
            t = mapping.get(v)
            if t is None:
                acc[v] = acc.get(v, 0) + c
            else:
                const += t.const * c
                for w, d in t.coeffs:
                    acc[w] = acc.get(w, 0) + d * c
        return _linear_atom(acc, const, self.rel, 1)

    def rename(self, mapping: Mapping[Var, Var]) -> "AtomicProp":
        return _atom(tuple(sorted((mapping.get(v, v), c) for v, c in self.coeffs)),
                     self.const, self.rel)

    def slope(self) -> tuple[tuple, int, int]:
        """(d, s, g) with the coefficient vector equal to s*g*d: g > 0 is
        the gcd of the coefficients and s = +1 or -1 the sign of the leading
        one, so d is led by a positive coefficient.  d is a flat key of
        variable names, generations and coefficients; two atoms share d
        exactly when their coefficient vectors are proportional.  Cached;
        not defined for ground atoms."""
        slope = self._slope
        if slope is None:
            coeffs = self.coeffs
            g = math.gcd(*(c for _, c in coeffs))
            sg = g if coeffs[0][1] > 0 else -g
            d: list = []
            for v, c in coeffs:
                d += (v.name, v.gen, c // sg)
            slope = self._slope = (tuple(d), 1 if sg > 0 else -1, g)
        return slope

    def ground_truth(self) -> bool:
        """Truth value of a ground proposition."""
        k = self.const
        if self.rel == REL_EQ:
            return k == 0
        if self.rel == REL_LE:
            return k <= 0
        return k < 0

    def eval(self, valuation: Mapping[Var, Fraction]) -> bool:
        value = self.term.eval(valuation)
        if self.rel == REL_EQ:
            return value == 0
        if self.rel == REL_LE:
            return value <= 0
        return value < 0

    def __str__(self) -> str:
        coeffs, const, rel = self.coeffs, self.const, self.rel
        if not coeffs:
            return f"{const} {rel} 0"
        # flip for readability when the leading coefficient is negative
        if coeffs[0][1] < 0:
            coeffs, const = tuple((v, -c) for v, c in coeffs), -const
            rel = {REL_EQ: "=", REL_LE: ">=", REL_LT: ">"}[rel]
        return f"{LinTerm(coeffs)} {rel} {-const}"


def _linear_atom(acc: Mapping[Var, int | Fraction], const: int | Fraction,
                 rel: str, sign: int) -> AtomicProp:
    """The atom ``sign * (sum of c*v + const) REL 0`` of rational
    coefficients and constant, with sign +1 or -1: the one place rational
    data becomes an atom.  Scales by the lcm of the denominators, then
    :func:`_atom` divides by the gcd; ``int`` data needs no scaling."""
    if const.__class__ is int:
        coeffs = []
        for v, c in acc.items():
            if c.__class__ is not int:
                break
            if c:
                coeffs.append((v, sign * c))
        else:
            coeffs.sort()
            return _atom(tuple(coeffs), sign * const, rel)
    coeffs = sorted((v, c) for v, c in acc.items() if c)
    scale = sign * math.lcm(const.denominator, *(c.denominator for _, c in coeffs))
    return _atom(tuple((v, c.numerator * (scale // c.denominator)) for v, c in coeffs),
                 const.numerator * (scale // const.denominator), rel)


def _atom(coeffs: tuple[tuple[Var, int], ...], const: int, rel: str) -> AtomicProp:
    """The atom ``sum of c*v + const REL 0`` of integer coefficients (sorted
    by variable, none zero) and an integer constant, divided by the gcd of
    its entries and negated when it is an equality led by a negative
    coefficient."""
    g = math.gcd(const, *(c for _, c in coeffs))
    if rel == REL_EQ and coeffs and coeffs[0][1] < 0:
        g = -g
    if g != 1 and g != 0:
        coeffs = tuple((v, c // g) for v, c in coeffs)
        const //= g
    return AtomicProp(coeffs, const, rel)


# source relation -> (canonical relation, sign of lhs - rhs in the atom)
_RELATIONS = {
    "=": (REL_EQ, 1),
    "<=": (REL_LE, 1),
    "<": (REL_LT, 1),
    ">=": (REL_LE, -1),
    ">": (REL_LT, -1),
}


def compare(lhs: LinTerm, op: str, rhs: LinTerm) -> AtomicProp:
    """Build a canonical atomic proposition from ``lhs op rhs`` where op is one
    of =, <=, <, >=, >: ``lhs - rhs`` is added into one map and given to
    :func:`_linear_atom`."""
    if op not in _RELATIONS:
        raise ValueError(f"unknown relation {op!r}")
    rel, sign = _RELATIONS[op]
    acc = dict(lhs.coeffs)
    for v, c in rhs.coeffs:
        acc[v] = acc.get(v, 0) - c
    return _linear_atom(acc, lhs.const - rhs.const, rel, sign)


def var_eq(v: Var, term: LinTerm) -> AtomicProp:
    return compare(LinTerm.of_var(v), "=", term)


class Constraint(_Value):
    """A finite conjunction of atomic propositions.  The empty conjunction is
    the constraint ``true``.

    ``_sat`` records a satisfiability verdict: None until
    ``linarith.satisfiable`` writes the one it proved.  ``linarith.project``
    carries it; :meth:`rename` and :meth:`conjoin` do not.  Two builders set
    it on what they make: ``filters.denotation`` on a projection renamed
    one-to-one, and ``neutral.neutrality_head_formula`` on a conjunction of
    two satisfiable parts over disjoint variables.  ``linarith.decide``
    reads it (see there).

    ``_simplified`` records that simplification (``linarith._simplify_conj``,
    a merge into an elimination store with nothing to eliminate) leaves the
    atoms as they are, so that an elimination takes them without that merge.
    ``linarith.project`` sets it on its result, and every elimination
    (``project``, ``satisfiable`` and the left side of ``decide``) on an
    input the merge left unchanged; the same two builders set it, on a
    one-to-one renaming of a recorded projection and on a conjunction of
    two recorded parts over disjoint variables, whose slopes differ.
    :meth:`rename` and :meth:`conjoin` do not carry it."""

    _fields = ("atoms",)
    __slots__ = _fields + ("_sat", "_simplified")

    def __init__(self, atoms: tuple[AtomicProp, ...] = ()):
        self.atoms = atoms
        self._sat = None
        self._simplified = False

    @staticmethod
    def of(*atoms: AtomicProp) -> "Constraint":
        return Constraint(tuple(atoms))

    @property
    def variables(self) -> frozenset[Var]:
        out: set[Var] = set()
        for a in self.atoms:
            out |= a.variables
        return frozenset(out)

    def conjoin(self, other: "Constraint") -> "Constraint":
        return Constraint(self.atoms + other.atoms)

    def rename(self, mapping: Mapping[Var, Var]) -> "Constraint":
        return Constraint(tuple(a.rename(mapping) for a in self.atoms))

    def __iter__(self) -> Iterator[AtomicProp]:
        return iter(self.atoms)

    def __str__(self) -> str:
        if not self.atoms:
            return "true"
        return ", ".join(str(a) for a in self.atoms)


TRUE_CONSTRAINT = Constraint(())


class Pred(_Value):
    """A predicate symbol: name plus arity.  Projected predicates (see the
    filters module) carry their position set in the name, e.g. ``p|{2}``."""

    _fields = ("name", "arity")
    __slots__ = _fields

    def __init__(self, name: str, arity: int):
        self.name = name
        self.arity = arity

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


class Atom(_Value):
    _fields = ("pred", "args")
    __slots__ = _fields

    def __init__(self, pred: Pred, args: tuple[LinTerm, ...]):
        if len(args) != pred.arity:
            raise ValueError(f"{pred} applied to {len(args)} arguments")
        self.pred = pred
        self.args = args

    @property
    def variables(self) -> frozenset[Var]:
        out: set[Var] = set()
        for t in self.args:
            out |= t.variables
        return frozenset(out)

    def __str__(self) -> str:
        if not self.args:
            return self.pred.name
        return f"{self.pred.name}({', '.join(str(t) for t in self.args)})"


def atom_of_vars(pred: Pred, variables: Iterable[Var]) -> Atom:
    return Atom(pred, tuple(LinTerm.of_var(v) for v in variables))


class Query(_Value):
    """An atomic query: an atom together with a constraint.  The query denotes
    the set of ground instances of the atom under solutions of the constraint;
    constraint variables that do not occur in the atom are understood
    existentially."""

    # _den: filters.denotation as (limit, constraint); _str: the text; both
    # filled lazily
    _fields = ("atom", "constraint")
    __slots__ = _fields + ("_den", "_str")

    def __init__(self, atom: Atom, constraint: Constraint):
        self.atom = atom
        self.constraint = constraint
        self._den = None
        self._str = None

    @property
    def pred(self) -> Pred:
        return self.atom.pred

    @property
    def variables(self) -> frozenset[Var]:
        return self.atom.variables | self.constraint.variables

    def __str__(self) -> str:
        text = self._str
        if text is None:
            text = self._str = f"<{self.atom} | {self.constraint}>"
        return text


class Clause(_Value):
    """A normalized binary rule ``p(X1..Xn) <- c <> q(Y1..Ym)``: the argument
    tuples are disjoint sequences of distinct variables and c is satisfiable
    (checked when rules are built through the parser or normalize_clause).
    ``text`` is the rule's source text and takes no part in equality or
    repr."""

    # lazily filled caches: _head_query and _body_query, the rule's head and
    # body queries, built once so that each keeps its cached denotation;
    # _step, the engine's compiled derivation step; _projections, the rule
    # constraint's projections onto the head positions a and body positions
    # b (b None for a candidate condition), as {(a, b): (limit, constraint)},
    # filled by neutral.projection
    _fields = ("head_pred", "head_vars", "constraint", "body_pred", "body_vars")
    __slots__ = _fields + ("text", "_head_query", "_body_query", "_step",
                           "_projections")

    def __init__(self, head_pred: Pred, head_vars: tuple[Var, ...],
                 constraint: Constraint, body_pred: Pred,
                 body_vars: tuple[Var, ...], text: str = ""):
        if len(set(head_vars + body_vars)) != len(head_vars) + len(body_vars):
            raise ValueError("rule arguments must be disjoint sequences of distinct variables")
        self.head_pred = head_pred
        self.head_vars = head_vars
        self.constraint = constraint
        self.body_pred = body_pred
        self.body_vars = body_vars
        self.text = text
        self._head_query = self._body_query = None
        self._step = self._projections = None

    @property
    def head_atom(self) -> Atom:
        return atom_of_vars(self.head_pred, self.head_vars)

    @property
    def body_atom(self) -> Atom:
        return atom_of_vars(self.body_pred, self.body_vars)

    @property
    def head_query(self) -> Query:
        q = self._head_query
        if q is None:
            q = self._head_query = Query(self.head_atom, self.constraint)
        return q

    @property
    def body_query(self) -> Query:
        q = self._body_query
        if q is None:
            q = self._body_query = Query(self.body_atom, self.constraint)
        return q

    @property
    def variables(self) -> frozenset[Var]:
        return frozenset(self.head_vars) | frozenset(self.body_vars) | self.constraint.variables

    def is_recursive(self) -> bool:
        return self.head_pred == self.body_pred

    def __str__(self) -> str:
        """Grammar-conforming text for the rule; parsing it rebuilds the
        rule structurally."""
        return f"{self.head_atom} <- {self.constraint} <> {self.body_atom}."


class Program(_Value):
    _fields = ("clauses",)
    __slots__ = _fields

    def __init__(self, clauses: tuple[Clause, ...]):
        self.clauses = clauses

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.clauses)


# ---------------------------------------------------------------------------
# renaming generations

def max_gen(q: Query) -> int:
    """Largest renaming generation of a variable of q (0 if none)."""
    return max((v.gen for v in q.variables), default=0)


# ---------------------------------------------------------------------------
# tokenizer

# Blanks and comments match no named group and are dropped.  The last
# group matches any other character, so that finditer skips none.
_TOKEN_RE = re.compile(
    r"""
    \s+ | \#[^\n]*
  | (?P<rat>[0-9]+(?:/[0-9]+)?)
  | (?P<var>[A-Z][A-Za-z0-9_]*)
  | (?P<pred>[a-z][A-Za-z0-9_]*)
  | (?P<op><-|<>|<=|>=|[<>=+\-*/(),.:])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

# "<-", "<>", "<=" and bare "<" are disambiguated by alternation order.

_Token = tuple  # (kind, text, offset into the source)

# Parentheses nest at most this deep.  Each level costs three parser frames,
# so far deeper input would exhaust the interpreter's recursion limit.
_MAX_NESTING = 100

def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of an offset into the source."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}",
                             *_position(text, m.start()))
        append((kind, m.group(), m.start()))
    append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list.  A linear expression is read
    into a ``{Var: coefficient}`` accumulator and a returned constant, each
    term added under a sign of +1 or -1; coefficients are ``int``s except
    for ``a/b`` literals and division by a constant, which give
    ``Fraction``s."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.preds: dict[str, Pred] = {}  # one Pred per name

    def error(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.tokens[self.pos]
        raise ParseError(message, *_position(self.text, tok[2]))

    def expect(self, text: str) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok[1] != text:
            shown = tok[1] or "end of input"
            self.error(f"expected {text!r}, found {shown!r}", tok)
        return tok

    # rational := [0-9]+ ("/" [0-9]+)?
    def rational(self, tok: _Token) -> int | Fraction:
        """The value of a literal token already taken."""
        text = tok[1]
        try:
            if "/" in text:
                num, den = text.split("/")
                if int(den) == 0:
                    self.error("zero denominator in rational literal", tok)
                return Fraction(int(num), int(den))
            return int(text)
        except ValueError:  # longer than the interpreter's int-string limit
            digits = max(map(len, text.split("/")))
            self.error(f"integer literal too long ({digits} digits)", tok)

    # term := "-"* unsigned
    def term(self, acc: dict, sign: int):
        tokens, pos = self.tokens, self.pos
        while tokens[pos][1] == "-":
            pos += 1
            sign = -sign
        self.pos = pos
        return self.unsigned(acc, sign)

    # unsigned := rational | var | rational "*" var | var "*" rational
    #           | var "/" rational | "(" linexpr ")"
    def unsigned(self, acc: dict, sign: int):
        tokens, pos = self.tokens, self.pos
        tok = tokens[pos]
        self.pos = pos + 1
        if tok[1] == "(":
            if self.depth == _MAX_NESTING:
                self.error(f"parentheses nested deeper than {_MAX_NESTING}", tok)
            self.depth += 1
            const = self.linexpr(acc, sign)
            self.depth -= 1
            self.expect(")")
            return const
        if tok[0] == "rat":
            coeff = self.rational(tok)
            after = tokens[pos + 1][1]
            if after == "/":
                self.error("division must be variable / constant")
            if after != "*":
                return sign * coeff
            vtok = tokens[pos + 2]
            self.pos = pos + 3
            if vtok[0] != "var":
                if vtok[0] == "rat":
                    self.error("nonlinear term: products must be constant * variable", vtok)
                self.error("expected a variable after '*'", vtok)
            v = Var(vtok[1])
        elif tok[0] == "var":
            v = Var(tok[1])
            coeff = 1
            after = tokens[pos + 1][1]
            if after == "*":
                star, ntok = tokens[pos + 1], tokens[pos + 2]
                self.pos = pos + 3
                if ntok[0] == "var":
                    self.error("nonlinear term: variable * variable", star)
                if ntok[0] != "rat":
                    self.error("expected a constant after '*'", ntok)
                coeff = self.rational(ntok)
            elif after == "/":
                dtok = tokens[pos + 2]
                self.pos = pos + 3
                if dtok[0] == "var":
                    self.error("nonlinear term: division by a variable", dtok)
                if dtok[0] != "rat":
                    self.error("expected a constant divisor", dtok)
                den = self.rational(dtok)
                if den == 0:
                    self.error("division by zero", dtok)
                coeff = _F1 / den
        else:
            self.error("expected a term", tok)
        acc[v] = acc.get(v, 0) + sign * coeff
        return 0

    # linexpr := term (("+" | "-") term)*
    def linexpr(self, acc: dict, sign: int):
        """Add ``sign`` times the expression's variable part to ``acc`` and
        return ``sign`` times its constant."""
        const = self.term(acc, sign)
        tokens = self.tokens
        while True:
            op = tokens[self.pos][1]
            if op == "+":
                self.pos += 1
                const += self.term(acc, sign)
            elif op == "-":
                self.pos += 1
                const += self.term(acc, -sign)
            else:
                return const

    # constr := linexpr rel linexpr
    def constr(self) -> AtomicProp:
        acc: dict[Var, int | Fraction] = {}
        const = self.linexpr(acc, 1)
        tok = self.tokens[self.pos]
        self.pos += 1
        relation = _RELATIONS.get(tok[1])
        if relation is None:
            self.error("expected a relation (=, <=, <, >=, >)", tok)
        const += self.linexpr(acc, -1)
        return _linear_atom(acc, const, *relation)

    # constrs := "true" | constr ("," constr)*
    def constrs(self) -> Constraint:
        tokens = self.tokens
        if tokens[self.pos][1] == "true":
            self.pos += 1
            return TRUE_CONSTRAINT
        atoms = [self.constr()]
        while tokens[self.pos][1] == ",":
            self.pos += 1
            atoms.append(self.constr())
        return Constraint(tuple(atoms))

    def argument(self) -> LinTerm:
        tokens, pos = self.tokens, self.pos
        tok = tokens[pos]
        if tok[0] == "var" and tokens[pos + 1][1] in (",", ")"):
            # a lone variable, as LinTerm.make would build it
            self.pos = pos + 1
            return LinTerm(((Var(tok[1]), _F1),), _F0)
        acc: dict[Var, int | Fraction] = {}
        const = self.linexpr(acc, 1)
        return LinTerm.make(acc, const)

    # atom := pred | pred "(" linexpr ("," linexpr)* ")"
    def atom(self) -> tuple[str, tuple[LinTerm, ...], _Token]:
        tokens = self.tokens
        tok = tokens[self.pos]
        self.pos += 1
        if tok[0] != "pred":
            self.error("expected a predicate name", tok)
        if tok[1] == "true":
            self.error("'true' is reserved", tok)
        args: list[LinTerm] = []
        if tokens[self.pos][1] == "(":
            self.pos += 1
            args.append(self.argument())
            while tokens[self.pos][1] == ",":
                self.pos += 1
                args.append(self.argument())
            self.expect(")")
        return tok[1], tuple(args), tok

    def pred_of(self, name: str, arity: int, tok: _Token) -> Pred:
        pred = self.preds.get(name)
        if pred is None:
            pred = self.preds[name] = Pred(name, arity)
        elif pred.arity != arity:
            self.error(f"arity mismatch: {name} used with {pred.arity} and {arity} arguments",
                       tok)
        return pred

    # clause := atom "<-" constrs "<>" atom "."
    def clause(self) -> Clause:
        start = self.tokens[self.pos][2]
        hname, hargs, htok = self.atom()
        self.expect("<-")
        c = self.constrs()
        self.expect("<>")
        bname, bargs, btok = self.atom()
        end = self.expect(".")[2] + 1
        head = Atom(self.pred_of(hname, len(hargs), htok), hargs)
        body = Atom(self.pred_of(bname, len(bargs), btok), bargs)
        try:
            return normalize_clause(head, c, body, text=_slice_source(self.text, start, end))
        except ParseError as err:  # normalization errors carry no position
            raise ParseError(err.message, *_position(self.text, start)) from None

    # query := atom [":" constrs] ["."]   (bare atom means constraint true)
    def query(self) -> Query:
        name, args, tok = self.atom()
        c = Constraint(())
        if self.tokens[self.pos][1] == ":":
            self.pos += 1
            c = self.constrs()
        if self.tokens[self.pos][1] == ".":
            self.pos += 1
        return Query(Atom(self.pred_of(name, len(args), tok), args), c)


def _slice_source(text: str, start: int, end: int) -> str:
    """The source text between two offsets; the lines of a multi-line span
    are stripped and joined by one space."""
    span = text[start:end]
    if "\n" in span:
        span = " ".join(part.strip() for part in span.split("\n"))
    return span


def parse_program(text: str) -> Program:
    """Parse a program: a sequence of rules.  Raises ParseError with a source
    position for syntax errors, predicate arity mismatches, nonlinear terms and
    rules whose constraint is unsatisfiable."""
    p = _Parser(text)
    clauses: list[Clause] = []
    while p.tokens[p.pos][0] != "eof":
        clauses.append(p.clause())
    return Program(tuple(clauses))


def parse_query(text: str, program: Optional[Program] = None) -> Query:
    """Parse a single query.  If ``program`` is given, the query predicate must
    match a program predicate (same name and arity)."""
    p = _Parser(text)
    if program is not None:
        p.preds.update((pred.name, pred) for cl in program.clauses
                       for pred in (cl.head_pred, cl.body_pred))
    known = set(p.preds)
    q = p.query()
    if p.tokens[p.pos][0] != "eof":
        p.error("trailing input after query")
    if program is not None and q.pred.name not in known:
        # a query's first token is its predicate name
        p.error(f"unknown predicate {q.pred}", p.tokens[0])
    return q


# ---------------------------------------------------------------------------
# normalization

def _fresh_name(base: str, used: set[str]) -> str:
    name = base
    while name in used:
        name += "_"
    used.add(name)
    return name


def normalize_clause(head: Atom, constraint: Constraint, body: Atom, text: str = "") -> Clause:
    """Bring a rule into the internal form: argument positions hold distinct,
    head/body-disjoint variables.  A non-variable argument, or a variable that
    occurs in more than one argument position, is replaced by a fresh variable
    X<i> (head) or Y<i> (body) with the equation ``fresh = argument`` added in
    front of the constraint.  Idempotent up to renaming; raises ParseError if
    the resulting constraint is unsatisfiable.  A rule already in the
    internal form is returned over the given constraint, with no new
    equations."""
    args = head.args + body.args
    n = len(head.args)
    # the variable each argument is (None for a constant or a compound term)
    arg_vars = [t.is_var() for t in args]
    if None not in arg_vars and len(set(arg_vars)) == len(arg_vars):
        chosen = arg_vars
    else:
        # how many arguments each variable is, and every variable name in use
        occurrences: dict[Var, int] = {}
        for v in arg_vars:
            if v is not None:
                occurrences[v] = occurrences.get(v, 0) + 1
        used_names = {v.name for a in constraint.atoms for v, _ in a.coeffs}
        used_names.update(w.name for t in args for w, _ in t.coeffs)
        chosen = []
        equations: list[AtomicProp] = []
        for i, (t, v) in enumerate(zip(args, arg_vars)):
            if v is None or occurrences[v] > 1:
                base = f"X{i + 1}" if i < n else f"Y{i - n + 1}"
                v = Var(_fresh_name(base, used_names))
                equations.append(var_eq(v, t))
            chosen.append(v)
        constraint = Constraint(tuple(equations) + constraint.atoms)

    if not linarith.satisfiable(constraint):
        raise ParseError(f"unsatisfiable rule constraint: {constraint}")
    return Clause(head.pred, tuple(chosen[:n]), constraint, body.pred,
                  tuple(chosen[n:]), text=text)


# linarith imports this module's types, so it is imported once they exist
from . import linarith  # noqa: E402
