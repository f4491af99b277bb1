"""Non-termination prover for binary rules over linear rational constraints.

The package exports what a caller needs to analyze a program: the parser
(``parse_program``, ``parse_query``, ``ParseError``), the analyzer entry
point (``analyze_program``, ``AnalyzeOptions``), its report types and
``ResourceLimitError``.  The building blocks stay importable from their
submodules: :mod:`clploop.syntax` (terms and normalization),
:mod:`clploop.linarith` (exact entailment between linear constraints),
:mod:`clploop.filters` (query generality and filters), :mod:`clploop.neutral`
(the neutrality criterion), :mod:`clploop.analyzer` (search and propagation)
and :mod:`clploop.engine` (the derivation engine).

The prover decides three conjunctive entailments, each projected onto a set
of variables: the head condition ``proj(c, O), cond(m) |= proj(c, O u H)``
over the unfiltered head and body variables O and the filtered head
variables H, the body condition ``c |= cond(m)<B>`` over the filtered body
variables B, and query generality ``den(Q) |= den(Q1)`` over probe
variables W, or over those at the unfiltered positions for filter
generality, whose filter half is the body condition.  Here c is a rule
constraint, ``proj(c, V)`` its projection onto V, ``cond(m) = proj(c, H)``
the condition of the candidate filter at head positions m, ``cond(m)<B>``
the same with H renamed to B, and den(Q) the denotation of a query as a
constraint over W, computed once per query.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .analyzer import (
    AnalyzeOptions,
    ClauseReport,
    FilterResult,
    ProgramReport,
    PropagatedLoop,
    SubsetCheck,
    analyze_program,
)
from .linarith import ResourceLimitError
from .syntax import ParseError, parse_program, parse_query

__all__ = [
    "__version__",
    "AnalyzeOptions",
    "ClauseReport",
    "FilterResult",
    "ParseError",
    "ProgramReport",
    "PropagatedLoop",
    "ResourceLimitError",
    "SubsetCheck",
    "analyze_program",
    "parse_program",
    "parse_query",
]
