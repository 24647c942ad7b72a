"""Parser and evaluator for the SPARQL subset used throughout the stack.

Supported: ``PREFIX`` declarations, ``SELECT`` (with ``*`` or an explicit
variable list, DISTINCT semantics always) and ``ASK`` forms, basic graph
patterns, and ``FILTER`` expressions built from comparisons and boolean
connectives. See docs/sparql-grammar.ebnf for the exact grammar.

Filter evaluation treats errors as false: a comparison whose operands cannot
be compared (unbound variable, non-numeric operand of an ordering operator)
evaluates to false for that binding, and a solution is kept only when every
filter evaluates to true.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from decimal import Decimal, InvalidOperation

from .rdf import (
    LANG_TAG,
    STRING_BODY,
    VAR_NAME,
    XSD_NS,
    BindingSet,
    Graph,
    IRI,
    Literal,
    Term,
    TriplePattern,
    Variable,
    string_error,
    term_text,
    unescape,
)

XSD_INTEGER = XSD_NS + "integer"
XSD_DECIMAL = XSD_NS + "decimal"
XSD_BOOLEAN = XSD_NS + "boolean"

_KEYWORDS = {"SELECT", "ASK", "WHERE", "FILTER", "PREFIX", "DISTINCT"}

PARSE_CACHE_SIZE = 256  # query texts whose parse is kept, most recently used


class SparqlSyntaxError(ValueError):
    """Raised on malformed query text; `position` is a 0-based char offset."""

    def __init__(self, position: int, message: str):
        super().__init__(f"at offset {position}: {message}")
        self.position = position
        self.message = message


# --- filter expression AST ---------------------------------------------------

Operand = Union[Variable, IRI, Literal]


@dataclass(frozen=True)
class Comparison:
    op: str  # one of = != < <= > >=
    left: Operand
    right: Operand


@dataclass(frozen=True)
class And:
    parts: tuple["FilterExpr", ...]


@dataclass(frozen=True)
class Or:
    parts: tuple["FilterExpr", ...]


@dataclass(frozen=True)
class Not:
    inner: "FilterExpr"


FilterExpr = Union[Comparison, And, Or, Not]


@dataclass(frozen=True)
class Query:
    form: str  # "SELECT" | "ASK"
    projected: tuple[str, ...] | None  # None means '*'
    patterns: tuple[TriplePattern, ...]
    filters: tuple[FilterExpr, ...]


# --- tokenizer ---------------------------------------------------------------

# One alternative per token kind, tried in this order; SPACE (whitespace or
# a comment) separates tokens. "<" opens an IRIREF only if a ">" closes it
# before any whitespace; otherwise it is a comparison operator.
_TOKEN_RE = re.compile(
    r"(?P<SPACE>\s+|#[^\n]*)"
    r"|<(?P<IRIREF>[^\s>]*)>"
    f'|"(?P<STRING>{STRING_BODY})"'
    # A trailing "." belongs to the pattern separator, not the local name.
    r"|(?P<PNAME>(?:[A-Za-z][A-Za-z0-9_-]*)?:(?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)"
    f"|\\?(?P<VAR>{VAR_NAME})"
    # The dot needs a following digit, so "5." stays NUMBER + separator.
    r"|(?P<NUMBER>[+-]?(?:\d+\.\d+|\.\d+|\d+))"
    r"|(?P<OP>\^\^|&&|\|\||!=|<=|>=|[{}().*=!<>,])"
    f"|@(?P<LANGTAG>{LANG_TAG})"
    r"|(?P<WORD>[A-Za-z_][A-Za-z0-9_]*)"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # IRIREF PNAME VAR STRING NUMBER WORD OP LANGTAG EOF
    value: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos] == '"':
                start, _, message = string_error(text, pos)
                raise SparqlSyntaxError(start, message)
            raise SparqlSyntaxError(pos, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        if kind != "SPACE":
            value = m.group(kind)
            tokens.append(_Token(kind, unescape(value) if kind == "STRING" else value, pos))
        pos = m.end()
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


# --- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.prefixes: dict[str, str] = {}

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        if tok.kind != "EOF":
            self.index += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> SparqlSyntaxError:
        tok = tok or self.peek()
        return SparqlSyntaxError(tok.pos, message)

    def keyword(self) -> str | None:
        tok = self.peek()
        if tok.kind == "WORD" and tok.value.upper() in _KEYWORDS:
            return tok.value.upper()
        return None

    def accept(self, value: str) -> bool:
        """Consume the next token if it is the operator or keyword ``value``."""
        tok = self.peek()
        if (tok.kind == "OP" and tok.value == value) or self.keyword() == value:
            self.index += 1
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept(op):
            raise self.error(f"expected {op!r}")

    def parse(self) -> Query:
        while self.accept("PREFIX"):
            name_tok = self.advance()
            if name_tok.kind != "PNAME" or name_tok.value.split(":", 1)[1]:
                raise self.error("expected a prefix name like 'ex:'", name_tok)
            iri_tok = self.advance()
            if iri_tok.kind != "IRIREF":
                raise self.error("expected an IRI after the prefix name", iri_tok)
            self.prefixes[name_tok.value.split(":", 1)[0]] = iri_tok.value

        form = self.keyword()
        if form not in ("SELECT", "ASK"):
            raise self.error("expected SELECT or ASK")
        self.advance()
        return self.parse_select() if form == "SELECT" else Query("ASK", None, *self.parse_group())

    def parse_select(self) -> Query:
        projected: tuple[str, ...] | None
        self.accept("DISTINCT")  # solutions are distinct either way
        if self.accept("*"):
            projected = None
        else:
            names: list[str] = []
            while self.peek().kind == "VAR":
                names.append(self.advance().value)
            if not names:
                raise self.error("SELECT needs '*' or at least one variable")
            projected = tuple(names)
        self.accept("WHERE")
        patterns, filters = self.parse_group()
        if projected is not None:
            in_bgp = set().union(*(p.variables() for p in patterns))
            for name in projected:
                if name not in in_bgp:
                    raise SparqlSyntaxError(0, f"projected variable ?{name} does not occur in the graph pattern")
        return Query("SELECT", projected, patterns, filters)

    def parse_group(self) -> tuple[tuple[TriplePattern, ...], tuple[FilterExpr, ...]]:
        self.expect_op("{")
        patterns: list[TriplePattern] = []
        filters: list[FilterExpr] = []
        while not self.accept("}"):
            if self.peek().kind == "EOF":
                raise self.error("unterminated group: expected '}'")
            if self.accept("FILTER"):
                filters.append(self.parse_filter())
            else:
                patterns.append(self.parse_pattern())
            self.accept(".")
        if not patterns:
            raise self.error("the graph pattern must contain at least one triple pattern")
        return tuple(patterns), tuple(filters)

    def parse_pattern(self) -> TriplePattern:
        return TriplePattern(self.parse_term(), self.parse_term(), self.parse_term())

    def parse_term(self):
        tok = self.advance()
        if tok.kind == "VAR":
            return Variable(tok.value)
        if tok.kind == "IRIREF":
            return _checked(tok.pos, IRI, tok.value)
        if tok.kind == "PNAME":
            return self.expand_pname(tok)
        if tok.kind == "STRING":
            return self.finish_literal(tok)
        if tok.kind == "NUMBER":
            return _numeric_literal(tok.value)
        if tok.kind == "WORD" and tok.value in ("true", "false"):
            return Literal(tok.value, datatype=XSD_BOOLEAN)
        if tok.kind == "WORD" and tok.value == "_":
            raise self.error("blank nodes are not supported in queries", tok)
        raise self.error(f"expected a term, found {tok.value!r}" if tok.value else "expected a term", tok)

    def expand_pname(self, tok: _Token) -> IRI:
        prefix, local = tok.value.split(":", 1)
        base = self.prefixes.get(prefix)
        if base is None:
            raise SparqlSyntaxError(tok.pos, f"undefined prefix {prefix + ':'!r}")
        return _checked(tok.pos, IRI, base + local)

    def finish_literal(self, tok: _Token) -> Literal:
        if self.accept("^^"):
            dt_tok = self.advance()
            if dt_tok.kind == "IRIREF":
                datatype = dt_tok.value
            elif dt_tok.kind == "PNAME":
                datatype = self.expand_pname(dt_tok).value
            else:
                raise self.error("expected a datatype IRI after '^^'", dt_tok)
            return _checked(tok.pos, Literal, tok.value, datatype)
        if self.peek().kind == "LANGTAG":
            return Literal(tok.value, language=self.advance().value)
        return Literal(tok.value)

    def parse_filter(self) -> FilterExpr:
        self.expect_op("(")
        try:
            expr = self.parse_or()
        except RecursionError:
            raise self.error("filter nested too deep") from None
        self.expect_op(")")
        return expr

    def parse_or(self) -> FilterExpr:
        parts = [self.parse_and()]
        while self.accept("||"):
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self) -> FilterExpr:
        parts = [self.parse_unary()]
        while self.accept("&&"):
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary(self) -> FilterExpr:
        if self.accept("!"):
            return Not(self.parse_unary())
        if self.accept("("):
            inner = self.parse_or()
            self.expect_op(")")
            return inner
        return self.parse_comparison()

    def parse_comparison(self) -> FilterExpr:
        left = self.parse_operand()
        tok = self.peek()
        if tok.kind == "OP" and tok.value in ("=", "!=", "<", "<=", ">", ">="):
            self.advance()
            right = self.parse_operand()
            return Comparison(tok.value, left, right)
        raise self.error("expected a comparison operator", tok)

    def parse_operand(self) -> Operand:
        tok = self.peek()
        term = self.parse_term()
        if not isinstance(term, (Variable, IRI, Literal)):
            raise self.error("filter operands must be variables, IRIs or literals", tok)
        return term


def _checked(pos: int, make, *args):
    """``make(*args)``, its ValueError a syntax error at ``pos``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise SparqlSyntaxError(pos, str(exc)) from exc


def _numeric_literal(text: str) -> Literal:
    datatype = XSD_DECIMAL if "." in text else XSD_INTEGER
    return Literal(text, datatype=datatype)


def _parse_whole(text: str, prefixes: dict[str, str] | None, parse):
    parser = _Parser(text)
    parser.prefixes = dict(prefixes or {})
    result = parse(parser)
    if parser.peek().kind != "EOF":
        raise parser.error("unexpected trailing content")
    return result


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_sparql(text: str) -> Query:
    """Parse query text into a :class:`Query`, expanding PREFIX names.

    Raises :class:`SparqlSyntaxError` with a character offset on malformed
    input; this is the same error object the validation service reports.
    A parse is cached by text (a ``Query`` is frozen, so callers share it);
    an error is not, so malformed text is refused on every call.
    """
    return _parse_whole(text, None, _Parser.parse)


def parse_pattern(text: str, prefixes: dict[str, str] | None = None) -> TriplePattern:
    """Parse a single standalone triple pattern like ``?s <iri> "lit"``."""
    return _parse_whole(text, prefixes, _Parser.parse_pattern)


def parse_filter(text: str, prefixes: dict[str, str] | None = None) -> FilterExpr:
    """Parse a standalone filter, with or without the FILTER keyword."""

    def parse(parser: _Parser) -> FilterExpr:
        parser.accept("FILTER")
        return parser.parse_filter()

    return _parse_whole(text, prefixes, parse)


# --- evaluation --------------------------------------------------------------


def _as_decimal(term: Term) -> Decimal | None:
    if not isinstance(term, Literal):
        return None
    try:
        value = Decimal(term.lexical.strip())
    except InvalidOperation:
        return None
    if not value.is_finite():
        return None
    return value


def _eval_comparison(comp: Comparison, binding: BindingSet) -> bool:
    def resolve(op: Operand) -> Term | None:
        if isinstance(op, Variable):
            return binding.get(op.name)
        return op

    left = resolve(comp.left)
    right = resolve(comp.right)
    if left is None or right is None:
        return False  # unbound operand: error-as-false
    lnum, rnum = _as_decimal(left), _as_decimal(right)
    if comp.op in ("<", "<=", ">", ">="):
        if lnum is None or rnum is None:
            return False  # ordering needs two numbers: error-as-false
        return {"<": lnum < rnum, "<=": lnum <= rnum, ">": lnum > rnum, ">=": lnum >= rnum}[comp.op]
    # = and != compare numerically when both operands are numbers, else by term.
    if lnum is not None and rnum is not None:
        equal = lnum == rnum
    else:
        equal = left == right
    return equal if comp.op == "=" else not equal


def eval_filter(expr: FilterExpr, binding: BindingSet) -> bool:
    """Boolean filter evaluation.

    A comparison that cannot be carried out (unbound operand, or an
    ordering over operands that do not both parse as decimal numbers)
    evaluates to false rather than raising, so ``!`` of such a comparison
    is true.
    """
    if isinstance(expr, Comparison):
        return _eval_comparison(expr, binding)
    if isinstance(expr, Not):
        return not eval_filter(expr.inner, binding)
    if isinstance(expr, And):
        return all(eval_filter(part, binding) for part in expr.parts)
    if isinstance(expr, Or):
        return any(eval_filter(part, binding) for part in expr.parts)
    raise TypeError(f"not a filter expression: {expr!r}")


def _substitute(pattern: TriplePattern, binding: BindingSet) -> TriplePattern:
    def resolve(slot):
        if isinstance(slot, Variable) and slot.name in binding:
            return binding[slot.name]
        return slot

    return TriplePattern(resolve(pattern.subject), resolve(pattern.predicate), resolve(pattern.object))


def _ground_count(pattern: TriplePattern) -> int:
    return sum(0 if isinstance(s, Variable) else 1 for s in pattern.slots())


def match_bgp(
    graph: Graph,
    patterns: tuple[TriplePattern, ...] | list[TriplePattern],
    filters: tuple[FilterExpr, ...] | list[FilterExpr] = (),
) -> list[BindingSet]:
    """Join all patterns over the graph and keep solutions passing every filter.

    An index nested-loop join (see :func:`join_bgp`). The result is not
    projected, deduplicated or ordered; `evaluate` layers query semantics
    on top. Also reused by the rule engine.
    """
    return join_bgp(graph, patterns, filters, [{}])


def join_bgp(
    graph: Graph,
    patterns: tuple[TriplePattern, ...] | list[TriplePattern],
    filters: tuple[FilterExpr, ...] | list[FilterExpr],
    solutions: list[BindingSet],
) -> list[BindingSet]:
    """Extend each solution by every way the patterns match the graph, and
    keep the extensions that pass every filter.

    Patterns are joined most-selective (most ground slots) first, ties in
    the given order; each one is substituted with a partial binding and
    looked up through the graph's indexes by :meth:`Graph.match`, so a
    step costs the matches found rather than a scan of the graph. The
    order of the result is unspecified.
    """
    ordered = sorted(patterns, key=lambda p: -_ground_count(p))
    for pattern in ordered:
        next_solutions: list[BindingSet] = []
        for binding in solutions:
            for extension in graph.match(_substitute(pattern, binding)):
                merged = dict(binding)
                merged.update(extension)
                next_solutions.append(merged)
        solutions = next_solutions
        if not solutions:
            return solutions
    if filters:
        solutions = [b for b in solutions if all(eval_filter(f, b) for f in filters)]
    return solutions


def _binding_key(binding: BindingSet) -> tuple:
    return tuple(sorted((name, term_text(term)) for name, term in binding.items()))


def evaluate(query: Query, graph: Graph) -> list[BindingSet] | bool:
    """Evaluate a query over a graph.

    SELECT returns deduplicated bindings projected to the query's variables,
    in canonical order; ASK returns whether any solution exists.
    """
    solutions = match_bgp(graph, query.patterns, query.filters)
    if query.form == "ASK":
        return bool(solutions)
    names = query_variables(query)
    rows: dict[tuple, BindingSet] = {}
    for binding in solutions:
        row = {name: binding[name] for name in names if name in binding}
        rows[_binding_key(row)] = row
    return [rows[key] for key in sorted(rows)]


def query_variables(query: Query) -> list[str]:
    """The variable names a SELECT result row may bind, in output order."""
    if query.projected is not None:
        return list(query.projected)
    return sorted(set().union(*(p.variables() for p in query.patterns)))


def term_to_json(term: Term) -> dict:
    if isinstance(term, IRI):
        return {"kind": "iri", "value": term.value}
    if isinstance(term, Literal):
        out: dict = {"kind": "literal", "value": term.lexical}
        if term.language is not None:
            out["language"] = term.language
        elif term.datatype != XSD_NS + "string":
            out["datatype"] = term.datatype
        return out
    return {"kind": "blank", "value": term.label}


def binding_to_json(binding: BindingSet) -> dict:
    return {name: term_to_json(term) for name, term in sorted(binding.items())}
