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
    XSD_NS,
    BindingSet,
    Graph,
    IRI,
    Literal,
    Term,
    TriplePattern,
    Variable,
    _ESCAPES,
    term_text,
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

_TOKEN_SPECS = [
    ("VAR", re.compile(r"\?([A-Za-z][A-Za-z0-9_]*)")),
    # The dot needs a following digit, so "5." stays NUMBER + separator.
    ("NUMBER", re.compile(r"[+-]?(?:\d+\.\d+|\.\d+|\d+)")),
    ("OP", re.compile(r"\^\^|&&|\|\||!=|<=|>=|[{}().*=!<>,]")),
    ("LANGTAG", re.compile(r"@([A-Za-z]+(?:-[A-Za-z0-9]+)*)")),
    ("WORD", re.compile(r"[A-Za-z_][A-Za-z0-9_]*")),
]

_PNAME_RE = re.compile(r"([A-Za-z][A-Za-z0-9_-]*)?:([A-Za-z0-9_.-]*)")


@dataclass(frozen=True)
class _Token:
    kind: str  # IRIREF PNAME VAR STRING NUMBER WORD OP LANGTAG EOF
    value: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "#":
            while pos < n and text[pos] != "\n":
                pos += 1
            continue
        if ch == "<":
            # An IRIREF only if a '>' closes it before any whitespace;
            # otherwise this is a comparison operator.
            end = pos + 1
            is_iri = False
            while end < n and not text[end].isspace():
                if text[end] == ">":
                    is_iri = True
                    break
                end += 1
            if is_iri:
                tokens.append(_Token("IRIREF", text[pos + 1 : end], pos))
                pos = end + 1
                continue
        if ch == '"':
            end = pos + 1
            chars: list[str] = []
            while True:
                if end >= n:
                    raise SparqlSyntaxError(pos, "unterminated string literal")
                c = text[end]
                if c == '"':
                    break
                if c == "\\":
                    if end + 1 >= n:
                        raise SparqlSyntaxError(end, "dangling escape")
                    esc = text[end + 1]
                    mapped = _ESCAPES.get(esc)
                    if mapped is None:
                        raise SparqlSyntaxError(end, f"unsupported escape sequence \\{esc}")
                    chars.append(mapped)
                    end += 2
                else:
                    chars.append(c)
                    end += 1
            tokens.append(_Token("STRING", "".join(chars), pos))
            pos = end + 1
            continue
        pm = _PNAME_RE.match(text, pos)
        if pm and (pm.group(1) is not None or text[pos] == ":"):
            local = pm.group(2)
            end = pm.end()
            while local.endswith("."):  # trailing dots belong to the pattern separator
                local = local[:-1]
                end -= 1
            tokens.append(_Token("PNAME", f"{pm.group(1) or ''}:{local}", pos))
            pos = end
            continue
        for kind, pattern in _TOKEN_SPECS:
            m = pattern.match(text, pos)
            if m:
                value = m.group(1) if kind in ("VAR", "LANGTAG") else m.group(0)
                tokens.append(_Token(kind, value, pos))
                pos = m.end()
                break
        else:
            raise SparqlSyntaxError(pos, f"unexpected character {ch!r}")
    tokens.append(_Token("EOF", "", n))
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

    def expect_op(self, op: str) -> None:
        tok = self.advance()
        if tok.kind != "OP" or tok.value != op:
            raise self.error(f"expected {op!r}", tok)

    def parse(self) -> Query:
        while self.keyword() == "PREFIX":
            self.advance()
            name_tok = self.advance()
            if name_tok.kind != "PNAME" or name_tok.value.split(":", 1)[1]:
                raise self.error("expected a prefix name like 'ex:'", name_tok)
            iri_tok = self.advance()
            if iri_tok.kind != "IRIREF":
                raise self.error("expected an IRI after the prefix name", iri_tok)
            self.prefixes[name_tok.value.split(":", 1)[0]] = iri_tok.value

        form_kw = self.keyword()
        if form_kw == "SELECT":
            self.advance()
            query = self.parse_select()
        elif form_kw == "ASK":
            self.advance()
            query = self.parse_ask()
        else:
            raise self.error("expected SELECT or ASK")
        tok = self.peek()
        if tok.kind != "EOF":
            raise self.error("unexpected trailing content", tok)
        return query

    def parse_select(self) -> Query:
        projected: tuple[str, ...] | None
        if self.keyword() == "DISTINCT":
            self.advance()  # solutions are distinct either way
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "*":
            self.advance()
            projected = None
        else:
            names: list[str] = []
            while self.peek().kind == "VAR":
                names.append(self.advance().value)
            if not names:
                raise self.error("SELECT needs '*' or at least one variable")
            projected = tuple(names)
        if self.keyword() == "WHERE":
            self.advance()
        patterns, filters = self.parse_group()
        if projected is not None:
            in_bgp = set().union(*(p.variables() for p in patterns))
            for name in projected:
                if name not in in_bgp:
                    raise SparqlSyntaxError(0, f"projected variable ?{name} does not occur in the graph pattern")
        return Query("SELECT", projected, patterns, filters)

    def parse_ask(self) -> Query:
        patterns, filters = self.parse_group()
        return Query("ASK", None, patterns, filters)

    def parse_group(self) -> tuple[tuple[TriplePattern, ...], tuple[FilterExpr, ...]]:
        self.expect_op("{")
        patterns: list[TriplePattern] = []
        filters: list[FilterExpr] = []
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value == "}":
                self.advance()
                break
            if tok.kind == "EOF":
                raise self.error("unterminated group: expected '}'")
            if self.keyword() == "FILTER":
                self.advance()
                filters.append(self.parse_filter())
            else:
                patterns.append(self.parse_pattern())
            tok = self.peek()
            if tok.kind == "OP" and tok.value == ".":
                self.advance()
        if not patterns:
            raise self.error("the graph pattern must contain at least one triple pattern")
        return tuple(patterns), tuple(filters)

    def parse_pattern(self) -> TriplePattern:
        subject = self.parse_term()
        predicate = self.parse_term()
        obj = self.parse_term()
        try:
            return TriplePattern(subject, predicate, obj)
        except ValueError as exc:
            raise self.error(str(exc)) from exc

    def parse_term(self):
        tok = self.advance()
        if tok.kind == "VAR":
            return Variable(tok.value)
        if tok.kind == "IRIREF":
            try:
                return IRI(tok.value)
            except ValueError as exc:
                raise SparqlSyntaxError(tok.pos, str(exc)) from exc
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
        try:
            return IRI(base + local)
        except ValueError as exc:
            raise SparqlSyntaxError(tok.pos, str(exc)) from exc

    def finish_literal(self, tok: _Token) -> Literal:
        nxt = self.peek()
        if nxt.kind == "OP" and nxt.value == "^^":
            self.advance()
            dt_tok = self.advance()
            if dt_tok.kind == "IRIREF":
                datatype = dt_tok.value
            elif dt_tok.kind == "PNAME":
                datatype = self.expand_pname(dt_tok).value
            else:
                raise self.error("expected a datatype IRI after '^^'", dt_tok)
            try:
                return Literal(tok.value, datatype=datatype)
            except ValueError as exc:
                raise SparqlSyntaxError(tok.pos, str(exc)) from exc
        if nxt.kind == "LANGTAG":
            self.advance()
            return Literal(tok.value, language=nxt.value)
        return Literal(tok.value)

    def parse_filter(self) -> FilterExpr:
        self.expect_op("(")
        expr = self.parse_or()
        self.expect_op(")")
        return expr

    def parse_or(self) -> FilterExpr:
        parts = [self.parse_and()]
        while self.peek().kind == "OP" and self.peek().value == "||":
            self.advance()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self) -> FilterExpr:
        parts = [self.parse_unary()]
        while self.peek().kind == "OP" and self.peek().value == "&&":
            self.advance()
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary(self) -> FilterExpr:
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "!":
            self.advance()
            return Not(self.parse_unary())
        if tok.kind == "OP" and tok.value == "(":
            self.advance()
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


def _numeric_literal(text: str) -> Literal:
    datatype = XSD_DECIMAL if "." in text else XSD_INTEGER
    return Literal(text, datatype=datatype)


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_sparql(text: str) -> Query:
    """Parse query text into a :class:`Query`, expanding PREFIX names.

    Raises :class:`SparqlSyntaxError` with a character offset on malformed
    input; this is the same error object the validation service reports.
    A parse is cached by text (a ``Query`` is frozen, so callers share it);
    an error is not, so malformed text is refused on every call.
    """
    return _Parser(text).parse()


def parse_pattern(text: str, prefixes: dict[str, str] | None = None) -> TriplePattern:
    """Parse a single standalone triple pattern like ``?s <iri> "lit"``."""
    parser = _Parser(text)
    parser.prefixes = dict(prefixes or {})
    pattern = parser.parse_pattern()
    if parser.peek().kind != "EOF":
        raise parser.error("unexpected trailing content")
    return pattern


def parse_filter(text: str, prefixes: dict[str, str] | None = None) -> FilterExpr:
    """Parse a standalone filter, with or without the FILTER keyword."""
    parser = _Parser(text)
    parser.prefixes = dict(prefixes or {})
    if parser.keyword() == "FILTER":
        parser.advance()
    expr = parser.parse_filter()
    if parser.peek().kind != "EOF":
        raise parser.error("unexpected trailing content")
    return expr


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
