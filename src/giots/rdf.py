"""RDF terms, triples and graphs, plus the N-Triples subset used on the wire.

Everything semantic in this project (descriptors, ontologies, rule facts)
is a set of subject-predicate-object triples. Graphs are immutable value
objects; mutation returns a new snapshot, so graphs can be shared freely
across threads. The one exception is :class:`TripleStore`, a graph that
changes in place for a single owner (the rule engine's maintained
closure); it matches through the same ``Graph.match`` over indexes it
keeps up to date, and is not hashable.

The N-Triples dialect is deliberately small: one statement per line, IRIs
in angle brackets, blank nodes ``_:label`` (ASCII letters and digits, a
letter first), literals with optional ``^^<datatype>`` or ``@lang``, only
the escape sequences ``\\" \\\\ \\n \\t``, and no raw carriage return in a
literal (a CR before the line break is dropped). Parsing is atomic: a
single malformed line fails the whole document.

Each lexical rule (IRI characters, blank-node label, string body and
escapes, language tag) is one pattern fragment below, which the term
constructors, the N-Triples reader and the SPARQL tokenizer all use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

XSD_NS = "http://www.w3.org/2001/XMLSchema#"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"

# Vocabularies owned by this stack: descriptor-level mediation facts and
# the context-triple view agents reason over.
MED_NS = "http://wise-iot.example/mediation#"
CTX_NS = "http://wise-iot.example/context#"

XSD_STRING = XSD_NS + "string"
RDF_TYPE = RDF_NS + "type"

# --- lexical rules -------------------------------------------------------------

# Characters that cannot appear unescaped inside <...> without breaking the
# serialization (whitespace and angle brackets per the data model invariant,
# plus the characters N-Triples IRIREFs exclude).
_IRI_FORBIDDEN = ' \t\n\r\f\v<>"{}|^`\\'
_IRI_CHAR = f"[^{re.escape(_IRI_FORBIDDEN)}]"
_BLANK_LABEL = r"[A-Za-z][A-Za-z0-9]*"
VAR_NAME = r"[A-Za-z][A-Za-z0-9_]*"
LANG_TAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}
_LITERAL_FORBIDDEN = "\r"
# The text between a string literal's quotes: a plain character (neither
# quote, backslash nor CR) or a backslash and an escape letter.
STRING_BODY = rf'(?:[^"\\{_LITERAL_FORBIDDEN}]|\\[{re.escape("".join(_ESCAPES))}])*'

_IRI_RE = re.compile(f"{_IRI_CHAR}+\\Z")
_IRI_STOP_RE = re.compile(f"[{re.escape(_IRI_FORBIDDEN)}]")
_BLANK_LABEL_RE = re.compile(_BLANK_LABEL + r"\Z")
_VAR_NAME_RE = re.compile(VAR_NAME + r"\Z")
_LANG_TAG_RE = re.compile(LANG_TAG + r"\Z")
_STRING_BODY_RE = re.compile(STRING_BODY)
_UNESCAPE_RE = re.compile(r"\\(.)")


def unescape(body: str) -> str:
    """The characters a text matching ``STRING_BODY`` stands for."""
    if "\\" not in body:
        return body
    return _UNESCAPE_RE.sub(lambda m: _ESCAPES[m.group(1)], body)


def string_error(text: str, quote: int) -> tuple[int, int, str]:
    """Why the string literal whose quote is at ``text[quote]`` does not
    close: the start and end of the offending part, and a message."""
    end = _STRING_BODY_RE.match(text, quote + 1).end()
    if end == len(text):
        return quote, end, "unterminated string literal"
    if text[end] == _LITERAL_FORBIDDEN:
        return end, end + 1, "raw carriage return in a literal"
    if end + 1 == len(text):
        return end, end + 1, "dangling escape"
    return end, end + 2, f"unsupported escape sequence \\{text[end + 1]}"


class NTriplesError(ValueError):
    """Malformed N-Triples input; carries a 1-based line and column."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


@dataclass(frozen=True)
class IRI:
    value: str

    def __post_init__(self) -> None:
        if not _IRI_RE.match(self.value):
            if not self.value:
                raise ValueError("IRI must be non-empty")
            bad = sorted(set(_IRI_FORBIDDEN).intersection(self.value))
            raise ValueError(f"IRI contains forbidden character(s) {bad!r}: {self.value!r}")


@dataclass(frozen=True)
class BlankNode:
    label: str

    def __post_init__(self) -> None:
        if not _BLANK_LABEL_RE.match(self.label):
            raise ValueError(f"invalid blank node label: {self.label!r}")


@dataclass(frozen=True)
class Literal:
    """A literal term.

    Carries either a language tag (datatype stays the default string type)
    or a datatype IRI, never both. Equality is term equality over
    (lexical, datatype, language); value comparison is the filter layer's
    business.
    """

    lexical: str
    datatype: str = XSD_STRING
    language: str | None = None

    def __post_init__(self) -> None:
        if _LITERAL_FORBIDDEN in self.lexical:
            raise ValueError("literal lexical form may not contain carriage returns")
        if self.language is not None:
            if self.datatype != XSD_STRING:
                raise ValueError("a literal cannot carry both a language tag and a datatype")
            if not _LANG_TAG_RE.match(self.language):
                raise ValueError(f"invalid language tag: {self.language!r}")
        IRI(self.datatype)  # datatype must itself be a well-formed IRI


Term = Union[IRI, BlankNode, Literal]


@dataclass(frozen=True)
class Variable:
    name: str

    def __post_init__(self) -> None:
        if not _VAR_NAME_RE.match(self.name):
            raise ValueError(f"invalid variable name: {self.name!r}")


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\t", "\\t")
    )


def term_text(term: Term) -> str:
    """Canonical N-Triples token for a term; doubles as the sort key."""
    if isinstance(term, IRI):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        base = f'"{_escape(term.lexical)}"'
        if term.language is not None:
            return f"{base}@{term.language}"
        if term.datatype != XSD_STRING:
            return f"{base}^^<{term.datatype}>"
        return base
    raise TypeError(f"not a term: {term!r}")


@dataclass(frozen=True)
class Triple:
    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self) -> None:
        if isinstance(self.subject, Literal):
            raise ValueError("triple subject may not be a literal")
        if not isinstance(self.subject, (IRI, BlankNode)):
            raise TypeError("triple subject must be an IRI or blank node")
        if not isinstance(self.predicate, IRI):
            raise ValueError("triple predicate must be an IRI")
        if not isinstance(self.object, (IRI, BlankNode, Literal)):
            raise TypeError("triple object must be a term")

    def text(self) -> str:
        return f"{term_text(self.subject)} {term_text(self.predicate)} {term_text(self.object)} ."


PatternSlot = Union[IRI, BlankNode, Literal, Variable]


@dataclass(frozen=True)
class TriplePattern:
    """One basic graph pattern: each slot is a ground term or a variable.

    Ground slots that could never occur in that triple position (a literal
    subject, say) are allowed; such patterns simply match nothing.
    """

    subject: PatternSlot
    predicate: PatternSlot
    object: PatternSlot

    def slots(self) -> tuple[PatternSlot, PatternSlot, PatternSlot]:
        return (self.subject, self.predicate, self.object)

    def variables(self) -> set[str]:
        return {s.name for s in self.slots() if isinstance(s, Variable)}


BindingSet = dict  # variable name -> Term


class Graph:
    """An immutable set of triples.

    The first ``match`` builds subject, predicate and object hash indexes
    (term -> triples, after Hexastore, Weiss, Karras & Bernstein, VLDB
    2008). They are built into a local and assigned once, so threads
    sharing a graph at worst build them twice and never see them half
    built.
    """

    __slots__ = ("_triples", "_sorted", "_index")

    def __init__(self, triples: Iterable[Triple] = ()):
        self._triples: frozenset[Triple] = frozenset(triples)
        self._sorted: tuple[Triple, ...] | None = None
        self._index: tuple[dict[Term, list[Triple]], ...] | None = None

    def triples(self) -> frozenset[Triple]:
        return self._triples

    def _ordered(self) -> tuple[Triple, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self._triples, key=Triple.text))
        return self._sorted

    def _indexes(self) -> tuple[dict[Term, list[Triple]], ...]:
        index = self._index
        if index is None:
            index = ({}, {}, {})
            by_subject, by_predicate, by_object = index
            for triple in self._triples:
                by_subject.setdefault(triple.subject, []).append(triple)
                by_predicate.setdefault(triple.predicate, []).append(triple)
                by_object.setdefault(triple.object, []).append(triple)
            self._index = index
        return index

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._ordered())

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._triples == other._triples

    def __hash__(self) -> int:
        return hash(self._triples)

    def __repr__(self) -> str:
        return f"Graph({len(self._triples)} triples)"

    def union(self, other: "Graph") -> "Graph":
        return Graph(self._triples | other._triples)

    def match(self, pattern: TriplePattern) -> list[dict[str, Term]]:
        """All bindings under which the pattern unifies with a triple.

        Ground slots must equal the triple's term; a variable repeated
        within the pattern must bind consistently. Only the shortest index
        list among the pattern's ground slots is unified (every triple
        when all three slots are variables). Result order is unspecified
        (it follows the indexes): canonical order is made where results
        leave the core, by ``sparql.evaluate`` and ``__iter__``.
        """
        candidates: Iterable[Triple] = self._triples
        fewest = len(self._triples)
        for slot, index in zip(pattern.slots(), self._indexes()):
            if not isinstance(slot, Variable):
                listed = index.get(slot, ())
                if len(listed) < fewest:
                    candidates, fewest = listed, len(listed)
        results = []
        for triple in candidates:
            binding = _unify(pattern, triple)
            if binding is not None:
                results.append(binding)
        return results


class TripleStore(Graph):
    """A graph that changes in place, with its indexes kept up to date.

    Only its owner may change it, and not while another thread reads it:
    ``triples()`` is the live set, so share an immutable
    ``Graph(store.triples())`` copy instead. The index entries are sets,
    so a removal costs O(1), and a term no triple uses any more leaves
    its index.
    """

    __slots__ = ()
    __hash__ = None  # its contents change

    def __init__(self):
        super().__init__()
        self._triples = set()
        self._index = ({}, {}, {})

    def add(self, triple: Triple) -> bool:
        """Add a triple; False if it was already present."""
        if triple in self._triples:
            return False
        self._triples.add(triple)
        for term, index in zip((triple.subject, triple.predicate, triple.object), self._index):
            index.setdefault(term, set()).add(triple)
        self._sorted = None
        return True

    def discard(self, triple: Triple) -> None:
        """Remove a triple if it is present."""
        if triple not in self._triples:
            return
        self._triples.discard(triple)
        for term, index in zip((triple.subject, triple.predicate, triple.object), self._index):
            listed = index[term]
            listed.discard(triple)
            if not listed:
                del index[term]
        self._sorted = None


def _unify(pattern: TriplePattern, triple: Triple) -> dict[str, Term] | None:
    binding: dict[str, Term] = {}
    for slot, term in zip(pattern.slots(), (triple.subject, triple.predicate, triple.object)):
        if isinstance(slot, Variable):
            bound = binding.get(slot.name)
            if bound is None:
                binding[slot.name] = term
            elif bound != term:
                return None
        elif slot != term:
            return None
    return binding


# --- N-Triples parsing ------------------------------------------------------

_ALNUM = r"[^\W_]"  # a character str.isalnum() accepts
_SPACE_RE = re.compile(r"[ \t]*")
_SKIP_RE = re.compile(r"[ \t]*(?:#|\Z)")  # a blank or comment line
_STRING_RE = re.compile(f'"{STRING_BODY}"')
# Groups: 1 IRI, 2 blank label, 3 string body, 4 datatype IRI, 5 language.
# A label or tag must end the run of letters and digits it starts, and a
# ``^^`` or ``@`` after a string must begin its datatype or tag.
_TERM_RE = re.compile(
    rf"[ \t]*(?:<({_IRI_CHAR}+)>|_:({_BLANK_LABEL})(?!{_ALNUM})"
    rf'|"({STRING_BODY})"(?:\^\^<({_IRI_CHAR}+)>|@({LANG_TAG})(?!{_ALNUM}|-)|(?!\^\^|@)))'
)
_END_RE = re.compile(r"[ \t]*\.[ \t]*(?:#|\Z)")
_LABEL_RUN_RE = re.compile(f"{_ALNUM}*")
_TAG_RUN_RE = re.compile(f"(?:{_ALNUM}|-)*")


def _term(m: re.Match) -> Term:
    iri, label, body, datatype, language = m.groups()
    if iri is not None:
        return IRI(iri)
    if label is not None:
        return BlankNode(label)
    return Literal(unescape(body), datatype or XSD_STRING, language)


def _iri_error(line: str, pos: int) -> tuple[int, str]:
    if not line.startswith("<", pos):
        return pos, "expected '<'"
    stop = _IRI_STOP_RE.search(line, pos + 1)
    if stop is None:
        return len(line), "unterminated IRI"
    start, end = stop.span()
    if stop.group() != ">":
        return start, f"forbidden character {stop.group()!r} in IRI"
    return end, "empty IRI"


def _statement_error(line: str, pos: int, terms: int) -> tuple[int, str]:
    """The 0-based column at which, and why, a statement that matched
    ``terms`` terms up to ``pos`` stops matching."""
    pos = _SPACE_RE.match(line, pos).end()
    ch = line[pos : pos + 1]
    if terms == 3:
        if ch != ".":
            return pos, "expected '.'"
        return _SPACE_RE.match(line, pos + 1).end(), "trailing content after statement"
    if ch == "<":
        return _iri_error(line, pos)
    if ch == "_":
        if not line.startswith(":", pos + 1):
            return pos + 1, "expected ':'"
        end = _LABEL_RUN_RE.match(line, pos + 2).end()
        return end, f"invalid blank node label {line[pos + 2 : end]!r}"
    if ch == '"':
        closed = _STRING_RE.match(line, pos)
        if closed is None:
            _, end, message = string_error(line, pos)
            return end, message
        pos = closed.end()
        if line.startswith("^^", pos):
            return _iri_error(line, pos + 2)
        end = _TAG_RUN_RE.match(line, pos + 1).end()
        return end, f"invalid language tag: {line[pos + 1 : end]!r}"
    return pos, f"expected an IRI, blank node or literal, found {ch!r}" if ch else "unexpected end of line"


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples text into a graph.

    Blank lines and ``#`` comment lines are skipped; duplicate statements
    collapse (set semantics). Raises :class:`NTriplesError` on the first
    malformed line; nothing is returned for partially valid input.
    """
    triples: set[Triple] = set()
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if _SKIP_RE.match(line):
            continue
        terms: list[Term] = []
        pos = 0
        while len(terms) < 3 and (m := _TERM_RE.match(line, pos)):
            terms.append(_term(m))
            pos = m.end()
        if len(terms) < 3 or not _END_RE.match(line, pos):
            column, message = _statement_error(line, pos, len(terms))
            raise NTriplesError(line_no, column + 1, message)
        try:
            triples.add(Triple(*terms))
        except ValueError as exc:
            raise NTriplesError(line_no, 1, str(exc)) from exc
    return Graph(triples)


def serialize_ntriples(graph: Graph) -> str:
    """One statement per line, sorted by canonical (s, p, o) text.

    ``parse_ntriples(serialize_ntriples(g)) == g`` for every graph.
    """
    return "".join(t.text() + "\n" for t in graph)
