"""Term model, graph operations and the N-Triples reader/writer."""

import random

import pytest
from hypothesis import example, given, strategies as st

from giots import rdf
from giots.sparql import match_bgp
from giots.rdf import (
    BlankNode,
    Graph,
    IRI,
    Literal,
    NTriplesError,
    Triple,
    TriplePattern,
    TripleStore,
    Variable,
    XSD_NS,
    parse_ntriples,
    serialize_ntriples,
    term_text,
)

XSD_INTEGER = XSD_NS + "integer"


# --- term construction rules ---------------------------------------------------


def test_iri_rejects_whitespace_and_brackets():
    for bad in ("", "urn:has space", "urn:tab\there", "a<b", "a>b", 'a"b', "a\\b"):
        with pytest.raises(ValueError):
            IRI(bad)


def test_blank_node_label_shape():
    assert BlankNode("b1").label == "b1"
    for bad in ("", "1b", "has-dash", "_x"):
        with pytest.raises(ValueError):
            BlankNode(bad)


def test_literal_cannot_have_both_language_and_datatype():
    with pytest.raises(ValueError):
        Literal("hi", datatype=XSD_INTEGER, language="en")


def test_literal_language_tag_shape():
    assert Literal("hi", language="en-GB").language == "en-GB"
    with pytest.raises(ValueError):
        Literal("hi", language="9en")


def test_literal_rejects_carriage_return():
    with pytest.raises(ValueError):
        Literal("a\rb")


def test_triple_slot_rules():
    s, p, o = IRI("urn:s"), IRI("urn:p"), IRI("urn:o")
    with pytest.raises(ValueError):
        Triple(Literal("x"), p, o)
    with pytest.raises(ValueError):
        Triple(s, Literal("x"), o)
    with pytest.raises(ValueError):
        Triple(s, BlankNode("b"), o)
    assert Triple(BlankNode("b"), p, Literal("x")).subject == BlankNode("b")


def test_term_text_escapes_and_tags():
    assert term_text(Literal('say "hi"\n\tdone\\')) == '"say \\"hi\\"\\n\\tdone\\\\"'
    assert term_text(Literal("5", datatype=XSD_INTEGER)) == f'"5"^^<{XSD_INTEGER}>'
    assert term_text(Literal("hi", language="en")) == '"hi"@en'
    assert term_text(IRI("urn:x")) == "<urn:x>"
    assert term_text(BlankNode("b")) == "_:b"


# --- parsing ---------------------------------------------------------------------


def test_parse_single_triple():
    graph = parse_ntriples("<urn:s> <urn:p> <urn:o> .\n")
    assert len(graph) == 1
    assert Triple(IRI("urn:s"), IRI("urn:p"), IRI("urn:o")) in graph


def test_parse_empty_input_gives_empty_graph():
    assert len(parse_ntriples("")) == 0


def test_parse_typed_literal():
    graph = parse_ntriples(f'<urn:s> <urn:p> "25"^^<{XSD_INTEGER}> .\n')
    assert Triple(IRI("urn:s"), IRI("urn:p"), Literal("25", datatype=XSD_INTEGER)) in graph


def test_parse_language_tagged_literal():
    graph = parse_ntriples('<urn:s> <urn:p> "hallo"@de .\n')
    (triple,) = graph.triples()
    assert triple.object == Literal("hallo", language="de")


def test_parse_blank_nodes_and_escapes():
    graph = parse_ntriples('_:a <urn:p> "line\\nbreak \\"q\\" \\\\ tab\\t" .\n')
    (triple,) = graph.triples()
    assert triple.subject == BlankNode("a")
    assert triple.object == Literal('line\nbreak "q" \\ tab\t')


def test_parse_skips_comments_blank_lines_and_collapses_duplicates():
    text = (
        "# header comment\n"
        "\n"
        "<urn:s> <urn:p> <urn:o> .\n"
        "   \n"
        "<urn:s> <urn:p> <urn:o> . # trailing comment\n"
    )
    assert len(parse_ntriples(text)) == 1


def test_parse_is_atomic_and_reports_position():
    text = "<urn:s> <urn:p> <urn:o> .\n<urn:s> <urn:p> nonsense .\n"
    with pytest.raises(NTriplesError) as excinfo:
        parse_ntriples(text)
    assert excinfo.value.line == 2
    assert excinfo.value.column >= 1


def test_a_carriage_return_inside_a_literal_is_a_syntax_error():
    """Reported at the column after it, as a bad escape is; a CR ending a
    line is part of a CRLF line break."""
    for line in ['<urn:s> <urn:p> "a\rb" .', '_:b <urn:p> "\r"@en .', '<urn:s> <urn:p> "a\r"^^<urn:t> .']:
        with pytest.raises(NTriplesError) as excinfo:
            parse_ntriples("<urn:s> <urn:p> <urn:o> .\n" + line + "\n")
        assert (excinfo.value.line, excinfo.value.column) == (2, line.index("\r") + 2)
        assert "carriage return" in excinfo.value.message
    assert parse_ntriples('<urn:s> <urn:p> "ab" .\r\n') == Graph(
        [Triple(IRI("urn:s"), IRI("urn:p"), Literal("ab"))]
    )


@pytest.mark.parametrize(
    ("line", "column", "message"),
    [
        ('<urn:s> <urn:p> "x\\z" .', 21, "unsupported escape sequence \\z"),
        ('<urn:s> <urn:p> "x\\', 20, "dangling escape"),
        ('<urn:s> <urn:p> "open .', 24, "unterminated string literal"),
        ("<urn:s> <urn:p> <> .", 19, "empty IRI"),
        ("<urn:a b> <urn:p> <urn:o> .", 7, "forbidden character ' ' in IRI"),
        ("<urn:s> <urn:p> <urn:o", 23, "unterminated IRI"),
        ('<urn:s> <urn:p> "x"^^urn:t .', 22, "expected '<'"),
        ('<urn:s> <urn:p> "x"@en- .', 24, "invalid language tag: 'en-'"),
        ("_:bé <urn:p> <urn:o> .", 5, "invalid blank node label 'bé'"),
        ("_x <urn:p> <urn:o> .", 2, "expected ':'"),
        ("<urn:s> <urn:p> <urn:o> , .", 25, "expected '.'"),
        ("<urn:s> <urn:p> <urn:o> . x", 27, "trailing content after statement"),
        ("<urn:s> <urn:p>", 16, "unexpected end of line"),
        ('"lit" <urn:p> <urn:o> .', 1, "triple subject may not be a literal"),
    ],
)
def test_a_malformed_line_is_reported_at_its_column(line, column, message):
    with pytest.raises(NTriplesError) as excinfo:
        parse_ntriples(line)
    assert (excinfo.value.line, excinfo.value.column, excinfo.value.message) == (1, column, message)


@pytest.mark.parametrize(
    "bad",
    [
        "<urn:s> <urn:p> <urn:o>",  # missing final dot
        "<urn:s> <urn:p> .",  # missing object
        '<urn:s> <urn:p> "open .',  # unterminated literal
        '<urn:s> <urn:p> "x\\z" .',  # unsupported escape
        "<urn:s> <urn:p> <urn:o> . extra",  # trailing content
        "<urn:a b> <urn:p> <urn:o> .",  # space inside an IRI
        '"lit" <urn:p> <urn:o> .',  # literal subject
        "<urn:s> _:b <urn:o> .",  # blank node predicate
        "<urn:s> <urn:p> <urn:o> ..",
    ],
)
def test_parse_rejects_malformed_lines(bad):
    with pytest.raises(NTriplesError):
        parse_ntriples(bad + "\n")


# --- serialization -----------------------------------------------------------------


def test_serialize_empty_graph_is_empty_string():
    assert serialize_ntriples(Graph()) == ""


def test_serialize_is_sorted_and_line_terminated():
    graph = parse_ntriples(
        "<urn:s> <urn:p> <urn:z> .\n<urn:s> <urn:p> <urn:a> .\n<urn:b> <urn:p> <urn:c> .\n"
    )
    text = serialize_ntriples(graph)
    lines = text.splitlines()
    assert text.endswith(".\n")
    assert lines == sorted(lines)
    assert len(lines) == 3


def test_round_trip_of_hand_written_sample():
    text = (
        '_:n1 <urn:p> "tricky \\"stuff\\" with \\\\ and \\n and \\t" .\n'
        f'<urn:s> <urn:num> "3.25"^^<{XSD_NS}decimal> .\n'
        '<urn:s> <urn:tag> "bonjour"@fr .\n'
    )
    graph = parse_ntriples(text)
    assert parse_ntriples(serialize_ntriples(graph)) == graph


# --- graph operations ----------------------------------------------------------------


def _t(n: int) -> Triple:
    return Triple(IRI(f"urn:s{n}"), IRI("urn:p"), IRI(f"urn:o{n}"))


def test_insert_same_triple_twice_keeps_size_one():
    graph = Graph([_t(1), _t(1)])
    assert len(graph) == 1


def test_graph_is_immutable_value_object():
    g1 = Graph([_t(1)])
    assert g1 == Graph([_t(1)])
    assert hash(g1) == hash(Graph([_t(1)]))


def test_union_is_set_union():
    assert Graph([_t(1), _t(2)]).union(Graph([_t(2), _t(3)])) == Graph([_t(1), _t(2), _t(3)])


def test_iteration_order_is_canonical():
    graph = Graph([_t(3), _t(1), _t(2)])
    texts = [t.text() for t in graph]
    assert texts == sorted(texts)


# --- pattern matching ------------------------------------------------------------------


def test_match_binds_single_variable():
    graph = Graph([Triple(IRI("urn:a"), IRI("urn:b"), IRI("urn:c"))])
    pattern = TriplePattern(Variable("s"), IRI("urn:b"), IRI("urn:c"))
    assert graph.match(pattern) == [{"s": IRI("urn:a")}]


def test_match_all_variable_pattern_yields_one_binding_per_triple():
    rng = random.Random(30)
    triples = {
        Triple(IRI(f"urn:s{rng.randrange(1000)}-{i}"), IRI("urn:p"), Literal(str(i)))
        for i in range(30)
    }
    graph = Graph(triples)
    pattern = TriplePattern(Variable("s"), Variable("p"), Variable("o"))
    assert len(graph.match(pattern)) == 30


def test_match_ground_pattern_yields_empty_binding():
    triple = _t(1)
    graph = Graph([triple])
    assert graph.match(TriplePattern(triple.subject, triple.predicate, triple.object)) == [{}]
    assert graph.match(TriplePattern(IRI("urn:nope"), triple.predicate, triple.object)) == []


def test_match_repeated_variable_must_bind_consistently():
    graph = Graph(
        [
            Triple(IRI("urn:x"), IRI("urn:p"), IRI("urn:x")),
            Triple(IRI("urn:x"), IRI("urn:p"), IRI("urn:y")),
        ]
    )
    pattern = TriplePattern(Variable("v"), IRI("urn:p"), Variable("v"))
    assert graph.match(pattern) == [{"v": IRI("urn:x")}]


def test_match_literal_subject_pattern_matches_nothing():
    graph = Graph([_t(1)])
    assert graph.match(TriplePattern(Literal("x"), Variable("p"), Variable("o"))) == []


def _sorted(bindings):
    return sorted(bindings, key=lambda b: sorted((k, term_text(v)) for k, v in b.items()))


def _scan(graph, pattern):
    """Reference: unify the pattern with every triple of the graph."""
    results = []
    for triple in graph.triples():
        binding = {}
        for slot, term in zip(pattern.slots(), (triple.subject, triple.predicate, triple.object)):
            if isinstance(slot, Variable):
                if binding.setdefault(slot.name, term) != term:
                    break
            elif slot != term:
                break
        else:
            results.append(binding)
    return _sorted(results)


# A few terms, so that random triples share subjects, predicates and objects.
_nodes = [IRI("urn:a"), IRI("urn:b"), BlankNode("b1")]
_predicates = [IRI("urn:p"), IRI("urn:q")]
_values = [Literal("a"), Literal("1", datatype=XSD_INTEGER)]
_small_graphs = st.lists(
    st.builds(
        Triple,
        st.sampled_from(_nodes),
        st.sampled_from(_predicates),
        st.sampled_from(_nodes + _values),
    ),
    max_size=20,
).map(Graph)
_slots = st.sampled_from(
    [Variable("x"), Variable("y"), Variable("z")] + _nodes + _predicates + _values
)


@given(_small_graphs, st.builds(TriplePattern, _slots, _slots, _slots))
@example(Graph([_t(1), _t(2)]), TriplePattern(Variable("s"), Variable("p"), Variable("o")))
@example(
    Graph([Triple(IRI("urn:a"), IRI("urn:p"), IRI("urn:a")), Triple(IRI("urn:a"), IRI("urn:p"), IRI("urn:b"))]),
    TriplePattern(Variable("x"), IRI("urn:p"), Variable("x")),
)
@example(Graph([_t(1)]), TriplePattern(Literal("a"), Variable("p"), Variable("o")))
def test_indexed_match_equals_a_scan(graph, pattern):
    # match's order is unspecified; sorted, a missing or repeated binding still shows
    assert _sorted(graph.match(pattern)) == _scan(graph, pattern)
    assert _sorted(graph.match(pattern)) == _scan(graph, pattern)  # the indexes, now built


@given(_small_graphs, _small_graphs, st.builds(TriplePattern, _slots, _slots, _slots))
def test_a_triple_store_matches_like_the_graph_of_its_triples(added, removed, pattern):
    store = TripleStore()
    for triple in added:
        store.add(triple)
    for triple in removed:
        store.discard(triple)
    expected = added.triples() - removed.triples()
    assert store == Graph(expected)
    assert _sorted(store.match(pattern)) == _scan(Graph(expected), pattern)
    used = {term for t in expected for term in (t.subject, t.predicate, t.object)}
    assert set().union(*map(set, store._indexes())) <= used  # emptied entries are dropped
    with pytest.raises(TypeError):
        hash(store)


def test_a_two_pattern_join_unifies_only_index_candidates(monkeypatch):
    # 1 000 entities with a type and a value: the join unifies the 1 000
    # value triples, then each entity's 2 triples found by subject; a scan
    # of the graph per partial binding would make about 2 million calls
    triples = []
    for i in range(1000):
        entity = IRI(f"urn:e{i}")
        triples.append(Triple(entity, IRI("urn:type"), IRI(f"urn:T{i % 3}")))
        triples.append(Triple(entity, IRI("urn:value"), Literal(str(i))))
    graph = Graph(triples)
    calls = 0
    unify = rdf._unify

    def counting(pattern, triple):
        nonlocal calls
        calls += 1
        assert calls <= 5000, "Graph.match unified more triples than its indexes list"
        return unify(pattern, triple)

    monkeypatch.setattr(rdf, "_unify", counting)
    patterns = [
        TriplePattern(Variable("e"), IRI("urn:type"), Variable("t")),
        TriplePattern(Variable("e"), IRI("urn:value"), Variable("v")),
    ]
    assert len(match_bgp(graph, patterns)) == 1000
    assert calls <= 5000


# --- round-trip property ------------------------------------------------------------------

_iri_alphabet = st.characters(
    codec="utf-8",
    min_codepoint=33,
    exclude_characters=' \t\n\r\f\v<>"{}|^`\\',
)
_iris = st.text(_iri_alphabet, min_size=1, max_size=24).map(IRI)
_blanks = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,5}", fullmatch=True).map(BlankNode)
_lexicals = st.text(
    st.characters(codec="utf-8", exclude_characters="\r"), max_size=24
)
_plain_literals = _lexicals.map(Literal)
_typed_literals = st.builds(lambda lex, dt: Literal(lex, datatype=dt.value), _lexicals, _iris)
_tagged_literals = st.builds(
    lambda lex, tag: Literal(lex, language=tag),
    _lexicals,
    st.from_regex(r"[A-Za-z]{1,4}(-[A-Za-z0-9]{1,3}){0,2}", fullmatch=True),
)
_subjects = st.one_of(_iris, _blanks)
_objects = st.one_of(_iris, _blanks, _plain_literals, _typed_literals, _tagged_literals)
_triples = st.builds(Triple, _subjects, _iris, _objects)
_graphs = st.lists(_triples, max_size=12).map(Graph)


@given(_graphs)
def test_round_trip_parse_of_serialized_graph(graph):
    assert parse_ntriples(serialize_ntriples(graph)) == graph
