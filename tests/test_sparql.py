"""Query parsing and evaluation over in-memory graphs."""

import ast
import itertools
import os
import random
import string
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import giots
from giots.rdf import (
    Graph,
    IRI,
    Literal,
    NTriplesError,
    Triple,
    TriplePattern,
    Variable,
    XSD_NS,
    parse_ntriples,
    term_text,
)
from giots.sparql import (
    And,
    Comparison,
    Not,
    Or,
    Query,
    SparqlSyntaxError,
    binding_to_json,
    eval_filter,
    evaluate,
    parse_filter,
    parse_pattern,
    parse_sparql,
    query_variables,
    term_to_json,
)

from oracles import (
    brute_force_ask,
    brute_force_select,
    frozen_row,
    random_graph,
    random_query,
    random_triple,
)

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_INTEGER = XSD_NS + "integer"
XSD_DECIMAL = XSD_NS + "decimal"
XSD_BOOLEAN = XSD_NS + "boolean"
ONT = "http://wise-iot.example/onto#"


# --- parsing --------------------------------------------------------------------


def test_parse_minimal_ask():
    query = parse_sparql("ASK { ?s ?p ?o }")
    assert query.form == "ASK"
    assert len(query.patterns) == 1
    assert query.filters == ()


def test_parse_select_with_filter():
    query = parse_sparql(
        "PREFIX ont: <http://wise-iot.example/onto#>\n"
        "SELECT ?r WHERE { ?r <%s> ont:Room . ?r ont:temp ?t . FILTER(?t > 20) }" % RDF_TYPE
    )
    assert query.form == "SELECT"
    assert query.projected == ("r",)
    assert len(query.patterns) == 2
    assert len(query.filters) == 1
    assert query.patterns[0].object == IRI(ONT + "Room")


def test_parse_unbalanced_group_raises_with_offset():
    with pytest.raises(SparqlSyntaxError) as excinfo:
        parse_sparql("SELECT ?s WHERE { ?s ?p")
    assert isinstance(excinfo.value.position, int)
    with pytest.raises(SparqlSyntaxError) as excinfo:
        parse_sparql("SELECT ?s WHERE { ?s ?p ?o")
    assert "'}'" in excinfo.value.message


def test_parse_distinct_and_star_projection():
    query = parse_sparql("SELECT DISTINCT * WHERE { ?s ?p ?o }")
    assert query.projected is None
    assert query_variables(query) == ["o", "p", "s"]


def test_parse_where_keyword_is_optional():
    assert parse_sparql("SELECT ?s { ?s ?p ?o }").form == "SELECT"


def test_parse_undefined_prefix_is_rejected():
    with pytest.raises(SparqlSyntaxError) as excinfo:
        parse_sparql("SELECT ?s WHERE { ?s ex:p ?o }")
    assert "undefined prefix" in excinfo.value.message


def test_parse_projected_variable_must_occur_in_pattern():
    with pytest.raises(SparqlSyntaxError) as excinfo:
        parse_sparql("SELECT ?nope WHERE { ?s ?p ?o }")
    assert "does not occur" in excinfo.value.message


def test_parse_rejects_empty_group_trailing_text_and_blank_nodes():
    with pytest.raises(SparqlSyntaxError):
        parse_sparql("SELECT ?s WHERE { }")
    with pytest.raises(SparqlSyntaxError):
        parse_sparql("ASK { ?s ?p ?o } LIMIT 5")
    with pytest.raises(SparqlSyntaxError) as excinfo:
        parse_sparql("ASK { _:b ?p ?o }")
    assert "blank nodes" in excinfo.value.message


def test_parse_numeric_literals_get_numeric_datatypes():
    query = parse_sparql("ASK { ?s ?p ?o . FILTER(?o = 3.25 || ?o = 42 || ?o = .5) }")
    comparisons = query.filters[0].parts
    assert comparisons[0].right == Literal("3.25", datatype=XSD_DECIMAL)
    assert comparisons[1].right == Literal("42", datatype=XSD_INTEGER)
    assert comparisons[2].right == Literal(".5", datatype=XSD_DECIMAL)


def test_parse_boolean_and_tagged_literal_terms():
    query = parse_sparql('ASK { ?s ?p true . ?s ?q "hi"@en . ?s ?r "5"^^<%s> }' % XSD_INTEGER)
    objects = [p.object for p in query.patterns]
    assert objects[0] == Literal("true", datatype=XSD_BOOLEAN)
    assert objects[1] == Literal("hi", language="en")
    assert objects[2] == Literal("5", datatype=XSD_INTEGER)


def test_parse_filter_precedence_and_grouping():
    expr = parse_sparql("ASK { ?s ?p ?o . FILTER(?o = 1 || ?o = 2 && !(?o > 3)) }").filters[0]
    assert isinstance(expr, Or)
    assert isinstance(expr.parts[1], And)
    assert isinstance(expr.parts[1].parts[1], Not)


def test_parse_pattern_standalone():
    pattern = parse_pattern('?s <urn:p> "lit"')
    assert pattern == TriplePattern(Variable("s"), IRI("urn:p"), Literal("lit"))
    with pytest.raises(SparqlSyntaxError):
        parse_pattern("?s <urn:p> ?o extra")
    prefixed = parse_pattern("?s ont:temp ?o", {"ont": ONT})
    assert prefixed.predicate == IRI(ONT + "temp")


def test_a_carriage_return_inside_a_string_is_a_syntax_error_at_its_offset():
    for text in ['ASK { ?s ?p "a\rb" }', 'ASK { ?s ?p "\r"@en }', 'ASK { ?s ?p "a\r"^^<urn:t> }']:
        with pytest.raises(SparqlSyntaxError) as excinfo:
            parse_sparql(text)
        assert excinfo.value.position == text.index("\r")
    assert parse_sparql('ASK {\r\n?s ?p "a\\nb" }\r\n').patterns[0].object == Literal("a\nb")


def test_a_filter_nested_too_deep_is_a_syntax_error():
    for text in ["(" + "!" * 5000 + "?o = 1)", "(" * 3000 + "?o = 1" + ")" * 3000]:
        with pytest.raises(SparqlSyntaxError, match="nested too deep"):
            parse_sparql("ASK { ?s ?p ?o FILTER" + text + " }")
        with pytest.raises(SparqlSyntaxError, match="nested too deep"):
            parse_filter(text)


def test_parse_filter_standalone_with_and_without_keyword():
    assert isinstance(parse_filter("FILTER(?a > 1)"), Comparison)
    assert isinstance(parse_filter("(?a > 1 && ?b < 2)"), And)
    with pytest.raises(SparqlSyntaxError):
        parse_filter("(?a >< 1)")


# --- evaluation -------------------------------------------------------------------


def _room_graph() -> Graph:
    return Graph(
        [
            Triple(IRI("urn:room1"), IRI(RDF_TYPE), IRI(ONT + "MeetingRoom")),
            Triple(IRI("urn:room1"), IRI(ONT + "temp"), Literal("25", datatype=XSD_INTEGER)),
            Triple(IRI("urn:hall"), IRI(RDF_TYPE), IRI(ONT + "Hall")),
            Triple(IRI("urn:hall"), IRI(ONT + "temp"), Literal("19.5", datatype=XSD_DECIMAL)),
        ]
    )


def test_ask_on_empty_graph_is_false():
    assert evaluate(parse_sparql("ASK { ?s ?p ?o }"), Graph()) is False


def test_single_join_finds_the_meeting_room():
    query = parse_sparql(
        "PREFIX ont: <%s> SELECT ?r WHERE { ?r <%s> ont:MeetingRoom . ?r ont:temp ?t }"
        % (ONT, RDF_TYPE)
    )
    assert evaluate(query, _room_graph()) == [{"r": IRI("urn:room1")}]


def test_filter_compares_numbers_across_datatypes():
    query = parse_sparql("PREFIX ont: <%s> SELECT ?r WHERE { ?r ont:temp ?t . FILTER(?t > 20) }" % ONT)
    assert evaluate(query, _room_graph()) == [{"r": IRI("urn:room1")}]
    also_string = _room_graph().union(
        Graph([Triple(IRI("urn:attic"), IRI(ONT + "temp"), Literal("30"))])
    )
    rows = evaluate(query, also_string)
    assert {row["r"].value for row in rows} == {"urn:attic", "urn:room1"}


def test_equality_is_numeric_when_both_sides_are_numbers():
    graph = Graph([Triple(IRI("urn:x"), IRI("urn:p"), Literal("7.0", datatype=XSD_DECIMAL))])
    assert evaluate(parse_sparql("ASK { ?s <urn:p> ?v . FILTER(?v = 7) }"), graph) is True
    assert evaluate(parse_sparql('ASK { ?s <urn:p> ?v . FILTER(?v = "7.0") }'), graph) is True
    # term equality kicks in as soon as one side is not a number
    assert evaluate(parse_sparql('ASK { ?s <urn:p> ?v . FILTER(?v = "seven") }'), graph) is False
    assert evaluate(parse_sparql('ASK { ?s <urn:p> ?v . FILTER(?v != "seven") }'), graph) is True


# (operand, op, holds) with ?v bound to "5"^^xsd:integer: equal operands,
# integer against integer and against decimal, then unequal ones
_ORDERING_TABLE = [
    (operand, op, holds)
    for operand, outcomes in [("5", "FTFT"), ("5.0", "FTFT"), ("6", "TTFF"), ("4.5", "FFTT")]
    for op, holds in zip(("<", "<=", ">", ">="), (o == "T" for o in outcomes))
]


@pytest.mark.parametrize(("operand", "op", "holds"), _ORDERING_TABLE)
def test_ordering_comparisons_on_equal_and_unequal_numbers(operand, op, holds):
    graph = Graph([Triple(IRI("urn:x"), IRI("urn:p"), Literal("5", datatype=XSD_NS + "integer"))])
    query = parse_sparql(f"ASK {{ ?s <urn:p> ?v . FILTER(?v {op} {operand}) }}")
    assert evaluate(query, graph) is holds
    # the mirrored comparison agrees
    mirrored = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
    assert evaluate(parse_sparql(f"ASK {{ ?s <urn:p> ?v . FILTER({operand} {mirrored} ?v) }}"), graph) is holds


def test_a_typed_literal_may_name_its_datatype_with_a_prefix():
    xsd_integer = XSD_NS + "integer"
    graph = Graph([Triple(IRI("urn:x"), IRI("urn:p"), Literal("5", datatype=xsd_integer))])
    body = 'ASK { ?s <urn:p> ?o FILTER(?o = "5"^^xsd:integer) }'
    query = parse_sparql(f"PREFIX xsd: <{XSD_NS}> {body}")
    (comparison,) = query.filters
    assert comparison.right == Literal("5", datatype=xsd_integer)
    assert evaluate(query, graph) is True
    # in a triple pattern it matches the term exactly
    assert evaluate(parse_sparql(f'PREFIX xsd: <{XSD_NS}> ASK {{ ?s <urn:p> "5"^^xsd:integer }}'), graph) is True
    assert evaluate(parse_sparql(f'PREFIX xsd: <{XSD_NS}> ASK {{ ?s <urn:p> "5"^^xsd:decimal }}'), graph) is False
    # without the PREFIX the datatype's name is an error where it starts
    for text in (body, 'ASK { ?s <urn:p> "5"^^xsd:integer }'):
        with pytest.raises(SparqlSyntaxError) as excinfo:
            parse_sparql(text)
        assert excinfo.value.position == text.index("xsd:integer")
        assert excinfo.value.message == "undefined prefix 'xsd:'"


def test_failed_comparisons_count_as_false():
    graph = Graph([Triple(IRI("urn:x"), IRI("urn:p"), Literal("warm"))])
    # ordering over a non-number is false, so its negation holds
    assert evaluate(parse_sparql("ASK { ?s <urn:p> ?v . FILTER(?v > 3) }"), graph) is False
    assert evaluate(parse_sparql("ASK { ?s <urn:p> ?v . FILTER(!(?v > 3)) }"), graph) is True
    # a comparison over an unbound variable is false as well
    assert evaluate(parse_sparql("ASK { ?s <urn:p> ?v . FILTER(?w = 1) }"), graph) is False
    assert eval_filter(parse_filter("(?w = 1)"), {}) is False
    assert eval_filter(parse_filter("(!(?w = 1))"), {}) is True


def test_select_deduplicates_and_sorts_canonically():
    graph = Graph(
        [
            Triple(IRI("urn:a"), IRI("urn:p"), Literal("1")),
            Triple(IRI("urn:a"), IRI("urn:p"), Literal("2")),
            Triple(IRI("urn:b"), IRI("urn:p"), Literal("3")),
        ]
    )
    rows = evaluate(parse_sparql("SELECT ?s WHERE { ?s <urn:p> ?o }"), graph)
    assert rows == [{"s": IRI("urn:a")}, {"s": IRI("urn:b")}]


def test_star_projects_all_pattern_variables():
    graph = Graph([Triple(IRI("urn:a"), IRI("urn:p"), Literal("1"))])
    rows = evaluate(parse_sparql("SELECT * WHERE { ?s ?p ?o }"), graph)
    assert rows == [{"s": IRI("urn:a"), "p": IRI("urn:p"), "o": Literal("1")}]


def test_term_and_binding_json_shapes():
    assert term_to_json(IRI("urn:x")) == {"kind": "iri", "value": "urn:x"}
    assert term_to_json(Literal("hi")) == {"kind": "literal", "value": "hi"}
    assert term_to_json(Literal("hi", language="en")) == {
        "kind": "literal",
        "value": "hi",
        "language": "en",
    }
    assert term_to_json(Literal("5", datatype=XSD_INTEGER)) == {
        "kind": "literal",
        "value": "5",
        "datatype": XSD_INTEGER,
    }
    assert binding_to_json({"b": IRI("urn:x"), "a": Literal("1")}) == {
        "a": {"kind": "literal", "value": "1"},
        "b": {"kind": "iri", "value": "urn:x"},
    }


# --- semantic properties over random inputs ------------------------------------------


def _canonical(result):
    return {frozen_row(row) for row in result}


def test_join_order_does_not_change_solutions():
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        graph = random_graph(rng, 16)
        query = random_query(rng, graph)
        if query.form != "SELECT" or not (2 <= len(query.patterns) <= 3):
            continue
        baseline = _canonical(evaluate(query, graph))
        for permutation in itertools.permutations(query.patterns):
            permuted = Query(query.form, query.projected, tuple(permutation), query.filters)
            assert _canonical(evaluate(permuted, graph)) == baseline
        checked += 1


def test_ask_agrees_with_select_nonemptiness():
    rng = random.Random(12)
    for _ in range(150):
        graph = random_graph(rng, 16)
        query = random_query(rng, graph)
        as_ask = Query("ASK", None, query.patterns, query.filters)
        as_select = Query("SELECT", None, query.patterns, query.filters)
        assert evaluate(as_ask, graph) is (len(evaluate(as_select, graph)) > 0)


def test_solutions_grow_monotonically_without_filters():
    rng = random.Random(13)
    for _ in range(80):
        graph = random_graph(rng, 12)
        query = random_query(rng, graph)
        query = Query("SELECT", None, query.patterns, ())
        before = _canonical(evaluate(query, graph))
        grown = graph.union(Graph([random_triple(rng)]))
        after = _canonical(evaluate(query, grown))
        assert before <= after


def test_evaluator_matches_exhaustive_enumeration():
    rng = random.Random(14)
    for _ in range(150):
        graph = random_graph(rng, 20)
        query = random_query(rng, graph)
        got = evaluate(query, graph)
        if query.form == "ASK":
            assert got is brute_force_ask(query, graph)
        else:
            assert _canonical(got) == brute_force_select(query, graph)
            # distinct rows in canonical order: the one place order is made
            keys = [sorted((name, term_text(term)) for name, term in row.items()) for row in got]
            assert keys == sorted(keys) and len(set(map(tuple, keys))) == len(keys)


def test_only_the_query_engine_filters_and_orders_solutions():
    """Filters are applied by the join and canonical order is made by
    `evaluate`, both in sparql.py; no other module of the package filters
    bindings or keys them for ordering."""
    users = set()
    for path in sorted(Path(giots.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                named = {alias.name for alias in node.names}
            elif isinstance(node, ast.FunctionDef):
                named = {node.name}
            else:
                named = {node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)}
            if named & {"eval_filter", "_binding_key"}:
                users.add(path.name)
    assert users == {"sparql.py"}


# Characters significant to the N-Triples or the SPARQL grammar, with
# letters, digits and words they spell.
_SIGNIFICANT = list('<>"\\_:@^.#?{}()=!&|\r\n\t ')
_WORDS = ["ASK", "SELECT", "WHERE", "FILTER", "PREFIX", "DISTINCT", "urn:a", "en", "true", "1.5"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_SIGNIFICANT), st.sampled_from(_WORDS),
                          st.sampled_from(string.ascii_letters + string.digits)),
                max_size=40).map("".join))
@example('<urn:s> <urn:p> "a\rb" .')
@example('ASK { ?s ?p "a\rb" }')
@example("ASK { ?s ?p ?o FILTER(" + "!" * 5000 + "?o = 1) }")
def test_each_parser_returns_its_result_or_raises_its_own_syntax_error(text):
    try:
        assert isinstance(parse_ntriples(text), Graph)
    except NTriplesError:
        pass
    try:
        assert isinstance(parse_sparql(text), Query)
    except SparqlSyntaxError:
        pass


def test_only_rdf_defines_the_lexical_rules_of_terms():
    """The escape table and the language-tag pattern are written once, in
    rdf.py; sparql.py reads them through public names of rdf."""
    escape_tables, tag_patterns, private_imports = set(), set(), set()
    for path in sorted(Path(giots.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Dict):
                keys = {key.value for key in node.keys if isinstance(key, ast.Constant)}
                if {'"', "\\", "n", "t"} <= keys:
                    escape_tables.add(path.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if "-[A-Za-z0-9]" in node.value:
                    tag_patterns.add(path.name)
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "rdf":
                private_imports |= {(path.name, alias.name) for alias in node.names
                                    if alias.name.startswith("_")}
    assert escape_tables == {"rdf.py"}
    assert tag_patterns == {"rdf.py"}
    assert private_imports == set()


def test_a_parse_is_cached_by_text_and_a_syntax_error_is_not():
    text = "ASK { ?s <urn:p> ?o }"
    assert parse_sparql(text) is parse_sparql(text)
    assert parse_sparql(text) == parse_sparql("ASK  { ?s <urn:p> ?o }")  # equal, parsed apart
    for _ in range(3):  # refused every time, not only when first seen
        with pytest.raises(SparqlSyntaxError):
            parse_sparql("ASK { ?s <urn:p> ")


_CASE_DIGEST = """
import hashlib, random
from oracles import random_graph, random_query
rng, digest = random.Random(4101), hashlib.sha256()
for _ in range(1000):
    digest.update(repr(random_query(rng, random_graph(rng, 50))).encode())
print(digest.hexdigest())
"""


def test_the_query_gate_draws_the_same_cases_under_every_hash_seed():
    """The query-evaluation acceptance gate's 1 000 cases (seed 4101) do not
    depend on the string hash seed, so every run checks the same set."""
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests), str(Path(giots.__file__).parent.parent)])
    digests = {
        subprocess.run([sys.executable, "-c", _CASE_DIGEST], capture_output=True, text=True, check=True,
                       env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "2")
    }
    assert len(digests) == 1
