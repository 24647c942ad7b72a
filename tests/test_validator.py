"""Validation of ontologies, annotations, rules and queries: report
invariants, per-category fault detection, and the HTTP surface."""

import json

import pytest

from giots.httpkit import post_json, request_json
from giots.ontology import EMPTY_ONTOLOGY, load_ontology
from giots.rdf import XSD_NS, parse_ntriples
from giots.rules import RuleBase, parse_rule_json
from giots.validator import (
    check_rule,
    default_witness,
    lexical_valid,
    validate,
    validate_annotation,
    validate_ontology,
    validate_rule,
    validate_sparql,
)

ONT = "http://wise-iot.example/onto#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"

REFERENCE = (
    f"<{ONT}Room> <{RDF}type> <{OWL}Class> .\n"
    f"<{ONT}Sensor> <{RDF}type> <{OWL}Class> .\n"
    f"<{ONT}MeetingRoom> <{RDFS}subClassOf> <{ONT}Room> .\n"
    f"<{ONT}hasTemperature> <{RDFS}domain> <{ONT}Room> .\n"
    f"<{ONT}hasTemperature> <{RDFS}range> <{XSD_NS}decimal> .\n"
    f"<{ONT}hasTemperature> <{RDF}type> <{OWL}FunctionalProperty> .\n"
    f"<{ONT}Room> <{OWL}disjointWith> <{ONT}Sensor> .\n"
)


def _reference_ontology():
    return load_ontology(parse_ntriples(REFERENCE))


def _assert_report_invariants(report):
    assert report["durationMillis"] >= 0
    assert report["passed"] == (report["errors"] == [])
    keys = [(e["category"], e["location"], e["message"]) for e in report["errors"]]
    assert keys == sorted(keys)
    assert all(e["category"] in {"syntactic", "semantic", "logical"} for e in report["errors"])


# --- ontology checks ------------------------------------------------------------


def test_clean_ontology_passes_against_reference():
    report = validate_ontology(REFERENCE, EMPTY_ONTOLOGY)
    assert report.passed and report.errors == ()
    _assert_report_invariants(report.to_json())


def test_subclass_cycle_is_logical():
    text = (
        f"<{ONT}A> <{RDFS}subClassOf> <{ONT}B> .\n"
        f"<{ONT}B> <{RDFS}subClassOf> <{ONT}C> .\n"
        f"<{ONT}C> <{RDFS}subClassOf> <{ONT}A> .\n"
    )
    report = validate_ontology(text)
    assert not report.passed
    (error,) = report.errors
    assert error.category == "logical"
    assert "cycle" in error.message
    # the cycle is reported once, anchored at its smallest member
    assert error.location == ONT + "A"


def test_disjoint_subsumption_clash_is_logical():
    text = REFERENCE + f"<{ONT}RoomSensor> <{RDFS}subClassOf> <{ONT}Room> .\n" + (
        f"<{ONT}RoomSensor> <{RDFS}subClassOf> <{ONT}Sensor> .\n"
    )
    report = validate_ontology(text)
    assert [e.category for e in report.errors] == ["logical"]
    assert "disjoint" in report.errors[0].message


def test_dangling_domain_and_range_are_semantic():
    text = (
        f"<{ONT}hasSeat> <{RDFS}domain> <{ONT}Ghost> .\n"
        f"<{ONT}hasSeat> <{RDFS}range> <{ONT}Phantom> .\n"
    )
    report = validate_ontology(text)
    assert [e.category for e in report.errors] == ["semantic", "semantic"]
    # a range naming a known datatype is fine even if no class declares it
    report = validate_ontology(f"<{ONT}hasSeat> <{RDFS}range> <{XSD_NS}integer> .\n")
    assert report.passed


def test_conflicting_range_against_reference_is_logical():
    candidate = f"<{ONT}hasTemperature> <{RDFS}range> <{XSD_NS}string> .\n"
    report = validate_ontology(candidate, _reference_ontology())
    assert any(
        e.category == "logical" and "conflicting ranges" in e.message for e in report.errors
    )


def test_unparsable_ontology_is_syntactic_with_line():
    report = validate_ontology("<urn:a> <urn:b>\n")
    (error,) = report.errors
    assert error.category == "syntactic"
    assert error.location == "line 1"


# --- annotation checks -------------------------------------------------------------


def test_lexical_validity_table():
    assert lexical_valid(XSD_NS + "integer", "-42")
    assert not lexical_valid(XSD_NS + "integer", "4.2")
    assert lexical_valid(XSD_NS + "decimal", "3.")
    assert not lexical_valid(XSD_NS + "decimal", "warm")
    assert lexical_valid(XSD_NS + "double", "1e3")
    assert lexical_valid(XSD_NS + "double", "-INF")
    assert lexical_valid(XSD_NS + "boolean", "1")
    assert not lexical_valid(XSD_NS + "boolean", "yes")
    assert lexical_valid(XSD_NS + "dateTime", "2026-08-25T10:00:00Z")
    assert not lexical_valid(XSD_NS + "dateTime", "2026-08-25")
    assert lexical_valid(XSD_NS + "date", "2026-08-25")
    assert lexical_valid(XSD_NS + "string", "anything at all")
    assert lexical_valid("http://example.org/custom", "anything at all")


def test_annotation_datatype_mismatch_is_semantic():
    text = f'<urn:room1> <{ONT}hasTemperature> "very warm" .\n'
    report = validate_annotation(text, _reference_ontology())
    (error,) = report.errors
    assert error.category == "semantic"
    assert "incompatible data type" in error.message
    assert error.location == ONT + "hasTemperature"
    # a well-typed value passes
    good = f'<urn:room1> <{ONT}hasTemperature> "21.5" .\n'
    assert validate_annotation(good, _reference_ontology()).passed


def test_undeclared_predicate_reported_once():
    text = (
        f'<urn:room1> <http://elsewhere.example/p> "1" .\n'
        f'<urn:room2> <http://elsewhere.example/p> "2" .\n'
    )
    report = validate_annotation(text, _reference_ontology())
    assert len(report.errors) == 1
    assert report.errors[0].category == "semantic"
    assert "not declared" in report.errors[0].message


def test_mediation_and_base_vocabularies_are_always_allowed():
    text = (
        f'<urn:s> <http://wise-iot.example/mediation#attributeName> "temperature" .\n'
        f"<urn:s> <{RDF}type> <{ONT}Room> .\n"
    )
    report = validate_annotation(text, _reference_ontology())
    assert report.passed


def test_literal_for_object_property_is_semantic():
    reference = load_ontology(
        parse_ntriples(
            f"<{ONT}Room> <{RDF}type> <{OWL}Class> .\n"
            f"<{ONT}locatedIn> <{RDFS}range> <{ONT}Room> .\n"
        )
    )
    report = validate_annotation(f'<urn:s> <{ONT}locatedIn> "kitchen" .\n', reference)
    (error,) = report.errors
    assert error.category == "semantic"
    assert "range is class" in error.message


# --- rule checks -----------------------------------------------------------------------


def _rule(rule_id="r1", body=None, head=None):
    return {
        "ruleId": rule_id,
        "body": body or [f"?room <{RDF}type> <{ONT}MeetingRoom>"],
        "head": head or [f'?room <{ONT}hasTemperature> "99.0"'],
    }


def test_default_witness_covers_classes_and_properties():
    onto = _reference_ontology()
    witness = default_witness(onto)
    type_triples = [t for t in witness if t.predicate.value == RDF + "type"]
    assert len(type_triples) == len(onto.classes)
    # the functional property gets exactly one sample triple with a typed literal
    samples = [t for t in witness if t.predicate.value == ONT + "hasTemperature"]
    assert len(samples) == 1
    assert samples[0].object.datatype == XSD_NS + "decimal"


def test_clean_rule_passes():
    report = validate_rule(
        _rule(head=[f'?room <http://wise-iot.example/context#occupied> "true"']),
        onto=_reference_ontology(),
    )
    assert report.passed
    _assert_report_invariants(report.to_json())


def test_unsafe_rule_is_syntactic():
    unsafe = _rule(head=[f'?elsewhere <{ONT}p> "1"'])
    (error,) = validate_rule(unsafe).errors
    assert error.category == "syntactic" and "unsafe" in error.message
    # the closure alone checks safety, so a duplicate is reported before it
    assert (error.location, error.message) == ("r1", "rule 'r1' is unsafe: head variable(s) "
                                               "elsewhere not bound by the body")
    (error,) = validate_rule(unsafe, base=RuleBase([parse_rule_json(_rule())])).errors
    assert "already present" in error.message


def test_duplicate_rule_id_is_syntactic():
    base = RuleBase([parse_rule_json(_rule())])
    report = validate_rule(_rule(), base=base, onto=_reference_ontology())
    (error,) = report.errors
    assert error.category == "syntactic" and "already present" in error.message


def test_functional_clash_is_logical():
    # the witness already carries one hasTemperature sample; deriving a second
    # distinct value violates the functional declaration
    report = validate_rule(
        _rule(
            body=[f"?room <{RDF}type> <{ONT}Room>"],
            head=[f'?room <{ONT}hasTemperature> "123.0"'],
        ),
        onto=_reference_ontology(),
        witness=parse_ntriples(
            f"<urn:w:r1> <{RDF}type> <{ONT}Room> .\n"
            f'<urn:w:r1> <{ONT}hasTemperature> "21.0"^^<{XSD_NS}decimal> .\n'
        ),
    )
    assert [e.category for e in report.errors] == ["logical"]
    assert "functional property" in report.errors[0].message


def test_disjoint_typing_clash_is_logical():
    report = validate_rule(
        _rule(
            body=[f"?x <{RDF}type> <{ONT}Room>"],
            head=[f"?x <{RDF}type> <{ONT}Sensor>"],
        ),
        onto=_reference_ontology(),
        witness=parse_ntriples(f"<urn:w:r1> <{RDF}type> <{ONT}Room> .\n"),
    )
    assert any(
        e.category == "logical" and "disjoint" in e.message for e in report.errors
    )


def test_nonterminating_rule_base_is_logical():
    # each derived member spawns a fresh pair, blowing through the closure cap
    witness = parse_ntriples(
        "".join(f"<urn:n{i}> <urn:linked> <urn:n{i + 1}> .\n" for i in range(40))
    )
    report = validate_rule(
        {
            "ruleId": "explode",
            "body": ["?a <urn:linked> ?b", "?c <urn:linked> ?d"],
            "head": ["?a <urn:linked> ?d"],
        },
        witness=witness,
    )
    assert any(
        e.category == "logical" and "non-terminating" in e.message for e in report.errors
    )


def test_malformed_rule_document_is_syntactic():
    report = validate_rule({"ruleId": "broken", "body": [], "head": ["?x <urn:p> ?x"]})
    (error,) = report.errors
    assert error.category == "syntactic"
    assert error.location == "broken"


def test_check_rule_runs_against_base_rules_too():
    onto = _reference_ontology()
    base = RuleBase(
        [
            parse_rule_json(
                {
                    "ruleId": "base-1",
                    "body": [f"?x <{RDF}type> <{ONT}MeetingRoom>"],
                    "head": [f"?x <{RDF}type> <{ONT}Sensor>"],
                }
            )
        ]
    )
    candidate = parse_rule_json(
        {
            "ruleId": "cand",
            "body": [f"?x <{RDF}type> <{ONT}Room>"],
            "head": [f"?x <{RDF}type> <{ONT}MeetingRoom>"],
        }
    )
    witness = parse_ntriples(f"<urn:w:x> <{RDF}type> <{ONT}Room> .\n")
    errors = check_rule(candidate, base, onto, witness)
    # the clash only appears when the candidate feeds the existing base rule
    assert any("disjoint" in e.message for e in errors)


# --- query checks ---------------------------------------------------------------------


def test_sparql_reports_offset_and_message():
    assert validate_sparql("SELECT ?s WHERE { ?s ?p ?o }").passed
    report = validate_sparql("SELECT ?s WHERE { ?s ?p }")
    (error,) = report.errors
    assert error.category == "syntactic"
    assert error.location.startswith("offset ")


# --- HTTP surface ------------------------------------------------------------------------


def test_validate_endpoints_and_reference_upload(validator_server):
    url = validator_server.url
    status, report = request_json(
        "POST", url + "/validate/sparql", body="ASK { ?s ?p ?o }"
    )
    assert status == 200 and report["passed"]
    _assert_report_invariants(report)

    # before the reference is set, the annotation refers to unknown terms
    annotation = f'<urn:room1> <{ONT}hasTemperature> "warm" .\n'
    status, report = request_json(
        "POST", url + "/validate/annotation", body=annotation
    )
    assert status == 200
    assert [e["message"] for e in report["errors"]] == [
        "predicate is not declared in the active ontology"
    ]

    status, payload = request_json("POST", url + "/reference", body=REFERENCE)
    assert status == 200 and payload["classes"] == 3

    status, report = request_json(
        "POST", url + "/validate/annotation", body=annotation
    )
    assert status == 200
    assert "incompatible data type" in report["errors"][0]["message"]

    status, _ = request_json("POST", url + "/reference", body="<urn:a> nope\n")
    assert status == 400
    status, _ = request_json("POST", url + "/validate/recipe", body="")
    assert status == 400


def test_rule_endpoint_accepts_base_witness_and_prefixes(validator_server):
    url = validator_server.url + "/validate/rule"
    payload = {
        "ruleId": "wire-rule",
        "prefixes": {"ont": ONT, "rdf": RDF},
        "body": ["?x rdf:type ont:Room"],
        "head": ["?x rdf:type ont:Sensor"],
        "base": [],
        "witness": f"<urn:w:x> <{RDF}type> <{ONT}Room> .\n",
    }
    status, report = post_json(url, payload)
    assert status == 200 and report["passed"]  # empty reference: no disjointness known

    status, report = post_json(url, {**payload, "witness": "broken"})
    assert status == 200 and not report["passed"]
    assert report["errors"][0]["location"].startswith("witness line")

    for prefixes in (7, {"ont": 5}):  # not an object of prefix names to IRI strings
        status, report = post_json(url, {**payload, "prefixes": prefixes})
        assert status == 200
        assert [(e["category"], e["location"]) for e in report["errors"]] == [
            ("syntactic", "wire-rule")
        ]

    status, report = post_json(
        url, {**payload, "base": [{"ruleId": "wire-rule", "body": payload["body"],
                                   "head": payload["head"]}]},
    )
    assert status == 200
    assert any("already present" in e["message"] for e in report["errors"])

    status, _ = post_json(url, {**payload, "base": "not-a-list"})
    assert status == 400
    status, _ = post_json(url, ["not", "an", "object"])
    assert status == 400


def test_a_bad_base_rule_or_witness_line_is_a_syntactic_error_in_a_report(validator_server):
    rule = _rule(body=[f"?x <{RDF}type> <{ONT}Room>"], head=[f"?x <{RDF}type> <{ONT}Sensor>"])
    for extra, location in (({"base": [{"ruleId": "half"}]}, "base"),
                            ({"witness": "<urn:a> <urn:p> .\n"}, "witness line 1")):
        body = json.dumps({**rule, **extra})
        status, report = request_json("POST", validator_server.url + "/validate/rule", body=body)
        assert status == 200
        assert [(e["category"], e["location"]) for e in report["errors"]] == [("syntactic", location)]
        assert validate("rule", body).to_json()["errors"] == report["errors"]


@pytest.mark.parametrize(
    ("kind", "body"),
    [
        ("recipe", "ASK { ?s ?p ?o }"),
        ("rule", json.dumps(["not", "an", "object"])),
        ("rule", json.dumps({**_rule(), "base": "not-a-list"})),
        ("rule", json.dumps({**_rule(), "witness": 7})),
        ("rule", json.dumps({**_rule("cand"), "base": [_rule(), _rule()]})),
    ],
    ids=["unknown-kind", "rule-not-an-object", "base-not-a-list", "witness-not-a-string",
         "duplicate-base-ids"],
)
def test_an_unusable_validation_request_answers_400(validator_server, kind, body):
    status, payload = request_json("POST", validator_server.url + f"/validate/{kind}", body=body)
    assert status == 400 and payload["error"] == "BadRequest"
    with pytest.raises(ValueError):
        validate(kind, body)


def test_submit_page_served(validator_server):
    import urllib.request

    with urllib.request.urlopen(validator_server.url + "/") as response:
        assert response.status == 200
        assert "text/html" in response.headers["Content-Type"]
        assert b"Semantic validation" in response.read()


# --- corpus spot checks --------------------------------------------------------------------


def _corpus(name):
    from conftest import CORPUS_DIR

    return (CORPUS_DIR / name).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    ("name", "kind", "category"),
    [
        ("ontology-clean-meeting-room.nt", "ontology", None),
        ("ontology-fault-cycle.nt", "ontology", "logical"),
        ("annotation-clean-room123.nt", "annotation", None),
        ("annotation-fault-undeclared-term.nt", "annotation", "semantic"),
        ("rule-clean-occupied.json", "rule", None),
        ("rule-fault-unsafe.json", "rule", "syntactic"),
        ("sparql-clean-select.rq", "sparql", None),
        ("sparql-fault-unbalanced.rq", "sparql", "syntactic"),
    ],
)
def test_corpus_samples(validator_server, name, kind, category):
    status, _ = request_json(
        "POST", validator_server.url + "/reference", body=_corpus("reference.nt")
    )
    assert status == 200
    status, report = request_json(
        "POST", validator_server.url + f"/validate/{kind}", body=_corpus(name)
    )
    assert status == 200
    _assert_report_invariants(report)
    if category is None:
        assert report["passed"], report["errors"]
    else:
        assert not report["passed"]
        assert category in {e["category"] for e in report["errors"]}
