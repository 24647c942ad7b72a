"""Four-point validation of semantic artifacts: ontology consistency,
annotation conformance, rule non-contradiction and query syntax. Every
check produces a timed report whose errors carry a category (syntactic,
semantic or logical) and a location.

Also exposed as a webservice with a minimal built-in submit page.
"""

from __future__ import annotations

import json
import time
import urllib.parse
from dataclasses import dataclass
from typing import Any, Iterable

from .httpkit import HttpRequest, HttpResponse, JsonHttpService, bad_request
from .ontology import (
    DATATYPES,
    KNOWN_DATATYPES,
    RDFS_RANGE,
    EMPTY_ONTOLOGY,
    Ontology,
    StructuralError,
    load_ontology,
)
from .rdf import (
    CTX_NS,
    IRI,
    MED_NS,
    OWL_NS,
    RDF_NS,
    RDF_TYPE,
    RDFS_NS,
    Graph,
    Literal,
    NTriplesError,
    Triple,
    parse_ntriples,
    term_text,
)
from .rules import (
    ClosureLimitExceeded,
    Rule,
    RuleBase,
    RuleFormatError,
    forward_chain,
    parse_rule_json,
)
from .sparql import SparqlSyntaxError, parse_sparql

SYNTACTIC = "syntactic"
SEMANTIC = "semantic"
LOGICAL = "logical"

# Predicates from these namespaces are legitimate in annotations even
# without an explicit declaration in the active ontology.
DEFAULT_ANNOTATION_NAMESPACES = (RDF_NS, RDFS_NS, OWL_NS, MED_NS, CTX_NS)


@dataclass(frozen=True)
class ValidationError:
    category: str
    location: str
    message: str

    def to_json(self) -> dict:
        return {"category": self.category, "location": self.location, "message": self.message}


@dataclass(frozen=True)
class ValidationReport:
    duration_millis: int
    passed: bool
    errors: tuple[ValidationError, ...]

    def to_json(self) -> dict:
        return {
            "durationMillis": self.duration_millis,
            "passed": self.passed,
            "errors": [e.to_json() for e in self.errors],
        }


def _report(errors: Iterable[ValidationError], started: float) -> ValidationReport:
    duration = max(0, round((time.perf_counter() - started) * 1000))
    ordered = tuple(sorted(errors, key=lambda e: (e.category, e.location, e.message)))
    return ValidationReport(duration, passed=not ordered, errors=ordered)


# --- point 1: ontology consistency ---------------------------------------------


def _strongly_connected(onto: Ontology) -> list[frozenset[str]]:
    """Subclass cycles: groups of two or more classes that reach each
    other (quadratic walk; ontologies here are small)."""
    components: set[frozenset[str]] = set()
    for sub, _ in onto.subclass_edges:
        group = frozenset(
            sup for sup in onto.superclasses_of(sub) if sub in onto.superclasses_of(sup)
        )
        if len(group) >= 2:
            components.add(group)
    return sorted(components, key=sorted)


def check_ontology(candidate: Graph, reference: Ontology) -> list[ValidationError]:
    errors: list[ValidationError] = []
    candidate_onto = load_ontology(candidate)
    merged = candidate_onto.merge(reference)

    for component in _strongly_connected(merged):
        members = sorted(component)
        errors.append(
            ValidationError(
                LOGICAL, members[0],
                "subclass cycle among " + ", ".join(members),
            )
        )

    for cls in sorted(merged.classes):
        supers = merged.superclasses_of(cls)
        for a, b in sorted(merged.disjoint_pairs):
            if a in supers and b in supers:
                errors.append(
                    ValidationError(
                        LOGICAL, cls,
                        f"class is subsumed by disjoint classes {a} and {b}",
                    )
                )

    known = merged.classes
    for prop in sorted(candidate_onto.properties):
        decl = candidate_onto.properties[prop]
        if decl.domain is not None and decl.domain not in known:
            errors.append(
                ValidationError(
                    SEMANTIC, prop, f"domain references undefined class {decl.domain}"
                )
            )
        if (
            decl.range is not None
            and decl.range not in known
            and decl.range not in KNOWN_DATATYPES
        ):
            errors.append(
                ValidationError(
                    SEMANTIC, prop, f"range references undefined class {decl.range}"
                )
            )

    # Conflicting ranges: load_ontology collapses multi-valued declarations,
    # so detect them on the raw triples, including clashes with the reference.
    declared_ranges: dict[str, set[str]] = {}
    for triple in candidate:
        if triple.predicate.value == RDFS_RANGE and isinstance(triple.object, IRI):
            if isinstance(triple.subject, IRI):
                declared_ranges.setdefault(triple.subject.value, set()).add(
                    triple.object.value
                )
    for prop in sorted(declared_ranges):
        ranges = set(declared_ranges[prop])
        ref_decl = reference.lookup_property(prop)
        if ref_decl is not None and ref_decl.range is not None:
            ranges.add(ref_decl.range)
        if len(ranges) > 1:
            errors.append(
                ValidationError(
                    LOGICAL, prop,
                    "property declared with conflicting ranges " + ", ".join(sorted(ranges)),
                )
            )
    return errors


def validate_ontology(text: str, reference: Ontology = EMPTY_ONTOLOGY) -> ValidationReport:
    started = time.perf_counter()
    try:
        candidate = parse_ntriples(text)
        errors = check_ontology(candidate, reference)
    except NTriplesError as exc:
        errors = [ValidationError(SYNTACTIC, f"line {exc.line}", str(exc))]
    except StructuralError as exc:
        errors = [ValidationError(SYNTACTIC, "ontology", str(exc))]
    return _report(errors, started)


# --- point 2: annotation conformance --------------------------------------------


def lexical_valid(datatype: str, lexical: str) -> bool:
    pattern, _ = DATATYPES.get(datatype, (None, None))  # None: any text
    return pattern is None or pattern.fullmatch(lexical) is not None


def check_annotation(descriptor: Graph, declared: Ontology) -> list[ValidationError]:
    errors: list[ValidationError] = []
    seen_undeclared: set[str] = set()
    for triple in descriptor:
        predicate = triple.predicate.value
        decl = declared.lookup_property(predicate)
        if decl is None and not predicate.startswith(DEFAULT_ANNOTATION_NAMESPACES):
            if predicate not in seen_undeclared:
                seen_undeclared.add(predicate)
                errors.append(
                    ValidationError(
                        SEMANTIC, predicate,
                        "predicate is not declared in the active ontology",
                    )
                )
            continue
        if decl is None or decl.range is None:
            continue
        if decl.range in KNOWN_DATATYPES:
            if isinstance(triple.object, Literal) and not lexical_valid(
                decl.range, triple.object.lexical
            ):
                errors.append(
                    ValidationError(
                        SEMANTIC, predicate,
                        f"incompatible data type: {triple.object.lexical!r} "
                        f"is not a valid {decl.range.rsplit('#', 1)[-1]}",
                    )
                )
        elif isinstance(triple.object, Literal):
            errors.append(
                ValidationError(
                    SEMANTIC, predicate,
                    f"literal object for a property whose range is class {decl.range}",
                )
            )
    return errors


def validate_annotation(text: str, declared: Ontology = EMPTY_ONTOLOGY) -> ValidationReport:
    started = time.perf_counter()
    try:
        descriptor = parse_ntriples(text)
        errors = check_annotation(descriptor, declared)
    except NTriplesError as exc:
        errors = [ValidationError(SYNTACTIC, f"line {exc.line}", str(exc))]
    return _report(errors, started)


# --- point 3: rule non-contradiction ---------------------------------------------


def _witness_instance(cls: str) -> IRI:
    return IRI("urn:witness:" + urllib.parse.quote(cls, safe=""))


def default_witness(onto: Ontology) -> Graph:
    """Canonical ground facts for contradiction checks: one instance per
    class, one triple per declared property."""
    triples = []
    for cls in sorted(onto.classes):
        triples.append(Triple(_witness_instance(cls), IRI(RDF_TYPE), IRI(cls)))
    for prop_iri in sorted(onto.properties):
        decl = onto.properties[prop_iri]
        subject = (
            _witness_instance(decl.domain) if decl.domain else IRI("urn:witness:thing")
        )
        if decl.range is None:
            obj = Literal("value")
        elif decl.range in KNOWN_DATATYPES:
            obj = Literal(DATATYPES[decl.range][1], datatype=decl.range)
        else:
            obj = _witness_instance(decl.range)
        triples.append(Triple(subject, IRI(prop_iri), obj))
    return Graph(triples)


def check_rule(
    candidate: Rule,
    base: RuleBase,
    onto: Ontology,
    witness: Graph,
) -> list[ValidationError]:
    errors: list[ValidationError] = []
    if candidate.rule_id in base.ids():
        errors.append(
            ValidationError(
                SYNTACTIC, candidate.rule_id,
                "ruleId already present in the rule base",
            )
        )
        return errors
    try:
        derived = forward_chain(witness, list(base.rules) + [candidate])
    except ClosureLimitExceeded as exc:
        errors.append(
            ValidationError(
                LOGICAL, candidate.rule_id,
                f"non-terminating closure: more than {exc.limit} derived triples",
            )
        )
        return errors
    except ValueError as exc:  # an unsafe rule, which the closure refuses
        errors.append(ValidationError(SYNTACTIC, candidate.rule_id, str(exc)))
        return errors
    closure = witness.union(derived)

    functional = {iri for iri, decl in onto.properties.items() if decl.functional}
    values: dict[tuple[str, str], set[str]] = {}
    for triple in closure:
        prop = triple.predicate.value
        if prop in functional:
            values.setdefault((term_text(triple.subject), prop), set()).add(
                term_text(triple.object)
            )
    for (subject, prop), objects in sorted(values.items()):
        if len(objects) > 1:
            errors.append(
                ValidationError(
                    LOGICAL, prop,
                    f"functional property takes {len(objects)} distinct values "
                    f"on {subject}: " + ", ".join(sorted(objects)),
                )
            )

    types: dict[str, set[str]] = {}
    for triple in closure:
        if triple.predicate.value == RDF_TYPE and isinstance(triple.object, IRI):
            types.setdefault(term_text(triple.subject), set()).add(triple.object.value)
    for subject in sorted(types):
        supers: set[str] = set()
        for cls in types[subject]:
            supers |= onto.superclasses_of(cls)
        for a, b in sorted(onto.disjoint_pairs):
            if a in supers and b in supers:
                errors.append(
                    ValidationError(
                        LOGICAL, subject,
                        f"subject is typed into disjoint classes {a} and {b}",
                    )
                )
    return errors


def validate_rule(
    candidate_json: Any,
    base: RuleBase | None = None,
    onto: Ontology = EMPTY_ONTOLOGY,
    witness: Graph | None = None,
    prefixes: dict[str, str] | None = None,
) -> ValidationReport:
    started = time.perf_counter()
    base = base or RuleBase([])
    try:
        candidate = parse_rule_json(candidate_json, prefixes)
    except (RuleFormatError, SparqlSyntaxError, ValueError) as exc:
        rule_id = ""
        if isinstance(candidate_json, dict) and isinstance(candidate_json.get("ruleId"), str):
            rule_id = candidate_json["ruleId"]
        return _report(
            [ValidationError(SYNTACTIC, rule_id or "rule", str(exc))], started
        )
    if witness is None:
        witness = default_witness(onto)
    return _report(check_rule(candidate, base, onto, witness), started)


# --- point 4: query syntax ---------------------------------------------------------


def validate_sparql(text: str) -> ValidationReport:
    started = time.perf_counter()
    errors: list[ValidationError] = []
    try:
        parse_sparql(text)
    except SparqlSyntaxError as exc:
        errors.append(ValidationError(SYNTACTIC, f"offset {exc.position}", exc.message))
    return _report(errors, started)


# --- one way in ---------------------------------------------------------------------

VALIDATION_KINDS = ("ontology", "annotation", "rule", "sparql")


def validate(kind: str, text: str, reference: Ontology = EMPTY_ONTOLOGY) -> ValidationReport:
    """Validate an artifact as the service and the command line receive it.
    A rule is a JSON document that may carry a ``base`` list of rules, a
    ``witness`` N-Triples string and ``prefixes``; a bad base rule or
    witness line is a syntactic error. Raises ValueError for a request
    that cannot be validated: an unknown kind, a rule document that is not
    a JSON object, a base that is not a list, a witness that is not a
    string, or duplicate base rule ids."""
    if kind not in VALIDATION_KINDS:
        raise ValueError(f"unknown validation kind '{kind}'; expected one of "
                         + ", ".join(VALIDATION_KINDS))
    if kind == "ontology":
        return validate_ontology(text, reference)
    if kind == "annotation":
        return validate_annotation(text, reference)
    if kind == "sparql":
        return validate_sparql(text)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"rule document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("rule payload must be a JSON object")
    raw_base, raw_witness, prefixes = doc.get("base", []), doc.get("witness"), doc.get("prefixes")
    if not isinstance(raw_base, list):
        raise ValueError("'base' must be a list of rules")
    if raw_witness is not None and not isinstance(raw_witness, str):
        raise ValueError("'witness' must be an N-Triples string")
    started = time.perf_counter()
    errors, base_rules, witness = [], [], None
    for raw_rule in raw_base:
        try:
            base_rules.append(parse_rule_json(raw_rule, prefixes))
        except (RuleFormatError, SparqlSyntaxError, ValueError) as exc:
            errors.append(ValidationError(SYNTACTIC, "base", str(exc)))
    if raw_witness is not None:
        try:
            witness = parse_ntriples(raw_witness)
        except NTriplesError as exc:
            errors.append(ValidationError(SYNTACTIC, f"witness line {exc.line}", str(exc)))
    if errors:
        return _report(errors, started)
    return validate_rule(doc, RuleBase(base_rules), reference, witness, prefixes)


# --- webservice ---------------------------------------------------------------------

_SUBMIT_PAGE = """<!DOCTYPE html>
<html>
<head><meta charset="utf-8"><title>Semantic validation</title></head>
<body>
<h1>Semantic validation</h1>
<p>Submit an ontology or annotation (N-Triples), a rule (JSON), or a
SPARQL query. The report lists each problem with its category.</p>
<form id="f">
  <label>Kind:
    <select id="kind">
      <option>ontology</option>
      <option>annotation</option>
      <option>rule</option>
      <option>sparql</option>
    </select>
  </label><br>
  <textarea id="payload" rows="16" cols="88" spellcheck="false"></textarea><br>
  <button type="submit">Validate</button>
</form>
<pre id="out"></pre>
<script>
document.getElementById("f").addEventListener("submit", async (ev) => {
  ev.preventDefault();
  const kind = document.getElementById("kind").value;
  const body = document.getElementById("payload").value;
  const response = await fetch("/validate/" + kind, {method: "POST", body});
  document.getElementById("out").textContent =
    JSON.stringify(await response.json(), null, 2);
});
</script>
</body>
</html>
"""


class ValidatorService(JsonHttpService):
    name = "validator"

    def __init__(self, reference: Ontology | None = None):
        super().__init__()
        self.reference = reference or EMPTY_ONTOLOGY
        self.router.add("GET", "/", self._page)
        self.router.add("POST", "/reference", self._set_reference)
        self.router.add("POST", "/validate/{kind}", self._validate)

    def _page(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(200, raw=_SUBMIT_PAGE.encode("utf-8"),
                            content_type="text/html; charset=utf-8")

    def _set_reference(self, request: HttpRequest) -> HttpResponse:
        try:
            graph = parse_ntriples(request.text())
            self.reference = load_ontology(graph)
        except (NTriplesError, StructuralError) as exc:
            raise bad_request(f"reference ontology rejected: {exc}") from exc
        return HttpResponse(200, {"classes": len(self.reference.classes)})

    def _validate(self, request: HttpRequest) -> HttpResponse:
        try:
            report = validate(request.params["kind"], request.text(), self.reference)
        except ValueError as exc:
            raise bad_request(str(exc)) from exc
        return HttpResponse(200, report.to_json())
