"""Ontology model with RDFS-level subsumption reasoning.

Ontologies are loaded from RDF graphs using a small vocabulary subset
(class/property typing, subClassOf, domain/range, functional properties,
disjointness). Reasoning is subclass reachability only; cycle and
contradiction detection is the validation service's job.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .rdf import Graph, IRI, Literal, OWL_NS, RDFS_NS, RDF_NS, XSD_NS

OWL_CLASS = OWL_NS + "Class"
RDFS_CLASS = RDFS_NS + "Class"
RDFS_SUBCLASS_OF = RDFS_NS + "subClassOf"
RDF_PROPERTY = RDF_NS + "Property"
RDFS_DOMAIN = RDFS_NS + "domain"
RDFS_RANGE = RDFS_NS + "range"
OWL_FUNCTIONAL = OWL_NS + "FunctionalProperty"
OWL_DISJOINT_WITH = OWL_NS + "disjointWith"

_INTEGER = re.compile(r"[+-]?[0-9]+")
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")
_DOUBLE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[+-]?INF|NaN")
_DATE = r"-?[0-9]{4}-[0-9]{2}-[0-9]{2}"
_TIME = r"[0-9]{2}:[0-9]{2}:[0-9]{2}(?:\.[0-9]+)?"
_TZ = r"(?:Z|[+-][0-9]{2}:[0-9]{2})?"

# Each XSD datatype a property's range may name: the pattern its lexical
# forms fully match (None: any text) and a sample value.
DATATYPES: dict[str, tuple[re.Pattern | None, str]] = {
    XSD_NS + "string": (None, "value"),
    XSD_NS + "integer": (_INTEGER, "0"),
    XSD_NS + "long": (_INTEGER, "0"),
    XSD_NS + "int": (_INTEGER, "0"),
    XSD_NS + "decimal": (_DECIMAL, "0.0"),
    XSD_NS + "double": (_DOUBLE, "0.0"),
    XSD_NS + "float": (_DOUBLE, "0.0"),
    XSD_NS + "boolean": (re.compile("true|false|1|0"), "true"),
    XSD_NS + "dateTime": (re.compile(_DATE + "T" + _TIME + _TZ), "2000-01-01T00:00:00Z"),
    XSD_NS + "date": (re.compile(_DATE + _TZ), "2000-01-01"),
    XSD_NS + "time": (re.compile(_TIME + _TZ), "00:00:00"),
    XSD_NS + "anyURI": (None, "urn:example:value"),
}
KNOWN_DATATYPES = frozenset(DATATYPES)


class StructuralError(ValueError):
    """An ontology graph uses the vocabulary in a structurally invalid way."""


@dataclass(frozen=True)
class PropertyDecl:
    iri: str
    domain: str | None = None
    range: str | None = None
    functional: bool = False

    def to_json(self) -> dict:
        return {"iri": self.iri, "domain": self.domain, "range": self.range, "functional": self.functional}


def _reachable(edges: dict[str, set[str]], start: str) -> set[str]:
    """Every node reachable from start along the edges, start included."""
    seen = {start}
    stack = [start]
    while stack:
        for node in edges.get(stack.pop(), ()):
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return seen


class Ontology:
    """Classes, subclass edges, property declarations and disjoint pairs.

    Value semantics: two ontologies loaded from the same graph compare equal.
    """

    def __init__(
        self,
        classes=(),
        subclass_edges=(),
        properties: dict[str, PropertyDecl] | None = None,
        disjoint_pairs=(),
    ):
        self.classes: frozenset[str] = frozenset(classes)
        self.subclass_edges: frozenset[tuple[str, str]] = frozenset(subclass_edges)
        self.properties: dict[str, PropertyDecl] = dict(properties or {})
        self.disjoint_pairs: frozenset[tuple[str, str]] = frozenset(
            tuple(sorted(pair)) for pair in disjoint_pairs
        )
        self._supers: dict[str, set[str]] = {}
        self._subs: dict[str, set[str]] = {}
        for sub, sup in self.subclass_edges:
            self._supers.setdefault(sub, set()).add(sup)
            self._subs.setdefault(sup, set()).add(sub)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ontology):
            return NotImplemented
        return (
            self.classes == other.classes
            and self.subclass_edges == other.subclass_edges
            and self.properties == other.properties
            and self.disjoint_pairs == other.disjoint_pairs
        )

    def __hash__(self) -> int:
        return hash((self.classes, self.subclass_edges, frozenset(self.properties.items()), self.disjoint_pairs))

    def is_subclass(self, sub: str, sup: str) -> bool:
        """Reflexive-transitive reachability along subClassOf edges.

        Unknown classes are subclasses only of themselves. Cycles in the
        edge set are tolerated (visited-set walk).
        """
        return sup in self.superclasses_of(sub)

    def subclasses_of(self, cls: str) -> set[str]:
        """Every class X with is_subclass(X, cls), including cls itself."""
        return _reachable(self._subs, cls)

    def superclasses_of(self, cls: str) -> set[str]:
        return _reachable(self._supers, cls)

    def lookup_property(self, iri: str) -> PropertyDecl | None:
        return self.properties.get(iri)

    def merge(self, other: "Ontology") -> "Ontology":
        """Union of both ontologies; this side's property declarations win."""
        properties = dict(other.properties)
        properties.update(self.properties)
        return Ontology(
            self.classes | other.classes,
            self.subclass_edges | other.subclass_edges,
            properties,
            self.disjoint_pairs | other.disjoint_pairs,
        )


EMPTY_ONTOLOGY = Ontology()


def _iri_endpoint(term, relation: str) -> str:
    if isinstance(term, Literal):
        raise StructuralError(f"{relation} endpoint may not be a literal: {term.lexical!r}")
    if not isinstance(term, IRI):
        raise StructuralError(f"{relation} endpoint must be an IRI")
    return term.value


def load_ontology(graph: Graph) -> Ontology:
    """Build an Ontology from a graph; unknown predicates are ignored.

    Endpoints of subClassOf/disjointWith/domain/range must be IRIs
    (StructuralError otherwise). Conflicting domain/range declarations
    keep the lexicographically smallest value; the validator flags the
    conflict separately.
    """
    classes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    disjoint: set[tuple[str, str]] = set()
    domains: dict[str, set[str]] = {}
    ranges: dict[str, set[str]] = {}
    declared_props: set[str] = set()
    functional: set[str] = set()

    for triple in graph:
        pred = triple.predicate.value
        if pred == RDF_NS + "type":
            if isinstance(triple.object, IRI) and isinstance(triple.subject, IRI):
                obj = triple.object.value
                if obj in (OWL_CLASS, RDFS_CLASS):
                    classes.add(triple.subject.value)
                elif obj == RDF_PROPERTY:
                    declared_props.add(triple.subject.value)
                elif obj == OWL_FUNCTIONAL:
                    declared_props.add(triple.subject.value)
                    functional.add(triple.subject.value)
        elif pred == RDFS_SUBCLASS_OF:
            sub = _iri_endpoint(triple.subject, "subClassOf")
            sup = _iri_endpoint(triple.object, "subClassOf")
            edges.add((sub, sup))
            classes.update((sub, sup))
        elif pred == OWL_DISJOINT_WITH:
            a = _iri_endpoint(triple.subject, "disjointWith")
            b = _iri_endpoint(triple.object, "disjointWith")
            disjoint.add((a, b))
            classes.update((a, b))
        elif pred == RDFS_DOMAIN:
            prop = _iri_endpoint(triple.subject, "domain")
            domains.setdefault(prop, set()).add(_iri_endpoint(triple.object, "domain"))
            declared_props.add(prop)
        elif pred == RDFS_RANGE:
            prop = _iri_endpoint(triple.subject, "range")
            ranges.setdefault(prop, set()).add(_iri_endpoint(triple.object, "range"))
            declared_props.add(prop)

    properties = {
        iri: PropertyDecl(
            iri,
            domain=min(domains[iri]) if iri in domains else None,
            range=min(ranges[iri]) if iri in ranges else None,
            functional=iri in functional,
        )
        for iri in declared_props
    }
    return Ontology(classes, edges, properties, disjoint)
