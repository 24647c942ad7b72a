"""giots: a desk-scale semantic interoperability stack for IoT systems.

The package wires five cooperating services around a small RDF core:

- a oneM2M-style resource tree (:mod:`giots.cse`) holding raw sensor data
  and semantic descriptors,
- an NGSI-style context broker (:mod:`giots.broker`) holding harmonized
  entities,
- a mediation gateway (:mod:`giots.smg`) that reads descriptors and turns
  content instances into context updates,
- a validation service (:mod:`giots.validator`) that checks ontologies,
  annotations, rules and queries before they enter the system,
- knowledge processing agents (:mod:`giots.agent`) that derive new context
  attributes with forward-chaining rules.

Everything runs on the standard library; services bind to localhost and
speak JSON over HTTP.
"""

from .rdf import (
    BlankNode,
    Graph,
    IRI,
    Literal,
    NTriplesError,
    Triple,
    TriplePattern,
    Variable,
    parse_ntriples,
    serialize_ntriples,
)
from .ontology import Ontology, PropertyDecl, StructuralError, load_ontology
from .rules import (
    ClosureLimitExceeded,
    DERIVED_PER_BASE_FACT,
    Rule,
    RuleBase,
    forward_chain,
    parse_rule_json,
)
from .sparql import SparqlSyntaxError, evaluate, parse_sparql

__version__ = "0.1.0"

__all__ = [
    "BlankNode",
    "ClosureLimitExceeded",
    "DERIVED_PER_BASE_FACT",
    "Graph",
    "IRI",
    "Literal",
    "NTriplesError",
    "Ontology",
    "PropertyDecl",
    "Rule",
    "RuleBase",
    "SparqlSyntaxError",
    "StructuralError",
    "Triple",
    "TriplePattern",
    "Variable",
    "evaluate",
    "forward_chain",
    "load_ontology",
    "parse_ntriples",
    "parse_rule_json",
    "parse_sparql",
    "serialize_ntriples",
    "__version__",
]
