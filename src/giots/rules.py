"""Body/head rules over triples and forward chaining to a bounded fixpoint.

One rule formalism serves both the validation service (contradiction
checks) and the processing agents (context derivation). Rules are written
in the compact pattern syntax ``?s <iri> "lit"``; body entries starting
with ``FILTER`` are numeric/boolean constraints on body variables.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .rdf import Graph, Triple, TriplePattern, Variable
from .sparql import FilterExpr, eval_filter, join_bgp, match_bgp, parse_filter, parse_pattern

log = logging.getLogger(__name__)

DERIVATION_LIMIT = 1000


class RuleFormatError(ValueError):
    """A rule document does not parse (missing fields, bad pattern syntax)."""


class ClosureLimitExceeded(RuntimeError):
    def __init__(self, limit: int):
        super().__init__(f"forward chaining exceeded the {limit}-triple derivation bound")
        self.limit = limit


@dataclass(frozen=True)
class Rule:
    rule_id: str
    body: tuple[TriplePattern, ...]
    head: tuple[TriplePattern, ...]
    filters: tuple[FilterExpr, ...] = ()

    def body_variables(self) -> set[str]:
        names: set[str] = set()
        for pattern in self.body:
            names |= pattern.variables()
        return names

    def unsafe_head_variables(self) -> set[str]:
        """Head variables that do not occur in the body (safety violation)."""
        in_body = self.body_variables()
        unsafe: set[str] = set()
        for pattern in self.head:
            unsafe |= pattern.variables() - in_body
        return unsafe


@dataclass
class RuleBase:
    rules: list[Rule] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for rule in self.rules:
            if rule.rule_id in seen:
                raise ValueError(f"duplicate ruleId {rule.rule_id!r}")
            seen.add(rule.rule_id)

    def ids(self) -> set[str]:
        return {r.rule_id for r in self.rules}


def parse_rule_json(obj: dict, prefixes: dict[str, str] | None = None) -> Rule:
    """Parse ``{"ruleId": ..., "body": [...], "head": [...]}``.

    Body entries are compact triple patterns; entries beginning with
    ``FILTER`` become filter expressions. Head entries must be patterns.
    """
    if not isinstance(obj, dict):
        raise RuleFormatError("rule must be a JSON object")
    rule_id = obj.get("ruleId")
    if not isinstance(rule_id, str) or not rule_id:
        raise RuleFormatError("rule needs a non-empty string 'ruleId'")
    raw_body = obj.get("body")
    raw_head = obj.get("head")
    if not isinstance(raw_body, list) or not raw_body:
        raise RuleFormatError(f"rule {rule_id!r} needs a non-empty 'body' list")
    if not isinstance(raw_head, list) or not raw_head:
        raise RuleFormatError(f"rule {rule_id!r} needs a non-empty 'head' list")
    body: list[TriplePattern] = []
    filters: list[FilterExpr] = []
    for entry in raw_body:
        if not isinstance(entry, str):
            raise RuleFormatError(f"rule {rule_id!r}: body entries must be strings")
        try:
            if entry.lstrip().upper().startswith("FILTER"):
                filters.append(parse_filter(entry, prefixes))
            else:
                body.append(parse_pattern(entry, prefixes))
        except ValueError as exc:
            raise RuleFormatError(f"rule {rule_id!r}: {exc}") from exc
    if not body:
        raise RuleFormatError(f"rule {rule_id!r} needs at least one body triple pattern")
    head: list[TriplePattern] = []
    for entry in raw_head:
        if not isinstance(entry, str):
            raise RuleFormatError(f"rule {rule_id!r}: head entries must be strings")
        try:
            head.append(parse_pattern(entry, prefixes))
        except ValueError as exc:
            raise RuleFormatError(f"rule {rule_id!r}: {exc}") from exc
    return Rule(rule_id, tuple(body), tuple(head), tuple(filters))


def _instantiate(pattern: TriplePattern, binding) -> Triple | None:
    def resolve(slot):
        return binding[slot.name] if isinstance(slot, Variable) else slot

    try:
        return Triple(resolve(pattern.subject), resolve(pattern.predicate), resolve(pattern.object))
    except (KeyError, ValueError):
        # Unbound head variable (unsafe rules are rejected upstream) or an
        # instantiation that is not a legal triple, e.g. a literal subject.
        return None


def _fire(rule: Rule, graph: Graph, delta: Graph | None) -> list:
    """The rule's body bindings over the graph. Given a delta, only those in
    which at least one body pattern matched a triple of the delta: that
    pattern is matched against the delta and the rest against the graph."""
    if delta is None:
        return match_bgp(graph, rule.body, rule.filters)
    solutions = []
    for index, pattern in enumerate(rule.body):
        seeds = delta.match(pattern)
        if seeds:
            rest = rule.body[:index] + rule.body[index + 1:]
            solutions += join_bgp(graph, rest, seeds)
    return [b for b in solutions if all(eval_filter(f, b) for f in rule.filters)]


def forward_chain(graph: Graph, rules: list[Rule] | RuleBase, limit: int = DERIVATION_LIMIT) -> Graph:
    """Apply rules to fixpoint; returns only the newly derived triples.

    Semi-naive evaluation (Bancilhon & Ramakrishnan, SIGMOD 1986): the
    first round fires every rule over the input; each later round fires
    a rule only through bindings that use a triple derived in the round
    before, since every other binding was already fired.

    Raises ClosureLimitExceeded once more than `limit` new triples have
    been derived, and ValueError for unsafe rules.
    """
    if isinstance(rules, RuleBase):
        rules = rules.rules
    for rule in rules:
        unsafe = rule.unsafe_head_variables()
        if unsafe:
            names = ", ".join(sorted(unsafe))
            raise ValueError(f"rule {rule.rule_id!r} is unsafe: head variable(s) {names} not bound by the body")

    known: set[Triple] = set(graph.triples())
    derived: set[Triple] = set()
    working, delta = graph, None
    while True:
        fresh: set[Triple] = set()
        for rule in rules:
            for binding in _fire(rule, working, delta):
                for pattern in rule.head:
                    triple = _instantiate(pattern, binding)
                    if triple is None:
                        log.debug("rule %s produced a non-triple instantiation; skipped", rule.rule_id)
                        continue
                    if triple not in known:
                        known.add(triple)
                        fresh.add(triple)
                        derived.add(triple)
                        if len(derived) > limit:
                            raise ClosureLimitExceeded(limit)
        if not fresh:
            return Graph(derived)
        working, delta = Graph(known), Graph(fresh)
