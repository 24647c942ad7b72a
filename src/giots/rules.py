"""Body/head rules over triples and forward chaining to a bounded fixpoint.

One rule formalism serves both the validation service (contradiction
checks) and the processing agents (context derivation). Rules are written
in the compact pattern syntax ``?s <iri> "lit"``; body entries starting
with ``FILTER`` are numeric/boolean constraints on body variables.

Chaining is incremental. A :class:`Closure` holds base and derived facts
at fixpoint in one indexed store, and ``Closure.update`` takes a batch of
added and removed base facts by delete-and-rederive (Gupta, Mumick &
Subrahmanian, "Maintaining Views Incrementally", SIGMOD 1993): removals
over-delete what they may support, facts with another derivation are put
back, and additions run semi-naive insertion. ``forward_chain`` is one
update of an empty closure, so the semi-naive loop exists once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .rdf import Graph, Triple, TriplePattern, TripleStore, Variable
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


def _passing(rule: Rule, solutions: list) -> list:
    return [b for b in solutions if all(eval_filter(f, b) for f in rule.filters)]


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
    return _passing(rule, solutions)


def _heads(rule: Rule, bindings: list) -> Iterator[Triple]:
    for binding in bindings:
        for pattern in rule.head:
            triple = _instantiate(pattern, binding)
            if triple is None:
                log.debug("rule %s produced a non-triple instantiation; skipped", rule.rule_id)
                continue
            yield triple


class Closure:
    """Base facts and every fact the rules derive from them, kept at
    fixpoint across changes to the base.

    ``update`` costs work in proportion to what the change reaches, not to
    the size of the closure. It is delete-and-rederive (Gupta, Mumick &
    Subrahmanian, "Maintaining Views Incrementally", SIGMOD 1993) over
    semi-naive evaluation (Bancilhon & Ramakrishnan, SIGMOD 1986).

    Not thread-safe. After ``update`` raises, the closure is in no defined
    state; start a new one.
    """

    def __init__(self, rules: list[Rule] | RuleBase, limit: int = DERIVATION_LIMIT):
        if isinstance(rules, RuleBase):
            rules = rules.rules
        for rule in rules:
            unsafe = rule.unsafe_head_variables()
            if unsafe:
                names = ", ".join(sorted(unsafe))
                raise ValueError(f"rule {rule.rule_id!r} is unsafe: head variable(s) {names} not bound by the body")
        self._rules = list(rules)
        self._limit = limit
        self._facts = TripleStore()  # base and derived facts, one index
        self._base: set[Triple] = set()

    def derived(self) -> Graph:
        """The facts the rules derive that are not base facts."""
        return Graph(self._facts.triples() - self._base)

    def update(self, added: Iterable[Triple] = (), removed: Iterable[Triple] = ()) -> None:
        """Make the base ``(base - removed) | added`` and restore the fixpoint.

        1. Over-delete: fire the rules semi-naively over the removed facts,
           against the old facts, and collect every derived fact with a
           derivation through a removed one.
        2. Rederive: put back the collected facts, removed base facts
           included, that still follow in one step from what is left.
        3. Insert: semi-naive insertion seeded with the added and the
           rederived facts.

        Raises ClosureLimitExceeded once more than `limit` facts are
        derived, exactly when chaining the new base from scratch would.
        Only insertion grows the closure, so only insertion checks.
        """
        added = set(added)
        removed = (set(removed) & self._base) - added
        added -= self._base
        rederived: set[Triple] = set()
        if removed:
            gone = self._overdelete(removed)
            self._base -= removed
            for triple in gone:
                self._facts.discard(triple)
            rederived = self._rederive(gone)
        self._base |= added
        self._insert(added | rederived)

    def _overdelete(self, removed: set[Triple]) -> set[Triple]:
        gone = set(removed)

        def reached(triple: Triple) -> bool:
            if triple in gone or triple in self._base or triple not in self._facts:
                return False
            gone.add(triple)
            return True

        self._chain(removed, reached)
        return gone

    def _rederive(self, gone: set[Triple]) -> set[Triple]:
        """The facts of `gone` some rule still derives in one step."""
        candidates = Graph(gone)
        back: set[Triple] = set()
        for rule in self._rules:
            seeds = [b for pattern in rule.head for b in candidates.match(pattern)]
            if seeds:
                solutions = _passing(rule, join_bgp(self._facts, rule.body, seeds))
                back.update(t for t in _heads(rule, solutions) if t in gone)
        return back

    def _insert(self, seeds: set[Triple]) -> None:
        self._chain({t for t in seeds if self._add(t)}, self._add)

    def _chain(self, delta: set[Triple], accept: Callable[[Triple], bool]) -> None:
        """Semi-naive rounds over the facts: fire the rules only through
        bindings that use a fact of the delta; the heads `accept` takes
        are the next round's delta."""
        while delta:
            # when the delta is every fact, every binding uses it: fire once
            changed = None if len(delta) == len(self._facts) else Graph(delta)
            fresh = set()
            for rule in self._rules:
                for triple in _heads(rule, _fire(rule, self._facts, changed)):
                    if accept(triple):
                        fresh.add(triple)
            delta = fresh

    def _add(self, triple: Triple) -> bool:
        if not self._facts.add(triple):
            return False
        if len(self._facts) - len(self._base) > self._limit:
            raise ClosureLimitExceeded(self._limit)
        return True


def forward_chain(graph: Graph, rules: list[Rule] | RuleBase, limit: int = DERIVATION_LIMIT) -> Graph:
    """Apply rules to fixpoint; returns only the newly derived triples.

    One ``Closure.update`` of an empty closure: semi-naive evaluation,
    whose first round fires every rule over the input and each later
    round only through bindings that use a triple derived in the round
    before, since every other binding was already fired.

    Raises ClosureLimitExceeded once more than `limit` new triples have
    been derived, and ValueError for unsafe rules.
    """
    closure = Closure(rules, limit)
    closure.update(graph.triples())
    return closure.derived()
