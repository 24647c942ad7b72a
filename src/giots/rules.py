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
back, and additions run semi-naive insertion; an update is atomic and
returns the facts it touched. ``forward_chain`` is one update of an empty
closure, so the semi-naive loop exists once.
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

    Not thread-safe. ``update`` is atomic: if it raises, the closure is
    as it was before the call.
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

    @property
    def facts(self) -> TripleStore:
        """Base and derived facts: the live store, which ``update`` changes."""
        return self._facts

    def derived(self) -> Graph:
        """The facts the rules derive that are not base facts."""
        return Graph(self._facts.triples() - self._base)

    def derived_matches(self, pattern: TriplePattern) -> list[Triple]:
        """The derived facts, not base facts, that match the pattern."""
        found = (_instantiate(pattern, b) for b in self._facts.match(pattern))
        return [t for t in found if t not in self._base]

    def update(self, added: Iterable[Triple] = (), removed: Iterable[Triple] = ()) -> set[Triple]:
        """Make the base ``(base - removed) | added`` and restore the fixpoint.

        1. Over-delete: fire the rules semi-naively over the removed facts,
           against the old facts, and collect every derived fact with a
           derivation through a removed one.
        2. Rederive: put back the collected facts, removed base facts
           included, that still follow in one step from what is left.
        3. Insert: semi-naive insertion seeded with the added and the
           rederived facts.

        Returns the facts it touched: at least every fact that came, went
        or moved between base and derived.

        Raises ClosureLimitExceeded once more than `limit` facts are
        derived, exactly when chaining the new base from scratch would.
        Only insertion grows the closure, so only insertion checks; the
        update then undoes itself before it raises.
        """
        added = set(added)
        removed = (set(removed) & self._base) - added
        added -= self._base
        gone = self._overdelete(removed)
        self._base -= removed
        for triple in gone:
            self._facts.discard(triple)
        new: set[Triple] = set()
        try:
            self._base |= added
            self._insert(added | self._rederive(gone), new)
        except ClosureLimitExceeded:
            # every add came after every discard: take the adds out first
            for triple in new:
                self._facts.discard(triple)
            for triple in gone:
                self._facts.add(triple)
            self._base -= added
            self._base |= removed
            raise
        return gone | new | added

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

    def _insert(self, seeds: set[Triple], new: set[Triple]) -> None:
        """Semi-naive insertion; every fact it adds goes into `new`."""

        def add(triple: Triple) -> bool:
            if not self._facts.add(triple):
                return False
            new.add(triple)
            if len(self._facts) - len(self._base) > self._limit:
                raise ClosureLimitExceeded(self._limit)
            return True

        self._chain({t for t in seeds if add(t)}, add)

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
