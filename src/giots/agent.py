"""Knowledge-based processing agent: subscribes to broker context,
mirrors notified values as a triple view, forward-chains its rules and
feeds derived attributes back into the broker.

The rules' closure (``rules.Closure``) is the agent's one store of facts,
and its base is the view. Each notified value or type that changes becomes
a removed and an added view triple, and the next rule pass applies the
batch to the closure, so a pass costs what the batch changed. A pass
aborted at the derivation bound leaves the closure as it was and keeps its
batch for the next pass. SPARQL reads the closure under the agent's lock,
so a query sees the view and its derived facts as of the last completed
pass; feedback re-reads from it only the keys a pass touched and sends
their new values in one updateContext APPEND.

Loop safety: attributes the agent itself derived are ignored when they
come back as notifications, and a derived value is sent only when it
differs from the last value the broker accepted for its entity and
attribute. If the broker never got a pass's APPEND, none of its values
is recorded, so the next pass resends them all.
A pass that derives two values for one entity and attribute sends neither.
"""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass, replace
from typing import Any, Iterable

from .broker import BrokerClient
from .httpkit import (
    HttpRequest,
    HttpResponse,
    JsonHttpService,
    KeyedWorkers,
    TransportError,
    bad_request,
    not_found,
)
from .jsonfields import BOOL, LIST, MILLIS, OBJECT, STRING, TEXT, URL, document, read
from .ngsi import ContextEntity, EntityPattern, parse_attribute_names, parse_patterns
from .rdf import CTX_NS, IRI, RDF_TYPE, Graph, Literal, Triple, TriplePattern, Variable
from .rules import PREFIXES, Closure, ClosureLimitExceeded, RuleBase, parse_rule_json
from .sparql import (
    SparqlSyntaxError,
    binding_to_json,
    evaluate,
    parse_sparql,
    query_variables,
)

log = logging.getLogger(__name__)

ENTITY_PREFIX = "urn:"


def _type_triple(subject: str, type_iri: str | None) -> Triple | None:
    if not type_iri:
        return None
    try:
        return Triple(IRI(subject), IRI(RDF_TYPE), IRI(type_iri))
    except ValueError:
        log.warning("entity %s has a non-IRI type %r", subject[len(ENTITY_PREFIX):], type_iri)
        return None


def _lexical(value: Any) -> str:
    """Context values become plain string literals; consumers parse."""
    if isinstance(value, str):
        return value
    return json.dumps(value)


@dataclass
class AgentConfig:
    agent_id: str
    broker_url: str
    patterns: list[EntityPattern]
    attributes: list[str]  # empty = all attributes
    rules: RuleBase
    output_entity_suffix: str = ""
    sparql_enabled: bool = True
    throttling_millis: int = 0

    @staticmethod
    def from_json(obj: Any) -> "AgentConfig":
        subscription = read(document(obj, "agent config"), "subscription", OBJECT)
        prefixes = read(obj, "prefixes", PREFIXES, default=None)
        rules = RuleBase([parse_rule_json(r, prefixes) for r in read(obj, "rules", LIST, default=[])])
        Closure(rules)  # raises ValueError for an unsafe rule
        return AgentConfig(
            agent_id=read(obj, "agentId", TEXT),
            broker_url=read(obj, "brokerUrl", URL),
            patterns=parse_patterns(subscription.get("entities"), "subscription"),
            attributes=parse_attribute_names(subscription.get("attributes"), "subscription") or [],
            rules=rules,
            output_entity_suffix=read(obj, "outputEntitySuffix", STRING, default=""),
            sparql_enabled=read(obj, "sparqlEndpointEnabled", BOOL, default=True),
            throttling_millis=read(obj, "throttlingMillis", MILLIS, default=0),
        )


def _notified(body: Any) -> list:
    """A notification's 'entities'."""
    return read(document(body, "notification"), "entities", LIST, "notification")


class Agent:
    """Notifications wait in an inbox; one task at a time on a one-key
    KeyedWorkers pool applies every waiting body to the view, then runs
    one rule pass over the changes they made."""

    def __init__(self, config: AgentConfig, agent_url: str):
        self.config = config
        self.agent_url = agent_url.rstrip("/")
        self.broker = BrokerClient(config.broker_url)
        self._lock = threading.Lock()
        self._values: dict[tuple[str, str], str] = {}  # (entity, attribute) -> lexical
        self._types: dict[str, str] = {}
        self._closure = Closure(config.rules)  # the view and what it derives
        self._added: set[Triple] = set()  # view changes the next pass applies
        self._removed: set[Triple] = set()
        self._unsettled: set[tuple[str, str]] = set()  # (subject, predicate) IRIs feed_back re-reads
        self._self_derived: set[str] = set()  # attribute names we wrote back
        self._sent: dict[tuple[str, str], str] = {}  # (entity, attribute) -> last value sent
        self._inbox: list = []  # notification bodies the next drain applies
        self._pool = KeyedWorkers()
        self._subscription_id: str | None = None
        self.notifications = 0
        self.rule_passes = 0
        self.rule_passes_aborted = 0
        self.derived_sent = 0
        self.derived_clashes = 0

    # -- view ------------------------------------------------------------

    def view_graph(self) -> Graph:
        """The closure's live store: the view and its derived facts as of the
        last completed pass. Read it holding the lock (not reentrant, so not taken here)."""
        return self._closure.facts

    def _replace(self, old: Triple | None, new: Triple | None) -> None:
        """Swap one view triple for another (caller holds the lock)."""
        if old is not None:
            self._added.discard(old)
            self._removed.add(old)
        if new is not None:
            self._removed.discard(new)
            self._added.add(new)

    def _apply_notification(self, body: Any) -> bool:
        try:
            raw_entities = _notified(body)
        except ValueError:
            log.warning("malformed notification skipped: %r", body)
            return False
        changed = False
        for raw in raw_entities:
            try:
                entity = ContextEntity.from_json(raw)
            except ValueError as exc:
                log.warning("malformed notified entity skipped: %s", exc)
                continue
            subject = ENTITY_PREFIX + entity.id
            with self._lock:
                old_type = self._types.get(entity.id)
                if entity.type and entity.type != old_type:
                    self._types[entity.id] = entity.type
                    self._replace(_type_triple(subject, old_type), _type_triple(subject, entity.type))
                    changed = True
                elif old_type is None:
                    self._types[entity.id] = ""
                for attribute in entity.attributes:
                    if attribute.name in self._self_derived:
                        continue  # loop guard: do not re-ingest our own output
                    key = (entity.id, attribute.name)
                    old = self._values.get(key)
                    lexical = _lexical(attribute.value)
                    if old == lexical:
                        continue
                    try:
                        new = Triple(IRI(subject), IRI(CTX_NS + attribute.name), Literal(lexical))
                    except ValueError as exc:
                        log.warning("value of %s.%s skipped: %s", entity.id, attribute.name, exc)
                        continue
                    self._values[key] = lexical
                    self._replace(None if old is None else replace(new, object=Literal(old)), new)
                    changed = True
        return changed

    # -- reasoning ---------------------------------------------------------

    def run_rule_pass(self) -> list[Triple]:
        """Apply the view changes since the last completed pass to the
        closure and feed back what they touched; returns the derived facts
        the pass added or re-derived. An aborted pass keeps its changes."""
        with self._lock:
            try:
                touched = self._closure.update(self._added, self._removed)
            except ClosureLimitExceeded as exc:
                self.rule_passes_aborted += 1
                log.error("rule pass aborted: %s", exc)
                return []
            # a touched fact still present is derived unless the pass added it to the view
            facts = [t for t in touched if t in self._closure.facts and t not in self._added]
            self._added, self._removed = set(), set()
            self.rule_passes += 1
        self.feed_back(touched)
        return facts

    def feed_back(self, facts: Iterable[Triple]) -> None:
        """Send, in one APPEND, the derived value of each (entity, attribute)
        key the facts name, or that a clash or a dropped send left
        unsettled, as the closure has it now. A key with an empty entity id
        or attribute name is never sent: the broker rejects the whole APPEND."""
        metadata = [{"name": "source", "type": "string", "value": self.config.agent_id}]
        with self._lock:
            keys = self._unsettled | {(t.subject.value, t.predicate.value) for t in facts if isinstance(t.subject, IRI)
                                      and t.subject.value.startswith(ENTITY_PREFIX) and t.subject.value != ENTITY_PREFIX
                                      and t.predicate.value.startswith(CTX_NS) and t.predicate.value != CTX_NS}
            self._unsettled, sends, entities = set(), {}, []
            for subject, predicate in sorted(keys):
                source = subject[len(ENTITY_PREFIX):]
                entity_id = source + self.config.output_entity_suffix
                attribute = predicate[len(CTX_NS):]
                found = self._closure.derived_matches(TriplePattern(IRI(subject), IRI(predicate), Variable("v")))
                values = {t.object.lexical for t in found if isinstance(t.object, Literal)}
                if len(values) > 1:
                    log.warning("clashing derived values for %s.%s, none sent: %s",
                                entity_id, attribute, ", ".join(sorted(values)))
                    self.derived_clashes += 1
                    self._unsettled.add((subject, predicate))
                elif values and self._sent.get((entity_id, attribute)) not in values:
                    self._self_derived.add(attribute)
                    value = values.pop()
                    sends[(subject, predicate)] = ((entity_id, attribute), value)
                    entities.append({"id": entity_id, "type": self._types.get(source, ""),
                                     "attributes": [{"name": attribute, "value": value, "metadata": metadata}]})
        if not entities:
            return
        delivered = self.broker.append(entities)
        with self._lock:
            if delivered:
                self._sent.update(sends.values())
                self.derived_sent += len(sends)
            else:  # not recorded, so the next pass resends them
                self._unsettled.update(sends)
        if not delivered:
            for (entity_id, attribute), _ in sends.values():
                log.error("derived fact %s.%s dropped: updateContext failed", entity_id, attribute)

    # -- notifications -----------------------------------------------------------

    def on_notification(self, body: Any) -> None:
        _notified(body)  # a FieldError, answered 400
        with self._lock:
            self.notifications += 1
            if not self._inbox:  # else a queued drain will apply this body too
                self._pool.submit("inbox", self._drain)
            self._inbox.append(body)

    def _drain(self) -> None:
        with self._lock:
            batch, self._inbox = self._inbox, []
        for body in batch:
            self._apply_notification(body)
        self.run_rule_pass()

    def start(self) -> None:
        self._subscription_id = self.broker.subscribe(
            [p.to_json() for p in self.config.patterns],
            self.config.attributes or None,
            self.agent_url + "/notify",
            self.config.throttling_millis,
        )

    def stop(self) -> None:
        if self._subscription_id is not None:
            try:
                self.broker.unsubscribe(self._subscription_id)
            except (TransportError, ValueError) as exc:
                log.warning("unsubscribe failed: %s", exc)
            self._subscription_id = None
        self._pool.close()

    # -- query endpoint -----------------------------------------------------------

    def answer_sparql(self, text: str) -> dict:
        query = parse_sparql(text)  # SparqlSyntaxError propagates
        with self._lock:
            result = evaluate(query, self.view_graph())
        if isinstance(result, bool):
            return {"result": result}
        return {
            "variables": query_variables(query),
            "solutions": [binding_to_json(b) for b in result],
        }

    def stats(self) -> dict:
        with self._lock:
            return {
                "agentId": self.config.agent_id,
                "entities": len(self._types),
                "viewTriples": len(self._values),
                "derivedFactsSent": self.derived_sent,
                "derivedClashes": self.derived_clashes,
                "rulePasses": self.rule_passes,
                "rulePassesAborted": self.rule_passes_aborted,
                "notifications": self.notifications,
            }


class AgentService(JsonHttpService):
    name = "agent"

    def __init__(self, agent: Agent):
        super().__init__()
        self.agent = agent
        self.router.add("POST", "/notify", self._notify)
        self.router.add("POST", "/sparql", self._sparql)
        self.router.add("GET", "/stats", self._stats)

    def start(self) -> None:
        self.agent.start()

    def close(self) -> None:
        self.agent.stop()

    def _notify(self, request: HttpRequest) -> HttpResponse:
        self.agent.on_notification(request.json())
        return HttpResponse(200, {"status": "accepted"})

    def _sparql(self, request: HttpRequest) -> HttpResponse:
        if not self.agent.config.sparql_enabled:
            raise not_found("the query endpoint is disabled for this agent")
        query = read(document(request.json(), "sparql body"), "query", STRING, "sparql")
        try:
            return HttpResponse(200, self.agent.answer_sparql(query))
        except SparqlSyntaxError as exc:
            raise bad_request(f"query does not parse: {exc}") from exc

    def _stats(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(200, self.agent.stats())


def load_agent_config(path: str) -> AgentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return AgentConfig.from_json(json.load(fh))
