"""Knowledge-based processing agent: subscribes to broker context,
mirrors notified values as a triple view, forward-chains its rules and
feeds derived attributes back into the broker.

The rules' closure (``rules.Closure``) is the agent's one store of facts,
and its base is the view. Each notified value or type that changes becomes
a removed and an added view triple, and the next rule pass applies the
batch to the closure, so a pass costs what the batch changed. A pass
aborted at the derivation cap leaves the closure as it was and keeps its
batch for the next pass. SPARQL reads the closure under the agent's lock,
so a query sees the view and its derived facts as of the last completed
pass; feedback re-reads from it only the keys a pass touched.

Loop safety: attributes the agent itself derived are ignored when they
come back as notifications, and a derived value is sent only when it
differs from the last value the broker accepted for its entity and
attribute. A value the broker never got is not recorded, so the next pass
resends it.
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
from .ngsi import ContextEntity, EntityPattern, parse_patterns
from .rdf import CTX_NS, IRI, RDF_TYPE, Graph, Literal, Triple, TriplePattern, Variable
from .rules import Closure, ClosureLimitExceeded, RuleBase, parse_rule_json
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
        if not isinstance(obj, dict):
            raise ValueError("agent config must be a JSON object")
        agent_id = obj.get("agentId")
        if not isinstance(agent_id, str) or not agent_id:
            raise ValueError("agent config needs a non-empty 'agentId'")
        broker_url = obj.get("brokerUrl")
        if not isinstance(broker_url, str) or not broker_url:
            raise ValueError("agent config needs a 'brokerUrl'")
        subscription = obj.get("subscription")
        if not isinstance(subscription, dict):
            raise ValueError("agent config needs a 'subscription' object")
        patterns = parse_patterns(subscription.get("entities"), "subscription")
        raw_attrs = subscription.get("attributes", [])
        if not isinstance(raw_attrs, list) or not all(
            isinstance(a, str) and a for a in raw_attrs
        ):
            raise ValueError("subscription 'attributes' must be a list of names")
        prefixes = obj.get("prefixes")
        raw_rules = obj.get("rules", [])
        if not isinstance(raw_rules, list):
            raise ValueError("'rules' must be a list")
        rules = RuleBase([parse_rule_json(r, prefixes) for r in raw_rules])
        Closure(rules)  # raises ValueError for an unsafe rule
        suffix = obj.get("outputEntitySuffix", "")
        if not isinstance(suffix, str):
            raise ValueError("'outputEntitySuffix' must be a string")
        enabled = obj.get("sparqlEndpointEnabled", True)
        if not isinstance(enabled, bool):
            raise ValueError("'sparqlEndpointEnabled' must be a boolean")
        throttling = obj.get("throttlingMillis", 0)
        if not isinstance(throttling, int) or isinstance(throttling, bool) or throttling < 0:
            raise ValueError("'throttlingMillis' must be a non-negative integer")
        return AgentConfig(
            agent_id=agent_id,
            broker_url=broker_url,
            patterns=patterns,
            attributes=list(raw_attrs),
            rules=rules,
            output_entity_suffix=suffix,
            sparql_enabled=enabled,
            throttling_millis=throttling,
        )


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
        if not isinstance(body, dict) or not isinstance(body.get("entities"), list):
            log.warning("malformed notification skipped: %r", body)
            return False
        changed = False
        for raw in body["entities"]:
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
        closure and feed back what they touched; returns every derived
        fact, in no set order. An aborted pass keeps its changes."""
        with self._lock:
            try:
                touched = self._closure.update(self._added, self._removed)
            except ClosureLimitExceeded as exc:
                self.rule_passes_aborted += 1
                log.error("rule pass aborted: %s", exc)
                return []
            self._added, self._removed = set(), set()
            self.rule_passes += 1
            facts = list(self._closure.derived().triples())
        self.feed_back(touched)
        return facts

    def feed_back(self, facts: Iterable[Triple]) -> None:
        """Send the derived value of each (entity, attribute) key the facts
        name, or that a clash or a dropped send left unsettled, as the
        closure has it now."""
        with self._lock:
            keys = self._unsettled | {(t.subject.value, t.predicate.value) for t in facts
                                      if isinstance(t.subject, IRI) and t.subject.value.startswith(ENTITY_PREFIX)
                                      and t.predicate.value.startswith(CTX_NS)}
            self._unsettled, sends = set(), []
            for subject, predicate in sorted(keys):
                entity_id = subject[len(ENTITY_PREFIX):] + self.config.output_entity_suffix
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
                    entity_type = self._types.get(entity_id, "")
                    sends.append(((subject, predicate), entity_id, entity_type, attribute, values.pop()))
        for key, entity_id, entity_type, attribute, value in sends:
            dropped = self._send_update(entity_id, entity_type, attribute, value) is False
            with self._lock:
                if dropped:  # not recorded, so the next pass resends it
                    self._unsettled.add(key)
                else:
                    self._sent[(entity_id, attribute)] = value
                    self.derived_sent += 1

    def _send_update(self, entity_id: str, entity_type: str, attribute: str, value: str) -> bool:
        """One derived value to the broker; False if it was dropped."""
        metadata = [{"name": "source", "type": "string", "value": self.config.agent_id}]
        entity = {
            "id": entity_id,
            "type": entity_type,
            "attributes": [{"name": attribute, "value": value, "metadata": metadata}],
        }
        if self.broker.append([entity]):
            return True
        log.error("derived fact %s.%s dropped: updateContext failed", entity_id, attribute)
        return False

    # -- notifications -----------------------------------------------------------

    def on_notification(self, body: Any) -> None:
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

    def close(self) -> None:
        self.agent.stop()

    def _notify(self, request: HttpRequest) -> HttpResponse:
        self.agent.on_notification(request.json())
        return HttpResponse(200, {"status": "accepted"})

    def _sparql(self, request: HttpRequest) -> HttpResponse:
        if not self.agent.config.sparql_enabled:
            raise not_found("the query endpoint is disabled for this agent")
        body = request.json()
        if not isinstance(body, dict) or not isinstance(body.get("query"), str):
            raise bad_request("expected a JSON body with a 'query' string")
        try:
            return HttpResponse(200, self.agent.answer_sparql(body["query"]))
        except SparqlSyntaxError as exc:
            raise bad_request(f"query does not parse: {exc}") from exc

    def _stats(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(200, self.agent.stats())


def load_agent_config(path: str) -> AgentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return AgentConfig.from_json(json.load(fh))
