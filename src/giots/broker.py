"""Context broker: stores entity/attribute/metadata context, answers
queries with ontology-driven subtype matching and bounding-box scopes,
registers context providers, federates unmatched queries to providers
(pull mode), and notifies subscribers with per-subscription throttling.

Subtype checks go through the knowledge server via a caching client;
without a configured knowledge URL only exact type matches succeed.
Entities are indexed by id and by type, so a query by id reads one entry
and a query by type reads the entities of each subclass of that type.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from .httpkit import (
    HttpRequest,
    HttpResponse,
    JsonHttpService,
    KeyedWorkers,
    TransportError,
    bad_request,
    call,
    deliver,
    not_found,
    request_json,
)
from .jsonfields import LIST, MILLIS, STRING, TEXT, URL, Kind, document, read
from .knowledge import KnowledgeClient
from .ngsi import (
    BoundingBox,
    ContextEntity,
    EntityPattern,
    parse_attribute_names,
    parse_entities,
    parse_patterns,
    wire_reply,
)

log = logging.getLogger(__name__)

HOP_HEADER = "X-GIOTS-Hop"
PULL_TIMEOUT = 5.0


@dataclass(frozen=True)
class Registration:
    registration_id: str
    patterns: tuple[EntityPattern, ...]
    attributes: tuple[str, ...]  # empty = provides all attributes
    providing_application: str

    def to_json(self) -> dict:
        return {
            "registrationId": self.registration_id,
            "entities": [p.to_json() for p in self.patterns],
            "attributes": list(self.attributes),
            "providingApplication": self.providing_application,
        }


@dataclass
class Subscription:
    subscription_id: str
    patterns: tuple[EntityPattern, ...]
    attributes: tuple[str, ...]  # empty = any attribute
    reference: str
    throttling_millis: int
    pending: set[str] = field(default_factory=set)  # ids the next flush sends
    last_sent: float = -math.inf  # so the first flush never waits


class ContextBroker:
    """In-memory context store plus registrations and subscriptions.

    All store mutations run under one lock; queries read a snapshot.
    Provider pulls happen off the caller's critical section. Notifications
    go out on one KeyedWorkers pool keyed by subscription id, through
    deliver(): each subscription gets them in order, at most one flush per
    subscription is queued, and a throttled flush waits out its window on
    its pool thread (the first flush never waits; close() ends a wait).
    """

    def __init__(self, knowledge: KnowledgeClient | None = None):
        """``knowledge`` answers subtyping: ``subclasses_of`` expands a
        query's type for the index and for the entities it pulls,
        ``is_subclass`` tests one pair where a subscription or a
        registration is matched. Without it a type matches only itself."""
        self._lock = threading.Lock()
        self._entities: dict[str, ContextEntity] = {}
        self._by_type: dict[str, dict[str, ContextEntity]] = {}  # type -> id -> entity
        self._registrations: dict[str, Registration] = {}
        self._subscriptions: dict[str, Subscription] = {}
        self._reg_counter = 0
        self._sub_counter = 0
        self.subclasses_of = knowledge.subclasses_of if knowledge else (lambda cls: [cls])
        self.is_subclass = knowledge.is_subclass if knowledge else (lambda sub, sup: sub == sup)
        self._pool = KeyedWorkers()
        self._closed = threading.Event()

    # -- registrations ---------------------------------------------------

    def register(self, patterns, attributes, providing_application) -> str:
        with self._lock:
            self._reg_counter += 1
            reg_id = f"reg-{self._reg_counter:05d}"
            self._registrations[reg_id] = Registration(
                reg_id, tuple(patterns), tuple(attributes or ()), providing_application
            )
            return reg_id

    def discover(self, patterns, attributes) -> list[Registration]:
        with self._lock:
            candidates = list(self._registrations.values())
        hits = []
        for reg in candidates:
            if not self._registration_matches(reg, patterns, attributes):
                continue
            hits.append(reg)
        return sorted(hits, key=lambda r: r.registration_id)

    def _registration_matches(self, reg: Registration, patterns, attributes) -> bool:
        if attributes and reg.attributes and not (set(attributes) & set(reg.attributes)):
            return False
        for wanted in patterns:
            for advertised in reg.patterns:
                if advertised.intersects(wanted, self.is_subclass):
                    return True
        return False

    # -- updates ---------------------------------------------------------

    def update(self, action: str, entities: list[ContextEntity]) -> list[dict]:
        responses = []
        touched: list[tuple[ContextEntity, set[str]]] = []
        with self._lock:
            for update in entities:
                try:
                    stored = self._apply(action, update)
                except LookupError as exc:
                    responses.append(
                        {"id": update.id, "status": "error",
                         "error": "NotFound", "message": str(exc)}
                    )
                    continue
                responses.append({"id": update.id, "status": "ok"})
                touched.append((stored, {a.name for a in update.attributes}))
        for stored, names in touched:
            self._trigger_subscriptions(stored, names)
        return responses

    def _apply(self, action: str, update: ContextEntity) -> ContextEntity:
        current = self._entities.get(update.id)
        if action == "UPDATE":
            if current is None:
                raise LookupError(f"entity '{update.id}' does not exist")
            missing = [a.name for a in update.attributes if current.attribute(a.name) is None]
            if missing:
                raise LookupError(
                    f"entity '{update.id}' has no attribute {missing[0]}"
                )
        stored = (current or ContextEntity(update.id, update.type)).merged(update)
        self._entities[update.id] = stored
        if current is not None and current.type != stored.type:
            same_type = self._by_type[current.type]
            del same_type[update.id]
            if not same_type:
                del self._by_type[current.type]
        self._by_type.setdefault(stored.type, {})[update.id] = stored
        return stored

    # -- queries ---------------------------------------------------------

    def query(
        self,
        patterns: list[EntityPattern],
        attributes: list[str] | None,
        restriction: BoundingBox | None,
        allow_pull: bool = True,
    ) -> list[ContextEntity]:
        # the expansions may ask the knowledge server, so not under the lock
        expanded = [
            None if p.entity_type is None else set(self.subclasses_of(p.entity_type))
            for p in patterns
        ]
        with self._lock:
            found = [self._stored(p, types) for p, types in zip(patterns, expanded)]
        results: dict[str, ContextEntity] = {}
        unmatched: list[tuple[EntityPattern, set[str] | None]] = []
        for pattern, types, hits in zip(patterns, expanded, found):
            for entity in hits:
                results.setdefault(entity.id, entity)
            if not hits:
                unmatched.append((pattern, types))
        if allow_pull and unmatched:
            for entity in self._pull(unmatched, attributes):
                results.setdefault(entity.id, entity)
        admitted = sorted(
            (e for e in results.values() if restriction is None or restriction.admits(e)),
            key=lambda e: e.id,
        )
        projected = (e.project(attributes) for e in admitted)
        return [e for e in projected if attributes is None or e.attributes]

    def _stored(self, pattern: EntityPattern, types: set[str] | None) -> list[ContextEntity]:
        """The stored entities the pattern matches, ``types`` being its
        type's expansion (caller holds the lock). An id is one read and a
        type one index read per expanded type; only a pattern with neither
        scans the store."""
        if pattern.entity_id is not None:
            entity = self._entities.get(pattern.entity_id)
            if entity is None or (types is not None and entity.type not in types):
                return []
            return [entity]
        if types is None:
            candidates = self._entities.values()
        else:
            candidates = [e for t in types for e in self._by_type.get(t, {}).values()]
        return [e for e in candidates if pattern.admits_id(e.id)]

    def _pull(
        self, patterns: list[tuple[EntityPattern, set[str] | None]], attributes
    ) -> list[ContextEntity]:
        """Federated lookup: ask providers registered for still-unmatched
        patterns, each with its type's expansion, which a pulled entity's
        type must be in; recursion stops at depth 1 via a hop header. A
        provider that cannot be reached, refuses or sends a reply that
        cannot be read is logged and skipped."""
        pulled: list[ContextEntity] = []
        seen: set[tuple[str, EntityPattern]] = set()
        for pattern, types in patterns:
            for reg in self.discover([pattern], attributes):
                key = (reg.providing_application, pattern)
                if key in seen:
                    continue
                seen.add(key)
                body = {"entities": [pattern.to_json()]}
                if attributes:
                    body["attributes"] = list(attributes)
                url = reg.providing_application.rstrip("/") + "/ngsi10/queryContext"
                try:
                    reply = call("POST", url, body, {HOP_HEADER: "1"}, PULL_TIMEOUT)
                    raws = read(document(reply, "provider reply"), "entities", LIST, "provider reply")
                except (TransportError, ValueError) as exc:
                    log.warning("provider pull failed for %s: %s", reg.registration_id, exc)
                    continue
                for raw in raws:
                    try:
                        entity = ContextEntity.from_json(raw)
                    except ValueError as exc:
                        log.warning("discarding malformed pulled entity: %s", exc)
                        continue
                    if pattern.admits_id(entity.id) and (types is None or entity.type in types):
                        pulled.append(entity)
        return pulled

    # -- subscriptions ---------------------------------------------------

    def subscribe(self, patterns, attributes, reference, throttling_millis) -> str:
        with self._lock:
            self._sub_counter += 1
            sub_id = f"sub-{self._sub_counter:05d}"
            self._subscriptions[sub_id] = Subscription(
                sub_id, tuple(patterns), tuple(attributes or ()), reference,
                throttling_millis,
            )
            return sub_id

    def unsubscribe(self, sub_id: str) -> None:
        with self._lock:
            if self._subscriptions.pop(sub_id, None) is None:
                raise LookupError(f"no subscription '{sub_id}'")

    def _trigger_subscriptions(self, entity: ContextEntity, updated_names: set[str]) -> None:
        with self._lock:
            subs = list(self._subscriptions.values())
        for sub in subs:
            if sub.attributes and not (updated_names & set(sub.attributes)):
                continue
            if not any(
                p.matches(entity.id, entity.type, self.is_subclass) for p in sub.patterns
            ):
                continue
            self._schedule(sub, entity.id)

    def _schedule(self, sub: Subscription, entity_id: str) -> None:
        with self._lock:
            if sub.subscription_id not in self._subscriptions:
                return
            if not sub.pending:  # else a queued flush will send this id too
                self._pool.submit(sub.subscription_id, self._flush, sub.subscription_id)
            sub.pending.add(entity_id)

    def _flush(self, sub_id: str) -> None:
        with self._lock:
            sub = self._subscriptions.get(sub_id)
            if sub is None:
                return
            wait = sub.throttling_millis / 1000.0 - (time.monotonic() - sub.last_sent)
        if wait > 0 and self._closed.wait(wait):
            return
        with self._lock:
            if sub_id not in self._subscriptions:
                return
            entity_ids = sorted(sub.pending)
            sub.pending.clear()
            sub.last_sent = time.monotonic()
            names = list(sub.attributes) or None
            entities = [
                self._entities[eid].project(names)
                for eid in entity_ids
                if eid in self._entities
            ]
            reference = sub.reference
        if not entities:
            return
        body = {
            "subscriptionId": sub_id,
            "entities": [e.to_json() for e in entities],
        }
        if not deliver(lambda: request_json("POST", reference, body=body, timeout=5.0)):
            log.warning("notifyContext for %s dropped: delivery to %s failed", sub_id, reference)

    def close(self) -> None:
        self._closed.set()
        self._pool.close()


def parse_request(
    body: Any, where: str, allow_empty_pattern: bool = True
) -> tuple[list[EntityPattern], list[str] | None]:
    """The entity patterns and attribute names of an NGSI request body; a
    body that is not an object, or that holds a bad pattern or attribute
    list, is a 400."""
    try:
        body = document(body, f"{where} body")
        return (
            parse_patterns(body.get("entities"), where, allow_empty_pattern),
            parse_attribute_names(body.get("attributes"), where),
        )
    except ValueError as exc:
        raise bad_request(str(exc)) from exc


class BrokerService(JsonHttpService):
    name = "broker"

    def __init__(self, knowledge_url: str | None = None):
        super().__init__()
        self.knowledge = KnowledgeClient(knowledge_url) if knowledge_url else None
        self.broker = ContextBroker(self.knowledge)
        self._metrics_lock = threading.Lock()
        self.metrics: dict[str, int] = {}
        self.router.add("POST", "/ngsi9/registerContext", self._register)
        self.router.add("POST", "/ngsi9/discoverContextAvailability", self._discover)
        self.router.add("POST", "/ngsi10/updateContext", self._update)
        self.router.add("POST", "/ngsi10/queryContext", self._query)
        self.router.add("POST", "/ngsi10/subscribeContext", self._subscribe)
        self.router.add("POST", "/ngsi10/unsubscribeContext", self._unsubscribe)
        self.router.add("GET", "/metrics", self._metrics)

    def close(self) -> None:
        self.broker.close()

    def _count(self, op: str) -> None:
        with self._metrics_lock:
            self.metrics[op] = self.metrics.get(op, 0) + 1

    def _register(self, request: HttpRequest) -> HttpResponse:
        self._count("registerContext")
        body = request.json()
        patterns, attributes = parse_request(body, "registerContext", allow_empty_pattern=False)
        providing = read(body, "providingApplication", URL, "registerContext")
        reg_id = self.broker.register(patterns, attributes, providing)
        return HttpResponse(200, {"registrationId": reg_id})

    def _discover(self, request: HttpRequest) -> HttpResponse:
        self._count("discoverContextAvailability")
        patterns, attributes = parse_request(request.json(), "discoverContextAvailability")
        registrations = self.broker.discover(patterns, attributes)
        return HttpResponse(200, {"registrations": [r.to_json() for r in registrations]})

    def _update(self, request: HttpRequest) -> HttpResponse:
        self._count("updateContext")
        body = document(request.json(), "updateContext body")
        action = read(body, "action", STRING, "updateContext", None)
        if action not in {"APPEND", "UPDATE"}:
            raise bad_request("updateContext 'action' must be APPEND or UPDATE")
        try:
            entities = parse_entities(body.get("entities"), "updateContext")
        except ValueError as exc:
            raise bad_request(str(exc)) from exc
        responses = self.broker.update(action, entities)
        return HttpResponse(200, {"responses": responses})

    def _query(self, request: HttpRequest) -> HttpResponse:
        self._count("queryContext")
        body = request.json()
        patterns, attributes = parse_request(body, "queryContext")
        try:
            restriction = (
                BoundingBox.from_json(body["restriction"])
                if body.get("restriction") is not None
                else None
            )
        except ValueError as exc:
            raise bad_request(str(exc)) from exc
        allow_pull = request.header(HOP_HEADER) is None
        entities = self.broker.query(patterns, attributes, restriction, allow_pull)
        return HttpResponse(200, raw=wire_reply(entities))

    def _subscribe(self, request: HttpRequest) -> HttpResponse:
        self._count("subscribeContext")
        body = request.json()
        patterns, attributes = parse_request(body, "subscribeContext")
        reference = read(body, "reference", URL, "subscribeContext")
        throttling = read(body, "throttlingMillis", MILLIS, "subscribeContext", 0)
        sub_id = self.broker.subscribe(patterns, attributes, reference, throttling)
        return HttpResponse(200, {"subscriptionId": sub_id})

    def _unsubscribe(self, request: HttpRequest) -> HttpResponse:
        self._count("unsubscribeContext")
        sub_id = read(document(request.json(), "unsubscribeContext body"), "subscriptionId", TEXT,
                      "unsubscribeContext")
        try:
            self.broker.unsubscribe(sub_id)
        except LookupError as exc:
            raise not_found(str(exc)) from exc
        return HttpResponse(200, {"subscriptionId": sub_id})

    def _metrics(self, request: HttpRequest) -> HttpResponse:
        with self._metrics_lock:
            metrics = dict(self.metrics)
        metrics["knowledgeDegraded"] = self.knowledge.degraded if self.knowledge else 0
        return HttpResponse(200, metrics)


# --- client helper -------------------------------------------------------------


class BrokerClient:
    """The client side of the broker's NGSI-9/10 interface; the agent and
    the gateway make every NGSI request through it. A refused request or
    an unreadable reply raises ValueError and an unreachable broker
    TransportError, except in ``append``, which retries through deliver()
    and reports a drop."""

    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")

    def _post(self, path: str, body: dict, key: str, kind: Kind, *default: Any) -> Any:
        """The member ``key`` of the reply to ``body``, of ``kind``; an
        absent one is refused unless a default is given."""
        where = f"{path} reply"
        return read(document(call("POST", self.base_url + path, body), where), key, kind, where, *default)

    def register(self, entities: list[dict], attributes: list[str], providing: str) -> str | None:
        """The registration id; any 2xx object counts as registered, so a
        reply that names no id gives None."""
        return self._post(
            "/ngsi9/registerContext",
            {"entities": entities, "attributes": attributes, "providingApplication": providing},
            "registrationId", STRING, None,
        )

    def discover(self, entities: list[dict], attributes: list[str] | None = None) -> list[dict]:
        body: dict[str, Any] = {"entities": entities}
        if attributes is not None:
            body["attributes"] = attributes
        return self._post("/ngsi9/discoverContextAvailability", body, "registrations", LIST)

    def update(self, action: str, entities: list[dict]) -> list[dict]:
        return self._post(
            "/ngsi10/updateContext", {"action": action, "entities": entities}, "responses", LIST
        )

    def append(self, entities: list[dict]) -> bool:
        """One updateContext APPEND, retried through deliver(); False if it
        was dropped, which the caller logs."""
        url = self.base_url + "/ngsi10/updateContext"
        body = {"action": "APPEND", "entities": entities}
        return deliver(lambda: request_json("POST", url, body=body))

    def query(
        self,
        entities: list[dict],
        attributes: list[str] | None = None,
        restriction: dict | None = None,
    ) -> list[dict]:
        body: dict[str, Any] = {"entities": entities}
        if attributes is not None:
            body["attributes"] = attributes
        if restriction is not None:
            body["restriction"] = restriction
        return self._post("/ngsi10/queryContext", body, "entities", LIST)

    def subscribe(
        self,
        entities: list[dict],
        attributes: list[str] | None,
        reference: str,
        throttling_millis: int = 0,
    ) -> str:
        body: dict[str, Any] = {"entities": entities, "reference": reference,
                                "throttlingMillis": throttling_millis}
        if attributes is not None:
            body["attributes"] = attributes
        return self._post("/ngsi10/subscribeContext", body, "subscriptionId", TEXT)

    def unsubscribe(self, subscription_id: str) -> None:
        call("POST", self.base_url + "/ngsi10/unsubscribeContext", {"subscriptionId": subscription_id})
