"""Semantic mediation gateway: discovers annotated containers on a CSE,
selects a transformation process per source, instantiates one pipeline
per mapping subject, converts incoming content instances and publishes
them as context updates.

Push mode writes updateContext(APPEND) to the broker; pull mode keeps its
context in a ContextBroker of its own, registers the gateway as a context
provider and answers the broker's queryContext pulls from that store.
"""

from __future__ import annotations

import json
import logging
import math
import threading
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation, localcontext
from typing import Any, Callable

from .broker import BrokerClient, ContextBroker, parse_request
from .cse import CseClient
from .httpkit import (
    HttpRequest,
    HttpResponse,
    JsonHttpService,
    KeyedWorkers,
    TransportError,
    bad_request,
)
from .jsonfields import INT, ITEMS, MILLIS, OBJECT, STRING, TEXT, URL, document, read
from .knowledge import KnowledgeClient
from .ngsi import ContextAttribute, ContextEntity, ContextMetadata, wire_reply
from .rdf import IRI, MED_NS, Graph, Literal, parse_ntriples, term_text
from .sparql import Query, evaluate, parse_sparql

log = logging.getLogger(__name__)

MED_DESCRIBES_ENTITY = IRI(MED_NS + "describesEntity")
MED_ENTITY_TYPE = IRI(MED_NS + "entityType")
MED_ATTRIBUTE_NAME = IRI(MED_NS + "attributeName")
MED_UNIT_OF_MEASURE = IRI(MED_NS + "unitOfMeasure")
MED_VALUE_PATH = IRI(MED_NS + "valuePath")
MED_CONVERSION = IRI(MED_NS + "conversion")
MED_LOCATION = IRI(MED_NS + "location")

ENTITY_URN_PREFIX = "urn:entity:"
DEFAULT_VALUE_PATH = "/value"
DEFAULT_RESCAN_MILLIS = 5000

SOURCE_FILTER = (
    f"PREFIX med: <{MED_NS}> ASK {{ ?s med:attributeName ?n }}"
)


class MediationError(Exception):
    """Base for per-source and per-item pipeline failures."""


class NoProcessFound(MediationError):
    pass


class ReasoningFailed(MediationError):
    pass


class SubscriptionFailed(MediationError):
    pass


class ExtractionError(MediationError):
    pass


class ConversionError(MediationError):
    pass


# --- conversion routines -------------------------------------------------------


def _to_decimal(value: Any) -> Decimal:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConversionError(f"expected a number, got {value!r}")
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConversionError(f"non-finite number {value!r}")
        return Decimal(str(value))
    return Decimal(value)


def _from_decimal(dec: Decimal) -> int | float:
    if dec == dec.to_integral_value() and abs(dec) < Decimal(10) ** 15:
        return int(dec)
    value = float(dec)
    if math.isinf(value):
        raise ConversionError(f"{dec} is past the float range")
    return value


@dataclass(frozen=True)
class ConversionRoutine:
    id: str
    output_unit: str | None = None
    numeric_fn: Callable[[Decimal], Decimal] | None = None
    raw_fn: Callable[[Any], Any] | None = None

    def convert(self, value: Any) -> Any:
        if self.numeric_fn is not None:
            return _from_decimal(self.convert_exact(_to_decimal(value)))
        assert self.raw_fn is not None
        return self.raw_fn(value)

    def convert_exact(self, value: Decimal) -> Decimal:
        """Decimal-in, Decimal-out form of a numeric routine; additive
        offsets stay span-exact (no floating point on the way)."""
        if self.numeric_fn is None:
            raise ConversionError(f"routine '{self.id}' is not numeric")
        return self.numeric_fn(value)


def _identity(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)):
        return value
    raise ConversionError(f"value {value!r} is not a JSON scalar")


def _string_to_number(value: Any) -> int | float:
    if not isinstance(value, str):
        raise ConversionError(f"expected a string, got {value!r}")
    text = value.strip()
    try:
        dec = Decimal(text)
    except InvalidOperation as exc:
        raise ConversionError(f"'{text}' is not a number") from exc
    if not dec.is_finite():
        raise ConversionError(f"'{text}' is not a finite number")
    return _from_decimal(dec)


def _fahrenheit_to_celsius(value: Decimal) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 28
        return (value - 32) * 5 / 9


_FIXED_ROUTINES = {
    "identity": ConversionRoutine("identity", raw_fn=_identity),
    "celsius_to_kelvin": ConversionRoutine(
        "celsius_to_kelvin", output_unit="kelvin",
        numeric_fn=lambda v: v + Decimal("273.15"),
    ),
    "fahrenheit_to_celsius": ConversionRoutine(
        "fahrenheit_to_celsius", output_unit="celsius",
        numeric_fn=_fahrenheit_to_celsius,
    ),
    "string_to_number": ConversionRoutine("string_to_number", raw_fn=_string_to_number),
}


def resolve_routine(conversion_id: str) -> ConversionRoutine | None:
    if conversion_id in _FIXED_ROUTINES:
        return _FIXED_ROUTINES[conversion_id]
    if conversion_id.startswith("scale:"):
        try:
            factor = Decimal(conversion_id[len("scale:"):])
        except InvalidOperation:
            return None
        if not factor.is_finite():
            return None
        return ConversionRoutine(conversion_id, numeric_fn=lambda v: v * factor)
    return None


# --- transformation processes ----------------------------------------------------


@dataclass(frozen=True)
class TransformationProcess:
    process_id: str
    match_query: str
    conversion_id: str
    priority: int
    query: Query = field(compare=False, repr=False)  # match_query, parsed once

    @staticmethod
    def from_json(obj: Any) -> "TransformationProcess":
        pid = read(document(obj, "process"), "processId", TEXT, "process")
        where = f"process '{pid}'"
        match_query = read(obj, "matchQuery", STRING, where)
        query = parse_sparql(match_query)  # SparqlSyntaxError propagates
        if query.form != "ASK":
            raise ValueError(f"{where}: matchQuery must be an ASK query")
        conversion_id = read(obj, "conversionId", STRING, where)
        if resolve_routine(conversion_id) is None:
            raise ValueError(f"{where}: unknown conversion '{conversion_id}'")
        priority = read(obj, "priority", INT, where, 0)
        return TransformationProcess(pid, match_query, conversion_id, priority, query)

    def matches(self, descriptor: Graph) -> bool:
        return evaluate(self.query, descriptor) is True


def select_process(
    descriptor: Graph, library: list[TransformationProcess]
) -> TransformationProcess:
    """Highest priority among matching processes; ties go to the
    lexicographically smallest processId."""
    matching = [p for p in library if p.matches(descriptor)]
    if not matching:
        raise NoProcessFound("no transformation process matches the descriptor")
    return min(matching, key=lambda p: (-p.priority, p.process_id))


# --- target resolution ------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedTarget:
    subject: str  # descriptor subject term, the mapping's identity
    entity_iri: str
    entity_id: str  # context-broker identifier (URN prefix stripped)
    entity_type: str
    attribute_name: str
    unit: str | None
    location: tuple[float, float] | None
    value_path: str
    conversion_hint: str | None
    source_path: str

    def to_json(self) -> dict:
        return {
            "entityId": self.entity_iri,
            "ngsiId": self.entity_id,
            "entityType": self.entity_type,
            "attributeName": self.attribute_name,
            "staticMetadata": {
                k: v
                for k, v in {
                    "unit": self.unit,
                    "location": list(self.location) if self.location else None,
                    "source": self.source_path,
                }.items()
                if v is not None
            },
        }


def _single(graph: Graph, subject, predicate: IRI, kind: type[IRI] | type[Literal],
            required: bool = True) -> str | None:
    """The text of the one object of (subject, predicate), which must be a
    `kind` term; None when there is none and it is not required."""
    values = [t.object for t in graph if t.subject == subject and t.predicate == predicate]
    what = f"{term_text(subject)}: {predicate.value[len(MED_NS):]}"
    if not values:
        if required:
            raise ReasoningFailed(f"missing {what}")
        return None
    if len(values) > 1:
        raise ReasoningFailed(f"ambiguous {what} (found {len(values)})")
    if not isinstance(values[0], kind):
        raise ReasoningFailed(f"{what} must be {'an IRI' if kind is IRI else 'a literal'}")
    return values[0].value if kind is IRI else values[0].lexical


def ngsi_entity_id(entity_iri: str) -> str:
    """Context-broker identifier for an entity IRI: the conventional
    urn:entity: prefix is transport encoding, not part of the name."""
    if entity_iri.startswith(ENTITY_URN_PREFIX):
        return entity_iri[len(ENTITY_URN_PREFIX):]
    return entity_iri


def resolve_targets(
    descriptor: Graph,
    source_path: str,
    knowledge: KnowledgeClient | None = None,
) -> list[ResolvedTarget]:
    """One target per descriptor subject carrying mapping facts; every
    such subject must state entity, type and attribute unambiguously."""
    mapping_predicates = {MED_DESCRIBES_ENTITY, MED_ENTITY_TYPE, MED_ATTRIBUTE_NAME}
    subjects = sorted(
        {t.subject for t in descriptor if t.predicate in mapping_predicates},
        key=term_text,
    )
    targets = []
    for subject in subjects:
        where = term_text(subject)
        entity_iri = _single(descriptor, subject, MED_DESCRIBES_ENTITY, IRI)
        entity_type = _single(descriptor, subject, MED_ENTITY_TYPE, IRI)
        attribute_name = _single(descriptor, subject, MED_ATTRIBUTE_NAME, Literal)
        unit = _single(descriptor, subject, MED_UNIT_OF_MEASURE, Literal, required=False)
        raw_location = _single(descriptor, subject, MED_LOCATION, Literal, required=False)
        location = None
        if raw_location is not None:
            try:
                lon, lat = map(float, raw_location.split(","))
                if not (math.isfinite(lon) and math.isfinite(lat)):
                    raise ValueError(raw_location)
                location = (lon, lat)
            except ValueError:
                log.warning("%s: ignoring malformed location %r", where, raw_location)
        value_path = _single(descriptor, subject, MED_VALUE_PATH, Literal, required=False) or DEFAULT_VALUE_PATH
        conversion_hint = _single(descriptor, subject, MED_CONVERSION, Literal, required=False)
        if knowledge and not knowledge.declared_class(entity_type):
            log.warning("%s: entity type %s is not a declared class", where, entity_type)
        targets.append(
            ResolvedTarget(
                subject=where,
                entity_iri=entity_iri,
                entity_id=ngsi_entity_id(entity_iri),
                entity_type=entity_type,
                attribute_name=attribute_name,
                unit=unit,
                location=location,
                value_path=value_path,
                conversion_hint=conversion_hint,
                source_path=source_path,
            )
        )
    if not targets:
        raise ReasoningFailed("descriptor carries no mapping facts")
    return targets


def resolve_pointer(doc: Any, pointer: str) -> Any:
    if pointer == "":
        return doc
    if not pointer.startswith("/"):
        raise ExtractionError(f"value path '{pointer}' must start with '/'")
    node = doc
    for token in pointer[1:].split("/"):
        token = token.replace("~1", "/").replace("~0", "~")
        if isinstance(node, dict):
            if token not in node:
                raise ExtractionError(f"no member '{token}' at '{pointer}'")
            node = node[token]
        elif isinstance(node, list):
            try:
                index = int(token)
            except ValueError:
                raise ExtractionError(f"'{token}' is not an array index") from None
            if not 0 <= index < len(node):
                raise ExtractionError(f"index {index} out of range at '{pointer}'")
            node = node[index]
        else:
            raise ExtractionError(f"cannot descend into {type(node).__name__} at '{token}'")
    return node


# --- gateway -----------------------------------------------------------------------


@dataclass
class TransformationInstance:
    instance_id: str
    source_container: str
    process: TransformationProcess
    target: ResolvedTarget
    routine: ConversionRoutine
    subscription_ri: str
    items_converted: int = 0
    items_dropped: int = 0

    def to_json(self) -> dict:
        return {
            "instanceId": self.instance_id,
            "sourceContainerPath": self.source_container,
            "processId": self.process.process_id,
            "conversionId": self.routine.id,
            "resolvedTarget": self.target.to_json(),
            "itemsConverted": self.items_converted,
            "itemsDropped": self.items_dropped,
        }


@dataclass
class GatewayConfig:
    cse_url: str
    broker_url: str
    knowledge_url: str | None
    mode: str  # "push" | "pull"
    gateway_url: str  # advertised base URL for callbacks and pulls
    processes: list[TransformationProcess]
    rescan_millis: int = DEFAULT_RESCAN_MILLIS
    root_path: str = "/cse"

    @staticmethod
    def from_json(obj: Any, gateway_url: str | None = None) -> "GatewayConfig":
        mode = read(document(obj, "gateway config"), "mode", TEXT)
        if mode not in {"push", "pull"}:
            raise ValueError("gateway 'mode' must be 'push' or 'pull'")
        processes = [TransformationProcess.from_json(p) for p in read(obj, "processes", ITEMS)]
        ids = [p.process_id for p in processes]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate processId in gateway config")
        rescan = read(obj, "rescanPeriodMillis", MILLIS, default=DEFAULT_RESCAN_MILLIS)
        if rescan == 0:
            raise ValueError("'rescanPeriodMillis' must be above 0")
        root_path = read(obj, "rootPath", TEXT, default="/cse")
        if not root_path.startswith("/"):
            raise ValueError("'rootPath' must start with '/'")
        return GatewayConfig(
            cse_url=read(obj, "cseUrl", URL),
            broker_url=read(obj, "brokerUrl", URL),
            knowledge_url=read(obj, "knowledgeUrl", URL, default=None),
            mode=mode,
            gateway_url=(gateway_url or read(obj, "gatewayUrl", URL)).rstrip("/"),
            processes=processes,
            rescan_millis=rescan,
            root_path=root_path,
        )


class MediationGateway:
    """Runs the discover/select/instantiate/convert/publish pipeline.

    Items are converted and published on one KeyedWorkers pool keyed by
    instance id: per-source order, with threads that do not grow with the
    sources. The re-scan loop is one long task on the same pool (key
    "rescan", so it holds one of the pool's threads); it picks up
    annotations added or changed after startup, and a rescan costs two CSE
    listings plus one retrieve per source that is new, not yet settled or
    whose descriptor changed (see scan_once).

    Every NGSI request goes through BrokerClient: push mode appends each
    update, and a push it gives up on is dropped and logged. Pull mode
    registers each target with the broker and appends the updates to a
    ContextBroker of its own, which matches types with the gateway's
    knowledge client; answer_query is that store's query with no
    restriction and no pull.
    """

    def __init__(self, config: GatewayConfig):
        self.config = config
        self.cse = CseClient(config.cse_url)
        self.broker = BrokerClient(config.broker_url)
        self.knowledge = (
            KnowledgeClient(config.knowledge_url) if config.knowledge_url else None
        )
        self._store = ContextBroker(self.knowledge)
        self._lock = threading.Lock()
        self._instances: dict[str, TransformationInstance] = {}
        self._by_subscription: dict[str, TransformationInstance] = {}
        self._claimed: set[tuple[str, str]] = set()  # (container, subject)
        self._descriptors: dict[str, str] = {}  # parent path -> its descriptor's path
        self._versions: dict[str, str] = {}  # container -> lt of the descriptor last processed
        self._settled: set[str] = set()  # containers with nothing to do until lt changes
        self._since: str | None = None  # ms of the next descriptor listing
        self._pool = KeyedWorkers()
        self._counter = 0
        self._stop = threading.Event()
        self.scans = 0

    # -- pipeline steps ----------------------------------------------------

    def discover_sources(self) -> list[tuple[str, Graph]]:
        """The sources that need work, each with its parsed descriptor: new
        ones, unsettled ones, and those whose descriptor's lt differs from
        the one last processed.

        Two listings under rootPath: the annotated source containers, and
        the semantic descriptors modified since the watermark (all of them
        on the first call). Only unsettled or listed sources are retrieved;
        one that cannot be (its descriptor was just deleted) is left for
        the next scan.
        """
        root = self.config.root_path
        paths = self.cse.discover(
            root, resource_type="Container", semantic_filter=SOURCE_FILTER
        )
        changed = set()
        for path in self.cse.discover(
            root, resource_type="SemanticDescriptor", modified_since=self._since
        ):
            parent = path.rpartition("/")[0]
            self._descriptors[parent] = path
            changed.add(parent)
        since = self._since
        sources = []
        for path in paths:
            descriptor_path = self._descriptors.get(path)
            if descriptor_path is None or (path in self._settled and path not in changed):
                continue
            try:
                resource = self.cse.retrieve(descriptor_path)
            except ValueError as exc:
                log.warning("source %s left for the next scan: %s", path, exc)
                continue
            lt = resource["lt"]
            unchanged = lt == self._versions.get(path)
            # The watermark may only move to an lt that predates this scan's
            # listing, or a change made during the scan would never be listed.
            # That holds for an lt already read by an earlier scan, and for a
            # listed descriptor never modified since its creation.
            if unchanged or (path in changed and lt == resource["ct"]):
                since = lt if since is None else max(since, lt)
            if unchanged and path in self._settled:
                continue
            self._versions[path] = lt
            self._settled.discard(path)
            sources.append((path, parse_ntriples(resource["dsp"])))
        self._since = since
        return sources

    def scan_once(self) -> int:
        """One discovery pass; returns the number of new instances.

        A source is settled once every target is claimed, or when its
        outcome cannot change until its descriptor does (no process matches,
        or its targets do not resolve); a settled source costs no request
        until its descriptor's lt changes. A transient failure (the CSE or
        the broker unreachable, a subscription or a registration refused)
        leaves the source unsettled, so the next scan tries it again.
        """
        try:
            sources = self.discover_sources()
        except (TransportError, ValueError) as exc:
            log.warning("source discovery failed, will retry: %s", exc)
            return 0
        self.scans += 1
        created = 0
        for container_path, descriptor in sources:
            added, settled = self._adopt_source(container_path, descriptor)
            created += added
            if settled:
                self._settled.add(container_path)
        return created

    def _adopt_source(self, container_path: str, descriptor: Graph) -> tuple[int, bool]:
        """Instantiates the source's unclaimed targets; returns how many,
        and whether the source is settled."""
        try:
            process = select_process(descriptor, self.config.processes)
        except NoProcessFound:
            log.warning("no process matches %s; source skipped", container_path)
            return 0, True
        try:
            targets = resolve_targets(descriptor, container_path, self.knowledge)
        except ReasoningFailed as exc:
            log.warning("cannot resolve targets for %s: %s", container_path, exc)
            return 0, True
        created = 0
        settled = True
        for target in targets:
            key = (container_path, target.subject)
            with self._lock:
                if key in self._claimed:
                    continue
            try:
                self._instantiate(container_path, process, target)
                created += 1
            except (SubscriptionFailed, ValueError) as exc:
                settled = False
                log.warning("cannot instantiate %s for %s: %s", key, container_path, exc)
        return created, settled

    def _instantiate(
        self, container_path: str, process: TransformationProcess, target: ResolvedTarget
    ) -> TransformationInstance:
        routine = resolve_routine(process.conversion_id)
        assert routine is not None  # processes validate at load time
        if target.conversion_hint:
            hinted = resolve_routine(target.conversion_hint)
            if hinted is None:
                log.warning(
                    "descriptor names unknown conversion '%s'; using process routine",
                    target.conversion_hint,
                )
            else:
                routine = hinted
        with self._lock:
            self._counter += 1
            instance_id = f"ti-{self._counter:05d}"
        sub_name = f"smg-{instance_id}"
        try:
            sub = self.cse.create(
                container_path, "Subscription",
                {"rn": sub_name, "nu": self.config.gateway_url + "/notify"},
            )
        except (TransportError, ValueError) as exc:
            raise SubscriptionFailed(str(exc)) from exc
        instance = TransformationInstance(
            instance_id=instance_id,
            source_container=container_path,
            process=process,
            target=target,
            routine=routine,
            subscription_ri=sub["ri"],
        )
        if self.config.mode == "pull":
            try:
                self._register_provider(instance)
            except SubscriptionFailed:
                # an orphan would notify on every reading, each one dropped
                try:
                    self.cse.delete(f"{container_path}/{sub_name}")
                except (TransportError, ValueError) as exc:
                    log.warning("cannot delete subscription %s: %s", sub["ri"], exc)
                raise
        with self._lock:
            self._claimed.add((container_path, target.subject))
            self._instances[instance_id] = instance
            self._by_subscription[sub["ri"]] = instance
        log.info(
            "instantiated %s: %s -> %s.%s via %s",
            instance_id, container_path, instance.target.entity_id,
            instance.target.attribute_name, routine.id,
        )
        return instance

    def _register_provider(self, instance: TransformationInstance) -> None:
        target = instance.target
        try:
            self.broker.register(
                [{"id": target.entity_id, "type": target.entity_type}],
                [target.attribute_name],
                self.config.gateway_url,
            )
        except (TransportError, ValueError) as exc:
            raise SubscriptionFailed(f"registerContext failed: {exc}") from exc

    # -- per-item processing -------------------------------------------------

    def on_notification(self, body: Any) -> None:
        if document(body, "notification").get("event") != "childCreated":
            raise bad_request("expected a childCreated notification")
        sub_ri = read(body, "subscriptionRef", STRING, "notification", "")
        with self._lock:
            instance = self._by_subscription.get(sub_ri)
        if instance is None:
            log.warning("notification for unknown subscription %r dropped", sub_ri)
            return
        resource = read(body, "resource", OBJECT, "notification")
        read(resource, "ct", STRING, "notification 'resource'", None)
        self._pool.submit(instance.instance_id, self._convert, instance, resource)

    def _convert(self, instance: TransformationInstance, resource: dict) -> None:
        try:
            update = self.build_update(instance, resource)
        except (ExtractionError, ConversionError) as exc:
            with self._lock:
                instance.items_dropped += 1
            log.warning("%s: item dropped: %s", instance.instance_id, exc)
            return
        published = self.publish(update)  # a drop is logged once, by publish
        with self._lock:
            if published:
                instance.items_converted += 1
            else:
                instance.items_dropped += 1

    def build_update(
        self, instance: TransformationInstance, resource: dict
    ) -> ContextEntity:
        target = instance.target
        raw = resolve_pointer(resource.get("con"), target.value_path)
        converted = instance.routine.convert(raw)
        unit = instance.routine.output_unit or target.unit
        metadata = [ContextMetadata("source", "string", target.source_path)]
        created_at = resource.get("ct")  # a string, checked in on_notification
        if created_at is not None:
            metadata.append(ContextMetadata("timestamp", "string", created_at))
        if unit:
            metadata.append(ContextMetadata("unit", "string", unit))
        if target.location:
            metadata.append(ContextMetadata("location", "geo:point", list(target.location)))
        attribute = ContextAttribute(target.attribute_name, converted, tuple(metadata))
        return ContextEntity(target.entity_id, target.entity_type, (attribute,))

    def publish(self, update: ContextEntity) -> bool:
        """Store (pull) or push the update; False if the push was dropped."""
        if self.config.mode == "pull":
            self._store.update("APPEND", [update])
            return True
        if not self.broker.append([update.to_json()]):
            log.error("update for entity %s dropped: updateContext failed", update.id)
            return False
        return True

    # -- pull-mode provider endpoint ------------------------------------------

    def answer_query(self, body: Any) -> list[ContextEntity]:
        patterns, attributes = parse_request(body, "queryContext")
        return self._store.query(patterns, attributes, None, allow_pull=False)

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        self.scan_once()
        self._pool.submit("rescan", self._rescan_loop)

    def _rescan_loop(self) -> None:
        period = self.config.rescan_millis / 1000.0
        while not self._stop.wait(period):
            self.scan_once()

    def stop(self) -> None:
        self._stop.set()
        self._pool.close()
        self._store.close()

    def instances(self) -> list[TransformationInstance]:
        with self._lock:
            return sorted(self._instances.values(), key=lambda i: i.instance_id)

    def stats(self) -> dict:
        with self._lock:
            return {
                "mode": self.config.mode,
                "scans": self.scans,
                "instances": len(self._instances),
                "itemsConverted": sum(i.items_converted for i in self._instances.values()),
                "itemsDropped": sum(i.items_dropped for i in self._instances.values()),
                "cachedEntities": len(self._store._entities),
                "knowledgeDegraded": self.knowledge.degraded if self.knowledge else 0,
            }


class SmgService(JsonHttpService):
    name = "smg"

    def __init__(self, gateway: MediationGateway):
        super().__init__()
        self.gateway = gateway
        self.router.add("POST", "/notify", self._notify)
        self.router.add("POST", "/ngsi10/queryContext", self._query)
        self.router.add("GET", "/instances", self._instances)
        self.router.add("GET", "/stats", self._stats)

    def start(self) -> None:
        self.gateway.start()

    def close(self) -> None:
        self.gateway.stop()

    def _notify(self, request: HttpRequest) -> HttpResponse:
        self.gateway.on_notification(request.json())
        return HttpResponse(200, {"status": "accepted"})

    def _query(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(200, raw=wire_reply(self.gateway.answer_query(request.json())))

    def _instances(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(
            200, {"instances": [i.to_json() for i in self.gateway.instances()]}
        )

    def _stats(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(200, self.gateway.stats())


def load_gateway_config(path: str, gateway_url: str | None = None) -> GatewayConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return GatewayConfig.from_json(json.load(fh), gateway_url=gateway_url)
