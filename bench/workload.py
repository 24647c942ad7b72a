"""Seeded inputs for the benchmark and the oracles that check the outputs.

Everything the stack receives is generated here from the workload seed:
the class tree and ontology, the sensor fleets and their descriptors,
the broker entities seeded directly, the agent's rule, the query mix and
the reading schedules. The oracles answer from these inputs alone, by
hand-written arithmetic and set membership; they never import ``giots``
or the repository's tests.
"""

from __future__ import annotations

import random
import urllib.parse
from dataclasses import dataclass, field
from decimal import Decimal, localcontext

ONT = "http://wise-iot.example/onto#"
MED = "http://wise-iot.example/mediation#"
CTX = "http://wise-iot.example/context#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_CLASS = "http://www.w3.org/2000/01/rdf-schema#Class"
RDFS_SUBCLASS_OF = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
ROOM = ONT + "Room"

AGENT_ID = "bench-agent"
ATTRIBUTE = "reading"
DERIVED = "checked"

PUSH_SENSORS = 100
PULL_SENSORS = 50
SEED_ENTITIES = 300
BRANCHES = 5  # the class tree: 5 subclasses of ont:Room with 5 subclasses each
QUERY_POOL = 240  # distinct queries the reader cycles through
BOX = 300  # bounding-box side in 0.001-degree steps, about 9 % of the area
SPARQL_THRESHOLD = 100  # kelvin and unitless readings stay above it, celsius below

UNITS = ("celsius", "fahrenheit", None)

PROCESSES = [
    {
        "processId": "celsius-to-kelvin",
        "matchQuery": f'PREFIX med: <{MED}> ASK {{ ?s med:unitOfMeasure "celsius" }}',
        "conversionId": "celsius_to_kelvin",
        "priority": 10,
    },
    {
        "processId": "fahrenheit-to-celsius",
        "matchQuery": f'PREFIX med: <{MED}> ASK {{ ?s med:unitOfMeasure "fahrenheit" }}',
        "conversionId": "fahrenheit_to_celsius",
        "priority": 8,
    },
    {
        "processId": "pass-through",
        "matchQuery": f"PREFIX med: <{MED}> ASK {{ ?s med:attributeName ?n }}",
        "conversionId": "identity",
        "priority": 0,
    },
]

# A type join plus the value, with a FILTER every reading passes, so the
# agent derives exactly one new fact for each new value it sees.
RULE = {
    "ruleId": "checked-reading",
    "body": [
        f"?e <{RDF_TYPE}> ?t",
        f"?e <{CTX}{ATTRIBUTE}> ?v",
        "FILTER(?v > -1000000)",
    ],
    "head": [f"?e <{CTX}{DERIVED}> ?v"],
}


# --- the conversion oracle ---------------------------------------------------------


def convert_by_hand(unit: str | None, raw) -> tuple[Decimal, str | None]:
    """The value and unit the broker must show for a raw reading, in exact decimal."""
    value = Decimal(str(raw))
    if unit == "celsius":
        return value + Decimal("273.15"), "kelvin"
    if unit == "fahrenheit":
        with localcontext() as ctx:
            ctx.prec = 40
            return (value - 32) * 5 / 9, "celsius"
    return value, None


def wire_decimal(value) -> Decimal | None:
    """A JSON number or numeric string from the wire, as an exact Decimal."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        return Decimal(str(value))
    except ArithmeticError:
        return None


# --- the fleet -------------------------------------------------------------------


@dataclass
class Sensor:
    name: str  # container name under the fleet's AE
    entity: str  # broker entity id
    fleet: str  # "push" or "pull"
    unit: str | None
    base: int  # reading k is base + k degrees (or units)
    type: str
    location: tuple[float, float] | None

    @property
    def path(self) -> str:
        return f"/cse/{self.fleet}/{self.name}"

    def raw(self, k: int):
        """Raw reading k; rises by one (converted) unit per reading and stays
        exact in decimal: fahrenheit readings are 32 + 1.8 c for whole c."""
        whole = self.base + k
        if self.unit == "fahrenheit":
            return float(Decimal(32) + Decimal("1.8") * whole)
        return whole

    def expected(self, k: int) -> Decimal:
        return convert_by_hand(self.unit, self.raw(k))[0]

    @property
    def out_unit(self) -> str | None:
        return convert_by_hand(self.unit, 0)[1]

    def descriptor(self) -> str:
        subject = f"<urn:meta:{self.fleet}:{self.name}>"
        lines = [
            f"{subject} <{MED}describesEntity> <urn:entity:{self.entity}> .",
            f"{subject} <{MED}entityType> <{self.type}> .",
            f'{subject} <{MED}attributeName> "{ATTRIBUTE}" .',
        ]
        if self.unit:
            lines.append(f'{subject} <{MED}unitOfMeasure> "{self.unit}" .')
        if self.location:
            lines.append(f'{subject} <{MED}location> "{self.location[0]},{self.location[1]}" .')
        return "\n".join(lines) + "\n"


def ancestors(cls: str, parents: dict[str, str | None]) -> set[str]:
    """cls and every class above it (reflexive-transitive subClassOf)."""
    found = set()
    while cls is not None and cls not in found:
        found.add(cls)
        cls = parents.get(cls)
    return found


def _location(rng: random.Random) -> tuple[float, float]:
    # a 0.001-degree grid; query boxes sit on half steps, so no point is on an edge
    return (round(8 + rng.randrange(1000) / 1000, 3), round(53 + rng.randrange(1000) / 1000, 3))


# --- queries ----------------------------------------------------------------------


@dataclass
class Query:
    kind: str  # "context", "federated", "sparql" or "discovery"
    label: str  # the sub-kind, for reports
    service: str  # "broker", "agent" or "cse"
    method: str
    path: str
    body: dict | None
    expect: frozenset = field(default_factory=frozenset)  # ids or paths
    sparql_type: str | None = None  # SPARQL: the exact type the query joins on


@dataclass
class Inputs:
    seed: int
    parents: dict[str, str | None]
    sensors: list[Sensor]
    seeds: list[dict]
    queries: list[Query]

    @property
    def push(self) -> list[Sensor]:
        return [s for s in self.sensors if s.fleet == "push"]

    @property
    def pull(self) -> list[Sensor]:
        return [s for s in self.sensors if s.fleet == "pull"]

    def ontology(self) -> str:
        lines = []
        for cls, parent in sorted(self.parents.items()):
            lines.append(f"<{cls}> <{RDF_TYPE}> <{RDFS_CLASS}> .")
            if parent is not None:
                lines.append(f"<{cls}> <{RDFS_SUBCLASS_OF}> <{parent}> .")
        return "\n".join(lines) + "\n"

    def query_texts(self) -> list[str]:
        texts = {p["matchQuery"] for p in PROCESSES}
        for q in self.queries:
            if q.kind == "sparql":
                texts.add(q.body["query"])
            elif q.kind == "discovery":
                texts.add(urllib.parse.parse_qs(urllib.parse.urlsplit(q.path).query)["smf"][0])
        return sorted(texts)

    def stack_spec(self) -> dict:
        """Everything the stack process is given: the generated inputs only."""
        return {
            "ontology": self.ontology(),
            "fleets": {
                fleet: [{"name": s.name, "descriptor": s.descriptor()} for s in self.sensors
                        if s.fleet == fleet]
                for fleet in ("push", "pull")
            },
            "processes": PROCESSES,
            "seedEntities": self.seeds,
            "agent": {
                "agentId": AGENT_ID,
                "subscription": {
                    "entities": [{"idPattern": ".*", "type": ROOM}],
                    "attributes": [ATTRIBUTE],
                },
                "rules": [RULE],
                "sparqlEndpointEnabled": True,
            },
            "queries": self.query_texts(),
        }


def class_tree() -> dict[str, str | None]:
    """ont:Room with BRANCHES subclasses, each with BRANCHES subclasses of its own.

    The tree's shape is fixed so that every seed costs the same work; the
    seed decides which classes the sensors and entities are typed with."""
    parents: dict[str, str | None] = {ROOM: None}
    for branch in range(1, BRANCHES + 1):
        parents[f"{ROOM}{branch}"] = ROOM
        for leaf in range(1, BRANCHES + 1):
            parents[f"{ROOM}{branch}_{leaf}"] = f"{ROOM}{branch}"
    return parents


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    parents = class_tree()
    classes = sorted(c for c in parents if c != ROOM)
    # one sensor class under each branch, so each branch holds the same share
    sensor_types = [rng.choice([c for c, p in parents.items() if p == f"{ROOM}{b}"])
                    for b in range(1, BRANCHES + 1)]

    sensors = []
    for fleet, size, prefix in (("push", PUSH_SENSORS, "dev"), ("pull", PULL_SENSORS, "pull")):
        types = [sensor_types[i % BRANCHES] for i in range(size)]
        rng.shuffle(types)
        for index in range(size):
            unit = UNITS[index % 3]
            if unit == "celsius":
                base = rng.randrange(-20, 41)
            elif unit == "fahrenheit":
                base = rng.randrange(-10, 41)
            else:
                base = rng.randrange(1000, 2000)
            sensors.append(
                Sensor(
                    name=f"{fleet[:2]}{index:03d}",
                    entity=f"{prefix}-{index:03d}",
                    fleet=fleet,
                    unit=unit,
                    base=base,
                    type=types[index],
                    location=_location(rng) if fleet == "push" else None,
                )
            )

    seeds = []
    for index in range(SEED_ENTITIES):
        lon, lat = _location(rng)
        seeds.append(
            {
                "id": f"seed-{index:03d}",
                "type": classes[index % len(classes)],
                "attributes": [
                    {
                        "name": "label",
                        "value": f"seed {index}",
                        "metadata": [{"name": "location", "type": "geo:point", "value": [lon, lat]}],
                    }
                ],
            }
        )
    inputs = Inputs(seed, parents, sensors, seeds, [])
    inputs.queries = _make_queries(rng, inputs, sensor_types)
    return inputs


def _make_queries(rng: random.Random, inputs: Inputs, sensor_types: list[str]) -> list[Query]:
    """QUERY_POOL queries, a quarter of each kind. Within a kind the sub-kinds
    and their sizes follow a fixed rotation, so only ids and values vary."""
    parents = inputs.parents
    stored = [(s.entity, s.type, s.location) for s in inputs.push]
    stored += [
        (e["id"], e["type"], tuple(e["attributes"][0]["metadata"][0]["value"])) for e in inputs.seeds
    ]
    pull = inputs.pull

    def members(cls, entities):
        return frozenset(eid for eid, etype, *_ in entities if cls in ancestors(etype, parents))

    def context(turn: int) -> Query:
        sub = ("supertype", "id", "bbox")[turn % 3]
        if sub == "supertype":
            # alternately a branch class and a sensor class
            sensor_type = rng.choice(sensor_types)
            cls = parents[sensor_type] if turn % 2 else sensor_type
            body = {"entities": [{"idPattern": ".*", "type": cls}]}
            expect = members(cls, stored)
        elif sub == "id":
            sensor = rng.choice(inputs.push)
            body = {"entities": [{"id": sensor.entity}]}
            expect = frozenset({sensor.entity})
        else:
            lon0, lat0 = rng.randrange(0, 1000 - BOX), rng.randrange(0, 1000 - BOX)
            box = {
                "minLon": 8 + (lon0 + 0.5) / 1000, "maxLon": 8 + (lon0 + BOX + 0.5) / 1000,
                "minLat": 53 + (lat0 + 0.5) / 1000, "maxLat": 53 + (lat0 + BOX + 0.5) / 1000,
            }
            body = {
                "entities": [{"idPattern": ".*"}],
                "restriction": {"scopeType": "bbox", "value": box},
            }
            expect = frozenset(
                eid for eid, _, (lon, lat) in stored
                if box["minLon"] <= lon <= box["maxLon"] and box["minLat"] <= lat <= box["maxLat"]
            )
        return Query("context", sub, "broker", "POST", "/ngsi10/queryContext", body, expect)

    def federated(turn: int) -> Query:
        # in turn the root (all pull sensors), a branch class and a sensor class
        sensor_type = rng.choice(sensor_types)
        cls = (ROOM, parents[sensor_type], sensor_type)[turn % 3]
        body = {"entities": [{"idPattern": "pull-.*", "type": cls}]}
        expect = frozenset(s.entity for s in pull if cls in ancestors(s.type, parents))
        return Query("federated", "pull", "broker", "POST", "/ngsi10/queryContext", body, expect)

    def sparql(turn: int) -> Query:
        cls = sensor_types[turn % len(sensor_types)]
        text = (
            f"PREFIX ctx: <{CTX}> SELECT ?e ?v WHERE {{ ?e <{RDF_TYPE}> <{cls}> . "
            f"?e ctx:{ATTRIBUTE} ?v . FILTER(?v > {SPARQL_THRESHOLD}) }}"
        )
        return Query("sparql", "select", "agent", "POST", "/sparql", {"query": text},
                     sparql_type=cls)

    def discovery(turn: int) -> Query:
        root = ("/cse", "/cse/push", "/cse/pull")[turn % 3]
        unit = ("celsius", "fahrenheit")[turn % 2]
        smf = f'PREFIX med: <{MED}> ASK {{ ?s med:unitOfMeasure "{unit}" }}'
        path = root + "?" + urllib.parse.urlencode([("fu", "1"), ("ty", "3"), ("smf", smf)])
        expect = frozenset(
            s.path for s in inputs.sensors if s.unit == unit and s.path.startswith(root + "/")
        )
        return Query("discovery", unit, "cse", "GET", path, None, expect)

    pool = []
    for turn in range(QUERY_POOL // 4):
        pool += [context(turn), federated(turn), sparql(turn), discovery(turn)]
    rng.shuffle(pool)
    return pool


# --- schedules ------------------------------------------------------------------


def poisson_schedule(rng: random.Random, rate: float, duration: float) -> list[float]:
    """Offsets in seconds of Poisson arrivals at `rate` per second, conditioned
    on exactly round(rate * duration) arrivals: given their count, the
    arrival times of a Poisson process are independent and uniform over the
    interval. Fixing the count keeps every run's work the same."""
    return sorted(rng.uniform(0.0, duration) for _ in range(round(rate * duration)))


# --- answer oracles ------------------------------------------------------------------


class Ledger:
    """What the generator has sent: per entity, the converted values in order."""

    def __init__(self, inputs: Inputs):
        self.by_entity = {s.entity: s for s in inputs.sensors}
        self.seeds = {e["id"]: e for e in inputs.seeds}
        self.next_k = {s.entity: 0 for s in inputs.sensors}
        self.sent: dict[str, list[Decimal]] = {s.entity: [] for s in inputs.sensors}
        self.sent_set: dict[str, set[Decimal]] = {s.entity: set() for s in inputs.sensors}

    def next_reading(self, sensor: Sensor):
        """Reserve the sensor's next reading: (k, raw value, expected value)."""
        k = self.next_k[sensor.entity]
        self.next_k[sensor.entity] = k + 1
        expected = sensor.expected(k)
        self.sent[sensor.entity].append(expected)
        self.sent_set[sensor.entity].add(expected)
        return k, sensor.raw(k), expected

    def check_entity(self, entity: dict) -> str | None:
        """None when a broker entity agrees with what was sent, else why not."""
        eid = entity.get("id")
        attrs = {a.get("name"): a for a in entity.get("attributes") or []}
        if eid in self.seeds:
            seed = self.seeds[eid]
            if entity.get("type") != seed["type"]:
                return f"{eid}: type {entity.get('type')!r}"
            if attrs.get("label", {}).get("value") != seed["attributes"][0]["value"]:
                return f"{eid}: label differs"
            return None
        sensor = self.by_entity.get(eid)
        if sensor is None:
            return f"unexpected entity {eid!r}"
        if entity.get("type") != sensor.type:
            return f"{eid}: type {entity.get('type')!r}, expected {sensor.type}"
        for name, attr in attrs.items():
            meta = {m.get("name"): m.get("value") for m in attr.get("metadata") or []}
            value = wire_decimal(attr.get("value"))
            if value not in self.sent_set[eid]:
                return f"{eid}.{name}: value {attr.get('value')!r} was never sent"
            if name == ATTRIBUTE:
                if meta.get("unit") != sensor.out_unit or meta.get("source") != sensor.path:
                    return f"{eid}: unit {meta.get('unit')!r} / source {meta.get('source')!r}"
            elif name == DERIVED:
                if meta.get("source") != AGENT_ID or not isinstance(attr.get("value"), str):
                    return f"{eid}: derived fact {attr!r} does not match the rule head"
            else:
                return f"{eid}: unexpected attribute {name!r}"
        return None

    def check_answer(self, query: Query, status: int, payload) -> str | None:
        """None when a query answer equals the oracle's, else what differs."""
        if status != 200 or not isinstance(payload, dict):
            return f"status {status}"
        if query.kind == "discovery":
            got = payload.get("uril")
            if got != sorted(query.expect):
                return f"discovery returned {got!r}"
            return None
        if query.kind == "sparql":
            return self._check_sparql(query, payload)
        entities = payload.get("entities")
        if not isinstance(entities, list):
            return "no entity list"
        ids = [e.get("id") for e in entities]
        if ids != sorted(query.expect):
            return f"ids {sorted(set(ids) ^ query.expect)[:5]} differ"
        for entity in entities:
            problem = self.check_entity(entity)
            if problem:
                return problem
        return None

    def _check_sparql(self, query: Query, payload: dict) -> str | None:
        solutions = payload.get("solutions")
        if payload.get("variables") != ["e", "v"] or not isinstance(solutions, list):
            return "malformed SELECT result"
        got = {}
        for row in solutions:
            entity = row.get("e", {}).get("value", "")
            got[entity.removeprefix("urn:")] = wire_decimal(row.get("v", {}).get("value"))
        for eid, value in got.items():
            sensor = self.by_entity.get(eid)
            if sensor is None or sensor.type != query.sparql_type:
                return f"solution {eid!r} has the wrong type"
            if value not in self.sent_set[eid] or value <= SPARQL_THRESHOLD:
                return f"solution {eid}={value} fails the filter or was never sent"
        for sensor in self.by_entity.values():
            if sensor.fleet != "push" or sensor.type != query.sparql_type:
                continue
            sent = self.sent[sensor.entity]
            # every value sent so far passes the filter: the entity must answer
            if sent and all(v > SPARQL_THRESHOLD for v in sent) and sensor.entity not in got:
                return f"solution {sensor.entity} missing"
            if sent and all(v <= SPARQL_THRESHOLD for v in sent) and sensor.entity in got:
                return f"solution {sensor.entity} should not pass the filter"
        return None

