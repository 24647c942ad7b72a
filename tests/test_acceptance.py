"""Release gate: one end-to-end check per guaranteed behavior.

Each test settles its verdict against an independent oracle rather than the
code under test: exhaustive assignment enumeration for query answering, a
closure matrix for subsumption, recorded ground truth for discovery and
notifications, and hand-written unit conversions for the pipelines. The
terminal summary prints one PASS/FAIL line per test in this module.
"""

import json
import random
import time
from datetime import datetime
from decimal import Decimal

from giots.agent import Agent, AgentConfig, AgentService
from giots.broker import BrokerClient, BrokerService
from giots.cse import CseClient, CseService, ResourceTree, discover
from giots.httpkit import Stack, get_json, post_json, request_json
from giots.ontology import load_ontology
from giots.rdf import MED_NS, parse_ntriples, serialize_ntriples
from giots.scenario import run_scenario
from giots.smg import GatewayConfig, MediationGateway, SmgService, TransformationProcess
from giots.sparql import evaluate, parse_sparql

from conftest import CORPUS_DIR, SCENARIOS_DIR
from oracles import (
    brute_force_ask,
    brute_force_select,
    celsius_from_fahrenheit,
    dag_to_ntriples,
    frozen_row,
    kelvin_from_celsius,
    random_class_dag,
    random_graph,
    random_query,
    reachability_closure,
)

ONT = "http://wise-iot.example/onto#"
VOCAB = "http://example.org/vocab#"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"


def _poll(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        result = condition()
        if result:
            return result
        time.sleep(0.05)
    return condition()


def _epoch(stamp: str) -> float:
    return datetime.fromisoformat(stamp.replace("Z", "+00:00")).timestamp()


# --- 1: query answering ----------------------------------------------------------


def test_query_evaluation_matches_exhaustive_enumeration():
    """SPARQL evaluation agrees with exhaustive enumeration on 1000 random cases in under 60 s."""
    rng = random.Random(4101)
    started = time.monotonic()
    for case in range(1000):
        graph = random_graph(rng, 50)
        query = random_query(rng, graph)
        got = evaluate(query, graph)
        if query.form == "ASK":
            assert got is brute_force_ask(query, graph), f"case {case}"
        else:
            rows = {frozen_row(row) for row in got}
            assert rows == brute_force_select(query, graph), f"case {case}"
    assert time.monotonic() - started < 60.0


# --- 2: resource discovery -------------------------------------------------------

_LABEL_POOL = ["temp", "hvac", "floor1", "floor2"]

_DESCRIPTOR_POOL = [
    (
        f'<urn:dev:a> <{MED_NS}unitOfMeasure> "celsius" .\n'
        f'<urn:dev:a> <{MED_NS}attributeName> "temperature" .\n'
    ),
    (
        f'<urn:dev:b> <{MED_NS}unitOfMeasure> "fahrenheit" .\n'
        f'<urn:dev:b> <{MED_NS}attributeName> "temperature" .\n'
    ),
    (
        f'<urn:dev:c> <{MED_NS}attributeName> "occupancy" .\n'
        f"<urn:dev:c> <{MED_NS}describesEntity> <urn:entity:room9> .\n"
    ),
    (
        f'<urn:dev:d> <{VOCAB}measures> "light" .\n'
        f'<urn:dev:d> <{VOCAB}lumens> "800"^^<{XSD_INTEGER}> .\n'
    ),
    "",
]

_FILTER_POOL = [
    None,
    f'PREFIX med: <{MED_NS}> ASK {{ ?s med:unitOfMeasure "celsius" }}',
    f"PREFIX med: <{MED_NS}> ASK {{ ?s med:attributeName ?n }}",
    f'PREFIX med: <{MED_NS}> ASK {{ ?s med:unitOfMeasure "kelvin" }}',
    f"PREFIX med: <{MED_NS}> ASK {{ ?s med:describesEntity ?e }}",
    f'SELECT ?s WHERE {{ ?s <{VOCAB}measures> "light" }}',
    f"SELECT ?s WHERE {{ ?s <{VOCAB}lumens> ?l . FILTER(?l > 500) }}",
]


def _random_tree(rng):
    """A random legal resource tree plus this test's own record of it."""
    tree = ResourceTree()
    records = []  # (path, type name, labels)
    descriptor_text = {}  # candidate path -> descriptor N-Triples
    parents = [("/cse", "CSEBase")]
    child_types = {
        "CSEBase": ["AE"],
        "AE": ["Container"],
        "Container": ["Container", "ContentInstance"],
    }
    total = rng.randrange(5, 41)
    descriptor_budget = 10
    serial = 0
    while len(records) < total:
        parent_path, parent_ty = rng.choice(parents)
        options = child_types.get(parent_ty)
        roll = rng.random()
        if (
            descriptor_budget > 0
            and roll < 0.25
            and parent_ty in ("AE", "Container", "ContentInstance")
            and parent_path not in descriptor_text
        ):
            text = rng.choice(_DESCRIPTOR_POOL)
            serial += 1
            resource = tree.create(
                parent_path, "SemanticDescriptor", {"rn": f"sem{serial}", "dsp": text}
            )
            records.append((resource.path, "SemanticDescriptor", []))
            descriptor_text[parent_path] = text
            descriptor_budget -= 1
            continue
        if not options:
            continue
        ty = rng.choice(options)
        serial += 1
        body = {"rn": f"r{serial}"}
        labels = rng.sample(_LABEL_POOL, rng.randrange(0, 3))
        if labels:
            body["lbl"] = labels
        if ty == "ContentInstance":
            body["con"] = {"v": serial}
        resource = tree.create(parent_path, ty, body)
        records.append((resource.path, ty, labels))
        if ty in ("AE", "Container"):
            parents.append((resource.path, ty))
    return tree, records, descriptor_text


def _filter_matches(query_text, descriptor):
    if descriptor is None:
        return False
    query = parse_sparql(query_text)
    graph = parse_ntriples(descriptor)
    if query.form == "ASK":
        return brute_force_ask(query, graph)
    return bool(brute_force_select(query, graph))


def test_discovery_agrees_with_per_descriptor_evaluation():
    """Filtered discovery matches an independent per-resource evaluation on 200 random trees."""
    rng = random.Random(4202)
    for case in range(200):
        tree, records, descriptor_text = _random_tree(rng)
        roots = ["/cse"] + [p for p, ty, _ in records if ty in ("AE", "Container")]
        for probe in range(4):
            root = "/cse" if rng.random() < 0.85 else rng.choice(roots)
            ty = rng.choice(
                [None, None, "AE", "Container", "ContentInstance", "SemanticDescriptor"]
            )
            labels = rng.sample(_LABEL_POOL, rng.randrange(1, 3)) if rng.random() < 0.4 else None
            smf = rng.choice(_FILTER_POOL)
            expected = sorted(
                path
                for path, rty, lbl in records
                if path.startswith(root + "/")
                and (ty is None or rty == ty)
                and (labels is None or set(labels) & set(lbl))
                and (smf is None or _filter_matches(smf, descriptor_text.get(path)))
            )
            got = discover(tree, root, resource_type=ty, labels=labels, semantic_filter=smf)
            assert got == expected, f"case {case} probe {probe}: root={root} ty={ty}"


# --- 3: the packaged room scenario -----------------------------------------------


def test_room_scenario_reaches_kelvin_reading_end_to_end():
    """The packaged room scenario publishes 298.15 kelvin end to end in under 10 s."""
    path = SCENARIOS_DIR / "room123.json"
    doc = json.loads(path.read_text())
    sensor = doc["sensors"][0]
    checks = [a for a in doc["assertions"] if a["kind"] == "queryContextEquals"]
    assert checks, "scenario must state the expected broker answer"
    attribute = checks[0]["expected"]["entities"][0]["attributes"][0]
    # by-hand conversion of the replayed value, compared to the packaged expectation
    assert kelvin_from_celsius(sensor["valueSequence"][0]) == Decimal(str(attribute["value"]))
    metadata = {m["name"]: m["value"] for m in attribute["metadata"]}
    assert metadata["unit"] == "kelvin"
    assert metadata["source"] == sensor["containerPath"]
    assert checks[0].get("toleranceMillis", 0) > 0  # timestamps are checked, not stripped

    started = time.monotonic()
    report = run_scenario(path, print_report=False)
    elapsed = time.monotonic() - started
    assert report.exit_code == 0, "\n".join(report.lines())
    assert elapsed < 10.0


# --- 4: push and pull parity -----------------------------------------------------

_FLEET_PROCESSES = [
    {
        "processId": "celsius-to-kelvin",
        "matchQuery": f'PREFIX med: <{MED_NS}> ASK {{ ?s med:unitOfMeasure "celsius" }}',
        "conversionId": "celsius_to_kelvin",
        "priority": 10,
    },
    {
        "processId": "fahrenheit-to-celsius",
        "matchQuery": f'PREFIX med: <{MED_NS}> ASK {{ ?s med:unitOfMeasure "fahrenheit" }}',
        "conversionId": "fahrenheit_to_celsius",
        "priority": 8,
    },
    {
        "processId": "pass-through",
        "matchQuery": f"PREFIX med: <{MED_NS}> ASK {{ ?s med:attributeName ?n }}",
        "conversionId": "identity",
        "priority": 0,
    },
]


def _fleet_spec(rng, size=100):
    """Random sensors whose conversions stay exact in decimal arithmetic."""
    sensors = []
    for index in range(size):
        unit = ("celsius", "fahrenheit", None)[index % 3]
        if unit == "celsius":
            value = rng.randrange(-20, 41)
            expected = kelvin_from_celsius(value)
            out_unit = "kelvin"
        elif unit == "fahrenheit":
            # 32 + 1.8k converts back to the whole number k
            value = float(Decimal("32") + Decimal("1.8") * rng.randrange(-10, 41))
            expected = celsius_from_fahrenheit(str(value))
            out_unit = "celsius"
        else:
            value = rng.randrange(0, 1000)
            expected = Decimal(value)
            out_unit = None
        sensors.append(
            {
                "name": f"s{index:03d}",
                "entity": f"dev-{index:03d}",
                "attribute": rng.choice(["temperature", "reading", "level"]),
                "unit": unit,
                "value": value,
                "expected": expected,
                "outUnit": out_unit,
            }
        )
    return sensors


def _fleet_descriptor(sensor):
    subject = f"urn:meta:{sensor['name']}"
    lines = [
        f"<{subject}> <{MED_NS}describesEntity> <urn:entity:{sensor['entity']}> .",
        f"<{subject}> <{MED_NS}entityType> <{ONT}Room> .",
        f'<{subject}> <{MED_NS}attributeName> "{sensor["attribute"]}" .',
    ]
    if sensor["unit"]:
        lines.append(f'<{subject}> <{MED_NS}unitOfMeasure> "{sensor["unit"]}" .')
    return "\n".join(lines) + "\n"


def _broker_snapshot(entities):
    """(type, attribute -> (value, unit, source)) per entity, plus raw timestamps."""
    snapshot = {}
    stamps = []
    for entity in entities:
        attributes = {}
        for attribute in entity["attributes"]:
            metadata = {m["name"]: m["value"] for m in attribute["metadata"]}
            if "timestamp" in metadata:
                stamps.append(metadata["timestamp"])
            attributes[attribute["name"]] = (
                attribute["value"],
                metadata.get("unit"),
                metadata.get("source"),
            )
        snapshot[entity["id"]] = (entity.get("type"), attributes)
    return snapshot, stamps


def _run_fleet(mode, sensors):
    stack = Stack()
    try:
        cse_url = stack.serve("cse", CseService()).url
        broker_url = stack.serve("broker", BrokerService()).url
        started = time.time()
        client = CseClient(cse_url)
        client.create("/cse", "AE", {"rn": "fleet"})
        for sensor in sensors:
            container = f"/cse/fleet/{sensor['name']}"
            client.create("/cse/fleet", "Container", {"rn": sensor["name"]})
            client.create(
                container, "SemanticDescriptor", {"rn": "sem", "dsp": _fleet_descriptor(sensor)}
            )
        port = stack.port("smg")
        config = GatewayConfig(
            cse_url=cse_url,
            broker_url=broker_url,
            knowledge_url=None,
            mode=mode,
            gateway_url=f"http://127.0.0.1:{port}",
            processes=[TransformationProcess.from_json(p) for p in _FLEET_PROCESSES],
            rescan_millis=60000,
        )
        gateway = MediationGateway(config)
        stack.serve("smg", SmgService(gateway), port)  # start() runs the first scan
        assert len(gateway.instances()) == len(sensors)
        for sensor in sensors:
            client.create(
                f"/cse/fleet/{sensor['name']}",
                "ContentInstance",
                {"rn": f"{sensor['name']}-0000", "con": {"value": sensor["value"]}},
            )
        broker = BrokerClient(broker_url)
        if mode == "push":
            assert _poll(lambda: len(broker.query([{"idPattern": "dev-.*"}])) == len(sensors))
        else:
            assert _poll(lambda: gateway.stats()["cachedEntities"] == len(sensors))
        entities = broker.query([{"idPattern": "dev-.*"}])
        finished = time.time()
        snapshot, stamps = _broker_snapshot(entities)
        return snapshot, stamps, (started, finished)
    finally:
        stack.stop()


def test_push_and_pull_modes_reach_the_same_broker_state():
    """Push and pull delivery produce identical broker state for the same 100-sensor fleet."""
    sensors = _fleet_spec(random.Random(4404))
    push_state, push_stamps, push_window = _run_fleet("push", sensors)
    pull_state, pull_stamps, pull_window = _run_fleet("pull", sensors)

    assert push_state == pull_state
    assert len(push_state) == len(sensors)
    for sensor in sensors:
        entity_type, attributes = push_state[sensor["entity"]]
        value, unit, source = attributes[sensor["attribute"]]
        assert entity_type == ONT + "Room"
        # by-hand conversion oracle, exact in decimal
        assert Decimal(str(value)) == sensor["expected"], sensor["name"]
        assert unit == (sensor["outUnit"] or sensor["unit"])
        assert source == f"/cse/fleet/{sensor['name']}"
    for stamps, (started, finished) in ((push_stamps, push_window), (pull_stamps, pull_window)):
        assert len(stamps) == len(sensors)
        for stamp in stamps:
            assert started - 2.0 <= _epoch(stamp) <= finished + 2.0


# --- 5: the fault corpus ---------------------------------------------------------


def _report_is_sound(report):
    assert report["durationMillis"] >= 0
    assert report["passed"] is (report["errors"] == [])
    for error in report["errors"]:
        assert error["category"] in {"syntactic", "semantic", "logical"}


def test_fault_corpus_is_fully_classified(validator_server):
    """Every seeded corpus fault is flagged with its category and every clean artifact passes."""
    manifest = json.loads((CORPUS_DIR / "manifest.json").read_text())
    reference = (CORPUS_DIR / manifest["reference"]).read_text()
    status, payload = request_json("POST", validator_server.url + "/reference", body=reference)
    assert status == 200 and payload["classes"] > 0

    fault_counts = {}
    problems = []
    entries = list(manifest["entries"])
    # the ontology that the packaged scenarios run on must validate clean too
    entries.append({"file": "../scenarios/meeting-room.nt", "kind": "ontology", "expect": "pass"})
    for entry in entries:
        raw = (CORPUS_DIR / entry["file"]).read_text()
        url = f"{validator_server.url}/validate/{entry['kind']}"
        if entry["kind"] == "rule":
            status, report = post_json(url, json.loads(raw))
        else:
            status, report = request_json("POST", url, body=raw)
        assert status == 200, entry["file"]
        _report_is_sound(report)
        if entry["expect"] == "pass":
            if not report["passed"]:
                problems.append(f"{entry['file']}: expected clean, got {report['errors']}")
        else:
            fault_counts[entry["kind"]] = fault_counts.get(entry["kind"], 0) + 1
            flagged = {error["category"] for error in report["errors"]}
            if report["passed"] or entry["category"] not in flagged:
                problems.append(
                    f"{entry['file']}: expected a {entry['category']} error, got {report['errors']}"
                )
    assert not problems, "\n".join(problems)
    for kind in ("ontology", "annotation", "rule", "sparql"):
        assert fault_counts.get(kind, 0) >= 5, f"corpus needs 5+ {kind} faults"


# --- 6: subsumption --------------------------------------------------------------


def test_subsumption_agrees_with_closure_matrix():
    """Subclass reasoning matches a reachability-matrix oracle on 100 random class graphs."""
    rng = random.Random(4606)
    for case in range(100):
        names, edges = random_class_dag(rng, 20)
        ontology = load_ontology(parse_ntriples(dag_to_ntriples(names, edges)))
        reach = reachability_closure(names, edges)
        for sub in names:
            for sup in names:
                assert ontology.is_subclass(sub, sup) == reach[(sub, sup)], (
                    f"case {case}: {sub} vs {sup}"
                )


# --- 7: notification completeness ------------------------------------------------


def test_fifty_readings_notify_exactly_fifty_times_in_order(cse_server, capture_server):
    """Fifty stored readings produce exactly fifty child-creation notices in order."""
    client = CseClient(cse_server.url)
    client.create("/cse", "AE", {"rn": "app"})
    client.create("/cse/app", "Container", {"rn": "room"})
    client.create(
        "/cse/app/room", "Subscription", {"rn": "sub", "nu": capture_server.url + "/notify"}
    )
    for index in range(50):
        client.create(
            "/cse/app/room", "ContentInstance", {"rn": f"cin-{index:04d}", "con": {"seq": index}}
        )
    assert capture_server.wait_for(50, timeout=20.0)
    time.sleep(0.5)  # no late extras
    payloads = capture_server.delivered()
    assert len(payloads) == 50
    assert all(p["event"] == "childCreated" for p in payloads)
    assert len({p["subscriptionRef"] for p in payloads}) == 1
    assert [p["resource"]["con"]["seq"] for p in payloads] == list(range(50))
    assert [p["resource"]["rn"] for p in payloads] == [f"cin-{i:04d}" for i in range(50)]


# --- 8: agent feedback -----------------------------------------------------------


def test_agent_feeds_back_each_derived_fact_exactly_once(broker_server):
    """A derived occupancy fact is fed back exactly once and the loop stays quiet."""
    doc = json.loads((SCENARIOS_DIR / "occupancy-agent.json").read_text())
    doc["brokerUrl"] = broker_server.url
    config = AgentConfig.from_json(doc)
    stack = Stack()
    port = stack.port("agent")
    handle = stack.serve("agent", AgentService(Agent(config, f"http://127.0.0.1:{port}")), port)
    try:
        broker = BrokerClient(broker_server.url)

        def update_count():
            status, metrics = get_json(broker_server.url + "/metrics")
            assert status == 200
            return metrics.get("updateContext", 0)

        before = update_count()
        broker.update(
            "APPEND",
            [
                {
                    "id": "room123",
                    "type": ONT + "Room",
                    "attributes": [{"name": "occupancy", "value": 4, "metadata": []}],
                }
            ],
        )
        entities = _poll(lambda: broker.query([{"id": "room123"}], attributes=["occupied"]))
        (entity,) = entities
        (attribute,) = entity["attributes"]
        assert attribute["value"] == "true"
        metadata = {m["name"]: m["value"] for m in attribute["metadata"]}
        assert metadata["source"] == config.agent_id

        time.sleep(1.0)  # let any echo land before counting
        after = update_count()
        # one hand-derived fact (occupancy 4 > 0 implies occupied), minus this
        # test's own seeding update: the agent wrote exactly once
        assert after - before - 1 == 1
        time.sleep(0.8)
        assert update_count() == after  # steady state, no re-derivation
        status, stats = get_json(handle.url + "/stats")
        assert status == 200 and stats["derivedFactsSent"] == 1
    finally:
        stack.stop()


# --- 9: serialization ------------------------------------------------------------


def test_ntriples_round_trip_is_lossless():
    """Serializing and reparsing 500 random graphs reproduces each graph exactly."""
    rng = random.Random(4909)
    for case in range(500):
        graph = random_graph(rng, 40)
        assert parse_ntriples(serialize_ntriples(graph)) == graph, f"case {case}"
