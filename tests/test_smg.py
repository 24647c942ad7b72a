"""Mediation gateway: conversion routines, process selection, descriptor
target resolution, and the end-to-end push and pull pipelines."""

import json
import logging
import math
import threading
import time
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from giots import smg
from giots.broker import BrokerClient, BrokerService, ContextBroker
from giots.cse import CseClient
from giots.httpkit import (
    WORKER_THREADS,
    HttpRequest,
    TransportError,
    find_free_port,
    get_json,
    post_json,
    request_json,
    run_service,
    wait_healthy,
)
from giots.ngsi import ContextEntity, parse_attribute_names, parse_patterns
from giots.rdf import MED_NS, parse_ntriples
from giots.smg import (
    ConversionError,
    ExtractionError,
    GatewayConfig,
    MediationGateway,
    NoProcessFound,
    ReasoningFailed,
    SmgService,
    TransformationProcess,
    ngsi_entity_id,
    resolve_pointer,
    resolve_routine,
    resolve_targets,
    select_process,
)

from oracles import celsius_from_fahrenheit, kelvin_from_celsius, scaled

ONT = "http://wise-iot.example/onto#"

CELSIUS_PROCESS = {
    "processId": "celsius-to-kelvin",
    "matchQuery": f'PREFIX med: <{MED_NS}> ASK {{ ?s med:unitOfMeasure "celsius" }}',
    "conversionId": "celsius_to_kelvin",
    "priority": 10,
}
IDENTITY_PROCESS = {
    "processId": "identity-fallback",
    "matchQuery": f"PREFIX med: <{MED_NS}> ASK {{ ?s med:attributeName ?n }}",
    "conversionId": "identity",
    "priority": 0,
}


def _descriptor(unit=None, extra=""):
    lines = [
        f"<urn:src:room1> <{MED_NS}describesEntity> <urn:entity:room123> .",
        f"<urn:src:room1> <{MED_NS}entityType> <{ONT}MeetingRoom> .",
        f'<urn:src:room1> <{MED_NS}attributeName> "temperature" .',
    ]
    if unit:
        lines.append(f'<urn:src:room1> <{MED_NS}unitOfMeasure> "{unit}" .')
    if extra:
        lines.append(extra)
    return "\n".join(lines) + "\n"


_HUMIDITY_SUBJECT = (
    f"<urn:src:extra> <{MED_NS}describesEntity> <urn:entity:room123> .\n"
    f"<urn:src:extra> <{MED_NS}entityType> <{ONT}MeetingRoom> .\n"
    f'<urn:src:extra> <{MED_NS}attributeName> "humidity" .\n'
    f'<urn:src:extra> <{MED_NS}valuePath> "/hum" .\n'
)


def _poll(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        result = condition()
        if result:
            return result
        time.sleep(0.05)
    return condition()


# --- conversion routines ---------------------------------------------------------


def test_celsius_to_kelvin_is_exact_offset():
    routine = resolve_routine("celsius_to_kelvin")
    assert routine.output_unit == "kelvin"
    assert routine.convert(25) == 298.15
    assert routine.convert_exact(Decimal("25")) == kelvin_from_celsius(25)
    assert routine.convert_exact(Decimal("-273.15")) == Decimal("0")
    for value in (0, -40, 21.5, 1e-3, 12345.678):
        assert routine.convert_exact(Decimal(str(value))) == kelvin_from_celsius(value)


def test_fahrenheit_to_celsius_matches_reference_points():
    routine = resolve_routine("fahrenheit_to_celsius")
    assert routine.output_unit == "celsius"
    assert routine.convert(212) == 100
    assert routine.convert(32) == 0
    assert routine.convert(-40) == -40
    assert routine.convert_exact(Decimal("98.6")) == celsius_from_fahrenheit("98.6")
    assert celsius_from_fahrenheit("98.6") == Decimal("37")


def test_scale_routine_and_parsing():
    routine = resolve_routine("scale:0.001")
    assert routine.convert(12500) == 12.5
    assert routine.convert_exact(Decimal("7")) == scaled(7, "0.001")
    assert resolve_routine("scale:abc") is None
    assert resolve_routine("scale:Infinity") is None
    assert resolve_routine("made_up_routine") is None


def test_identity_and_string_to_number():
    identity = resolve_routine("identity")
    assert identity.convert("on") == "on"
    assert identity.convert(False) is False
    with pytest.raises(ConversionError):
        identity.convert({"nested": 1})
    s2n = resolve_routine("string_to_number")
    assert s2n.convert(" 42 ") == 42
    assert s2n.convert("3.5") == 3.5
    assert s2n.convert("1e3") == 1000
    with pytest.raises(ConversionError):
        s2n.convert("warm")
    with pytest.raises(ConversionError):
        s2n.convert(42)
    with pytest.raises(ConversionError):
        s2n.convert("inf")


def test_a_result_past_the_float_range_is_a_conversion_error():
    with pytest.raises(ConversionError, match="past the float range"):
        resolve_routine("scale:10").convert(1e308)
    with pytest.raises(ConversionError, match="past the float range"):
        resolve_routine("string_to_number").convert("1e400")
    assert resolve_routine("scale:10").convert(1e307) == 1e308


def test_numeric_routines_reject_non_numbers():
    routine = resolve_routine("celsius_to_kelvin")
    for bad in ("25", True, None, [1], math.nan, math.inf):
        with pytest.raises(ConversionError):
            routine.convert(bad)
    with pytest.raises(ConversionError):
        resolve_routine("identity").convert_exact(Decimal("1"))


# --- transformation processes ----------------------------------------------------


def test_process_parsing_accepts_ask_with_default_priority():
    process = TransformationProcess.from_json(
        {"processId": "p", "matchQuery": "ASK { ?s ?p ?o }", "conversionId": "identity"}
    )
    assert process.priority == 0
    assert process.matches(parse_ntriples(_descriptor()))


@pytest.mark.parametrize(
    "doc",
    [
        "not an object",
        {"matchQuery": "ASK { ?s ?p ?o }", "conversionId": "identity"},
        {"processId": "", "matchQuery": "ASK { ?s ?p ?o }", "conversionId": "identity"},
        {"processId": "p", "matchQuery": "SELECT ?s { ?s ?p ?o }", "conversionId": "identity"},
        {"processId": "p", "matchQuery": "ASK { ?s ?p ?o }", "conversionId": "nope"},
        {"processId": "p", "matchQuery": "ASK { ?s ?p ?o }", "conversionId": "identity",
         "priority": True},
    ],
)
def test_process_parsing_rejects_malformed_documents(doc):
    with pytest.raises(ValueError):
        TransformationProcess.from_json(doc)


def test_select_process_by_priority_then_id():
    celsius = TransformationProcess.from_json(CELSIUS_PROCESS)
    fallback = TransformationProcess.from_json(IDENTITY_PROCESS)
    tied = TransformationProcess.from_json({**CELSIUS_PROCESS, "processId": "a-first"})
    library = [fallback, celsius, tied]
    descriptor = parse_ntriples(_descriptor(unit="celsius"))
    assert select_process(descriptor, library).process_id == "a-first"
    # without the celsius unit only the fallback matches
    assert select_process(parse_ntriples(_descriptor()), library).process_id == (
        "identity-fallback"
    )
    with pytest.raises(NoProcessFound):
        select_process(parse_ntriples(_descriptor()), [celsius])


# --- target resolution -------------------------------------------------------------


def test_resolve_targets_reads_all_mapping_facts():
    text = _descriptor(
        unit="celsius",
        extra=(
            f'<urn:src:room1> <{MED_NS}location> "8.5,53.5" .\n'
            f'<urn:src:room1> <{MED_NS}valuePath> "/readings/0" .\n'
            f'<urn:src:room1> <{MED_NS}conversion> "scale:2" .'
        ),
    )
    (target,) = resolve_targets(parse_ntriples(text), "/cse/app/room1")
    assert target.entity_iri == "urn:entity:room123"
    assert target.entity_id == "room123"
    assert target.entity_type == ONT + "MeetingRoom"
    assert target.attribute_name == "temperature"
    assert target.unit == "celsius"
    assert target.location == (8.5, 53.5)
    assert target.value_path == "/readings/0"
    assert target.conversion_hint == "scale:2"
    assert target.source_path == "/cse/app/room1"


def test_resolve_targets_defaults_and_malformed_location():
    for location in ("somewhere", "nan,0", "inf,1"):
        text = _descriptor(extra=f'<urn:src:room1> <{MED_NS}location> "{location}" .')
        (target,) = resolve_targets(parse_ntriples(text), "/cse/app/room1")
        assert target.value_path == "/value"
        assert target.unit is None
        assert target.location is None  # malformed coordinates are dropped, not fatal
        assert target.conversion_hint is None


_HALL_SUBJECT = (
    f"<urn:src:a> <{MED_NS}describesEntity> <urn:entity:hall> .\n"
    f"<urn:src:a> <{MED_NS}entityType> <{ONT}Room> .\n"
    f'<urn:src:a> <{MED_NS}attributeName> "occupancy" .\n'
)


def test_resolve_targets_one_per_subject_sorted():
    targets = resolve_targets(parse_ntriples(_descriptor() + _HALL_SUBJECT), "/cse/app/room1")
    assert [t.attribute_name for t in targets] == ["occupancy", "temperature"]
    assert [t.entity_id for t in targets] == ["hall", "room123"]


def test_resolve_targets_warns_about_an_entity_type_the_knowledge_server_does_not_declare(caplog):
    class Knowledge:
        def declared_class(self, cls):
            return cls == ONT + "Room"

    descriptor = parse_ntriples(_descriptor() + _HALL_SUBJECT)
    with caplog.at_level(logging.WARNING, logger="giots.smg"):
        targets = resolve_targets(descriptor, "/cse/app/room1", Knowledge())
    assert [t.entity_id for t in targets] == ["hall", "room123"]  # resolved all the same
    assert [r.getMessage() for r in caplog.records if r.name == "giots.smg"] == [
        f"<urn:src:room1>: entity type {ONT}MeetingRoom is not a declared class"
    ]


@pytest.mark.parametrize(
    ("text", "fragment"),
    [
        ("", "no mapping facts"),
        (
            f"<urn:s> <{MED_NS}describesEntity> <urn:entity:x> .\n"
            f'<urn:s> <{MED_NS}attributeName> "t" .\n',
            "missing",
        ),
        (
            _descriptor()
            + f"<urn:src:room1> <{MED_NS}describesEntity> <urn:entity:other> .\n",
            "ambiguous",
        ),
        (
            f'<urn:s> <{MED_NS}describesEntity> "not-an-iri" .\n'
            f"<urn:s> <{MED_NS}entityType> <{ONT}Room> .\n"
            f'<urn:s> <{MED_NS}attributeName> "t" .\n',
            "must be an IRI",
        ),
        (
            f"<urn:s> <{MED_NS}describesEntity> <urn:entity:x> .\n"
            f"<urn:s> <{MED_NS}entityType> <{ONT}Room> .\n"
            f"<urn:s> <{MED_NS}attributeName> <urn:not-a-literal> .\n",
            "must be a literal",
        ),
    ],
)
def test_resolve_targets_rejects_broken_descriptors(text, fragment):
    with pytest.raises(ReasoningFailed, match=fragment):
        resolve_targets(parse_ntriples(text), "/cse/app/room1")


def test_entity_id_strips_urn_prefix_only():
    assert ngsi_entity_id("urn:entity:room123") == "room123"
    assert ngsi_entity_id("http://example.org/e1") == "http://example.org/e1"


def test_resolve_pointer_walks_documents():
    doc = {"value": 5, "readings": [{"t": 1}, {"t": 2}], "a/b": {"~": "tilde"}}
    assert resolve_pointer(doc, "") == doc
    assert resolve_pointer(doc, "/value") == 5
    assert resolve_pointer(doc, "/readings/1/t") == 2
    assert resolve_pointer(doc, "/a~1b/~0") == "tilde"
    for bad in ("/missing", "/readings/9", "/readings/x", "/value/deeper", "no-slash"):
        with pytest.raises(ExtractionError):
            resolve_pointer(doc, bad)


# --- gateway configuration -----------------------------------------------------------


def _config_doc(**overrides):
    doc = {
        "cseUrl": "http://127.0.0.1:9/cse",
        "brokerUrl": "http://127.0.0.1:9/broker",
        "mode": "push",
        "gatewayUrl": "http://127.0.0.1:9/smg",
        "processes": [IDENTITY_PROCESS],
    }
    doc.update(overrides)
    return doc


def test_gateway_config_parsing():
    config = GatewayConfig.from_json(_config_doc())
    assert config.mode == "push"
    assert config.root_path == "/cse"
    assert config.rescan_millis == 5000
    assert config.knowledge_url is None
    # an explicit gateway URL overrides the document's own
    override = GatewayConfig.from_json(_config_doc(), gateway_url="http://10.0.0.1:80/")
    assert override.gateway_url == "http://10.0.0.1:80"


@pytest.mark.parametrize(
    "doc",
    [
        _config_doc(mode="sideways"),
        _config_doc(cseUrl=""),
        _config_doc(processes=[]),
        _config_doc(processes=[IDENTITY_PROCESS, IDENTITY_PROCESS]),
        _config_doc(rescanPeriodMillis=0),
        _config_doc(rescanPeriodMillis=True),
        _config_doc(gatewayUrl=None),
        [],
        _config_doc(knowledgeUrl=5),
        _config_doc(knowledgeUrl=""),
        _config_doc(rootPath=5),
        _config_doc(rootPath="cse"),
        _config_doc(rescanPeriodMillis=10**13),
        _config_doc(cseUrl="not a url"),
        _config_doc(brokerUrl="ftp://x"),
        _config_doc(knowledgeUrl="zz"),
        _config_doc(gatewayUrl="127.0.0.1:9"),
    ],
)
def test_gateway_config_rejects_malformed_documents(doc):
    with pytest.raises(ValueError):
        GatewayConfig.from_json(doc)


# --- end-to-end pipelines --------------------------------------------------------------


def _boot_gateway(cse_url, broker_url, mode="push", processes=None, rescan_millis=60000,
                  knowledge_url=None):
    port = find_free_port()
    config = GatewayConfig(
        cse_url=cse_url,
        broker_url=broker_url,
        knowledge_url=knowledge_url,
        mode=mode,
        gateway_url=f"http://127.0.0.1:{port}",
        processes=[
            TransformationProcess.from_json(p)
            for p in (processes or [CELSIUS_PROCESS, IDENTITY_PROCESS])
        ],
        rescan_millis=rescan_millis,
    )
    gateway = MediationGateway(config)
    handle = run_service(SmgService(gateway), port)  # not started: the tests scan by hand
    return gateway, handle


def _seed_container(cse_url, descriptor_text, rn="room1"):
    client = CseClient(cse_url)
    try:
        client.create("/cse", "AE", {"rn": "app"})
    except ValueError:
        pass  # already there from an earlier call in the same test
    client.create("/cse/app", "Container", {"rn": rn})
    client.create(f"/cse/app/{rn}", "SemanticDescriptor", {"rn": "sem", "dsp": descriptor_text})
    return client, f"/cse/app/{rn}"


def _seed_fleet(cse_url, count):
    cse = CseClient(cse_url)
    cse.create("/cse", "AE", {"rn": "fleet"})
    names = [f"s{i:03d}" for i in range(count)]
    for i, name in enumerate(names):
        cse.create("/cse/fleet", "Container", {"rn": name})
        descriptor = _descriptor(unit="celsius").replace("room123", f"room{i:03d}")
        cse.create(f"/cse/fleet/{name}", "SemanticDescriptor", {"rn": "sem", "dsp": descriptor})
    return cse, names


class _RecordingCse(CseClient):
    """Records each request the gateway makes to the CSE; ``before(op,
    path)`` runs first and may raise or change the tree to inject a fault."""

    def __init__(self, base_url):
        super().__init__(base_url)
        self.calls = []
        self.before = lambda op, path: None

    def _record(self, op, path):
        self.calls.append((op, path))
        self.before(op, path)

    def create(self, parent_path, ty, body):
        self._record("create " + ty, parent_path)
        return super().create(parent_path, ty, body)

    def retrieve(self, path):
        self._record("retrieve", path)
        return super().retrieve(path)

    def delete(self, path):
        self._record("delete", path)
        return super().delete(path)

    def discover(self, root_path, **filters):
        self._record("discover", root_path)
        return super().discover(root_path, **filters)


def test_push_pipeline_converts_and_publishes(cse_server, broker_server):
    cse, path = _seed_container(cse_server.url, _descriptor(unit="celsius"))
    gateway, handle = _boot_gateway(cse_server.url, broker_server.url)
    try:
        assert gateway.scan_once() == 1
        assert gateway.scan_once() == 0  # already claimed, nothing new
        cse.create(path, "ContentInstance", {"rn": "cin1", "con": {"value": 25}})
        broker = BrokerClient(broker_server.url)
        entities = _poll(lambda: broker.query([{"id": "room123"}]))
        assert [e["id"] for e in entities] == ["room123"]
        (attribute,) = entities[0]["attributes"]
        assert attribute["name"] == "temperature"
        assert attribute["value"] == 298.15
        metadata = {m["name"]: m["value"] for m in attribute["metadata"]}
        assert metadata["source"] == path
        assert metadata["unit"] == "kelvin"
        assert metadata["timestamp"].endswith("Z")
        status, payload = get_json(handle.url + "/instances")
        assert status == 200
        (instance,) = payload["instances"]
        assert instance["processId"] == "celsius-to-kelvin"
        assert instance["resolvedTarget"]["ngsiId"] == "room123"
        assert _poll(lambda: get_json(handle.url + "/stats")[1]["itemsConverted"] == 1)
    finally:
        handle.stop()


def test_thread_count_stays_flat_as_the_gateway_adopts_a_fleet(cse_server, broker_server):
    cse, names = _seed_fleet(cse_server.url, 100)
    gateway, handle = _boot_gateway(cse_server.url, broker_server.url)
    try:
        before = threading.active_count()
        assert gateway.scan_once() == len(names)
        for name in names:
            cse.create(f"/cse/fleet/{name}", "ContentInstance", {"rn": "cin1", "con": {"value": 1}})
        broker = BrokerClient(broker_server.url)
        assert _poll(lambda: len(broker.query([{"idPattern": "room.*"}])) == len(names), 20.0)
        # one pool in the CSE and one in the gateway; request threads come and go
        assert _poll(lambda: threading.active_count() - before <= 2 * WORKER_THREADS)
    finally:
        handle.stop()


def test_stats_count_knowledge_answers_given_without_the_server(cse_server, broker_server):
    _seed_container(cse_server.url, _descriptor(unit="celsius"))
    _, plain = _boot_gateway(cse_server.url, broker_server.url)
    gateway, handle = _boot_gateway(cse_server.url, broker_server.url,
                                    knowledge_url=f"http://127.0.0.1:{find_free_port()}")
    try:
        assert get_json(plain.url + "/stats")[1]["knowledgeDegraded"] == 0  # no knowledge URL
        assert get_json(handle.url + "/stats")[1]["knowledgeDegraded"] == 0
        assert gateway.scan_once() == 1  # its entity type is checked, and the check degrades
        assert get_json(handle.url + "/stats")[1]["knowledgeDegraded"] == 1
    finally:
        handle.stop()
        plain.stop()


def test_push_pipeline_drops_bad_items(cse_server, broker_server):
    cse, path = _seed_container(cse_server.url, _descriptor(unit="celsius"))
    gateway, handle = _boot_gateway(cse_server.url, broker_server.url)
    try:
        gateway.scan_once()
        cse.create(path, "ContentInstance", {"rn": "cin1", "con": {"reading": 25}})  # no /value member
        cse.create(path, "ContentInstance", {"rn": "cin2", "con": {"value": "warm"}})  # not a number
        assert _poll(lambda: gateway.stats()["itemsDropped"] == 2)
        assert gateway.stats()["itemsConverted"] == 0
        assert BrokerClient(broker_server.url).query([{"id": "room123"}]) == []
    finally:
        handle.stop()


def test_a_push_the_broker_never_received_counts_as_dropped(cse_server, caplog):
    cse, path = _seed_container(cse_server.url, _descriptor(unit="celsius"))
    closed = f"http://127.0.0.1:{find_free_port()}"
    gateway, handle = _boot_gateway(cse_server.url, closed)
    try:
        gateway.scan_once()
        with caplog.at_level(logging.WARNING, logger="giots.smg"):
            cse.create(path, "ContentInstance", {"rn": "cin1", "con": {"value": 25}})
            assert _poll(lambda: gateway.stats()["itemsDropped"] == 1)
        assert gateway.stats()["itemsConverted"] == 0
        messages = [r.getMessage() for r in caplog.records if r.name == "giots.smg"]
        assert [m for m in messages if "dropped" in m] == [
            "update for entity room123 dropped: updateContext failed"
        ]
    finally:
        handle.stop()


def test_a_reading_converted_past_the_float_range_is_dropped_as_a_conversion_error(
    cse_server, broker_server, caplog
):
    text = _descriptor(unit="celsius", extra=f'<urn:src:room1> <{MED_NS}conversion> "scale:10" .')
    cse, path = _seed_container(cse_server.url, text)
    gateway, handle = _boot_gateway(cse_server.url, broker_server.url)
    try:
        gateway.scan_once()
        with caplog.at_level(logging.WARNING, logger="giots.smg"):
            cse.create(path, "ContentInstance", {"rn": "cin1", "con": {"value": 1e308}})
            assert _poll(lambda: gateway.stats()["itemsDropped"] == 1)
        assert gateway.stats()["itemsConverted"] == 0
        messages = [r.getMessage() for r in caplog.records if r.name == "giots.smg"]
        (dropped,) = [m for m in messages if "dropped" in m]
        assert dropped.endswith(": item dropped: 1.0E+309 is past the float range")
        assert BrokerClient(broker_server.url).query([{"id": "room123"}]) == []
    finally:
        handle.stop()


def test_descriptor_conversion_hint_overrides_process(cse_server, broker_server):
    text = _descriptor(unit="celsius", extra=f'<urn:src:room1> <{MED_NS}conversion> "scale:0.5" .')
    cse, path = _seed_container(cse_server.url, text)
    gateway, handle = _boot_gateway(cse_server.url, broker_server.url)
    try:
        gateway.scan_once()
        cse.create(path, "ContentInstance", {"rn": "cin1", "con": {"value": 25}})
        broker = BrokerClient(broker_server.url)
        entities = _poll(lambda: broker.query([{"id": "room123"}]))
        (attribute,) = entities[0]["attributes"]
        assert attribute["value"] == 12.5
        # the scale routine names no output unit, so the annotated unit stands
        metadata = {m["name"]: m["value"] for m in attribute["metadata"]}
        assert metadata["unit"] == "celsius"
    finally:
        handle.stop()


def test_unknown_conversion_hint_falls_back_to_process(cse_server, broker_server):
    text = _descriptor(unit="celsius", extra=f'<urn:src:room1> <{MED_NS}conversion> "warp9" .')
    cse, path = _seed_container(cse_server.url, text)
    gateway, handle = _boot_gateway(cse_server.url, broker_server.url)
    try:
        gateway.scan_once()
        cse.create(path, "ContentInstance", {"rn": "cin1", "con": {"value": 25}})
        entities = _poll(lambda: BrokerClient(broker_server.url).query([{"id": "room123"}]))
        assert entities[0]["attributes"][0]["value"] == 298.15
    finally:
        handle.stop()


def test_rescan_adopts_late_sources_and_skips_unmatched(cse_server, broker_server):
    gateway, handle = _boot_gateway(
        cse_server.url, broker_server.url, processes=[CELSIUS_PROCESS]
    )
    try:
        assert gateway.scan_once() == 0  # nothing annotated yet
        cse, path = _seed_container(cse_server.url, _descriptor(unit="celsius"))
        assert gateway.scan_once() == 1
        # a descriptor no process matches is skipped, not fatal
        cse.create("/cse/app", "Container", {"rn": "plain"})
        cse.create(
            "/cse/app/plain", "SemanticDescriptor",
            {"rn": "sem", "dsp": _descriptor().replace("room123", "other")},
        )
        assert gateway.scan_once() == 0
        assert len(gateway.instances()) == 1
    finally:
        handle.stop()


def test_the_rescan_loop_adopts_a_late_source_and_stops_within_the_pools_bound(
    cse_server, broker_server
):
    gateway, handle = _boot_gateway(cse_server.url, broker_server.url, rescan_millis=250)
    try:
        gateway.start()  # nothing annotated yet
        assert gateway.instances() == []
        _seed_container(cse_server.url, _descriptor(unit="celsius"))
        # adopted by the loop's next scan, with no scan_once from the test
        assert _poll(lambda: len(gateway.instances()) == 1, timeout=1.0)
        started = time.monotonic()
        gateway.stop()
        assert time.monotonic() - started < 2.0
        scans = gateway.scans
        time.sleep(0.6)
        assert gateway.scans == scans  # the loop has ended
    finally:
        handle.stop()


def test_one_descriptor_may_feed_several_targets(cse_server, broker_server):
    text = _descriptor() + _HUMIDITY_SUBJECT
    cse, path = _seed_container(cse_server.url, text)
    gateway, handle = _boot_gateway(cse_server.url, broker_server.url)
    try:
        assert gateway.scan_once() == 2
        cse.create(path, "ContentInstance", {"rn": "cin1", "con": {"value": 21, "hum": 40}})
        broker = BrokerClient(broker_server.url)

        def both_attrs():
            found = broker.query([{"id": "room123"}])
            return found and len(found[0]["attributes"]) == 2

        assert _poll(both_attrs)
        (entity,) = broker.query([{"id": "room123"}])
        values = {a["name"]: a["value"] for a in entity["attributes"]}
        assert values == {"humidity": 40, "temperature": 21}
    finally:
        handle.stop()


def test_a_rescan_of_an_unchanged_fleet_reads_only_the_newest_descriptors(
    cse_server, broker_server, monkeypatch
):
    cse, names = _seed_fleet(cse_server.url, 100)
    gateway, handle = _boot_gateway(cse_server.url, broker_server.url)
    try:
        assert gateway.scan_once() == len(names)
        recorder = gateway.cse = _RecordingCse(cse_server.url)
        selected = []
        monkeypatch.setattr(
            smg, "select_process", lambda d, lib: selected.append(d) or select_process(d, lib)
        )
        assert gateway.scan_once() == 0
        stamps = [cse.retrieve(f"/cse/fleet/{name}/sem")["lt"] for name in names]
        sharing_newest = stamps.count(max(stamps))
        # two listings, then a retrieve of each descriptor the listing from the
        # newest lt returns again (a full re-read is 1 + 2 per source)
        assert len(recorder.calls) == 2 + sharing_newest <= 4
        assert selected == []
    finally:
        handle.stop()


def test_a_subject_put_into_an_adopted_descriptor_is_adopted_on_the_next_scan(
    cse_server, broker_server
):
    cse, path = _seed_container(cse_server.url, _descriptor(unit="celsius"))
    gateway, handle = _boot_gateway(cse_server.url, broker_server.url)
    try:
        assert gateway.scan_once() == 1
        status, _ = request_json(
            "PUT", cse_server.url + path + "/sem",
            body={"dsp": _descriptor(unit="celsius") + _HUMIDITY_SUBJECT},
        )
        assert status == 200
        assert gateway.scan_once() == 1
        assert gateway.scan_once() == 0
        names = sorted(i.target.attribute_name for i in gateway.instances())
        assert names == ["humidity", "temperature"]
    finally:
        handle.stop()


def test_a_descriptor_changed_during_a_scan_is_read_by_the_next_scan(cse_server, broker_server):
    # the second source is the older one, so a listing from the newest lt leaves it out
    _, second = _seed_container(
        cse_server.url, _descriptor(unit="celsius").replace("room123", "room456"), rn="room2"
    )
    time.sleep(0.002)
    cse, first = _seed_container(cse_server.url, _descriptor(unit="celsius"), rn="room1")
    gateway, handle = _boot_gateway(cse_server.url, broker_server.url)
    recorder = gateway.cse = _RecordingCse(cse_server.url)

    def put(path, text):
        status, _ = request_json("PUT", cse_server.url + path + "/sem", body={"dsp": text})
        assert status == 200

    def change_both(op, path):
        # after the listing: the second source changes, then the first (listed) again
        if op == "retrieve" and path == first + "/sem":
            recorder.before = lambda *_: None
            put(second, _descriptor(unit="celsius").replace("room123", "room456") + _HUMIDITY_SUBJECT)
            put(first, _descriptor(unit="celsius") + "\n")

    try:
        assert gateway.scan_once() == 2
        put(first, _descriptor(unit="celsius"))
        recorder.before = change_both
        assert gateway.scan_once() == 0
        # the second change is newer than the listing but older than the lt
        # read for the first source; the watermark must not skip it
        assert gateway.scan_once() == 1
        assert gateway.scan_once() == 0
    finally:
        handle.stop()


def test_a_source_no_process_matched_is_adopted_once_its_descriptor_matches(
    cse_server, broker_server, caplog
):
    cse, path = _seed_container(cse_server.url, _descriptor())
    gateway, handle = _boot_gateway(
        cse_server.url, broker_server.url, processes=[CELSIUS_PROCESS]
    )
    try:
        with caplog.at_level(logging.WARNING, logger="giots.smg"):
            assert gateway.scan_once() == 0
            assert gateway.scan_once() == 0
        # logged once per descriptor version, not once per scan
        assert sum("no process matches" in r.getMessage() for r in caplog.records) == 1
        status, _ = request_json(
            "PUT", cse_server.url + path + "/sem", body={"dsp": _descriptor(unit="celsius")}
        )
        assert status == 200
        assert gateway.scan_once() == 1
    finally:
        handle.stop()


def test_a_source_whose_subscription_failed_is_adopted_on_the_next_scan(
    cse_server, broker_server
):
    _seed_container(cse_server.url, _descriptor(unit="celsius"))
    gateway, handle = _boot_gateway(cse_server.url, broker_server.url)
    recorder = gateway.cse = _RecordingCse(cse_server.url)

    def refuse_once(op, path):
        if op == "create Subscription":
            recorder.before = lambda *_: None
            raise TransportError("injected: CSE unreachable")

    recorder.before = refuse_once
    try:
        assert gateway.scan_once() == 0
        assert gateway.scan_once() == 1
        assert len(gateway.instances()) == 1
    finally:
        handle.stop()


def test_a_descriptor_deleted_during_a_scan_skips_only_its_source(cse_server, broker_server):
    cse, first = _seed_container(cse_server.url, _descriptor(unit="celsius"), rn="room1")
    _, second = _seed_container(
        cse_server.url, _descriptor(unit="celsius").replace("room123", "room456"), rn="room2"
    )
    gateway, handle = _boot_gateway(cse_server.url, broker_server.url)
    recorder = gateway.cse = _RecordingCse(cse_server.url)

    def delete_first(op, path):
        if op == "retrieve" and path == first + "/sem":
            recorder.before = lambda *_: None
            cse.delete(path)  # the retrieve that follows gets a 404

    recorder.before = delete_first
    try:
        assert gateway.scan_once() == 1
        assert [i.source_container for i in gateway.instances()] == [second]
        cse.create(first, "SemanticDescriptor", {"rn": "sem", "dsp": _descriptor(unit="celsius")})
        assert gateway.scan_once() == 1
        assert sorted(i.source_container for i in gateway.instances()) == [first, second]
    finally:
        handle.stop()


@pytest.mark.parametrize("fault", ["broker down", "registration refused"])
def test_a_failed_provider_registration_leaves_no_subscription_and_is_retried(
    cse_server, capture_server, fault
):
    cse, path = _seed_container(cse_server.url, _descriptor(unit="celsius"))
    if fault == "broker down":
        port = find_free_port()
        broker_url = f"http://127.0.0.1:{port}"
    else:
        broker_url = capture_server.url
        capture_server.fail_next(1)
    gateway, handle = _boot_gateway(cse_server.url, broker_url, mode="pull")
    broker = None
    try:
        assert gateway.scan_once() == 0
        assert cse.discover(path, resource_type="Subscription") == []
        if fault == "broker down":
            broker = run_service(BrokerService(), port)
            wait_healthy(broker.url)
        assert gateway.scan_once() == 1
        assert len(cse.discover(path, resource_type="Subscription")) == 1
    finally:
        handle.stop()
        if broker is not None:
            broker.stop()


def test_pull_pipeline_registers_and_answers_queries(cse_server, broker_server):
    cse, path = _seed_container(cse_server.url, _descriptor(unit="celsius"))
    gateway, handle = _boot_gateway(cse_server.url, broker_server.url, mode="pull")
    try:
        assert gateway.scan_once() == 1
        broker = BrokerClient(broker_server.url)
        # the gateway registered itself as the provider for the target entity
        (registration,) = broker.discover([{"id": "room123"}])
        assert registration["providingApplication"] == gateway.config.gateway_url
        cse.create(path, "ContentInstance", {"rn": "cin1", "con": {"value": 25}})
        assert _poll(lambda: gateway.stats()["cachedEntities"] == 1)
        # nothing was pushed; the broker fetches on demand through the registration
        entities = _poll(lambda: broker.query([{"id": "room123"}]))
        assert entities[0]["attributes"][0]["value"] == 298.15
        # the provider endpoint itself projects and filters
        status, payload = post_json(
            handle.url + "/ngsi10/queryContext",
            {"entities": [{"id": "room123"}], "attributes": ["humidity"]},
        )
        assert status == 200 and payload["entities"] == []
    finally:
        handle.stop()


def test_notification_endpoint_validation(cse_server, broker_server):
    gateway, handle = _boot_gateway(cse_server.url, broker_server.url)
    try:
        status, payload = post_json(handle.url + "/notify", {"event": "somethingElse"})
        assert status == 400
        # unknown subscriptions are acknowledged and dropped
        status, _ = post_json(
            handle.url + "/notify",
            {"event": "childCreated", "subscriptionRef": "sub-99999", "resource": {}},
        )
        assert status == 200
        # a missing subscriptionRef cannot be routed either, so it is dropped too
        status, _ = post_json(handle.url + "/notify", {"event": "childCreated"})
        assert status == 200
    finally:
        handle.stop()


# --- the pull cache against the broker ----------------------------------------------

_NAMES = st.sampled_from(["x", "y", "z"])
_UPDATES = st.fixed_dictionaries({
    "id": st.sampled_from(["a", "ab", "b", "c"]),  # few ids, so APPENDs repeat
    "type": st.sampled_from(["", "T", "U"]),
    "attributes": st.dictionaries(
        _NAMES,
        st.tuples(
            st.one_of(st.integers(-3, 3), st.sampled_from(["on", "off"]), st.booleans()),
            st.sampled_from([[], [{"name": "unit", "type": "string", "value": "kelvin"}]]),
        ),
    ).map(lambda attrs: [
        {"name": name, "value": value, "metadata": metadata}
        for name, (value, metadata) in attrs.items()
    ]),
})
_TYPES = {"type": st.sampled_from(["T", "U"])}
_PATTERNS = st.one_of(
    st.fixed_dictionaries({}, optional={"id": st.sampled_from(["a", "b", "d"]), **_TYPES}),
    st.fixed_dictionaries({"idPattern": st.sampled_from(["a.*", ".*b", "c|d"])}, optional=_TYPES),
)
_PROJECTIONS = st.one_of(st.none(), st.lists(st.sampled_from(["x", "y", "w"]), min_size=1,
                                              max_size=2, unique=True))


@settings(deadline=None, max_examples=150)
@given(st.lists(_UPDATES, min_size=1, max_size=8),
       st.lists(_PATTERNS, min_size=1, max_size=3), _PROJECTIONS)
def test_the_pull_cache_merges_and_answers_as_the_broker_does(updates, patterns, projection):
    gateway = MediationGateway(GatewayConfig(
        cse_url="http://127.0.0.1:9", broker_url="http://127.0.0.1:9", knowledge_url=None,
        mode="pull", gateway_url="http://127.0.0.1:9",
        processes=[TransformationProcess.from_json(IDENTITY_PROCESS)],
    ))
    broker = ContextBroker()
    for raw in updates:
        gateway.publish(ContextEntity.from_json(raw))
        broker.update("APPEND", [ContextEntity.from_json(raw)])
    body = {"entities": patterns}
    if projection is not None:
        body["attributes"] = projection
    expected = broker.query(
        parse_patterns(patterns, "query"), parse_attribute_names(projection, "query"),
        restriction=None, allow_pull=False,
    )
    assert gateway.answer_query(body) == expected


def test_the_pull_gateway_replies_with_the_sorted_json_of_its_entities():
    """The provider endpoint's bytes are json.dumps of what answer_query
    returns, keys sorted, for every pattern, projection and empty answer."""
    gateway = MediationGateway(GatewayConfig(
        cse_url="http://127.0.0.1:9", broker_url="http://127.0.0.1:9", knowledge_url=None,
        mode="pull", gateway_url="http://127.0.0.1:9",
        processes=[TransformationProcess.from_json(IDENTITY_PROCESS)],
    ))
    service = SmgService(gateway)
    location = {"name": "location", "type": "geo:point", "value": [8.5, 53.5]}
    try:
        for entity_id, name, value in (("a", "x", 1.5), ("b", "y", "ü"), ("a", "y", True)):
            gateway.publish(ContextEntity.from_json({"id": entity_id, "type": "T", "attributes": [
                {"name": name, "value": value, "metadata": [location]}]}))
        bodies = [
            {"entities": [{"idPattern": ".*"}]},
            {"entities": [{"id": "a"}], "attributes": ["y"]},
            {"entities": [{"id": "a"}], "attributes": ["x", "y"]},
            {"entities": [{"id": "nobody"}]},
        ]
        for body in bodies:
            response = service.handle(HttpRequest(
                "POST", "/ngsi10/queryContext", {}, {}, json.dumps(body).encode()))
            entities = gateway.answer_query(body)
            assert response.status == 200
            assert response.raw == json.dumps(
                {"entities": [e.to_json() for e in entities]}, sort_keys=True).encode()
        assert [e.id for e in gateway.answer_query(bodies[0])] == ["a", "b"]
    finally:
        gateway.stop()
