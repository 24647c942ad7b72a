"""Context broker: registration, discovery, updates, queries, subscriptions
and depth-one provider federation."""

import json
import socket
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings, strategies as st

from giots.broker import BrokerClient, BrokerService, ContextBroker, parse_request
from giots.httpkit import HttpRequest, find_free_port, get_json, post_json, run_service
from giots.knowledge import KnowledgeClient, KnowledgeService
from giots.ngsi import BoundingBox, ContextEntity, EntityPattern

from conftest import UNPARSABLE_URLS, boot

ONT = "http://wise-iot.example/onto#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"

MEETING_ROOM = (
    f"<{ONT}Room> <{RDF}type> <{OWL}Class> .\n"
    f"<{ONT}MeetingRoom> <{RDFS}subClassOf> <{ONT}Room> .\n"
)


def _entity(entity_id: str, value=21.5, name="temperature", entity_type=ONT + "Room", metadata=None):
    return {
        "id": entity_id,
        "type": entity_type,
        "attributes": [{"name": name, "value": value, "metadata": metadata or []}],
    }


@pytest.fixture
def stacked():
    """A broker wired to a knowledge server that knows MeetingRoom <= Room."""
    knowledge = boot(KnowledgeService())
    KnowledgeClient(knowledge.url).upload(MEETING_ROOM)
    broker = boot(BrokerService(knowledge_url=knowledge.url))
    yield BrokerClient(broker.url)
    broker.stop()
    knowledge.stop()


class ProviderStub:
    """Answers /ngsi10/queryContext with a canned entity list."""

    def __init__(self, entities):
        self.requests: list[dict] = []
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length") or 0)
                body = json.loads(self.rfile.read(length) or b"null")
                with outer._lock:
                    outer.requests.append(
                        {"path": self.path, "body": body, "hop": self.headers.get("X-GIOTS-Hop")}
                    )
                payload = json.dumps({"entities": entities}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}"

    def close(self):
        self._server.shutdown()
        self._server.server_close()


# --- registration and availability discovery --------------------------------------


def test_register_returns_fresh_ids(broker_server):
    client = BrokerClient(broker_server.url)
    body = [{"id": "room1"}]
    first = client.register(body, ["temperature"], "http://127.0.0.1:9/app")
    second = client.register(body, ["temperature"], "http://127.0.0.1:9/app")
    assert first.startswith("reg-")
    # re-registering the same content yields a new, distinct registration
    assert first != second


def test_register_validation(broker_server):
    url = broker_server.url + "/ngsi9/registerContext"
    status, _ = post_json(url, {"entities": [], "providingApplication": "http://x/"})
    assert status == 400
    status, payload = post_json(
        url, {"entities": [{}], "providingApplication": "http://127.0.0.1:9/"}
    )
    assert status == 400  # a registration pattern may not be empty
    for bad in ["ftp://x"] + UNPARSABLE_URLS:
        status, _ = post_json(url, {"entities": [{"id": "a"}], "providingApplication": bad})
        assert status == 400, bad


def test_discover_matches_ids_attributes_and_subtypes(stacked):
    reg_typed = stacked.register(
        [{"id": "m1", "type": ONT + "MeetingRoom"}], ["temperature"], "http://127.0.0.1:9/a"
    )
    reg_hall = stacked.register(
        [{"id": "hall-7", "type": ONT + "Hallway"}], [], "http://127.0.0.1:9/b"
    )
    # a supertype query finds the subtype registration; subsumption is symmetric
    found = stacked.discover([{"type": ONT + "Room"}])
    assert [r["registrationId"] for r in found] == [reg_typed]
    assert [r["registrationId"] for r in stacked.discover([{"id": "m1", "type": ONT + "Room"}])] == [reg_typed]
    # attribute sets must intersect unless one side is unconstrained
    assert stacked.discover([{"type": ONT + "Room"}], ["humidity"]) == []
    found = stacked.discover([{"id": "hall-7"}], ["anything"])
    assert [r["registrationId"] for r in found] == [reg_hall]
    # results are sorted by registration id
    both = stacked.discover([{"idPattern": ".*"}])
    ids = [r["registrationId"] for r in both]
    assert ids == sorted(ids) and len(ids) == 2


# --- updateContext ------------------------------------------------------------------


def test_append_then_query_round_trip(broker_server):
    client = BrokerClient(broker_server.url)
    responses = client.update("APPEND", [_entity("room1", 21.5)])
    assert responses == [{"id": "room1", "status": "ok"}]
    entities = client.query([{"id": "room1"}])
    assert len(entities) == 1
    assert entities[0]["id"] == "room1"
    assert entities[0]["attributes"][0]["value"] == 21.5


def test_append_merges_attributes_and_keeps_type(broker_server):
    client = BrokerClient(broker_server.url)
    client.update("APPEND", [_entity("room1", 20, name="temperature")])
    client.update(
        "APPEND",
        [{"id": "room1", "type": "", "attributes": [{"name": "occupancy", "value": 3}]}],
    )
    (entity,) = client.query([{"id": "room1"}])
    assert entity["type"] == ONT + "Room"
    assert [a["name"] for a in entity["attributes"]] == ["occupancy", "temperature"]
    client.update("APPEND", [_entity("room1", 25, name="temperature")])
    (entity,) = client.query([{"id": "room1"}])
    values = {a["name"]: a["value"] for a in entity["attributes"]}
    assert values == {"occupancy": 3, "temperature": 25}


def test_update_requires_existing_entity_and_attribute(broker_server):
    client = BrokerClient(broker_server.url)
    client.update("APPEND", [_entity("room1")])
    responses = client.update(
        "UPDATE",
        [
            _entity("ghost"),
            _entity("room1", 30),
            {"id": "room1", "attributes": [{"name": "unknownAttr", "value": 1}]},
        ],
    )
    assert [r["status"] for r in responses] == ["error", "ok", "error"]
    assert responses[0]["error"] == "NotFound"
    assert "unknownAttr" in responses[2]["message"]
    # the failed members changed nothing, the good one stuck
    (entity,) = client.query([{"id": "room1"}])
    assert entity["attributes"][0]["value"] == 30


def test_update_wire_validation(broker_server):
    url = broker_server.url + "/ngsi10/updateContext"
    status, _ = post_json(url, {"action": "DELETE", "entities": [_entity("x")]})
    assert status == 400
    status, _ = post_json(url, {"action": "APPEND", "entities": []})
    assert status == 400
    status, _ = post_json(
        url,
        {"action": "APPEND", "entities": [{"id": "x", "attributes": [{"name": "a", "value": {}}]}]},
    )
    assert status == 400
    status, _ = post_json(url, "not an object")
    assert status == 400


def test_update_refuses_a_value_that_is_not_a_finite_number(broker_server):
    url = broker_server.url + "/ngsi10/updateContext"
    for value in (float("nan"), float("inf"), float("-inf")):
        body = {"action": "APPEND", "entities": [_entity("room1", value)]}
        status, payload = post_json(url, body)
        assert status == 400, value
        assert "not a finite number" in payload["message"]
    assert BrokerClient(broker_server.url).query([{"id": "room1"}]) == []


# --- queryContext ---------------------------------------------------------------------


def test_query_id_pattern_is_anchored_and_sorted(broker_server):
    client = BrokerClient(broker_server.url)
    client.update("APPEND", [_entity("room2"), _entity("room10"), _entity("office1")])
    assert [e["id"] for e in client.query([{"idPattern": "room.*"}])] == ["room10", "room2"]
    assert client.query([{"idPattern": "room"}]) == []
    # several patterns may hit the same entity; it is returned once
    twice = client.query([{"id": "room2"}, {"idPattern": "room2"}])
    assert [e["id"] for e in twice] == ["room2"]


def test_query_by_type_uses_subsumption(stacked):
    stacked.update("APPEND", [_entity("m1", entity_type=ONT + "MeetingRoom")])
    assert [e["id"] for e in stacked.query([{"type": ONT + "Room"}])] == ["m1"]
    assert stacked.query([{"type": ONT + "MeetingRoom"}])[0]["id"] == "m1"
    assert stacked.query([{"type": ONT + "Hall"}]) == []


def test_a_query_by_supertype_against_a_hung_knowledge_server_returns_in_time():
    """A knowledge server that accepts and never answers holds a query for
    at most the client's timeout, then the match degrades to equality."""
    with socket.socket() as hung:
        hung.bind(("127.0.0.1", 0))
        hung.listen()
        broker = ContextBroker(KnowledgeClient(f"http://127.0.0.1:{hung.getsockname()[1]}"))
        try:
            broker.update("APPEND", [ContextEntity.from_json(_entity("m1", entity_type=ONT + "MeetingRoom"))])
            started = time.monotonic()
            assert broker.query([EntityPattern(entity_type=ONT + "Room")], None, None) == []
            assert time.monotonic() - started < 5.0
        finally:
            broker.close()


def test_query_without_knowledge_needs_exact_types(broker_server):
    client = BrokerClient(broker_server.url)
    client.update("APPEND", [_entity("m1", entity_type=ONT + "MeetingRoom")])
    assert client.query([{"type": ONT + "Room"}]) == []
    assert [e["id"] for e in client.query([{"type": ONT + "MeetingRoom"}])] == ["m1"]


def test_query_projection_drops_emptied_entities(broker_server):
    client = BrokerClient(broker_server.url)
    client.update("APPEND", [_entity("room1", name="temperature")])
    client.update("APPEND", [_entity("lobby", name="occupancy", value=4)])
    entities = client.query([{"idPattern": ".*"}], attributes=["temperature"])
    assert [e["id"] for e in entities] == ["room1"]
    assert [a["name"] for a in entities[0]["attributes"]] == ["temperature"]


def test_query_bbox_restriction_is_inclusive(broker_server):
    client = BrokerClient(broker_server.url)
    loc = lambda lon, lat: [{"name": "location", "type": "geo:point", "value": [lon, lat]}]
    client.update(
        "APPEND",
        [
            _entity("corner", metadata=loc(8.0, 53.0)),
            _entity("inside", metadata=loc(8.5, 53.5)),
            _entity("outside", metadata=loc(10.0, 53.5)),
            _entity("nowhere"),
        ],
    )
    found = client.query(
        [{"idPattern": ".*"}],
        restriction={
            "scopeType": "bbox",
            "value": {"minLon": 8, "minLat": 53, "maxLon": 9, "maxLat": 54},
        },
    )
    assert [e["id"] for e in found] == ["corner", "inside"]


def test_query_validation(broker_server):
    url = broker_server.url + "/ngsi10/queryContext"
    status, _ = post_json(url, {"entities": []})
    assert status == 400
    status, _ = post_json(url, {"entities": [{"idPattern": "("}]})
    assert status == 400
    status, _ = post_json(url, {"entities": [{"id": "x"}], "restriction": {"scopeType": "bbox"}})
    assert status == 400


# --- subscriptions ----------------------------------------------------------------------


def test_update_notifies_matching_subscription(broker_server, capture_server):
    client = BrokerClient(broker_server.url)
    sub_id = client.subscribe([{"idPattern": "room.*"}], None, capture_server.url + "/notify")
    client.update("APPEND", [_entity("room1", 22)])
    assert capture_server.wait_for(1)
    (body,) = capture_server.delivered()
    assert body["subscriptionId"] == sub_id
    assert [e["id"] for e in body["entities"]] == ["room1"]
    assert body["entities"][0]["attributes"][0]["value"] == 22
    # an entity outside the pattern is silent
    client.update("APPEND", [_entity("office9")])
    time.sleep(0.3)
    assert len(capture_server.delivered()) == 1


def test_subscription_attribute_filter_and_projection(broker_server, capture_server):
    client = BrokerClient(broker_server.url)
    client.subscribe([{"idPattern": ".*"}], ["temperature"], capture_server.url)
    client.update(
        "APPEND", [{"id": "room1", "attributes": [{"name": "occupancy", "value": 1}]}]
    )
    time.sleep(0.3)
    assert capture_server.delivered() == []
    client.update(
        "APPEND",
        [
            {
                "id": "room1",
                "attributes": [
                    {"name": "temperature", "value": 21},
                    {"name": "humidity", "value": 40},
                ],
            }
        ],
    )
    assert capture_server.wait_for(1)
    (body,) = capture_server.delivered()
    # the notification carries only the subscribed attributes
    assert [a["name"] for a in body["entities"][0]["attributes"]] == ["temperature"]


def test_throttling_coalesces_to_latest_state(broker_server, capture_server):
    client = BrokerClient(broker_server.url)
    client.subscribe([{"id": "room1"}], None, capture_server.url, throttling_millis=400)
    client.update("APPEND", [_entity("room1", 1)])
    assert capture_server.wait_for(1)
    client.update("APPEND", [_entity("room1", 2)])
    client.update("APPEND", [_entity("room1", 3)])
    assert capture_server.wait_for(2, timeout=3.0)
    time.sleep(0.6)  # a further notification would have fired by now
    bodies = capture_server.delivered()
    assert len(bodies) == 2
    # the coalesced notification reports the state at send time
    assert bodies[1]["entities"][0]["attributes"][0]["value"] == 3


def test_the_first_throttled_notice_does_not_wait_for_the_host_uptime(broker_server, capture_server):
    # a window longer than the monotonic clock has run: a first flush that
    # measured it from 0.0 would still be waiting
    client = BrokerClient(broker_server.url)
    throttle = int((time.monotonic() + 3600) * 1000)
    client.subscribe([{"id": "room1"}], None, capture_server.url, throttling_millis=throttle)
    client.update("APPEND", [_entity("room1", 1)])
    assert capture_server.wait_for(1, timeout=2.0)


def test_a_throttle_longer_than_a_thread_can_wait_is_refused(broker_server):
    url = broker_server.url + "/ngsi10/subscribeContext"
    good = {"entities": [{"id": "x"}], "reference": "http://127.0.0.1:9/n"}
    longest = int(threading.TIMEOUT_MAX * 1000)
    for throttle, expected in ((10**13, 400), (longest + 1, 400), (longest, 200)):
        status, _ = post_json(url, {**good, "throttlingMillis": throttle})
        assert status == expected, throttle


class SlowFirstSubscriber:
    """Takes 0.5 s over its first notification; records each notified
    value when it has been handled, the order a subscriber's state follows."""

    def __init__(self):
        self.values: list = []
        self.first_arrived = threading.Event()
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length") or 0)
                body = json.loads(self.rfile.read(length))
                if not outer.first_arrived.is_set():
                    outer.first_arrived.set()
                    time.sleep(0.5)
                with outer._lock:
                    outer.values.append(body["entities"][0]["attributes"][0]["value"])
                self.send_response(200)
                self.send_header("Content-Length", "0")
                self.end_headers()

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}"

    def close(self):
        self._server.shutdown()
        self._server.server_close()


def test_notifications_reach_a_slow_subscriber_in_order(broker_server):
    subscriber = SlowFirstSubscriber()
    try:
        client = BrokerClient(broker_server.url)
        client.subscribe([{"id": "room1"}], None, subscriber.url)
        client.update("APPEND", [_entity("room1", 1)])
        assert subscriber.first_arrived.wait(5)
        client.update("APPEND", [_entity("room1", 2)])
        deadline = time.monotonic() + 5
        while len(subscriber.values) < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert subscriber.values == [1, 2]
    finally:
        subscriber.close()


def test_a_failed_notification_is_retried(broker_server, capture_server):
    client = BrokerClient(broker_server.url)
    client.subscribe([{"id": "room1"}], None, capture_server.url)
    capture_server.fail_next(1)
    client.update("APPEND", [_entity("room1", 7)])
    assert capture_server.wait_for(1)
    (body,) = capture_server.delivered()
    assert body["entities"][0]["attributes"][0]["value"] == 7
    assert capture_server.attempts() == 2


def test_unsubscribe_stops_notifications(broker_server, capture_server):
    client = BrokerClient(broker_server.url)
    sub_id = client.subscribe([{"id": "room1"}], None, capture_server.url)
    client.unsubscribe(sub_id)
    client.update("APPEND", [_entity("room1")])
    time.sleep(0.3)
    assert capture_server.delivered() == []
    status, _ = post_json(
        broker_server.url + "/ngsi10/unsubscribeContext", {"subscriptionId": sub_id}
    )
    assert status == 404


def test_removed_subscriptions_leave_nothing_in_the_pool(capture_server):
    broker = ContextBroker()
    try:
        for index in range(1000):
            sub_id = broker.subscribe([EntityPattern(entity_id="room1")], None, capture_server.url, 0)
            broker.update("APPEND", [ContextEntity.from_json(_entity("room1", value=index))])
            broker.unsubscribe(sub_id)
        deadline = time.monotonic() + 5.0
        while broker._pool._pending and time.monotonic() < deadline:
            time.sleep(0.05)
        assert broker._pool._pending == {} and not broker._pool._ready
    finally:
        broker.close()


def test_subscribe_validation(broker_server):
    url = broker_server.url + "/ngsi10/subscribeContext"
    good = {"entities": [{"id": "x"}], "reference": "http://127.0.0.1:9/n"}
    for bad in ["nope"] + UNPARSABLE_URLS:
        status, _ = post_json(url, {**good, "reference": bad})
        assert status == 400, bad
    status, _ = post_json(url, {**good, "throttlingMillis": -1})
    assert status == 400
    status, _ = post_json(url, {**good, "throttlingMillis": True})
    assert status == 400
    status, payload = post_json(url, good)
    assert status == 200 and payload["subscriptionId"].startswith("sub-")


# --- pull federation -----------------------------------------------------------------------


def test_query_pulls_from_provider_broker(broker_server):
    provider = boot(BrokerService())
    try:
        BrokerClient(provider.url).update("APPEND", [_entity("remote1", 19)])
        front = BrokerClient(broker_server.url)
        front.register([{"id": "remote1"}], [], provider.url)
        found = front.query([{"id": "remote1"}])
        assert [e["id"] for e in found] == ["remote1"]
        # nothing was adopted locally; a repeat query pulls again and still works
        assert [e["id"] for e in front.query([{"id": "remote1"}])] == ["remote1"]
        # the hop header stops recursion, so a hopped query sees only local data
        request = urllib.request.Request(
            broker_server.url + "/ngsi10/queryContext",
            data=json.dumps({"entities": [{"id": "remote1"}]}).encode(),
            headers={"Content-Type": "application/json", "X-GIOTS-Hop": "1"},
        )
        with urllib.request.urlopen(request) as response:
            hopped = json.loads(response.read())
        assert hopped["entities"] == []
    finally:
        provider.stop()


def test_pull_applies_pattern_projection_and_bbox(broker_server):
    inside = _entity(
        "pulled1",
        metadata=[{"name": "location", "type": "geo:point", "value": [8.5, 53.5]}],
    )
    inside["attributes"].append({"name": "noise", "value": 12})
    outside = _entity(
        "pulled2",
        metadata=[{"name": "location", "type": "geo:point", "value": [11.0, 53.5]}],
    )
    unrelated = _entity("other-id")
    stub = ProviderStub([inside, outside, unrelated])
    try:
        client = BrokerClient(broker_server.url)
        client.register([{"idPattern": "pulled.*"}], [], stub.url)
        found = client.query(
            [{"idPattern": "pulled.*"}],
            attributes=["temperature"],
            restriction={
                "scopeType": "bbox",
                "value": {"minLon": 8, "minLat": 53, "maxLon": 9, "maxLat": 54},
            },
        )
        # provider answered with three entities; the pattern, the box and the
        # projection cut that down to one
        assert [e["id"] for e in found] == ["pulled1"]
        assert [a["name"] for a in found[0]["attributes"]] == ["temperature"]
        assert len(stub.requests) == 1
        assert stub.requests[0]["hop"] == "1"
        assert stub.requests[0]["path"] == "/ngsi10/queryContext"
    finally:
        stub.close()


def test_pull_happens_only_for_unmatched_patterns(broker_server):
    stub = ProviderStub([_entity("room1", 99)])
    try:
        client = BrokerClient(broker_server.url)
        client.update("APPEND", [_entity("room1", 20)])
        client.register([{"id": "room1"}], [], stub.url)
        (entity,) = client.query([{"id": "room1"}])
        # the local copy satisfied the pattern, the provider was never asked
        assert entity["attributes"][0]["value"] == 20
        assert stub.requests == []
    finally:
        stub.close()


def test_unreachable_provider_degrades_to_empty_result(broker_server):
    client = BrokerClient(broker_server.url)
    client.register([{"id": "ghost"}], [], "http://127.0.0.1:1/gone")
    assert client.query([{"id": "ghost"}]) == []


# --- metrics ---------------------------------------------------------------------------------


def test_metrics_count_operations_including_rejected_ones(broker_server):
    client = BrokerClient(broker_server.url)
    client.update("APPEND", [_entity("room1")])
    client.query([{"id": "room1"}])
    client.query([{"id": "room1"}])
    post_json(broker_server.url + "/ngsi10/updateContext", {"action": "bogus"})
    status, metrics = get_json(broker_server.url + "/metrics")
    assert status == 200
    assert metrics["updateContext"] == 2
    assert metrics["queryContext"] == 2
    assert "registerContext" not in metrics


def test_metrics_count_knowledge_answers_given_without_the_server():
    broker = boot(BrokerService(knowledge_url=f"http://127.0.0.1:{find_free_port()}"))
    try:
        client = BrokerClient(broker.url)
        client.update("APPEND", [_entity("m1", entity_type=ONT + "MeetingRoom")])
        assert get_json(broker.url + "/metrics")[1]["knowledgeDegraded"] == 0
        assert client.query([{"type": ONT + "Room"}]) == []  # degraded to equality
        assert get_json(broker.url + "/metrics")[1]["knowledgeDegraded"] == 1
    finally:
        broker.stop()


# --- indexed reads ---------------------------------------------------------------------------

_CLASSES = [f"urn:class:C{i}" for i in range(6)]


def _class_tree(parent_picks: list[int]) -> dict[str, str]:
    """Each class after the first gets one parent among the classes before it."""
    return {cls: _CLASSES[pick % i] for i, (cls, pick) in enumerate(zip(_CLASSES, parent_picks)) if i}


class _Subtyping:
    """A knowledge source over a fixed class tree that counts its calls;
    ``below`` maps each class to its subclasses, itself included."""

    def __init__(self, below: dict[str, set[str]]):
        self.below = below
        self.calls = {"subclasses_of": 0, "is_subclass": 0}

    def subclasses_of(self, cls: str) -> list[str]:
        self.calls["subclasses_of"] += 1
        return sorted(self.below.get(cls, {cls}))

    def is_subclass(self, sub: str, sup: str) -> bool:
        self.calls["is_subclass"] += 1
        return sub == sup or sub in self.below.get(sup, ())


def _brute_subtyping(parents: dict[str, str]) -> _Subtyping:
    below = {cls: {cls} for cls in _CLASSES}
    for candidate in _CLASSES:
        walk = candidate
        while walk in parents:
            walk = parents[walk]
            below[walk].add(candidate)
    return _Subtyping(below)


_INDEX_IDS = ["a", "b", "c", "d", "e"]
_INDEX_TYPES = [*_CLASSES, "urn:class:Unknown", ""]
_INDEX_PATTERNS = st.fixed_dictionaries({}, optional={
    "id": st.sampled_from(_INDEX_IDS),
    "type": st.sampled_from(_INDEX_TYPES[:-1]),
}) | st.fixed_dictionaries({"idPattern": st.sampled_from(["a|b", "[c-e]", ".*", "z"])},
                           optional={"type": st.sampled_from(_INDEX_TYPES[:-1])})


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 5), min_size=6, max_size=6),
       st.lists(st.tuples(st.sampled_from(_INDEX_IDS), st.sampled_from(_INDEX_TYPES),
                          st.sampled_from(["x", "y"])), min_size=1, max_size=12),
       st.lists(_INDEX_PATTERNS, min_size=1, max_size=3))
def test_an_indexed_query_answers_as_a_scan_of_every_stored_entity(picks, appends, raw_patterns):
    """Type-changing APPENDs included: the index by id and type gives what
    testing every stored entity against every pattern gives."""
    subtyping = _brute_subtyping(_class_tree(picks))
    broker = ContextBroker(subtyping)
    for entity_id, entity_type, name in appends:
        broker.update("APPEND", [ContextEntity.from_json(
            _entity(entity_id, name=name, entity_type=entity_type))])
    patterns = [EntityPattern.from_json(raw) for raw in raw_patterns]
    stored = list(broker._entities.values())
    expected = {e.id: e for p in patterns for e in stored
                if p.matches(e.id, e.type, subtyping.is_subclass)}
    found = broker.query(patterns, None, None, allow_pull=False)
    assert found == [expected[i] for i in sorted(expected)]


def test_a_supertype_query_expands_each_pattern_once_and_tests_no_entity():
    subtyping = _Subtyping({ONT + "Room": {ONT + "Room", ONT + "MeetingRoom"}})
    calls = subtyping.calls
    broker = ContextBroker(subtyping)
    broker.update("APPEND", [
        ContextEntity(f"r{i:04d}", ONT + ("MeetingRoom" if i % 2 else "Hall"), ())
        for i in range(1000)
    ])
    assert calls == {"subclasses_of": 0, "is_subclass": 0}
    found = broker.query([EntityPattern(entity_type=ONT + "Room")], None, None, allow_pull=False)
    assert len(found) == 500
    assert calls == {"subclasses_of": 1, "is_subclass": 0}
    two = [EntityPattern(entity_type=ONT + "Hall"), EntityPattern.from_json({"idPattern": "r000."})]
    assert len(broker.query(two, None, None, allow_pull=False)) == 505
    assert calls == {"subclasses_of": 2, "is_subclass": 0}
    assert [e.id for e in broker.query([EntityPattern("r0007")], None, None)] == ["r0007"]
    assert calls == {"subclasses_of": 2, "is_subclass": 0}


def test_a_federated_query_tests_pulled_entities_against_its_expansion_not_pairwise():
    subtyping = _Subtyping({ONT + "Room": {ONT + "Room", ONT + "MeetingRoom"}})
    calls = subtyping.calls
    offered = [_entity(f"p{i:02d}", entity_type=ONT + ("MeetingRoom" if i % 2 else "Hall"))
               for i in range(20)] + [_entity("q00", entity_type=ONT + "Room")]
    stub = ProviderStub(offered)
    try:
        broker = ContextBroker(subtyping)
        broker.register([EntityPattern(entity_type=ONT + "Room")], [], stub.url)
        pattern = EntityPattern.from_json({"idPattern": "p.*", "type": ONT + "Room"})
        found = broker.query([pattern], None, None)
        assert calls == {"subclasses_of": 1, "is_subclass": 1}  # the one registration's test
        assert len(stub.requests) == 1
        pulled = [ContextEntity.from_json(raw) for raw in offered]
        expected = [e for e in pulled if pattern.matches(e.id, e.type, subtyping.is_subclass)]
        assert [e.id for e in found] == [e.id for e in expected] == [f"p{i:02d}" for i in range(1, 20, 2)]
        assert found == expected
    finally:
        stub.close()


# --- the stored wire form --------------------------------------------------------------------

_BBOX = {"scopeType": "bbox", "value": {"minLon": 8, "minLat": 53, "maxLon": 9, "maxLat": 54}}


def _canonical_reply(broker: ContextBroker, body: dict) -> bytes:
    """The queryContext reply as it was serialized before entities kept
    their wire form: json.dumps of their to_json(), keys sorted."""
    patterns, attributes = parse_request(body, "queryContext")
    restriction = BoundingBox.from_json(body["restriction"]) if "restriction" in body else None
    entities = broker.query(patterns, attributes, restriction)
    return json.dumps({"entities": [e.to_json() for e in entities]}, sort_keys=True).encode()


def _raw_query(url: str, body: dict) -> bytes:
    request = urllib.request.Request(
        url + "/ngsi10/queryContext", data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.read()


def test_query_replies_are_byte_identical_to_the_sorted_json_of_the_entities(broker_server):
    provider = boot(BrokerService())
    try:
        loc = [{"name": "location", "type": "geo:point", "value": [8.5, 53.5]},
               {"name": "unit", "type": "string", "value": "°C"}]
        BrokerClient(provider.url).update("APPEND", [_entity("remote1", 19, metadata=loc)])
        front = BrokerClient(broker_server.url)
        front.update("APPEND", [_entity("room1", metadata=loc), _entity("room2", "warm")])
        front.update("APPEND", [_entity("room1", 40, name="humidity")])
        front.register([{"id": "remote1"}], [], provider.url)
        cases = {
            "unprojected": ({"entities": [{"idPattern": "room.*"}]}, ["room1", "room2"]),
            "projected": ({"entities": [{"idPattern": "room.*"}], "attributes": ["humidity"]},
                          ["room1"]),
            "bbox": ({"entities": [{"idPattern": ".*"}], "restriction": _BBOX}, ["room1"]),
            "federated": ({"entities": [{"id": "remote1"}]}, ["remote1"]),
            "empty": ({"entities": [{"id": "nobody"}]}, []),
        }
        for name, (body, ids) in cases.items():
            raw = _raw_query(broker_server.url, body)
            assert raw == _canonical_reply(broker_server.service.broker, body), name
            assert [e["id"] for e in json.loads(raw)["entities"]] == ids, name
    finally:
        provider.stop()


def test_the_query_and_the_notification_after_a_write_carry_its_value(broker_server, capture_server):
    client = BrokerClient(broker_server.url)
    client.subscribe([{"id": "room1"}], None, capture_server.url + "/notify")
    writes = [("APPEND", 20), ("UPDATE", 21), ("APPEND", 22), ("UPDATE", 23)]
    for count, (action, value) in enumerate(writes, start=1):
        assert client.update(action, [_entity("room1", value)])[0]["status"] == "ok"
        (entity,) = client.query([{"id": "room1"}])  # the stored wire form of this write
        assert entity["attributes"][0]["value"] == value
        assert capture_server.wait_for(count)
        (notified,) = capture_server.delivered()[-1]["entities"]
        assert notified["attributes"][0]["value"] == value


_WIRE_WRITES = st.lists(st.tuples(
    st.sampled_from(["APPEND", "UPDATE"]),
    st.sampled_from(["a", "b"]),
    st.sampled_from(["", "T"]),
    st.dictionaries(st.sampled_from(["x", "y"]), st.tuples(
        st.one_of(st.integers(-10**20, 10**20), st.floats(allow_nan=False, allow_infinity=False),
                  st.booleans(), st.text(max_size=4)),
        st.lists(st.sampled_from([
            {"name": "location", "type": "geo:point", "value": [8.5, 53.5]},
            {"name": "location", "type": "geo:point", "value": [20, -3.25]},
            {"name": "unit", "type": "string", "value": "kelvin"},
            {"name": "note", "type": "string", "value": "ü\"\\"},
        ]), max_size=2, unique_by=lambda m: m["name"]),
    )),
), min_size=1, max_size=10)


@settings(deadline=None, max_examples=150)
@given(_WIRE_WRITES, st.sampled_from([None, ["x"], ["y", "z"]]), st.booleans())
def test_every_stored_wire_form_reads_back_as_its_entity(writes, projection, boxed):
    """Over APPENDs and UPDATEs, each stored entity's wire bytes load as its
    to_json(), and a query's reply equals dumping what the query returns."""
    service = BrokerService()
    broker = service.broker
    try:
        for action, entity_id, entity_type, attrs in writes:
            raw = {"id": entity_id, "type": entity_type, "attributes": [
                {"name": name, "value": value, "metadata": metadata}
                for name, (value, metadata) in attrs.items()]}
            broker.update(action, [ContextEntity.from_json(raw)])
            for stored in broker._entities.values():
                assert json.loads(stored.wire) == stored.to_json()
        body = {"entities": [{"idPattern": ".*"}]}
        if projection is not None:
            body["attributes"] = projection
        if boxed:
            body["restriction"] = _BBOX
        response = service.handle(HttpRequest("POST", "/ngsi10/queryContext", {}, {},
                                              json.dumps(body).encode()))
        assert response.status == 200
        assert response.raw == _canonical_reply(broker, body)
    finally:
        service.close()


@pytest.mark.parametrize("corner", ["8.5", True, None, "nan", "-inf", "inf", [8], 10**400],
                         ids=["string", "true", "null", "nan", "minus-inf", "inf", "list",
                              "past-the-float-range"])
def test_a_bbox_corner_that_is_not_a_finite_number_is_a_400(broker_server, corner):
    BrokerClient(broker_server.url).update("APPEND", [_entity("room1")])
    value = {**_BBOX["value"], "minLon": corner}
    status, payload = post_json(
        broker_server.url + "/ngsi10/queryContext",
        {"entities": [{"idPattern": ".*"}], "restriction": {"scopeType": "bbox", "value": value}},
    )
    assert status == 400
    assert "finite numbers" in payload["message"]


def test_a_location_past_the_float_range_is_a_400_not_a_server_error(broker_server):
    location = {"name": "location", "type": "geo:point", "value": [10**400, 53]}
    status, payload = post_json(broker_server.url + "/ngsi10/updateContext",
                                {"action": "APPEND", "entities": [_entity("room1", metadata=[location])]})
    assert status == 400
    assert "finite numbers" in payload["message"]
