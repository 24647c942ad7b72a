"""Resource tree CRUDN, discovery and childCreated notifications."""

import json
import random
import socket
import sys
import threading
import time
import urllib.parse
from datetime import datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings, strategies as st

from giots import cse
from giots.cse import CSE_BASE_NAME, CseClient, Resource, ResourceTree, TYPE_CODES, discover
from giots.httpkit import ApiError, get_json, request_json
from giots.sparql import PARSE_CACHE_SIZE, evaluate, parse_sparql

from conftest import UNPARSABLE_URLS

ONT = "http://wise-iot.example/onto#"
MED = "http://wise-iot.example/mediation#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

CELSIUS_DESCRIPTOR = (
    f"<urn:map:t1> <{MED}describesEntity> <urn:entity:room1> .\n"
    f'<urn:map:t1> <{MED}unitOfMeasure> "celsius" .\n'
)
FAHRENHEIT_DESCRIPTOR = (
    f"<urn:map:t2> <{MED}describesEntity> <urn:entity:room2> .\n"
    f'<urn:map:t2> <{MED}unitOfMeasure> "fahrenheit" .\n'
)
ASK_CELSIUS = 'ASK { ?m <%sunitOfMeasure> "celsius" }' % MED


def _post(url, path, code, body):
    return request_json(
        "POST", url + path, body=body, headers={"X-M2M-TY": str(code), "Content-Type": "application/json"}
    )


def _client(cse_server) -> CseClient:
    return CseClient(cse_server.url)


# --- create / retrieve -----------------------------------------------------------


def test_create_ae_under_base(cse_server):
    status, payload = _post(cse_server.url, "/cse", TYPE_CODES["AE"], {"rn": "tempApp"})
    assert status == 201
    assert payload["rn"] == "tempApp"
    assert payload["ty"] == 2
    assert payload["ri"].startswith("ae-")
    assert payload["lbl"] == []
    assert payload["ct"].endswith("Z")
    status, again = get_json(cse_server.url + "/cse/tempApp")
    assert status == 200
    assert again == payload


def test_cse_base_exists_and_cannot_be_recreated(cse_server):
    status, payload = get_json(cse_server.url + "/" + CSE_BASE_NAME)
    assert status == 200
    assert payload["ty"] == 5
    status, payload = _post(cse_server.url, "/cse", TYPE_CODES["CSEBase"], {"rn": "other"})
    assert status == 400


def test_content_instance_defaults_and_payload(cse_server):
    client = _client(cse_server)
    client.create("/cse", "AE", {"rn": "app"})
    client.create("/cse/app", "Container", {"rn": "room"})
    created = client.create("/cse/app/room", "ContentInstance", {"rn": "m1", "con": {"value": 25}})
    assert created["ty"] == 4
    assert created["con"] == {"value": 25}
    assert created["cnf"] == "application/json"
    assert created["ri"].startswith("cin-")


def test_create_requires_type_header_and_known_code(cse_server):
    status, payload = request_json("POST", cse_server.url + "/cse", body={"rn": "x"})
    assert status == 400
    assert "X-M2M-TY" in payload["message"]
    status, payload = _post(cse_server.url, "/cse", 99, {"rn": "x"})
    assert status == 400
    status, payload = request_json(
        "POST", cse_server.url + "/cse", body={"rn": "x"}, headers={"X-M2M-TY": "notanumber"}
    )
    assert status == 400


@pytest.mark.parametrize("bad_rn", [None, "", "has space", "a/b", "x" * 65, 7])
def test_create_rejects_bad_resource_names(cse_server, bad_rn):
    body = {} if bad_rn is None else {"rn": bad_rn}
    status, _ = _post(cse_server.url, "/cse", TYPE_CODES["AE"], body)
    assert status == 400


def test_create_under_missing_parent_is_404(cse_server):
    status, payload = _post(cse_server.url, "/cse/ghost", TYPE_CODES["Container"], {"rn": "x"})
    assert status == 404
    assert payload["error"] == "NotFound"


def test_duplicate_sibling_name_conflicts(cse_server):
    _post(cse_server.url, "/cse", TYPE_CODES["AE"], {"rn": "app"})
    status, payload = _post(cse_server.url, "/cse", TYPE_CODES["AE"], {"rn": "app"})
    assert status == 409
    assert payload["error"] == "Conflict"


def test_type_legality_is_enforced(cse_server):
    client = _client(cse_server)
    client.create("/cse", "AE", {"rn": "app"})
    # a ContentInstance cannot live directly under an AE
    status, payload = _post(
        cse_server.url, "/cse/app", TYPE_CODES["ContentInstance"], {"rn": "m", "con": 1}
    )
    assert status == 400
    assert "cannot be created under" in payload["message"]
    # an AE can only live under the base
    status, _ = _post(cse_server.url, "/cse/app", TYPE_CODES["AE"], {"rn": "inner"})
    assert status == 400
    # nothing can be created under a subscription
    client.create("/cse/app", "Container", {"rn": "c"})
    client.create("/cse/app/c", "Subscription", {"rn": "s", "nu": "http://127.0.0.1:1/x"})
    status, _ = _post(cse_server.url, "/cse/app/c/s", TYPE_CODES["Container"], {"rn": "x"})
    assert status == 400


def test_semantic_descriptor_validation_and_uniqueness(cse_server):
    client = _client(cse_server)
    client.create("/cse", "AE", {"rn": "app"})
    client.create("/cse/app", "Container", {"rn": "room"})
    status, _ = _post(
        cse_server.url, "/cse/app/room", TYPE_CODES["SemanticDescriptor"], {"rn": "d"}
    )
    assert status == 400  # dsp missing
    status, _ = _post(
        cse_server.url,
        "/cse/app/room",
        TYPE_CODES["SemanticDescriptor"],
        {"rn": "d", "dsp": "<broken"},
    )
    assert status == 400  # dsp does not parse
    created = client.create(
        "/cse/app/room", "SemanticDescriptor", {"rn": "d", "dsp": CELSIUS_DESCRIPTOR}
    )
    assert created["ty"] == 24
    status, payload = _post(
        cse_server.url,
        "/cse/app/room",
        TYPE_CODES["SemanticDescriptor"],
        {"rn": "d2", "dsp": CELSIUS_DESCRIPTOR},
    )
    assert status == 400
    assert "already has a semantic descriptor" in payload["message"]


def test_descriptor_round_trips_as_graph(cse_server):
    from giots.rdf import parse_ntriples

    client = _client(cse_server)
    client.create("/cse", "AE", {"rn": "app"})
    client.create("/cse/app", "Container", {"rn": "room"})
    client.create("/cse/app/room", "SemanticDescriptor", {"rn": "d", "dsp": CELSIUS_DESCRIPTOR})
    fetched = client.retrieve("/cse/app/room/d")
    assert parse_ntriples(fetched["dsp"]) == parse_ntriples(CELSIUS_DESCRIPTOR)


def test_subscription_requires_absolute_url(cse_server):
    client = _client(cse_server)
    client.create("/cse", "AE", {"rn": "app"})
    for bad in ["not a url"] + UNPARSABLE_URLS:
        status, _ = _post(cse_server.url, "/cse/app", TYPE_CODES["Subscription"], {"rn": "s", "nu": bad})
        assert status == 400, bad


def test_group_membership_is_checked(cse_server):
    client = _client(cse_server)
    ae = client.create("/cse", "AE", {"rn": "app"})
    status, _ = _post(
        cse_server.url, "/cse", TYPE_CODES["Group"], {"rn": "g", "mid": ["missing-ri"]}
    )
    assert status == 400
    created = client.create("/cse", "Group", {"rn": "g", "mid": [ae["ri"]]})
    assert created["mid"] == [ae["ri"]]


# --- update ----------------------------------------------------------------------------


def test_content_instances_are_immutable(cse_server):
    client = _client(cse_server)
    client.create("/cse", "AE", {"rn": "app"})
    client.create("/cse/app", "Container", {"rn": "c"})
    client.create("/cse/app/c", "ContentInstance", {"rn": "m", "con": 1})
    status, payload = request_json("PUT", cse_server.url + "/cse/app/c/m", body={"con": 2})
    assert status == 405
    assert payload["error"] == "MethodNotAllowed"


def test_update_labels_and_descriptor_graph(cse_server):
    client = _client(cse_server)
    client.create("/cse", "AE", {"rn": "app"})
    client.create("/cse/app", "Container", {"rn": "c", "lbl": ["old"]})
    status, payload = request_json("PUT", cse_server.url + "/cse/app/c", body={"lbl": ["new", "x"]})
    assert status == 200
    assert payload["lbl"] == ["new", "x"]
    # a container has no other mutable attributes
    status, _ = request_json("PUT", cse_server.url + "/cse/app/c", body={"con": 5})
    assert status == 400
    client.create("/cse/app/c", "SemanticDescriptor", {"rn": "d", "dsp": CELSIUS_DESCRIPTOR})
    status, payload = request_json(
        "PUT", cse_server.url + "/cse/app/c/d", body={"dsp": FAHRENHEIT_DESCRIPTOR}
    )
    assert status == 200
    assert "fahrenheit" in payload["dsp"]
    status, _ = request_json("PUT", cse_server.url + "/cse/app/c/d", body={"dsp": "<broken"})
    assert status == 400


@pytest.mark.parametrize(
    ("rn", "ty", "body", "refused"),
    [
        ("d", "SemanticDescriptor", {"dsp": CELSIUS_DESCRIPTOR}, {"dsp": "<broken"}),
        ("s", "Subscription", {"nu": "http://127.0.0.1:1/n"}, {"nu": "not a url"}),
        ("g", "Group", {"mid": []}, {"mid": ["missing-ri"]}),
    ],
)
def test_a_refused_update_changes_nothing(cse_server, rn, ty, body, refused):
    client = _client(cse_server)
    client.create("/cse", "AE", {"rn": "app"})
    before = client.create("/cse/app", ty, {"rn": rn, "lbl": ["kept"], **body})
    status, _ = request_json(
        "PUT", cse_server.url + f"/cse/app/{rn}", body={"lbl": ["changed"], **refused}
    )
    assert status == 400
    assert client.retrieve(f"/cse/app/{rn}") == before


COMMON_KEYS = {"rn", "ri", "ty", "ct", "lt", "lbl", "pi"}


@pytest.mark.parametrize(
    ("ty", "parent", "body", "update", "own_keys"),
    [
        ("CSEBase", None, None, {"lbl": ["x"]}, set()),
        ("AE", "/cse", {"rn": "w"}, {"lbl": ["x"]}, set()),
        ("Container", "/cse/app", {"rn": "w"}, {"lbl": ["x"]}, set()),
        ("ContentInstance", "/cse/app/c", {"rn": "w", "con": 1}, {"lbl": ["x"]}, {"con", "cnf"}),
        ("Group", "/cse", {"rn": "w", "mid": []}, {"lbl": ["x"], "mid": []}, {"mid"}),
        ("Subscription", "/cse/app/c", {"rn": "w", "nu": "http://127.0.0.1:1/n"},
         {"nu": "http://127.0.0.1:2/n"}, {"nu"}),
        ("SemanticDescriptor", "/cse/app/c", {"rn": "w", "dsp": CELSIUS_DESCRIPTOR},
         {"dsp": FAHRENHEIT_DESCRIPTOR}, {"dsp"}),
    ],
)
def test_each_type_has_one_wire_form(cse_server, ty, parent, body, update, own_keys):
    """Create, retrieve and update answer with exactly the common attributes
    and the type's own; nothing kept beside them reaches the wire."""
    client = _client(cse_server)
    client.create("/cse", "AE", {"rn": "app"})
    client.create("/cse/app", "Container", {"rn": "c"})
    keys = COMMON_KEYS | own_keys
    path = "/cse"
    if parent is not None:
        path = f"{parent}/w"
        assert set(client.create(parent, ty, body)) == keys
    retrieved = client.retrieve(path)
    assert set(retrieved) == keys
    assert retrieved["ty"] == TYPE_CODES[ty]
    status, updated = request_json("PUT", cse_server.url + path, body=update)
    if ty == "ContentInstance":
        assert status == 405
    else:
        assert status == 200
        assert set(updated) == keys
    assert set(client.retrieve(path)) == keys


def test_update_missing_resource_is_404(cse_server):
    status, _ = request_json("PUT", cse_server.url + "/cse/nope", body={"lbl": []})
    assert status == 404


# --- delete ----------------------------------------------------------------------------


def test_delete_cascades_to_subtree(cse_server):
    client = _client(cse_server)
    client.create("/cse", "AE", {"rn": "app"})
    client.create("/cse/app", "Container", {"rn": "c"})
    client.create("/cse/app/c", "ContentInstance", {"rn": "m", "con": 1})
    status, payload = request_json("DELETE", cse_server.url + "/cse/app")
    assert status == 200
    assert payload == {"deleted": 3}
    for path in ("/cse/app", "/cse/app/c", "/cse/app/c/m"):
        status, _ = get_json(cse_server.url + path)
        assert status == 404
    # the name is free again after the cascade
    status, _ = _post(cse_server.url, "/cse", TYPE_CODES["AE"], {"rn": "app"})
    assert status == 201


def test_base_cannot_be_deleted(cse_server):
    status, payload = request_json("DELETE", cse_server.url + "/cse")
    assert status == 405
    status, _ = request_json("DELETE", cse_server.url + "/cse/ghost")
    assert status == 404


# --- discovery ---------------------------------------------------------------------------


def _discovery_fixture(client: CseClient) -> None:
    client.create("/cse", "AE", {"rn": "app"})
    client.create("/cse/app", "Container", {"rn": "room1", "lbl": ["temperature"]})
    client.create("/cse/app", "Container", {"rn": "room2", "lbl": ["humidity"]})
    client.create(
        "/cse/app/room1", "SemanticDescriptor", {"rn": "d", "dsp": CELSIUS_DESCRIPTOR}
    )
    client.create(
        "/cse/app/room2", "SemanticDescriptor", {"rn": "d", "dsp": FAHRENHEIT_DESCRIPTOR}
    )


def test_discover_by_type_returns_strict_descendants_sorted(cse_server):
    client = _client(cse_server)
    _discovery_fixture(client)
    found = client.discover("/cse", resource_type="Container")
    assert found == ["/cse/app/room1", "/cse/app/room2"]
    # the root itself is never a hit
    assert client.discover("/cse", resource_type="CSEBase") == []
    # discovery can start anywhere in the tree
    assert client.discover("/cse/app/room1", resource_type="SemanticDescriptor") == [
        "/cse/app/room1/d"
    ]


def test_discover_by_label_matches_any_of(cse_server):
    client = _client(cse_server)
    _discovery_fixture(client)
    assert client.discover("/cse", labels=["temperature"]) == ["/cse/app/room1"]
    both = client.discover("/cse", labels=["temperature", "humidity"])
    assert both == ["/cse/app/room1", "/cse/app/room2"]
    assert client.discover("/cse", labels=["nope"]) == []


def test_discover_by_semantic_filter(cse_server):
    client = _client(cse_server)
    _discovery_fixture(client)
    found = client.discover("/cse", resource_type="Container", semantic_filter=ASK_CELSIUS)
    assert found == ["/cse/app/room1"]
    # candidates without a descriptor child never match a semantic filter
    assert client.discover("/cse", semantic_filter=ASK_CELSIUS) == ["/cse/app/room1"]
    select = 'SELECT ?m WHERE { ?m <%sunitOfMeasure> "fahrenheit" }' % MED
    assert client.discover("/cse", resource_type="Container", semantic_filter=select) == [
        "/cse/app/room2"
    ]


def test_discover_filters_combine_conjunctively(cse_server):
    client = _client(cse_server)
    _discovery_fixture(client)
    found = client.discover(
        "/cse", resource_type="Container", labels=["humidity"], semantic_filter=ASK_CELSIUS
    )
    assert found == []


def test_discover_wire_shape_and_errors(cse_server):
    client = _client(cse_server)
    _discovery_fixture(client)
    status, payload = get_json(cse_server.url + "/cse?fu=1&ty=3")
    assert status == 200
    assert set(payload) == {"uril"}
    status, payload = get_json(cse_server.url + "/cse?fu=1&smf=SELECT%20bogus")
    assert status == 400
    assert "invalid semantic filter" in payload["message"]
    status, _ = get_json(cse_server.url + "/cse/ghost?fu=1")
    assert status == 404
    status, _ = get_json(cse_server.url + "/cse?fu=1&ty=999")
    assert status == 400


def test_discovery_reflects_descriptor_updates(cse_server):
    client = _client(cse_server)
    _discovery_fixture(client)
    request_json(
        "PUT", cse_server.url + "/cse/app/room2/d", body={"dsp": CELSIUS_DESCRIPTOR}
    )
    found = client.discover("/cse", resource_type="Container", semantic_filter=ASK_CELSIUS)
    assert found == ["/cse/app/room1", "/cse/app/room2"]


def test_a_selective_semantic_filter_is_evaluated_only_where_its_terms_are(monkeypatch):
    tree = ResourceTree()
    tree.create("/cse", "AE", {"rn": "app"})
    for i in range(100):
        container = tree.create("/cse/app", "Container", {"rn": f"c{i:03d}"})
        dsp = FAHRENHEIT_DESCRIPTOR if i % 10 == 0 else CELSIUS_DESCRIPTOR
        tree.create(container.path, "SemanticDescriptor", {"rn": "d", "dsp": dsp})
    evaluated = []
    monkeypatch.setattr(cse, "evaluate", lambda query, graph: evaluated.append(graph)
                        or evaluate(query, graph))
    ask = 'ASK { ?m <%sunitOfMeasure> "fahrenheit" }' % MED
    hits = discover(tree, "/cse", "Container", semantic_filter=ask)
    assert hits == [f"/cse/app/c{i:03d}" for i in range(0, 100, 10)]
    assert len(evaluated) == 10
    # a term no descriptor holds: nothing to evaluate
    absent = 'ASK { ?m <%sunitOfMeasure> "kelvin" }' % MED
    assert discover(tree, "/cse", "Container", semantic_filter=absent) == []
    assert len(evaluated) == 10


ASK_CELSIUS_BY_FILTER = 'ASK { ?m <%sunitOfMeasure> ?u FILTER(?u = "celsius") }' % MED


def _described_container(tree: ResourceTree, dsp: str = CELSIUS_DESCRIPTOR) -> Resource:
    tree.create("/cse", "AE", {"rn": "app"})
    container = tree.create("/cse/app", "Container", {"rn": "room"})
    tree.create(container.path, "SemanticDescriptor", {"rn": "d", "dsp": dsp})
    return container


def test_a_descriptor_put_or_recreation_changes_the_next_discovery(monkeypatch):
    """Both descriptors hold every ground term of the filter, so only the
    verdict tells them apart; it lasts until the descriptor's graph changes."""
    tree = ResourceTree()
    container = _described_container(tree)
    evaluated = []
    monkeypatch.setattr(cse, "evaluate", lambda query, graph: evaluated.append(graph)
                        or evaluate(query, graph))

    def found():
        return discover(tree, "/cse", "Container", semantic_filter=ASK_CELSIUS_BY_FILTER)

    assert found() == [container.path]
    assert found() == [container.path] and len(evaluated) == 1  # the verdict is kept
    tree.update("/cse/app/room/d", {"lbl": ["relabelled"]})
    assert found() == [container.path] and len(evaluated) == 1  # the graph did not change
    tree.update("/cse/app/room/d", {"dsp": FAHRENHEIT_DESCRIPTOR})
    assert found() == []
    tree.update("/cse/app/room/d", {"dsp": CELSIUS_DESCRIPTOR})
    assert found() == [container.path]
    tree.delete("/cse/app/room/d")
    assert found() == []
    tree.create(container.path, "SemanticDescriptor", {"rn": "d", "dsp": FAHRENHEIT_DESCRIPTOR})
    assert found() == []
    tree.delete("/cse/app/room/d")
    tree.create(container.path, "SemanticDescriptor", {"rn": "d", "dsp": CELSIUS_DESCRIPTOR})
    assert found() == [container.path]
    assert len(evaluated) == 5  # once per graph


def test_a_descriptor_keeps_no_more_verdicts_than_the_parse_cache_holds():
    tree = ResourceTree()
    container = _described_container(tree)
    # no ground term in a pattern, so every text reaches the descriptor
    texts = [f'ASK {{ ?s ?p ?o FILTER(?o != "v{i}") }}' for i in range(PARSE_CACHE_SIZE + 20)]
    for text in texts:
        assert discover(tree, "/cse", "Container", semantic_filter=text) == [container.path]
    verdicts = tree.lookup("/cse/app/room/d").verdicts
    assert len(verdicts) == PARSE_CACHE_SIZE
    assert texts[-1] in verdicts and texts[0] not in verdicts  # the oldest went first


def test_a_verdict_given_while_the_descriptor_changes_is_not_kept_for_its_new_graph():
    """Discoveries race dsp PUTs that flip the answer; once the PUTs stop,
    discovery answers for the graph the descriptor holds."""
    tree = ResourceTree()
    container = _described_container(tree)
    done = threading.Event()
    errors = []

    def discover_until_done():
        try:
            while not done.is_set():
                discover(tree, "/cse", "Container", semantic_filter=ASK_CELSIUS_BY_FILTER)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=discover_until_done) for _ in range(6)]
    try:
        for thread in threads:
            thread.start()
        for i in range(300):
            dsp = CELSIUS_DESCRIPTOR if i % 2 else FAHRENHEIT_DESCRIPTOR
            tree.update("/cse/app/room/d", {"dsp": dsp})
            expected = [container.path] if i % 2 else []
            time.sleep(0)
            assert discover(tree, "/cse", "Container",
                            semantic_filter=ASK_CELSIUS_BY_FILTER) == expected
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_an_invalid_semantic_filter_is_refused_on_every_request(cse_server):
    url = cse_server.url + "/cse?fu=1&smf=" + urllib.parse.quote("ASK { ?s <urn:p>")
    for _ in range(3):
        status, payload = get_json(url)
        assert status == 400
        assert "invalid semantic filter" in payload["message"]


class _UnwalkableChildren(dict):
    """A resource's children that fail the test when anything walks them."""

    def _walked(self, *args):
        raise AssertionError("a lookup walked every child")

    __iter__ = keys = values = items = _walked


def test_descriptor_and_subscription_lookups_do_not_walk_the_content_instances():
    tree = ResourceTree()
    container = _described_container(tree)
    sub = tree.create(container.path, "Subscription", {"rn": "s", "nu": "http://127.0.0.1:9/n"})
    for i in range(1000):
        tree.create(container.path, "ContentInstance", {"rn": f"i{i}", "con": i})
    container.children = _UnwalkableChildren(container.children)
    tree.create(container.path, "ContentInstance", {"rn": "last", "con": 0})
    assert tree.subscriptions_on(container) == [sub]
    assert discover(tree, "/cse", "Container", semantic_filter=ASK_CELSIUS) == [container.path]
    with pytest.raises(ApiError):  # one descriptor per resource
        tree.create(container.path, "SemanticDescriptor", {"rn": "d2", "dsp": CELSIUS_DESCRIPTOR})
    tree.delete(sub.path)
    tree.delete(container.path + "/d")
    assert tree.subscriptions_on(container) == []
    assert discover(tree, "/cse", "Container", semantic_filter=ASK_CELSIUS_BY_FILTER) == []
    tree.create(container.path, "SemanticDescriptor", {"rn": "d", "dsp": CELSIUS_DESCRIPTOR})
    assert discover(tree, "/cse", "Container", semantic_filter=ASK_CELSIUS) == [container.path]


_SUBJECTS = ["<urn:s1>", "<urn:s2>"]
_PREDICATES = ["<urn:p1>", "<urn:p2>"]
_OBJECTS = ["<urn:s1>", "<urn:o1>", '"a"', '"b"']
_TRIPLES = st.lists(st.tuples(st.sampled_from(_SUBJECTS), st.sampled_from(_PREDICATES),
                              st.sampled_from(_OBJECTS)), max_size=3)
_VARIABLES = ["?x", "?y"]
_QUERY_PATTERNS = st.lists(st.tuples(
    st.sampled_from(_VARIABLES + _SUBJECTS + ["<urn:none>"]),
    st.sampled_from(_VARIABLES + _PREDICATES),
    st.sampled_from(_VARIABLES + _OBJECTS),
), min_size=1, max_size=2)
_FILTERS = st.sampled_from(["", 'FILTER(?y = "a")', "FILTER(?x != <urn:s1>)"])
_OPS = st.lists(st.tuples(
    st.sampled_from(["container", "instance", "descriptor", "put", "delete"]),
    st.integers(0, 40), _TRIPLES,
), max_size=25)
_DISCOVERIES = st.lists(st.tuples(
    st.integers(0, 40),
    st.sampled_from([None, "AE", "Container", "ContentInstance", "SemanticDescriptor"]),
    st.none() | st.tuples(st.sampled_from(["ASK", "SELECT *"]), _QUERY_PATTERNS, _FILTERS),
), min_size=1, max_size=4)


def _walk(resource):
    stack = list(resource.children.values())
    while stack:
        current = stack.pop()
        yield current
        stack.extend(current.children.values())


def _dsp(triples) -> str:
    return "".join(f"{s} {p} {o} .\n" for s, p, o in triples)


@settings(deadline=None, max_examples=150)
@given(_OPS, _DISCOVERIES)
def test_indexed_discovery_answers_as_evaluating_every_descendant(ops, discoveries):
    """Over descriptor creates, dsp PUTs and deletes, discovery by type and
    semantic filter finds what a walk of the subtree that evaluates every
    candidate's descriptor finds."""
    tree = ResourceTree()
    tree.create("/cse", "AE", {"rn": "app"})
    base = tree.lookup("/cse")
    for i, (op, pick, triples) in enumerate(ops):
        live = [base, *_walk(base)]
        chosen = live[pick % len(live)]
        try:
            if op == "container" and chosen.ty in ("CSEBase", "AE", "Container"):
                tree.create(chosen.path, "Container", {"rn": f"n{i}"})
            elif op == "instance" and chosen.ty == "Container":
                tree.create(chosen.path, "ContentInstance", {"rn": f"n{i}", "con": i})
            elif op == "descriptor":
                tree.create(chosen.path, "SemanticDescriptor", {"rn": f"n{i}", "dsp": _dsp(triples)})
            elif op == "put" and chosen.ty == "SemanticDescriptor":
                tree.update(chosen.path, {"dsp": _dsp(triples)})
            elif op == "delete":
                tree.delete(chosen.path)
        except ApiError:
            pass  # not legal here; the tree is unchanged
    for pick, ty, spec in discoveries:
        roots = [base, *_walk(base)]
        root = roots[pick % len(roots)]
        smf = None
        if spec is not None:
            form, patterns, where = spec
            body = " . ".join(" ".join(slots) for slots in patterns)
            smf = f"{form} {'WHERE ' if form != 'ASK' else ''}{{ {body} {where} }}"
        query = parse_sparql(smf) if smf is not None else None
        expected = []
        for candidate in _walk(root):
            if ty is not None and candidate.ty != ty:
                continue
            if query is not None:
                described = [c for c in candidate.children.values() if c.ty == "SemanticDescriptor"]
                if not described or not evaluate(query, described[0].graph):
                    continue
            expected.append(candidate.path)
        assert discover(tree, root.path, ty, semantic_filter=smf) == sorted(expected), smf


# --- lastModifiedTime and modifiedSince ----------------------------------------------------


def _stamp(text: str) -> datetime:
    return datetime.strptime(text, "%Y-%m-%dT%H:%M:%S.%fZ")


def test_last_modified_time_starts_at_creation_and_moves_on_every_update(cse_server):
    client = _client(cse_server)
    app = client.create("/cse", "AE", {"rn": "app"})
    assert app["lt"] == app["ct"]
    container = client.create("/cse/app", "Container", {"rn": "c"})
    descriptor = client.create(
        "/cse/app/c", "SemanticDescriptor", {"rn": "d", "dsp": CELSIUS_DESCRIPTOR}
    )
    assert descriptor["lt"] == descriptor["ct"]
    # creating a child leaves its parent's lt alone
    assert client.retrieve("/cse/app")["lt"] == app["lt"]
    assert client.retrieve("/cse/app/c")["lt"] == container["lt"]
    # updates in the same millisecond still move lt forward
    status, changed = request_json(
        "PUT", cse_server.url + "/cse/app/c/d", body={"dsp": FAHRENHEIT_DESCRIPTOR}
    )
    assert status == 200
    assert changed["ct"] == descriptor["ct"]
    assert _stamp(changed["lt"]) > _stamp(descriptor["lt"])
    status, relabelled = request_json("PUT", cse_server.url + "/cse/app/c/d", body={"lbl": ["x"]})
    assert status == 200
    assert _stamp(relabelled["lt"]) > _stamp(changed["lt"])
    assert client.retrieve("/cse/app/c/d")["lt"] == relabelled["lt"]
    # a refused update changes nothing
    status, _ = request_json("PUT", cse_server.url + "/cse/app/c/d", body={"dsp": "<broken"})
    assert status == 400
    assert client.retrieve("/cse/app/c/d")["lt"] == relabelled["lt"]


def _random_tree(seed: int) -> ResourceTree:
    rng = random.Random(seed)
    tree = ResourceTree()
    parents = [tree.base_path]
    for i in range(60):
        roll = rng.random()
        if roll < 0.1:
            time.sleep(0.002)  # spread the stamps over a few milliseconds
        elif roll < 0.3 and len(parents) > 1:
            tree.update(rng.choice(parents[1:]), {"lbl": [f"v{i}"]})
        else:
            parent = rng.choice(parents)
            ty = "AE" if parent == tree.base_path else "Container"
            parents.append(tree.create(parent, ty, {"rn": f"r{i}"}).path)
    return tree


@pytest.mark.parametrize("seed", range(5))
def test_discover_modified_since_agrees_with_a_filter_on_lt(seed):
    tree = _random_tree(seed)
    every = [tree.lookup(path) for path in discover(tree, "/cse")]
    stamps = sorted({r.lt for r in every} | {r.ct for r in every})
    assert len(stamps) > 1
    for since in ["2000-01-01T00:00:00.000Z", *stamps, "2999-01-01T00:00:00.000Z"]:
        expected = sorted(r.path for r in every if _stamp(r.to_json()["lt"]) >= _stamp(since))
        assert discover(tree, "/cse", modified_since=since) == expected
        containers = [p for p in expected if tree.lookup(p).ty == "Container"]
        assert discover(tree, "/cse", "Container", modified_since=since) == containers


def test_every_stamp_the_tree_issues_is_later_than_the_one_before():
    """Creates and updates of sibling resources made within one millisecond
    still get distinct stamps, so an inclusive modifiedSince never returns
    a resource that was not changed at or after the given stamp."""
    tree = ResourceTree()
    tree.create(tree.base_path, "AE", {"rn": "app"})
    stamps = []
    for i in range(300):
        created = tree.create("/cse/app", "Container", {"rn": f"c{i}"})
        updated = tree.update(created.path, {"lbl": ["seen"]})
        stamps += [created.ct, updated.lt]
    assert all(_stamp(a) < _stamp(b) for a, b in zip(stamps, stamps[1:]))


def test_discover_modified_since_over_http(cse_server):
    client = _client(cse_server)
    _discovery_fixture(client)
    first = client.retrieve("/cse/app/room1/d")["lt"]
    request_json("PUT", cse_server.url + "/cse/app/room1/d", body={"dsp": FAHRENHEIT_DESCRIPTOR})
    changed = client.retrieve("/cse/app/room1/d")["lt"]
    assert client.discover(
        "/cse", resource_type="SemanticDescriptor", modified_since=changed
    ) == ["/cse/app/room1/d"]
    assert client.discover(
        "/cse", resource_type="SemanticDescriptor", modified_since=first
    ) == ["/cse/app/room1/d", "/cse/app/room2/d"]


@pytest.mark.parametrize(
    "bad",
    ["yesterday", "2024-01-31T12:00:00Z", "2024-13-31T12:00:00.000Z", "2024-01-31 12:00:00.000Z"],
)
def test_discover_rejects_a_malformed_modified_since(cse_server, bad):
    status, payload = get_json(
        cse_server.url + "/cse?" + urllib.parse.urlencode({"fu": "1", "ms": bad})
    )
    assert status == 400
    assert "invalid modifiedSince" in payload["message"]


# --- notifications -------------------------------------------------------------------------


def _notify_fixture(client: CseClient, nu: str) -> dict:
    client.create("/cse", "AE", {"rn": "app"})
    client.create("/cse/app", "Container", {"rn": "c"})
    return client.create("/cse/app/c", "Subscription", {"rn": "s", "nu": nu})


def test_content_instance_creation_notifies_subscriber(cse_server, capture_server):
    client = _client(cse_server)
    sub = _notify_fixture(client, capture_server.url + "/notify")
    created = client.create("/cse/app/c", "ContentInstance", {"rn": "m1", "con": {"value": 7}})
    assert capture_server.wait_for(1)
    (body,) = capture_server.delivered()
    assert body["event"] == "childCreated"
    assert body["subscriptionRef"] == sub["ri"]
    assert body["resource"] == created
    (record,) = capture_server.records
    assert record["path"] == "/notify"


def test_only_content_instance_creation_fires(cse_server, capture_server):
    client = _client(cse_server)
    _notify_fixture(client, capture_server.url)
    client.create("/cse/app/c", "Container", {"rn": "nested"})
    client.create("/cse/app/c", "SemanticDescriptor", {"rn": "d", "dsp": CELSIUS_DESCRIPTOR})
    # a content instance under a *different* container is also silent
    client.create("/cse/app/c/nested", "ContentInstance", {"rn": "m", "con": 1})
    time.sleep(0.3)
    assert capture_server.delivered() == []


def test_notifications_preserve_creation_order(cse_server, capture_server):
    client = _client(cse_server)
    _notify_fixture(client, capture_server.url)
    for i in range(10):
        client.create("/cse/app/c", "ContentInstance", {"rn": f"m{i}", "con": i})
    assert capture_server.wait_for(10)
    values = [body["resource"]["con"] for body in capture_server.delivered()]
    assert values == list(range(10))


def test_every_subscription_on_the_parent_is_notified(cse_server, capture_server):
    client = _client(cse_server)
    _notify_fixture(client, capture_server.url + "/one")
    client.create("/cse/app/c", "Subscription", {"rn": "s2", "nu": capture_server.url + "/two"})
    client.create("/cse/app/c", "ContentInstance", {"rn": "m", "con": 1})
    assert capture_server.wait_for(2)
    paths = sorted(r["path"] for r in capture_server.records)
    assert paths == ["/one", "/two"]


def test_failed_delivery_is_retried(cse_server, capture_server):
    client = _client(cse_server)
    _notify_fixture(client, capture_server.url)
    capture_server.fail_next(1)
    client.create("/cse/app/c", "ContentInstance", {"rn": "m", "con": 42})
    assert capture_server.wait_for(1)
    assert capture_server.attempts() == 2
    assert capture_server.delivered()[0]["resource"]["con"] == 42


def test_delivery_gives_up_after_three_attempts_but_subscription_survives(
    cse_server, capture_server
):
    client = _client(cse_server)
    _notify_fixture(client, capture_server.url)
    capture_server.fail_next(3)
    client.create("/cse/app/c", "ContentInstance", {"rn": "m1", "con": 1})
    deadline = time.monotonic() + 3.0
    while capture_server.attempts() < 3 and time.monotonic() < deadline:
        time.sleep(0.05)
    assert capture_server.attempts() == 3
    assert capture_server.delivered() == []
    client.create("/cse/app/c", "ContentInstance", {"rn": "m2", "con": 2})
    assert capture_server.wait_for(1)
    assert capture_server.delivered()[0]["resource"]["con"] == 2


def test_a_hung_subscriber_does_not_hold_back_a_live_one(cse_server, capture_server):
    # a listener that never accepts: each delivery to it waits out its timeout
    hung = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    hung.bind(("127.0.0.1", 0))
    hung.listen(16)
    try:
        client = _client(cse_server)
        _notify_fixture(client, f"http://127.0.0.1:{hung.getsockname()[1]}/notify")
        client.create("/cse/app/c", "Subscription", {"rn": "live", "nu": capture_server.url})
        for i in range(5):
            client.create("/cse/app/c", "ContentInstance", {"rn": f"m{i}", "con": i})
        assert capture_server.wait_for(5, timeout=2.0)
        assert [body["resource"]["con"] for body in capture_server.delivered()] == list(range(5))
    finally:
        hung.close()  # resets the pending connections, so shutdown stays quick


def test_deleted_subscription_stops_notifying(cse_server, capture_server):
    client = _client(cse_server)
    _notify_fixture(client, capture_server.url)
    client.delete("/cse/app/c/s")
    client.create("/cse/app/c", "ContentInstance", {"rn": "m", "con": 1})
    time.sleep(0.3)
    assert capture_server.delivered() == []


def test_a_notification_queued_for_a_deleted_subscription_is_never_sent(cse_server):
    # the subscriber holds its first delivery until released; the second
    # notification waits behind it while its subscription is deleted
    received, first_in, release = [], threading.Event(), threading.Event()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            received.append(json.loads(self.rfile.read(int(self.headers["Content-Length"]))))
            first_in.set()
            release.wait(5)
            self.send_response(200)
            self.send_header("Content-Length", "0")
            self.end_headers()

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        client = _client(cse_server)
        _notify_fixture(client, f"http://127.0.0.1:{server.server_address[1]}/notify")
        client.create("/cse/app/c", "ContentInstance", {"rn": "m1", "con": 1})
        assert first_in.wait(5)
        client.create("/cse/app/c", "ContentInstance", {"rn": "m2", "con": 2})
        client.delete("/cse/app/c/s")
        release.set()
        time.sleep(0.3)
        assert [body["resource"]["con"] for body in received] == [1]
    finally:
        release.set()
        server.shutdown()
        server.server_close()
