"""Knowledge server wire behaviour and the degrading client."""

import random
import socket
import time
import urllib.parse
from types import SimpleNamespace

import giots.knowledge
from giots.httpkit import TransportError, get_json, post_json, request_json, run_service
from giots.knowledge import KnowledgeClient, KnowledgeService
from giots.ontology import Ontology

ONT = "http://wise-iot.example/onto#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"

MEETING_ROOM = (
    f"<{ONT}Room> <{RDF}type> <{OWL}Class> .\n"
    f"<{ONT}MeetingRoom> <{RDF}type> <{OWL}Class> .\n"
    f"<{ONT}MeetingRoom> <{RDFS}subClassOf> <{ONT}Room> .\n"
)


def _upload(url: str, text: str, merge: bool = False) -> dict:
    target = url + "/ontology" + ("?merge=true" if merge else "")
    status, payload = request_json("POST", target, body=text)
    assert status == 200, payload
    return payload


def _is_subclass(url: str, sub: str, sup: str) -> bool:
    q = urllib.parse.urlencode({"sub": sub, "sup": sup})
    status, payload = get_json(f"{url}/is-subclass?{q}")
    assert status == 200
    return payload["result"]


def test_upload_reports_counts(knowledge_server):
    counts = _upload(knowledge_server.url, MEETING_ROOM)
    assert counts == {"classes": 2, "properties": 0, "subclassEdges": 1}


def test_is_subclass_over_the_wire(knowledge_server):
    _upload(knowledge_server.url, MEETING_ROOM)
    assert _is_subclass(knowledge_server.url, ONT + "MeetingRoom", ONT + "Room") is True
    assert _is_subclass(knowledge_server.url, ONT + "Room", ONT + "MeetingRoom") is False
    assert _is_subclass(knowledge_server.url, ONT + "Room", ONT + "Room") is True
    assert _is_subclass(knowledge_server.url, "urn:x", "urn:x") is True


def test_is_subclass_requires_both_parameters(knowledge_server):
    status, payload = get_json(knowledge_server.url + "/is-subclass?sub=a")
    assert status == 400
    assert payload["error"] == "BadRequest"


def test_subclasses_sorted_and_reflexive(knowledge_server):
    _upload(knowledge_server.url, MEETING_ROOM)
    status, payload = get_json(
        knowledge_server.url + "/subclasses?" + urllib.parse.urlencode({"class": ONT + "Room"})
    )
    assert status == 200
    assert payload["subclasses"] == sorted([ONT + "MeetingRoom", ONT + "Room"])


def test_upload_replaces_unless_merge_requested(knowledge_server):
    _upload(knowledge_server.url, MEETING_ROOM)
    _upload(knowledge_server.url, f"<{ONT}Hall> <{RDFS}subClassOf> <{ONT}Room> .")
    # plain upload replaced the hierarchy, the MeetingRoom edge is gone
    assert _is_subclass(knowledge_server.url, ONT + "MeetingRoom", ONT + "Room") is False
    assert _is_subclass(knowledge_server.url, ONT + "Hall", ONT + "Room") is True
    _upload(knowledge_server.url, MEETING_ROOM, merge=True)
    assert _is_subclass(knowledge_server.url, ONT + "MeetingRoom", ONT + "Room") is True
    assert _is_subclass(knowledge_server.url, ONT + "Hall", ONT + "Room") is True


def test_upload_is_idempotent(knowledge_server):
    first = _upload(knowledge_server.url, MEETING_ROOM)
    second = _upload(knowledge_server.url, MEETING_ROOM)
    assert first == second


def test_upload_rejects_bad_ntriples_and_literal_superclasses(knowledge_server):
    status, payload = post_json(knowledge_server.url + "/ontology", "not ntriples at all")
    assert status == 400
    status, payload = request_json(
        "POST",
        knowledge_server.url + "/ontology",
        body=f'<{ONT}A> <{RDFS}subClassOf> "Room" .\n',
    )
    assert status == 400
    assert "structurally invalid" in payload["message"]


def test_property_lookup_and_miss(knowledge_server):
    _upload(
        knowledge_server.url,
        f"<{ONT}temp> <{RDFS}range> <http://www.w3.org/2001/XMLSchema#decimal> .\n",
    )
    status, payload = get_json(
        knowledge_server.url + "/property?" + urllib.parse.urlencode({"iri": ONT + "temp"})
    )
    assert status == 200
    assert payload["range"].endswith("decimal")
    assert payload["functional"] is False
    status, _ = get_json(
        knowledge_server.url + "/property?" + urllib.parse.urlencode({"iri": ONT + "nope"})
    )
    assert status == 404


def test_classes_listing(knowledge_server):
    _upload(knowledge_server.url, MEETING_ROOM)
    status, payload = get_json(knowledge_server.url + "/classes")
    assert status == 200
    assert payload["classes"] == sorted([ONT + "MeetingRoom", ONT + "Room"])


def test_health_endpoint(knowledge_server):
    status, payload = get_json(knowledge_server.url + "/health")
    assert status == 200
    assert payload == {"status": "ok", "service": "knowledge"}


# --- client ----------------------------------------------------------------------


def test_client_upload_and_subsumption(knowledge_server):
    client = KnowledgeClient(knowledge_server.url)
    client.upload(MEETING_ROOM)
    assert client.is_subclass(ONT + "MeetingRoom", ONT + "Room") is True
    assert client.subclasses_of(ONT + "Room") == sorted([ONT + "MeetingRoom", ONT + "Room"])
    assert client.declared_class(ONT + "Room") is True
    assert client.declared_class(ONT + "Nothing") is False


def test_client_caches_positive_answers_until_ttl(knowledge_server, monkeypatch):
    monkeypatch.setattr(giots.knowledge, "CACHE_TTL_SECONDS", 60.0)
    client = KnowledgeClient(knowledge_server.url)
    client.upload(MEETING_ROOM)
    assert client.is_subclass(ONT + "MeetingRoom", ONT + "Room") is True
    # replacing the ontology does not invalidate the client-side entry
    client.upload("")
    assert client.is_subclass(ONT + "MeetingRoom", ONT + "Room") is True
    fresh = KnowledgeClient(knowledge_server.url)
    assert fresh.is_subclass(ONT + "MeetingRoom", ONT + "Room") is False


def test_client_fetches_the_class_list_once_per_ttl(knowledge_server, monkeypatch):
    clock = SimpleNamespace(monotonic=lambda: 0.0)
    monkeypatch.setattr(giots.knowledge, "time", clock)
    client = KnowledgeClient(knowledge_server.url)
    client.upload(MEETING_ROOM)
    real = giots.knowledge.get_json
    fetched = []

    def refused_once(url, **kwargs):
        fetched.append(url)
        if len(fetched) == 1:
            raise TransportError("connection refused")
        return real(url, **kwargs)

    monkeypatch.setattr(giots.knowledge, "get_json", refused_once)
    for _ in range(3):  # a transport error is cached like a non-200 reply
        assert client.declared_class(ONT + "Room") is False
    clock.monotonic = lambda: giots.knowledge.CACHE_TTL_SECONDS + 0.1
    for _ in range(5):
        assert client.declared_class(ONT + "Room") is True
        assert client.declared_class(ONT + "Nothing") is False
    assert fetched == [knowledge_server.url + "/classes"] * 2


def test_a_hung_server_costs_one_wait_per_ttl_not_one_per_call(monkeypatch, caplog):
    """A server that accepts and never answers: the degraded answer is
    cached, and its TTL runs from the answer, so a wait longer than the
    TTL does not leave it stale."""
    monkeypatch.setattr(giots.knowledge, "CACHE_TTL_SECONDS", 1.0)
    with socket.socket() as hung:
        hung.bind(("127.0.0.1", 0))
        hung.listen()
        client = KnowledgeClient(f"http://127.0.0.1:{hung.getsockname()[1]}")
        assert client.is_subclass(ONT + "MeetingRoom", ONT + "Room") is False
        started = time.monotonic()
        assert client.is_subclass(ONT + "MeetingRoom", ONT + "Room") is False
        assert time.monotonic() - started < 1.0
    assert "knowledge server unreachable" in caplog.text


def test_client_degrades_when_server_is_gone():
    service = KnowledgeService()
    handle = run_service(service, 0)
    client = KnowledgeClient(handle.url)
    KnowledgeClient(handle.url).upload(MEETING_ROOM)
    handle.stop()
    # equality still holds, inferred subsumption and expansion degrade
    assert client.is_subclass(ONT + "Room", ONT + "Room") is True
    assert client.is_subclass(ONT + "MeetingRoom", ONT + "Room") is False
    assert client.subclasses_of(ONT + "Room") == [ONT + "Room"]
    assert client.declared_class(ONT + "Room") is False


def _subclass_text(edges) -> str:
    return "".join(f"<{ONT}{sub}> <{RDFS}subClassOf> <{ONT}{sup}> .\n" for sub, sup in edges)


def test_client_subsumption_agrees_with_the_ontology(knowledge_server):
    """Random class graphs, cycles and self-loops included, asked about
    every pair of their classes and of two classes the server never saw."""
    rng = random.Random(7311)
    names = [f"C{i}" for i in range(8)]
    for case in range(25):
        edges = {(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 12))}
        KnowledgeClient(knowledge_server.url).upload(_subclass_text(edges))
        ontology = Ontology(subclass_edges={(ONT + a, ONT + b) for a, b in edges})
        client = KnowledgeClient(knowledge_server.url)  # a fresh, empty cache per graph
        classes = [ONT + name for name in names + ["Unknown", "Other"]]
        for sub in classes:
            for sup in classes:
                assert client.is_subclass(sub, sup) == ontology.is_subclass(sub, sup), (case, sub, sup)


def test_client_asks_once_per_superclass(knowledge_server, monkeypatch):
    edges = [(f"Sub{i}", f"Sup{i % 3}") for i in range(30)]
    client = KnowledgeClient(knowledge_server.url)
    client.upload(_subclass_text(edges))
    real = giots.knowledge.get_json
    fetched = []

    def counting(url, **kwargs):
        fetched.append(url)
        return real(url, **kwargs)

    monkeypatch.setattr(giots.knowledge, "get_json", counting)
    for i in range(30):
        for j in range(3):
            assert client.is_subclass(ONT + f"Sub{i}", ONT + f"Sup{j}") is (i % 3 == j)
    assert len(fetched) == 3
    assert all(url.startswith(knowledge_server.url + "/subclasses?") for url in fetched)
