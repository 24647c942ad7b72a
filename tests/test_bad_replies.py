"""No client fails on a malformed reply from a peer with anything but a
refusal. A stub peer answers 200 with each of null, true, "", 0, [] and {},
as the whole reply and in place of each member a client reads (and with
text that is not JSON as the whole reply). Then every CseClient and
BrokerClient method and KnowledgeClient.upload either succeeds or raises
ValueError or TransportError; a subsumption question gets the degraded
answer; a federated query skips the provider; and a gateway scan adopts
nothing and leaves the source for the next scan, as it does a source whose
descriptor is not N-Triples."""

import json

import pytest

from giots.broker import BrokerClient
from giots.cse import CseClient
from giots.httpkit import HttpResponse, JsonHttpService, Stack, TransportError, request_json
from giots.knowledge import KnowledgeClient
from giots.rdf import MED_NS
from giots.smg import GatewayConfig, MediationGateway, TransformationProcess

from conftest import BAD_VALUES, variants

NOT_JSON = b"<html>not json</html>"
WHOLE = [((), bad, bad) for bad in [*BAD_VALUES, NOT_JSON]]


class StubPeer(JsonHttpService):
    """Answers every request 200 (a create, which carries X-M2M-TY, 201 as
    a CSE does): with ``replies[route]`` for a route it holds ("GET
    /cse?ty=3" for a discovery), else with ``reply``. A reply of bytes
    goes out as it is, anything else as JSON."""

    name = "stub"

    def __init__(self):
        super().__init__()
        self.reply = None
        self.replies = {}
        for method in ("GET", "POST", "DELETE"):
            self.router.add(method, "/{rest:path}", self._answer)

    def _answer(self, request):
        ty = request.query_first("ty")
        route = f"{request.method} {request.path}" + (f"?ty={ty}" if ty else "")
        reply = self.replies.get(route, self.reply)
        status = 201 if request.header("X-M2M-TY") else 200
        return HttpResponse(status, raw=reply if isinstance(reply, bytes) else json.dumps(reply).encode())


@pytest.fixture
def stub():
    stack = Stack()
    handle = stack.serve("stub", StubPeer())
    yield handle.service, handle.url
    stack.stop()


def _client_calls(url):
    """(name, the reply a well-formed peer sends, the call) for each client method."""
    cse, broker = CseClient(url + "/cse"), BrokerClient(url)
    entity = {"id": "urn:a", "type": "T", "attributes": [{"name": "n", "value": 1}]}
    return [
        ("CseClient.create", {"ri": "ae1", "rn": "app"}, lambda: cse.create("", "AE", {"rn": "app"})),
        ("CseClient.retrieve", {"ri": "ae1", "rn": "app"}, lambda: cse.retrieve("/app")),
        ("CseClient.delete", {"deleted": 1}, lambda: cse.delete("/app")),
        ("CseClient.discover", {"uril": ["/cse/app"]}, lambda: cse.discover("")),
        ("BrokerClient.register", {"registrationId": "reg-1"},
         lambda: broker.register([{"id": "urn:a"}], ["n"], "http://127.0.0.1:9/provider")),
        ("BrokerClient.discover", {"registrations": [{"registrationId": "reg-1"}]},
         lambda: broker.discover([{"id": "urn:a"}])),
        ("BrokerClient.update", {"responses": [{"id": "urn:a", "status": "ok"}]},
         lambda: broker.update("APPEND", [entity])),
        ("BrokerClient.append", {"responses": [{"id": "urn:a", "status": "ok"}]},
         lambda: broker.append([entity])),
        ("BrokerClient.query", {"entities": [entity]}, lambda: broker.query([{"id": "urn:a"}])),
        ("BrokerClient.subscribe", {"subscriptionId": "sub-1"},
         lambda: broker.subscribe([{"id": "urn:a"}], None, "http://127.0.0.1:9/notify")),
        ("BrokerClient.unsubscribe", {"subscriptionId": "sub-1"}, lambda: broker.unsubscribe("sub-1")),
        ("KnowledgeClient.upload", {"classes": 1, "properties": 0, "subclassEdges": 0},
         lambda: KnowledgeClient(url).upload("")),
    ]


def test_every_client_method_refuses_a_malformed_reply_with_value_or_transport_error(stub):
    peer, url = stub
    failures = []
    for name, good, send in _client_calls(url):
        for where, bad, reply in [((), None, good), *WHOLE, *variants(good)]:
            peer.reply = reply
            try:
                send()
            except (ValueError, TransportError):
                pass
            except Exception as exc:  # noqa: BLE001 - the sweep reports what escaped
                failures.append(f"{name}: {'.'.join(map(str, where))} = {bad!r}: {type(exc).__name__}: {exc}")
    assert failures == []


def test_a_well_formed_reply_gives_the_member_each_client_method_reads(stub):
    peer, url = stub
    answers = {}
    for name, good, send in _client_calls(url):
        peer.reply = good
        answers[name] = send()
    assert answers["CseClient.create"] == {"ri": "ae1", "rn": "app"}
    assert answers["CseClient.discover"] == ["/cse/app"]
    assert answers["BrokerClient.register"] == "reg-1"
    assert answers["BrokerClient.update"] == [{"id": "urn:a", "status": "ok"}]
    assert answers["BrokerClient.subscribe"] == "sub-1"
    assert answers["KnowledgeClient.upload"]["classes"] == 1
    peer.reply = {}  # an object that names no registration still counts as registered
    assert BrokerClient(url).register([{"id": "urn:a"}], ["n"], "http://127.0.0.1:9/p") is None


def test_an_unreadable_subsumption_reply_is_a_degraded_answer(stub):
    peer, url = stub
    good = {"subclasses": ["urn:B"]}
    for where, bad, reply in [((), None, good), *WHOLE, *variants(good)]:
        peer.reply = reply
        client = KnowledgeClient(url)
        answer = client.subclasses_of("urn:A")
        listed = reply.get("subclasses") if isinstance(reply, dict) else None
        if isinstance(listed, list) and all(isinstance(c, str) for c in listed):
            assert (answer, client.degraded) == (sorted({"urn:A", *listed}), 0), (where, bad)
        else:
            assert (answer, client.degraded) == (["urn:A"], 1), (where, bad)
            assert client.subclasses_of("urn:A") == ["urn:A"] and client.degraded == 1  # cached


def test_a_federated_query_skips_a_provider_whose_reply_cannot_be_read(stub, broker_server):
    peer, url = stub
    BrokerClient(broker_server.url).register([{"id": "urn:x", "type": "T"}], ["n"], url)
    good = {"entities": [{"id": "urn:x", "type": "T", "attributes": [
        {"name": "n", "value": 1, "metadata": [{"name": "unit", "type": "string", "value": "K"}]}]}]}
    query = {"entities": [{"id": "urn:x"}]}
    for where, bad, reply in [((), None, good), *WHOLE, *variants(good)]:
        peer.reply = reply
        status, payload = request_json("POST", broker_server.url + "/ngsi10/queryContext", body=query)
        assert status == 200, (where, bad, payload)
        if where in ((), ("entities",)) and reply is not good:
            assert payload == {"entities": []}, (where, bad)
    peer.reply = good
    _, payload = request_json("POST", broker_server.url + "/ngsi10/queryContext", body=query)
    assert [e["id"] for e in payload["entities"]] == ["urn:x"]


DESCRIPTOR = (
    f"<urn:src:room1> <{MED_NS}describesEntity> <urn:entity:room1> .\n"
    f"<urn:src:room1> <{MED_NS}entityType> <urn:T> .\n"
    f'<urn:src:room1> <{MED_NS}attributeName> "temperature" .\n'
)
STAMP = "2024-01-01T00:00:00.000Z"


def _cse_replies(lt=STAMP):
    """The members a CSE holding one annotated container answers the
    gateway with that the gateway reads."""
    return {
        "GET /cse?ty=3": {"uril": ["/cse/app/room"]},
        "GET /cse?ty=24": {"uril": ["/cse/app/room/descriptor"]},
        "GET /cse/app/room/descriptor": {"lt": lt, "ct": STAMP, "dsp": DESCRIPTOR},
        "POST /cse/app/room": {"ri": "sub-1"},
    }


def _gateway(cse_url):
    """A push gateway on that CSE, with one process that takes any annotated source."""
    process = TransformationProcess.from_json(
        {"processId": "identity", "matchQuery": f"PREFIX med: <{MED_NS}> ASK {{ ?s med:attributeName ?n }}",
         "conversionId": "identity"})
    return MediationGateway(GatewayConfig(cse_url=cse_url, broker_url=cse_url, knowledge_url=None,
                                          mode="push", gateway_url="http://127.0.0.1:9", processes=[process]))


def test_a_gateway_scan_leaves_a_source_whose_replies_cannot_be_read_for_the_next_scan(stub):
    peer, url = stub
    cases = [(route, where, bad, {**_cse_replies(), route: reply})
             for route, good in _cse_replies().items()
             for where, bad, reply in [*WHOLE, *variants(good)]]
    for route, where, bad, replies in [(None, (), None, _cse_replies()), *cases]:
        gateway = _gateway(url)
        try:
            peer.replies = replies
            assert gateway.scan_once() == (1 if route is None else 0), (route, where, bad)
            peer.replies = _cse_replies(lt="2024-01-01T00:00:01.000Z")  # the descriptor changed
            assert gateway.scan_once() == (0 if route is None else 1), (route, where, bad)
        finally:
            gateway.stop()


def test_a_descriptor_that_does_not_parse_leaves_only_its_own_source_for_the_next_scan(stub):
    peer, url = stub
    peer.replies = {
        **_cse_replies(),
        "GET /cse?ty=3": {"uril": ["/cse/app/bad", "/cse/app/room"]},
        "GET /cse?ty=24": {"uril": ["/cse/app/bad/descriptor", "/cse/app/room/descriptor"]},
        "GET /cse/app/bad/descriptor": {"lt": STAMP, "ct": STAMP, "dsp": "not N-Triples"},
    }
    gateway = _gateway(url)
    try:
        assert gateway.scan_once() == 1
        assert gateway.scan_once() == 0 and gateway.scans == 2
        assert [i.target.source_path for i in gateway.instances()] == ["/cse/app/room"]
    finally:
        gateway.stop()
