"""No service answers a malformed request body with a 500: every POST and
PUT route of every service turns a body it cannot read into a 4xx (or
accepts it and drops it later), never into an unhandled error. Each member
of a valid body of each broker route, nested ones included, is also
replaced in turn by each of null, true, "", 0, [] and {}."""

import json
import urllib.parse

from giots.agent import Agent, AgentConfig, AgentService
from giots.cse import CseClient
from giots.httpkit import find_free_port, get_json, request_json, run_service
from giots.smg import GatewayConfig, MediationGateway, SmgService, TransformationProcess

from conftest import SCENARIOS_DIR, variants

RULE = {"ruleId": "r", "body": ["?x <urn:p> ?y"], "head": ["?x <urn:q> ?y"]}

BAD_BODIES = [
    7,
    [],
    "x",
    {},
    {"entities": 7},
    {"entities": [{"type": 5}]},
    {"entities": [{"id": "a"}], "attributes": 7},
    {"entities": [{"id": "a"}], "restriction": 7},
    {**RULE, "prefixes": 7},
]

ROUTES = {
    "broker": [("POST", "/ngsi9/registerContext"),
               ("POST", "/ngsi9/discoverContextAvailability"),
               ("POST", "/ngsi10/updateContext"),
               ("POST", "/ngsi10/queryContext"),
               ("POST", "/ngsi10/subscribeContext"),
               ("POST", "/ngsi10/unsubscribeContext")],
    "cse": [("POST", "/cse"), ("PUT", "/cse")],
    "knowledge": [("POST", "/ontology")],
    "validator": [("POST", "/reference")] + [
        ("POST", f"/validate/{kind}") for kind in ("ontology", "annotation", "rule", "sparql")
    ],
    "agent": [("POST", "/notify"), ("POST", "/sparql")],
    "smg": [("POST", "/notify"), ("POST", "/ngsi10/queryContext")],
}


def _boot_agent(broker_url):
    config = json.loads((SCENARIOS_DIR / "occupancy-agent.json").read_text(encoding="utf-8"))
    config["brokerUrl"] = broker_url
    port = find_free_port()
    agent = Agent(AgentConfig.from_json(config), f"http://127.0.0.1:{port}")
    return run_service(AgentService(agent), port)


def _boot_pull_gateway(cse_url, broker_url):
    port = find_free_port()
    gateway = MediationGateway(GatewayConfig(
        cse_url=cse_url, broker_url=broker_url, knowledge_url=None, mode="pull",
        gateway_url=f"http://127.0.0.1:{port}",
        processes=[TransformationProcess.from_json(
            {"processId": "identity", "matchQuery": "ASK { ?s ?p ?o }",
             "conversionId": "identity"})],
    ))
    return run_service(SmgService(gateway), port)


def test_no_route_answers_a_bad_body_with_a_server_error(
    broker_server, cse_server, knowledge_server, validator_server
):
    urls = {"broker": broker_server.url, "cse": cse_server.url,
            "knowledge": knowledge_server.url, "validator": validator_server.url}
    handles = [_boot_agent(broker_server.url),
               _boot_pull_gateway(cse_server.url, broker_server.url)]
    try:
        for name, handle in zip(("agent", "smg"), handles):
            urls[name] = handle.url
        failures = []
        for name, routes in ROUTES.items():
            for method, path in routes:
                for body in BAD_BODIES:
                    status, payload = request_json(
                        method, urls[name] + path, body=json.dumps(body)
                    )
                    if status >= 500:
                        failures.append((name, method, path, body, status, payload))
        assert failures == []
    finally:
        for handle in handles:
            handle.stop()


ENTITY = {"id": "urn:a", "type": "T", "attributes": [
    {"name": "n", "value": 1, "metadata": [{"name": "unit", "type": "string", "value": "K"}]}]}
BOX = {"minLon": 0, "minLat": 0, "maxLon": 1, "maxLat": 1}
BROKER_BODIES = {
    "/ngsi9/registerContext": {"entities": [{"id": "urn:a", "type": "T"}], "attributes": ["n"],
                               "providingApplication": "http://127.0.0.1:9/provider"},
    "/ngsi9/discoverContextAvailability": {"entities": [{"idPattern": "urn:.*"}], "attributes": ["n"]},
    "/ngsi10/updateContext": {"action": "APPEND", "entities": [ENTITY]},
    "/ngsi10/queryContext": {"entities": [{"id": "urn:a", "type": "T"}], "attributes": ["n"],
                             "restriction": {"scopeType": "bbox", "value": BOX}},
    "/ngsi10/subscribeContext": {"entities": [{"type": "T"}], "attributes": ["n"],
                                 "reference": "http://127.0.0.1:9/notify", "throttlingMillis": 0},
    "/ngsi10/unsubscribeContext": {"subscriptionId": "sub-00001"},
}


def test_no_broker_route_answers_a_mistyped_member_with_a_server_error(broker_server):
    assert set(BROKER_BODIES) == {path for _, path in ROUTES["broker"]}
    failures = []
    for path, body in BROKER_BODIES.items():
        for where, bad, variant in [((), None, body), *variants(body)]:
            status, payload = request_json("POST", broker_server.url + path, body=variant)
            if status >= 500:
                failures.append((path, ".".join(map(str, where)), bad, status, payload))
    assert failures == []


CR_DESCRIPTOR = '<urn:s> <urn:p> "a\rb" .\n'
CR_QUERY = 'ASK { ?s ?p "a\rb" }'
DEEP_QUERY = "ASK { ?s ?p ?o FILTER(" + "!" * 5000 + "?o = 1) }"


def test_a_carriage_return_in_a_literal_or_a_too_deep_filter_is_a_syntax_error(
    broker_server, cse_server, knowledge_server, validator_server
):
    cse = CseClient(cse_server.url)
    cse.create("/cse", "AE", {"rn": "app"})
    cse.create("/cse/app", "Container", {"rn": "room"})
    status, _ = request_json(
        "POST", cse_server.url + "/cse/app/room", body={"rn": "d", "dsp": CR_DESCRIPTOR},
        headers={"X-M2M-TY": "24", "Content-Type": "application/json"},
    )
    assert status == 400
    status, _ = request_json("POST", knowledge_server.url + "/ontology", body=CR_DESCRIPTOR)
    assert status == 400
    agent = _boot_agent(broker_server.url)
    try:
        for query in (CR_QUERY, DEEP_QUERY):
            status, _ = get_json(cse_server.url + "/cse?fu=1&smf=" + urllib.parse.quote(query))
            assert status == 400
            status, _ = request_json("POST", agent.url + "/sparql", body={"query": query})
            assert status == 400
    finally:
        agent.stop()
    for kind, text in [("annotation", CR_DESCRIPTOR), ("ontology", CR_DESCRIPTOR),
                       ("sparql", CR_QUERY), ("sparql", DEEP_QUERY)]:
        status, report = request_json("POST", validator_server.url + f"/validate/{kind}", body=text)
        assert status == 200 and report["passed"] is False
        assert [error["category"] for error in report["errors"]] == ["syntactic"]
