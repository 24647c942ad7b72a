"""Knowledge-based processing agent: configuration, context view,
rule-driven feedback with loop protection, and the query endpoint."""

import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import giots.broker as broker_module
from giots import rdf
from giots.agent import Agent, AgentConfig, AgentService, _lexical
from giots.broker import BrokerClient
from giots.httpkit import find_free_port, get_json, post_json, run_service, wait_healthy
from giots.rdf import CTX_NS, IRI, Graph, Literal, RDF_TYPE, Triple
from giots.rules import forward_chain

ONT = "http://wise-iot.example/onto#"

OCCUPANCY_RULE = {
    "ruleId": "occupied-when-people-present",
    "body": [f"?room <{CTX_NS}occupancy> ?n", f"FILTER(?n > 0)"],
    "head": [f'?room <{CTX_NS}occupied> "true"'],
}


def _config_doc(**overrides):
    doc = {
        "agentId": "occupancy-agent",
        "brokerUrl": "http://127.0.0.1:9/broker",
        "subscription": {"entities": [{"idPattern": "room.*"}], "attributes": ["occupancy"]},
        "rules": [OCCUPANCY_RULE],
    }
    doc.update(overrides)
    return doc


def _notification(entity_id, attribute, value, entity_type=ONT + "Room"):
    return {
        "subscriptionId": "sub-00001",
        "entities": [
            {
                "id": entity_id,
                "type": entity_type,
                "attributes": [{"name": attribute, "value": value, "metadata": []}],
            }
        ],
    }


# --- configuration -----------------------------------------------------------------


def test_config_parsing_defaults():
    config = AgentConfig.from_json(_config_doc())
    assert config.agent_id == "occupancy-agent"
    assert config.attributes == ["occupancy"]
    assert config.rules.ids() == {"occupied-when-people-present"}
    assert config.sparql_enabled is True
    assert config.output_entity_suffix == ""
    assert config.throttling_millis == 0


def test_config_expands_prefixes_in_rules():
    doc = _config_doc(
        prefixes={"ctx": CTX_NS},
        rules=[
            {
                "ruleId": "r",
                "body": ["?room ctx:occupancy ?n"],
                "head": ['?room ctx:occupied "true"'],
            }
        ],
    )
    config = AgentConfig.from_json(doc)
    (rule,) = config.rules.rules
    assert rule.body[0].predicate == IRI(CTX_NS + "occupancy")


@pytest.mark.parametrize(
    "doc",
    [
        "not an object",
        _config_doc(agentId=""),
        _config_doc(brokerUrl=None),
        _config_doc(subscription="everything"),
        _config_doc(subscription={"entities": []}),
        _config_doc(subscription={"entities": [{"id": "x"}], "attributes": [""]}),
        _config_doc(rules="none"),
        _config_doc(rules=[OCCUPANCY_RULE, OCCUPANCY_RULE]),
        _config_doc(
            rules=[{"ruleId": "bad", "body": ["?a <urn:p> ?a"], "head": ["?b <urn:p> ?a"]}]
        ),
        _config_doc(outputEntitySuffix=7),
        _config_doc(sparqlEndpointEnabled="yes"),
        _config_doc(throttlingMillis=-1),
    ],
)
def test_config_rejects_malformed_documents(doc):
    with pytest.raises(ValueError):
        AgentConfig.from_json(doc)


def test_lexical_forms_of_context_values():
    assert _lexical("warm") == "warm"
    assert _lexical(4) == "4"
    assert _lexical(21.5) == "21.5"
    assert _lexical(True) == "true"
    assert _lexical([1, 2]) == "[1, 2]"


# --- view and reasoning without a broker ----------------------------------------------


def _offline_agent(**overrides):
    config = AgentConfig.from_json(_config_doc(**overrides))
    return Agent(config, "http://127.0.0.1:9")


def test_view_graph_mirrors_notifications():
    agent = _offline_agent()
    agent._apply_notification(_notification("room1", "occupancy", 4))
    agent.run_rule_pass()  # a query sees the view as of the last completed pass
    view = agent.view_graph()
    assert Triple(IRI("urn:room1"), IRI(RDF_TYPE), IRI(ONT + "Room")) in view
    assert Triple(IRI("urn:room1"), IRI(CTX_NS + "occupancy"), Literal("4")) in view
    # a repeated identical value changes nothing
    assert agent._apply_notification(_notification("room1", "occupancy", 4)) is False
    assert agent._apply_notification(_notification("room1", "occupancy", 5)) is True


def test_view_tolerates_untyped_and_badly_typed_entities():
    agent = _offline_agent()
    agent._apply_notification(
        {"entities": [{"id": "room1", "type": "", "attributes": [
            {"name": "occupancy", "value": 1, "metadata": []}]}]}
    )
    agent._apply_notification(_notification("room2", "occupancy", 2, entity_type="no spaces al lowed"))
    agent.run_rule_pass()
    view = agent.view_graph()
    # both values are present; neither entity contributes a type triple
    assert len([t for t in view if t.predicate == IRI(RDF_TYPE)]) == 0
    assert len([t for t in view if t.predicate == IRI(CTX_NS + "occupancy")]) == 2
    assert agent._apply_notification("garbage") is False


def test_sparql_answers_over_view_and_derived_facts(monkeypatch):
    agent = _offline_agent()
    sent = []
    monkeypatch.setattr(agent, "_send_update", lambda *a: sent.append(a))
    agent._apply_notification(_notification("room1", "occupancy", 4))
    new_facts = agent.run_rule_pass()
    assert [t.object.lexical for t in new_facts] == ["true"]
    answer = agent.answer_sparql(
        f'PREFIX ctx: <{CTX_NS}> SELECT ?room WHERE {{ ?room ctx:occupied "true" }}'
    )
    assert answer["variables"] == ["room"]
    assert answer["solutions"] == [{"room": {"kind": "iri", "value": "urn:room1"}}]
    ask = agent.answer_sparql(f'ASK {{ ?r <{CTX_NS}occupied> "true" }}')
    assert ask == {"result": True}
    # feedback went through the patched sender exactly once
    assert sent == [("room1", ONT + "Room", "occupied", "true")]


def test_feedback_dedup_and_suffix(monkeypatch):
    agent = _offline_agent(outputEntitySuffix=":status")
    sent = []
    monkeypatch.setattr(agent, "_send_update", lambda *a: sent.append(a))
    agent._apply_notification(_notification("room1", "occupancy", 4))
    agent.run_rule_pass()
    agent.run_rule_pass()  # same facts, nothing new to send
    assert len(sent) == 1
    assert sent[0][0] == "room1:status"
    # non-context or non-literal facts are never fed back
    agent.feed_back([Triple(IRI("urn:room1"), IRI(ONT + "other"), Literal("x"))])
    agent.feed_back([Triple(IRI("urn:room1"), IRI(CTX_NS + "peer"), IRI("urn:room2"))])
    assert len(sent) == 1


def _level_rule(rule_id, condition, state):
    return {
        "ruleId": rule_id,
        "body": [f"?tank <{CTX_NS}level> ?n", f"FILTER(?n {condition})"],
        "head": [f'?tank <{CTX_NS}state> "{state}"'],
    }


def test_a_derived_value_that_returns_is_sent_again(monkeypatch):
    agent = _offline_agent(rules=[_level_rule("high", ">= 10", "high"),
                                  _level_rule("low", "< 10", "low")])
    sent = []
    monkeypatch.setattr(agent, "_send_update", lambda *a: sent.append(a[3]))
    for level in (12, 3, 15, 15):
        agent._apply_notification(_notification("tank1", "level", level))
        agent.run_rule_pass()
    assert sent == ["high", "low", "high"]
    assert agent.stats()["derivedFactsSent"] == 3


def test_a_pass_deriving_two_values_for_one_attribute_sends_neither(monkeypatch, caplog):
    agent = _offline_agent(rules=[_level_rule("high", ">= 10", "high"),
                                  _level_rule("full", ">= 10", "full")])
    sent = []
    monkeypatch.setattr(agent, "_send_update", lambda *a: sent.append(a))
    agent._apply_notification(_notification("tank1", "level", 12))
    agent.run_rule_pass()
    agent.run_rule_pass()
    assert sent == []
    stats = agent.stats()
    assert stats["derivedClashes"] == 2
    assert stats["derivedFactsSent"] == 0
    clashes = [r.getMessage() for r in caplog.records if "clashing" in r.getMessage()]
    assert len(clashes) == 2
    assert not any(m.startswith("derived fact") for m in clashes)


def test_self_derived_attributes_are_not_reingested(monkeypatch):
    agent = _offline_agent()
    monkeypatch.setattr(agent, "_send_update", lambda *a: None)
    agent._apply_notification(_notification("room1", "occupancy", 4))
    agent.run_rule_pass()
    # the derived attribute comes back from the broker; the guard drops it
    changed = agent._apply_notification(_notification("room1", "occupied", "true"))
    assert changed is False
    assert (("room1", "occupied")) not in agent._values


def test_a_pass_over_the_derivation_cap_is_counted_as_aborted(monkeypatch, caplog):
    agent = _offline_agent()
    sent = []
    monkeypatch.setattr(agent, "_send_update", lambda *a: sent.append(a))
    for i in range(1001):
        agent._apply_notification(_notification(f"room{i}", "occupancy", 1))
    assert agent.run_rule_pass() == []
    assert "rule pass aborted" in caplog.text
    stats = agent.stats()
    assert stats["rulePassesAborted"] == 1
    assert stats["rulePasses"] == 0
    assert sent == []


def test_a_dropped_feedback_value_is_resent_by_the_next_pass(monkeypatch):
    agent = _offline_agent()
    outcomes = iter([False, True])
    bodies = []

    def deliver(send):
        bodies.append(send)
        return next(outcomes)

    monkeypatch.setattr(broker_module, "deliver", deliver)
    agent._apply_notification(_notification("room1", "occupancy", 4))
    agent.run_rule_pass()  # the broker is down: the value is dropped
    assert agent.stats()["derivedFactsSent"] == 0
    agent.run_rule_pass()
    assert len(bodies) == 2
    assert agent.stats()["derivedFactsSent"] == 1
    agent.run_rule_pass()  # delivered, so not sent again
    assert len(bodies) == 2


_TANK = ONT + "Tank"
_VESSEL = ONT + "Vessel"


@settings(deadline=None, max_examples=60)
@given(st.lists(
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from([_TANK, _VESSEL]), st.integers(0, 20)),
             min_size=1, max_size=4),
    min_size=1, max_size=6,
))
def test_each_pass_derives_what_chaining_the_view_from_scratch_derives(batches):
    rules = [
        _level_rule("high", ">= 10", "high"),
        _level_rule("low", "< 10", "low"),
        {"ruleId": "tank-alarm",
         "body": [f"?t <{RDF_TYPE}> <{_TANK}>", f'?t <{CTX_NS}state> "high"'],
         "head": [f'?t <{CTX_NS}alarm> "on"']},
        {"ruleId": "alarm-escalates",
         "body": [f'?t <{CTX_NS}alarm> "on"', f"?t <{CTX_NS}level> ?n"],
         "head": [f"?t <{CTX_NS}reported> ?n"]},
    ]
    agent = _offline_agent(rules=rules)
    agent._send_update = lambda *a: True
    types, levels = {}, {}
    for batch in batches:
        for tank, tank_type, level in batch:
            agent._apply_notification(_notification(f"tank{tank}", "level", level, tank_type))
            types[tank], levels[tank] = tank_type, level
        facts = agent.run_rule_pass()
        view = Graph(
            [Triple(IRI(f"urn:tank{t}"), IRI(RDF_TYPE), IRI(c)) for t, c in types.items()]
            + [Triple(IRI(f"urn:tank{t}"), IRI(CTX_NS + "level"), Literal(str(n)))
               for t, n in levels.items()]
        )
        expected = forward_chain(view, agent.config.rules)
        assert Graph(facts) == expected
        assert agent.view_graph() == view.union(expected)


def _occupied_rooms(agent, count):
    for i in range(count):
        agent._apply_notification(_notification(f"room{i}", "occupancy", 1))


def test_one_changed_value_costs_a_pass_little_matching_work(monkeypatch):
    agent = _offline_agent()
    monkeypatch.setattr(agent, "_send_update", lambda *a: True)
    _occupied_rooms(agent, 1000)
    assert len(agent.run_rule_pass()) == 1000
    calls = 0
    unify = rdf._unify

    def counting(pattern, triple):
        nonlocal calls
        calls += 1
        return unify(pattern, triple)

    monkeypatch.setattr(rdf, "_unify", counting)
    for value, derived in ((0, 999), (3, 1000), (4, 1000)):
        calls = 0
        agent._apply_notification(_notification("room7", "occupancy", value))
        assert len(agent.run_rule_pass()) == derived
        assert calls <= 100  # chaining the whole view unifies each of its 1 000 values


def test_a_pass_after_an_aborted_one_starts_over_from_the_view(monkeypatch, caplog):
    agent = _offline_agent()
    sent = []
    monkeypatch.setattr(agent, "_send_update", lambda *a: sent.append(a[0]))
    _occupied_rooms(agent, 1001)
    assert agent.run_rule_pass() == []
    assert "rule pass aborted" in caplog.text
    # one room empties, so 1 000 rooms derive a fact: the closure fits again
    agent._apply_notification(_notification("room1000", "occupancy", 0))
    assert len(agent.run_rule_pass()) == 1000
    assert sorted(sent) == sorted(f"room{i}" for i in range(1000))
    stats = agent.stats()
    assert stats["rulePassesAborted"] == 1
    assert stats["rulePasses"] == 1
    assert stats["derivedFactsSent"] == 1000
    occupied = agent.answer_sparql(f'SELECT ?r WHERE {{ ?r <{CTX_NS}occupied> "true" }}')
    assert len(occupied["solutions"]) == 1000


def test_sparql_keeps_the_last_completed_pass_after_an_abort(monkeypatch):
    agent = _offline_agent()
    monkeypatch.setattr(agent, "_send_update", lambda *a: True)
    _occupied_rooms(agent, 1000)
    agent.run_rule_pass()
    query = f'SELECT ?r WHERE {{ ?r <{CTX_NS}occupied> "true" }}'
    assert len(agent.answer_sparql(query)["solutions"]) == 1000
    agent._apply_notification(_notification("room1000", "occupancy", 1))
    assert agent.run_rule_pass() == []  # 1 001 facts: aborted
    assert len(agent.answer_sparql(query)["solutions"]) == 1000
    assert agent.view_graph() is agent.view_graph()  # cached until something changes


def test_a_one_value_pass_feeds_back_only_the_keys_it_touched(monkeypatch):
    agent = _offline_agent(rules=[_level_rule("high", ">= 10", "high"),
                                  _level_rule("low", "< 10", "low")])
    sent = []
    monkeypatch.setattr(agent, "_send_update", lambda *a: sent.append(a))
    for i in range(1000):
        agent._apply_notification(_notification(f"tank{i}", "level", 12))
    assert len(agent.run_rule_pass()) == 1000
    assert len(sent) == 1000
    read = set()

    class CountingDict(dict):
        def get(self, key, default=None):
            read.add(key)
            return super().get(key, default)

        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

        def __contains__(self, key):
            read.add(key)
            return super().__contains__(key)

    agent._sent = CountingDict(agent._sent)
    del sent[:]
    agent._apply_notification(_notification("tank7", "level", 3))
    assert len(agent.run_rule_pass()) == 1000
    assert len(read) <= 2  # walking every derived fact reads all 1 000 keys
    assert sent == [("tank7", ONT + "Room", "state", "low")]


def test_a_query_reads_the_closure_as_of_the_last_completed_pass(monkeypatch):
    agent = _offline_agent()
    monkeypatch.setattr(agent, "_send_update", lambda *a: True)
    view = agent.view_graph()
    agent._apply_notification(_notification("room1", "occupancy", 4))
    value = f'ASK {{ <urn:room1> <{CTX_NS}occupancy> "4" }}'
    occupied = f'SELECT ?r WHERE {{ ?r <{CTX_NS}occupied> "true" }}'
    assert agent.answer_sparql(value) == {"result": False}  # not before a pass
    assert agent.answer_sparql(occupied)["solutions"] == []
    agent.run_rule_pass()
    assert agent.view_graph() is view
    assert agent.answer_sparql(value) == {"result": True}
    assert agent.answer_sparql(occupied)["solutions"] == [{"r": {"kind": "iri", "value": "urn:room1"}}]


def test_queries_beside_passes_see_only_whole_passes(monkeypatch):
    """Readers query while a writer flips every room's value and runs a
    pass: each answer is all rooms occupied or none, never half a pass."""
    agent = _offline_agent()
    monkeypatch.setattr(agent, "_send_update", lambda *a: True)
    query = f'SELECT ?r ?n WHERE {{ ?r <{CTX_NS}occupied> "true" . ?r <{CTX_NS}occupancy> ?n }}'
    done, seen, errors = threading.Event(), [], []

    def write():
        for value in (2, 0) * 15:
            for i in range(50):
                agent._apply_notification(_notification(f"room{i}", "occupancy", value))
            agent.run_rule_pass()
        done.set()

    def read():
        try:
            while not done.is_set():
                rows = agent.answer_sparql(query)["solutions"]
                seen.append((len(rows), tuple(sorted({row["n"]["value"] for row in rows}))))
        except Exception as exc:  # recorded, so the assert below names it
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write)] + [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert seen and set(seen) <= {(0, ()), (50, ("2",))}


# --- end-to-end against a live broker ---------------------------------------------------


def _boot_agent(broker_url, **overrides):
    config = AgentConfig.from_json(_config_doc(brokerUrl=broker_url, **overrides))
    port = find_free_port()
    agent = Agent(config, f"http://127.0.0.1:{port}")
    handle = run_service(AgentService(agent), port)
    wait_healthy(handle.url)
    agent.start()
    return agent, handle


def _poll(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        result = condition()
        if result:
            return result
        time.sleep(0.05)
    return condition()


def test_agent_derives_and_feeds_back_through_broker(broker_server):
    agent, handle = _boot_agent(broker_server.url)
    try:
        broker = BrokerClient(broker_server.url)
        broker.update(
            "APPEND",
            [{"id": "room1", "type": ONT + "Room",
              "attributes": [{"name": "occupancy", "value": 4, "metadata": []}]}],
        )
        entities = _poll(lambda: broker.query([{"id": "room1"}], attributes=["occupied"]))
        (entity,) = entities
        (attribute,) = entity["attributes"]
        assert attribute["value"] == "true"
        metadata = {m["name"]: m["value"] for m in attribute["metadata"]}
        assert metadata["source"] == "occupancy-agent"
        # the loop settles: one derived fact, no repeated feedback
        time.sleep(0.4)
        status, stats = get_json(handle.url + "/stats")
        assert status == 200
        assert stats["derivedFactsSent"] == 1
        assert stats["agentId"] == "occupancy-agent"
        # zero occupancy derives nothing new
        broker.update(
            "APPEND",
            [{"id": "room2", "type": ONT + "Room",
              "attributes": [{"name": "occupancy", "value": 0, "metadata": []}]}],
        )
        time.sleep(0.4)
        _, stats = get_json(handle.url + "/stats")
        assert stats["derivedFactsSent"] == 1
        assert stats["entities"] == 2
    finally:
        handle.stop()


def test_sparql_endpoint_wire_shapes(broker_server):
    agent, handle = _boot_agent(broker_server.url)
    try:
        BrokerClient(broker_server.url).update(
            "APPEND",
            [{"id": "room1", "type": ONT + "Room",
              "attributes": [{"name": "occupancy", "value": 2, "metadata": []}]}],
        )
        _poll(lambda: get_json(handle.url + "/stats")[1]["viewTriples"] >= 1)
        status, answer = post_json(
            handle.url + "/sparql",
            {"query": f"SELECT ?n WHERE {{ ?r <{CTX_NS}occupancy> ?n }}"},
        )
        assert status == 200
        assert answer["variables"] == ["n"]
        assert answer["solutions"] == [{"n": {"kind": "literal", "value": "2"}}]
        status, answer = post_json(handle.url + "/sparql", {"query": "ASK { ?s ?p ?o }"})
        assert status == 200 and answer == {"result": True}
        status, _ = post_json(handle.url + "/sparql", {"query": "SELECT WHERE"})
        assert status == 400
        status, _ = post_json(handle.url + "/sparql", {"q": "ASK { ?s ?p ?o }"})
        assert status == 400
    finally:
        handle.stop()


def test_sparql_endpoint_can_be_disabled(broker_server):
    agent, handle = _boot_agent(broker_server.url, sparqlEndpointEnabled=False)
    try:
        status, payload = post_json(handle.url + "/sparql", {"query": "ASK { ?s ?p ?o }"})
        assert status == 404
        assert payload["error"] == "NotFound"
    finally:
        handle.stop()


def test_stop_unsubscribes_from_broker(broker_server):
    agent, handle = _boot_agent(broker_server.url)
    sub_id = agent._subscription_id
    assert sub_id is not None
    handle.stop()  # closes the service, which stops the agent
    status, _ = post_json(
        broker_server.url + "/ngsi10/unsubscribeContext", {"subscriptionId": sub_id}
    )
    assert status == 404  # already gone
