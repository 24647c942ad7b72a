"""No document reader fails on a mistyped field with anything but its own
error: every member of an agent config, a gateway config, a process, a
rule, a validator rule document and a scenario (with its assertion fields)
is replaced in turn by each of null, true, "", 0, [] and {}, and each load
either succeeds or raises that reader's error type, never TypeError,
KeyError or AttributeError."""

import json

from giots.agent import AgentConfig
from giots.rules import RuleFormatError, parse_rule_json
from giots.scenario import ScenarioError, load_scenario, run_scenario
from giots.smg import GatewayConfig, TransformationProcess
from giots.validator import validate

from conftest import SCENARIOS_DIR, variants

RULE = {"ruleId": "r", "body": ["?x ctx:p ?y", "FILTER(?y > 1)"], "head": ["?x ctx:q ?y"]}
PREFIXES = {"ctx": "http://wise-iot.example/context#"}
PROCESS = {"processId": "identity", "matchQuery": "ASK { ?s ?p ?o }",
           "conversionId": "identity", "priority": 1}
GATEWAY = {"cseUrl": "http://127.0.0.1:9/cse", "brokerUrl": "http://127.0.0.1:9/broker",
           "knowledgeUrl": "http://127.0.0.1:9/knowledge", "mode": "pull",
           "gatewayUrl": "http://127.0.0.1:9/smg", "processes": [PROCESS],
           "rescanPeriodMillis": 1000, "rootPath": "/cse/app"}
ASSERTIONS = [
    {"kind": "queryContextEquals", "request": {"entities": [{"id": "a"}]},
     "expected": {"entities": [{"id": "a", "type": "", "attributes": [
         {"name": "n", "value": 1, "metadata": [{"name": "unit", "type": "string", "value": "K"}]}]}]},
     "toleranceMillis": 5},
    {"kind": "discoverContains", "request": {"root": "/cse", "resourceType": "Container",
                                             "labels": ["temp"], "semanticFilter": "ASK { ?s ?p ?o }"},
     "expected": ["/cse/app"]},
    {"kind": "validationPasses", "request": {"kind": "sparql", "file": "query.rq"}, "expected": True},
]


def _sweep(doc, load, error):
    load(doc)  # the unchanged document loads
    failures = []
    for path, bad, variant in variants(doc):
        try:
            load(variant)
        except error:
            pass
        except Exception as exc:  # noqa: BLE001 - the sweep reports what escaped
            failures.append(f"{'.'.join(map(str, path))} = {bad!r}: {type(exc).__name__}: {exc}")
    return failures


def test_agent_config():
    doc = json.loads((SCENARIOS_DIR / "occupancy-agent.json").read_text(encoding="utf-8"))
    assert _sweep(doc, AgentConfig.from_json, ValueError) == []


def test_gateway_config_and_process():
    assert _sweep(GATEWAY, GatewayConfig.from_json, ValueError) == []
    assert _sweep(PROCESS, TransformationProcess.from_json, ValueError) == []


def test_rule_and_its_prefixes():
    doc = {"rule": RULE, "prefixes": PREFIXES}
    assert _sweep(doc, lambda d: parse_rule_json(d["rule"], d["prefixes"]), RuleFormatError) == []


def test_validator_rule_document():
    doc = {**RULE, "prefixes": PREFIXES, "base": [{**RULE, "ruleId": "b"}],
           "witness": "<urn:a> <http://wise-iot.example/context#p> \"2\" .\n"}
    assert _sweep(doc, lambda d: validate("rule", json.dumps(d)), ValueError) == []


def test_scenario(tmp_path):
    (tmp_path / "onto.nt").write_text("", encoding="utf-8")
    (tmp_path / "d.nt").write_text("", encoding="utf-8")
    (tmp_path / "agent.json").write_text("{}", encoding="utf-8")
    doc = {"ontologyFile": "onto.nt", "services": {"cse": 0},
           "sensors": [{"name": "s", "containerPath": "/cse/app/room", "descriptorFile": "d.nt",
                        "valueSequence": [1, 2], "periodMillis": 10},
                       {"name": "t", "containerPath": "/cse/app/hall", "descriptor": ""}],
           "smg": {"mode": "push"}, "agents": ["agent.json"], "assertions": ASSERTIONS,
           "quiescenceMillis": 100}
    path = tmp_path / "scenario.json"

    def load(variant):
        path.write_text(json.dumps(variant), encoding="utf-8")
        load_scenario(path)

    assert _sweep(doc, load, ScenarioError) == []


def test_assertion_fields(tmp_path):
    """Every mistyped assertion, in one run: each passes or fails, and the run exits 0 or 1."""
    (tmp_path / "query.rq").write_text("ASK { ?s ?p ?o }", encoding="utf-8")
    assertions = [variant for assertion in ASSERTIONS for _, _, variant in variants(assertion)]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"assertions": assertions, "quiescenceMillis": 0}), encoding="utf-8")
    report = run_scenario(path, print_report=False)
    assert report.exit_code in (0, 1), report.error
    assert len(report.outcomes) == len(assertions)
