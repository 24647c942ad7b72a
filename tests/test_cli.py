"""Command line interface and the shared HTTP plumbing it is built on."""

import json
import socket
import subprocess
import sys

import pytest

from giots.cli import DEFAULT_PORTS, build_parser, main
from giots.httpkit import (
    ApiError,
    HttpRequest,
    HttpResponse,
    PortInUse,
    Router,
    find_free_port,
    get_json,
    request_json,
    run_service,
)
from giots.knowledge import KnowledgeService

from conftest import CORPUS_DIR, SCENARIOS_DIR


# --- argument parsing -----------------------------------------------------------


def test_parser_rejects_bad_invocations():
    parser = build_parser()
    for argv in ([], ["serve"], ["serve", "toaster"], ["validate", "poetry", "f.nt"],
                 ["smg"], ["agent"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2


def test_default_ports_are_distinct():
    assert len(set(DEFAULT_PORTS.values())) == len(DEFAULT_PORTS)
    assert set(DEFAULT_PORTS) == {"knowledge", "cse", "broker", "validator", "smg", "agent"}


# --- validate command ----------------------------------------------------------------


def test_validate_command_exit_codes(capsys):
    clean = CORPUS_DIR / "sparql-clean-select.rq"
    assert main(["validate", "sparql", str(clean)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True

    broken = CORPUS_DIR / "sparql-fault-unbalanced.rq"
    assert main(["validate", "sparql", str(broken)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["errors"][0]["category"] == "syntactic"

    assert main(["validate", "ontology", "/nowhere/missing.nt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_rule_command_needs_json(tmp_path, capsys):
    not_json = tmp_path / "rule.json"
    not_json.write_text("{ nope", encoding="utf-8")
    assert main(["validate", "rule", str(not_json)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    clean = CORPUS_DIR / "rule-clean-occupied.json"
    assert main(["validate", "rule", str(clean)]) == 0


@pytest.mark.parametrize("name", ["rule-fault-nonterminating.json", "rule-fault-duplicate-id.json"])
def test_validate_rule_command_reads_the_witness_and_base(name, capsys):
    assert main(["validate", "rule", str(CORPUS_DIR / name)]) == 1
    assert not json.loads(capsys.readouterr().out)["passed"]


def test_validate_rule_command_reads_prefixes(tmp_path, capsys):
    ont, rdf = "http://wise-iot.example/onto#", "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
    path = tmp_path / "rule.json"
    doc = {
        "ruleId": "wire-rule",
        "prefixes": {"ont": ont, "rdf": rdf},
        "body": ["?x rdf:type ont:Room"],
        "head": ["?x rdf:type ont:Sensor"],
        "base": [],
        "witness": f"<urn:w:x> <{rdf}type> <{ont}Room> .\n",
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "rule", str(path)]) == 0, capsys.readouterr().out
    capsys.readouterr()
    for prefixes in (7, {"ont": 5}):  # not an object of prefix names to IRI strings
        path.write_text(json.dumps({**doc, "prefixes": prefixes}), encoding="utf-8")
        assert main(["validate", "rule", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [e["category"] for e in report["errors"]] == ["syntactic"]


def test_validate_command_and_service_agree_on_every_corpus_file(validator_server, capsys):
    manifest = json.loads((CORPUS_DIR / "manifest.json").read_text(encoding="utf-8"))
    for entry in manifest["entries"]:
        path = CORPUS_DIR / entry["file"]
        code = main(["validate", entry["kind"], str(path)])
        from_cli = json.loads(capsys.readouterr().out)
        status, from_service = request_json(
            "POST", validator_server.url + f"/validate/{entry['kind']}",
            body=path.read_text(encoding="utf-8"),
        )
        assert status == 200, entry
        assert code == (0 if from_service["passed"] else 1), entry
        del from_cli["durationMillis"], from_service["durationMillis"]
        assert from_cli == from_service, entry


def test_validate_annotation_command(tmp_path, capsys):
    clean = tmp_path / "annotation.nt"
    clean.write_text(
        '<urn:src:room1> <http://wise-iot.example/mediation#attributeName> "t" .\n',
        encoding="utf-8",
    )
    assert main(["validate", "annotation", str(clean)]) == 0
    bad = CORPUS_DIR / "annotation-fault-bad-syntax.nt"
    assert main(["validate", "annotation", str(bad)]) == 1
    capsys.readouterr()


# --- scenario command -------------------------------------------------------------------


def test_scenario_command_propagates_exit_code(tmp_path, capsys):
    assert main(["scenario", str(tmp_path / "absent.json")]) == 2
    assert "SETUP FAILED" in capsys.readouterr().out
    doc = {
        "services": {},
        "sensors": [],
        "assertions": [{"kind": "unheard-of"}],
        "quiescenceMillis": 100,
    }
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["scenario", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_packaged_scenario_via_console_script():
    result = subprocess.run(
        [sys.executable, "-m", "giots.cli", "scenario",
         str(SCENARIOS_DIR / "room123.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.count("PASS") == 3


# --- serve/agent/smg startup failures -----------------------------------------------------


def test_serve_reports_port_in_use(capsys):
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    port = blocker.getsockname()[1]
    try:
        assert main(["serve", "knowledge", "--port", str(port)]) == 2
        assert "error:" in capsys.readouterr().err
    finally:
        blocker.close()


def test_a_port_outside_0_to_65535_is_a_usage_error(capsys):
    config = str(SCENARIOS_DIR / "occupancy-agent.json")  # never read: parsing fails first
    for argv in (["serve", "knowledge"], ["smg", "--config", config], ["agent", "--config", config]):
        for port in ("70000", "-5", "seven"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--port", port])
            assert exc.value.code == 2
            assert f"argument --port: invalid port_number value: '{port}'" in capsys.readouterr().err


def test_smg_and_agent_commands_report_port_in_use(tmp_path, capsys):
    smg_config = tmp_path / "smg.json"
    smg_config.write_text(json.dumps({
        "cseUrl": "http://127.0.0.1:9/cse",
        "brokerUrl": "http://127.0.0.1:9/broker",
        "mode": "push",
        "processes": [{
            "processId": "identity",
            "matchQuery": "ASK { ?s ?p ?o }",
            "conversionId": "identity",
        }],
    }), encoding="utf-8")
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    port = str(blocker.getsockname()[1])
    try:
        for argv in (["smg", "--config", str(smg_config)],
                     ["agent", "--config", str(SCENARIOS_DIR / "occupancy-agent.json")]):
            assert main(argv + ["--port", port]) == 2
            assert capsys.readouterr().err == f"error: port {port} is already in use\n"
    finally:
        blocker.close()


def test_agent_command_without_a_broker_reports_and_frees_its_port(tmp_path, capsys):
    config = json.loads((SCENARIOS_DIR / "occupancy-agent.json").read_text(encoding="utf-8"))
    config["brokerUrl"] = f"http://127.0.0.1:{find_free_port()}/broker"  # nothing listens
    path = tmp_path / "agent.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    port = find_free_port()
    assert main(["agent", "--config", str(path), "--port", str(port)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", port))  # the agent's service was stopped


def test_smg_and_agent_commands_reject_bad_configs(tmp_path, capsys):
    missing = str(tmp_path / "none.json")
    assert main(["smg", "--config", missing]) == 2
    assert main(["agent", "--config", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}", encoding="utf-8")
    assert main(["smg", "--config", str(bad)]) == 2
    assert main(["agent", "--config", str(bad)]) == 2
    capsys.readouterr()
    smg_config = {
        "cseUrl": "http://127.0.0.1:9/cse",
        "brokerUrl": "http://127.0.0.1:9/broker",
        "mode": "pull",
        "processes": [{"processId": "identity", "matchQuery": "ASK { ?s ?p ?o }",
                       "conversionId": "identity"}],
    }
    for field in ({"knowledgeUrl": 5}, {"rootPath": 5}):
        bad.write_text(json.dumps({**smg_config, **field}), encoding="utf-8")
        assert main(["smg", "--config", str(bad), "--port", str(find_free_port())]) == 2
        assert capsys.readouterr().err.startswith(f"error: '{next(iter(field))}' must be")
    agent_config = json.loads((SCENARIOS_DIR / "occupancy-agent.json").read_text(encoding="utf-8"))
    agent_config["rules"][0]["head"] = ['?room ctx:occupied "true"']  # a rule that uses ctx:
    for prefixes in (7, {"ctx": 5}):
        bad.write_text(json.dumps({**agent_config, "prefixes": prefixes}), encoding="utf-8")
        assert main(["agent", "--config", str(bad), "--port", str(find_free_port())]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_smg_and_agent_commands_refuse_a_config_url_that_is_not_a_url(tmp_path, capsys):
    smg_config = {
        "cseUrl": "localhost:7101",
        "brokerUrl": "http://127.0.0.1:9/broker",
        "mode": "push",
        "processes": [{"processId": "identity", "matchQuery": "ASK { ?s ?p ?o }",
                       "conversionId": "identity"}],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(smg_config), encoding="utf-8")
    assert main(["smg", "--config", str(path), "--port", str(find_free_port())]) == 2
    assert capsys.readouterr().err.startswith("error: 'cseUrl' must be an absolute http(s) URL")
    agent_config = json.loads((SCENARIOS_DIR / "occupancy-agent.json").read_text(encoding="utf-8"))
    path.write_text(json.dumps({**agent_config, "brokerUrl": "nope"}), encoding="utf-8")
    assert main(["agent", "--config", str(path), "--port", str(find_free_port())]) == 2
    assert capsys.readouterr().err.startswith("error: 'brokerUrl' must be an absolute http(s) URL")


# --- shared HTTP plumbing ------------------------------------------------------------------


def _request(method, path):
    return HttpRequest(method=method, path=path, query={}, headers={}, body=b"")


def test_router_matches_and_extracts_parameters():
    router = Router()
    router.add("GET", "/things/{name}", lambda r: HttpResponse(200, r.params))
    router.add("GET", "/tree/{rest:path}", lambda r: HttpResponse(200, r.params))
    assert router.dispatch(_request("GET", "/things/abc")).payload == {"name": "abc"}
    assert router.dispatch(_request("GET", "/tree/a/b/c")).payload == {"rest": "a/b/c"}
    with pytest.raises(ApiError) as exc:
        router.dispatch(_request("GET", "/absent"))
    assert exc.value.status == 404
    with pytest.raises(ApiError) as exc:
        router.dispatch(_request("DELETE", "/things/abc"))
    assert exc.value.status == 405


def test_api_error_wire_shape(knowledge_server):
    status, payload = get_json(knowledge_server.url + "/no/such/route")
    assert status == 404
    assert payload == {
        "error": "NotFound",
        "message": payload["message"],
    }
    assert "/no/such/route" in payload["message"]


def test_health_endpoint_and_port_in_use():
    service = KnowledgeService()
    handle = run_service(service, 0)
    try:
        status, payload = get_json(handle.url + "/health")
        assert status == 200
        assert payload == {"status": "ok", "service": "knowledge"}
        with pytest.raises(PortInUse):
            run_service(KnowledgeService(), handle.port)
    finally:
        handle.stop()
    # stopping twice is harmless
    handle.stop()


def test_find_free_port_yields_bindable_port():
    port = find_free_port()
    probe = socket.socket()
    try:
        probe.bind(("127.0.0.1", port))
    finally:
        probe.close()
