"""Scenario harness: file validation, comparison helpers, and full runs
through boot, replay, assertion polling and teardown."""

import json
import socket
import threading

import pytest

from giots.cse import CseClient, CseService
from giots.httpkit import find_free_port, get_json
from giots.scenario import (
    ScenarioError,
    ScenarioReport,
    AssertionOutcome,
    ScenarioRunner,
    _canonical,
    _parse_timestamp,
    load_scenario,
    run_scenario,
)

from conftest import SCENARIOS_DIR


def _write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _minimal(**overrides):
    doc = {"services": {}, "sensors": [], "assertions": [], "quiescenceMillis": 200}
    doc.update(overrides)
    return doc


# --- loading ----------------------------------------------------------------------


def test_load_packaged_scenario():
    scenario = load_scenario(SCENARIOS_DIR / "room123.json")
    assert [s.name for s in scenario.sensors] == ["tempSensor"]
    sensor = scenario.sensors[0]
    assert sensor.container_path == "/cse/tempApp/room123"
    assert sensor.descriptor is not None and "describesEntity" in sensor.descriptor
    assert sensor.value_sequence == [25]
    assert scenario.smg["mode"] == "push"
    assert len(scenario.assertions) == 3
    assert scenario.ontology_file is not None


def test_load_rejects_missing_and_invalid_files(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(bad)
    array = tmp_path / "array.json"
    array.write_text("[]", encoding="utf-8")
    with pytest.raises(ScenarioError, match="JSON object"):
        load_scenario(array)


@pytest.mark.parametrize(
    ("doc", "fragment"),
    [
        (_minimal(ontologyFile="missing.nt"), "ontology file not found"),
        (_minimal(services={"cse": "yes"}), "component names to ports"),
        (_minimal(services={"cse": 7000, "broker": 7000}), "distinct"),
        (_minimal(sensors=["x"]), "must be a JSON object"),
        (_minimal(sensors=[{"containerPath": "/cse/a/b"}]), "needs a 'name'"),
        (_minimal(sensors=[{"name": "s", "containerPath": "relative"}]), "absolute"),
        (
            _minimal(sensors=[{"name": "s", "containerPath": "/cse/a/b",
                               "descriptorFile": "gone.nt"}]),
            "descriptor file not found",
        ),
        (
            _minimal(sensors=[{"name": "s", "containerPath": "/cse/a/b",
                               "valueSequence": 5}]),
            "must be a list",
        ),
        (
            _minimal(sensors=[{"name": "s", "containerPath": "/cse/a/b",
                               "periodMillis": -1}]),
            "periodMillis",
        ),
        (_minimal(agents=["gone.json"]), "agent config not found"),
        (_minimal(assertions="all good"), "must be a list"),
        (_minimal(quiescenceMillis=-5), "quiescenceMillis"),
        (_minimal(smg="push"), "'smg' must be a JSON object"),
        (_minimal(sensors=5), "'sensors' must be a list"),
        (_minimal(agents=[7]), "'agents' must be a list of file names"),
        (_minimal(agents="a.json"), "'agents' must be a list of file names"),
        (_minimal(assertions=[1]), "must be a list of JSON objects"),
        (_minimal(services={"cse": -1}), "ports from 0 to 65535"),
        (_minimal(services={"cse": 70000}), "ports from 0 to 65535"),
        (_minimal(services={"cse": True}), "ports from 0 to 65535"),
        (_minimal(services={"brokr": 7102}), r"names no component of this scenario: \['brokr'\]"),
        (_minimal(services={"agent-0": 7102}), r"names no component of this scenario: \['agent-0'\]"),
        (
            _minimal(sensors=[{"name": "s", "containerPath": "/cse/a/b",
                               "periodMillis": True}]),
            "'periodMillis' must be an integer",
        ),
        (_minimal(quiescenceMillis=True), "'quiescenceMillis' must be an integer"),
        (
            _minimal(sensors=[{"name": "s", "containerPath": "/cse/a/b",
                               "periodMillis": 10**13}]),
            "'periodMillis' must be an integer from 0 to",
        ),
        (_minimal(quiescenceMillis=10**13), "'quiescenceMillis' must be an integer from 0 to"),
        (
            _minimal(sensors=[{"name": "s", "containerPath": "/cse/a/b",
                               "periodMillis": int(threading.TIMEOUT_MAX * 1000),
                               "valueSequence": [1, 2, 3]}]),
            "over the whole 'valueSequence'",
        ),
    ],
)
def test_load_rejects_malformed_scenarios(tmp_path, doc, fragment):
    path = _write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match=fragment):
        load_scenario(path)


def test_configured_ports_are_honored(tmp_path):
    path = _write_scenario(tmp_path, _minimal(services={"cse": 7654}))
    runner = ScenarioRunner(load_scenario(path))
    assert runner.stack.port("cse") == 7654
    ephemeral = runner.stack.port("broker")
    assert isinstance(ephemeral, int) and ephemeral > 0


# --- comparison helpers --------------------------------------------------------------


def _entity_with_metadata():
    return [
        {
            "id": "room123",
            "type": "t",
            "attributes": [
                {
                    "name": "temperature",
                    "value": 1,
                    "metadata": [
                        {"name": "timestamp", "type": "string", "value": "2026-01-01T00:00:00Z"},
                        {"name": "unit", "type": "string", "value": "kelvin"},
                    ],
                }
            ],
        }
    ]


def test_canonical_removes_and_collects_timestamps():
    cleaned, stamps = _canonical(_entity_with_metadata())
    assert stamps == ["2026-01-01T00:00:00Z"]
    metadata = cleaned[0]["attributes"][0]["metadata"]
    assert [m["name"] for m in metadata] == ["unit"]
    # the input is left as it was
    assert len(_entity_with_metadata()[0]["attributes"][0]["metadata"]) == 2
    # non-list input, and entities, attributes and metadata that are not
    # objects, pass through untouched
    assert _canonical("oops") == ("oops", [])
    assert _canonical([7, {"id": "a", "attributes": ["x", {"name": "n", "metadata": [1]}]}]) == (
        [7, {"id": "a", "attributes": ["x", {"name": "n", "metadata": [1]}]}], []
    )


def test_canonical_is_order_insensitive():
    one = [
        {"id": "b", "attributes": [{"name": "y", "value": 1, "metadata": []},
                                   {"name": "x", "value": 2, "metadata": []}]},
        {"id": "a", "attributes": []},
    ]
    two = [
        {"id": "a", "attributes": []},
        {"id": "b", "attributes": [{"name": "x", "value": 2, "metadata": []},
                                   {"name": "y", "value": 1, "metadata": []}]},
    ]
    assert _canonical(one) == _canonical(two)
    assert _canonical(one) != _canonical([{"id": "c", "attributes": []}])
    # metadata order does not count, nor does a timestamp's value
    stamped = _entity_with_metadata()
    reordered = _entity_with_metadata()
    meta = reordered[0]["attributes"][0]["metadata"]
    meta.reverse()
    meta[1]["value"] = "2030-01-01T00:00:00Z"
    assert _canonical(stamped)[0] == _canonical(reordered)[0]
    # an entity with no attributes list equals one with an empty list
    assert _canonical([{"id": "a"}])[0] == _canonical([{"id": "a", "attributes": []}])[0]


def test_parse_timestamp_handles_zulu_suffix():
    parsed = _parse_timestamp("2026-08-25T10:00:00Z")
    assert parsed is not None and parsed.tzinfo is not None
    assert _parse_timestamp("not a time") is None
    assert _parse_timestamp(12345) is None


def test_report_lines_show_failures_with_both_sides():
    report = ScenarioReport(
        exit_code=1,
        outcomes=[
            AssertionOutcome(0, "queryContextEquals", True),
            AssertionOutcome(
                1, "queryContextEquals", False, detail="entity state differs",
                actual=[], expected=[{"id": "x"}],
            ),
        ],
    )
    lines = report.lines()
    assert lines[0] == "assertion 0: queryContextEquals: PASS"
    assert lines[1].startswith("assertion 1: queryContextEquals: FAIL")
    assert any(line.strip().startswith("expected:") for line in lines)
    assert any(line.strip().startswith("actual:") for line in lines)
    setup = ScenarioReport(exit_code=2, error="boom")
    assert setup.lines() == ["SETUP FAILED: boom"]


# --- full runs ------------------------------------------------------------------------


def test_packaged_scenario_runs_clean(capsys):
    report = run_scenario(SCENARIOS_DIR / "room123.json")
    assert report.exit_code == 0
    assert all(o.passed for o in report.outcomes)
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 3


def test_failing_assertion_exits_one(tmp_path):
    doc = _minimal(
        assertions=[
            {
                "kind": "queryContextEquals",
                "request": {"entities": [{"id": "ghost"}]},
                "expected": {"entities": [{"id": "ghost", "type": "", "attributes": []}]},
            }
        ]
    )
    report = run_scenario(_write_scenario(tmp_path, doc), print_report=False)
    assert report.exit_code == 1
    (outcome,) = report.outcomes
    assert not outcome.passed
    assert outcome.detail == "entity state differs"


def test_unknown_assertion_kind_fails_the_run(tmp_path):
    doc = _minimal(assertions=[{"kind": "vibeCheck"}])
    report = run_scenario(_write_scenario(tmp_path, doc), print_report=False)
    assert report.exit_code == 1
    assert "unknown assertion kind" in report.outcomes[0].detail


def test_a_mistyped_assertion_field_fails_its_assertion_and_names_the_field(tmp_path):
    cases = [
        ({"kind": "queryContextEquals", "request": {"entities": [{"id": "a"}]},
          "toleranceMillis": "soon"}, "'toleranceMillis'"),
        ({"kind": "queryContextEquals", "expected": ["a"]}, "'expected'"),
        ({"kind": "discoverContains", "request": ["/cse"]}, "'request'"),
        ({"kind": "discoverContains", "expected": 5}, "'expected'"),
        ({"kind": "discoverContains", "request": {"root": 5}}, "'request.root'"),
        ({"kind": "discoverContains", "request": {"resourceType": "Gadget"}},
         "'request.resourceType'"),
        ({"kind": "validationPasses", "request": ["sparql"]}, "'request'"),
        ({"kind": "validationPasses", "request": {"kind": "sparql", "file": 7}}, "'request.file'"),
        ({"kind": ["queryContextEquals"]}, "unknown assertion kind"),
    ]
    doc = _minimal(assertions=[assertion for assertion, _ in cases])
    report = run_scenario(_write_scenario(tmp_path, doc), print_report=False)
    assert report.exit_code == 1
    assert [o.passed for o in report.outcomes] == [False] * len(cases)
    for outcome, (_, field) in zip(report.outcomes, cases):
        assert field in outcome.detail


def test_an_expected_entity_with_a_non_list_part_fails_without_a_traceback(tmp_path, capsys):
    from giots.cli import main

    expected = [{"id": "ghost", "attributes": 5},
                {"id": "ghost", "attributes": [{"name": "a", "value": 1, "metadata": 3}]}]
    doc = _minimal(assertions=[{"kind": "queryContextEquals", "request": {"entities": [{"id": "ghost"}]},
                                "expected": {"entities": [entity]}} for entity in expected])
    assert main(["scenario", str(_write_scenario(tmp_path, doc))]) == 1
    out, err = capsys.readouterr()
    assert out.count("FAIL (entity state differs)") == 2
    assert "Traceback" not in out + err


def test_a_validation_file_that_is_not_utf8_fails_its_assertion(tmp_path):
    (tmp_path / "binary.nt").write_bytes(b"\xff\xfe<urn:a>")
    doc = _minimal(assertions=[{"kind": "validationPasses",
                                "request": {"kind": "ontology", "file": "binary.nt"}}])
    report = run_scenario(_write_scenario(tmp_path, doc), print_report=False)
    assert report.exit_code == 1
    assert "utf-8" in report.outcomes[0].detail


def test_unusable_scenario_exits_two(tmp_path):
    report = run_scenario(tmp_path / "absent.json", print_report=False)
    assert report.exit_code == 2 and report.error
    # a sensor outside the resource tree fails during setup, also exit 2
    doc = _minimal(
        sensors=[{"name": "s", "containerPath": "/elsewhere/room", "valueSequence": []}]
    )
    report = run_scenario(_write_scenario(tmp_path, doc), print_report=False)
    assert report.exit_code == 2
    assert "must lie under /cse" in (report.error or "")


def test_container_bootstrap_and_replay(tmp_path):
    doc = _minimal(
        sensors=[
            {
                "name": "s1",
                "containerPath": "/cse/gw/floor1/room1",
                "valueSequence": [1, 2],
            }
        ],
        assertions=[
            {
                "kind": "discoverContains",
                "request": {"root": "/cse", "resourceType": "AE"},
                "expected": ["/cse/gw"],
            },
            {
                "kind": "discoverContains",
                "request": {"root": "/cse", "resourceType": "Container"},
                "expected": ["/cse/gw/floor1", "/cse/gw/floor1/room1"],
            },
            {
                "kind": "discoverContains",
                "request": {"root": "/cse/gw/floor1/room1", "resourceType": "ContentInstance"},
                "expected": [
                    "/cse/gw/floor1/room1/s1-0000",
                    "/cse/gw/floor1/room1/s1-0001",
                ],
            },
        ],
        quiescenceMillis=500,
    )
    report = run_scenario(_write_scenario(tmp_path, doc), print_report=False)
    assert report.exit_code == 0, [o.detail for o in report.outcomes]


def test_validation_assertion_boots_validator(tmp_path):
    (tmp_path / "query.rq").write_text("ASK { ?s ?p ?o }", encoding="utf-8")
    (tmp_path / "broken.rq").write_text("ASK { ?s ?p", encoding="utf-8")
    doc = _minimal(
        assertions=[
            {
                "kind": "validationPasses",
                "request": {"kind": "sparql", "file": "query.rq"},
                "expected": True,
            },
            {
                "kind": "validationPasses",
                "request": {"kind": "sparql", "file": "broken.rq"},
                "expected": False,
            },
        ]
    )
    report = run_scenario(_write_scenario(tmp_path, doc), print_report=False)
    assert report.exit_code == 0, [o.detail for o in report.outcomes]


def test_a_boot_that_fails_part_way_stops_what_it_started(tmp_path):
    """The packaged scenario on fixed ports, with an agent config that does
    not load: the knowledge server, CSE, broker, validator and gateway are
    up when the agent fails, and each is stopped again."""
    doc = json.loads((SCENARIOS_DIR / "room123.json").read_text(encoding="utf-8"))
    for name in ("meeting-room.nt", "room123-descriptor.nt"):
        (tmp_path / name).write_text((SCENARIOS_DIR / name).read_text(encoding="utf-8"))
    (tmp_path / "agent.json").write_text("{}", encoding="utf-8")
    ports = {key: find_free_port() for key in ("knowledge", "cse", "broker", "validator", "smg")}
    doc.update(services=ports, agents=["agent.json"])
    before = set(threading.enumerate())
    report = run_scenario(_write_scenario(tmp_path, doc), print_report=False)
    assert report.exit_code == 2
    assert "invalid agent config agent.json" in report.error
    assert [t for t in threading.enumerate() if t not in before] == []
    for port in ports.values():
        socket.create_server(("127.0.0.1", port)).close()


def _described(name, path):
    return {"name": name, "containerPath": path, "descriptorFile": "room123-descriptor.nt",
            "valueSequence": []}


def _copy_packaged_files(tmp_path):
    for name in ("meeting-room.nt", "room123-descriptor.nt"):
        (tmp_path / name).write_text((SCENARIOS_DIR / name).read_text(encoding="utf-8"))


def test_setup_creates_what_the_sensors_name_with_posts_only(tmp_path, monkeypatch):
    """The CSE is booted empty, so setup creates each path segment and each
    descriptor once, and asks the CSE nothing."""
    _copy_packaged_files(tmp_path)
    doc = _minimal(sensors=[
        _described("s1", "/cse/app/room1"),
        _described("s2", "/cse/app/room1"),  # already described: no second descriptor
        {"name": "s3", "containerPath": "/cse/app/floor/room2"},
        {"name": "s4", "containerPath": "/cse/solo"},
    ])
    seen = []
    handle = CseService.handle

    def recording(self, request):
        seen.append(request.method)
        return handle(self, request)

    monkeypatch.setattr(CseService, "handle", recording)
    runner = ScenarioRunner(load_scenario(_write_scenario(tmp_path, doc)))
    try:
        runner.setup()
        assert seen and set(seen) == {"POST"}
        cse = CseClient(runner.stack.handles["cse"].url)
        assert cse.discover("/cse", resource_type="AE") == ["/cse/app"]
        assert sorted(cse.discover("/cse", resource_type="Container")) == [
            "/cse/app/floor", "/cse/app/floor/room2", "/cse/app/room1", "/cse/solo"]
        assert cse.discover("/cse", resource_type="SemanticDescriptor") == [
            "/cse/app/room1/descriptor"]
    finally:
        runner.teardown()


def test_the_gateway_has_adopted_every_described_container_when_setup_returns(tmp_path):
    _copy_packaged_files(tmp_path)
    doc = json.loads((SCENARIOS_DIR / "room123.json").read_text(encoding="utf-8"))
    doc["sensors"] = [_described("a", "/cse/tempApp/room123"), _described("b", "/cse/other/room9"),
                      {"name": "c", "containerPath": "/cse/tempApp/plain"}]
    runner = ScenarioRunner(load_scenario(_write_scenario(tmp_path, doc)))
    try:
        runner.setup()
        status, payload = get_json(runner.stack.handles["smg"].url + "/instances")
        assert status == 200
        adopted = {i["sourceContainerPath"] for i in payload["instances"]}
        assert adopted == {"/cse/tempApp/room123", "/cse/other/room9"}
    finally:
        runner.teardown()


def test_a_name_clash_in_the_container_paths_exits_two(tmp_path):
    _copy_packaged_files(tmp_path)
    for sensors in (
        [{"name": "a", "containerPath": "/cse/app/room/descriptor"}, _described("b", "/cse/app/room")],
        [_described("b", "/cse/app/room"), {"name": "a", "containerPath": "/cse/app/room/descriptor"}],
    ):
        report = run_scenario(_write_scenario(tmp_path, _minimal(sensors=sensors)), print_report=False)
        assert report.exit_code == 2
        assert "failed (409)" in report.error


def test_a_duration_past_the_platform_wait_exits_two(tmp_path):
    for doc in (
        _minimal(sensors=[{"name": "s", "containerPath": "/cse/a/b", "periodMillis": 10**13,
                           "valueSequence": [1, 2]}]),
        _minimal(quiescenceMillis=10**13),
    ):
        report = run_scenario(_write_scenario(tmp_path, doc), print_report=False)
        assert report.exit_code == 2 and "must be an integer from 0 to" in report.error
