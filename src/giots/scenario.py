"""Scenario runner: boots the services on one ``Stack`` (knowledge server,
CSE, broker, validator, gateway, agents), replays sensor values as content
instances and evaluates machine-checkable assertions against the wire APIs.

Everything communicates over HTTP even though the services share one
process; in-process shortcuts would bypass the behavior under test.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from .agent import Agent, AgentService, load_agent_config
from .broker import BrokerService
from .cse import TYPE_CODES, CseClient, CseService
from .httpkit import Stack, TransportError, get_json, post_json, valid_port
from .knowledge import KnowledgeClient, KnowledgeService
from .smg import GatewayConfig, MediationGateway, SmgService
from .validator import VALIDATION_KINDS, ValidatorService

log = logging.getLogger(__name__)

DEFAULT_QUIESCENCE_MILLIS = 2000
ASSERTION_POLL_SECONDS = 0.1
SMG_READY_TIMEOUT = 10.0


class ScenarioError(Exception):
    """The scenario file is unusable or the environment failed to boot."""


@dataclass
class Sensor:
    name: str
    container_path: str
    descriptor: str | None
    value_sequence: list
    period_millis: int


@dataclass
class Scenario:
    base_dir: Path
    ontology_file: Path | None
    services: dict[str, int]
    sensors: list[Sensor]
    smg: dict | None
    agent_paths: list[Path]
    assertions: list[dict]
    quiescence_millis: int


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    base_dir = path.parent

    ontology_file = None
    if raw.get("ontologyFile") is not None:
        ontology_file = base_dir / raw["ontologyFile"]
        if not ontology_file.is_file():
            raise ScenarioError(f"ontology file not found: {ontology_file}")

    services = raw.get("services", {})
    if not isinstance(services, dict) or not all(map(valid_port, services.values())):
        raise ScenarioError("'services' must map component names to ports from 0 to 65535")
    ports = [p for p in services.values() if p]
    if len(ports) != len(set(ports)):
        raise ScenarioError("service ports must be distinct")

    raw_sensors = raw.get("sensors", [])
    if not isinstance(raw_sensors, list):
        raise ScenarioError("'sensors' must be a list")
    sensors = []
    for index, raw_sensor in enumerate(raw_sensors):
        if not isinstance(raw_sensor, dict):
            raise ScenarioError(f"sensor #{index} must be a JSON object")
        name = raw_sensor.get("name")
        container = raw_sensor.get("containerPath")
        if not isinstance(name, str) or not name:
            raise ScenarioError(f"sensor #{index} needs a 'name'")
        if not isinstance(container, str) or not container.startswith("/"):
            raise ScenarioError(f"sensor '{name}' needs an absolute 'containerPath'")
        descriptor = raw_sensor.get("descriptor")
        if descriptor is None and raw_sensor.get("descriptorFile") is not None:
            descriptor_path = base_dir / raw_sensor["descriptorFile"]
            if not descriptor_path.is_file():
                raise ScenarioError(f"descriptor file not found: {descriptor_path}")
            descriptor = descriptor_path.read_text(encoding="utf-8")
        values = raw_sensor.get("valueSequence", [])
        if not isinstance(values, list):
            raise ScenarioError(f"sensor '{name}': 'valueSequence' must be a list")
        period = raw_sensor.get("periodMillis", 0)
        if not _is_count(period):
            raise ScenarioError(f"sensor '{name}': 'periodMillis' must be an integer >= 0")
        sensors.append(Sensor(name, container, descriptor, values, period))

    agents = raw.get("agents", [])
    if not isinstance(agents, list) or not all(isinstance(entry, str) for entry in agents):
        raise ScenarioError("'agents' must be a list of file names")
    agent_paths = []
    for entry in agents:
        agent_path = base_dir / entry
        if not agent_path.is_file():
            raise ScenarioError(f"agent config not found: {agent_path}")
        agent_paths.append(agent_path)
    components = {"knowledge", "cse", "broker", "validator", "smg"}
    unknown = sorted(set(services) - components - {f"agent-{i}" for i in range(len(agent_paths))})
    if unknown:
        raise ScenarioError(f"'services' names no component of this scenario: {unknown}")

    assertions = raw.get("assertions", [])
    if not isinstance(assertions, list) or not all(isinstance(a, dict) for a in assertions):
        raise ScenarioError("'assertions' must be a list of JSON objects")

    quiescence = raw.get("quiescenceMillis", DEFAULT_QUIESCENCE_MILLIS)
    if not _is_count(quiescence):
        raise ScenarioError("'quiescenceMillis' must be an integer >= 0")

    smg = raw.get("smg")
    if smg is not None and not isinstance(smg, dict):
        raise ScenarioError("'smg' must be a JSON object")

    return Scenario(
        base_dir=base_dir,
        ontology_file=ontology_file,
        services=services,
        sensors=sensors,
        smg=smg,
        agent_paths=agent_paths,
        assertions=assertions,
        quiescence_millis=quiescence,
    )


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


# The JSON type each assertion field (a dotted path) must have where it is
# given and not null, per kind; an object comes before the fields inside it.
_FIELD_TYPES: dict[str, dict[str, type | tuple[type, ...]]] = {
    "queryContextEquals": {"request": dict, "expected": dict, "toleranceMillis": (int, float)},
    "discoverContains": {"request": dict, "expected": list, "request.root": str,
                         "request.resourceType": str, "request.labels": list,
                         "request.semanticFilter": str},
    "validationPasses": {"request": dict, "request.kind": str, "request.file": str},
}


def _mistyped_field(assertion: dict, fields: dict[str, type | tuple[type, ...]]) -> str | None:
    for path, types in fields.items():
        value: Any = assertion
        for name in path.split("."):
            value = value.get(name)
            if value is None:
                break
        if value is not None and (isinstance(value, bool) or not isinstance(value, types)):
            return path
    return None


@dataclass
class AssertionOutcome:
    index: int
    kind: str
    passed: bool
    detail: str = ""
    actual: Any = None
    expected: Any = None


@dataclass
class ScenarioReport:
    exit_code: int
    outcomes: list[AssertionOutcome] = field(default_factory=list)
    error: str | None = None

    def lines(self) -> list[str]:
        out = []
        if self.error:
            out.append(f"SETUP FAILED: {self.error}")
        for outcome in self.outcomes:
            status = "PASS" if outcome.passed else "FAIL"
            line = f"assertion {outcome.index}: {outcome.kind}: {status}"
            if not outcome.passed and outcome.detail:
                line += f" ({outcome.detail})"
            out.append(line)
            if not outcome.passed and outcome.expected is not None:
                out.append(f"  expected: {json.dumps(outcome.expected, sort_keys=True)}")
                out.append(f"  actual:   {json.dumps(outcome.actual, sort_keys=True)}")
        return out


def _strip_timestamps(entities: Any) -> tuple[Any, list[str]]:
    """Remove 'timestamp' metadata for comparison; collect removed values."""
    stamps: list[str] = []
    if not isinstance(entities, list):
        return entities, stamps
    cleaned = []
    for entity in entities:
        if not isinstance(entity, dict):
            cleaned.append(entity)
            continue
        entity = dict(entity)
        attrs = []
        for attr in entity.get("attributes", []):
            if isinstance(attr, dict):
                attr = dict(attr)
                kept = []
                for meta in attr.get("metadata", []):
                    if isinstance(meta, dict) and meta.get("name") == "timestamp":
                        stamps.append(meta.get("value"))
                    else:
                        kept.append(meta)
                attr["metadata"] = kept
            attrs.append(attr)
        entity["attributes"] = attrs
        cleaned.append(entity)
    return cleaned, stamps


def _normalize_entities(entities: Any) -> Any:
    if not isinstance(entities, list):
        return entities
    out = []
    for entity in entities:
        if not isinstance(entity, dict):
            out.append(entity)
            continue
        entity = dict(entity)
        attrs = []
        for attr in entity.get("attributes", []):
            if isinstance(attr, dict):
                attr = dict(attr)
                attr["metadata"] = sorted(
                    attr.get("metadata", []), key=lambda m: json.dumps(m, sort_keys=True)
                )
            attrs.append(attr)
        entity["attributes"] = sorted(attrs, key=lambda a: json.dumps(a, sort_keys=True))
        out.append(entity)
    return sorted(out, key=lambda e: json.dumps(e, sort_keys=True))


def _parse_timestamp(value: Any) -> datetime | None:
    if not isinstance(value, str):
        return None
    try:
        return datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError:
        return None


class ScenarioRunner:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.stack = Stack(scenario.services)
        self.started_at = datetime.now(timezone.utc)

    def setup(self) -> None:
        stack = self.stack
        knowledge_url = stack.serve("knowledge", KnowledgeService()).url
        if self.scenario.ontology_file is not None:
            KnowledgeClient(knowledge_url).upload(
                self.scenario.ontology_file.read_text(encoding="utf-8")
            )
        cse_url = stack.serve("cse", CseService()).url
        broker_url = stack.serve("broker", BrokerService(knowledge_url=knowledge_url)).url
        stack.serve("validator", ValidatorService())
        cse = CseClient(cse_url)
        for sensor in self.scenario.sensors:
            self._ensure_container(cse, sensor)
        if self.scenario.smg is not None:
            port = stack.port("smg")
            raw = {"cseUrl": cse_url, "brokerUrl": broker_url, "knowledgeUrl": knowledge_url,
                   "gatewayUrl": f"http://127.0.0.1:{port}", **self.scenario.smg}
            try:
                config = GatewayConfig.from_json(raw)
            except ValueError as exc:
                raise ScenarioError(f"invalid smg config: {exc}") from exc
            smg = stack.serve("smg", SmgService(MediationGateway(config)), port)
            self._await_instances(smg.url)
        for index, path in enumerate(self.scenario.agent_paths):
            try:
                config = load_agent_config(str(path))
            except (OSError, ValueError, json.JSONDecodeError) as exc:
                raise ScenarioError(f"invalid agent config {path.name}: {exc}") from exc
            config.broker_url = broker_url  # the harness owns service placement
            key = f"agent-{index}"
            port = stack.port(key)
            stack.serve(key, AgentService(Agent(config, f"http://127.0.0.1:{port}")), port)

    def _ensure_container(self, cse: CseClient, sensor: Sensor) -> None:
        segments = [s for s in sensor.container_path.strip("/").split("/") if s]
        if len(segments) < 2 or segments[0] != "cse":
            raise ScenarioError(
                f"sensor '{sensor.name}': containerPath must lie under /cse"
            )
        path = "/cse"
        for depth, segment in enumerate(segments[1:], start=1):
            child = f"{path}/{segment}"
            status, _ = get_json(cse.base_url + child)
            if status != 200:
                is_last = depth == len(segments) - 1
                ty = "Container" if (is_last or depth > 1) else "AE"
                cse.create(path, ty, {"rn": segment})
            path = child
        if sensor.descriptor is not None:
            listing = cse.discover(path, resource_type="SemanticDescriptor")
            direct = [p for p in listing if p.rpartition("/")[0] == path]
            if not direct:
                cse.create(
                    path, "SemanticDescriptor",
                    {"rn": "descriptor", "dsp": sensor.descriptor},
                )

    def _await_instances(self, smg_url: str) -> None:
        """Hold the replay until every annotated sensor container has a
        transformation instance, so no content instance goes unnoticed."""
        wanted = {
            s.container_path for s in self.scenario.sensors if s.descriptor is not None
        }
        if not wanted:
            return
        deadline = time.monotonic() + SMG_READY_TIMEOUT
        while time.monotonic() < deadline:
            status, payload = get_json(smg_url + "/instances")
            if status == 200 and isinstance(payload, dict):
                covered = {
                    i.get("sourceContainerPath") for i in payload.get("instances", [])
                }
                if wanted <= covered:
                    return
            time.sleep(0.1)
        log.warning(
            "some annotated containers never produced a transformation instance: %s",
            sorted(wanted),
        )

    # -- replay --------------------------------------------------------------

    def replay(self) -> None:
        """Creates every sensor's values in one time-ordered pass: value k
        of a sensor is due k of its periods after the replay starts."""
        cse = CseClient(self.stack.handles["cse"].url)
        sensors = self.scenario.sensors
        timeline = sorted(
            (index * sensor.period_millis / 1000.0, order, index)
            for order, sensor in enumerate(sensors)
            for index in range(len(sensor.value_sequence))
        )
        started = time.monotonic()
        for due, order, index in timeline:
            time.sleep(max(0.0, started + due - time.monotonic()))
            sensor = sensors[order]
            try:
                cse.create(
                    sensor.container_path, "ContentInstance",
                    {"rn": f"{sensor.name}-{index:04d}",
                     "con": {"value": sensor.value_sequence[index]}},
                )
            except (TransportError, ValueError) as exc:
                log.error("sensor '%s' item %d failed: %s", sensor.name, index, exc)

    # -- assertions -------------------------------------------------------------

    def evaluate_assertions(self) -> list[AssertionOutcome]:
        deadline = time.monotonic() + self.scenario.quiescence_millis / 1000.0
        while True:
            outcomes = [
                self._evaluate(i, a) for i, a in enumerate(self.scenario.assertions)
            ]
            if all(o.passed for o in outcomes) or time.monotonic() >= deadline:
                return outcomes
            time.sleep(ASSERTION_POLL_SECONDS)

    def _evaluate(self, index: int, assertion: dict) -> AssertionOutcome:
        kind = assertion.get("kind")
        fields = _FIELD_TYPES.get(kind) if isinstance(kind, str) else None
        if fields is None:
            return AssertionOutcome(
                index, str(kind), False, detail=f"unknown assertion kind {kind!r}"
            )
        field = _mistyped_field(assertion, fields)
        if field is not None:
            return AssertionOutcome(index, kind, False, detail=f"'{field}' has the wrong JSON type")
        try:
            if kind == "queryContextEquals":
                return self._assert_query(index, assertion)
            if kind == "discoverContains":
                return self._assert_discover(index, assertion)
            return self._assert_validation(index, assertion)
        except (TransportError, OSError, UnicodeDecodeError) as exc:
            return AssertionOutcome(index, kind, False, detail=str(exc))

    def _assert_query(self, index: int, assertion: dict) -> AssertionOutcome:
        request = assertion.get("request") or {}
        expected = (assertion.get("expected") or {}).get("entities", [])
        tolerance = assertion.get("toleranceMillis")
        status, payload = post_json(self.stack.handles["broker"].url + "/ngsi10/queryContext", request)
        if status != 200 or not isinstance(payload, dict):
            return AssertionOutcome(
                index, "queryContextEquals", False,
                detail=f"queryContext returned {status}", actual=payload,
                expected=expected,
            )
        actual_clean, stamps = _strip_timestamps(payload.get("entities", []))
        expected_clean, _ = _strip_timestamps(expected)
        if _normalize_entities(actual_clean) != _normalize_entities(expected_clean):
            return AssertionOutcome(
                index, "queryContextEquals", False, detail="entity state differs",
                actual=actual_clean, expected=expected_clean,
            )
        if tolerance is not None:
            low = self.started_at.timestamp() - tolerance / 1000.0
            high = datetime.now(timezone.utc).timestamp() + tolerance / 1000.0
            for stamp in stamps:
                parsed = _parse_timestamp(stamp)
                if parsed is None or not (low <= parsed.timestamp() <= high):
                    return AssertionOutcome(
                        index, "queryContextEquals", False,
                        detail=f"timestamp {stamp!r} outside the run window",
                        actual=stamp, expected=f"within +/-{tolerance}ms of the run",
                    )
        return AssertionOutcome(index, "queryContextEquals", True)

    def _assert_discover(self, index: int, assertion: dict) -> AssertionOutcome:
        request = assertion.get("request") or {}
        expected = assertion.get("expected") or []
        root = request.get("root") or "/cse"
        if request.get("resourceType") not in (None, *TYPE_CODES):
            return AssertionOutcome(
                index, "discoverContains", False,
                detail="'request.resourceType' names no resource type",
            )
        cse = CseClient(self.stack.handles["cse"].url)
        try:
            found = cse.discover(
                root,
                resource_type=request.get("resourceType"),
                labels=request.get("labels"),
                semantic_filter=request.get("semanticFilter"),
            )
        except ValueError as exc:
            return AssertionOutcome(index, "discoverContains", False, detail=str(exc))
        missing = [p for p in expected if p not in found]
        if missing:
            return AssertionOutcome(
                index, "discoverContains", False,
                detail=f"missing {missing}", actual=found, expected=expected,
            )
        return AssertionOutcome(index, "discoverContains", True)

    def _assert_validation(self, index: int, assertion: dict) -> AssertionOutcome:
        request = assertion.get("request") or {}
        expected = assertion.get("expected", True)
        kind = request.get("kind")
        file_name = request.get("file")
        if kind not in VALIDATION_KINDS or not file_name:
            return AssertionOutcome(
                index, "validationPasses", False,
                detail="request needs 'kind' and 'file'",
            )
        payload_path = self.scenario.base_dir / file_name
        body = payload_path.read_text(encoding="utf-8")
        status, payload = post_json(self.stack.handles["validator"].url + f"/validate/{kind}", body)
        if status != 200 or not isinstance(payload, dict):
            return AssertionOutcome(
                index, "validationPasses", False,
                detail=f"validator returned {status}", actual=payload,
            )
        if payload.get("passed") is not bool(expected):
            return AssertionOutcome(
                index, "validationPasses", False, detail="verdict differs",
                actual=payload, expected={"passed": bool(expected)},
            )
        return AssertionOutcome(index, "validationPasses", True)

    # -- lifecycle ----------------------------------------------------------------

    def teardown(self) -> None:
        self.stack.stop()


def run_scenario(path: str | Path, print_report: bool = True) -> ScenarioReport:
    report = _run(path)
    if print_report:
        print("\n".join(report.lines()))
    return report


def _run(path: str | Path) -> ScenarioReport:
    try:
        runner = ScenarioRunner(load_scenario(path))
    except ScenarioError as exc:
        return ScenarioReport(exit_code=2, error=str(exc))
    try:
        try:
            runner.setup()
            runner.replay()
        except (ScenarioError, TransportError, ValueError, OSError) as exc:
            return ScenarioReport(exit_code=2, error=str(exc))
        outcomes = runner.evaluate_assertions()
    finally:
        runner.teardown()
    return ScenarioReport(exit_code=0 if all(o.passed for o in outcomes) else 1, outcomes=outcomes)
