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
from .httpkit import Stack, TransportError, call
from .jsonfields import (
    BOOL, LIST, MILLIS, NUMBER, OBJECT, PORT, STRING, TEXT, Kind, document, read, valid_millis,
)
from .knowledge import KnowledgeClient, KnowledgeService
from .smg import GatewayConfig, MediationGateway, SmgService
from .validator import VALIDATION_KINDS, ValidatorService

log = logging.getLogger(__name__)

DEFAULT_QUIESCENCE_MILLIS = 2000
ASSERTION_POLL_SECONDS = 0.1


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


_SERVICES = OBJECT.of(PORT, "an object of component names to ports from 0 to 65535")
_FILE_NAMES = LIST.of(TEXT, "a list of file names")
_OBJECTS = LIST.of(OBJECT, "a list of JSON objects")


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    try:
        return _scenario(document(raw, "scenario"), path.parent)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _scenario(raw: dict, base_dir: Path) -> Scenario:
    ontology_file = None
    if (name := read(raw, "ontologyFile", TEXT, default=None)) is not None:
        ontology_file = base_dir / name
        if not ontology_file.is_file():
            raise ValueError(f"ontology file not found: {ontology_file}")

    services = read(raw, "services", _SERVICES, default={})
    ports = [p for p in services.values() if p]
    if len(ports) != len(set(ports)):
        raise ValueError("service ports must be distinct")

    sensors = []
    for index, raw_sensor in enumerate(read(raw, "sensors", LIST, default=[])):
        name = read(document(raw_sensor, f"sensor #{index}"), "name", TEXT, f"sensor #{index}")
        where = f"sensor '{name}'"
        container = read(raw_sensor, "containerPath", TEXT, where)
        if not container.startswith("/"):
            raise ValueError(f"{where} needs an absolute 'containerPath'")
        descriptor = read(raw_sensor, "descriptor", STRING, where, None)
        file_name = read(raw_sensor, "descriptorFile", TEXT, where, None)
        if descriptor is None and file_name is not None:
            descriptor_path = base_dir / file_name
            if not descriptor_path.is_file():
                raise ValueError(f"descriptor file not found: {descriptor_path}")
            descriptor = descriptor_path.read_text(encoding="utf-8")
        values = read(raw_sensor, "valueSequence", LIST, where, [])
        period = read(raw_sensor, "periodMillis", MILLIS, where, 0)
        # the replay waits up to len(values) - 1 periods for the last value
        if not valid_millis(period * max(len(values) - 1, 0)):
            raise ValueError(f"{where}: 'periodMillis' must be {MILLIS.what} over the whole 'valueSequence'")
        sensors.append(Sensor(name, container, descriptor, values, period))

    agent_paths = [base_dir / entry for entry in read(raw, "agents", _FILE_NAMES, default=[])]
    for agent_path in agent_paths:
        if not agent_path.is_file():
            raise ValueError(f"agent config not found: {agent_path}")
    components = {"knowledge", "cse", "broker", "validator", "smg"}
    unknown = sorted(set(services) - components - {f"agent-{i}" for i in range(len(agent_paths))})
    if unknown:
        raise ValueError(f"'services' names no component of this scenario: {unknown}")

    return Scenario(
        base_dir=base_dir,
        ontology_file=ontology_file,
        services=services,
        sensors=sensors,
        smg=read(raw, "smg", OBJECT, default=None),
        agent_paths=agent_paths,
        assertions=read(raw, "assertions", _OBJECTS, default=[]),
        quiescence_millis=read(raw, "quiescenceMillis", MILLIS, default=DEFAULT_QUIESCENCE_MILLIS),
    )


# The kind of each assertion field (a dotted path) where it is given and not
# null, per assertion kind; an object comes before the fields inside it.
_FIELD_TYPES: dict[str, dict[str, Kind]] = {
    "queryContextEquals": {"request": OBJECT, "expected": OBJECT, "toleranceMillis": NUMBER},
    "discoverContains": {"request": OBJECT, "expected": LIST, "request.root": STRING,
                         "request.resourceType": STRING, "request.labels": LIST,
                         "request.semanticFilter": STRING},
    "validationPasses": {"request": OBJECT, "request.kind": STRING, "request.file": STRING},
}


@dataclass
class AssertionOutcome:
    index: int
    kind: str
    passed: bool
    detail: str = ""
    actual: Any = None
    expected: Any = None


_Failure = tuple[str, Any, Any]  # an assertion's detail, actual and expected


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


def _canonical(entities: Any) -> tuple[Any, list]:
    """Entities without their 'timestamp' metadata, with entities,
    attributes and metadata each ordered by canonical JSON; and the
    removed timestamp values. A part that is not a list or an object
    passes through as it is."""
    stamps: list = []
    if not isinstance(entities, list):
        return entities, stamps
    out = []
    for entity in entities:
        if isinstance(entity, dict) and isinstance(raw_attrs := entity.get("attributes", []), list):
            attrs = []
            for attr in raw_attrs:
                if isinstance(attr, dict) and isinstance(raw_meta := attr.get("metadata", []), list):
                    kept = []
                    for meta in raw_meta:
                        if isinstance(meta, dict) and meta.get("name") == "timestamp":
                            stamps.append(meta.get("value"))
                        else:
                            kept.append(meta)
                    attr = {**attr, "metadata": sorted(kept, key=_json_key)}
                attrs.append(attr)
            entity = {**entity, "attributes": sorted(attrs, key=_json_key)}
        out.append(entity)
    return sorted(out, key=_json_key), stamps


def _json_key(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


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
        created: set[str] = set()  # the CSE was booted empty, so it holds only these
        described: set[str] = set()
        for sensor in self.scenario.sensors:
            self._ensure_container(cse, sensor, created, described)
        if self.scenario.smg is not None:
            port = stack.port("smg")
            raw = {"cseUrl": cse_url, "brokerUrl": broker_url, "knowledgeUrl": knowledge_url,
                   "gatewayUrl": f"http://127.0.0.1:{port}", **self.scenario.smg}
            try:
                config = GatewayConfig.from_json(raw)
            except ValueError as exc:
                raise ScenarioError(f"invalid smg config: {exc}") from exc
            # start() runs the first scan, so every described container
            # the gateway can adopt is adopted before serve returns; one it
            # cannot adopt is logged with its reason and left to the rescan loop
            stack.serve("smg", SmgService(MediationGateway(config)), port)
        for index, path in enumerate(self.scenario.agent_paths):
            try:
                config = load_agent_config(str(path))
            except (OSError, ValueError, json.JSONDecodeError) as exc:
                raise ScenarioError(f"invalid agent config {path.name}: {exc}") from exc
            config.broker_url = broker_url  # the harness owns service placement
            key = f"agent-{index}"
            port = stack.port(key)
            stack.serve(key, AgentService(Agent(config, f"http://127.0.0.1:{port}")), port)

    @staticmethod
    def _ensure_container(cse: CseClient, sensor: Sensor, created: set[str], described: set[str]) -> None:
        """Creates the sensor's container path, and its descriptor, where
        setup has not created them yet; a clash with another resource's
        name is the CSE's refusal (a ValueError)."""
        segments = [s for s in sensor.container_path.strip("/").split("/") if s]
        if len(segments) < 2 or segments[0] != "cse":
            raise ScenarioError(
                f"sensor '{sensor.name}': containerPath must lie under /cse"
            )
        path = "/cse"
        for depth, segment in enumerate(segments[1:], start=1):
            child = f"{path}/{segment}"
            if child not in created:
                is_last = depth == len(segments) - 1
                ty = "Container" if (is_last or depth > 1) else "AE"
                cse.create(path, ty, {"rn": segment})
                created.add(child)
            path = child
        if sensor.descriptor is not None and path not in described:
            cse.create(path, "SemanticDescriptor", {"rn": "descriptor", "dsp": sensor.descriptor})
            described.add(path)

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
        fields = _FIELD_TYPES.get(str(kind))  # only a string can be a key's str
        if fields is None:
            failure = (f"unknown assertion kind {kind!r}", None, None)
        else:
            check = {"queryContextEquals": self._assert_query,
                     "discoverContains": self._assert_discover,
                     "validationPasses": self._assert_validation}[kind]
            try:
                for path, field_kind in fields.items():
                    read(assertion, path, field_kind, "assertion", None)
                failure = check(assertion)
            except (OSError, ValueError) as exc:  # TransportError, FieldError and a refused call
                failure = (str(exc), None, None)
        if failure is None:
            return AssertionOutcome(index, str(kind), True)
        detail, actual, expected = failure
        return AssertionOutcome(index, str(kind), False, detail, actual, expected)

    # Each check returns None when its assertion holds, else what failed:
    # (detail, actual, expected).

    def _assert_query(self, assertion: dict) -> _Failure | None:
        request = assertion.get("request") or {}
        expected = (assertion.get("expected") or {}).get("entities", [])
        tolerance = assertion.get("toleranceMillis")
        url = self.stack.handles["broker"].url + "/ngsi10/queryContext"
        reply = document(call("POST", url, request), "queryContext reply")
        actual, stamps = _canonical(read(reply, "entities", LIST, "queryContext reply"))
        expected, _ = _canonical(expected)
        if actual != expected:
            return "entity state differs", actual, expected
        if tolerance is not None:
            low = self.started_at.timestamp() - tolerance / 1000.0
            high = datetime.now(timezone.utc).timestamp() + tolerance / 1000.0
            for stamp in stamps:
                parsed = _parse_timestamp(stamp)
                if parsed is None or not (low <= parsed.timestamp() <= high):
                    return (f"timestamp {stamp!r} outside the run window", stamp,
                            f"within +/-{tolerance}ms of the run")
        return None

    def _assert_discover(self, assertion: dict) -> _Failure | None:
        request = assertion.get("request") or {}
        expected = assertion.get("expected") or []
        root = request.get("root") or "/cse"
        if request.get("resourceType") not in (None, *TYPE_CODES):
            return "'request.resourceType' names no resource type", None, None
        found = CseClient(self.stack.handles["cse"].url).discover(
            root,
            resource_type=request.get("resourceType"),
            labels=request.get("labels"),
            semantic_filter=request.get("semanticFilter"),
        )
        missing = [p for p in expected if p not in found]
        if missing:
            return f"missing {missing}", found, expected
        return None

    def _assert_validation(self, assertion: dict) -> _Failure | None:
        request = assertion.get("request") or {}
        expected = assertion.get("expected", True)
        kind = request.get("kind")
        file_name = request.get("file")
        if kind not in VALIDATION_KINDS or not file_name:
            return "request needs 'kind' and 'file'", None, None
        payload_path = self.scenario.base_dir / file_name
        body = payload_path.read_text(encoding="utf-8")
        url = self.stack.handles["validator"].url + f"/validate/{kind}"
        payload = document(call("POST", url, body), "validator reply")
        if read(payload, "passed", BOOL, "validator reply") is not bool(expected):
            return "verdict differs", payload, {"passed": bool(expected)}
        return None

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
