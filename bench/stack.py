"""Stack launcher: boots the whole giots stack in this one process, the way
``giots scenario`` and the acceptance fleet do, from inputs the load
generator sends.

Protocol, one JSON line each way:

1. stdin gets the stack spec (see ``workload.Inputs.stack_spec``) plus
   ``trace`` and ``traceFile``.
2. The launcher validates every input, boots the services, creates the
   fleets and seeds the broker, adopts the fleets, starts the agent and
   prints ``{"ready": true, "urls": {...}}`` (or ``{"error": ...}``).
3. stdin gets ``{"readings": n, "ops": n}`` when the run is over; the
   launcher prints its report (drop counts, sizes and, when tracing, the
   per-layer figures), stops every service and exits.

Dropped CSE notifications, gateway updates and agent feedback, and
aborted rule passes, are only logged by the program; a logging handler
counts them here.
"""

from __future__ import annotations

import inspect
import json
import logging
import sys
import threading
import time
from pathlib import Path

# The modules below are looked up through their module objects at call
# time, so the tracing wrappers installed after import take effect.
import giots.agent as agent_mod
import giots.broker as broker_mod
import giots.cse as cse_mod
import giots.httpkit as httpkit
import giots.knowledge as knowledge_mod
import giots.ontology as ontology_mod
import giots.rdf as rdf_mod
import giots.smg as smg_mod
import giots.validator as validator

DROP_RECORDS = {
    "cse.notifications_dropped": ("giots.cse", "notification for subscription"),
    "smg.updates_dropped": ("giots.smg", "update for entity"),
    "agent.feedback_dropped": ("giots.agent", "derived fact"),
    "agent.passes_aborted": ("giots.agent", "rule pass aborted"),
    # gateway losses with no per-layer metric of their own; they still count as failed
    "smg.items_dropped": ("giots.smg", "%s: item dropped"),
    "smg.unknown_subscription_dropped": ("giots.smg", "notification for unknown subscription"),
}
SEED_BATCH = 100


class DropCounter(logging.Handler):
    """Counts the log records that are the program's only trace of a loss."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        modules = {"giots.cse": cse_mod, "giots.smg": smg_mod, "giots.agent": agent_mod}
        for logger, prefix in DROP_RECORDS.values():
            # a reworded message would leave its count at 0 for good
            if f'"{prefix}' not in inspect.getsource(modules[logger]):
                raise SetupError(f"{logger} no longer logs {prefix!r}; bench/stack.py must follow it")
        self._lock = threading.Lock()
        self.counts = {name: 0 for name in DROP_RECORDS}

    def emit(self, record: logging.LogRecord) -> None:
        for name, (logger, prefix) in DROP_RECORDS.items():
            if record.name == logger and str(record.msg).startswith(prefix):
                with self._lock:
                    self.counts[name] += 1

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.counts)


class SetupError(Exception):
    pass


class Stack:
    def __init__(self, spec: dict):
        self.spec = spec
        self.handles: list = []
        self.urls: dict[str, str] = {}
        self.cse = None
        self.broker = None
        self.gateways: list = []

    def _boot(self, key: str, service, port: int = 0):
        handle = httpkit.run_service(service, port)
        self.handles.append(handle)
        self.urls[key] = handle.url
        httpkit.wait_healthy(handle.url)
        return handle

    def _validate(self) -> "ontology_mod.Ontology":
        """The paper's four checks, before anything is loaded."""
        spec = self.spec
        problems = []
        report = validator.validate_ontology(spec["ontology"])
        if not report.passed:
            problems.append(f"ontology: {report.errors[:1]}")
        onto = ontology_mod.load_ontology(rdf_mod.parse_ntriples(spec["ontology"]))
        for fleet in spec["fleets"].values():
            for sensor in fleet:
                report = validator.validate_annotation(sensor["descriptor"], onto)
                if not report.passed:
                    problems.append(f"descriptor {sensor['name']}: {report.errors[:1]}")
        for rule in spec["agent"]["rules"]:
            report = validator.validate_rule(rule, onto=onto)
            if not report.passed:
                problems.append(f"rule {rule.get('ruleId')}: {report.errors[:1]}")
        for text in spec["queries"]:
            report = validator.validate_sparql(text)
            if not report.passed:
                problems.append(f"query {text!r}: {report.errors[:1]}")
        if problems:
            raise SetupError("validation failed: " + "; ".join(map(str, problems[:3])))
        return onto

    def boot(self) -> dict:
        spec = self.spec
        self._validate()
        knowledge_url = self._boot("knowledge", knowledge_mod.KnowledgeService()).url
        knowledge_mod.KnowledgeClient(knowledge_url).upload(spec["ontology"])
        cse_handle = self._boot("cse", cse_mod.CseService())
        self.cse = cse_handle.service
        broker_handle = self._boot("broker", broker_mod.BrokerService(knowledge_url=knowledge_url))
        self.broker = broker_handle.service

        cse = cse_mod.CseClient(cse_handle.url)
        for fleet, sensors in spec["fleets"].items():
            cse.create("/cse", "AE", {"rn": fleet})
            for sensor in sensors:
                cse.create(f"/cse/{fleet}", "Container", {"rn": sensor["name"]})
                cse.create(f"/cse/{fleet}/{sensor['name']}", "SemanticDescriptor",
                           {"rn": "descriptor", "dsp": sensor["descriptor"]})
        broker = broker_mod.BrokerClient(broker_handle.url)
        seeds = spec["seedEntities"]
        for start in range(0, len(seeds), SEED_BATCH):
            responses = broker.update("APPEND", seeds[start:start + SEED_BATCH])
            if any(r.get("status") != "ok" for r in responses):
                raise SetupError(f"seeding the broker failed: {responses[:1]}")

        processes = [smg_mod.TransformationProcess.from_json(p) for p in spec["processes"]]
        for fleet, sensors in spec["fleets"].items():
            port = httpkit.find_free_port()
            config = smg_mod.GatewayConfig(
                cse_url=cse_handle.url,
                broker_url=broker_handle.url,
                knowledge_url=knowledge_url,
                mode=fleet,
                gateway_url=f"http://127.0.0.1:{port}",
                processes=processes,
                root_path=f"/cse/{fleet}",
            )
            gateway = smg_mod.MediationGateway(config)
            self._boot(f"smg-{fleet}", smg_mod.SmgService(gateway), port)
            self.gateways.append(gateway)
            gateway.start()
            adopted = len(gateway.instances())
            if adopted != len(sensors):
                raise SetupError(f"{fleet} gateway adopted {adopted} of {len(sensors)} sources")

        doc = dict(spec["agent"], brokerUrl=broker_handle.url)
        config = agent_mod.AgentConfig.from_json(doc)
        port = httpkit.find_free_port()
        agent = agent_mod.Agent(config, f"http://127.0.0.1:{port}")
        self._boot("agent", agent_mod.AgentService(agent), port)
        agent.start()
        return self.urls

    def sizes(self) -> dict:
        return {
            "treeResources": len(self.cse.tree._by_ri),
            "brokerEntities": len(self.broker.broker._entities),
        }

    def stop(self) -> None:
        for handle in reversed(self.handles):
            try:
                handle.stop()
            except Exception:  # keep stopping the rest; the report says what failed
                logging.getLogger(__name__).exception("stopping %s failed", handle.url)


def _say(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    spec = json.loads(sys.stdin.readline())
    try:
        drops = DropCounter()
    except SetupError as exc:
        _say({"error": str(exc)})
        return 1
    root = logging.getLogger()
    root.setLevel(logging.WARNING)
    root.addHandler(drops)
    errors = logging.StreamHandler(sys.stderr)
    errors.setLevel(logging.ERROR)
    root.addHandler(errors)

    tracer = None
    if spec.get("trace"):
        from tracing import HookMissing, Tracer

        tracer = Tracer()
        try:
            tracer.install()
        except HookMissing as exc:
            _say({"error": str(exc)})
            return 1

    stack = Stack(spec)
    try:
        urls = stack.boot()
    except Exception as exc:  # any boot failure ends the run; report it
        _say({"error": f"{type(exc).__name__}: {exc}"})
        stack.stop()
        return 1
    if tracer is not None:
        tracer.ready_at = time.perf_counter()
    _say({"ready": True, "urls": urls})

    line = sys.stdin.readline()
    command = json.loads(line) if line.strip() else {}
    counts = drops.snapshot()
    sizes = stack.sizes()
    stack.stop()
    report = {"drops": counts, **sizes}
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(
            command.get("readings", 0), command.get("ops", 0), counts, sizes)
        if spec.get("traceFile"):
            Path(spec["traceFile"]).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(spec["traceFile"], report)
    _say(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
