"""The giots benchmark: one reading's trip, burst throughput and the query
surfaces, measured from a separate load-generator process.

    python3 bench/run.py --workload push-steady --seed 1 --seconds 40 --trace 0

The whole stack (knowledge, cse, broker, both gateways, agent) runs in one
child process started by ``bench/stack.py``. This process is the load
generator: one main thread that owns the only client connection, plus
one thread serving the notification sink the generator subscribes to
the broker. Every answer is checked against the oracles in
``workload.py``; a wrong answer makes the command exit 1.

The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from a traced stack with ``--trace 1``. A table with
sample counts goes to stderr. See ``bench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import random
import select
import subprocess
import sys
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from time import perf_counter

import stats
from workload import (
    ATTRIBUTE, DERIVED, ROOM, Inputs, Ledger, make_inputs, poisson_schedule, wire_decimal,
)

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"

WORKLOADS = ("push-steady", "push-burst", "query-mix")
SETUP_BOOTS = 5  # untraced runs boot the stack this often and report the median set-up
STEADY_RATE = 6.0  # timed readings/s over the push fleet, evenly paced (see README)
QUERY_RATE = 40.0  # queries/s, open loop (see README)
PROBE_SHARE = 0.2  # share of --seconds a workload spends on the other side's probe
BURST_PER_SENSOR = 10  # readings per push sensor in one burst; bursts repeat for --seconds
MIX_RATE = 4.0  # untimed readings/s beside query-mix's queries, half into each fleet
LAG_LIMIT_MS = 20.0  # push-steady is invalid when the generator's own lag p99 exceeds this
DRAIN_TIMEOUT = 30.0
STACK_TIMEOUT = 120.0
SAMPLE_PERIOD = 0.25
HOUSEKEEPING_MIN_GAP = 0.003
OP_HEADER = "X-Bench-Op"

END_TO_END = {
    "setup_s": "s",
    "stack_rss_mb": "MB",
    "cpu_ms_per_op": "ms",
}
# End-to-end figures reported without a bound, among the traced per-layer
# metrics: their run-to-run spread on a shared 2-vCPU host is wider than the
# largest bound BENCHMARK.json may give, or they do not move with the stack
# (see bench/README.md).
UNBOUNDED = {
    "e2e.readings_per_s": "1/s",
    "e2e.reading_latency_p50_ms": "ms",
    "e2e.derived_latency_p50_ms": "ms",
    "e2e.context_query_p50_ms": "ms",
    "e2e.federated_query_p50_ms": "ms",
    "e2e.sparql_query_p50_ms": "ms",
    "e2e.discovery_p50_ms": "ms",
    "e2e.reading_latency_p95_ms": "ms",
    "e2e.derived_latency_p95_ms": "ms",
    "e2e.context_query_p95_ms": "ms",
    "e2e.federated_query_p95_ms": "ms",
    "e2e.sparql_query_p95_ms": "ms",
    "e2e.discovery_p95_ms": "ms",
    "e2e.reading_superseded_share": "ratio",
    "e2e.derived_superseded_share": "ratio",
}
PER_LAYER = {
    **UNBOUNDED,
    "loadgen.lag_p99_ms": "ms",
    "stack.threads_peak": "count",
    "stack.cpu_ms_per_reading": "ms",
    "httpkit.requests_per_reading": "req/reading",
    "httpkit.connects_per_request": "conn/req",
    "httpkit.hop_ms_p50": "ms",
    "httpkit.retries": "count",
    "httpkit.failures": "count",
    "cse.create_ms_p50": "ms",
    "cse.dispatch_wait_ms_p50": "ms",
    "cse.dispatch_wait_ms_p99": "ms",
    "cse.notify_ms_p50": "ms",
    "cse.notifications_dropped": "count",
    "cse.tree_resources": "count",
    "cse.discover_ms_p50": "ms",
    "cse.discover_evals_per_hit": "evals/hit",
    "smg.queue_wait_ms_p50": "ms",
    "smg.queue_wait_ms_p99": "ms",
    "smg.build_update_ms_p50": "ms",
    "smg.publish_ms_p50": "ms",
    "smg.updates_dropped": "count",
    "smg.scans": "count",
    "smg.scan_s": "s",
    "smg.rescan_useful_ratio": "ratio",
    "smg.select_process_ms_p50": "ms",
    "smg.answer_query_ms_p50": "ms",
    "broker.update_ms_p50": "ms",
    "broker.is_subclass_calls_per_update": "calls/update",
    "broker.notify_wait_ms_p50": "ms",
    "broker.notify_ms_p50": "ms",
    "broker.notifications_per_update": "notes/update",
    "broker.query_ms_p50": "ms",
    "broker.query_ms_p99": "ms",
    "broker.is_subclass_calls_per_query": "calls/query",
    "broker.pull_ms_p50": "ms",
    "broker.entities": "count",
    "knowledge.client_calls": "count",
    "knowledge.cache_hit_ratio": "ratio",
    "knowledge.http_ms_p50": "ms",
    "knowledge.declared_class_calls": "count",
    "agent.queue_wait_ms_p50": "ms",
    "agent.queue_wait_ms_p99": "ms",
    "agent.rule_pass_ms_p50": "ms",
    "agent.rule_pass_ms_p99": "ms",
    "agent.view_build_ms_p50": "ms",
    "agent.feedback_ms_p50": "ms",
    "agent.feedback_dropped": "count",
    "agent.batch_size_mean": "items/pass",
    "agent.useful_pass_ratio": "ratio",
    "agent.passes_aborted": "count",
    "agent.sparql_ms_p50": "ms",
    "rules.forward_chain_ms_p50": "ms",
    "rules.match_bgp_calls_per_chain": "calls/chain",
    "rules.derived_per_chain": "facts/chain",
    "sparql.parse_calls_per_scan": "calls/scan",
    "sparql.evaluate_calls": "count",
    "sparql.evaluate_ms_p50": "ms",
    "rdf.match_calls_per_op": "calls/op",
    "rdf.match_busy_s": "s",
    "rdf.parse_ntriples_ms_p50": "ms",
    "rdf.serialize_calls": "count",
    "validator.check_ms_total": "ms",
}

# Each timed kind and its metric name. Every timing is reported as its p50
# and its tail, p95: at the rates and run length in BENCHMARK.json, each
# kind has at least ten samples beyond p95 on the workload it is made for.
TIMINGS = {
    "reading": "reading_latency",
    "derived": "derived_latency",
    "context": "context_query",
    "federated": "federated_query",
    "sparql": "sparql_query",
    "discovery": "discovery",
}
TAIL = 0.95


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# --- the generator's one client connection --------------------------------------------


def http_request(base_url: str, method: str, path: str, body=None, headers=None):
    """One request on a fresh connection, so the generator never holds more
    than one client connection.

    The stack's servers write a response's headers and body in separate
    sends; on a long-lived keep-alive connection that meets the client's
    delayed ACK and stalls each request by about 40 ms. The stack's own
    clients open one connection per request, and so does the generator.
    """
    parts = urllib.parse.urlsplit(base_url)
    data = json.dumps(body).encode("utf-8") if body is not None else None
    sent_headers = {"Content-Type": "application/json"} if data is not None else {}
    sent_headers.update(headers or {})
    sent_headers["Connection"] = "close"
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=15)
    try:
        conn.request(method, path, body=data, headers=sent_headers)
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    try:
        payload = json.loads(raw) if raw else None
    except ValueError:
        payload = raw.decode("utf-8", "replace")
    return response.status, payload


# --- the notification sink ---------------------------------------------------------------


class Sink:
    """The benchmark's broker subscriber: a single-threaded HTTP server that
    stamps each notification on arrival and leaves parsing to the main thread."""

    def __init__(self):
        self._lock = threading.Lock()
        self._records: list[tuple[float, bytes]] = []
        sink = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                raw = self.rfile.read(int(self.headers.get("Content-Length") or 0))
                arrived = perf_counter()
                with sink._lock:
                    sink._records.append((arrived, raw))
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", "2")
                self.end_headers()
                self.wfile.write(b"{}")

            def log_message(self, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}/notify"
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()

    def take(self, limit: int | None = None) -> list[tuple[float, bytes]]:
        with self._lock:
            if limit is None or limit >= len(self._records):
                taken, self._records = self._records, []
            else:
                taken, self._records = self._records[:limit], self._records[limit:]
        return taken

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)


# --- the stack child ---------------------------------------------------------------------


def _proc_status(pid: int) -> dict:
    fields = {}
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            fields[key] = value.split()
    return fields


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        data = fh.read()
    fields = data[data.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def host_steal() -> tuple[int, int]:
    """(stolen, busy) CPU ticks of this machine so far, from /proc/stat:
    the ticks the host gave to others while a CPU here wanted to run, and
    every tick not spent idle."""
    with open("/proc/stat", encoding="ascii") as fh:
        ticks = [int(v) for v in fh.readline().split()[1:9]]
    idle = ticks[3] + ticks[4]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks) - idle


def _readline(proc: subprocess.Popen, timeout: float) -> dict:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline() if ready else ""
    if not line:
        raise BenchError(f"the stack process sent nothing within {timeout:.0f} s")
    return json.loads(line)


class StackProcess:
    """The child running the whole stack; read-only views of it come from /proc."""

    def __init__(self, spec: dict):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stack.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
        try:
            self.proc.stdin.write(json.dumps(spec) + "\n")
            self.proc.stdin.flush()
            hello = _readline(self.proc, STACK_TIMEOUT)
        except BaseException:
            self.kill()
            raise
        self.setup_s = perf_counter() - started
        if "error" in hello:
            self.kill()
            raise BenchError(f"the stack failed to set up: {hello['error']}")
        self.urls = hello["urls"]
        self.threads_peak = 0

    @property
    def pid(self) -> int:
        return self.proc.pid

    def sample(self) -> None:
        threads = int(_proc_status(self.pid)["Threads"][0])
        self.threads_peak = max(self.threads_peak, threads)

    def peak_rss_mb(self) -> float:
        return int(_proc_status(self.pid)["VmHWM"][0]) / 1024

    def cpu_s(self) -> float:
        return _proc_cpu_s(self.pid)

    def stop(self, command: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(command) + "\n")
            self.proc.stdin.flush()
            report = _readline(self.proc, STACK_TIMEOUT)
            self.proc.wait(timeout=30)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


# --- one run -------------------------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.inputs: Inputs = make_inputs(seed)
        self.rng = random.Random(seed * 1009 + WORKLOADS.index(workload))
        self.ledger = Ledger(self.inputs)
        self.sink: Sink | None = None
        self.stack: StackProcess | None = None
        self.setup_times: list[float] = []
        self.samples: dict[str, list[tuple[float, float]]] = {kind: [] for kind in TIMINGS}
        self.writes: list[dict] = []  # measured readings: entity, value, due
        self.lags: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.first_seen = {ATTRIBUTE: {}, DERIVED: {}}  # attr -> entity -> value -> arrival
        self.query_turn = 0
        self.lane_free_at = 0.0
        self.next_sample = 0.0
        self.readings_per_s = math.nan
        self.cpu_window = (0.0, 0.0)
        self.cpu_ms_per_op = math.nan
        self.superseded = {"reading": 0, "derived": 0}

    # -- plumbing ----------------------------------------------------------------------

    def _spec(self) -> dict:
        spec = self.inputs.stack_spec()
        spec["trace"] = self.trace
        if self.trace:
            spec["traceFile"] = str(OUT / f"trace-{self.workload}-seed{self.seed}.jsonl")
        return spec

    def housekeeping(self, limit: int | None = 50) -> None:
        """Absorb sink records and sample the stack, between lane requests."""
        now = perf_counter()
        if now >= self.next_sample:
            self.stack.sample()
            self.next_sample = now + SAMPLE_PERIOD
        for arrived, raw in self.sink.take(limit):
            self._absorb(arrived, raw)

    def _absorb(self, arrived: float, raw: bytes) -> None:
        try:
            body = json.loads(raw)
        except ValueError:
            self.wrong.append("the sink received a body that is not JSON")
            return
        for entity in body.get("entities") or []:
            problem = self.ledger.check_entity(entity)
            if problem:
                self.wrong.append(f"notification: {problem}")
                continue
            for attr in entity.get("attributes") or []:
                seen = self.first_seen[attr["name"]].setdefault(entity["id"], {})
                seen.setdefault(wire_decimal(attr["value"]), arrived)

    def _request(self, service: str, method: str, path: str, body=None, headers=None):
        start = perf_counter()
        try:
            status, payload = http_request(self.stack.urls[service], method, path, body, headers)
        except (OSError, http.client.HTTPException) as exc:
            status, payload = None, str(exc)
        self.lane_free_at = perf_counter()
        return start, status, payload

    def write(self, sensor, due: float | None, timed: bool) -> None:
        """Create the sensor's next content instance; due=None means now (closed loop)."""
        k, raw, expected = self.ledger.next_reading(sensor)
        if timed:
            # how late the send is against its due time, or in a closed loop
            # against the previous response; waiting for that does not count
            self.lags.append(max(0.0, perf_counter() - max(due or 0.0, self.lane_free_at)))
        start, status, _ = self._request(
            "cse", "POST", sensor.path, {"rn": f"r{k:05d}", "con": {"value": raw}},
            {"X-M2M-TY": "4"})
        self.attempted += 1
        if status != 201:
            self.failed += 1
        if timed:
            self.writes.append({"entity": sensor.entity, "value": expected,
                                "due": start if due is None else due})

    def query(self, due: float) -> None:
        q = self.inputs.queries[self.query_turn % len(self.inputs.queries)]
        self.query_turn += 1
        self.lags.append(max(0.0, perf_counter() - max(due, self.lane_free_at)))
        start, status, payload = self._request(
            q.service, q.method, q.path, q.body, {OP_HEADER: f"q{self.query_turn}"})
        elapsed = self.lane_free_at - start
        self.attempted += 1
        problem = self.ledger.check_answer(q, status, payload) if status is not None else payload
        if problem:
            self.failed += 1
            self.wrong.append(f"{q.kind}/{q.label}: {problem}")
        else:
            self.samples[q.kind].append((start, elapsed))

    def idle_until(self, when: float) -> None:
        now = perf_counter()
        if when - now > HOUSEKEEPING_MIN_GAP:
            self.housekeeping(limit=20)
            now = perf_counter()
        if when > now:
            time.sleep(when - now)

    # -- phases --------------------------------------------------------------------------

    def boot(self) -> None:
        boots = 1 if self.trace else SETUP_BOOTS
        for _ in range(boots - 1):
            probe = StackProcess(self._spec())
            self.setup_times.append(probe.setup_s)
            probe.stop({})
        self.stack = StackProcess(self._spec())
        self.setup_times.append(self.stack.setup_s)
        self.stack.sample()
        start, status, payload = self._request(
            "broker", "POST", "/ngsi10/subscribeContext",
            {"entities": [{"idPattern": "dev-.*", "type": ROOM}],
             "attributes": [ATTRIBUTE, DERIVED], "reference": self.sink.url})
        if status != 200:
            raise BenchError(f"the sink could not subscribe: {status} {payload}")

    def prime(self) -> None:
        """One untimed reading per sensor, so every query has state to find."""
        for sensor in self.inputs.sensors:
            self.write(sensor, None, timed=False)
        if self.drain(self.inputs.sensors) is None:
            raise BenchError("the primed readings never reached the broker")

    def drain(self, written) -> float | None:
        """Wait until the sink holds the last value and derived fact of every
        written push sensor, and the pull gateway answers every written pull
        sensor's last value. Returns when that state was reached, or None."""
        deadline = perf_counter() + DRAIN_TIMEOUT
        push = [s for s in written if s.fleet == "push"]
        pull = [s for s in written if s.fleet == "pull"]
        reached = [perf_counter()] if not written else []
        while perf_counter() < deadline:
            self.housekeeping(limit=None)
            push = [s for s in push if not self._final_at_sink(s)]
            if pull:
                pull = self._pull_pending(pull)
                if not pull:
                    reached.append(perf_counter())
            if not push and not pull:
                return max(reached + [self._final_arrival(s) for s in written
                                      if s.fleet == "push"])
            time.sleep(0.1 if pull else 0.005)
        return None

    def _final_at_sink(self, sensor) -> bool:
        last = self.ledger.sent[sensor.entity][-1]
        return all(last in self.first_seen[attr].get(sensor.entity, {})
                   for attr in (ATTRIBUTE, DERIVED))

    def _final_arrival(self, sensor) -> float:
        last = self.ledger.sent[sensor.entity][-1]
        return max(self.first_seen[attr][sensor.entity][last] for attr in (ATTRIBUTE, DERIVED))

    def _pull_pending(self, pending: list) -> list:
        _, status, payload = self._request(
            "broker", "POST", "/ngsi10/queryContext", {"entities": [{"idPattern": "pull-.*"}]})
        if status != 200 or not isinstance(payload, dict):
            return pending
        values = {}
        for entity in payload.get("entities") or []:
            for attr in entity.get("attributes") or []:
                values[entity.get("id")] = wire_decimal(attr.get("value"))
        return [s for s in pending if values.get(s.entity) != self.ledger.sent[s.entity][-1]]

    def open_loop(self, duration: float, rate: float, fleets: list, query_rate: float,
                  timed: bool = True, paced: bool = False) -> None:
        """Writes at `rate` and Poisson queries from the pool, each sent when
        it is due. Paced writes are evenly spaced and go round one fleet in a
        seeded order, as sensors that report on a fixed period; other writes
        are Poisson, each to a random sensor of a fleet taken in turn."""
        start = perf_counter()
        if paced:
            order = list(fleets[0])
            self.rng.shuffle(order)
            events = [(start + (i + 0.5) / rate, order[i % len(order)])
                      for i in range(round(rate * duration))]
        else:
            writes = poisson_schedule(self.rng, rate, duration)
            events = [(start + offset, self.rng.choice(fleets[i % len(fleets)]))
                      for i, offset in enumerate(writes)]
        events += [(start + offset, None)
                   for offset in poisson_schedule(self.rng, query_rate, duration)]
        events.sort(key=lambda event: event[0])
        for due, sensor in events:
            self.idle_until(due)
            if sensor is None:
                self.query(due)
            else:
                self.write(sensor, due, timed)
        self.idle_until(start + duration)

    def burst(self) -> None:
        order = []
        for _ in range(BURST_PER_SENSOR):
            round_ = list(self.inputs.push)
            self.rng.shuffle(round_)
            order += round_
        self.lane_free_at = perf_counter()
        for sensor in order:
            self.write(sensor, None, timed=True)
            if perf_counter() >= self.next_sample:
                self.housekeeping(limit=0)

    def throughput(self, writes: list[dict]) -> float:
        """Readings sent over the time from the first create until every
        written sensor reached its final state; NaN if one never did."""
        entities = {w["entity"] for w in writes}
        drained_at = self.drain([s for s in self.inputs.sensors if s.entity in entities])
        if drained_at is None or not writes:
            return math.nan
        return len(writes) / (drained_at - writes[0]["due"])

    def measure(self) -> None:
        # fixed phase lengths: a phase that overruns on a slow host delays
        # the next one but does not shorten it
        probe = PROBE_SHARE * self.seconds
        main = self.seconds - probe
        push, pull = self.inputs.push, self.inputs.pull
        if self.workload == "query-mix":
            # a reading probe first, drained, so that the reading figures
            # exist here too; then the read side beside untimed writes into
            # both fleets
            cpu_start = self.stack.cpu_s()
            self.open_loop(probe, STEADY_RATE, [push], 0.0, paced=True)
            rates = [self.throughput(self.writes)]
            self.cpu_window = (cpu_start, self.stack.cpu_s())
            ops_start = self.attempted
            self.open_loop(main, MIX_RATE, [push, pull], QUERY_RATE, timed=False)
            self.cpu_ms_per_op = (
                1000 * (self.stack.cpu_s() - self.cpu_window[1]) / (self.attempted - ops_start))
            # the last writes settle before settle() checks the final state
            self.drain(self.inputs.sensors)
        else:
            # the query probe runs first, on the freshly primed stack
            self.open_loop(probe, 0.0, [], QUERY_RATE)
            cpu_start = self.stack.cpu_s()
            if self.workload == "push-steady":
                self.open_loop(main, STEADY_RATE, [push], 0.0, paced=True)
                rates = [self.throughput(self.writes)]
            else:
                # bursts, each drained before the next, while another one fits
                rates, took, end = [], 0.0, perf_counter() + main
                while not rates or perf_counter() + took < end:
                    began, first = perf_counter(), len(self.writes)
                    self.burst()
                    rates.append(self.throughput(self.writes[first:]))
                    took = perf_counter() - began
            self.cpu_window = (cpu_start, self.stack.cpu_s())
            self.cpu_ms_per_op = 1000 * (self.cpu_window[1] - cpu_start) / len(self.writes)
        # a burst that never drained has failed readings, counted in settle()
        self.readings_per_s = stats.median(r for r in rates if math.isfinite(r))

    def settle(self) -> None:
        """Classify every measured reading and check the final broker state."""
        for arrived, raw in self.sink.take():
            self._absorb(arrived, raw)
        by_entity: dict[str, list[dict]] = {}
        for write in self.writes:
            by_entity.setdefault(write["entity"], []).append(write)
        for entity, writes in by_entity.items():
            sent = [w["value"] for w in writes]
            for attr, kind in ((ATTRIBUTE, "reading"), (DERIVED, "derived")):
                if self.ledger.by_entity[entity].fleet == "pull":
                    continue
                seen = self.first_seen[attr].get(entity, {})
                for write, outcome in zip(writes, stats.classify(sent, seen)):
                    if outcome == stats.TIMED:
                        self.samples[kind].append(
                            (write["due"], seen[write["value"]] - write["due"]))
                    elif outcome == stats.SUPERSEDED:
                        self.superseded[kind] += 1
                    elif outcome == stats.FAILED:
                        self.failed += 1
        _, status, payload = self._request(
            "broker", "POST", "/ngsi10/queryContext",
            {"entities": [{"idPattern": "dev-.*"}, {"idPattern": "pull-.*"}]})
        if status != 200 or not isinstance(payload, dict):
            self.wrong.append(f"final state query returned {status}")
            return
        found = {e.get("id"): e for e in payload.get("entities") or []}
        for sensor in self.inputs.sensors:
            entity = found.get(sensor.entity)
            last = self.ledger.sent[sensor.entity][-1]
            problem = self.ledger.check_entity(entity) if entity else "missing"
            if not problem:
                values = {a["name"]: wire_decimal(a["value"]) for a in entity["attributes"]}
                wanted = {ATTRIBUTE: last} if sensor.fleet == "pull" else {ATTRIBUTE: last, DERIVED: last}
                if any(values.get(name) != value for name, value in wanted.items()):
                    problem = f"final values {values} differ from {last}"
            if problem:
                self.wrong.append(f"final state of {sensor.entity}: {problem}")

    def execute(self) -> dict:
        OUT.mkdir(exist_ok=True)
        self.steal_start = host_steal()
        self.sink = Sink()
        try:
            self.boot()
            self.prime()
            self.measure()
            self.settle()
            rss = self.stack.peak_rss_mb()
            report = self.stack.stop({"readings": len(self.writes) + len(self.inputs.sensors),
                                      "ops": self.attempted})
        finally:
            if self.stack is not None:
                self.stack.kill()
            self.sink.close()
        drops = report.get("drops", {})
        self.failed += sum(drops.values())
        return self.result(rss, report)

    # -- results ---------------------------------------------------------------------------

    def end_to_end(self, rss: float) -> dict:
        values = {
            "setup_s": stats.median(self.setup_times),
            "stack_rss_mb": rss,
            "cpu_ms_per_op": self.cpu_ms_per_op,
            "readings_per_s": self.readings_per_s,
        }
        for kind, name in TIMINGS.items():
            ms = [v * 1000 for _, v in self.samples[kind]]
            values[f"{name}_p50_ms"] = stats.quantile(ms, 0.5)
            values[f"{name}_p95_ms"] = stats.quantile(ms, TAIL)
        for kind in self.superseded:
            # the newest value of a coalesced batch is timed and the older
            # ones are not, so more coalescing flatters the latencies
            values[f"{kind}_superseded_share"] = self.superseded[kind] / len(self.writes)
        return values

    def result(self, rss: float, report: dict) -> dict:
        lag_p99_ms = stats.quantile([v * 1000 for v in self.lags], 0.99) if self.lags else 0.0
        e2e = self.end_to_end(rss)
        self._print_table(e2e, lag_p99_ms, report)
        if self.workload == "push-steady" and lag_p99_ms > LAG_LIMIT_MS:
            raise BenchError(
                f"run invalid: the generator ran {lag_p99_ms:.1f} ms late (p99), "
                f"beyond its {LAG_LIMIT_MS} ms bound")
        missing = [name for name, value in e2e.items() if not math.isfinite(value)]
        if missing and not self.wrong:
            raise BenchError(f"no samples for {', '.join(missing)}")
        if self.trace:
            cpu_start, cpu_end = self.cpu_window
            layers = dict(report.get("layers", {}))
            layers["loadgen.lag_p99_ms"] = lag_p99_ms
            layers["stack.threads_peak"] = self.stack.threads_peak
            layers["stack.cpu_ms_per_reading"] = (
                1000 * (cpu_end - cpu_start) / len(self.writes) if self.writes else 0.0)
            layers.update({name: e2e[name.removeprefix("e2e.")] for name in UNBOUNDED})
            empty = [name for name in PER_LAYER
                     if not math.isfinite(layers.get(name, math.nan))]
            if empty and not self.wrong:
                # a hook that no longer fires must not read as a cost of 0
                raise BenchError(f"no data for per-layer {', '.join(empty)}")
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in PER_LAYER.items()}
            self._report_overhead(e2e)
        else:
            metrics = {name: {"value": e2e[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
            (OUT / f"result-{self.workload}-seed{self.seed}.json").write_text(
                json.dumps(e2e))
        return {"correct": not self.wrong, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}

    def _report_overhead(self, traced: dict) -> None:
        """Tracing overhead: traced end-to-end figures against the untraced run
        of the same workload and seed, when one was made in this checkout."""
        path = OUT / f"result-{self.workload}-seed{self.seed}.json"
        if not path.exists():
            print("tracing overhead: no untraced run of this workload and seed to compare",
                  file=sys.stderr)
            return
        untraced = json.loads(path.read_text())
        for name, value in traced.items():
            if name not in untraced:
                continue
            base = untraced.get(name)
            if name != "setup_s" and base and math.isfinite(value):
                print(f"tracing overhead {name:28s} {base:10.3f} -> {value:10.3f} "
                      f"({100 * (value - base) / base:+.1f}%)", file=sys.stderr)

    def _print_table(self, e2e: dict, lag_p99_ms: float, report: dict) -> None:
        print(f"workload {self.workload} seed {self.seed} seconds {self.seconds} "
              f"trace {int(self.trace)}", file=sys.stderr)
        counts = {}
        for kind, name in TIMINGS.items():
            n = len(self.samples[kind])
            counts[f"{name}_p50_ms"] = f"  n={n}"
            counts[f"{name}_p95_ms"] = f"  n={n}" + (
                "" if stats.supported(n, TAIL) else " (fewer than 10 samples beyond)")
        units = {**END_TO_END, **{n.removeprefix("e2e."): u for n, u in UNBOUNDED.items()}}
        for name, value in e2e.items():
            bound = "" if name in END_TO_END else " (no bound)"
            print(f"  {name:28s} {value:12.4f} {units[name]:5s}{counts.get(name, '')}{bound}",
                  file=sys.stderr)
        print(f"  superseded readings {self.superseded['reading']}, derived facts "
              f"{self.superseded['derived']}, of {len(self.writes)} timed writes", file=sys.stderr)
        steal, busy = (b - a for a, b in zip(self.steal_start, host_steal()))
        print(f"  set-up boots {', '.join(f'{v:.3f}' for v in self.setup_times)} s; "
              f"the host stole {100 * steal / max(busy, 1):.1f} % of the busy CPU time",
              file=sys.stderr)
        print(f"  generator lag p99 {lag_p99_ms:.3f} ms; drops {report.get('drops')}; "
              f"threads peak {self.stack.threads_peak}", file=sys.stderr)
        for problem in self.wrong[:10]:
            print(f"  WRONG: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "giots" / "__init__.py").is_file():
        print("bench: src/giots is missing; run from a full checkout", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for workload in workloads:
        try:
            result = Run(workload, args.seed, args.seconds, bool(args.trace)).execute()
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 3
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
