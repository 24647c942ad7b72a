"""Tracing from outside the program: wrappers the stack launcher installs
around public calls of each ``giots`` module before it boots the stack.

Coarse calls get one span each (name, start, end, parent, operation id).
Hot calls (``Graph.match``, ``is_subclass``, SPARQL parsing and
evaluation, N-Triples parsing) are only counted, with their summed time,
keyed by the chain of span names they ran under. Queue waits are taken
between a call that enqueues an item and the call that picks it up.
Everything stays in memory until the run ends; ``layer_metrics`` then
turns it into the per-layer figures and ``write`` dumps the spans.

Operation ids: a reading carries its content instance's ``ri`` through
the CSE and the gateway, and its source path plus ``ct`` once it reaches
the broker; a query carries the ``X-Bench-Op`` header the load generator
sends, read where ``JsonHttpService.handle`` receives it.
"""

from __future__ import annotations

import functools
import http.client
import importlib
import itertools
import json
import math
import threading
from collections import defaultdict
from time import perf_counter

from stats import quantile, self_time

OP_HEADER = "X-Bench-Op"
HOP_HEADER = "X-Bench-Hop"

MODULES = (
    "httpkit", "rdf", "sparql", "ontology", "rules", "ngsi", "knowledge",
    "cse", "broker", "smg", "agent", "validator",
)


def _resource_ri(body) -> str | None:
    resource = body.get("resource") if isinstance(body, dict) else None
    return resource.get("ri") if isinstance(resource, dict) else None


def _entity_op(entity) -> str | None:
    """Source path plus creation stamp of an entity's reading, if it has one."""
    for attribute in getattr(entity, "attributes", ()):
        meta = {m.name: m.value for m in attribute.metadata}
        if "source" in meta and "timestamp" in meta:
            return f"{meta['source']}@{meta['timestamp']}"
    return None


class HookMissing(Exception):
    """A call the tracer wraps is no longer where it expects it."""


class Tracer:
    def __init__(self):
        self.local = threading.local()
        self.ids = itertools.count(1)
        self.lock = threading.Lock()
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, op, note)
        self.counts: dict[tuple, list] = {}  # (name, enclosing span names) -> [calls, seconds]
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.marks: dict[tuple, float] = {}
        self.waits: dict[str, list[float]] = defaultdict(list)
        self.hops: dict[str, list] = defaultdict(lambda: [None, None])  # id -> [client, server]
        self.ready_at = 0.0
        self.installed: list[str] = []

    # -- recording --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def mark(self, key) -> None:
        with self.lock:
            self.marks.setdefault(key, perf_counter())

    def waited(self, name: str, key) -> None:
        with self.lock:
            started = self.marks.pop(key, None)
        if started is not None:
            self.waits[name].append(perf_counter() - started)

    def span(self, name, fn, op=None, note=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer.ids)
            op_id = op(args) if op is not None else None
            if op_id is None and parent is not None:
                op_id = parent[2]
            stack.append((sid, name, op_id))
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                extra = note(args, result) if note is not None else None
                tracer.spans.append((sid, parent[0] if parent else None, name, start, end,
                                     op_id, extra))

        return wrapper

    def counted(self, name, fn, keep=False, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack = tracer._stack()
            path = tuple(entry[1] for entry in stack)
            stack.append((None, name, stack[-1][2] if stack else None))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                with tracer.lock:
                    entry = tracer.counts.setdefault((name, path), [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
                    if keep:
                        tracer.durations[name].append(elapsed)

        return wrapper

    def _client_wrapper(self, fn):
        """request_json: a span that tags the request with a hop id, so the
        server-side handle time can be subtracted from the client time.
        Every caller in giots passes ``headers`` by keyword."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hop = str(next(tracer.ids))
            kwargs["headers"] = {**(kwargs.get("headers") or {}), HOP_HEADER: hop}
            started = perf_counter()
            failed = True
            try:
                status, payload = fn(*args, **kwargs)
                failed = status >= 500
                return status, payload
            finally:
                tracer.hops[hop][0] = perf_counter() - started
                if failed:
                    path = tuple(entry[1] for entry in tracer._stack())
                    with tracer.lock:
                        tracer.counts.setdefault(("httpkit.failure", path), [0, 0.0])[0] += 1

        return self.span("httpkit.request_json", wrapper)

    def _handle_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(service, request, *args, **kwargs):
            hop = request.header(HOP_HEADER)
            started = perf_counter()
            try:
                return fn(service, request, *args, **kwargs)
            finally:
                if hop is not None:
                    tracer.hops[hop][1] = perf_counter() - started

        return self.span("httpkit.handle", wrapper, op=lambda a: a[1].header(OP_HEADER))

    # -- installation ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap the calls each layer metric is measured at. Must run before
        the services are built, so bound methods pick up the wrappers."""
        mods = {name: importlib.import_module(f"giots.{name}") for name in MODULES}

        def lookup(owner, name, where):
            value = getattr(owner, name, None)
            if value is None:
                raise HookMissing(f"{where} is gone; bench/tracing.py must follow it")
            return value

        def method(module, cls_name, meth, make):
            cls = lookup(mods[module], cls_name, f"giots.{module}.{cls_name}")
            original = lookup(cls, meth, f"giots.{module}.{cls_name}.{meth}")
            setattr(cls, meth, make(original))
            self.installed.append(f"{module}.{cls_name}.{meth}")

        def function(module, name, make):
            """Wrap a module function under every name a giots module binds it to."""
            original = lookup(mods[module], name, f"giots.{module}.{name}")
            wrapped = make(original)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
            self.installed.append(f"{module}.{name}")

        def binding(module, name, make):
            """Wrap the name one module imported a function under, and only there."""
            original = lookup(mods[module], name, f"giots.{module}.{name}")
            setattr(mods[module], name, make(original))
            self.installed.append(f"{module}.{name}")

        span, counted = self.span, self.counted

        # httpkit: every server-side request and every stack client request
        method("httpkit", "JsonHttpService", "handle", self._handle_wrapper)
        function("httpkit", "request_json", self._client_wrapper)
        http.client.HTTPConnection.connect = counted(
            "httpkit.connect", http.client.HTTPConnection.connect)

        # cse: creation, dispatch queue, notification send, discovery
        method("cse", "ResourceTree", "create", lambda f: span(
            "cse.create", f, note=lambda a, r: getattr(r, "ri", None)))
        method("cse", "NotificationDispatcher", "submit", lambda f: counted(
            "cse.submit", f, before=lambda a: self.mark(("cse", a[1], _resource_ri(a[3])))))
        # the dispatcher's send; the URL and body identify the queued item
        binding("cse", "post_json", lambda f: span(
            "cse.notify", f,
            op=lambda a: _resource_ri(a[1]),
            before=lambda a: self.waited(
                "cse.dispatch_wait",
                ("cse", a[1].get("subscriptionRef") if isinstance(a[1], dict) else None,
                 _resource_ri(a[1])))))
        function("cse", "discover", lambda f: span(
            "cse.discover", f, note=lambda a, r: len(r) if r is not None else 0))

        # smg: notification queue, conversion, publishing, scanning, pull answers
        method("smg", "MediationGateway", "on_notification", lambda f: counted(
            "smg.on_notification", f, before=lambda a: self.mark(("smg", _resource_ri(a[1])))))
        method("smg", "MediationGateway", "build_update", lambda f: span(
            "smg.build_update", f, op=lambda a: a[2].get("ri"),
            before=lambda a: self.waited("smg.queue_wait", ("smg", a[2].get("ri")))))
        method("smg", "MediationGateway", "publish", lambda f: span(
            "smg.publish", f, op=lambda a: _entity_op(a[1])))
        method("smg", "MediationGateway", "scan_once", lambda f: span(
            "smg.scan_once", f, note=lambda a, r: r or 0))
        method("smg", "MediationGateway", "discover_sources", lambda f: span(
            "smg.discover_sources", f, note=lambda a, r: len(r) if r is not None else 0))
        method("smg", "MediationGateway", "answer_query", lambda f: span("smg.answer_query", f))
        function("smg", "select_process", lambda f: span("smg.select_process", f))

        # broker: updates, queries, provider pulls, notification flushes
        method("broker", "ContextBroker", "update", lambda f: span(
            "broker.update", f, op=lambda a: _entity_op(a[2][0]) if a[2] else None))
        method("broker", "ContextBroker", "query", lambda f: span("broker.query", f))
        method("broker", "ContextBroker", "_pull", lambda f: span("broker.pull", f))
        method("broker", "ContextBroker", "_schedule", lambda f: counted(
            "broker.schedule", f,
            before=lambda a: self.mark(("broker", getattr(a[1], "subscription_id", None)))))
        method("broker", "ContextBroker", "_flush", lambda f: span(
            "broker.notify", f, before=lambda a: self.waited("broker.notify_wait", ("broker", a[1]))))

        # knowledge: subsumption and its cache, plus the client's HTTP calls
        method("knowledge", "KnowledgeClient", "is_subclass", lambda f: counted("is_subclass", f))
        method("knowledge", "KnowledgeClient", "subclasses_of",
               lambda f: counted("knowledge.subclasses_of", f))
        method("knowledge", "KnowledgeClient", "declared_class",
               lambda f: counted("knowledge.declared_class", f))
        binding("knowledge", "get_json", lambda f: counted("knowledge.http", f, keep=True))

        # agent: notification queue, rule passes, view builds, feedback, SPARQL
        method("agent", "Agent", "on_notification", lambda f: counted(
            "agent.on_notification", f, before=lambda a: self.mark(("agent", id(a[1])))))
        method("agent", "Agent", "_apply_notification", lambda f: counted(
            "agent.apply", f, before=lambda a: self.waited("agent.queue_wait", ("agent", id(a[1])))))
        method("agent", "Agent", "run_rule_pass", lambda f: span(
            "agent.rule_pass", f, note=lambda a, r: len(r) if r is not None else 0))
        method("agent", "Agent", "view_graph", lambda f: span("agent.view_build", f))
        method("agent", "Agent", "feed_back", lambda f: span("agent.feed_back", f))
        method("agent", "Agent", "answer_sparql", lambda f: span("agent.sparql", f))

        # rules, sparql, rdf, validator
        function("rules", "forward_chain", lambda f: span(
            "rules.forward_chain", f, note=lambda a, r: len(r) if r is not None else 0))
        function("sparql", "match_bgp", lambda f: counted("sparql.match_bgp", f))
        function("sparql", "parse_sparql", lambda f: counted("sparql.parse", f))
        function("sparql", "evaluate", lambda f: counted("sparql.evaluate", f, keep=True))
        method("rdf", "Graph", "match", lambda f: counted("rdf.match", f))
        function("rdf", "parse_ntriples", lambda f: counted("rdf.parse_ntriples", f, keep=True))
        function("rdf", "serialize_ntriples", lambda f: counted("rdf.serialize", f))
        for kind in ("ontology", "annotation", "rule", "sparql"):
            function("validator", f"validate_{kind}",
                     lambda f: counted("validator.check", f, keep=True))

    # -- reduction ----------------------------------------------------------------------

    def _count(self, name: str, under: str | None = None) -> int:
        return sum(c for (n, path), (c, _) in self.counts.items()
                   if n == name and (under is None or under in path))

    def _seconds(self, name: str) -> float:
        return sum(s for (n, _), (_, s) in self.counts.items() if n == name)

    def layer_metrics(self, readings: int, ops: int, drops: dict, sizes: dict) -> dict:
        """Per-layer figures; times in ms unless the name says otherwise.
        Run-phase timings use spans that started after the stack was ready.
        A timing or ratio with nothing to measure is NaN, never 0: the
        load generator refuses such a run, so a hook that stopped firing
        cannot pass for an improvement."""
        by_name: dict[str, list] = defaultdict(list)
        run: dict[str, list] = defaultdict(list)
        for span in self.spans:
            by_name[span[2]].append(span)
            if span[3] >= self.ready_at:
                run[span[2]].append(span)

        def ms(values, q=0.5):
            return quantile([v * 1000 for v in values], q)

        def dur(spans, q=0.5):
            return ms([s[4] - s[3] for s in spans], q)

        def ratio(num, den):
            return num / den if den else math.nan

        def mean_note(spans):
            return ratio(sum(s[6] or 0 for s in spans), len(spans))

        hops = [c - s for c, s in self.hops.values() if c is not None and s is not None]
        retrying = sum(self._count("httpkit.failure", under) for under in
                       ("cse.notify", "smg.publish", "agent.feed_back"))
        dropped = (drops["cse.notifications_dropped"] + drops["smg.updates_dropped"]
                   + drops["agent.feedback_dropped"])
        updates = len(by_name["broker.update"])
        queries = len(by_name["broker.query"])
        scans = by_name["smg.scan_once"]
        passes = by_name["agent.rule_pass"]
        chains = by_name["rules.forward_chain"]
        subclass_calls = self._count("is_subclass")
        discover_hits = sum(s[6] or 0 for s in by_name["cse.discover"])
        return {
            "httpkit.requests_per_reading": ratio(len(run["httpkit.handle"]), readings),
            "httpkit.connects_per_request": ratio(self._count("httpkit.connect"),
                                                  len(by_name["httpkit.request_json"])),
            "httpkit.hop_ms_p50": ms(hops),
            "httpkit.retries": max(0, retrying - dropped),
            "httpkit.failures": self._count("httpkit.failure"),
            "cse.create_ms_p50": dur(run["cse.create"]),
            "cse.dispatch_wait_ms_p50": ms(self.waits["cse.dispatch_wait"]),
            "cse.dispatch_wait_ms_p99": ms(self.waits["cse.dispatch_wait"], 0.99),
            "cse.notify_ms_p50": dur(run["cse.notify"]),
            "cse.notifications_dropped": drops["cse.notifications_dropped"],
            "cse.tree_resources": sizes["treeResources"],
            "cse.discover_ms_p50": dur(run["cse.discover"]),
            "cse.discover_evals_per_hit": ratio(
                self._count("sparql.evaluate", "cse.discover"), discover_hits),
            "smg.queue_wait_ms_p50": ms(self.waits["smg.queue_wait"]),
            "smg.queue_wait_ms_p99": ms(self.waits["smg.queue_wait"], 0.99),
            "smg.build_update_ms_p50": dur(run["smg.build_update"]),
            "smg.publish_ms_p50": dur(run["smg.publish"]),
            "smg.updates_dropped": drops["smg.updates_dropped"],
            "smg.scans": len(scans),
            "smg.scan_s": sum(s[4] - s[3] for s in scans),
            "smg.rescan_useful_ratio": ratio(sum(s[6] or 0 for s in scans),
                                             sum(s[6] or 0 for s in by_name["smg.discover_sources"])),
            "smg.select_process_ms_p50": dur(by_name["smg.select_process"]),
            "smg.answer_query_ms_p50": dur(run["smg.answer_query"]),
            "broker.update_ms_p50": dur(run["broker.update"]),
            "broker.is_subclass_calls_per_update": ratio(
                self._count("is_subclass", "broker.update"), updates),
            "broker.notify_wait_ms_p50": ms(self.waits["broker.notify_wait"]),
            "broker.notify_ms_p50": dur(run["broker.notify"]),
            "broker.notifications_per_update": ratio(len(by_name["broker.notify"]), updates),
            "broker.query_ms_p50": dur(run["broker.query"]),
            "broker.query_ms_p99": dur(run["broker.query"], 0.99),
            "broker.is_subclass_calls_per_query": ratio(
                self._count("is_subclass", "broker.query"), queries),
            "broker.pull_ms_p50": dur(run["broker.pull"]),
            "broker.entities": sizes["brokerEntities"],
            "knowledge.client_calls": subclass_calls + self._count("knowledge.subclasses_of")
            + self._count("knowledge.declared_class"),
            "knowledge.cache_hit_ratio": ratio(
                subclass_calls - self._count("knowledge.http", "is_subclass"), subclass_calls),
            "knowledge.http_ms_p50": ms(self.durations["knowledge.http"]),
            "knowledge.declared_class_calls": self._count("knowledge.declared_class"),
            "agent.queue_wait_ms_p50": ms(self.waits["agent.queue_wait"]),
            "agent.queue_wait_ms_p99": ms(self.waits["agent.queue_wait"], 0.99),
            "agent.rule_pass_ms_p50": dur(passes),
            "agent.rule_pass_ms_p99": dur(passes, 0.99),
            "agent.view_build_ms_p50": dur(by_name["agent.view_build"]),
            "agent.feedback_ms_p50": dur(by_name["agent.feed_back"]),
            "agent.feedback_dropped": drops["agent.feedback_dropped"],
            "agent.batch_size_mean": ratio(self._count("agent.apply"), len(passes)),
            "agent.useful_pass_ratio": ratio(sum(1 for s in passes if s[6]), len(passes)),
            "agent.passes_aborted": drops["agent.passes_aborted"],
            "agent.sparql_ms_p50": dur(run["agent.sparql"]),
            "rules.forward_chain_ms_p50": dur(chains),
            "rules.match_bgp_calls_per_chain": ratio(
                self._count("sparql.match_bgp", "rules.forward_chain"), len(chains)),
            "rules.derived_per_chain": mean_note(chains),
            "sparql.parse_calls_per_scan": ratio(
                self._count("sparql.parse", "smg.scan_once"), len(scans)),
            "sparql.evaluate_calls": self._count("sparql.evaluate"),
            "sparql.evaluate_ms_p50": ms(self.durations["sparql.evaluate"]),
            "rdf.match_calls_per_op": ratio(self._count("rdf.match"), ops),
            "rdf.match_busy_s": self._seconds("rdf.match"),
            "rdf.parse_ntriples_ms_p50": ms(self.durations["rdf.parse_ntriples"]),
            "rdf.serialize_calls": self._count("rdf.serialize"),
            "validator.check_ms_total": 1000 * sum(self.durations["validator.check"]),
        }

    def self_times(self) -> dict:
        """Per span name: calls, total ms and self ms (children subtracted)."""
        children: dict[int, list] = defaultdict(list)
        for span in self.spans:
            if span[1] is not None:
                children[span[1]].append((span[3], span[4]))
        table: dict[str, list] = {}
        for sid, _, name, start, end, _, _ in self.spans:
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (end - start) * 1000
            row[2] += self_time(start, end, children.get(sid, ())) * 1000
        return {name: {"calls": c, "total_ms": t, "self_ms": s} for name, (c, t, s) in table.items()}

    def write(self, path, summary: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"summary": summary, "selfTime": self.self_times(),
                                 "installed": self.installed}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

