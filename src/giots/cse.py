"""Common Service Entity: a hierarchical resource tree with CRUDN
operations, labels, semantic descriptors, subscriptions that fire
childCreated notifications for new content instances, and discovery
with type, label, modified-since and SPARQL descriptor filters.

HTTP binding: resource paths map directly to URL paths under /cse,
resource type on create travels in the X-M2M-TY header, and discovery
is a GET with fu=1.
"""

from __future__ import annotations

import logging
import re
import threading
import urllib.parse
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Any, NamedTuple

from .httpkit import (
    HttpRequest,
    HttpResponse,
    JsonHttpService,
    KeyedWorkers,
    bad_request,
    call,
    conflict,
    deliver,
    method_not_allowed,
    not_found,
    post_json,
)
from .jsonfields import ANY, LIST, STRING, TEXT, URL, document, read
from .rdf import Graph, NTriplesError, Term, Variable, parse_ntriples, serialize_ntriples
from .sparql import PARSE_CACHE_SIZE, Query, SparqlSyntaxError, evaluate, parse_sparql

log = logging.getLogger(__name__)

CSE_BASE_NAME = "cse"


class ResourceType(NamedTuple):
    """What the CSE knows of one resource type: its wire code, the prefix
    of its ri, the types it may hold as children, and the attributes a PUT
    may set besides ``lbl`` (None: a PUT is refused)."""

    code: int
    prefix: str
    children: set[str]
    mutable: set[str] | None


RESOURCE_TYPES = {
    "AE": ResourceType(
        2, "ae", {"Container", "SemanticDescriptor", "Subscription", "Group"}, set()
    ),
    "Container": ResourceType(
        3, "cnt", {"Container", "ContentInstance", "SemanticDescriptor", "Subscription"}, set()
    ),
    "ContentInstance": ResourceType(4, "cin", {"SemanticDescriptor"}, None),
    "CSEBase": ResourceType(5, "cb", {"AE", "Container", "Subscription", "Group"}, set()),
    "Group": ResourceType(9, "grp", {"SemanticDescriptor"}, {"mid"}),
    "Subscription": ResourceType(23, "sub", set(), {"nu"}),
    "SemanticDescriptor": ResourceType(24, "smd", set(), {"dsp"}),
}
TYPE_CODES = {name: rt.code for name, rt in RESOURCE_TYPES.items()}
CODE_TYPES = {rt.code: name for name, rt in RESOURCE_TYPES.items()}

_NAME_PATTERN = "[A-Za-z0-9_.~-]{1,64}"
_NAME_RE = re.compile(_NAME_PATTERN)
_STRINGS = LIST.of(STRING, "a list of strings")
_TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%S.%fZ"
_TIMESTAMP_RE = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}Z")


def _parse_timestamp(text: str) -> datetime:
    if not _TIMESTAMP_RE.fullmatch(text):
        raise ValueError(f"'{text}' is not a timestamp like 2024-01-31T12:00:00.000Z")
    return datetime.strptime(text, _TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)


def _type_of(code: str) -> str:
    """The type name for an ``X-M2M-TY`` header or a ``ty`` query value."""
    try:
        return CODE_TYPES[int(code)]
    except (ValueError, KeyError):
        raise bad_request(f"unknown resource type code '{code}'") from None


@dataclass
class Resource:
    ri: str
    rn: str
    ty: str  # type name; wire representation uses the numeric code
    pi: str | None
    ct: str
    lt: str  # lastModifiedTime: ct until the first update
    path: str
    lbl: list[str] = field(default_factory=list)
    attrs: dict[str, Any] = field(default_factory=dict)  # the type's attributes, in wire form
    graph: Graph | None = None  # a descriptor's dsp, parsed
    children: dict[str, Resource] = field(default_factory=dict, repr=False, compare=False)
    # the descriptor and subscriptions among the children, so no lookup walks them
    descriptor: Resource | None = field(default=None, repr=False, compare=False)
    subscriptions: dict[str, Resource] = field(default_factory=dict, repr=False, compare=False)
    verdicts: dict[str, bool] = field(default_factory=dict, repr=False, compare=False)  # smf -> pass

    def to_json(self) -> dict:
        return {
            "rn": self.rn,
            "ri": self.ri,
            "ty": TYPE_CODES[self.ty],
            "ct": self.ct,
            "lt": self.lt,
            "lbl": list(self.lbl),
            "pi": self.pi,
            **self.attrs,
        }


class ResourceTree:
    """The CSE's resource store; all mutations run under one lock.

    Besides the ri and path maps it keeps the resources of each type, in
    creation order, and posts each term of a descriptor's graph under the
    ri of the resource the descriptor describes, so discovery reads
    candidates instead of walking the subtree."""

    def __init__(self):
        self._lock = threading.RLock()
        self._counter = 0
        self._stamped = datetime.min.replace(tzinfo=timezone.utc)  # the last ct or lt issued
        self._by_ri: dict[str, Resource] = {}
        self._by_path: dict[str, Resource] = {}
        self._by_type: dict[str, dict[str, Resource]] = {ty: {} for ty in RESOURCE_TYPES}
        self._by_term: dict[Term, set[str]] = {}  # descriptor term -> ris of described resources
        base = self._new_resource("CSEBase", CSE_BASE_NAME, None, [], {})
        self.base_path = base.path

    def _stamp(self) -> str:
        """Now, in ``ct``'s millisecond format, but at least one millisecond
        after the last stamp issued, so no two ct/lt stamps are equal and an
        inclusive modifiedSince tells every change apart (caller holds the lock)."""
        now = datetime.now(timezone.utc)
        now = max(now.replace(microsecond=now.microsecond // 1000 * 1000),
                  self._stamped + timedelta(milliseconds=1))
        self._stamped = now
        return now.strftime("%Y-%m-%dT%H:%M:%S.%f")[:-3] + "Z"

    def _new_resource(self, ty: str, rn: str, parent: Resource | None, lbl: list[str],
                      attrs: dict, graph: Graph | None = None) -> Resource:
        self._counter += 1
        created = self._stamp()
        resource = Resource(
            ri=f"{RESOURCE_TYPES[ty].prefix}-{self._counter:05d}", rn=rn, ty=ty,
            pi=parent.ri if parent else None, ct=created, lt=created,
            path=f"{parent.path}/{rn}" if parent else f"/{rn}", lbl=lbl, attrs=attrs, graph=graph,
        )
        self._by_ri[resource.ri] = resource
        self._by_path[resource.path] = resource
        self._by_type[ty][resource.ri] = resource
        self._post_terms(resource, True)
        if parent:
            parent.children[rn] = resource
            if ty == "SemanticDescriptor":
                parent.descriptor = resource
            elif ty == "Subscription":
                parent.subscriptions[resource.ri] = resource
        return resource

    def _post_terms(self, descriptor: Resource, add: bool) -> None:
        """Post (or withdraw) every term of a descriptor's graph under its
        parent's ri; a term no descriptor holds any more leaves the map."""
        if descriptor.graph is None:
            return
        terms = {term for triple in descriptor.graph.triples()
                 for term in (triple.subject, triple.predicate, triple.object)}
        for term in terms:
            if add:
                self._by_term.setdefault(term, set()).add(descriptor.pi)
                continue
            ris = self._by_term[term]
            ris.discard(descriptor.pi)
            if not ris:
                del self._by_term[term]

    def lookup(self, path: str) -> Resource:
        with self._lock:
            resource = self._by_path.get(path)
            if resource is None:
                raise not_found(f"no such resource: {path}")
            return resource

    def _attributes(self, ty: str, body: dict) -> tuple[dict[str, Any], Graph | None]:
        """The type's attributes in a create or update body, checked and in
        wire form, and a descriptor's parsed graph."""
        where = f"a {ty}"
        if ty == "ContentInstance":
            return {"con": read(body, "con", ANY, where),
                    "cnf": read(body, "cnf", TEXT, where, "application/json")}, None
        if ty == "SemanticDescriptor":
            try:
                graph = parse_ntriples(read(body, "dsp", STRING, where))
            except NTriplesError as exc:
                raise bad_request(f"descriptor does not parse: {exc}") from exc
            return {"dsp": serialize_ntriples(graph)}, graph
        if ty == "Subscription":
            return {"nu": read(body, "nu", URL, where)}, None
        if ty == "Group":
            mid = read(body, "mid", _STRINGS, where)
            for member in mid:
                if member not in self._by_ri:
                    raise bad_request(f"group member '{member}' does not exist")
            return {"mid": list(mid)}, None
        return {}, None

    def create(self, parent_path: str, ty: str, body: dict) -> Resource:
        with self._lock:
            parent = self.lookup(parent_path)
            if ty not in RESOURCE_TYPES[parent.ty].children:
                raise bad_request(f"a {ty} cannot be created under a {parent.ty}")
            rn = read(body, "rn", STRING, f"a {ty}")
            if not _NAME_RE.fullmatch(rn):
                raise bad_request(f"'rn' must match {_NAME_PATTERN}")
            if rn in parent.children:
                raise conflict(f"'{rn}' already exists under {parent_path}")
            if ty == "SemanticDescriptor" and parent.descriptor is not None:
                raise bad_request(f"{parent_path} already has a semantic descriptor")
            lbl = list(read(body, "lbl", _STRINGS, f"a {ty}", []))
            attrs, graph = self._attributes(ty, body)
            return self._new_resource(ty, rn, parent, lbl, attrs, graph)

    def update(self, path: str, body: dict) -> Resource:
        """Checks the whole body before it changes anything."""
        with self._lock:
            resource = self.lookup(path)
            mutable = RESOURCE_TYPES[resource.ty].mutable
            if mutable is None:
                raise method_not_allowed("content instances are immutable")
            unknown = set(body) - mutable - {"lbl"}
            if unknown:
                raise bad_request(f"cannot update {sorted(unknown)} on a {resource.ty}")
            lbl = list(read(body, "lbl", _STRINGS, f"a {resource.ty}", resource.lbl))
            if set(body) - {"lbl"}:
                attrs, graph = self._attributes(resource.ty, body)
                self._post_terms(resource, False)
                resource.graph, resource.verdicts = graph, {}
                self._post_terms(resource, True)
                resource.attrs = {**resource.attrs, **attrs}
            resource.lbl, resource.lt = lbl, self._stamp()
            return resource

    def delete(self, path: str) -> list[Resource]:
        """Remove the resource and its subtree; returns removed resources."""
        with self._lock:
            resource = self.lookup(path)
            if resource.ty == "CSEBase":
                raise method_not_allowed("the CSE base cannot be deleted")
            removed = [resource, *self.descendants(resource)]
            for gone in removed:
                del self._by_ri[gone.ri]
                del self._by_path[gone.path]
                del self._by_type[gone.ty][gone.ri]
                self._post_terms(gone, False)
            parent = self._by_ri[resource.pi]
            del parent.children[resource.rn]
            parent.subscriptions.pop(resource.ri, None)
            if parent.descriptor is resource:
                parent.descriptor = None
            return removed

    def descendants(self, root: Resource) -> list[Resource]:
        with self._lock:
            found: list[Resource] = []
            stack = list(root.children.values())
            while stack:
                current = stack.pop()
                found.append(current)
                stack.extend(current.children.values())
            return found

    def candidates(self, root: Resource, ty: str | None,
                   terms: set[Term] | None) -> list[Resource]:
        """The descendants of root of type ``ty`` (any, if None) that could
        pass a semantic filter whose ground terms are ``terms`` (None: no
        filter): those described by a descriptor that holds every term. A
        ground slot matches by equality, so no other resource can pass."""
        with self._lock:
            if terms is None and ty is None:
                return self.descendants(root)
            if terms is None:
                found = self._by_type.get(ty, {}).values()
            else:
                if terms:
                    ris = set.intersection(*sorted(
                        (self._by_term.get(term, set()) for term in terms), key=len))
                else:
                    ris = {d.pi for d in self._by_type["SemanticDescriptor"].values()}
                found = map(self._by_ri.__getitem__, ris)
            prefix = root.path + "/"
            return [
                resource for resource in found
                if (ty is None or resource.ty == ty) and resource.path.startswith(prefix)
            ]

    def satisfies(self, resource: Resource, text: str, query: Query) -> bool:
        """Does the resource's descriptor satisfy ``query``, parsed from
        ``text``? A descriptor keeps its verdict per text, at most
        PARSE_CACHE_SIZE of them, until its graph changes; one it has not
        given yet is evaluated outside the lock."""
        with self._lock:
            if resource.descriptor is None:
                return False
            graph, verdicts = resource.descriptor.graph, resource.descriptor.verdicts
            verdict = verdicts.get(text)
        if verdict is None:
            verdict = bool(evaluate(query, graph))
            with self._lock:  # a PUT since gave the descriptor a new dict; this one is dropped
                if len(verdicts) >= PARSE_CACHE_SIZE:
                    del verdicts[next(iter(verdicts))]
                verdicts[text] = verdict
        return verdict

    def subscriptions_on(self, resource: Resource) -> list[Resource]:
        with self._lock:
            return list(resource.subscriptions.values())


def discover(
    tree: ResourceTree,
    root_path: str,
    resource_type: str | None = None,
    labels: list[str] | None = None,
    semantic_filter: str | None = None,
    modified_since: str | None = None,
) -> list[str]:
    """Structured paths of all descendants of root that pass every given
    filter; label filter matches any-of; ``modified_since`` (a timestamp in
    ``ct``'s format) keeps candidates whose ``lt`` is at or after it; the
    semantic filter succeeds on candidates whose descriptor child satisfies
    the query, and is evaluated only where that descriptor holds every
    ground term of the query's patterns and has not answered it yet."""
    root = tree.lookup(root_path)
    query = terms = None
    if semantic_filter is not None:
        query = parse_sparql(semantic_filter)  # SparqlSyntaxError escapes to caller
        terms = {slot for pattern in query.patterns for slot in pattern.slots()
                 if not isinstance(slot, Variable)}
    hits = []
    for candidate in tree.candidates(root, resource_type, terms):
        if labels and not (set(labels) & set(candidate.lbl)):
            continue
        if modified_since is not None and candidate.lt < modified_since:
            continue
        if query is not None and not tree.satisfies(candidate, semantic_filter, query):
            continue
        hits.append(candidate.path)
    return sorted(hits)


class NotificationDispatcher:
    """Sends notifications on one KeyedWorkers pool keyed by subscription
    ri: each subscription gets them in creation order, and a slow one holds
    up only its own. A send deliver() gives up on, 4xx included, is
    dropped and logged; one for a subscription gone from the tree is skipped."""

    def __init__(self, tree: ResourceTree):
        self._tree = tree
        self._pool = KeyedWorkers()

    def submit(self, sub_ri: str, target_url: str, body: dict) -> None:
        self._pool.submit(sub_ri, self._send, sub_ri, target_url, body)

    def _send(self, sub_ri: str, target_url: str, body: dict) -> None:
        if sub_ri not in self._tree._by_ri:
            return
        if not deliver(lambda: post_json(target_url, body, timeout=5.0)):
            log.error("notification for subscription %s dropped: delivery to %s failed",
                      sub_ri, target_url)

    def close(self) -> None:
        self._pool.close()


class CseService(JsonHttpService):
    name = "cse"

    def __init__(self):
        super().__init__()
        self.tree = ResourceTree()
        self.dispatcher = NotificationDispatcher(self.tree)
        self.router.add("POST", "/{rest:path}", self._create)
        self.router.add("GET", "/{rest:path}", self._retrieve_or_discover)
        self.router.add("PUT", "/{rest:path}", self._update)
        self.router.add("DELETE", "/{rest:path}", self._delete)

    def close(self) -> None:
        self.dispatcher.close()

    @staticmethod
    def _path_of(request: HttpRequest) -> str:
        return "/" + request.params["rest"].strip("/")

    def _create(self, request: HttpRequest) -> HttpResponse:
        raw_ty = request.header("X-M2M-TY")
        if raw_ty is None:
            raise bad_request("create requires the X-M2M-TY header")
        ty = _type_of(raw_ty)
        if ty == "CSEBase":
            raise bad_request("a CSE hosts exactly one CSE base")
        body = document(request.json(), "create body")
        resource = self.tree.create(self._path_of(request), ty, body)
        if ty == "ContentInstance":
            self._fire_child_created(resource)
        return HttpResponse(201, resource.to_json())

    def _fire_child_created(self, created: Resource) -> None:
        parent = self.tree._by_ri.get(created.pi or "")
        if parent is None:
            return
        resource = created.to_json()
        for sub in self.tree.subscriptions_on(parent):
            body = {"event": "childCreated", "resource": resource, "subscriptionRef": sub.ri}
            self.dispatcher.submit(sub.ri, sub.attrs["nu"], body)

    def _retrieve_or_discover(self, request: HttpRequest) -> HttpResponse:
        path = self._path_of(request)
        if request.query_first("fu") == "1":
            return self._discover(request, path)
        return HttpResponse(200, self.tree.lookup(path).to_json())

    def _discover(self, request: HttpRequest, path: str) -> HttpResponse:
        raw_ty = request.query_first("ty")
        resource_type = _type_of(raw_ty) if raw_ty is not None else None
        labels = request.query.get("lbl") or []
        smf = request.query_first("smf")
        ms = request.query_first("ms")
        if ms is not None:
            try:
                _parse_timestamp(ms)  # ct's exact format, so string order is time order
            except ValueError as exc:
                raise bad_request(f"invalid modifiedSince: {exc}") from exc
        try:
            paths = discover(
                self.tree, path,
                resource_type=resource_type,
                labels=labels,
                semantic_filter=smf,
                modified_since=ms,
            )
        except SparqlSyntaxError as exc:
            raise bad_request(f"invalid semantic filter: {exc}") from exc
        return HttpResponse(200, {"uril": paths})

    def _update(self, request: HttpRequest) -> HttpResponse:
        resource = self.tree.update(self._path_of(request), document(request.json(), "update body"))
        return HttpResponse(200, resource.to_json())

    def _delete(self, request: HttpRequest) -> HttpResponse:
        removed = self.tree.delete(self._path_of(request))
        return HttpResponse(200, {"deleted": len(removed)})


# --- client helpers used by the gateway and the harness -----------------------


class CseClient:
    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")

    def create(self, parent_path: str, ty: str, body: dict) -> dict:
        reply = call("POST", self.base_url + parent_path, body, {"X-M2M-TY": str(TYPE_CODES[ty])})
        return document(reply, f"reply to create {ty}")

    def retrieve(self, path: str) -> dict:
        return document(call("GET", self.base_url + path), f"resource {path}")

    def delete(self, path: str) -> None:
        call("DELETE", self.base_url + path)

    def discover(
        self,
        root_path: str,
        resource_type: str | None = None,
        labels: list[str] | None = None,
        semantic_filter: str | None = None,
        modified_since: str | None = None,
    ) -> list[str]:
        """Paths under root_path that pass every given filter (see the
        module-level discover); ``modified_since`` travels as ``ms``."""
        params: list[tuple[str, str]] = [("fu", "1")]
        if resource_type is not None:
            params.append(("ty", str(TYPE_CODES[resource_type])))
        for label in labels or []:
            params.append(("lbl", label))
        if semantic_filter is not None:
            params.append(("smf", semantic_filter))
        if modified_since is not None:
            params.append(("ms", modified_since))
        url = self.base_url + root_path + "?" + urllib.parse.urlencode(params)
        where = f"discovery under {root_path}"
        return read(document(call("GET", url), where), "uril", _STRINGS, where)
