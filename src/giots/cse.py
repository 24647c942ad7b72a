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
from typing import Any

from .httpkit import (
    HttpRequest,
    HttpResponse,
    JsonHttpService,
    KeyedWorkers,
    bad_request,
    conflict,
    deliver,
    get_json,
    method_not_allowed,
    not_found,
    post_json,
    request_json,
    valid_url,
)
from .rdf import Graph, NTriplesError, parse_ntriples, serialize_ntriples
from .sparql import SparqlSyntaxError, evaluate, parse_sparql

log = logging.getLogger(__name__)

CSE_BASE_NAME = "cse"

TYPE_CODES = {
    "AE": 2,
    "Container": 3,
    "ContentInstance": 4,
    "CSEBase": 5,
    "Group": 9,
    "Subscription": 23,
    "SemanticDescriptor": 24,
}
CODE_TYPES = {code: name for name, code in TYPE_CODES.items()}

ID_PREFIXES = {
    "CSEBase": "cb",
    "AE": "ae",
    "Container": "cnt",
    "ContentInstance": "cin",
    "Subscription": "sub",
    "SemanticDescriptor": "smd",
    "Group": "grp",
}

LEGAL_CHILDREN = {
    "CSEBase": {"AE", "Container", "Subscription", "Group"},
    "AE": {"Container", "SemanticDescriptor", "Subscription", "Group"},
    "Container": {"Container", "ContentInstance", "SemanticDescriptor", "Subscription"},
    "ContentInstance": {"SemanticDescriptor"},
    "Group": {"SemanticDescriptor"},
    "SemanticDescriptor": set(),
    "Subscription": set(),
}

_NAME_PATTERN = "[A-Za-z0-9_.~-]{1,64}"
_NAME_RE = re.compile(_NAME_PATTERN)
_TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%S.%fZ"
_TIMESTAMP_RE = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}Z")


def _parse_timestamp(text: str) -> datetime:
    if not _TIMESTAMP_RE.fullmatch(text):
        raise ValueError(f"'{text}' is not a timestamp like 2024-01-31T12:00:00.000Z")
    return datetime.strptime(text, _TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)


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
    payload: dict[str, Any] = field(default_factory=dict)  # per-type extras

    def to_json(self) -> dict:
        out: dict[str, Any] = {
            "rn": self.rn,
            "ri": self.ri,
            "ty": TYPE_CODES[self.ty],
            "ct": self.ct,
            "lt": self.lt,
            "lbl": list(self.lbl),
            "pi": self.pi,
        }
        if self.ty == "ContentInstance":
            out["con"] = self.payload["con"]
            out["cnf"] = self.payload["cnf"]
        elif self.ty == "SemanticDescriptor":
            out["dsp"] = serialize_ntriples(self.payload["graph"])
        elif self.ty == "Subscription":
            out["nu"] = self.payload["nu"]
        elif self.ty == "Group":
            out["mid"] = list(self.payload["mid"])
        return out


def _check_labels(raw: Any) -> list[str]:
    if raw is None:
        return []
    if not isinstance(raw, list) or not all(isinstance(v, str) for v in raw):
        raise bad_request("'lbl' must be a list of strings")
    return list(raw)


class ResourceTree:
    """The CSE's resource store; all mutations run under one lock."""

    def __init__(self):
        self._lock = threading.RLock()
        self._counter = 0
        self._stamped = datetime.min.replace(tzinfo=timezone.utc)  # the last ct or lt issued
        self._by_ri: dict[str, Resource] = {}
        self._by_path: dict[str, str] = {}
        self._children: dict[str, dict[str, str]] = {}  # ri -> name -> child ri
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

    def _new_resource(
        self, ty: str, rn: str, parent: Resource | None, lbl: list[str], payload: dict
    ) -> Resource:
        self._counter += 1
        ri = f"{ID_PREFIXES[ty]}-{self._counter:05d}"
        path = f"{parent.path}/{rn}" if parent else f"/{rn}"
        created = self._stamp()
        resource = Resource(
            ri=ri, rn=rn, ty=ty, pi=parent.ri if parent else None, ct=created,
            lt=created, path=path, lbl=lbl, payload=payload,
        )
        self._by_ri[ri] = resource
        self._by_path[path] = ri
        self._children[ri] = {}
        if parent:
            self._children[parent.ri][rn] = ri
        return resource

    def lookup(self, path: str) -> Resource:
        with self._lock:
            ri = self._by_path.get(path)
            if ri is None:
                raise not_found(f"no such resource: {path}")
            return self._by_ri[ri]

    def _validate_payload(self, ty: str, body: dict) -> dict:
        if ty == "ContentInstance":
            if "con" not in body:
                raise bad_request("a ContentInstance needs a 'con' value")
            cnf = body.get("cnf", "application/json")
            if not isinstance(cnf, str) or not cnf:
                raise bad_request("'cnf' must be a non-empty media-type string")
            return {"con": body["con"], "cnf": cnf}
        if ty == "SemanticDescriptor":
            dsp = body.get("dsp")
            if not isinstance(dsp, str):
                raise bad_request("a SemanticDescriptor needs a 'dsp' N-Triples string")
            try:
                graph = parse_ntriples(dsp)
            except NTriplesError as exc:
                raise bad_request(f"descriptor does not parse: {exc}") from exc
            return {"graph": graph}
        if ty == "Subscription":
            nu = body.get("nu")
            if not valid_url(nu):
                raise bad_request("a Subscription needs an absolute http(s) 'nu' URL")
            return {"nu": nu}
        if ty == "Group":
            mid = body.get("mid")
            if not isinstance(mid, list) or not all(isinstance(m, str) for m in mid):
                raise bad_request("a Group needs a 'mid' list of resource ids")
            for member in mid:
                if member not in self._by_ri:
                    raise bad_request(f"group member '{member}' does not exist")
            return {"mid": list(mid)}
        return {}

    def create(self, parent_path: str, ty: str, body: dict) -> Resource:
        with self._lock:
            parent = self.lookup(parent_path)
            if ty not in LEGAL_CHILDREN[parent.ty]:
                raise bad_request(f"a {ty} cannot be created under a {parent.ty}")
            rn = body.get("rn")
            if not isinstance(rn, str) or not _NAME_RE.fullmatch(rn):
                raise bad_request(f"'rn' must match {_NAME_PATTERN}")
            if rn in self._children[parent.ri]:
                raise conflict(f"'{rn}' already exists under {parent_path}")
            if ty == "SemanticDescriptor":
                for child_ri in self._children[parent.ri].values():
                    if self._by_ri[child_ri].ty == "SemanticDescriptor":
                        raise bad_request(
                            f"{parent_path} already has a semantic descriptor"
                        )
            lbl = _check_labels(body.get("lbl"))
            payload = self._validate_payload(ty, body)
            return self._new_resource(ty, rn, parent, lbl, payload)

    _MUTABLE_KEYS = {
        "CSEBase": set(),
        "AE": set(),
        "Container": set(),
        "Group": {"mid"},
        "Subscription": {"nu"},
        "SemanticDescriptor": {"dsp"},
    }

    def update(self, path: str, body: dict) -> Resource:
        with self._lock:
            resource = self.lookup(path)
            if resource.ty == "ContentInstance":
                raise method_not_allowed("content instances are immutable")
            allowed = self._MUTABLE_KEYS[resource.ty] | {"lbl"}
            unknown = set(body) - allowed
            if unknown:
                raise bad_request(
                    f"cannot update {sorted(unknown)} on a {resource.ty}"
                )
            if "lbl" in body:
                resource.lbl = _check_labels(body["lbl"])
            payload_part = {k: v for k, v in body.items() if k != "lbl"}
            if payload_part:
                resource.payload.update(self._validate_payload(resource.ty, payload_part))
            resource.lt = self._stamp()
            return resource

    def delete(self, path: str) -> list[Resource]:
        """Remove the resource and its subtree; returns removed resources."""
        with self._lock:
            resource = self.lookup(path)
            if resource.ty == "CSEBase":
                raise method_not_allowed("the CSE base cannot be deleted")
            removed: list[Resource] = []
            stack = [resource]
            while stack:
                current = stack.pop()
                removed.append(current)
                for child_ri in self._children[current.ri].values():
                    stack.append(self._by_ri[child_ri])
            for gone in removed:
                del self._by_ri[gone.ri]
                del self._by_path[gone.path]
                del self._children[gone.ri]
            parent = self._by_ri.get(resource.pi or "")
            if parent:
                self._children[parent.ri].pop(resource.rn, None)
            return removed

    def children_of(self, resource: Resource) -> list[Resource]:
        with self._lock:
            return [self._by_ri[ri] for ri in self._children[resource.ri].values()]

    def descendants(self, root: Resource) -> list[Resource]:
        with self._lock:
            found: list[Resource] = []
            stack = list(self._children[root.ri].values())
            while stack:
                current = self._by_ri[stack.pop()]
                found.append(current)
                stack.extend(self._children[current.ri].values())
            return found

    def descriptor_graph(self, resource: Resource) -> Graph | None:
        with self._lock:
            for child in self.children_of(resource):
                if child.ty == "SemanticDescriptor":
                    return child.payload["graph"]
            return None

    def subscriptions_on(self, resource: Resource) -> list[Resource]:
        with self._lock:
            return [c for c in self.children_of(resource) if c.ty == "Subscription"]


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
    the query."""
    root = tree.lookup(root_path)
    query = None
    if semantic_filter is not None:
        query = parse_sparql(semantic_filter)  # SparqlSyntaxError escapes to caller
    hits = []
    for candidate in tree.descendants(root):
        if resource_type is not None and candidate.ty != resource_type:
            continue
        if labels and not (set(labels) & set(candidate.lbl)):
            continue
        if modified_since is not None and candidate.lt < modified_since:
            continue
        if query is not None:
            graph = tree.descriptor_graph(candidate)
            if graph is None or not evaluate(query, graph):
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
        try:
            ty = CODE_TYPES[int(raw_ty)]
        except (ValueError, KeyError):
            raise bad_request(f"unknown resource type code '{raw_ty}'") from None
        if ty == "CSEBase":
            raise bad_request("a CSE hosts exactly one CSE base")
        body = request.json()
        if not isinstance(body, dict):
            raise bad_request("create body must be a JSON object")
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
            self.dispatcher.submit(sub.ri, sub.payload["nu"], body)

    def _retrieve_or_discover(self, request: HttpRequest) -> HttpResponse:
        path = self._path_of(request)
        if request.query_first("fu") == "1":
            return self._discover(request, path)
        return HttpResponse(200, self.tree.lookup(path).to_json())

    def _discover(self, request: HttpRequest, path: str) -> HttpResponse:
        resource_type = None
        raw_ty = request.query_first("ty")
        if raw_ty is not None:
            try:
                resource_type = CODE_TYPES[int(raw_ty)]
            except (ValueError, KeyError):
                raise bad_request(f"unknown resource type code '{raw_ty}'") from None
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
        body = request.json()
        if not isinstance(body, dict):
            raise bad_request("update body must be a JSON object")
        resource = self.tree.update(self._path_of(request), body)
        return HttpResponse(200, resource.to_json())

    def _delete(self, request: HttpRequest) -> HttpResponse:
        removed = self.tree.delete(self._path_of(request))
        return HttpResponse(200, {"deleted": len(removed)})


# --- client helpers used by the gateway and the harness -----------------------


class CseClient:
    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")

    def create(self, parent_path: str, ty: str, body: dict) -> dict:
        status, payload = request_json(
            "POST", self.base_url + parent_path, body=body,
            headers={"X-M2M-TY": str(TYPE_CODES[ty]), "Content-Type": "application/json"},
        )
        if status != 201:
            raise ValueError(f"create {ty} under {parent_path} failed ({status}): {payload}")
        return payload

    def retrieve(self, path: str) -> dict:
        status, payload = get_json(self.base_url + path)
        if status != 200:
            raise ValueError(f"retrieve {path} failed ({status}): {payload}")
        return payload

    def delete(self, path: str) -> None:
        status, payload = request_json("DELETE", self.base_url + path)
        if status != 200:
            raise ValueError(f"delete {path} failed ({status}): {payload}")

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
        status, payload = get_json(url)
        if status != 200:
            raise ValueError(f"discovery under {root_path} failed ({status}): {payload}")
        return payload["uril"]
