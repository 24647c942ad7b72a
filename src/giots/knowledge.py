"""Knowledge server: hosts a class hierarchy and answers subsumption
queries over HTTP, plus a small caching client used by the broker and
the mediation gateway.

The hosted ontology is replaced atomically on each upload; merged
uploads accumulate instead when the request asks for it.
"""

from __future__ import annotations

import logging
import threading
import time
import urllib.parse

from .httpkit import (
    HttpRequest,
    HttpResponse,
    JsonHttpService,
    TransportError,
    bad_request,
    get_json,
    not_found,
    request_json,
)
from .ontology import EMPTY_ONTOLOGY, Ontology, StructuralError, load_ontology
from .rdf import NTriplesError, parse_ntriples

log = logging.getLogger(__name__)

CACHE_TTL_SECONDS = 5.0
KNOWLEDGE_TIMEOUT = 2.0  # seconds a hung server may hold a caller


class KnowledgeService(JsonHttpService):
    name = "knowledge"

    def __init__(self, ontology: Ontology | None = None):
        super().__init__()
        self._lock = threading.Lock()
        self._ontology = ontology or EMPTY_ONTOLOGY
        self.router.add("POST", "/ontology", self._post_ontology)
        self.router.add("GET", "/is-subclass", self._get_is_subclass)
        self.router.add("GET", "/subclasses", self._get_subclasses)
        self.router.add("GET", "/property", self._get_property)
        self.router.add("GET", "/classes", self._get_classes)

    @property
    def ontology(self) -> Ontology:
        with self._lock:
            return self._ontology

    def _post_ontology(self, request: HttpRequest) -> HttpResponse:
        try:
            graph = parse_ntriples(request.text())
            uploaded = load_ontology(graph)
        except NTriplesError as exc:
            raise bad_request(f"ontology body is not valid N-Triples: {exc}") from exc
        except StructuralError as exc:
            raise bad_request(f"ontology is structurally invalid: {exc}") from exc
        merge = (request.query_first("merge") or "").lower() in {"1", "true"}
        with self._lock:
            self._ontology = self._ontology.merge(uploaded) if merge else uploaded
            snapshot = self._ontology
        return HttpResponse(
            200,
            {
                "classes": len(snapshot.classes),
                "properties": len(snapshot.properties),
                "subclassEdges": len(snapshot.subclass_edges),
            },
        )

    def _get_is_subclass(self, request: HttpRequest) -> HttpResponse:
        sub = request.query_first("sub")
        sup = request.query_first("sup")
        if not sub or not sup:
            raise bad_request("is-subclass needs both 'sub' and 'sup' query parameters")
        return HttpResponse(200, {"result": self.ontology.is_subclass(sub, sup)})

    def _get_subclasses(self, request: HttpRequest) -> HttpResponse:
        cls = request.query_first("class")
        if not cls:
            raise bad_request("subclasses needs a 'class' query parameter")
        return HttpResponse(200, {"subclasses": sorted(self.ontology.subclasses_of(cls))})

    def _get_property(self, request: HttpRequest) -> HttpResponse:
        iri = request.query_first("iri")
        if not iri:
            raise bad_request("property lookup needs an 'iri' query parameter")
        decl = self.ontology.lookup_property(iri)
        if decl is None:
            raise not_found(f"no declaration for property {iri}")
        return HttpResponse(200, decl.to_json())

    def _get_classes(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(200, {"classes": sorted(self.ontology.classes)})


class KnowledgeClient:
    """HTTP client for the three questions the stack asks the server.

    All three read one cache of GET replies keyed by route and class,
    each kept for CACHE_TTL_SECONDS. Subsumption is read from the
    superclass's expansion (`/subclasses`), so one request answers it
    for every subclass of that class. When the server is unreachable the
    client degrades to syntactic equality (a class is only a subclass of
    itself) and to no declared classes, which keeps the caller available
    at the cost of missing inferred matches; that answer is logged, and
    cached like the one to a non-200 reply. ``degraded`` counts both.
    """

    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")
        self._lock = threading.Lock()
        self._cache: dict[tuple[str, str], tuple[float, frozenset[str]]] = {}
        self.degraded = 0  # answers cached from an unreachable server or a non-200 reply

    def _fetch(self, route: str, cls: str = "") -> frozenset[str]:
        """The list a GET of `route` (with `class=cls`, if given) answers
        under the route's own name, as in `{"subclasses": [...]}`."""
        key = (route, cls)
        with self._lock:
            hit = self._cache.get(key)
            if hit and hit[0] > time.monotonic():
                return hit[1]
        query = "?" + urllib.parse.urlencode({"class": cls}) if cls else ""
        try:
            status, payload = get_json(f"{self.base_url}/{route}{query}", timeout=KNOWLEDGE_TIMEOUT)
        except TransportError as exc:
            log.warning("knowledge server unreachable, answering %s without it: %s", route, exc)
            status, payload = None, None
        ok = status == 200 and isinstance(payload, dict)
        values = frozenset(payload.get(route) or ()) if ok else frozenset()
        with self._lock:  # the TTL runs from the answer: a hung server may outlast it
            self._cache[key] = (time.monotonic() + CACHE_TTL_SECONDS, values)
            if not ok:
                self.degraded += 1
        return values

    def is_subclass(self, sub: str, sup: str) -> bool:
        return sub == sup or sub in self._fetch("subclasses", sup)

    def subclasses_of(self, cls: str) -> list[str]:
        return sorted(self._fetch("subclasses", cls) | {cls})

    def declared_class(self, cls: str) -> bool:
        return cls in self._fetch("classes")

    def upload(self, ntriples: str, merge: bool = False) -> dict:
        url = f"{self.base_url}/ontology"
        if merge:
            url += "?merge=true"
        status, payload = request_json("POST", url, body=ntriples)
        if status != 200:
            raise ValueError(f"ontology upload rejected ({status}): {payload}")
        return payload
