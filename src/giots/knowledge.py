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
    """HTTP client with a short-lived positive cache per query.

    When the server is unreachable the client degrades to syntactic
    equality (a class is only a subclass of itself), which keeps the
    caller available at the cost of missing inferred matches.
    """

    def __init__(self, base_url: str, cache_ttl: float = CACHE_TTL_SECONDS):
        self.base_url = base_url.rstrip("/")
        self.cache_ttl = cache_ttl
        self._lock = threading.Lock()
        self._subclass_cache: dict[tuple[str, str], tuple[float, bool]] = {}
        self._expansion_cache: dict[str, tuple[float, list[str]]] = {}
        self._classes_cache: tuple[float, set[str]] = (0.0, set())

    def is_subclass(self, sub: str, sup: str) -> bool:
        if sub == sup:
            return True
        now = time.monotonic()
        key = (sub, sup)
        with self._lock:
            hit = self._subclass_cache.get(key)
            if hit and hit[0] > now:
                return hit[1]
        try:
            status, payload = get_json(
                f"{self.base_url}/is-subclass?"
                + urllib.parse.urlencode({"sub": sub, "sup": sup})
            )
        except TransportError as exc:
            log.warning("knowledge server unreachable, assuming no subsumption: %s", exc)
            return False
        result = bool(status == 200 and isinstance(payload, dict) and payload.get("result"))
        with self._lock:
            self._subclass_cache[key] = (now + self.cache_ttl, result)
        return result

    def subclasses_of(self, cls: str) -> list[str]:
        now = time.monotonic()
        with self._lock:
            hit = self._expansion_cache.get(cls)
            if hit and hit[0] > now:
                return list(hit[1])
        try:
            status, payload = get_json(
                f"{self.base_url}/subclasses?" + urllib.parse.urlencode({"class": cls})
            )
        except TransportError as exc:
            log.warning("knowledge server unreachable, expansion limited to %s: %s", cls, exc)
            return [cls]
        if status == 200 and isinstance(payload, dict):
            expansion = sorted(set(payload.get("subclasses") or [cls]) | {cls})
        else:
            expansion = [cls]
        with self._lock:
            self._expansion_cache[cls] = (now + self.cache_ttl, expansion)
        return list(expansion)

    def declared_class(self, cls: str) -> bool:
        now = time.monotonic()
        with self._lock:
            expires, classes = self._classes_cache
            if expires > now:
                return cls in classes
        try:
            status, payload = get_json(f"{self.base_url}/classes")
        except TransportError:
            return False
        ok = status == 200 and isinstance(payload, dict)
        classes = set(payload.get("classes") or []) if ok else set()
        with self._lock:
            self._classes_cache = (now + self.cache_ttl, classes)
        return cls in classes

    def upload(self, ntriples: str, merge: bool = False) -> dict:
        url = f"{self.base_url}/ontology"
        if merge:
            url += "?merge=true"
        status, payload = request_json("POST", url, body=ntriples)
        if status != 200:
            raise ValueError(f"ontology upload rejected ({status}): {payload}")
        return payload
